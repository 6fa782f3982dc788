"""The vertex factor pair of flow schedules and the evolution that powers it.

A flow schedule's entry (k, l) is the weight of (tail(k), k) wherever edge l
enters that vertex, so M = W H through the vertices, C = H W has M's nonzero
spectrum and A^k = W C^(k-1) H. The pair is checked on random flow graphs,
and _evolve, which powers C for flow schedules, against the edge-space
closed form in helpers.edge_space_evolve.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flownet import TimeVaryingMatrix, assemble_weighted_adjacency, build_graph, parse_expr
from flownet import evolution
from flownet.evolution import _evolve, midpoints
from flownet.scenario import load_scenario, scenario_from_dict
from flownet.schedules import FLOW, VertexFactors
from flownet.spectral import peripheral_count


@st.composite
def flow_schedules(draw):
    """(graph, weights) of a random flow graph: parallel edges, self-loops and
    vertices no edge enters allowed. A vertex's weights sum to 1 over its
    out-edges, a pair of them trading a cos^2/sin^2 share, or, unless every
    vertex's must, are arbitrary and possibly absent."""
    n = draw(st.integers(1, 5))
    edges = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), min_size=1, max_size=10))
    g = build_graph(edges, n)
    stochastic = draw(st.booleans())  # then M is column-stochastic if every head has out-edges
    weights = {}
    for v in range(1, n + 1):
        out = helpers.out_edges(g, v)
        if not out:
            continue
        if stochastic or draw(st.booleans()):
            shares = draw(st.lists(st.integers(1, 10), min_size=len(out), max_size=len(out)))
            sources = [repr(share / sum(shares)) for share in shares]
            if len(out) > 1:
                p, q = draw(st.lists(st.sampled_from(range(len(out))), min_size=2, max_size=2,
                                     unique=True))
                a = min(shares[p], shares[q]) / sum(shares)
                k = draw(st.integers(1, 3))
                sources[p] = f"{shares[p] / sum(shares) - a!r} + {a!r}*cos({k}*pi*t)^2"
                sources[q] = f"{shares[q] / sum(shares) - a!r} + {a!r}*sin({k}*pi*t)^2"
            weights.update({(v, j): w for j, w in zip(out, sources)})
        else:
            for j in out:
                c = draw(st.integers(0, 200)) / 100  # the grammar has no exponent notation
                w = draw(st.sampled_from([None, repr(c), f"{c!r}*sin(2*pi*t)^2"]))
                if w is not None:
                    weights[(v, j)] = w
    return g, weights


@settings(max_examples=300, derandomize=True, deadline=None)
@given(flow_schedules())
def test_vertex_factors_reproduce_the_schedule_and_its_spectrum(schedule):
    g, weights = schedule
    M = assemble_weighted_adjacency(g, weights)
    factors = M.vertex_factors
    heads, tails, n = factors.heads, factors.tails, factors.n
    graph_heads = [h for _, h in g.edges]
    # one class per vertex some edge enters, at most
    assert sorted(set(heads.tolist())) == list(range(n)) and n <= len(set(graph_heads))
    assert all(heads[a] == heads[b] for a in range(g.m) for b in range(g.m)
               if graph_heads[a] == graph_heads[b])
    H = np.zeros((n, g.m))
    H[heads, np.arange(g.m)] = 1.0
    ts = sorted(M.critical_times() | {j / 6 for j in range(6)})
    table = M.table(ts)
    dense = M.scatter(table)
    weights = factors.weights(table)
    W = np.zeros((len(ts), g.m, n))
    W[:, np.arange(g.m), tails] = weights
    assert (W @ H).tobytes() == dense.tobytes()
    C = factors.transfer(weights)
    assert np.allclose(C, H @ W, rtol=0.0, atol=1e-15)  # parallel edges add in another order
    u = np.arange(1.0, 1.0 + 3 * g.m).reshape(g.m, 3)
    assert np.array_equal(factors.collect(u), H @ u)  # small integers add exactly
    # column l of M sums what column heads[l] of C sums
    assert np.allclose(C.sum(axis=1)[:, heads], dense.sum(axis=1), rtol=0.0, atol=1e-12)
    for A, Ct in zip(dense, C):
        if np.abs(A.sum(axis=0) - 1.0).max() <= 1e-9:
            assert np.abs(Ct.sum(axis=0) - 1.0).max() <= 1e-9
            assert peripheral_count(Ct) == peripheral_count(A)


def test_allocation_schedules_have_no_factor_pair():
    assert load_scenario("junction").matrix.vertex_factors is None


def assert_close(got, expected):
    """Agreement to 1e-12, relative above magnitude 1."""
    scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(expected)))
    assert got.shape == expected.shape
    assert (np.abs(got - expected) <= 1e-12 * scale).all(), np.abs(got - expected).max()


def ring(vertices):
    """A perfbench ring scenario (perfbench/gen.py)."""
    return scenario_from_dict(helpers.load_perfbench("gen").ring_scenario(1, vertices))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_evolve_matches_edge_space_on_examples(name):
    sc = load_scenario(name)
    xs = midpoints(sc.resolution)
    for s, t in ((0.0, 0.0), (0.2, 0.7), (0.0, 1.0), (0.3, 7.5), (0.0, 40.0), (0.0, 1000.5)):
        assert_close(_evolve(sc.matrix, sc.initial, s, t, xs),
                     helpers.edge_space_evolve(sc.matrix, sc.initial, s, t, xs))


@pytest.mark.parametrize("vertices,N", [(8, 2000), (50, 40)])  # 24 and 150 edges
def test_evolve_matches_edge_space_on_rings(vertices, N):
    sc = ring(vertices)
    assert sc.matrix.dim == 3 * vertices
    xs = midpoints(N)
    assert_close(_evolve(sc.matrix, sc.initial, 0.0, 1000.5, xs),
                 helpers.edge_space_evolve(sc.matrix, sc.initial, 0.0, 1000.5, xs))


def test_evolve_matches_edge_space_over_many_chunks():
    sc = ring(8)
    N = 3 * helpers.chunk_points(sc.matrix) + 7
    xs = midpoints(N)
    for t in (0.6, 1.0, 7.5, 1000.5):
        assert_close(_evolve(sc.matrix, sc.initial, 0.1, t, xs),
                     helpers.edge_space_evolve(sc.matrix, sc.initial, 0.1, t, xs))


def test_evolve_before_one_period_mixes_unpowered_and_once_powered_points():
    sc = load_scenario("example2")
    xs = midpoints(400)
    s, t = 0.2, 0.7
    ks = evolution._characteristics(xs, s, t)[1]
    assert set(ks.tolist()) == {0, 1}
    got = _evolve(sc.matrix, sc.initial, s, t, xs)
    assert_close(got, helpers.edge_space_evolve(sc.matrix, sc.initial, s, t, xs))
    data = sc.initial.evaluate(evolution._characteristics(xs, s, t)[2])
    assert np.array_equal(got[:, ks == 0], data[:, ks == 0])


def test_evolve_at_the_start_time_is_the_data():
    sc = ring(8)
    xs = midpoints(300)
    got = _evolve(sc.matrix, sc.initial, 0.4, 0.4, xs)
    assert got.tobytes() == sc.initial.evaluate(xs).tobytes()


def test_junction_evolve_is_bitwise_the_edge_space_closed_form():
    sc = load_scenario("junction")
    for N in (40, 4000):
        xs = midpoints(N)
        for s, t in ((0.0, 0.0), (0.2, 0.7), (0.0, 7.5), (0.0, 1000.5)):
            got = _evolve(sc.matrix, sc.initial, s, t, xs)
            expected = helpers.edge_space_evolve(sc.matrix, sc.initial, s, t, xs)
            assert got.tobytes("A") == expected.tobytes("A")
            assert got.flags.f_contiguous == expected.flags.f_contiguous


def test_a_flow_matrix_whose_rows_span_two_classes_is_powered_in_edge_space():
    # no flow assembly makes it, but TimeVaryingMatrix takes it: row 1 fills
    # columns 1 and 2, which hold different expressions
    entries = {(1, 1): "0.5", (1, 2): "0.25", (2, 1): "0.5", (2, 2): "0.75"}
    M = TimeVaryingMatrix(dim=2, entries={k: parse_expr(v) for k, v in entries.items()},
                          kind=FLOW, adjacency=np.ones((2, 2), dtype=np.int64))
    assert M.vertex_factors is None
    f = helpers.constant_initial([1.0, 2.0])
    xs = midpoints(16)
    got = _evolve(M, f, 0.0, 5.5, xs)
    assert got.tobytes("A") == helpers.edge_space_evolve(M, f, 0.0, 5.5, xs).tobytes("A")


def test_no_stack_of_c_is_built_where_no_point_crosses_twice(monkeypatch):
    sc = load_scenario("example1")
    stacks = []
    transfer = VertexFactors.transfer
    monkeypatch.setattr(VertexFactors, "transfer", lambda self, w: stacks.append(len(w))
                        or transfer(self, w))
    xs = midpoints(400)
    for s, t, built in ((0.0, 0.5, 0), (0.0, 1.0, 0), (0.3, 1.2, 0), (0.0, 1.5, 400),
                        (0.0, 7.0, 400)):
        stacks.clear()
        got = _evolve(sc.matrix, sc.initial, s, t, xs)
        assert sum(stacks) == built
        assert np.abs(got - helpers.edge_space_evolve(sc.matrix, sc.initial, s, t, xs)).max() <= 1e-12

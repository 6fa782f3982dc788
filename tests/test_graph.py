import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flownet import (
    GraphError,
    build_graph,
    cyclic_index,
    is_strongly_connected,
    line_graph_adjacency,
)


def test_two_cycle_incidence():
    g = helpers.two_cycle_graph()
    assert g.phi_minus.tolist() == [[1, 0], [0, 1]]
    assert g.phi_plus.tolist() == [[0, 1], [1, 0]]


def test_self_loop_incidence():
    g = build_graph([(1, 1)], 1)
    assert g.phi_minus.tolist() == [[1]]
    assert g.phi_plus.tolist() == [[1]]


def test_incidence_column_sums_always_one():
    rng = random.Random(7)
    for _ in range(50):
        g = helpers.random_strong_graph(rng)
        assert (g.phi_minus.sum(axis=0) == 1).all()
        assert (g.phi_plus.sum(axis=0) == 1).all()


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph([], 3)
    with pytest.raises(GraphError):
        build_graph([(1, 4)], 3)
    with pytest.raises(GraphError):
        build_graph([(0, 1)], 3)


def test_example1_support_matches_printed_matrix():
    g = helpers.example1_graph()
    adj = line_graph_adjacency(g)
    expected = np.zeros((6, 6), dtype=np.int64)
    for k, l in [(1, 4), (2, 1), (3, 2), (3, 6), (4, 3), (5, 3), (6, 5)]:
        expected[k - 1, l - 1] = 1
    assert np.array_equal(adj, expected)
    # product with unit weights reproduces the same support
    product = g.phi_minus.T @ g.phi_plus
    assert np.array_equal((product > 0).astype(int), expected)


def test_line_graph_trivial_cases():
    assert line_graph_adjacency(helpers.two_cycle_graph()).tolist() == [[0, 1], [1, 0]]
    assert line_graph_adjacency(build_graph([(1, 1)], 1)).tolist() == [[1]]


def test_strong_connectivity_examples():
    assert is_strongly_connected(line_graph_adjacency(helpers.example1_graph()))
    two_components = np.zeros((4, 4), dtype=np.int64)
    two_components[0, 1] = two_components[1, 0] = 1
    two_components[2, 3] = two_components[3, 2] = 1
    assert not is_strongly_connected(two_components)
    assert is_strongly_connected(np.array([[1]]))
    assert not is_strongly_connected(np.array([[0]]))


def test_strong_connectivity_matches_transitive_closure():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        m = rng.randint(1, 8)
        pattern = helpers.random_pattern(rng, m, density=rng.uniform(0.1, 0.6))
        got = is_strongly_connected(pattern)
        assert got == helpers.closure_strongly_connected(pattern)
        checked += got
    assert checked > 10  # sample actually contains connected cases


def test_cyclic_index_examples():
    assert cyclic_index(line_graph_adjacency(helpers.example1_graph())) == 1
    perm = np.zeros((4, 4), dtype=np.int64)
    for j in range(4):
        perm[(j + 1) % 4, j] = 1
    assert cyclic_index(perm) == 4
    # with every edge active, the second worked example's network is bipartite
    assert cyclic_index(line_graph_adjacency(helpers.example2_graph())) == 2


def test_cyclic_index_rejects_reducible():
    with pytest.raises(GraphError):
        cyclic_index(np.array([[0, 1], [0, 0]]))


def test_cyclic_index_of_cycle_equals_length():
    for length in range(1, 9):
        g = helpers.cycle_graph(length)
        assert cyclic_index(line_graph_adjacency(g)) == length


def test_cyclic_index_divides_every_enumerated_cycle():
    rng = random.Random(23)
    done = 0
    while done < 60:
        m = rng.randint(1, 8)
        pattern = helpers.random_pattern(rng, m, density=rng.uniform(0.2, 0.6))
        if not helpers.closure_strongly_connected(pattern):
            continue
        h = cyclic_index(pattern)
        lengths = [len(c) for c in nx.simple_cycles(helpers.to_digraph(pattern))]
        assert lengths, "strongly connected pattern must contain a cycle"
        assert all(length % h == 0 for length in lengths)
        assert h == math.gcd(*lengths)
        done += 1


def test_vertex_relabeling_leaves_line_graph_unchanged():
    rng = random.Random(5)
    for _ in range(25):
        g = helpers.random_strong_graph(rng)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        relabeled = build_graph([(perm[t - 1], perm[h - 1]) for t, h in g.edges], g.n)
        assert np.array_equal(line_graph_adjacency(g), line_graph_adjacency(relabeled))


def test_line_graph_adjacency_is_a_read_only_int64_array():
    b = line_graph_adjacency(helpers.example1_graph())
    assert isinstance(b, np.ndarray) and b.dtype == np.int64 and not b.flags.writeable


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), max_m=st.integers(2, 12))
def test_line_graph_adjacency_is_the_incidence_product_support(seed, max_m):
    # random_strong_graph draws self-loops and parallel edges among its extras
    g = helpers.random_strong_graph(random.Random(seed), max_m)
    b = line_graph_adjacency(g)
    want = (g.phi_minus.T @ g.phi_plus > 0).astype(np.int64)
    assert b.dtype == np.int64 and b.flags.c_contiguous and not b.flags.writeable
    assert b.shape == want.shape and b.tobytes() == want.tobytes()


def test_line_graph_adjacency_of_self_loops_and_parallel_edges():
    # e1, e2: parallel 1 -> 2; e3: 2 -> 1; e4: self-loop at 2
    b = line_graph_adjacency(build_graph([(1, 2), (1, 2), (2, 1), (2, 2)], 2))
    assert b.tolist() == [[0, 0, 1, 0], [0, 0, 1, 0], [1, 1, 0, 1], [1, 1, 0, 1]]


def test_edge_irreducibility_equals_vertex_strong_connectivity():
    # the two notions coincide whenever every vertex touches an edge
    rng = random.Random(31)
    checked_connected = checked_disconnected = 0
    while checked_connected < 20 or checked_disconnected < 20:
        n = rng.randint(2, 5)
        m = rng.randint(n, 8)
        edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)]
        touched = {v for e in edges for v in e}
        if touched != set(range(1, n + 1)):
            continue
        g = build_graph(edges, n)
        vertex_graph = nx.DiGraph()
        vertex_graph.add_nodes_from(range(1, n + 1))
        vertex_graph.add_edges_from(edges)
        expected = nx.is_strongly_connected(vertex_graph)
        assert is_strongly_connected(line_graph_adjacency(g)) == expected
        if expected:
            checked_connected += 1
        else:
            checked_disconnected += 1

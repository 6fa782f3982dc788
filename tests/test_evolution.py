import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flownet import (
    EvolutionError,
    InitialData,
    assemble_allocation,
    assemble_weighted_adjacency,
    boundary_residual,
    build_graph,
    l1_norm,
    propagate,
)
from flownet import evolution
from flownet.evolution import PiecewiseProfile, _evolve, midpoints
from flownet.expr import parse_expr


def example1_setup():
    M = assemble_weighted_adjacency(helpers.example1_graph(), helpers.EXAMPLE1_WEIGHTS)
    f = helpers.constant_initial([1.0] * 6)
    return M, f


def smooth_initial(m):
    return helpers.expression_initial(
        [f"0.5 + 0.25*sin(pi*x) + 0.1*{j}" for j in range(m)]
    )


def three_cycle_matrix():
    g = helpers.cycle_graph(3)
    return assemble_weighted_adjacency(g, {(1, 1): "1", (2, 2): "1", (3, 3): "1"})


def test_identity_at_start_time_is_exact():
    M, _ = example1_setup()
    f = smooth_initial(6)
    field = propagate(M, f, 0.0, 0.0, 257)
    assert np.array_equal(field.values, f.evaluate(field.grid()))


def test_pure_shift_before_first_crossing():
    M, _ = example1_setup()
    f = smooth_initial(6)
    got = _evolve(M, f, 0.0, 0.3, [0.2])[:, 0]
    expected = f.evaluate(np.asarray([0.5]))[:, 0]
    assert np.allclose(got, expected, atol=1e-15)


def test_cycle_returns_after_full_loop():
    M = three_cycle_matrix()
    f = helpers.expression_initial(["sin(pi*x)^2", "0", "0"])
    for x in (0.1, 0.5, 0.9):
        got = _evolve(M, f, 0.0, 3.0, [x])[:, 0]
        expected = f.evaluate(np.asarray([x]))[:, 0]
        assert np.allclose(got, expected, atol=1e-15)


def test_two_cycle_swaps_edges_after_unit_time():
    g = helpers.two_cycle_graph()
    M = assemble_weighted_adjacency(g, {(1, 1): "1", (2, 2): "1"})
    f = helpers.constant_initial([1.0, 0.0])
    field = propagate(M, f, 0.0, 1.0, 100)
    assert np.allclose(field.values[0], 0.0, atol=1e-15)
    assert np.allclose(field.values[1], 1.0, atol=1e-15)


def test_preconditions():
    M, f = example1_setup()
    with pytest.raises(EvolutionError):
        _evolve(M, f, 1.0, 0.5, [0.1])
    with pytest.raises(EvolutionError):
        _evolve(M, f, 0.0, 1.0, [1.5])
    with pytest.raises(EvolutionError):
        propagate(M, f, 0.0, 1.0, 0)


@pytest.mark.parametrize("s,t", [
    (0.0, float("nan")), (0.0, float("inf")), (float("nan"), 1.0),
    (float("-inf"), 1.0), (0.0, 2.0 ** 53), (-1e300, 1e300),
])
def test_non_finite_and_unresolvable_times_are_rejected(s, t):
    M, f = example1_setup()
    with pytest.raises(EvolutionError):
        _evolve(M, f, s, t, [0.5])
    with pytest.raises(EvolutionError):
        propagate(M, f, s, t, 10)


def test_last_resolvable_span_is_evaluated():
    M, f = example1_setup()
    t = 2.0 ** 53 - 2.0
    assert np.isfinite(_evolve(M, f, 0.0, t, [0.5])[:, 0]).all()


def test_l1_norm_constants_exact():
    M, f = example1_setup()
    for N in (10, 123, 1000):
        field = propagate(M, f, 0.0, 0.0, N)
        masses, total = l1_norm(field)
        assert total == pytest.approx(6.0, abs=1e-12)
        assert np.allclose(masses, 1.0, atol=1e-12)


def test_l1_norm_affine_midpoint_exactness():
    f = helpers.expression_initial(["2*x", "0"])
    field_values = f.evaluate(midpoints(1000))
    from flownet.evolution import EdgeDensityField

    field = EdgeDensityField(values=field_values, resolution=1000, time=0.0, origin=0.0)
    masses, total = l1_norm(field)
    assert masses[0] == pytest.approx(1.0, abs=1e-12)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_mass_conserved_example1_long_horizon():
    M, f = example1_setup()
    field = propagate(M, f, 0.0, 7.3, 400)
    _, total = l1_norm(field)
    assert abs(total - 6.0) <= 1e-9


def test_uniform_data_stays_pointwise_stochastic():
    # with f = 1 every cross-section is a column-stochastic image of ones
    M, f = example1_setup()
    field = propagate(M, f, 0.0, 10.0, 400)
    assert np.allclose(field.values.sum(axis=0), 6.0, atol=1e-9)
    assert abs(l1_norm(field)[1] - 6.0) <= 1e-9


def test_boundary_law_holds_exactly_on_the_formula():
    # at the edge endpoints the closed form gives u(1,t) = M(t) u(0,t) outright
    M, _ = example1_setup()
    f = InitialData(tuple(
        PiecewiseProfile((0.0, 0.4, 1.0), (float(j), 2.0 - 0.2 * j)) for j in range(6)
    ))
    for t in (0.3, 1.7, 2.45, 6.9):
        left = _evolve(M, f, 0.0, t, [1.0])[:, 0]
        right = M.at(t % 1.0) @ _evolve(M, f, 0.0, t, [0.0])[:, 0]
        assert np.abs(left - right).max() <= 1e-13


def test_mass_conserved_piecewise_aligned():
    M, _ = example1_setup()
    rng = random.Random(17)
    N = 200
    doc = helpers.random_piecewise_initial(rng, 6, N)
    profiles = tuple(
        PiecewiseProfile(tuple(doc[str(j)]["breaks"]), tuple(doc[str(j)]["values"]))
        for j in range(1, 7)
    )
    f = InitialData(profiles)
    total0 = l1_norm(propagate(M, f, 0.0, 0.0, N))[1]
    # the sample points shift rigidly mod 1, so grid-aligned piecewise data
    # is integrated exactly at any horizon, integer or not
    for t in (10.0, 7.3, 4.81):
        total = l1_norm(propagate(M, f, 0.0, t, N))[1]
        assert abs(total - total0) <= 1e-12


def test_random_allocation_mode_conserves_mass():
    # edge-resolved proportions instead of vertex weights, same conservation law
    from flownet import assemble_allocation, line_graph_adjacency

    rng = random.Random(29)
    for _ in range(10):
        g = helpers.random_strong_graph(rng, max_m=7)
        adj = line_graph_adjacency(g)
        entries = {}
        for l in range(1, g.m + 1):
            followers = [k for k in range(1, g.m + 1) if adj[k - 1, l - 1]]
            raw = [rng.uniform(0.2, 1.0) for _ in followers]
            total = sum(raw)
            consts = [r / total for r in raw]
            if len(followers) >= 2:
                beta = 0.4 * min(consts[0], consts[1])
                entries[(followers[0], l)] = (
                    f"{consts[0]!r} + {beta!r}*cos(pi*t)^2 - {beta!r}*sin(pi*t)^2"
                )
                entries[(followers[1], l)] = (
                    f"{consts[1]!r} + {beta!r}*sin(pi*t)^2 - {beta!r}*cos(pi*t)^2"
                )
                for k, c in zip(followers[2:], consts[2:]):
                    entries[(k, l)] = repr(c)
            else:
                entries[(followers[0], l)] = "1"
        M = assemble_allocation(adj, entries)
        f = helpers.constant_initial([rng.uniform(0.0, 2.0) for _ in range(g.m)])
        total0 = l1_norm(propagate(M, f, 0.0, 0.0, 128))[1]
        field = propagate(M, f, 0.0, 10.0, 128)
        assert abs(l1_norm(field)[1] - total0) <= 1e-9
        assert field.values.min() >= 0.0


def test_long_horizon_powers_stay_bounded():
    M, f = example1_setup()
    field = propagate(M, f, 0.0, 500.3, 200)
    assert np.isfinite(field.values).all()
    assert abs(l1_norm(field)[1] - 6.0) <= 1e-8
    assert field.values.min() >= 0.0


def test_positivity_preserved():
    M, _ = example1_setup()
    f = helpers.expression_initial(["0.5 + 0.5*sin(pi*x)"] * 6)
    field = propagate(M, f, 0.0, 4.6, 300)
    assert field.values.min() >= 0.0


def test_signed_data_contracts():
    M, _ = example1_setup()
    f = helpers.expression_initial(["x - 0.3", "0.2 - x", "0.5", "-0.1", "x^2 - 0.5", "0"])
    totals = [l1_norm(propagate(M, f, 0.0, t, 400))[1] for t in (0.0, 1.1, 2.7, 5.0, 9.3)]
    for earlier, later in zip(totals, totals[1:]):
        assert later <= earlier + 1e-12


def test_boundary_residual_constant_schedule_is_zero():
    g = helpers.two_cycle_graph()
    M = assemble_weighted_adjacency(g, {(1, 1): "1", (2, 2): "1"})
    f = smooth_initial(2)
    assert boundary_residual(M, f, 0.0, 2.5, 1e-6) == 0.0


def test_boundary_residual_example1_smooth():
    M, _ = example1_setup()
    f = smooth_initial(6)
    assert boundary_residual(M, f, 0.0, 2.5, 1e-6) <= 1e-4


def test_boundary_residual_reports_jump_without_error():
    M, _ = example1_setup()
    f = InitialData(
        (PiecewiseProfile((0.0, 0.25, 1.0), (2.0, 0.5)),) + tuple(
            PiecewiseProfile((0.0, 1.0), (1.0,)) for _ in range(5)
        )
    )
    value = boundary_residual(M, f, 0.0, 3.0, 1e-4)
    assert np.isfinite(value)


def test_boundary_residual_validates_eps():
    M, f = example1_setup()
    with pytest.raises(EvolutionError):
        boundary_residual(M, f, 0.0, 1.0, 0.01)
    with pytest.raises(EvolutionError):
        boundary_residual(M, f, 0.0, 1e-9, 1e-6)


def test_oracle_matches_formula_for_constant_schedule():
    M = three_cycle_matrix()
    f = smooth_initial(3)
    N = 50
    exact = propagate(M, f, 0.0, 1.0, N)
    simulated = helpers.oracle_characteristics(M, f, 0.0, 1.0, N, 1.0 / N)
    assert np.allclose(exact.values, simulated.values, atol=1e-15)


def test_oracle_zero_data_stays_zero():
    M, _ = example1_setup()
    f = helpers.constant_initial([0.0] * 6)
    field = helpers.oracle_characteristics(M, f, 0.0, 2.0, 100, 1 / 500)
    assert np.array_equal(field.values, np.zeros((6, 100)))


def test_oracle_first_order_agreement_example1():
    M, f = example1_setup()
    exact = propagate(M, f, 0.0, 3.7, 500)
    simulated = helpers.oracle_characteristics(M, f, 0.0, 3.7, 500, 1 / 5000)
    deviation = np.abs(exact.values - simulated.values).max()
    assert deviation <= 1e-3


def test_oracle_rejects_misaligned_dt():
    M, f = example1_setup()
    with pytest.raises(EvolutionError):
        helpers.oracle_characteristics(M, f, 0.0, 1.0, 400, 1 / 1000)  # dt > cell width ratio not integer
    with pytest.raises(EvolutionError):
        helpers.oracle_characteristics(M, f, 0.0, 0.3333, 100, 1 / 200)  # horizon off the step grid


def test_cocycle_property_exact():
    rng = random.Random(41)
    for name, edges, weights in [
        ("example1", helpers.EXAMPLE1_EDGES, helpers.EXAMPLE1_WEIGHTS),
        ("example2", helpers.EXAMPLE2_EDGES, helpers.EXAMPLE2_WEIGHTS),
    ]:
        g = build_graph(edges, 5)
        M = assemble_weighted_adjacency(g, weights)
        f = smooth_initial(g.m)
        for _ in range(20):
            s = rng.uniform(0.0, 1.0)
            t1 = s + rng.uniform(0.0, 3.0)
            t2 = t1 + rng.uniform(0.0, 3.0)
            direct = propagate(M, f, s, t2, 100)
            restart = helpers.initial_from_evolution(M, f, s, t1)
            composed = propagate(M, restart, t1, t2, 100)
            assert np.abs(direct.values - composed.values).max() <= 1e-12, name


def test_evolve_matches_matrix_power_times_vector():
    rng = random.Random(2024)
    g = helpers.random_strong_graph(rng, max_m=8)
    M = assemble_weighted_adjacency(g, helpers.random_flow_weights(rng, g))
    f = smooth_initial(g.m)
    s = 0.3
    xs = np.asarray([0.0, 0.1, 0.49, 0.5, 0.77, 1.0])
    ends = set()
    for k in range(71):
        # t - s whole: only x = 1.0 crosses once more, or every point but x = 0
        # where t - s rounds just below the integer; t - s = k + 1/2: the upper
        # half of the edge does.
        for t in (s + k, s + k + 0.5):
            got = _evolve(M, f, s, t, xs)
            d = t - s  # split exactly into whole periods and a fraction
            whole, frac = math.floor(d), math.fmod(d, 1.0)
            ks = []
            for r, x in enumerate(xs):
                z = x + frac
                crossings = whole + math.floor(z)
                ks.append(crossings)
                A = M.at(float(np.mod(np.mod(t, 1.0) + x, 1.0)))
                v = f.evaluate([z - math.floor(z)])[:, 0]
                expected = np.linalg.matrix_power(A, crossings) @ v
                assert np.abs(got[:, r] - expected).max() <= 1e-12, (k, t, x)
            ends.add((ks[0] - whole, ks[-1] - whole))
    # x = 0 crosses floor(t - s) times and x = 1 once more, also where t - s
    # rounds just below an integer (t = 2.3: t - s = 2 - 2^-52, and x + (t - s)
    # would round to 3 at x = 1).
    assert ends == {(0, 1)}


# t - s from a fraction of a period to 2^52 periods, at every binade
SPANS = (st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-3, 52))
         | st.integers(0, 52).map(lambda e: 2.0 ** e + 0.5)
         | st.integers(0, 2 ** 52))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(N=st.integers(1, 4096),
       s=st.floats(-2.0 ** 52, 2.0 ** 52) | st.sampled_from([0.0, 0.3, -0.3, 1.75, -2.0 ** 40]),
       span=SPANS)
def test_characteristics_split_t_minus_s_exactly(N, s, span):
    xs = midpoints(N)
    t = s + span
    d = t - s
    assert 0.0 <= d < evolution._MAX_SPAN
    phases, ks, xi = evolution._characteristics(xs, s, t)
    assert phases.tobytes() == np.mod(np.mod(t, 1.0) + xs, 1.0).tobytes()
    frac = math.fmod(d, 1.0)
    assert ks.dtype == np.int64
    assert ks.tolist() == [math.floor(d) + math.floor(x + frac) for x in xs.tolist()]
    assert ((0.0 <= xi) & (xi < 1.0)).all()


def test_far_time_keeps_every_grid_phase():
    # (t + x) mod 1 in the magnitude of t left 4096 distinct phases here
    phases = evolution._characteristics(midpoints(10 ** 4), 0.0, 2.0 ** 40 + 0.5)[0]
    assert len(np.unique(phases)) == 10 ** 4


def test_evolve_memory_stays_within_two_stacks():
    g, weights = helpers.ring_network(random.Random(5), 8)
    M = assemble_weighted_adjacency(g, weights)
    f = smooth_initial(g.m)
    N = 2000
    xs = midpoints(N)
    stack_bytes = N * g.m * g.m * 8
    _evolve(M, f, 0.0, 3.5, xs)  # one-time allocations are not charged below
    for t, bound in ((1000.5, 2.25), (1000.0, 2.25), (0.0, 0.25)):
        tracemalloc.start()
        try:
            _evolve(M, f, 0.0, t, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * stack_bytes, (t, peak / stack_bytes)


def _evolve_whole_grid(M, f, s, t, xs):
    """_evolve before chunking: one (N, m, m) stack for the whole grid. The
    oracle for an allocation schedule's chunked values and memory layout."""
    phases, ks, xi = evolution._characteristics(xs, s, t)
    out = f.evaluate(xi)
    if not ks.any():
        return out
    base = M.at_times(phases)
    k0 = int(ks.min())
    for above in range(k0 + 1, int(ks.max()) + 1):
        extra = ks >= above
        out[:, extra] = np.einsum("rij,jr->ir", base, out)[:, extra]
    spare = None
    while k0:
        if k0 & 1:
            out = np.einsum("rij,jr->ir", base, out)
        k0 >>= 1
        if k0:
            base, spare = np.matmul(base, base, out=spare), base
    return out


def ring_setup(n):
    g, weights = helpers.ring_network(random.Random(5), n)
    return assemble_weighted_adjacency(g, weights), smooth_initial(g.m)


def allocation_twin(M):
    """The same schedule as an allocation one, which _evolve powers as m x m A."""
    return assemble_allocation(M.adjacency, M.entries)


def assert_same_as_whole_grid(monkeypatch, M, f, s, t, xs):
    got = _evolve(M, f, s, t, xs)
    with monkeypatch.context() as whole:
        whole.setattr(evolution, "_CHUNK_BYTES", 1 << 62)
        expected = _evolve(M, f, s, t, xs)
    if M.vertex_factors is None:  # and bitwise the closed form before chunking
        assert expected.tobytes("A") == _evolve_whole_grid(M, f, s, t, xs).tobytes("A")
    assert got.tobytes("A") == expected.tobytes("A"), (len(xs), t - s)
    assert got.flags.f_contiguous == expected.flags.f_contiguous, (len(xs), t - s)
    assert got.flags.c_contiguous == expected.flags.c_contiguous, (len(xs), t - s)


@pytest.mark.parametrize("span", [0.0, 0.3, 1.0, 7.5, 1000.5])
def test_chunked_evolve_is_bitwise_the_whole_grid(monkeypatch, span):
    flow, f = ring_setup(8)  # m = 24, n' = 8
    s = 0.2
    for M in (flow, allocation_twin(flow)):
        c = helpers.chunk_points(M)
        assert c > 1
        for N in (1, c - 1, c, c + 1, 3 * c + 7):
            assert_same_as_whole_grid(monkeypatch, M, f, s, s + span, midpoints(N))


def test_chunked_evolve_one_point_per_chunk(monkeypatch):
    flow, f = ring_setup(8)
    monkeypatch.setattr(evolution, "_CHUNK_BYTES", 8)  # one point's stacks exceed the budget
    for M in (flow, allocation_twin(flow)):
        assert helpers.chunk_points(M) == 1
        for span in (0.0, 0.3, 1.0, 7.5):
            assert_same_as_whole_grid(monkeypatch, M, f, 0.2, 0.2 + span, midpoints(4))


def test_chunks_power_from_the_global_least_crossing(monkeypatch):
    # Above x = 1/2 every chunk crosses k0 + 1 times: powering such a chunk
    # from its own least crossing groups the products differently.
    flow, f = ring_setup(8)
    for M in (flow, allocation_twin(flow)):
        c = helpers.chunk_points(M)
        xs = midpoints(3 * c + 7)
        for span in (7.5, 1000.5):
            ks = evolution._characteristics(xs, 0.0, span)[1]
            assert any(ks[lo:lo + c].min() > ks.min() for lo in range(0, len(xs), c))
            assert_same_as_whole_grid(monkeypatch, M, f, 0.0, span, xs)


@pytest.mark.parametrize("N", [20000, 100000])
def test_evolve_memory_grows_with_grid_times_edges_only(N):
    # The state, the data, the characteristics and the schedule table grow
    # with N*m and N*d; the stacks are one chunk's, whatever N. The
    # whole-grid version peaked at 2 * N * m^2 * 8 bytes: 184 MB at N = 20000.
    M, f = ring_setup(8)
    m, d = M.dim, len(M.table([0.0])[0])
    xs = midpoints(N)
    _evolve(M, f, 0.0, 3.5, midpoints(10))  # one-time allocations are not charged
    tracemalloc.start()
    try:
        _evolve(M, f, 0.0, 1000.5, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = (3 * m + d + 8) * N * 8 + 3 * evolution._CHUNK_BYTES
    assert peak < bound, (peak / 2**20, bound / 2**20)


def test_start_time_state_needs_no_schedule(monkeypatch):
    M, _ = example1_setup()
    f = smooth_initial(6)

    def no_schedule(self, ts):
        raise AssertionError("the start-time state evaluated the schedule")

    monkeypatch.setattr(type(M), "table", no_schedule)
    xs = midpoints(257)
    assert np.array_equal(_evolve(M, f, 0.0, 0.0, xs), f.evaluate(xs))


def test_field_csv_round_trip(tmp_path):
    M, f = example1_setup()
    field = propagate(M, f, 0.0, 1.5, 10)
    path = tmp_path / "field.csv"
    field.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "edge,x,value,t,s"
    assert len(lines) == 1 + 6 * 10
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(0.05)


# Profiles for the evaluate property: constants, x-dependent ones, a constant
# and an x-dependent one that overflow to inf, and piecewise ones.
_PROFILE_POOL = (
    tuple(evolution.ExprProfile(parse_expr(s, var="x")) for s in (
        "1", "2.5", "0", "0.5 + 0.25*sin(pi*x)", "x^3 - x", "cos(2*pi*x)^2",
        "10^200*10^200", "(1 + x)^2000")) + (
    PiecewiseProfile((0.0, 1.0), (3.0,)),
    PiecewiseProfile((0.0, 0.25, 0.5, 1.0), (2.0, 0.5, 1.5)),
))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(picks=st.lists(st.integers(0, len(_PROFILE_POOL) - 1), min_size=1, max_size=12),
       x=st.integers(1, 600).map(midpoints) | st.floats(0.0, 1.0))
def test_evaluate_equals_stacking_each_profile(picks, x):
    # the pool's objects repeat in a draw, as shared Exprs do after the parse memo
    f = InitialData(tuple(_PROFILE_POOL[i] for i in picks))
    with np.errstate(over="ignore"):
        got = f.evaluate(x)
        want = np.stack([p(np.atleast_1d(x)) for p in f.profiles])
    assert got.shape == want.shape == (len(picks), np.size(x))
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()


def test_evaluate_overflowing_profiles_give_inf():
    f = InitialData(tuple(_PROFILE_POOL[6:8]))
    with np.errstate(over="ignore"):
        values = f.evaluate(midpoints(4))
    assert np.isinf(values[0]).all()
    assert np.isfinite(values[1, :1]).all() and np.isinf(values[1, -1])

"""Chains of tau-differences, evolution._tau_differences: the engine under
convergence_diagnostic, against the closed form, with its head, restart and
chain-key rules, and the advance over a schedule's nonzeros that it takes.
"""

import random
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flownet import (
    InitialData,
    assemble_allocation,
    assemble_weighted_adjacency,
    load_scenario,
    propagate,
)
from flownet import evolution
from flownet.evolution import PiecewiseProfile, midpoints


def random_setup(seed: int):
    rng = random.Random(seed)
    g = helpers.random_strong_graph(rng, max_m=8)
    M = assemble_weighted_adjacency(g, helpers.random_flow_weights(rng, g))
    N = rng.randint(1, 48)
    doc = helpers.random_piecewise_initial(rng, g.m, rng.randint(1, 6))
    f = InitialData(tuple(
        PiecewiseProfile(tuple(doc[str(j)]["breaks"]), tuple(doc[str(j)]["values"]))
        for j in range(1, g.m + 1)
    ))
    return M, f, N


def closed_difference(M, f, s, tau, t, N):
    """u(t + tau) - u(t) from two closed-form states."""
    return propagate(M, f, s, t + tau, N).values - propagate(M, f, s, t, N).values


def spy_heads(monkeypatch) -> list:
    """The query times of every propagate call from now on, in call order."""
    heads = []
    closed_form = evolution.propagate
    monkeypatch.setattr(evolution, "propagate", lambda *a: heads.append(a[3]) or closed_form(*a))
    return heads


# Whole periods (advances), half-period residues (new chains), a long gap (a
# closed form that heads its chain anew) and repeated times. Chains break where
# x + t - s crosses a power of two, so a 1000 gap from 2048 on mostly stays in one.
STEPS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1000.0])


# Derandomized so every run draws the same examples; no deadline, because an
# example's wall time depends on the machine's load.
@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.sampled_from([0.0, 0.25, 0.3, 1.75]),
    first=st.sampled_from([0.0, 2048.0]),
    steps=st.lists(STEPS, min_size=1, max_size=8),
    tau=st.sampled_from([1, 2, 3]),
)
def test_tau_differences_agree_with_propagate(seed, s, first, steps, tau):
    M, f, N = random_setup(seed)
    times = [s] + [float(t) for t in s + first + np.cumsum([0.0] + steps)]
    diffs = list(evolution._tau_differences(M, f, s, tau, times, N))
    assert len(diffs) == len(times)
    for t, e in zip(times, diffs):
        assert np.abs(e - closed_difference(M, f, s, tau, t, N)).max() <= 1e-12


def test_tau_differences_head_each_chain_once(monkeypatch):
    M = assemble_weighted_adjacency(helpers.example1_graph(), helpers.EXAMPLE1_WEIGHTS)
    f = helpers.constant_initial([1.0] * 6)
    heads = spy_heads(monkeypatch)
    list(evolution._tau_differences(M, f, 0.0, 1, [float(t) for t in range(201)], 400))
    # every whole t has frac(t) = frac(t - s) = 0: one chain, headed at t = 0
    # by u(1) - u(0), in that order; an advance's 7 multiply-adds cost less
    # than the closed forms' powering to k and k + 1 at every t >= 1
    assert heads == [1.0, 0.0]

    heads.clear()
    list(evolution._tau_differences(M, f, 0.0, 1, [1030.0, 1031.0, 1037.0, 2031.0, 2032.0], 400))
    # advances for short gaps; for the 994-period gap the closed forms' powers
    # to k = 2031 and 2032 are cheaper, so they head the chain anew, and the
    # chain goes on from there
    assert heads == [1031.0, 1030.0, 2032.0, 2031.0]

    heads.clear()
    advances = []
    step = evolution._advance
    monkeypatch.setattr(evolution, "_advance", lambda *a: advances.append(1) or step(*a))
    list(evolution._tau_differences(M, f, 0.0, 1, [0.0, 0.0, 5.0, 5.0, 6.0], 400))
    # repeated times reuse their chain's e: 0 and 5 share a chain, whose 5 + 1
    # periods are advanced (5 * 7 multiply-adds against 2 * 5^3 + 5^2 and
    # 2 * 5^3 + 2 * 5^2 for the closed forms' powering to k = 5 and 6)
    assert heads == [1.0, 0.0] and len(advances) == 6


def test_restart_rule_prices_the_work_of_each_path(monkeypatch):
    # An advance costs nnz(M) multiply-adds per point and period. A head's
    # two closed forms power a flow schedule's n' x n' C to k - 1 and k + tau - 1
    # and an allocation schedule's m x m A to k and k + tau: bit_length - 1
    # squarings, popcount mat-vecs each.
    M = assemble_weighted_adjacency(helpers.example1_graph(), helpers.EXAMPLE1_WEIGHTS)
    assert (len(M.entries), M.vertex_factors.n) == (7, 5)
    assert evolution._power_cost(M, 2031) == 10 * 5 ** 3 + 9 * 5 ** 2 == 1475
    assert evolution._power_cost(M, 2032) == 10 * 5 ** 3 + 10 * 5 ** 2 == 1500
    assert 1475 + 1500 < 994 * 7
    assert evolution._power_cost(M, 1037) == 10 * 5 ** 3 + 3 * 5 ** 2 == 1325
    assert evolution._power_cost(M, 1038) == 10 * 5 ** 3 + 4 * 5 ** 2 == 1350
    assert 1325 + 1350 > 6 * 7
    J = load_scenario("junction").matrix
    assert (len(J.entries), J.dim, J.vertex_factors) == (10, 6, None)
    assert evolution._power_cost(J, 2031) == 10 * 6 ** 3 + 10 * 6 ** 2 == 2520
    assert evolution._power_cost(J, 2032) == 10 * 6 ** 3 + 7 * 6 ** 2 == 2412
    assert 2520 + 2412 < 994 * 10
    assert evolution._power_cost(J, 1037) == 10 * 6 ** 3 + 4 * 6 ** 2
    f = helpers.constant_initial([1.0] * 6)
    for schedule in (M, J):
        heads = spy_heads(monkeypatch)
        list(evolution._tau_differences(schedule, f, 0.0, 1,
                                        [1030.0, 1031.0, 1037.0, 2031.0, 2032.0], 40))
        assert heads == [1031.0, 1030.0, 2032.0, 2031.0]
        heads.clear()
        # 200 periods cost 1400 (2000) multiply-adds against 2975 (4932) for
        # the two closed forms, so they are advanced; priced as 200 m x m
        # mat-vecs (7200) they would head the chain anew
        list(evolution._tau_differences(schedule, f, 0.0, 1, [1831.0, 2031.0], 40))
        assert heads == [1832.0, 1831.0]
        monkeypatch.undo()


def test_chains_need_equal_data_points_not_only_equal_phases():
    M = assemble_weighted_adjacency(helpers.example1_graph(), helpers.EXAMPLE1_WEIGHTS)
    f = helpers.expression_initial(["sin(10000*x)"] * 6)
    s, N = 0.3, 48
    times = [s + 32.0, s + 33.0]
    # The grid phases of these two times agree bitwise, but their data points
    # xi differ in the last bits, which a steep profile turns into a visible gap.
    (p1, _, xi1), (p2, _, xi2) = (evolution._characteristics(midpoints(N), s, t) for t in times)
    assert np.array_equal(p1, p2) and not np.array_equal(xi1, xi2)
    for t, e in zip(times, evolution._tau_differences(M, f, s, 1, times, N)):
        assert np.abs(e - closed_difference(M, f, s, 1, t, N)).max() <= 1e-12


def test_chains_need_equal_phases_not_only_equal_data_points(monkeypatch):
    M = assemble_weighted_adjacency(helpers.example1_graph(), helpers.EXAMPLE1_WEIGHTS)
    f = helpers.constant_initial([1.0] * 6)
    s, N = 0.3, 48
    times = [s + 1.0, s + 4.0]
    # t - s is whole for both, so their data points agree bitwise, but frac(t)
    # and so the grid phases differ in the last bits: each heads its own chain.
    (p1, _, xi1), (p2, _, xi2) = (evolution._characteristics(midpoints(N), s, t) for t in times)
    assert not np.array_equal(p1, p2) and np.array_equal(xi1, xi2)
    heads = spy_heads(monkeypatch)
    list(evolution._tau_differences(M, f, s, 1, times, N))
    assert heads == [times[0] + 1, times[0], times[1] + 1, times[1]]


@st.composite
def layered_schedules(draw):
    """(schedule, grid phases, finite state) for one chain advance: a random
    flow schedule, a random allocation schedule (constant zero entries and
    empty rows allowed) or the bundled junction schedule; phases with 0 and
    0.5, where sin and cos vanish; states with both zeros, subnormals and
    negative values, C- or Fortran-ordered."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["flow", "allocation", "junction"]))
    if kind == "flow":
        g = helpers.random_strong_graph(rng, max_m=8)
        M = assemble_weighted_adjacency(g, helpers.random_flow_weights(rng, g))
    elif kind == "allocation":
        _, pattern = helpers.random_imprimitive_stochastic(rng, rng.randint(1, 8))
        entries = {}
        for k, l in (np.argwhere(pattern) + 1).tolist():
            v = rng.uniform(0.0, 1.0)
            entry = rng.choice([None, "0", repr(v), f"{v!r}*sin(pi*t)^2", f"{v!r}*cos(3*pi*t)^2"])
            if entry is not None:
                entries[(k, l)] = entry
        M = assemble_allocation(pattern, entries)
    else:
        M = load_scenario("junction").matrix
    N = rng.randint(1, 40)
    phases = np.array([rng.choice([0.0, 0.5, rng.random()]) for _ in range(N)])
    u = np.array([[rng.choice([0.0, -0.0, 5e-324, -5e-324, rng.uniform(-3.0, 3.0)])
                   for _ in range(N)] for _ in range(M.dim)])
    return M, phases, np.asfortranarray(u) if rng.random() < 0.5 else u


# Derandomized so every run draws the same examples; no deadline, because an
# example's wall time depends on the machine's load.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(layered_schedules())
def test_an_advance_over_the_nonzeros_is_bitwise_the_dense_einsum(case):
    M, phases, u = case
    got = evolution._advance(M, evolution._layer_weights(M, phases), u)
    want = helpers.dense_advance(M, phases, u)
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous and want.flags.c_contiguous


def test_a_chain_on_a_150_edge_ring_holds_no_dense_stack(monkeypatch):
    g, weights = helpers.ring_network(random.Random(3), 50)
    M = assemble_weighted_adjacency(g, weights)
    m, N = M.dim, 1000
    f = helpers.expression_initial([f"1 + 0.5*sin(2*pi*x + {j})" for j in range(m)])
    times = [4.0, 5.0, 6.0, 7.0]
    expected = [closed_difference(M, f, 0.0, 1, t, N) for t in times]
    heads = spy_heads(monkeypatch)
    tracemalloc.start()
    try:
        for e, want in zip(evolution._tau_differences(M, f, 0.0, 1, times, N), expected):
            assert np.abs(e - want).max() <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert heads == [5.0, 4.0]
    # the chain keeps nnz(M) = 3 m values per point; A's dense stack alone
    # took m^2 N 8 bytes = 180 MB
    assert peak <= 40 * m * N * 8

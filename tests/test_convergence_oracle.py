import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flownet import (
    assemble_weighted_adjacency,
    convergence_diagnostic,
    evolution,
    load_scenario,
    propagate,
)


def all_states_diagnostic(M, f, s, tau, horizon, N, stride):
    """(elapsed, deviation) by one closed-form propagate per distinct time, all kept."""
    base_times = []
    j = 0
    while s + j * stride <= s + horizon + 1e-12:
        base_times.append(s + j * stride)
        j += 1
    fields = {}

    def state(time):
        if time not in fields:
            fields[time] = propagate(M, f, s, time, N).values
        return fields[time]

    deviation = [float(np.abs(state(t + tau) - state(t)).sum() / N) for t in base_times]
    return [t - s for t in base_times], deviation


@pytest.mark.parametrize("tau,stride", [(1, 1), (2, 1), (3, 1), (1, 10), (2, 5), (1, 0.5)])
def test_convergence_matches_all_states_oracle(tau, stride):
    M = assemble_weighted_adjacency(helpers.example2_graph(), helpers.EXAMPLE2_WEIGHTS)
    f = helpers.expression_initial([f"0.5 + 0.25*sin(pi*x) + 0.1*{j}" for j in range(10)])
    s = 0.3
    trace = convergence_diagnostic(M, f, s, tau, horizon=40.0, N=120, stride=stride)
    elapsed, deviation = all_states_diagnostic(M, f, s, tau, 40.0, 120, stride)
    assert len(trace.elapsed) == len(elapsed)
    assert np.abs(np.subtract(trace.elapsed, elapsed)).max() <= 1e-12
    assert np.abs(np.subtract(trace.deviation, deviation)).max() <= 1e-12


def test_convergence_memory_stays_bounded():
    sc_matrix = assemble_weighted_adjacency(helpers.example1_graph(), helpers.EXAMPLE1_WEIGHTS)
    f = helpers.constant_initial([1.0] * 6)
    N, m = 2000, 6
    # A short run first, so one-time allocations (lazy imports, numpy's
    # internal caches) are not charged to the traced run.
    convergence_diagnostic(sc_matrix, f, 0.0, 1, horizon=2.0, N=N)
    tracemalloc.start()
    try:
        convergence_diagnostic(sc_matrix, f, 0.0, 1, horizon=200.0, N=N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Keeping every state would hold 202 of them.
    assert peak < 40 * m * N * 8


@st.composite
def diagnostic_cases(draw):
    """(schedule, initial data, N): a random flow schedule with piecewise data,
    or the bundled junction allocation schedule with smooth data."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["flow", "junction"])) == "flow":
        g = helpers.random_strong_graph(rng, max_m=8)
        M = assemble_weighted_adjacency(g, helpers.random_flow_weights(rng, g))
        doc = helpers.random_piecewise_initial(rng, g.m, rng.randint(1, 6))
        f = evolution.InitialData(tuple(
            evolution.PiecewiseProfile(tuple(doc[str(j)]["breaks"]), tuple(doc[str(j)]["values"]))
            for j in range(1, g.m + 1)
        ))
    else:
        M = load_scenario("junction").matrix
        f = helpers.expression_initial([f"{rng.uniform(0, 2)!r} + 0.5*sin({j}*pi*x)^2"
                                        for j in range(M.dim)])
    return M, f, rng.randint(1, 40)


# Derandomized so every run draws the same examples; no deadline, because an
# example's wall time depends on the machine's load.
@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    case=diagnostic_cases(),
    s=st.sampled_from([0.0, 0.3, -1.7]),
    tau=st.sampled_from([1, 2, 3]),
    stride=st.sampled_from([0.25, 0.5, 1.0, 3.0, 10.0]),
    horizon=st.sampled_from([7.0, 30.0]),
)
def test_difference_chains_match_all_states_oracle(case, s, tau, stride, horizon):
    M, f, N = case
    trace = convergence_diagnostic(M, f, s, tau, horizon=horizon, N=N, stride=stride)
    elapsed, deviation = all_states_diagnostic(M, f, s, tau, horizon, N, stride)
    assert list(trace.elapsed) == elapsed
    assert np.abs(np.subtract(trace.deviation, deviation)).max() <= 1e-12


def test_far_deltas_keep_their_relative_accuracy():
    # With constant weights and constant data, u(t) = A^t f at every grid
    # point for whole t, so delta(t) = ||A^t (A f - f)||_1 exactly. The deltas
    # fall to about 7e-23, far below eps times the state's O(1) entries, where
    # a difference of two computed states is only rounding error.
    weights = {key: "1" for key in helpers.EXAMPLE1_WEIGHTS}
    weights[(4, 4)] = weights[(4, 5)] = "0.5"
    M = assemble_weighted_adjacency(helpers.example1_graph(), weights)
    data = [1, 0, 2, 0.5, 0, 1.5]
    trace = convergence_diagnostic(M, helpers.constant_initial(data), 0.0, 1,
                                   horizon=400.0, N=8)
    A = [[Fraction(a) for a in row] for row in M.at(0.0).tolist()]
    u = [Fraction(v) for v in data]
    e = [sum(a * v for a, v in zip(row, u)) - w for row, w in zip(A, u)]
    errors = []
    for delta in trace.deviation:
        exact = sum(abs(v) for v in e)
        errors.append(abs(Fraction(delta) - exact) / exact)
        e = [sum(a * v for a, v in zip(row, e)) for row in A]
    assert len(errors) == 401 and exact < 1e-22
    assert max(errors) <= 1e-12


def test_one_difference_chain_heads_once_and_advances_each_period(monkeypatch):
    sc = load_scenario("example1")
    heads, advances = [], []
    closed_form, step = evolution.propagate, evolution._advance
    monkeypatch.setattr(evolution, "propagate", lambda *a: heads.append(a[3]) or closed_form(*a))
    monkeypatch.setattr(evolution, "_advance", lambda *a: advances.append(1) or step(*a))
    trace = convergence_diagnostic(sc.matrix, sc.initial, sc.start_time, 1, horizon=200.0,
                                   N=10_000)
    # every whole t has frac(t) = frac(t - s) = 0: one chain, headed at t = 0
    # by u(1) - u(0); then each of the 200 periods to t = 200 is one advance,
    # as 7 multiply-adds cost less than the closed forms' powering to k and
    # k + 1 at every t >= 1
    assert len(trace.elapsed) == 201
    assert heads == [1.0, 0.0] and len(advances) == 200

import tracemalloc

import numpy as np
import pytest

import helpers
from flownet import assemble_weighted_adjacency, convergence_diagnostic, propagate


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

"""The one evaluation path of TimeVaryingMatrix against the per-entry loops it replaced.

at_times evaluates each distinct expression once and scatters it to every
(k, l) it fills; at(t) is at_times([t])[0]. Both must be bitwise equal to
evaluating every entry on its own.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flownet import assemble_weighted_adjacency, default_sample_times, load_scenario
from flownet import expr as ex


def per_entry_at_times(M, ts):
    """The former at_times: one evaluation per entry."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros((ts.size, M.dim, M.dim))
    for (k, l), e in M.entries.items():
        out[:, k - 1, l - 1] = ex.evaluate(e, ts)
    return out


def per_entry_at(M, t):
    """The former at: one scalar evaluation per entry."""
    out = np.zeros((M.dim, M.dim))
    for (k, l), e in M.entries.items():
        out[k - 1, l - 1] = ex.evaluate(e, t)
    return out


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["example1", "example2", "junction"])
def test_bundled_scenarios_match_per_entry_loops(name):
    M = load_scenario(name).matrix
    ts = np.linspace(0.0, 1.0, 1001)
    assert_bitwise_equal(M.at_times(ts), per_entry_at_times(M, ts))
    for t in default_sample_times(M) + (0.123, 1.75, 12.5):
        assert_bitwise_equal(M.at(t), per_entry_at(M, t))


# Derandomized so every run draws the same examples; no deadline, because an
# example's wall time depends on the machine's load.
@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ts=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=12),
)
def test_random_strong_graphs_match_per_entry_loops(seed, ts):
    rng = random.Random(seed)
    g = helpers.random_strong_graph(rng, max_m=8)
    M = assemble_weighted_adjacency(g, helpers.random_flow_weights(rng, g))
    assert_bitwise_equal(M.at_times(ts), per_entry_at_times(M, ts))
    for t in ts:
        assert_bitwise_equal(M.at(t), per_entry_at(M, t))


def test_each_distinct_expression_is_evaluated_once(monkeypatch):
    M = load_scenario("example2").matrix
    assert len(M.entries) == 22
    assert len(set(M.entries.values())) == 6
    calls = []
    evaluate = ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda e, v: calls.append(e) or evaluate(e, v))
    M.at_times(np.linspace(0.0, 1.0, 11))
    assert len(calls) == 6 and len(set(calls)) == 6
    calls.clear()
    M.at(0.3)
    assert len(calls) == 6


def test_at_times_edge_cases():
    M = load_scenario("example1").matrix
    assert M.at_times([]).shape == (0, 6, 6)
    assert_bitwise_equal(M.at_times(0.25), per_entry_at_times(M, [0.25]))

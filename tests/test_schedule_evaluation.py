"""The one evaluation path of TimeVaryingMatrix against the dense loops it replaced.

table evaluates each distinct expression once; scatter spreads a table to
every (k, l) each expression fills, so at_times is scatter(table(ts)) and
at(t) is at_times([t])[0]. Both must be bitwise equal to evaluating every
entry on its own. The validators read the table and never build the dense
(len(grid), dim, dim) stack; their reports must be bitwise equal to the
dense checks they replaced, kept here as oracles.
"""

import importlib.util
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flownet import (
    ScheduleError,
    TimeVaryingMatrix,
    assemble_allocation,
    assemble_weighted_adjacency,
    default_sample_times,
    line_graph_adjacency,
    load_scenario,
    regularity_diagnostic,
    validate_stochastic,
)
from flownet import expr as ex
from flownet.schedules import ALLOCATION, CheckResult, ValidationReport


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


def test_critical_times_walk_each_distinct_expression_once(monkeypatch):
    calls = []
    critical_times = ex.critical_times
    monkeypatch.setattr(ex, "critical_times", lambda e: calls.append(e) or critical_times(e))
    M = load_scenario("example2").matrix  # the quarter-point cap is checked at load
    assert len(calls) == len(set(calls)) == 6
    times = M.critical_times()
    assert M.critical_times() is times and len(calls) == 6
    assert times == frozenset().union(*(critical_times(e) for e in M.entries.values()))


def test_at_times_edge_cases():
    M = load_scenario("example1").matrix
    assert M.at_times([]).shape == (0, 6, 6)
    assert_bitwise_equal(M.at_times(0.25), per_entry_at_times(M, [0.25]))


def dense_validate_stochastic(M, grid, tol):
    """The former validate_stochastic: both checks on the dense stack."""
    grid = tuple(float(t) for t in grid)
    stack = M.at_times(np.asarray(grid))
    g_idx, k_idx, l_idx = np.unravel_index(np.argmin(stack), stack.shape)
    min_entry = float(stack[g_idx, k_idx, l_idx])
    neg = CheckResult(
        name="nonnegative_entries", passed=min_entry >= -tol, worst=max(0.0, -min_entry),
        witness_time=grid[g_idx], witness_index=[int(k_idx) + 1, int(l_idx) + 1],
        witness_value=min_entry,
    )
    sums = stack.sum(axis=1)
    dev = np.abs(sums - 1.0)
    g_idx, l_idx = np.unravel_index(np.argmax(dev), dev.shape)
    worst_dev = float(dev[g_idx, l_idx])
    cols = CheckResult(
        name="column_sums", passed=worst_dev <= tol, worst=worst_dev,
        witness_time=grid[g_idx], witness_index=int(l_idx) + 1,
        witness_value=float(sums[g_idx, l_idx]),
    )
    return ValidationReport(checks=(neg, cols), grid=grid)


def dense_regularity_diagnostic(M, grid):
    """The former regularity_diagnostic: total variation of the dense stack."""
    stack = M.at_times(np.asarray(sorted(float(t) for t in grid)))
    return float(np.abs(np.diff(stack, axis=0)).sum(axis=0).max())


def assert_checks_match_dense(M, grid, tol=1e-9):
    """Both validators bitwise equal to their dense oracles: the report JSON
    (json keeps the sign of -0.0) and the repr of the total variation."""
    got = json.dumps(validate_stochastic(M, grid, tol).to_json(), sort_keys=True)
    assert got == json.dumps(dense_validate_stochastic(M, grid, tol).to_json(), sort_keys=True)
    if len(grid) >= 2:
        assert repr(regularity_diagnostic(M, grid)) == repr(dense_regularity_diagnostic(M, grid))


@pytest.mark.parametrize("name", ["example1", "example2", "junction"])
@pytest.mark.parametrize("points", [2, 11, 101, 1001])
def test_bundled_scenario_checks_match_dense(name, points):
    sc = load_scenario(name)
    assert_checks_match_dense(sc.matrix, np.linspace(0.0, 1.0, points), sc.tolerances.stochastic)


# Periodic replacements that break nonnegativity or column sums, so the
# property also reaches failing reports, negative and -0.0 minima.
_OFF_WEIGHTS = ["cos(2*pi*t)", "-0", "0", "-1", "0.5*sin(4*pi*t + 1)", "cos(pi*t)^2"]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=40),
    tol=st.sampled_from([1e-9, 1e-300, 0.5]),
)
def test_random_strong_graph_checks_match_dense(seed, grid, tol):
    rng = random.Random(seed)
    g = helpers.random_strong_graph(rng, max_m=8)
    weights = helpers.random_flow_weights(rng, g)
    for key in rng.sample(sorted(weights), rng.randint(0, len(weights))):
        weights[key] = rng.choice(_OFF_WEIGHTS)
    M = assemble_weighted_adjacency(g, weights)
    assert_checks_match_dense(M, grid, tol)


def _full_matrix(sources):
    """A matrix with no structural zero: every (k, l) has an entry."""
    dim = len(sources)
    entries = {(k + 1, l + 1): ex.parse_expr(sources[k][l])
               for k in range(dim) for l in range(dim)}
    return TimeVaryingMatrix(dim=dim, entries=entries, kind=ALLOCATION,
                             adjacency=np.ones((dim, dim), dtype=np.int64))


TWO_CYCLE = line_graph_adjacency(helpers.two_cycle_graph())
EDGE_CASES = {
    # one distinct, non-constant expression: a one-column table
    "single_expression": assemble_allocation(
        TWO_CYCLE, {(1, 2): "cos(pi*t)^2", (2, 1): "cos(pi*t)^2"}),
    # a positive minimum, first reached at t = 1/4
    "no_structural_zero": _full_matrix(
        [["0.5 + 0.25*sin(2*pi*t)", "0.5"], ["0.5 - 0.25*sin(2*pi*t)", "0.5"]]),
    # -0.0 ties +0.0 for the minimum; a column of -0.0 sums to +0.0
    "negative_zero": _full_matrix([["-0", "0", "1"], ["-0", "1", "0"], ["-0", "0", "-0"]]),
    "negative_zero_and_structural_zero": assemble_allocation(
        TWO_CYCLE, {(1, 2): "-0", (2, 1): "1"}),
    "negative_entry": _full_matrix([["cos(2*pi*t)", "1"], ["1 - cos(2*pi*t)", "-0.25"]]),
}
GRIDS = {
    "unsorted_with_repeat": [0.7, 0.2, 0.5, 0.2, 0.9, 0.0, 0.5],
    "one_point": [0.3],
    "eleven": list(np.linspace(0.0, 1.0, 11)),
    "thousand_and_one": list(np.linspace(0.0, 1.0, 1001)),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_edge_case_checks_match_dense(case, grid):
    assert_checks_match_dense(EDGE_CASES[case], GRIDS[grid])


def test_edge_cases_reach_the_paths_they_name():
    assert len(EDGE_CASES["single_expression"].table([0.0, 0.5])[0]) == 1
    assert repr(validate_stochastic(EDGE_CASES["negative_zero"], [0.0], 1e-9)
                .checks[0].witness_value) == "-0.0"
    assert validate_stochastic(EDGE_CASES["no_structural_zero"], [0.0, 0.25, 0.5, 0.75], 1e-9
                               ).checks[0].witness_time == 0.25
    report = validate_stochastic(EDGE_CASES["negative_entry"], GRIDS["eleven"], 1e-9)
    assert report.checks[0].witness_value == -1.0 and not report.passed
    with pytest.raises(ScheduleError, match="at least two grid times"):
        regularity_diagnostic(EDGE_CASES["no_structural_zero"], GRIDS["one_point"])


def _ring_scenario(tmp_path, vertices):
    """A generated benchmark ring: m = 3 * vertices edges, 9 * vertices entries."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return load_scenario(helpers.write_scenario(tmp_path, gen.ring_scenario(3, vertices)))


def test_ring_checks_match_dense(tmp_path):
    M = _ring_scenario(tmp_path, 8).matrix
    assert_checks_match_dense(M, np.linspace(0.0, 1.0, 1001))
    M = _ring_scenario(tmp_path, 50).matrix
    assert_checks_match_dense(M, np.linspace(0.0, 1.0, 11))


def test_validators_hold_no_dense_stack(tmp_path):
    # The dense (1001, 150, 150) stack alone is 180 MB; the dense checks
    # peaked near 540 MB. The table is 1001 x 33.
    M = _ring_scenario(tmp_path, 50).matrix
    assert (M.dim, len(M.entries), len(M.table([0.0])[0])) == (150, 450, 33)
    grid = np.linspace(0.0, 1.0, 1001)
    tracemalloc.start()
    try:
        validate_stochastic(M, grid, 1e-9)
        regularity_diagnostic(M, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6

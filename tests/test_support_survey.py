"""The one-table support survey against the per-time survey it replaced.

_survey_support evaluates the schedule once on the sample times and tells
patterns apart by the rows of entries above zero_tol; asymptotic_period runs
each sample's eigensolve on that table. The former per-time survey (a dense
pattern and a hash at every time) and its M.at eigensolves are kept here as
oracles: surveys and period reports must be bitwise equal to them, and a
failure must be the same exception with the same message.
"""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flownet import (
    HypothesisError,
    ScheduleError,
    SpectralError,
    TimeVaryingMatrix,
    assemble_weighted_adjacency,
    asymptotic_period,
    cyclic_index,
    default_sample_times,
    is_strongly_connected,
    load_scenario,
    peripheral_count,
    support_pattern,
)
from flownet import expr as ex
from flownet.schedules import ALLOCATION
from flownet.spectral import (
    PeriodReport,
    PeriodSample,
    _survey_support,
    active_subpattern,
    pattern_hash,
)


def per_time_survey(M, sample_times, zero_tol):
    """The former survey: a dense pattern and its hash at every sample time.

    Returns (hashes, patterns, cyclic_indices, reducible_times).
    """
    hashes = []
    patterns = {}
    cyclic_indices = {}
    reducible = []
    for t in sample_times:
        pattern = support_pattern(M, float(t), zero_tol)
        digest = pattern_hash(pattern)
        hashes.append(digest)
        if digest in patterns:
            continue
        patterns[digest] = pattern
        active, sub = active_subpattern(pattern)
        if active.size and is_strongly_connected(sub):
            cyclic_indices[digest] = cyclic_index(sub)
        else:
            cyclic_indices[digest] = None
            reducible.append(t)
    return tuple(hashes), patterns, cyclic_indices, tuple(reducible)


def per_time_period(M, sample_times, zero_tol):
    """The former asymptotic_period: the per-time survey, then M.at(t) eigensolves."""
    if not len(sample_times):
        raise SpectralError("sample_times must be nonempty")
    hashes, patterns, cyclic_indices, reducible = per_time_survey(M, sample_times, zero_tol)
    if reducible:
        raise HypothesisError(
            f"support pattern at t={float(reducible[0])} is reducible: the time-t "
            "network must be strongly connected for the asymptotic period to exist"
        )
    samples = tuple(
        PeriodSample(time=float(t), pattern_hash=digest, cyclic_index=cyclic_indices[digest],
                     peripheral_count=peripheral_count(M.at(float(t))))
        for t, digest in zip(sample_times, hashes)
    )
    tau = math.lcm(*(s.cyclic_index for s in samples))
    return PeriodReport(samples=samples, tau=tau, distinct_patterns=patterns)


def _outcome(fn):
    """What fn gives: its value, or the type and message of what it raised."""
    try:
        return "ok", fn()
    except (HypothesisError, ScheduleError, SpectralError) as err:
        return type(err).__name__, str(err)


def _survey_fields(survey):
    hashes, patterns, cyclic_indices, reducible = survey
    return (hashes, [(h, p.dtype, p.shape, p.tobytes()) for h, p in patterns.items()],
            list(cyclic_indices.items()), [repr(t) for t in reducible])


def _report_json(report):
    return json.dumps(report.to_json(), sort_keys=True)


def assert_matches_per_time(M, sample_times, zero_tol):
    """Survey and period report bitwise equal to the per-time oracles."""
    def survey():
        s = _survey_support(M, sample_times, zero_tol)
        assert s.table.tobytes() == M.table(sample_times).tobytes()
        return _survey_fields((s.hashes, s.patterns, s.cyclic_indices, s.reducible_times))

    assert _outcome(survey) == _outcome(
        lambda: _survey_fields(per_time_survey(M, sample_times, zero_tol)))
    assert _outcome(lambda: _report_json(asymptotic_period(M, sample_times, zero_tol))) == \
        _outcome(lambda: _report_json(per_time_period(M, sample_times, zero_tol)))


@pytest.mark.parametrize("name", ["example1", "example2", "junction"])
@pytest.mark.parametrize("per_period", [5, 8, 64])
def test_bundled_scenarios_match_per_time_survey(name, per_period):
    sc = load_scenario(name)
    assert_matches_per_time(sc.matrix, default_sample_times(sc.matrix, per_period),
                            sc.tolerances.zero)


@pytest.mark.parametrize("vertices", [8, 50])
def test_rings_match_per_time_survey(vertices):
    g, weights = helpers.ring_network(random.Random(vertices), vertices)
    M = assemble_weighted_adjacency(g, weights)
    assert_matches_per_time(M, default_sample_times(M), 1e-12)


def _switching_flow_weights(rng, g):
    """Column-stochastic vertex weights; at some vertices two of them switch
    on and off as c*cos(f*pi*t)^2 and c*sin(f*pi*t)^2, so patterns change."""
    weights = {}
    for i in range(1, g.n + 1):
        out = helpers.out_edges(g, i)
        raw = [rng.uniform(0.2, 1.0) for _ in out]
        consts = [r / sum(raw) for r in raw]
        for j, c in zip(out, consts):
            weights[(i, j)] = repr(c)
        if len(out) >= 2 and rng.random() < 0.6:
            p, q = rng.sample(range(len(out)), 2)
            c, f = consts[p] + consts[q], rng.randint(1, 3)
            weights[(i, out[p])] = f"{c!r}*cos({f}*pi*t)^2"
            weights[(i, out[q])] = f"{c!r}*sin({f}*pi*t)^2"
    return weights


# Derandomized so every run draws the same examples; no deadline, because an
# example's wall time depends on the machine's load.
@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.floats(-3.0, 3.0, allow_nan=False), max_size=8),
    zero_tol=st.sampled_from([1e-12, 0.0, 0.3]),
)
def test_random_strong_graphs_match_per_time_survey(seed, extra, zero_tol):
    rng = random.Random(seed)
    g = helpers.random_strong_graph(rng, max_m=8)
    M = assemble_weighted_adjacency(g, _switching_flow_weights(rng, g))
    times = default_sample_times(M, rng.randint(2, 16)) + tuple(extra)
    assert_matches_per_time(M, times, zero_tol)


def _full_matrix(sources):
    """A matrix with an entry at every (k, l)."""
    dim = len(sources)
    entries = {(k + 1, l + 1): ex.parse_expr(sources[k][l])
               for k in range(dim) for l in range(dim)}
    return TimeVaryingMatrix(dim=dim, entries=entries, kind=ALLOCATION,
                             adjacency=np.ones((dim, dim), dtype=np.int64))


# sin(pi*t)^2 is exactly 0 at t = 0; cos(pi*t)^2 is 3.7e-33 at t = 1/2.
SWITCHING = _full_matrix([["sin(pi*t)^2", "1"], ["cos(pi*t)^2", "0"]])
# |e| = 0.25 twice, once negative: dropped at zero_tol = 0.25, kept one ulp below.
AT_THRESHOLD = _full_matrix([["0.25", "-0.25"], ["0.75", "1.25"]])
EDGE_CASES = {
    "weight_exactly_zero": (SWITCHING, 1e-12),
    "zero_tol_zero": (SWITCHING, 0.0),
    "negative_zero_tol": (SWITCHING, -1e-12),
    "entry_equal_to_zero_tol": (AT_THRESHOLD, 0.25),
    "entry_one_ulp_above_zero_tol": (AT_THRESHOLD, float(np.nextafter(0.25, 0.0))),
    # the identity at t = 0: two self-loops that do not reach each other
    "reducible": (_full_matrix([["cos(pi*t)^2", "sin(pi*t)^2"],
                                ["sin(pi*t)^2", "cos(pi*t)^2"]]), 1e-12),
}
TIMES = {
    "sorted": [0.0, 0.25, 0.5, 0.75],
    "unsorted_with_repeats": [0.7, 0.5, 0.0, 0.5, 1.0, 0.25, 0.7, -0.5],
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("times", sorted(TIMES))
def test_edge_cases_match_per_time_survey(case, times):
    M, zero_tol = EDGE_CASES[case]
    assert_matches_per_time(M, TIMES[times], zero_tol)


def test_edge_cases_reach_the_paths_they_name():
    times = TIMES["sorted"]
    assert SWITCHING.table(times)[0].tolist() == [0.0, 1.0, 1.0, 0.0]
    assert len(_survey_support(SWITCHING, times, 1e-12).patterns) == 3
    assert len(_survey_support(SWITCHING, times, 0.0).patterns) == 2
    for zero_tol in (-1e-12, math.nan):
        with pytest.raises(ScheduleError, match="nonnegative"):
            _survey_support(SWITCHING, times, zero_tol)
    with pytest.raises(ScheduleError, match="nonnegative"):
        asymptotic_period(load_scenario("example1").matrix, None, math.nan)
    dropped, kept = (next(iter(_survey_support(AT_THRESHOLD, [0.0], tol).patterns.values()))
                     for tol in (EDGE_CASES["entry_equal_to_zero_tol"][1],
                                 EDGE_CASES["entry_one_ulp_above_zero_tol"][1]))
    assert dropped.tolist() == [[0, 0], [1, 1]] and kept.tolist() == [[1, 1], [1, 1]]
    M, zero_tol = EDGE_CASES["reducible"]
    assert _survey_support(M, TIMES["unsorted_with_repeats"], zero_tol).reducible_times == (0.0,)
    with pytest.raises(HypothesisError, match=r"t=0\.0 is reducible"):
        asymptotic_period(M, TIMES["unsorted_with_repeats"], zero_tol)


def test_each_sample_time_is_evaluated_once(monkeypatch):
    # 6 distinct expressions: one 6-column table, then one M.at for each of
    # the 3 distinct patterns. Per time, it was 2 * 64 M.at and 768 evaluations.
    M = load_scenario("example2").matrix
    evaluations, ats = [], []
    evaluate, at = ex.evaluate, TimeVaryingMatrix.at
    monkeypatch.setattr(ex, "evaluate", lambda e, v: evaluations.append(e) or evaluate(e, v))
    monkeypatch.setattr(TimeVaryingMatrix, "at", lambda self, t: ats.append(t) or at(self, t))
    report = asymptotic_period(M)
    assert len(report.samples) == 64 and len(report.distinct_patterns) == 3
    assert (len(evaluations), len(ats)) == (24, 3)


def test_period_holds_one_dense_sample_matrix_at_a_time():
    # A (64, 150, 150) stack of the samples would be 11.5 MB.
    g, weights = helpers.ring_network(random.Random(50), 50)
    M = assemble_weighted_adjacency(g, weights)
    assert M.dim == 150
    times = default_sample_times(M)
    tracemalloc.start()
    try:
        asymptotic_period(M, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(times) == 64 and peak < 3e6

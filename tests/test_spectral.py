import random

import numpy as np
import pytest

import helpers
from flownet import (
    EvolutionError,
    HypothesisError,
    SpectralError,
    assemble_allocation,
    assemble_weighted_adjacency,
    asymptotic_period,
    build_graph,
    convergence_diagnostic,
    cyclic_index,
    default_sample_times,
    line_graph_adjacency,
    peripheral_count,
    strictly_positive_shortcut,
    validate_stochastic,
)
from flownet.spectral import active_subpattern


def example1_matrix():
    return assemble_weighted_adjacency(helpers.example1_graph(), helpers.EXAMPLE1_WEIGHTS)


def example2_matrix():
    return assemble_weighted_adjacency(helpers.example2_graph(), helpers.EXAMPLE2_WEIGHTS)


def test_peripheral_count_permutation():
    perm = np.zeros((4, 4))
    for j in range(4):
        perm[(j + 1) % 4, j] = 1.0
    assert peripheral_count(perm) == 4


def test_peripheral_count_rejects_non_stochastic():
    for A in ([[0.5, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.nan]]):
        with pytest.raises(SpectralError, match="not column-stochastic"):
            peripheral_count(np.array(A))


def test_peripheral_count_examples_match_cyclic_index():
    M1 = example1_matrix()
    assert peripheral_count(M1.at(0.0)) == 1
    assert cyclic_index(M1.adjacency) == 1

    M2 = example2_matrix()
    assert peripheral_count(M2.at(0.25)) == 2
    assert cyclic_index(M2.adjacency) == 2


def test_asymptotic_period_example1():
    report = asymptotic_period(example1_matrix(), [k / 8 for k in range(8)])
    assert report.tau == 1
    assert all(s.cyclic_index == 1 for s in report.samples)
    assert all(s.peripheral_count == 1 for s in report.samples)


def test_asymptotic_period_example2():
    report = asymptotic_period(example2_matrix(), [k / 8 for k in range(8)])
    assert report.tau == 2
    assert all(s.cyclic_index == 2 for s in report.samples)
    assert all(s.peripheral_count == 2 for s in report.samples)


def test_example2_has_exactly_three_patterns_on_default_times():
    report = asymptotic_period(example2_matrix())
    assert len(report.distinct_patterns) == 3
    assert report.tau == 2


def test_asymptotic_period_single_cycle():
    for m in (3, 5, 7):
        g = helpers.cycle_graph(m)
        M = assemble_weighted_adjacency(g, {(i, i): "1" for i in range(1, m + 1)})
        assert asymptotic_period(M).tau == m


def test_asymptotic_period_rejects_reducible_pattern():
    from flownet import build_graph

    # e2 feeds e1 at the shared vertex, nothing feeds e2: reducible after trim
    g = build_graph([(2, 3), (1, 2)], 3)
    M = assemble_allocation(line_graph_adjacency(g), {(1, 2): "1"},)
    with pytest.raises(HypothesisError, match="strongly connected"):
        asymptotic_period(M, [0.0])


def test_shortcut_example1_applies():
    M = example1_matrix()
    report = asymptotic_period(M, default_sample_times(M))
    assert report.tau == 1
    assert strictly_positive_shortcut(M, report) == 1


def test_shortcut_example2_not_applicable():
    M = example2_matrix()
    assert strictly_positive_shortcut(M, asymptotic_period(M)) is None


def test_shortcut_constant_network_equals_static_index():
    g = helpers.two_cycle_graph()
    M = assemble_weighted_adjacency(g, {(1, 1): "1", (2, 2): "1"})
    report = asymptotic_period(M)
    assert report.tau == 2
    assert strictly_positive_shortcut(M, report) == 2
    assert strictly_positive_shortcut(M, report) == cyclic_index(M.adjacency)


def test_shortcut_needs_the_static_adjacency_not_just_one_pattern():
    # The self-loop e3 always has weight 0: one pattern, but not the static one.
    g = build_graph([(1, 2), (2, 1), (2, 2)], 2)
    M = assemble_weighted_adjacency(g, {(1, 1): "1", (2, 2): "1", (2, 3): "0"})
    report = asymptotic_period(M)
    assert len(report.distinct_patterns) == 1 and report.tau == 2
    assert strictly_positive_shortcut(M, report) is None


def test_shortcut_samples_nothing(monkeypatch):
    import flownet.spectral as spectral

    M = example1_matrix()
    report = asymptotic_period(M)

    def forbidden(*args, **kwargs):
        raise AssertionError("the shortcut must be read off the report")

    monkeypatch.setattr(spectral, "support_pattern", forbidden)
    monkeypatch.setattr(spectral, "cyclic_index", forbidden)
    monkeypatch.setattr(type(M), "at", forbidden)
    assert strictly_positive_shortcut(M, report) == 1


def switching_self_loop_matrix():
    # e1: 1 -> 2, e2: 2 -> 1, e3: 2 -> 2. At t = 1/2 the weight of e2 vanishes;
    # e1 then feeds only the self-loop e3, which never leads back to e1.
    g = build_graph([(1, 2), (2, 1), (2, 2)], 2)
    return assemble_weighted_adjacency(
        g, {(1, 1): "1", (2, 2): "cos(pi*t)^2", (2, 3): "sin(pi*t)^2"})


def test_asymptotic_period_names_the_first_reducible_time():
    M = switching_self_loop_matrix()
    with pytest.raises(HypothesisError, match=r"t=0\.5 is reducible"):
        asymptotic_period(M, [0.0, 0.25, 0.5, 0.75])


def test_survey_checks_each_distinct_pattern_once(monkeypatch):
    import flownet.spectral as spectral

    checked = []
    strongly_connected = spectral.is_strongly_connected
    monkeypatch.setattr(spectral, "is_strongly_connected",
                        lambda adj: checked.append(adj) or strongly_connected(adj))
    M = switching_self_loop_matrix()
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    survey = spectral._survey_support(M, times, 1e-12)
    assert len(checked) == len(survey.patterns) == 3
    assert survey.hashes[0] == survey.hashes[4] and survey.hashes[1] == survey.hashes[3]
    assert list(survey.patterns) == [survey.hashes[0], survey.hashes[1], survey.hashes[2]]
    assert survey.reducible_times == (0.5,)
    assert list(survey.cyclic_indices.values()) == [2, 1, None]

    checked.clear()
    report = asymptotic_period(example2_matrix())
    assert len(checked) == len(report.distinct_patterns) == 3


def test_tau_divisible_by_every_sampled_index():
    for M in (example1_matrix(), example2_matrix()):
        report = asymptotic_period(M)
        assert all(report.tau % s.cyclic_index == 0 for s in report.samples)


def test_active_subpattern_trims_dead_edges():
    pattern = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    active, sub = active_subpattern(pattern)
    assert active.tolist() == [0, 2]
    assert sub.tolist() == [[0, 1], [1, 0]]


def test_spectral_combinatorial_consistency_random():
    rng = random.Random(97)
    for _ in range(40):
        m = rng.randint(2, 10)
        matrix, pattern = helpers.random_imprimitive_stochastic(rng, m)
        assert peripheral_count(matrix) == cyclic_index(pattern)


def test_eigenvalues_stay_in_unit_disk():
    rng = random.Random(13)
    for _ in range(25):
        g = helpers.random_strong_graph(rng)
        M = assemble_weighted_adjacency(g, helpers.random_flow_weights(rng, g))
        assert validate_stochastic(M, np.linspace(0, 1, 64), 1e-9).passed
        t = rng.random()
        assert np.abs(np.linalg.eigvals(M.at(t))).max() <= 1.0 + 1e-9


def test_convergence_permutation_flow_is_exactly_periodic():
    g = helpers.cycle_graph(3)
    M = assemble_weighted_adjacency(g, {(1, 1): "1", (2, 2): "1", (3, 3): "1"})
    f = helpers.constant_initial([0.7, 0.1, 0.4])
    trace = convergence_diagnostic(M, f, 0.0, 3, horizon=9.0, N=120, stride=1.0)
    assert all(d == 0.0 for d in trace.deviation)
    assert trace.rate is None
    # non-constant profiles see only position roundoff, never growth
    bumpy = helpers.expression_initial(["sin(pi*x)^2", "x", "0.3"])
    trace = convergence_diagnostic(M, bumpy, 0.0, 3, horizon=9.0, N=120, stride=1.0)
    assert max(trace.deviation) <= 1e-14


def test_convergence_example1_matches_independent_powers():
    # frozen from a direct dense matrix-power computation of the same quantity
    M = example1_matrix()
    f = helpers.constant_initial([1.0] * 6)
    trace = convergence_diagnostic(M, f, 0.0, 1, horizon=50.0, N=400, stride=10.0)
    frozen = {
        10.0: 0.6975406996726421,
        20.0: 0.24809268354381991,
        50.0: 0.021180701814069558,
    }
    for elapsed, expected in frozen.items():
        got = trace.deviation[trace.elapsed.index(elapsed)]
        assert got == pytest.approx(expected, rel=1e-9)
    assert trace.rate is not None and trace.rate < 0
    # strictly decreasing along the sampled stride
    assert all(b < a for a, b in zip(trace.deviation, trace.deviation[1:]))


def test_convergence_example2_right_and_wrong_period():
    M = example2_matrix()
    f = helpers.constant_initial([float(j) for j in range(1, 11)])
    right = convergence_diagnostic(M, f, 0.0, 2, horizon=20.0, N=200, stride=5.0)
    assert right.deviation[-1] < 1e-3
    assert all(b < a for a, b in zip(right.deviation, right.deviation[1:]))

    wrong = convergence_diagnostic(M, f, 0.0, 1, horizon=20.0, N=200, stride=5.0)
    assert all(d > 1e-3 for d in wrong.deviation)


def test_autonomous_delta_non_increasing_at_integer_steps():
    sc_matrix = assemble_weighted_adjacency(
        helpers.example1_graph(),
        {(1, 1): "1", (2, 2): "1", (3, 3): "1", (4, 4): "0.7", (4, 5): "0.3", (5, 6): "1"},
    )
    tau = asymptotic_period(sc_matrix).tau
    assert tau == 1
    f = helpers.constant_initial([1.0, 0.0, 2.0, 0.5, 0.0, 1.5])
    trace = convergence_diagnostic(sc_matrix, f, 0.0, tau, horizon=12.0, N=150, stride=1.0)
    for earlier, later in zip(trace.deviation, trace.deviation[1:]):
        assert later <= earlier + 1e-15


def test_convergence_rejects_short_horizon():
    M = example1_matrix()
    f = helpers.constant_initial([1.0] * 6)
    with pytest.raises(HypothesisError):
        convergence_diagnostic(M, f, 0.0, 2, horizon=3.0)


@pytest.mark.parametrize("tau,horizon,stride", [
    (0, 10.0, 1.0),
    (-1, 10.0, 1.0),
    (1, float("inf"), 1.0),
    (1, float("nan"), 1.0),
    (1, 10.0, float("nan")),
    (1, 10.0, float("inf")),
    (1, 2.0 ** 53 - 1, 2.0 ** 50),
])
def test_convergence_rejects_degenerate_parameters(tau, horizon, stride):
    M = example1_matrix()
    f = helpers.constant_initial([1.0] * 6)
    with pytest.raises(HypothesisError):
        convergence_diagnostic(M, f, 0.0, tau, horizon=horizon, N=10, stride=stride)


def test_convergence_rejects_an_empty_grid_or_mismatched_data():
    M = example1_matrix()
    with pytest.raises(EvolutionError, match="resolution must be at least 1, got 0"):
        convergence_diagnostic(M, helpers.constant_initial([1.0] * 6), 0.0, 1, horizon=2.0, N=0)
    with pytest.raises(EvolutionError, match="initial data has 5 edges, matrix has 6"):
        convergence_diagnostic(M, helpers.constant_initial([1.0] * 5), 0.0, 1, horizon=2.0, N=10)


def test_stride_must_advance_the_last_base_time():
    # at s = 2**50 floats are 0.25 apart: a stride of 0.1 does not move
    # s + horizon, while one of 0.25, however small next to s, does the work
    M = example1_matrix()
    f = helpers.constant_initial([1.0] * 6)
    s = 2.0 ** 50
    with pytest.raises(HypothesisError, match="does not advance"):
        convergence_diagnostic(M, f, s, 1, horizon=2.0, N=8, stride=0.1)
    trace = convergence_diagnostic(M, f, s, 1, horizon=2.0, N=8, stride=0.25)
    assert trace.elapsed == tuple(j / 4 for j in range(9))


def test_default_sample_times_include_trig_criticals():
    times = default_sample_times(example2_matrix())
    assert 0.0 in times and 0.5 in times
    assert len(times) >= 64


def test_report_serialization(tmp_path):
    report = asymptotic_period(example1_matrix(), [0.0, 0.25])
    payload = report.to_json()
    assert payload["tau"] == 1
    assert len(payload["samples"]) == 2
    assert set(payload["distinct_patterns"]) == {s["pattern_hash"] for s in payload["samples"]}

    M = example1_matrix()
    f = helpers.constant_initial([1.0] * 6)
    trace = convergence_diagnostic(M, f, 0.0, 1, horizon=2.0, N=50, stride=1.0)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,delta"
    assert len(lines) == 1 + len(trace.elapsed)

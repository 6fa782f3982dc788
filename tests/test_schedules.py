import math
import random

import numpy as np
import pytest

import helpers
from flownet import (
    JunctionAllocation,
    ScheduleError,
    TimeVaryingMatrix,
    assemble_allocation,
    assemble_weighted_adjacency,
    embed_junctions,
    line_graph_adjacency,
    make_junction,
    parse_expr,
    regularity_diagnostic,
    support_pattern,
    validate_stochastic,
)
from flownet import schedules


def example1_matrix():
    return assemble_weighted_adjacency(helpers.example1_graph(), helpers.EXAMPLE1_WEIGHTS)


def example2_matrix():
    return assemble_weighted_adjacency(helpers.example2_graph(), helpers.EXAMPLE2_WEIGHTS)


def test_two_cycle_unit_weights():
    M = assemble_weighted_adjacency(helpers.two_cycle_graph(), {(1, 1): "1", (2, 2): "1"})
    for t in (0.0, 0.3, 0.77):
        assert M.at(t).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_example1_matches_printed_matrix():
    M = example1_matrix()
    for t in (0.0, 0.3, 0.5, 0.9):
        assert np.allclose(M.at(t), helpers.example1_matrix_value(t), atol=1e-15)
    assert abs(M.at(0.0)[3, 2] - 0.75) <= 1e-15
    assert abs(M.at(0.5)[3, 2] - 0.25) <= 1e-15
    assert M.at(0.42)[1, 0] == 1.0


def test_example2_constant_entry():
    M = example2_matrix()
    for t in (0.0, 0.25, 0.6):
        assert M.at(t)[8, 0] == 0.5


def test_assembly_equals_weighted_incidence_product():
    # independent route: build the weighted outgoing incidence directly and
    # multiply by the incoming incidence
    from flownet import eval_expr, parse_expr

    for graph, weights in [
        (helpers.example1_graph(), helpers.EXAMPLE1_WEIGHTS),
        (helpers.example2_graph(), helpers.EXAMPLE2_WEIGHTS),
    ]:
        M = assemble_weighted_adjacency(graph, weights)
        for t in (0.0, 0.31, 0.77):
            phi_w = np.zeros((graph.n, graph.m))
            for (i, j), source in weights.items():
                phi_w[i - 1, j - 1] = eval_expr(parse_expr(source), t)
            product = phi_w.T @ graph.phi_plus
            assert np.allclose(M.at(t), product, atol=1e-15)


def test_flow_entries_follow_the_in_edge_scan_order():
    # Entry order fixes the table's columns. Oracle: for each edge k, in edge
    # order, every edge l whose head is the tail of k, in edge order.
    rng = random.Random(5)
    for _ in range(50):
        g = helpers.random_strong_graph(rng)
        weights = helpers.random_flow_weights(rng, g)
        del weights[rng.choice(sorted(weights))]
        M = assemble_weighted_adjacency(g, weights)
        expected = [(k, l) for k in range(1, g.m + 1) if (g.tail(k), k) in weights
                    for l in range(1, g.m + 1) if g.edges[l - 1][1] == g.tail(k)]
        assert list(M.entries) == expected
        assert all(type(i) is int for key in M.entries for i in key)


def test_weight_on_non_incident_pair_rejected():
    g = helpers.example1_graph()
    with pytest.raises(ScheduleError):
        assemble_weighted_adjacency(g, {(1, 3): "1"})
    with pytest.raises(ScheduleError):
        assemble_weighted_adjacency(g, {(9, 1): "1"})


def test_nonperiodic_weight_rejected_unless_allowed():
    g = helpers.two_cycle_graph()
    with pytest.raises(ScheduleError):
        assemble_weighted_adjacency(g, {(1, 1): "t", (2, 2): "1"})


def test_direct_matrix_construction_checks_periodicity():
    adj = line_graph_adjacency(helpers.two_cycle_graph())
    odd = parse_expr("cos(pi*t)")
    entries = {(2, 1): odd, (1, 2): odd}
    with pytest.raises(ScheduleError, match=r"entry \(1,2\): 'cos\(pi \* t\)'"):
        TimeVaryingMatrix(dim=2, entries=entries, kind="allocation", adjacency=adj)
    entries[(1, 2)] = parse_expr("sin(pi*t)")
    with pytest.raises(ScheduleError, match=r"entry \(1,2\): 'sin\(pi \* t\)'"):
        TimeVaryingMatrix(dim=2, entries=entries, kind="allocation", adjacency=adj)
    entries[(1, 2)] = parse_expr("cos(pi*t)^2")
    with pytest.raises(ScheduleError, match=r"entry \(2,1\)"):
        TimeVaryingMatrix(dim=2, entries=entries, kind="allocation", adjacency=adj)


def test_hand_built_junction_is_checked_when_embedded():
    adj = line_graph_adjacency(helpers.two_cycle_graph())
    junctions = [
        JunctionAllocation((1,), (2,), ((parse_expr("1"),),)),
        JunctionAllocation((2,), (1,), ((parse_expr("t"),),)),
    ]
    with pytest.raises(ScheduleError, match=r"entry \(1,2\): 't' is not 1-periodic"):
        embed_junctions(adj, junctions)


def test_periodicity_checked_once_per_distinct_expression(monkeypatch):
    checked = []

    def spy(e):
        checked.append(e)
        return True

    monkeypatch.setattr(schedules.ex, "is_periodic_in_time", spy)
    M = example2_matrix()
    assert len(M.entries) == 22
    assert len(checked) == len(set(checked)) == len(set(M.entries.values()))


def test_structural_periodicity_of_assembled_matrices():
    for M in (example1_matrix(), example2_matrix()):
        for t in (0.0, 0.21, 0.7):
            assert np.allclose(M.at(t + 1.0), M.at(t), atol=1e-12)


def test_assemble_allocation_and_support_violation():
    adj = line_graph_adjacency(helpers.two_cycle_graph())
    M = assemble_allocation(adj, {(1, 2): "1", (2, 1): "1"})
    assert M.at(0.1).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ScheduleError):
        assemble_allocation(adj, {(1, 1): "1"})


@pytest.mark.parametrize("key", [(0, 1), (-1, 2), (3, 1), (1, 1)])
def test_direct_matrix_construction_refuses_keys_off_the_support(key):
    # (0, 1) and (-1, 2) would wrap to the last row, (3, 1) lies past it, and
    # (1, 1) is in range where the two-cycle's line graph has no edge
    adj = line_graph_adjacency(helpers.two_cycle_graph())
    entries = {(1, 2): parse_expr("1"), key: parse_expr("1")}
    k, l = key
    with pytest.raises(ScheduleError, match=rf"entry \({k},{l}\): edge {l} does not flow "
                       rf"into edge {k} \(support violation"):
        TimeVaryingMatrix(dim=2, entries=entries, kind="allocation", adjacency=adj)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_validate_stochastic_refuses_a_tolerance_not_above_zero(tol):
    with pytest.raises(ScheduleError, match="tolerance must be positive"):
        validate_stochastic(example1_matrix(), [0.0], tol)


def test_edge_resolved_allocation_on_example1_topology():
    # same network, but proportions resolved per incoming edge
    adj = line_graph_adjacency(helpers.example1_graph())
    entries = {
        (2, 1): "1",
        (3, 2): "1",
        (4, 3): "0.25 + 0.5*cos(pi*t)^2",
        (5, 3): "0.25 + 0.5*sin(pi*t)^2",
        (1, 4): "1",
        (6, 5): "1",
        (3, 6): "1",
    }
    M = assemble_allocation(adj, entries)
    report = validate_stochastic(M, np.linspace(0.0, 1.0, 1000), 1e-9)
    assert report.passed


def test_embed_single_junction_pair():
    adj = line_graph_adjacency(helpers.two_cycle_graph())
    junctions = [
        make_junction([1], [2], [["1"]]),
        make_junction([2], [1], [["1"]]),
    ]
    M = embed_junctions(adj, junctions)
    assert M.at(0.0).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def paper_junction_setup():
    """Graph embedding the worked junction: v1 has in {e1,e2}, out {e3,e4,e5}."""
    from flownet import build_graph

    g = build_graph([(2, 1), (3, 1), (1, 2), (1, 3), (1, 4), (4, 2)], 4)
    junctions = [
        make_junction([1, 2], [3, 4, 5], [["1/2", "1/3", "1/6"], ["0", "1/4", "3/4"]]),
        make_junction([3, 6], [1], [["1"], ["1"]]),
        make_junction([4], [2], [["1"]]),
        make_junction([5], [6], [["1"]]),
    ]
    return g, junctions


def test_embed_paper_junction_block():
    g, junctions = paper_junction_setup()
    M = embed_junctions(line_graph_adjacency(g), junctions)
    value = M.at(0.0)
    assert np.allclose(value[[2, 3, 4], 0], [0.5, 1 / 3, 1 / 6], atol=1e-15)
    assert np.allclose(value[[2, 3, 4], 1], [0.0, 0.25, 0.75], atol=1e-15)
    # no mass routed anywhere else out of e1/e2
    assert value[[0, 1, 5], 0].tolist() == [0.0, 0.0, 0.0]
    assert value[[0, 1, 5], 1].tolist() == [0.0, 0.0, 0.0]


def test_embed_rejects_overlapping_and_missing_coverage():
    g, junctions = paper_junction_setup()
    adj = line_graph_adjacency(g)
    with pytest.raises(ScheduleError, match="exactly one head"):
        embed_junctions(adj, junctions + [make_junction([1], [3, 4, 5], [["1", "0", "0"]])])
    with pytest.raises(ScheduleError, match="not incoming"):
        embed_junctions(adj, junctions[:-1])


def test_embed_rejects_inconsistent_outgoing_set():
    g, junctions = paper_junction_setup()
    bad = [make_junction([1, 2], [3, 4], [["1/2", "1/2"], ["1/4", "3/4"]])] + junctions[1:]
    with pytest.raises(ScheduleError, match="does not match"):
        embed_junctions(line_graph_adjacency(g), bad)


def test_validate_stochastic_example1():
    report = validate_stochastic(example1_matrix(), [k / 100 for k in range(101)], 1e-12)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {"nonnegative_entries", "column_sums"}


def test_validate_stochastic_example2():
    report = validate_stochastic(example2_matrix(), [k / 100 for k in range(101)], 1e-12)
    assert report.passed


def test_validate_flags_negative_entry_with_witness():
    adj = line_graph_adjacency(helpers.two_cycle_graph())
    M = assemble_allocation(adj, {(1, 2): "sin(2*pi*t)", (2, 1): "1"})
    report = validate_stochastic(M, [k / 100 for k in range(101)], 1e-9)
    assert not report.passed
    neg = next(c for c in report.checks if c.name == "nonnegative_entries")
    assert not neg.passed
    assert neg.witness_value < 0
    assert 0.5 < neg.witness_time <= 1.0
    assert neg.witness_index == [1, 2]


def test_validate_flags_bad_column_sum():
    M = assemble_weighted_adjacency(
        helpers.two_cycle_graph(), {(1, 1): "0.9", (2, 2): "1"}
    )
    report = validate_stochastic(M, [0.0, 0.5], 1e-9)
    cols = next(c for c in report.checks if c.name == "column_sums")
    assert not cols.passed
    assert cols.worst == pytest.approx(0.1, abs=1e-12)
    assert cols.witness_index == 2  # column of edge 2 feeds edge 1 with weight 0.9


def test_support_pattern_example2_degenerate_times():
    M = example2_matrix()
    at_zero = support_pattern(M, 0.0)
    assert at_zero[4:8].sum() == 0  # edges e5..e8 receive nothing
    assert at_zero[:4].sum() > 0
    at_half = support_pattern(M, 0.5)
    assert at_half[0:4].sum() == 0  # edges e1..e4 receive nothing
    assert at_half[4:8].sum() > 0
    generic = support_pattern(M, 0.25)
    assert np.array_equal(generic, M.adjacency)


def test_support_pattern_example1_full_everywhere():
    M = example1_matrix()
    for t in (0.0, 0.125, 0.5, 0.99):
        assert np.array_equal(support_pattern(M, t), M.adjacency)


def test_support_never_exceeds_static_adjacency():
    rng = random.Random(3)
    for _ in range(20):
        g = helpers.random_strong_graph(rng)
        M = assemble_weighted_adjacency(g, helpers.random_flow_weights(rng, g))
        t = rng.random()
        assert (support_pattern(M, t) <= M.adjacency).all()


def test_regularity_constant_matrix_is_zero():
    M = assemble_weighted_adjacency(helpers.two_cycle_graph(), {(1, 1): "1", (2, 2): "1"})
    assert regularity_diagnostic(M, np.linspace(0, 1, 100)) == 0.0


def test_regularity_example1_total_variation():
    # independent oracle: fine-grid variation of 1/4 + cos(pi t)^2 / 2 on [0, 1]
    ts = np.linspace(0.0, 1.0, 100001)
    entry = 0.25 + 0.5 * np.cos(np.pi * ts) ** 2
    oracle = np.abs(np.diff(entry)).sum()
    assert abs(oracle - 1.0) < 1e-8

    tv = regularity_diagnostic(example1_matrix(), np.linspace(0.0, 1.0, 1000))
    assert abs(tv - 1.0) < 1e-4


def test_regularity_example2_finite():
    tv = regularity_diagnostic(example2_matrix(), np.linspace(0.0, 1.0, 1000))
    assert math.isfinite(tv)
    assert 0.0 < tv < 10.0


def test_junction_row_sums_become_column_sums():
    g, junctions = paper_junction_setup()
    M = embed_junctions(line_graph_adjacency(g), junctions)
    report = validate_stochastic(M, np.linspace(0, 1, 101), 1e-12)
    assert report.passed


def test_junction_bad_row_sum_fails_validation():
    g, junctions = paper_junction_setup()
    bad = [make_junction([1, 2], [3, 4, 5], [["1/2", "0.3", "0.1"], ["0", "1/4", "3/4"]])]
    M = embed_junctions(line_graph_adjacency(g), bad + junctions[1:])
    report = validate_stochastic(M, np.linspace(0, 1, 11), 1e-9)
    assert not report.passed
    cols = next(c for c in report.checks if c.name == "column_sums")
    assert cols.witness_index == 1  # the short row lands in column e1

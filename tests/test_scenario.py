import json

import numpy as np
import pytest

import helpers
from flownet import (
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    validation_summary,
)
from flownet.cli import main
from flownet.evolution import midpoints
from flownet.scenario import scenario_from_dict
from flownet.spectral import asymptotic_period, default_sample_times


def test_bundled_example1_reproduces_flow_setup():
    sc = load_scenario("example1")
    assert sc.matrix.kind == "flow"
    assert sc.graph.n == 5 and sc.graph.m == 6
    assert sc.resolution == 400
    assert np.allclose(sc.matrix.at(0.0), helpers.example1_matrix_value(0.0), atol=1e-15)
    assert np.allclose(sc.matrix.at(0.37), helpers.example1_matrix_value(0.37), atol=1e-15)


def test_bundled_example2_is_column_stochastic():
    sc = load_scenario("example2")
    assert sc.graph.m == 10
    ts = np.linspace(0, 1, 101)
    sums = sc.matrix.at_times(ts).sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_bundled_junction_embeds_block():
    sc = load_scenario("junction")
    assert sc.matrix.kind == "allocation"
    value = sc.matrix.at(0.0)
    assert np.allclose(value[[2, 3, 4], 0], [0.5, 1 / 3, 1 / 6], atol=1e-15)
    assert np.allclose(value[[2, 3, 4], 1], [0.0, 0.25, 0.75], atol=1e-15)


def test_bundled_path_and_unknown_name():
    assert bundled_scenario_path("example1").exists()
    with pytest.raises(ScenarioError):
        bundled_scenario_path("nope")
    with pytest.raises(ScenarioError):
        load_scenario("/does/not/exist.json")


def test_weight_for_missing_edge_names_key(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["weights"]["1,3"] = "1"
    path = helpers.write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "(1,3)" in str(err.value)


def test_unknown_top_level_key_rejected(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["wieghts"] = {}
    path = helpers.write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match="wieghts"):
        load_scenario(path)


def test_bad_edge_entry_reports_pointer(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["graph"]["edges"][1] = [2, "x"]
    path = helpers.write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.pointer == "/graph/edges/1"


def test_expression_error_carries_pointer_and_offset(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["weights"]["1,1"] = "cos("
    path = helpers.write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.pointer == "/weights/1,1"
    assert "offset 4" in str(err.value)


@pytest.mark.parametrize("source,needle", [
    ("2^2000", "2.0^2000 overflows"),
    ("1/(1-1) + 0*t", "division by zero"),
    ("0^-1", "zero raised to a negative power"),
])
def test_evaluation_error_in_a_junction_entry_carries_its_pointer(source, needle):
    doc = json.loads(bundled_scenario_path("junction").read_text())
    doc["junctions"][0]["matrix"][1][0] = source
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.pointer == "/junctions/0/matrix/1/0" and needle in str(err.value)


@pytest.mark.parametrize("key", ["in", "out"])
@pytest.mark.parametrize("edge", [None, "3", 1.5, True, [3]])
def test_junction_edges_must_be_integers(key, edge):
    doc = json.loads(bundled_scenario_path("junction").read_text())
    doc["junctions"][0][key][0] = edge
    with pytest.raises(ScenarioError, match="must be a nonempty list of edge numbers") as err:
        scenario_from_dict(doc)
    assert err.value.pointer == f"/junctions/0/{key}"


@pytest.mark.parametrize("vertex", [99, "hello", 2, 0, -1, 1.0, True, None, [1]],
                         ids=["99", "hello", "2", "0", "-1", "1.0", "true", "null", "list"])
def test_junction_vertex_must_meet_every_edge(vertex):
    doc = json.loads(bundled_scenario_path("junction").read_text())
    for junction in doc["junctions"]:
        junction["vertex"] = vertex
    with pytest.raises(ScenarioError, match="'vertex' must be the head of every 'in' edge") as err:
        scenario_from_dict(doc)
    assert err.value.pointer == "/junctions/0/vertex"


def test_junction_vertex_is_checked_against_both_edge_lists():
    doc = json.loads(bundled_scenario_path("junction").read_text())
    doc["junctions"][1]["out"] = [3]  # edge 3 runs 1 -> 2: its head is 2, its tail is not
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.pointer == "/junctions/1/vertex"
    del doc["junctions"][1]["vertex"]  # without the key, the adjacency check names the block
    with pytest.raises(ScenarioError, match="does not match the successors") as err:
        scenario_from_dict(doc)
    assert err.value.pointer == "/junctions"


def test_junction_vertex_is_optional_and_leaves_edges_outside_the_graph_to_the_embedding():
    doc = json.loads(bundled_scenario_path("junction").read_text())
    for junction in doc["junctions"]:
        del junction["vertex"]
    assert scenario_from_dict(doc).matrix.entries == load_scenario("junction").matrix.entries
    doc["junctions"][0]["vertex"] = 1
    doc["junctions"][0]["in"] = [1, 99]
    with pytest.raises(ScenarioError, match="incoming edge 99 outside 1..6") as err:
        scenario_from_dict(doc)
    assert err.value.pointer == "/junctions"


def test_a_divisor_that_vanishes_off_the_grid_still_loads(tmp_path):
    # load evaluates on no points, and the midpoint grid never reaches x = 0
    doc = helpers.base_flow_scenario()
    doc["initial"]["1"] = "1/x"
    summary = validation_summary(load_scenario(helpers.write_scenario(tmp_path, doc)))
    assert summary["passed"] and summary["initial_min_density"] == 0.0


def test_missing_initial_edge_rejected(tmp_path):
    doc = helpers.base_flow_scenario()
    del doc["initial"]["2"]
    path = helpers.write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.pointer == "/initial/2"


def test_flow_mode_rejects_junctions(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["junctions"] = []
    path = helpers.write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match="junctions"):
        load_scenario(path)


def test_atf_needs_exactly_one_source(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["mode"] = "atf"
    doc["junctions"] = [{"in": [1], "out": [2], "matrix": [["1"]]}]
    path = helpers.write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match="exactly one"):
        load_scenario(path)


def test_atf_direct_weights(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["mode"] = "atf"
    doc["weights"] = {"1,2": "1", "2,1": "1"}
    path = helpers.write_scenario(tmp_path, doc)
    sc = load_scenario(path)
    assert sc.matrix.kind == "allocation"
    assert sc.matrix.at(0.3).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_piecewise_initial_right_continuity(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["initial"]["1"] = {"breaks": [0.0, 0.5, 1.0], "values": [2.0, 3.0]}
    path = helpers.write_scenario(tmp_path, doc)
    sc = load_scenario(path)
    vals = sc.initial.evaluate(np.asarray([0.25, 0.5, 0.75]))
    assert vals[0].tolist() == [2.0, 3.0, 3.0]


def test_bad_piecewise_breaks_rejected(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["initial"]["1"] = {"breaks": [0.0, 1.0], "values": [1.0, 2.0]}
    path = helpers.write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.pointer == "/initial/1"


def test_piecewise_break_of_the_wrong_type_rejected(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["initial"]["1"] = {"breaks": [0, [1]], "values": [1]}
    with pytest.raises(ScenarioError) as err:
        load_scenario(helpers.write_scenario(tmp_path, doc))
    assert err.value.pointer == "/initial/1"


@pytest.mark.parametrize("spec,needle", [
    ({"breaks": ["0", True], "values": ["2"]}, "breaks[0] must be a finite number"),
    ({"breaks": [0, True], "values": [2]}, "breaks[1] must be a finite number"),
    ({"breaks": [0, 1], "values": [False]}, "values[0] must be a finite number"),
    ({"breaks": [0, 1], "values": ["2"]}, "values[0] must be a finite number"),
    ({"breaks": [0, 1], "values": [float("nan")]}, "values[0] must be a finite number"),
])
def test_piecewise_entries_must_be_json_numbers(tmp_path, spec, needle):
    # float() would read "0" and true; JSON numbers only, as every scalar field
    doc = helpers.base_flow_scenario()
    doc["initial"]["1"] = spec
    with pytest.raises(ScenarioError) as err:
        load_scenario(helpers.write_scenario(tmp_path, doc))
    assert err.value.pointer == "/initial/1" and needle in str(err.value)


def test_nonperiodic_weight_needs_flag(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["weights"]["1,1"] = "t"
    path = helpers.write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError):
        load_scenario(path)


def _flow_doc(source):
    doc = helpers.base_flow_scenario()
    doc["weights"]["1,1"] = source
    return doc


def _atf_doc(source):
    doc = helpers.base_flow_scenario()
    doc["mode"] = "atf"
    doc["weights"] = {"1,2": source, "2,1": "1"}
    return doc


def _junction_doc(source):
    doc = helpers.base_flow_scenario()
    doc["mode"] = "atf"
    del doc["weights"]
    doc["junctions"] = [{"in": [1], "out": [2], "matrix": [["1"]]},
                        {"in": [2], "out": [1], "matrix": [[source]]}]
    return doc


# Each is 2-periodic, not 1-periodic: odd under t -> t + 1, or a sum of an
# even and an odd term.
TWO_PERIODIC = ["cos(pi*t)", "cos(pi*t + 1)", "cos(pi*(t + 3))", "1 + cos(pi*t) - sin(7*pi*t)/2"]


@pytest.mark.parametrize("source", TWO_PERIODIC)
@pytest.mark.parametrize("build,pointer", [
    (_flow_doc, "/weights"), (_atf_doc, "/weights"), (_junction_doc, "/junctions"),
])
def test_two_periodic_weight_rejected_with_pointer(tmp_path, source, build, pointer):
    path = helpers.write_scenario(tmp_path, build(source))
    with pytest.raises(ScenarioError, match="not 1-periodic") as err:
        load_scenario(path)
    assert err.value.pointer == pointer
    if build is _flow_doc:
        # the weight key the user wrote, not the matrix entry (1,2) it fills
        assert str(err.value).startswith("/weights: weight (1,1): ")
    build_periodic = build(source.replace("pi*", "2*pi*"))
    assert load_scenario(helpers.write_scenario(tmp_path, build_periodic)).matrix.dim == 2


def test_unknown_tolerance_key(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["tolerances"] = {"stochastic": 1e-9, "typo": 1}
    path = helpers.write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match="typo"):
        load_scenario(path)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_start_time_rejected(tmp_path, s):
    # Python's json reads NaN and Infinity
    doc = helpers.base_flow_scenario()
    doc["s"] = s
    with pytest.raises(ScenarioError) as err:
        load_scenario(helpers.write_scenario(tmp_path, doc))
    assert err.value.pointer == "/s"


@pytest.mark.parametrize("pointer,value", [
    ("/graph/n", "x"), ("/graph/n", None), ("/graph/n", 2.7), ("/graph/n", 2.0),
    ("/graph/n", True), ("/graph/n", 0),
    ("/s", "0"), ("/s", False), pytest.param("/s", 10 ** 400, id="/s-10**400"),
    ("/N", 64.0), ("/N", True), ("/N", 0), ("/N", [64]),
    ("/validation_grid", 1), ("/validation_grid", 11.5), ("/validation_grid", None),
    ("/tolerances/stochastic", "a"), ("/tolerances/stochastic", 0),
    ("/tolerances/stochastic", -1e-9), ("/tolerances/stochastic", float("nan")),
    ("/tolerances/stochastic", float("inf")), ("/tolerances/stochastic", True),
    ("/tolerances/zero", -1e-12), ("/tolerances/zero", "0"), ("/tolerances/zero", float("nan")),
    ("/graph/n", 5), ("/N", 10 ** 6 + 1), ("/validation_grid", 10 ** 6 + 1),
])
def test_scalar_fields_rejected_at_their_pointer(tmp_path, pointer, value):
    doc = helpers.set_at(helpers.base_flow_scenario(), pointer, value)
    with pytest.raises(ScenarioError) as err:
        load_scenario(helpers.write_scenario(tmp_path, doc))
    assert err.value.pointer == pointer


def test_scalar_fields_accept_integers_for_numbers(tmp_path):
    doc = helpers.base_flow_scenario()
    doc.update(s=1, validation_grid=2, tolerances={"stochastic": 1, "zero": 0})
    sc = load_scenario(helpers.write_scenario(tmp_path, doc))
    assert (sc.graph.n, sc.resolution, sc.validation_grid) == (2, 64, 2)
    for value in (sc.start_time, sc.tolerances.stochastic, sc.tolerances.zero):
        assert type(value) is float
    assert (sc.start_time, sc.tolerances.stochastic, sc.tolerances.zero) == (1.0, 1.0, 0.0)


def test_integer_fields_accept_their_upper_bounds(tmp_path):
    # n is bounded by twice the edge count (two here), N and validation_grid by 10**6
    doc = helpers.base_flow_scenario()
    doc.update(graph={"n": 4, "edges": [[1, 2], [2, 1]]}, N=10 ** 6, validation_grid=10 ** 6)
    sc = load_scenario(helpers.write_scenario(tmp_path, doc))
    assert (sc.graph.n, sc.resolution, sc.validation_grid) == (4, 10 ** 6, 10 ** 6)


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)


@pytest.mark.parametrize("data", [
    b"\xff\xfe{",
    b"[" * 100000 + b"]" * 100000,  # deeper than the JSON decoder recurses
    b'{"graph": ' + b'{"a": ' * 5000 + b"1" + b"}" * 5001,
], ids=["not-utf-8", "list-100000-deep", "object-5000-deep"])
def test_undecodable_or_too_deep_json_rejected(tmp_path, data):
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(path)


def test_validation_summary_bundled_pass():
    for name in ("example1", "example2", "junction"):
        summary = validation_summary(load_scenario(name))
        assert summary["passed"], name
        assert summary["stochastic"]["passed"]
        assert not summary["support"]["reducible_times"]


def test_validation_summary_example2_three_patterns():
    summary = validation_summary(load_scenario("example2"))
    assert summary["support"]["distinct_patterns"] == 3


def test_validation_summary_detects_subchochastic(tmp_path):
    doc = helpers.base_flow_scenario()
    doc["weights"]["1,1"] = "0.9"
    path = helpers.write_scenario(tmp_path, doc)
    summary = validation_summary(load_scenario(path))
    assert not summary["passed"]
    assert not summary["stochastic"]["passed"]


def test_summary_is_json_serializable():
    summary = validation_summary(load_scenario("example1"))
    json.dumps(summary)


# (2*x)^5000 overflows to inf for x > 0.58, which a min() alone does not see
@pytest.mark.parametrize("density,least", [("x - 0.5", 0.5 / 64 - 0.5),
                                           ("(2*x)^5000", np.nan),
                                           ("-(2*x)^5000", np.nan),
                                           ("(2*x)^5000 - (2*x)^5000", np.nan)],
                         ids=["negative", "overflow", "negative-overflow", "undefined"])
def test_validation_summary_flags_negative_initial_density(tmp_path, capsys, density, least):
    doc = helpers.base_flow_scenario()
    doc["initial"]["1"] = density
    path = helpers.write_scenario(tmp_path, doc)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the case under test
        summary = validation_summary(load_scenario(path))
    np.testing.assert_equal(summary["initial_min_density"], least)
    assert not summary["passed"]
    code = main(["simulate", "--scenario", str(path), "--t-end", "3.5",
                 "--out", str(tmp_path / "field.csv")])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: scenario failed validation") and err.count("\n") == 1, err


# One document parses each distinct (source, variable) pair once: its weights,
# junction cells and initial densities share one Expr per pair.

def _respelled(doc: dict) -> dict:
    """doc with the k-th repeat of each source led by k spaces ("0.5", " 0.5",
    ...), so that no two sources are the same string."""
    seen: dict[str, int] = {}

    def spell(source: str) -> str:
        seen[source] = seen.get(source, -1) + 1
        return " " * seen[source] + source

    return dict(doc, weights={k: spell(v) for k, v in doc["weights"].items()},
                initial={k: spell(v) for k, v in doc["initial"].items()})


def _expr_ids(sc, doc: dict) -> tuple[dict, dict]:
    """For weights and initial densities: source -> ids of the Exprs it gave."""
    weights, initial = {}, {}
    for (k, _), e in sc.matrix.entries.items():  # entry (k, l) holds weight (tail(e_k), e_k)
        weights.setdefault(doc["weights"][f"{sc.graph.tail(k)},{k}"], set()).add(id(e))
    for j, profile in enumerate(sc.initial.profiles, start=1):
        initial.setdefault(doc["initial"][str(j)], set()).add(id(profile.expr))
    return weights, initial


def test_repeated_sources_share_one_expr_and_load_as_when_respelled():
    doc = helpers.load_perfbench("gen").ring_scenario(1, 8)
    respelled = _respelled(doc)
    sc, sc2 = scenario_from_dict(doc), scenario_from_dict(respelled)
    for part, ids in zip(("weights", "initial"), _expr_ids(sc, doc)):
        assert len(set(doc[part].values())) < len(doc[part]), part  # some source repeats
        assert all(len(objects) == 1 for objects in ids.values()), part
    for part, ids in zip(("weights", "initial"), _expr_ids(sc2, respelled)):
        assert len(set().union(*ids.values())) == len(ids), part  # one Expr per spelling

    grid = np.linspace(0.0, 1.0, 1001)
    assert np.array_equal(sc.matrix.table(grid), sc2.matrix.table(grid))
    xs = midpoints(sc.resolution)
    assert np.array_equal(sc.initial.evaluate(xs), sc2.initial.evaluate(xs))
    assert validation_summary(sc) == validation_summary(sc2)
    reports = [asymptotic_period(s.matrix, default_sample_times(s.matrix), s.tolerances.zero)
               for s in (sc, sc2)]
    assert reports[0].to_json() == reports[1].to_json()


def test_a_source_is_parsed_separately_for_t_and_x():
    doc = helpers.base_flow_scenario()
    doc["weights"]["1,1"] = doc["initial"]["1"] = "x"
    with pytest.raises(ScenarioError, match="'x'") as err:
        scenario_from_dict(doc)
    assert err.value.pointer == "/weights/1,1"
    # weights load before the initial data: a weight's source is still
    # parsed anew, in x, as a density
    doc = helpers.base_flow_scenario()
    doc["weights"]["1,1"] = doc["initial"]["1"] = "cos(pi*t)^2 + sin(pi*t)^2"
    with pytest.raises(ScenarioError, match="bad expression") as err:
        scenario_from_dict(doc)
    assert err.value.pointer == "/initial/1"


@pytest.mark.parametrize("source", ["cos(", "2^100000"])
@pytest.mark.parametrize("part,pointer", [("weights", "/weights/1,1"), ("initial", "/initial/1")])
def test_the_first_of_two_identical_bad_sources_is_reported(source, part, pointer):
    doc = helpers.base_flow_scenario()
    for key in list(doc[part]):
        doc[part][key] = source
    with pytest.raises(ScenarioError, match="bad expression") as err:
        scenario_from_dict(doc)
    assert err.value.pointer == pointer


def test_two_loads_share_no_expr():
    first, second = load_scenario("example1"), load_scenario("example1")
    ids = [{id(e) for e in sc.matrix.entries.values()}
           | {id(p.expr) for p in sc.initial.profiles} for sc in (first, second)]
    assert ids[0] and not ids[0] & ids[1]

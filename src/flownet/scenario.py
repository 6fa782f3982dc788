"""Scenario files: one JSON document describing a complete simulation setup.

Schema sketch::

    {
      "graph": {"n": 5, "edges": [[tail, head], ...]},
      "mode": "flow" | "atf",
      "weights": {"i,j": "expr", ...},            # flow: vertex i, edge j
      "weights": {"k,l": "expr", ...},            # atf: out-edge k, in-edge l
      "junctions": [{"vertex": v, "in": [...], "out": [...],
                     "matrix": [["expr", ...], ...]}, ...],   # atf alternative
      "initial": {"j": "expr in x" | {"breaks": [...], "values": [...]}, ...},
      "s": 0.0, "N": 400, "validation_grid": 1001,
      "tolerances": {"stochastic": 1e-9, "zero": 1e-12}
    }

Errors carry a JSON-pointer to the offending element. Three scenarios ship
with the package and can be addressed by bare name: example1, example2,
junction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from . import expr as ex
from .errors import (
    EvolutionError,
    ExprEvalError,
    ExprSyntaxError,
    GraphError,
    ScenarioError,
    ScheduleError,
)
from .evolution import _MAX_POINTS, ExprProfile, InitialData, PiecewiseProfile, midpoints
from .graph import NetworkGraph, build_graph, line_graph_adjacency
from .schedules import (
    TimeVaryingMatrix,
    assemble_allocation,
    assemble_weighted_adjacency,
    embed_junctions,
    make_junction,
    regularity_diagnostic,
    validate_stochastic,
)
from .spectral import PatternRows, _survey_support, default_sample_times

BUNDLED = ("example1", "example2", "junction")

_TOP_KEYS = {"graph", "mode", "weights", "junctions", "initial", "s", "N",
             "validation_grid", "tolerances"}


@dataclass(frozen=True)
class Tolerances:
    stochastic: float = 1e-9
    zero: float = 1e-12


@dataclass(frozen=True)
class Scenario:
    graph: NetworkGraph
    matrix: TimeVaryingMatrix
    initial: InitialData
    start_time: float
    resolution: int
    validation_grid: int
    tolerances: Tolerances


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    if name not in BUNDLED:
        raise ScenarioError(f"no bundled scenario named {name!r}; available: {BUNDLED}")
    return Path(str(resources.files("flownet") / "scenarios" / f"{name}.json"))


def _require(condition: bool, message: str, pointer: str) -> None:
    if not condition:
        raise ScenarioError(message, pointer)


def _is_int(value) -> bool:
    """A JSON integer: true and false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(doc: dict, key: str, pointer: str, default, **bounds):
    """doc[key], or default if absent, read by _number."""
    return _number(doc.get(key, default), repr(key), pointer, **bounds)


def _number(value, name: str, pointer: str, integer: bool = False,
            low: float = -math.inf, strict: bool = False, high: float = math.inf):
    """value as a JSON integer, or a finite number read as a float, at least low
    (above low if strict), at most high. Else a ScenarioError at pointer."""
    ok = _is_int(value) or not integer and isinstance(value, float)
    if ok and not integer:
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            ok = False
        ok = ok and math.isfinite(value)
    ok = ok and (value > low if strict else value >= low) and value <= high
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low}"
    bound += "" if high == math.inf else f" and <= {high}"
    _require(ok, f"{name} must be {'an integer' if integer else 'a finite number'}{bound}", pointer)
    return value


def _parse_pair(key: str, pointer: str) -> tuple[int, int]:
    parts = key.split(",")
    _require(len(parts) == 2, f"key {key!r} must look like 'a,b'", pointer)
    # int() would also read ' 4', '+4', '4_0' and non-ASCII digits such as '٤'
    _require(all(p.isascii() and p.isdigit() for p in parts),
             f"key {key!r} must hold two integers", pointer)
    return int(parts[0]), int(parts[1])


def _parse_weight(source, pointer: str, memo: dict, var: str = "t") -> ex.Expr:
    """The parsed expression, evaluated once on no points: every term in the
    variable comes out empty, so only the faults that no grid escapes (a
    constant that overflows, a constant zero divisor) are raised, here at
    pointer rather than later without it. memo holds one document's Exprs by
    (source, var): a repeat shares one, a bad source fails at its first pointer.
    The error quotes a source past 60 characters by its first 60 and its
    length; the offset in the message still locates the fault."""
    _require(isinstance(source, str), "expression must be a string", pointer)
    if (source, var) not in memo:
        try:
            e = ex.parse_expr(source, var=var)
            ex.evaluate(e, np.empty(0))
        except (ExprSyntaxError, ExprEvalError) as err:
            quoted = (repr(source) if len(source) <= 60
                      else f"{source[:60]!r}… ({len(source)} characters)")
            raise ScenarioError(f"bad expression {quoted}: {err}", pointer) from err
        memo[source, var] = e
    return memo[source, var]


def load_scenario(path) -> Scenario:
    """Load and structurally validate a scenario from a file or bundled name."""
    p = Path(path)
    if not p.exists() and str(path) in BUNDLED:
        p = bundled_scenario_path(str(path))
    if not p.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ScenarioError(f"not valid JSON: {err}") from err
    except RecursionError as err:
        raise ScenarioError("not valid JSON: arrays or objects nested too deeply") from err
    return scenario_from_dict(doc)


def scenario_from_dict(doc) -> Scenario:
    _require(isinstance(doc, dict), "document must be a JSON object", "")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown keys {sorted(unknown)}", "")

    graph_doc = doc.get("graph")
    _require(isinstance(graph_doc, dict), "missing or invalid 'graph' object", "/graph")
    _require("n" in graph_doc and "edges" in graph_doc, "graph needs 'n' and 'edges'", "/graph")
    edges = graph_doc["edges"]
    _require(isinstance(edges, list) and edges, "'edges' must be a nonempty list", "/graph/edges")
    for idx, pair in enumerate(edges):
        _require(
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair)),
            "each edge must be a [tail, head] pair of integers",
            f"/graph/edges/{idx}",
        )
    n = _scalar(graph_doc, "n", "/graph/n", None, integer=True, low=1, high=2 * len(edges))
    try:
        g = build_graph([tuple(pair) for pair in edges], n)
    except GraphError as err:
        raise ScenarioError(str(err), "/graph") from err

    mode = doc.get("mode")
    _require(mode in ("flow", "atf"), "mode must be 'flow' or 'atf'", "/mode")
    memo: dict = {}  # this document's parsed expressions, for _parse_weight

    if mode == "flow":
        _require("weights" in doc, "flow mode needs 'weights'", "/weights")
        _require("junctions" not in doc, "'junctions' is only valid in atf mode", "/junctions")
        matrix = _weights_matrix(doc["weights"], partial(assemble_weighted_adjacency, g), memo)
    else:
        has_w, has_j = "weights" in doc, "junctions" in doc
        _require(has_w != has_j, "atf mode needs exactly one of 'weights' or 'junctions'", "")
        if has_w:
            matrix = _weights_matrix(doc["weights"],
                                     partial(assemble_allocation, line_graph_adjacency(g)), memo)
        else:
            matrix = _junction_matrix(g, doc["junctions"], memo)

    initial = _initial_data(g, doc.get("initial"), memo)

    tol_doc = doc.get("tolerances", {})
    _require(isinstance(tol_doc, dict), "'tolerances' must be an object", "/tolerances")
    unknown = set(tol_doc) - {"stochastic", "zero"}
    _require(not unknown, f"unknown tolerance keys {sorted(unknown)}", "/tolerances")
    tolerances = Tolerances(
        stochastic=_scalar(tol_doc, "stochastic", "/tolerances/stochastic", 1e-9, low=0, strict=True),
        zero=_scalar(tol_doc, "zero", "/tolerances/zero", 1e-12, low=0),
    )
    return Scenario(
        graph=g,
        matrix=matrix,
        initial=initial,
        start_time=_scalar(doc, "s", "/s", 0.0),
        resolution=_scalar(doc, "N", "/N", 400, integer=True, low=1, high=_MAX_POINTS),
        validation_grid=_scalar(doc, "validation_grid", "/validation_grid", 1001,
                                integer=True, low=2, high=_MAX_POINTS),
        tolerances=tolerances,
    )


def _weights_matrix(weights_doc, assemble, memo: dict) -> TimeVaryingMatrix:
    """The 'weights' object, keyed "a,b", parsed and passed to assemble."""
    _require(isinstance(weights_doc, dict) and weights_doc, "'weights' must be a nonempty object", "/weights")
    weights = {}
    for key, source in weights_doc.items():
        pointer = f"/weights/{key}"
        a, b = _parse_pair(key, pointer)
        weights[(a, b)] = _parse_weight(source, pointer, memo)
    try:
        return assemble(weights)
    except ScheduleError as err:
        raise ScenarioError(str(err), "/weights") from err


def _junction_matrix(g: NetworkGraph, junctions_doc, memo: dict) -> TimeVaryingMatrix:
    _require(isinstance(junctions_doc, list) and junctions_doc,
             "'junctions' must be a nonempty list", "/junctions")
    junctions = []
    for idx, jdoc in enumerate(junctions_doc):
        pointer = f"/junctions/{idx}"
        _require(isinstance(jdoc, dict), "junction must be an object", pointer)
        unknown = set(jdoc) - {"vertex", "in", "out", "matrix"}
        _require(not unknown, f"unknown junction keys {sorted(unknown)}", pointer)
        incoming = jdoc.get("in")
        outgoing = jdoc.get("out")
        rows = jdoc.get("matrix")
        for key, edges in (("in", incoming), ("out", outgoing)):
            _require(isinstance(edges, list) and edges and all(map(_is_int, edges)),
                     f"{key!r} must be a nonempty list of edge numbers", f"{pointer}/{key}")
        if "vertex" in jdoc:  # edges outside 1..m are left to embed_junctions
            ends = {g.edges[l - 1][1] for l in incoming if 1 <= l <= g.m}
            ends |= {g.tail(k) for k in outgoing if 1 <= k <= g.m}
            _require(_is_int(jdoc["vertex"]) and ends <= {jdoc["vertex"]},
                     "'vertex' must be the head of every 'in' edge and the tail of every 'out' edge",
                     f"{pointer}/vertex")
        _require(isinstance(rows, list) and rows, "'matrix' must be a nonempty list of rows", f"{pointer}/matrix")
        parsed_rows = []
        for r, row in enumerate(rows):
            _require(isinstance(row, list), "matrix row must be a list", f"{pointer}/matrix/{r}")
            parsed_rows.append(
                [_parse_weight(v, f"{pointer}/matrix/{r}/{c}", memo) for c, v in enumerate(row)]
            )
        try:
            junctions.append(make_junction(incoming, outgoing, parsed_rows))
        except ScheduleError as err:
            raise ScenarioError(str(err), pointer) from err
    try:
        return embed_junctions(line_graph_adjacency(g), junctions)
    except ScheduleError as err:
        raise ScenarioError(str(err), "/junctions") from err


def _initial_data(g: NetworkGraph, initial_doc, memo: dict) -> InitialData:
    _require(isinstance(initial_doc, dict), "missing or invalid 'initial' object", "/initial")
    profiles = []
    for j in range(1, g.m + 1):
        key = str(j)
        pointer = f"/initial/{key}"
        _require(key in initial_doc, f"missing initial density for edge {j}", pointer)
        spec = initial_doc[key]
        if isinstance(spec, str):
            profiles.append(ExprProfile(_parse_weight(spec, pointer, memo, var="x")))
        elif isinstance(spec, dict):
            unknown = set(spec) - {"breaks", "values"}
            _require(not unknown, f"unknown keys {sorted(unknown)}", pointer)
            breaks = spec.get("breaks")
            values = spec.get("values")
            _require(isinstance(breaks, list) and isinstance(values, list),
                     "piecewise profile needs 'breaks' and 'values' lists", pointer)
            try:  # each number, then their order, at the profile's pointer
                profiles.append(PiecewiseProfile(
                    tuple(_number(b, f"breaks[{i}]", pointer) for i, b in enumerate(breaks)),
                    tuple(_number(v, f"values[{i}]", pointer) for i, v in enumerate(values))))
            except EvolutionError as err:
                raise ScenarioError(str(err), pointer) from err
        else:
            raise ScenarioError("initial density must be an expression string or "
                                "{'breaks': ..., 'values': ...}", pointer)
    extra = set(initial_doc) - {str(j) for j in range(1, g.m + 1)}
    _require(not extra, f"initial data for unknown edges {sorted(extra)}", "/initial")
    return InitialData(tuple(profiles))


def validation_summary(sc: Scenario) -> dict:
    """Run every scenario-level check and return a JSON-ready summary.

    Checks: column-stochasticity and nonnegativity on the validation grid,
    strong connectivity of the support pattern at the period sample times,
    finite, nonnegative initial data on the simulation grid, and the
    total-variation regularity diagnostic (reported, never gating). Each
    support pattern is a spectral.PatternRows: a list of its rows whose .array
    the CLI's JSON writer reads.
    """
    grid = np.linspace(0.0, 1.0, sc.validation_grid)
    report = validate_stochastic(sc.matrix, grid, sc.tolerances.stochastic)

    sample_times = default_sample_times(sc.matrix)
    survey = _survey_support(sc.matrix, sample_times, sc.tolerances.zero)

    density = sc.initial.evaluate(midpoints(sc.resolution))
    # NaN, which fails the gate, where a density overflows or is undefined; two
    # reductions test that without a temporary the size of the grid
    low, high = float(density.min()), float(density.max())
    min_density = low if math.isfinite(low) and math.isfinite(high) else math.nan

    summary = {
        "stochastic": report.to_json(),
        "support": {
            "sample_times": len(sample_times),
            "distinct_patterns": len(survey.patterns),
            "patterns": {h: PatternRows(p) for h, p in sorted(survey.patterns.items())},
            "reducible_times": list(survey.reducible_times),
        },
        "initial_min_density": min_density,
        "regularity_total_variation": regularity_diagnostic(sc.matrix, grid),
        "passed": (report.passed and not survey.reducible_times
                   and min_density >= -sc.tolerances.zero),
    }
    return summary

"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one `ACCEPTANCE <n> PASS|FAIL: <detail>` line (run with -s
to see them all). Criteria with several independent halves are split across
test functions so one red half cannot hide a green one.
"""

import json
import math
import random
import time

import numpy as np

import helpers
from flownet import (
    InitialData,
    assemble_weighted_adjacency,
    convergence_diagnostic,
    cyclic_index,
    l1_norm,
    load_scenario,
    parse_expr,
    peripheral_count,
    propagate,
    to_source,
    validate_stochastic,
)
from flownet.cli import main as cli_main
from flownet.errors import ExprSyntaxError
from flownet.evolution import PiecewiseProfile


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c1_example1_reproduction(capsys):
    start = time.perf_counter()
    sc = load_scenario("example1")
    grid = np.linspace(0.0, 1.0, 1001)
    stochastic = validate_stochastic(sc.matrix, grid, 1e-12)

    code = cli_main(["validate", "--scenario", "example1"])
    validate_out = capsys.readouterr().out
    code_period = cli_main(["period", "--scenario", "example1"])
    period_payload = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start

    ok = (
        stochastic.passed
        and code == 0
        and json.loads(validate_out)["passed"]
        and code_period == 0
        and period_payload["tau"] == 1
        and period_payload["shortcut_applicable"] is True
        and period_payload["shortcut_tau"] == 1
        and elapsed < 1.0
    )
    assert report(
        1,
        ok,
        f"validate passed (1e-12 on 1001-point grid), tau=1 via general formula "
        f"and via the positive-weights shortcut, runtime {elapsed:.2f}s < 1s",
    )


def test_c2_example2_reproduction(capsys):
    start = time.perf_counter()
    code = cli_main(["validate", "--scenario", "example2"])
    validate_payload = json.loads(capsys.readouterr().out)
    code_period = cli_main(["period", "--scenario", "example2"])
    period_payload = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start

    indices = {s["cyclic_index"] for s in period_payload["samples"]}
    ok = (
        code == 0
        and validate_payload["passed"]
        and validate_payload["support"]["distinct_patterns"] == 3
        and code_period == 0
        and len(period_payload["distinct_patterns"]) == 3
        and indices == {2}
        and period_payload["tau"] == 2
        and period_payload["shortcut_applicable"] is False
        and elapsed < 1.0
    )
    assert report(
        2,
        ok,
        f"validates, exactly 3 support patterns, every cyclic index 2, tau=2, "
        f"runtime {elapsed:.2f}s < 1s",
    )


def test_c3_junction_embedding():
    sc = load_scenario("junction")
    value = sc.matrix.at(0.0)
    col_e1 = value[:, 0]
    col_e2 = value[:, 1]
    block_ok = (
        np.allclose(col_e1[[2, 3, 4]], [0.5, 1 / 3, 1 / 6], atol=1e-15)
        and np.allclose(col_e2[[2, 3, 4]], [0.0, 0.25, 0.75], atol=1e-15)
    )
    sums_ok = abs(col_e1.sum() - 1.0) <= 1e-15 and abs(col_e2.sum() - 1.0) <= 1e-15
    ok = block_ok and sums_ok
    assert report(
        3,
        ok,
        f"junction block embeds transposed; column sums off by "
        f"{abs(col_e1.sum() - 1.0):.1e} and {abs(col_e2.sum() - 1.0):.1e} (<= 1e-15)",
    )


def test_c4_formula_vs_oracle_first_order():
    start = time.perf_counter()
    results = []
    for name in ("example1", "example2"):
        sc = load_scenario(name)
        M, f, s = sc.matrix, sc.initial, sc.start_time
        for horizon in (0.5, 1.0, 3.7):
            devs = []
            for dt in (1 / 2000, 1 / 4000, 1 / 8000):
                exact = propagate(M, f, s, s + horizon, 400)
                sim = helpers.oracle_characteristics(M, f, s, s + horizon, 400, dt)
                devs.append(float(np.abs(exact.values - sim.values).max()))
            orders = [math.log2(devs[i] / devs[i + 1]) for i in range(2)]
            results.append((name, horizon, devs[-1], orders))
    elapsed = time.perf_counter() - start

    ok = elapsed < 60.0
    for _, _, final_dev, orders in results:
        ok = ok and final_dev < 1e-3 and all(abs(o - 1.0) <= 0.2 for o in orders)
    worst_dev = max(r[2] for r in results)
    order_span = (
        min(o for r in results for o in r[3]),
        max(o for r in results for o in r[3]),
    )
    assert report(
        4,
        ok,
        f"halving dt halves the deviation (orders in [{order_span[0]:.3f}, "
        f"{order_span[1]:.3f}], within 1.0 +/- 0.2); worst deviation at dt=1/8000 "
        f"is {worst_dev:.2e} < 1e-3; runtime {elapsed:.1f}s < 60s",
    )


def test_c5_conservation_and_positivity_suite():
    start = time.perf_counter()
    rng = random.Random(20260809)
    N = 200
    worst_drift = 0.0
    worst_min = np.inf
    for _ in range(100):
        g = helpers.random_strong_graph(rng, max_m=8)
        M = assemble_weighted_adjacency(g, helpers.random_flow_weights(rng, g))
        doc = helpers.random_piecewise_initial(rng, g.m, N)
        f = InitialData(tuple(
            PiecewiseProfile(tuple(doc[str(j)]["breaks"]), tuple(doc[str(j)]["values"]))
            for j in range(1, g.m + 1)
        ))
        total0 = l1_norm(propagate(M, f, 0.0, 0.0, N))[1]
        field = propagate(M, f, 0.0, 10.0, N)
        total1 = l1_norm(field)[1]
        drift = abs(total1 - total0) / max(total0, 1e-30)
        worst_drift = max(worst_drift, drift)
        worst_min = min(worst_min, float(field.values.min()))
    elapsed = time.perf_counter() - start
    ok = worst_drift <= 1e-9 and worst_min >= -1e-12 and elapsed < 120.0
    assert report(
        5,
        ok,
        f"100 random strongly connected scenarios at t-s=10: worst mass drift "
        f"{worst_drift:.2e} <= 1e-9, min density {worst_min:.2e} >= -1e-12, "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_c6_spectral_combinatorial_consistency():
    rng = random.Random(424242)
    mismatches = 0
    for _ in range(200):
        m = rng.randint(2, 10)
        matrix, pattern = helpers.random_imprimitive_stochastic(rng, m)
        if peripheral_count(matrix) != cyclic_index(pattern):
            mismatches += 1
    ok = mismatches == 0
    assert report(
        6,
        ok,
        f"200 random irreducible column-stochastic matrices (m <= 10): peripheral "
        f"eigenvalue count equals the combinatorial cyclic index in every case "
        f"({mismatches} mismatches)",
    )


def test_c7_identity_and_cocycle():
    rng = random.Random(7777)
    identity_ok = True
    worst = 0.0
    for name in ("example1", "example2"):
        sc = load_scenario(name)
        M, f = sc.matrix, sc.initial
        field = propagate(M, f, sc.start_time, sc.start_time, 100)
        identity_ok = identity_ok and np.array_equal(
            field.values, f.evaluate(field.grid())
        )
        for _ in range(20):
            s = rng.uniform(0.0, 1.0)
            t1 = s + rng.uniform(0.0, 4.0)
            t2 = t1 + rng.uniform(0.0, 4.0)
            direct = propagate(M, f, s, t2, 100)
            composed = propagate(M, helpers.initial_from_evolution(M, f, s, t1), t1, t2, 100)
            worst = max(worst, float(np.abs(direct.values - composed.values).max()))
    ok = identity_ok and worst <= 1e-12
    assert report(
        7,
        ok,
        f"start-time state reproduces the data exactly at every grid point; "
        f"composing through an intermediate time deviates by at most {worst:.2e} "
        f"(<= 1e-12) over 20 random time triples per example",
    )


def test_c8_convergence_example1():
    # Measured behavior: the worst-case subdominant eigenvalue modulus of this
    # schedule is 0.9362 (at schedule phase 0), so delta shrinks by only ~0.94
    # per unit time and delta(100) ~ 5e-4; reaching 1e-6 needs a horizon near
    # 200. The 1e-6-within-100 bound is therefore not attainable for this
    # example; the check is kept at its stated tolerance and fails honestly.
    sc = load_scenario("example1")
    trace = convergence_diagnostic(
        sc.matrix, sc.initial, sc.start_time, 1, horizon=100.0, N=400, stride=1.0
    )
    best = min(trace.deviation)
    ok = best < 1e-6
    assert report(
        8,
        ok,
        f"example1 (tau=1): min delta over horizon 100 is {best:.2e} "
        f"{'<' if ok else '>='} 1e-6",
    )


def test_c8_convergence_example2():
    sc = load_scenario("example2")
    trace = convergence_diagnostic(
        sc.matrix, sc.initial, sc.start_time, 2, horizon=100.0, N=400, stride=1.0
    )
    best = min(trace.deviation)
    ok = best < 1e-6
    assert report(
        8,
        ok,
        f"example2 (tau=2): min delta over horizon 100 is {best:.2e} < 1e-6",
    )


def test_c8_convergence_example2_wrong_period():
    sc = load_scenario("example2")
    trace = convergence_diagnostic(
        sc.matrix, sc.initial, sc.start_time, 1, horizon=100.0, N=400, stride=1.0
    )
    floor = min(trace.deviation)
    ok = floor > 1e-3
    assert report(
        8,
        ok,
        f"example2 with deliberately wrong tau=1: delta stays at {floor:.2e} > 1e-3 "
        f"throughout (generic initial data with distinct per-edge masses)",
    )


def test_c9_parser_suite():
    total = len(helpers.ROUND_TRIP_CASES)
    round_trips = 0
    for source in helpers.ROUND_TRIP_CASES:
        ast = parse_expr(source)
        if parse_expr(to_source(ast)) == ast:
            round_trips += 1
    positions_ok = 0
    for source, offset in helpers.MALFORMED_CASES:
        try:
            parse_expr(source)
        except ExprSyntaxError as err:
            if err.position == offset:
                positions_ok += 1
    e = parse_expr("0.25 + 0.5*cos(pi*t)^2")
    from flownet import eval_expr

    eval_ok = (
        abs(eval_expr(e, 0.0) - 0.75) <= 1e-15 and abs(eval_expr(e, 0.5) - 0.25) <= 1e-15
    )
    ok = total >= 30 and round_trips == total and positions_ok == 10 and eval_ok
    assert report(
        9,
        ok,
        f"{round_trips}/{total} round-trips (>= 30 required), {positions_ok}/10 "
        f"malformed inputs with position-correct errors, trig-weight evaluation "
        f"exact to 1e-15",
    )

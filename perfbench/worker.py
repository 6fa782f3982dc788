"""The workload process: runs passes of one workload's CLI commands in-process.

Started by run.py with BLAS pinned to one thread and src/ on the path. One
pass runs every command of the workload through flownet.cli.main, one after
the other, and checks each output against its recorded reference. The
first pass is a warm-up: it is checked and used to self-test the checker,
but not timed. Passes then repeat until --seconds have been measured.
With --trace 1 the first half of that time runs untraced passes and the
second half traced ones, so the tracing overhead is the difference of the
two medians. Prints one JSON object on its last line of stdout.

    python3 perfbench/worker.py --workload survey-wide --scenario S.json \
        --seed-class 3 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import gzip
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import checker
from tracer import COMPUTED, LAYER_METRICS, Tracer, write_spans
from workloads import BLAS_ENV, REFS_DIR, WORK_DIR, WORKLOADS

MIN_PASSES = 3


def run_command(cli, argv: list[str]) -> tuple[float, dict, int]:
    """(wall seconds, output, stdout bytes) of one in-process CLI command."""
    out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out_path is not None and os.path.exists(out_path):
        os.remove(out_path)
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # a crash is a failed command, not a benchmark error
            traceback.print_exc()
            code = "exception"
    elapsed = time.perf_counter() - start
    text = buf.getvalue()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    csv = None
    if out_path is not None and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            csv = fh.read()
    return elapsed, {"exit": code, "json": doc, "csv": csv}, len(text.encode())


def run_pass(cli, argvs):
    times, outputs, stdout_bytes = [], [], 0
    for argv in argvs:
        elapsed, output, nbytes = run_command(cli, argv)
        times.append(elapsed)
        outputs.append(output)
        stdout_bytes += nbytes
    return times, outputs, stdout_bytes


def summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples above it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def blas_threads() -> int | None:
    """Thread count the OpenBLAS bundled with numpy reports, if it is found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def blas_info() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": config.get("name"), "version": config.get("version"),
            "threads": blas_threads(),
            "threads_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark workload process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed-class", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import flownet
    import flownet.cli

    src = os.path.realpath(os.path.join("src", "flownet"))
    if os.path.dirname(os.path.realpath(flownet.__file__)) != src:
        raise SystemExit(f"imported flownet from {flownet.__file__}, expected {src}")

    with gzip.open(os.path.join(REFS_DIR, f"{workload.name}.json.gz"), "rt") as fh:
        refs = json.load(fh)[str(args.seed_class)]
    argvs = workload.argvs(args.scenario)
    attempted = failed = 0
    failures: list[str] = []

    def check(outputs) -> None:
        nonlocal attempted, failed
        for argv, ref, out in zip(argvs, refs, outputs):
            attempted += 1
            errors = checker.compare(ref, out)
            if errors:
                failed += 1
                failures.append(f"{argv[0]}: {'; '.join(errors[:3])}")

    _, outputs, _ = run_pass(flownet.cli, argvs)
    check(outputs)
    selftest_missed = checker.self_test(refs, outputs) if not failed else ["not run: warm-up pass failed"]
    del outputs

    tracer = None
    first_spans: list[list] = []
    layer_samples: list[dict] = []
    calls_seen: dict[str, int] = {}
    untraced: list[float] = []
    traced: list[float] = []
    commands: list[list[float]] = [[] for _ in argvs]
    measured = 0.0
    while True:
        if args.trace and tracer is None and len(untraced) >= MIN_PASSES and measured >= args.seconds / 2:
            tracer = Tracer()
            tracer.install()
        if tracer is not None:
            tracer.reset()
        gc.collect()
        times, outputs, stdout_bytes = run_pass(flownet.cli, argvs)
        measured += sum(times)
        check(outputs)
        del outputs
        if tracer is None:
            untraced.append(sum(times))
            for sample, t in zip(commands, times):
                sample.append(t)
        else:
            traced.append(sum(times))
            metrics, calls = tracer.layer_metrics(stdout_bytes)
            layer_samples.append(metrics)
            for name, n in calls.items():
                calls_seen[name] = calls_seen.get(name, 0) + n
            if not first_spans:
                first_spans = tracer.spans.copy()
        if measured >= args.seconds and len(traced if args.trace else untraced) >= MIN_PASSES:
            break
    if tracer is not None:
        tracer.uninstall()
        write_spans(os.path.join(WORK_DIR, f"spans-{workload.name}.csv"), first_spans)

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "selftest_missed": selftest_missed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_s": summary(untraced),
        "commands_s": {argv[0]: summary(sample) for argv, sample in zip(argvs, commands)},
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "flownet": flownet.__version__,
        },
    }
    if args.trace:
        counts_vary = sorted(
            k for k, (unit, _) in LAYER_METRICS.items()
            if unit != "s" and len({s[k] for s in layer_samples}) > 1)
        result["layers"] = {
            k: {"value": statistics.median(s[k] for s in layer_samples) if unit == "s"
                else layer_samples[0][k], "unit": unit}
            for k, (unit, _) in LAYER_METRICS.items()}
        result["layers"]["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
        result["traced_pass_s"] = summary(traced)
        result["counts_vary"] = counts_vary
        result["spans_not_called"] = [s for s in workload.spans_called if not calls_seen.get(s)]
        result["computed"] = list(COMPUTED)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

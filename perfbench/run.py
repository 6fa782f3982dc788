"""flownet benchmark: seeded CLI workloads, end-to-end metrics, traced per-layer run.

Run from the root of a checkout (it needs src/flownet there):

    python3 perfbench/run.py --workload survey-wide --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client. Each process runs one command after the
previous one has finished, and processes run one at a time, with BLAS
pinned to one thread. A run

1. generates the workload's scenario from the seed (perfbench/gen.py), or
   uses a bundled one;
2. with --trace 0, times SETUP_PROBES fresh processes that import flownet
   and load the scenario (setup_s is their median);
3. starts the workload process (perfbench/worker.py), which runs passes of
   the workload's CLI commands in-process and checks every output against
   the reference recorded by perfbench/record_refs.py.

The last stdout line is {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics pass_s (median wall time of one pass),
setup_s and peak_rss_mb; with --trace 1 the per-layer metrics of the traced
passes. The line before it holds the details: provenance, per-command
timings, failures and the checker self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import BLAS_ENV, WORK_DIR, WORKLOADS

SETUP_PROBES = 7
RUN_BUDGET_S = 170  # a run must end within 180 s


def src_digest() -> str:
    """sha256 over the paths and contents of the files under src/flownet."""
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(os.path.join("src", "flownet"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(path.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    if not os.path.isdir(".git"):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not os.path.isfile(os.path.join("src", "flownet", "__init__.py")):
        print("error: run from the root of a flownet checkout (src/flownet not found)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), **BLAS_ENV)
    py = sys.executable

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - start)

    scenario = workload.scenario_path(args.seed)
    seed_class = workload.scenario_class(args.seed)
    if workload.ring_vertices:
        subprocess.run([py, "perfbench/gen.py", "--seed", str(seed_class),
                        "--vertices", str(workload.ring_vertices), "--out", scenario],
                       env=env, check=True, timeout=remaining())

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            done = subprocess.run([py, "perfbench/setup_probe.py", scenario], env=env,
                                  check=True, capture_output=True, text=True,
                                  timeout=remaining())
            setup.append(float(done.stdout))

    done = subprocess.run(
        [py, "perfbench/worker.py", "--workload", workload.name, "--scenario", scenario,
         "--seed-class", str(seed_class), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=remaining())
    if done.returncode != 0:
        print(f"error: workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    res = json.loads(done.stdout.splitlines()[-1])

    problems = [f"checker self-test missed: {m}" for m in res["selftest_missed"]]
    if args.trace:
        problems += [f"count differs between traced passes: {k}" for k in res["counts_vary"]]
        problems += [f"no call recorded: {s}" for s in res["spans_not_called"]]
        metrics = res["layers"]
    else:
        metrics = {
            "pass_s": {"value": res["pass_s"]["median"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    provenance = dict(res["provenance"], git_sha=git_sha(), src_sha256=src_digest(),
                      nproc=nproc, seed=args.seed, seed_class=seed_class,
                      scenario=scenario, seconds=args.seconds, trace=args.trace)
    detail = {k: v for k, v in res.items() if k not in ("layers", "provenance")}
    detail.update(workload=workload.name, provenance=provenance, problems=problems,
                  failed_frac=res["failed"] / res["attempted"])
    if setup:
        detail["setup_s"] = {"n": len(setup), "median": statistics.median(setup),
                             "min": min(setup), "max": max(setup)}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0 and not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

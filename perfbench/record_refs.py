"""Record the outputs of every workload as the references runs are checked against.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark's parent commit), with nothing else changed:

    python3 perfbench/record_refs.py

Writes perfbench/refs/<workload>.json.gz, mapping each seed class to one
checker.reference() per command of a pass.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

from workloads import BLAS_ENV, REFS_DIR, SEED_CLASSES, WORK_DIR, WORKLOADS

os.environ.update(BLAS_ENV)  # before numpy is imported
sys.path.insert(0, os.path.abspath("src"))

import flownet.cli  # noqa: E402

import checker  # noqa: E402
import gen  # noqa: E402
from worker import run_pass  # noqa: E402


def main() -> int:
    os.makedirs(WORK_DIR, exist_ok=True)
    for workload in WORKLOADS.values():
        refs = {}
        for seed_class in range(SEED_CLASSES if workload.ring_vertices else 1):
            scenario = workload.scenario_path(seed_class)
            if workload.ring_vertices:
                gen.main(["--seed", str(seed_class), "--vertices",
                          str(workload.ring_vertices), "--out", scenario])
            _, outputs, _ = run_pass(flownet.cli, workload.argvs(scenario))
            if any(out["exit"] != 0 for out in outputs):
                raise SystemExit(f"{workload.name} class {seed_class}: a command failed")
            refs[str(seed_class)] = [checker.reference(out) for out in outputs]
        data = json.dumps(refs, sort_keys=True).encode()
        path = os.path.join(REFS_DIR, f"{workload.name}.json.gz")
        with open(path, "wb") as fh:
            fh.write(gzip.compress(data, mtime=0))
        print(f"{path}: {len(refs)} classes, {os.path.getsize(path)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

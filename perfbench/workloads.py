"""The benchmark's workloads: which scenario each one runs and which CLI commands.

Paths are relative to the root of the checkout, which is the working
directory of every benchmark process.
"""

from __future__ import annotations

from dataclasses import dataclass

WORK_DIR = "perfbench/.work"
REFS_DIR = "perfbench/refs"

# Set in every process that imports numpy: one BLAS thread each. On two
# cores, two threads made `period` slower (the 64 eigensolves contend).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A seed selects one of this many generated scenarios; the outputs of each
# were recorded by perfbench/record_refs.py, so every seed has a reference
# to check against.
SEED_CLASSES = 8

# Spans every CLI command opens: load, validation_summary (directly or
# through the validity gate) and the schedule sampling under it.
_COMMON_SPANS = (
    "cli.main", "scenario.load_scenario", "scenario.validation_summary",
    "expr.evaluate", "schedules.at", "schedules.at_times",
    "schedules.support_pattern", "schedules.validate_stochastic",
    "schedules.regularity_diagnostic", "graph.is_strongly_connected",
)


@dataclass(frozen=True)
class Workload:
    name: str
    # Ring vertex count for a generated scenario (perfbench/gen.py), or None
    # for the bundled scenario named in `bundled`.
    ring_vertices: int | None
    bundled: str | None
    # CLI arguments of each command of one pass, without --scenario.
    commands: tuple[tuple[str, ...], ...]
    # Traced spans that must record calls on this workload.
    spans_called: tuple[str, ...]

    def scenario_class(self, seed: int) -> int:
        return seed % SEED_CLASSES if self.ring_vertices else 0

    def scenario_path(self, seed: int) -> str:
        if self.bundled:
            return self.bundled
        return f"{WORK_DIR}/{self.name}-{self.scenario_class(seed)}.json"

    def argvs(self, scenario: str) -> list[list[str]]:
        return [list(cmd) + ["--scenario", scenario] for cmd in self.commands]


WORKLOADS = {
    w.name: w
    for w in (
        # Analysis path: expression evaluation, dense schedule stacks, three
        # support surveys, SCC / cyclic index and 64 eigensolves of 150x150;
        # evolution does no work.
        Workload(
            name="survey-wide",
            ring_vertices=50,
            bundled=None,
            commands=(("validate",), ("period",)),
            spans_called=_COMMON_SPANS + (
                "graph.cyclic_index", "spectral.peripheral_count",
                "spectral.asymptotic_period", "spectral.strictly_positive_shortcut",
            ),
        ),
        # One far-time state: k ~ 1000 binary powering over a 92 MB
        # (20000, 24, 24) stack, then a 480k-row CSV; spectral and graph idle.
        Workload(
            name="field-far",
            ring_vertices=8,
            bundled=None,
            commands=(("simulate", "--grid", "20000", "--t-end", "1000.5",
                       "--out", f"{WORK_DIR}/field-far.csv"),),
            spans_called=_COMMON_SPANS + (
                "evolution.propagate", "evolution.write_csv", "evolution.l1_norm",
            ),
        ),
        # The "how fast" question at the horizon example1 needs (about 200):
        # about 200 consecutive propagate calls at N = 1e4 and a tiny CSV.
        Workload(
            name="converge-long",
            ring_vertices=None,
            bundled="example1",
            commands=(("converge", "--grid", "10000", "--horizon", "200",
                       "--out", f"{WORK_DIR}/converge-long.csv"),),
            spans_called=_COMMON_SPANS + (
                "graph.cyclic_index", "spectral.peripheral_count",
                "spectral.asymptotic_period", "spectral.convergence_diagnostic",
                "evolution.propagate",
            ),
        ),
    )
}

"""Command-line interface: validate | simulate | period | converge.

Exit codes: 0 all checks passed, 1 validation or hypothesis failure,
2 usage or parse error, or a file the system refuses (an --out path that
cannot be written, a --scenario path that cannot be read), reported in one
`error:` line. All commands are deterministic: identical scenario and flags
produce byte-identical output.

Every command prints one JSON report (validate and period also copy it to
--out): keys sorted, indented by 2, the same bytes as
json.dumps(report, indent=2, sort_keys=True), with NaN and Infinity for
non-finite values, which are the report's to show, so numpy's floating-point
warnings are silenced while a command runs. A support pattern, held as a
spectral.PatternRows, is written as one filled byte block from its array.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import FlownetError, HypothesisError, SpectralError
from .evolution import _MAX_POINTS, l1_norm, propagate
from .scenario import Scenario, load_scenario, validation_summary
from .spectral import (
    PatternRows,
    asymptotic_period,
    convergence_diagnostic,
    default_sample_times,
    strictly_positive_shortcut,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _to_json(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for str keys.

    That call runs json's pure-Python encoder, one generator step per value;
    here a PatternRows is one byte block of "0" and its separator per entry,
    its array's bits added into the digits, decoded and cut into rows.
    """
    inner, opening, closing = indent + "  ", "[", "]"
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("report keys must be str")
        opening, closing = "{", "}"
        items = [f"{json.dumps(key)}: {_to_json(value, inner)}"
                 for key, value in sorted(obj.items())]
    elif isinstance(obj, PatternRows):
        bits, sep = obj.array, "," + inner + "  "
        cells = bytearray(("0" + sep).encode() * bits.size)
        np.frombuffer(cells, np.uint8)[::len(sep) + 1] += bits.ravel()
        text, width = cells.decode(), bits.shape[1] * (len(sep) + 1)
        items = [f"[{inner}  {text[i:i + width - len(sep)]}{inner}]"
                 for i in range(0, len(text), width)]
    elif isinstance(obj, (list, tuple)):
        items = [_to_json(value, inner) for value in obj]
    else:
        return json.dumps(obj)
    if not obj:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + indent + closing


def _emit(payload: dict, out=None) -> None:
    text = _to_json(payload)
    if out is not None:  # first, so that a path that cannot be written prints no report
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _load(args) -> Scenario:
    # the scenario's bound on N holds for both point counts a flag can set
    for flag, value in (("--grid", args.grid), ("--samples", getattr(args, "samples", None))):
        if value is not None and not 1 <= value <= _MAX_POINTS:
            raise FlownetError(f"{flag} must be between 1 and {_MAX_POINTS}, got {value}")
    if args.tol is not None and not 0 < args.tol < np.inf:  # as tolerances.stochastic
        raise FlownetError(f"--tol must be a finite number > 0, got {args.tol}")
    sc = load_scenario(args.scenario)
    if args.grid is not None:
        sc = dataclasses.replace(sc, resolution=int(args.grid))
    if args.tol is not None:
        sc = dataclasses.replace(
            sc, tolerances=dataclasses.replace(sc.tolerances, stochastic=args.tol)
        )
    return sc


def _ensure_valid(sc: Scenario, args) -> None:
    if not validation_summary(sc)["passed"] and not args.force:
        raise HypothesisError(
            "scenario failed validation (rerun the validate command for details, "
            "or pass --force to proceed anyway)"
        )


def cmd_validate(args) -> int:
    sc = _load(args)
    summary = validation_summary(sc)
    _emit(summary, args.out)
    return EXIT_OK if summary["passed"] else EXIT_FAILED


def cmd_simulate(args) -> int:
    sc = _load(args)
    _ensure_valid(sc, args)
    field = propagate(sc.matrix, sc.initial, sc.start_time, args.t_end, sc.resolution)
    field.write_csv(args.out)
    initial_field = propagate(sc.matrix, sc.initial, sc.start_time, sc.start_time, sc.resolution)
    _, mass0 = l1_norm(initial_field)
    _, mass1 = l1_norm(field)
    drift = abs(mass1 - mass0) / mass0 if mass0 else abs(mass1)
    _emit({
        "out": str(args.out),
        "rows": sc.graph.m * sc.resolution,
        "initial_mass": mass0,
        "final_mass": mass1,
        "relative_drift": drift,
        "t": args.t_end,
        "s": sc.start_time,
    })
    return EXIT_OK


def cmd_period(args) -> int:
    sc = _load(args)
    _ensure_valid(sc, args)
    report = asymptotic_period(sc.matrix, default_sample_times(sc.matrix, args.samples),
                               sc.tolerances.zero)
    shortcut = strictly_positive_shortcut(sc.matrix, report)
    payload = report.to_json()
    payload["shortcut_applicable"] = shortcut is not None
    payload["shortcut_tau"] = shortcut
    _emit(payload, args.out)
    return EXIT_OK


def cmd_converge(args) -> int:
    sc = _load(args)
    _ensure_valid(sc, args)
    if args.tau is None:
        times = default_sample_times(sc.matrix, args.samples)
        tau = asymptotic_period(sc.matrix, times, sc.tolerances.zero).tau
    else:
        tau = args.tau
    trace = convergence_diagnostic(
        sc.matrix, sc.initial, sc.start_time, tau,
        horizon=args.horizon, N=sc.resolution, stride=args.stride,
    )
    trace.write_csv(args.out)
    _emit({
        "out": str(args.out),
        "tau": tau,
        "points": len(trace.elapsed),
        "final_delta": trace.deviation[-1],
        "min_delta": min(trace.deviation),
        "fitted_rate": trace.rate,
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flownet",
        description="Simulate and analyze transport flows on directed networks "
                    "with time-periodic routing weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, gated=False, sampled=False, csv=False):
        p.add_argument("--scenario", required=True,
                       help="scenario JSON path, or a bundled name: example1 | example2 | junction")
        p.add_argument("--out", required=csv,
                       help="output CSV path" if csv else "path for a JSON copy of the report")
        p.add_argument("--grid", type=int, default=None, help="override grid resolution N (1..10**6)")
        if sampled:
            p.add_argument("--samples", type=int, default=64,
                           help="equispaced support sample times per period, 1..10**6 (default 64)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the stochasticity tolerance (a finite number > 0)")
        if gated:
            p.add_argument("--force", action="store_true",
                           help="run even if scenario validation fails")

    p = sub.add_parser("validate", help="check stochasticity, support, regularity")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("simulate", help="propagate densities and export a CSV field")
    common(p, gated=True, csv=True)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("period", help="compute the asymptotic period report")
    common(p, gated=True, sampled=True)
    p.set_defaults(fn=cmd_period)

    p = sub.add_parser("converge", help="trace the distance to the tau-shifted flow")
    common(p, gated=True, sampled=True, csv=True)
    p.add_argument("--tau", type=int, default=None,
                   help="candidate period (default: computed from the scenario)")
    p.add_argument("--horizon", type=float, default=50.0)
    p.add_argument("--stride", type=float, default=1.0)
    p.set_defaults(fn=cmd_converge)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (HypothesisError, SpectralError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILED
    except FlownetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:  # the system refused a file, a fork or a temporary file
        where = f"{err.filename}: " if err.filename is not None else ""
        print(f"error: {where}{err.strerror or err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

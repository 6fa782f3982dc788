"""Asymptotic period of the flow from cycle structure and matrix spectra.

The flow converges to a periodic regime whose period is the least common
multiple, over one period of the schedule, of the cyclic indices of the
active subnetwork G_t (edges with inflow at time t). The cyclic index is
computed combinatorially from the support pattern; the number of peripheral
eigenvalues of the sampled matrix provides an independent spectral route to
the same number, which the tests cross-check. For a flow schedule the count
is taken on the vertex transfer matrix C = H W of the factor pair M = W H
(schedules.VertexFactors): C is n' x n' where M is m x m, and it has the
same nonzero eigenvalues as M with the same multiplicities.

Support patterns are surveyed in one place, _survey_support. It evaluates
the schedule once on the sample times, as a table of the distinct
expressions, and tells patterns apart by the table rows' entries above
zero_tol; each distinct pattern is built, hashed and checked once.
validation_summary, asymptotic_period and, through the period report,
strictly_positive_shortcut all read that one survey; asymptotic_period runs
the eigensolves on the survey's table, one stack of dense matrices (C, or M
for an allocation schedule) per chunk of samples, each chunk at most
evolution._CHUNK_BYTES of matrices.

convergence_diagnostic measures how fast the flow settles: the L1 distance
delta(t) between u(t) and u(t + tau), read off the differences
e(t) = u(t + tau) - u(t) that evolution._tau_differences chains, one chain
per phase pair, holding no state beyond its chains and subtracting two
closed-form states only where a chain is headed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EvolutionError, GraphError, HypothesisError, SpectralError
from .evolution import (
    _CHUNK_BYTES, _MAX_POINTS, _MAX_SPAN, InitialData, _tau_differences, csv_file,
)
from .graph import cyclic_index
from .schedules import TimeVaryingMatrix, support_pattern


_PERIPHERAL_EPS = 1e-6


def peripheral_count(A: np.ndarray) -> int | list[int]:
    """Eigenvalues of modulus at least 1 - _PERIPHERAL_EPS, with multiplicity.

    Requires a column-stochastic matrix (unit spectral radius); for an
    irreducible one these are exactly the h-th roots of unity. A stack of
    shape (k, n, n) gives a list of k counts, those of its matrices one by
    one, from one eigensolve call; a failing check reports the first failing
    matrix of the stack.
    """
    A = np.asarray(A, dtype=float)
    col_dev = np.abs(A.sum(axis=-2) - 1.0).max(axis=-1)
    failing = ~(col_dev <= 1e-9)  # NaN too
    if failing.any():
        raise SpectralError("matrix is not column-stochastic "
                            f"(column sum off by {col_dev[failing].flat[0]:.3e})")
    counts = np.sum(np.abs(np.linalg.eigvals(A)) >= 1.0 - _PERIPHERAL_EPS, axis=-1)
    return counts.tolist()


def pattern_hash(pattern: np.ndarray) -> str:
    """Stable short hash of a 0/1 support pattern."""
    data = np.ascontiguousarray(pattern, dtype=np.int8)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


class PatternRows(list):
    """A support pattern as a report holds it: its rows as lists of int, and
    a uint8 copy of its 0/1 array as .array, which the CLI's JSON writer
    reads. A value: edits to the list do not reach .array."""

    def __init__(self, pattern: np.ndarray):
        if not (isinstance(pattern, np.ndarray) and pattern.ndim == 2 and pattern.size
                and pattern.dtype.kind in "iu" and pattern.min() >= 0 and pattern.max() <= 1):
            raise SpectralError("a support pattern is a nonempty 2-D integer array of 0 and 1")
        super().__init__(pattern.tolist())
        self.array = pattern.astype(np.uint8)


def active_subpattern(pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(active edge indices, induced subpattern) after dropping no-inflow edges.

    An edge with an all-zero row receives nothing at this time and is deleted
    from the time-t network, together with its outgoing arcs.
    """
    active = np.nonzero(pattern.sum(axis=1) > 0)[0]
    return active, pattern[np.ix_(active, active)]


@dataclass(frozen=True)
class PeriodSample:
    time: float
    pattern_hash: str
    cyclic_index: int
    peripheral_count: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PeriodReport:
    samples: tuple[PeriodSample, ...]
    tau: int
    distinct_patterns: dict[str, np.ndarray]

    def to_json(self) -> dict:
        return {
            "tau": self.tau,
            "samples": [s.to_json() for s in self.samples],
            "distinct_patterns": {
                h: PatternRows(p) for h, p in sorted(self.distinct_patterns.items())
            },
            "reducible_times": [],  # asymptotic_period raises on any
        }


def default_sample_times(M: TimeVaryingMatrix, per_period: int = 64) -> tuple[float, ...]:
    """Equispaced times over one period plus all trig quarter-period times.

    Support patterns of the restricted grammar can only change where a trig
    factor crosses a zero or an extremum, so this set sees every pattern the
    schedule can attain; the report lists the distinct patterns for audit.
    """
    times = {j / per_period for j in range(per_period)}
    times |= set(M.critical_times())
    return tuple(sorted(times))


@dataclass(frozen=True)
class _SupportSurvey:
    """Support patterns at each sample time; each distinct one checked once."""

    table: np.ndarray  # M.table(sample_times)
    hashes: tuple[str, ...]
    patterns: dict[str, np.ndarray]
    cyclic_indices: dict[str, int | None]
    reducible_times: tuple[float, ...]


def _survey_support(M: TimeVaryingMatrix, sample_times, zero_tol: float) -> _SupportSurvey:
    """Evaluate the schedule once on the sample times and check each distinct pattern.

    A time's pattern is known by its table row's entries above zero_tol: each
    distinct expression fills at least one entry and absent entries are 0, so
    rows and patterns correspond one to one. The first time a row appears,
    support_pattern builds its dense pattern. Distinct patterns keep their
    first-seen order. A pattern whose active edges are not strongly connected
    gets cyclic index None, and the time it was first seen goes into
    reducible_times.
    """
    table = M.table(sample_times)
    rows = [row.tobytes() for row in np.abs(table) > zero_tol]
    digests: dict[bytes, str] = {}
    patterns: dict[str, np.ndarray] = {}
    cyclic_indices: dict[str, int | None] = {}
    reducible = []
    for t, row in zip(sample_times, rows):
        if row in digests:
            continue
        pattern = support_pattern(M, float(t), zero_tol)
        digest = digests[row] = pattern_hash(pattern)
        patterns[digest] = pattern
        try:  # cyclic_index checks strong connectivity itself; no active edge fails it too
            cyclic_indices[digest] = cyclic_index(active_subpattern(pattern)[1])
        except GraphError:
            cyclic_indices[digest] = None
            reducible.append(t)
    hashes = tuple(digests[row] for row in rows)
    return _SupportSurvey(table, hashes, patterns, cyclic_indices, tuple(reducible))


def asymptotic_period(
    M: TimeVaryingMatrix, sample_times=None, zero_tol: float = 1e-12
) -> PeriodReport:
    """Cyclic index at each sample time and their least common multiple.

    Every sampled support pattern must be irreducible on its active edges
    (the time-t network stays strongly connected); a reducible pattern
    violates the hypothesis of the asymptotics and raises HypothesisError.
    Measure-zero degenerate patterns count toward the lcm like any other.
    """
    if sample_times is None:
        sample_times = default_sample_times(M)
    if not len(sample_times):
        raise SpectralError("sample_times must be nonempty")
    survey = _survey_support(M, sample_times, zero_tol)
    if survey.reducible_times:
        raise HypothesisError(
            f"support pattern at t={float(survey.reducible_times[0])} is reducible: the time-t "
            "network must be strongly connected for the asymptotic period to exist"
        )
    # C = H W shares M's nonzero spectrum, so it has M's peripheral count
    factors = M.vertex_factors
    n = M.dim if factors is None else factors.n
    step = max(1, _CHUNK_BYTES // (8 * n * n))
    counts = []
    for lo in range(0, len(survey.table), step):
        rows = survey.table[lo:lo + step]
        counts += peripheral_count(M.scatter(rows) if factors is None
                                   else factors.transfer(factors.weights(rows)))
    samples = tuple(
        PeriodSample(
            time=float(t),
            pattern_hash=digest,
            cyclic_index=survey.cyclic_indices[digest],
            peripheral_count=count,
        )
        for t, digest, count in zip(sample_times, survey.hashes, counts)
    )
    tau = math.lcm(*(s.cyclic_index for s in samples))
    return PeriodReport(samples=samples, tau=tau, distinct_patterns=survey.patterns)


def strictly_positive_shortcut(M: TimeVaryingMatrix, report: PeriodReport) -> int | None:
    """The period of a report whose only support pattern is the static adjacency.

    When no sampled weight ever vanishes, the support pattern never changes
    and the period equals the cycle-length gcd of the static network (on its
    edges with inflow). That index is computed here from M.adjacency, apart
    from the report's survey, so it cross-checks the report's tau. Returns
    None when the report saw any other pattern, in which case the general
    per-time formula must be used.
    """
    patterns = list(report.distinct_patterns.values())
    if len(patterns) == 1 and np.array_equal(patterns[0], M.adjacency):
        return cyclic_index(active_subpattern(M.adjacency)[1])
    return None


@dataclass(frozen=True)
class ConvergenceTrace:
    elapsed: tuple[float, ...]
    deviation: tuple[float, ...]
    rate: float | None

    def write_csv(self, path) -> None:
        with csv_file(path, "t,delta") as fh:
            fh.writelines(f"{t!r},{d!r}\r\n" for t, d in zip(self.elapsed, self.deviation))


def convergence_diagnostic(
    M: TimeVaryingMatrix,
    f: InitialData,
    s: float,
    tau: int,
    horizon: float,
    N: int = 400,
    stride: float = 1.0,
) -> ConvergenceTrace:
    """Distance between the flow and its tau-shift along an elapsed-time grid.

    delta(t) is the total integrated absolute difference between the states
    at times t and t + tau, both propagated from the same initial data. The
    asymptotics predict delta -> 0 exponentially when tau is the true period,
    at a rate set by the largest eigenvalue modulus of A(phi) below its
    peripheral ones, the maximum over phases phi: not |lambda_2|, which is 1
    for a phase of cyclic index h >= 2 (example2). That rate is not computed
    here; the fitted log-linear rate is reported as evidence, never asserted.

    For a whole tau, t and t + tau share their phases and data points, so
    e(t) = u(t + tau) - u(t) follows the one-period recurrence e(t + n) =
    A^n e(t): evolution._tau_differences gives every delta from chains of
    differences. A head subtracts two closed-form states, propagate(t + tau)
    - propagate(t); later times advance e itself, rounding relative to e, not
    to ||u||, down to the mass that the head's rounding leaves in e.
    """
    if tau < 1:
        raise HypothesisError(f"tau must be a positive whole number of periods, got {tau}")
    if not (math.isfinite(horizon) and math.isfinite(stride)):
        raise HypothesisError(f"horizon {horizon} and stride {stride} must be finite")
    if horizon < 2 * tau:
        raise HypothesisError(f"horizon {horizon} must be at least 2*tau = {2 * tau}")
    if stride <= 0:
        raise HypothesisError("stride must be positive")
    # the states run to t - s = horizon + tau (see _MAX_SPAN); the loop below must end
    if horizon + tau >= _MAX_SPAN:
        raise HypothesisError(f"horizon + tau = {horizon + tau!r} is at least 2**53: a float "
                              "no longer holds every whole number of periods")
    if (s + horizon) + stride == s + horizon:
        raise HypothesisError(f"stride {stride!r} does not advance s + horizon = {s + horizon!r}")
    if horizon / stride + 1 > _MAX_POINTS:
        raise HypothesisError(f"horizon {horizon!r} over stride {stride!r} gives more than "
                              "10**6 base times")
    base_times = []
    j = 0
    while s + j * stride <= s + horizon + 1e-12:
        base_times.append(s + j * stride)
        j += 1
    if len(set(base_times)) < len(base_times):  # s + j*stride rounds to the float grid of s
        raise HypothesisError(f"stride {stride!r} is too fine for s = {s!r}: base times coincide")

    if N < 1:
        raise EvolutionError(f"resolution must be at least 1, got {N}")
    deviation = [float(np.abs(e).sum() / N)
                 for e in _tau_differences(M, f, s, tau, base_times, N)]
    elapsed = [t - s for t in base_times]

    es, ds = np.asarray(elapsed), np.asarray(deviation)
    keep = ds > 0.0  # a log-linear fit over the positive deltas
    rate = float(np.polyfit(es[keep], np.log(ds[keep]), 1)[0]) if keep.sum() >= 2 else None
    return ConvergenceTrace(elapsed=tuple(elapsed), deviation=tuple(deviation), rate=rate)

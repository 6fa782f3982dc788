"""Edge-density states and the exact two-parameter solution operator.

Each edge is parameterized by x in [0, 1] with material flowing from 1 toward
0. A state assigns one density per edge; fields sample states on a midpoint
grid x_r = (r + 1/2)/N, which keeps sample points off the characteristic
lines x + t - s in Z where solutions of discontinuous data are ambiguous.

The solver evaluates the closed form

    u(x, t) = A^k f(x + t - s - k),   A = M((t + x) mod 1),  k = floor(x + t - s),

valid for 1-periodic column-stochastic schedules: every boundary crossing of
a characteristic happens at times congruent mod 1, so all k crossings apply
the same A and only the vector A^k f is needed. With d = t - s, the phase is
frac(x + frac(t)), k = floor(d) + floor(x + frac(d)) as an integer sum, and
xi = x + frac(d) less its floor: from exact parts of the float d, phases and
crossings keep the grid's resolution up to _MAX_SPAN = 2^53.

A flow schedule is powered through its vertices: A = W H (see
schedules.VertexFactors), so A^k f = W C^(k-1) H f with C = H W, n' x n'
for the n' <= n vertices some edge enters. Per grid point that costs the
n' x m mat-vec z = H f, then C^(k-1) z: the one or two extra mat-vecs of
points above the grid's least exponent k0 - 1, and binary powering on the
vector with bit_length(k0 - 1) - 1 squarings (n'^3) and popcount(k0 - 1)
mat-vecs (n'^2); and last u = W z, m products, as W has one entry per row.
Where t - s < 1 some points cross once and some not at all (k0 = 0):
those take W H f and these keep f. Where no point crosses more than once,
no product is taken on C and its stack is not built.

An allocation schedule has no factor pair: it takes the extra mat-vecs and
binary powering to A^k0 on A itself, bit_length(k0) - 1 squarings of m x m,
so its outputs stay bitwise those of that one path. boundary_residual
multiplies by A(t) once.

The grid is powered in chunks. The schedule table (one column per distinct
expression, N x d values) is evaluated once for the whole grid; each chunk
scatters its rows into dense stacks and takes its extra steps and its
powering there: C, its spare and W's entries (2 n'^2 + m values per
point), or A alone (m^2 values per point, its spare not counted), fill at
most _CHUNK_BYTES. k0 and the extra-step range are the whole grid's, so a point
takes the same products in whatever chunk it falls, and the values are
bitwise those of one whole-grid stack. Memory is O(N (m + d)) for the data,
the state and the table, plus one chunk's stacks. The layout is kept too: a
powered state (k0 >= 1) is Fortran-ordered, as einsum returns it, and an
unpowered one is the data's C-ordered array; l1_norm sums in layout order.

spectral.convergence_diagnostic's differences e(t) = u(t + tau) - u(t) share
work through the one-period recurrence. Two times with the same frac(t) and
frac(t - s) have bitwise the same phases, hence the same A, and data points,
and so do t + tau and t for a whole tau: e(t + n) = A^n e(t).
_tau_differences keys chains of differences on that pair of floats, with no
N-point array per time. A chain's first time is headed by two closed forms,
propagate(t + tau) - propagate(t); each later one advances the chain's e by
one pass over A's nonzeros per period (_advance), bitwise the dense mat-vec
for a finite e, on the values of M's layers at its phases, nnz(M) per grid
point. A gap of n periods costs n nnz(M) multiply-adds per point; the time
heads the chain anew when the two closed forms' powering costs less
(_power_cost at k and k + tau crossings).

A field's CSV is formatted on every CPU of the process's affinity mask: its
edges are cut into contiguous blocks, one per CPU, at most one per edge and
at most one per _BLOCK_VALUES values, and each block after the first is
formatted by a forked child into a temporary file that the parent appends
after its own block. A smaller field, or one where the mask or os.fork is
not available, is one block and forks nothing. The bytes are the same for
every cut, and no option selects it. Formatting is nearly all float repr,
which no serial rewrite shortens.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Iterator, TextIO, Union

import numpy as np

from . import expr as ex
from .errors import EvolutionError
from .schedules import TimeVaryingMatrix

# Bytes of one chunk's powering stacks, about a core's L2 cache: _evolve
# powers the grid in chunks of at least one point whose stacks fit in it.
_CHUNK_BYTES = 2 << 20
# From this t - s on, a float no longer holds every whole number of periods.
_MAX_SPAN = 2.0 ** 53
# The largest N, validation_grid, sample count and converge base-time count.
_MAX_POINTS = 10 ** 6
# Fewest values in one block of a field's CSV. Below about 2^15 values (some
# 30 ms of formatting) a fork and its temporary file cost more than the
# second block saves: on a 2-vCPU machine a 24-edge field of 24,000 values
# took as long in two blocks as in one, and 72,000 values took 0.7 times
# as long.
_BLOCK_VALUES = 1 << 15


@dataclass(frozen=True)
class ExprProfile:
    """Density profile given as an expression in the spatial variable x."""

    expr: ex.Expr

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = ex.evaluate(self.expr, np.asarray(x, dtype=float))
        return np.broadcast_to(out, np.shape(x)).astype(float)


@dataclass(frozen=True)
class PiecewiseProfile:
    """Piecewise-constant profile; right-continuous at its breakpoints.

    breaks must start at 0, end at 1, and be strictly increasing; values has
    one entry per interval.
    """

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breaks) != len(self.values) + 1:
            raise EvolutionError("piecewise profile needs len(breaks) == len(values) + 1")
        if self.breaks[0] != 0.0 or self.breaks[-1] != 1.0:
            raise EvolutionError("piecewise breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(self.breaks, self.breaks[1:])):
            raise EvolutionError("piecewise breakpoints must be strictly increasing")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(np.asarray(self.breaks[1:-1]), x, side="right")
        return np.asarray(self.values, dtype=float)[idx]


Profile = Union[ExprProfile, PiecewiseProfile]


@dataclass(frozen=True)
class InitialData:
    """One samplable density profile per edge."""

    profiles: tuple[Profile, ...]

    @property
    def m(self) -> int:
        return len(self.profiles)

    def evaluate(self, x) -> np.ndarray:
        """Values of every profile at the given positions, shape (m, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.stack([p(x) for p in self.profiles])


@dataclass(frozen=True)
class EdgeDensityField:
    """Densities sampled on the midpoint grid at one instant."""

    values: np.ndarray
    resolution: int
    time: float
    origin: float

    def grid(self) -> np.ndarray:
        return midpoints(self.resolution)

    def write_csv(self, path) -> None:
        """Rows `edge,x,value,t,s`, one per (edge, grid point), in blocks of edges.

        The parent opens the file first, so that a bad path fails before any
        fork, then forks one child per block after the first (_blocks). A
        child formats its block into a temporary file opened before the fork
        and leaves through os._exit, so it flushes no inherited buffer and
        never returns to the caller. The parent formats the first block into
        the file, waits for every child in order, and appends their files.
        A child that fails makes it raise EvolutionError with the child's
        reason.

        The fork is safe although BLAS may have started threads: the child
        only converts values with tolist, formats strings and writes a file
        no other process or thread uses, so it takes no lock another thread
        could hold. (Python 3.12 and later warn at any fork of a process with
        threads, with a DeprecationWarning, which is not shown by default.)
        """
        # One row template per grid point, joined by the edge number; %r is
        # repr, and neither the x nor the tail fields can hold a %.
        tail = f",{self.time!r},{self.origin!r}\r\n"
        template = [""] + [f",{x!r},%r{tail}" for x in self.grid().tolist()]
        cuts = _blocks(*self.values.shape)
        with csv_file(path, "edge,x,value,t,s") as fh, contextlib.ExitStack() as parts:
            children = []
            try:
                for lo, hi in zip(cuts[1:], cuts[2:]):
                    part = parts.enter_context(tempfile.TemporaryFile("w+", newline=""))
                    pid = os.fork()
                    if pid == 0:  # the child formats rows only and calls no BLAS
                        status = 2
                        try:
                            part.writelines(_field_rows(template, self.values[lo:hi], lo + 1))
                            part.flush()
                            status = 0
                        except BaseException as exc:
                            status = _leave_reason(part, exc)
                        finally:
                            os._exit(status)
                    children.append((pid, lo, hi, part))
                fh.writelines(_field_rows(template, self.values[:cuts[1]], 1))
            finally:
                codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                         for pid, *_ in children]
            fh.flush()  # the parts' bytes go to the file's buffer, after it
            for code, (_, lo, hi, part) in zip(codes, children):
                if code:
                    reason = (os.pread(part.fileno(), 1 << 12, 0).decode(errors="replace")
                              if code == 1 else f"status {code}")
                    raise EvolutionError(f"formatting the CSV rows of edges {lo + 1}..{hi} "
                                         f"failed in a child process: {reason}")
                part.seek(0)
                shutil.copyfileobj(part.buffer, fh.buffer)


def _field_rows(template: list[str], values: np.ndarray, first_edge: int) -> Iterator[str]:
    """The CSV rows of consecutive edges from first_edge, one values row each."""
    return (str(j).join(template) % tuple(row.tolist())
            for j, row in enumerate(values, start=first_edge))


def _leave_reason(part: TextIO, exc: BaseException) -> int:
    """A failed child's exit status: 1 with the text of exc in place of its
    rows, or 2 where its file refuses the text."""
    try:
        os.ftruncate(part.fileno(), 0)
        os.pwrite(part.fileno(), f"{type(exc).__name__}: {exc}".encode(errors="replace"), 0)
        return 1
    except OSError:
        return 2


def _blocks(m: int, n: int) -> list[int]:
    """Cuts 0 = c_0 <= ... <= c_b = m of m edges of n values each into b
    near-equal blocks: one per CPU of the affinity mask, at most m and at
    most m n / _BLOCK_VALUES, and one where the mask or os.fork is not
    available."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1)
    b = max(1, min(cpus, m, m * n // _BLOCK_VALUES))
    return [m * i // b for i in range(b + 1)]


@contextlib.contextmanager
def csv_file(path, header: str) -> Iterator[TextIO]:
    """The file at path, open for whole rows ending in \\r\\n after the header, as
    csv.writer would write them: fields formatted by repr need no quoting."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        yield fh


def midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _split(s: float, t: float) -> tuple[float, float, int]:
    """(frac(t), frac(t - s), floor(t - s)), exact for the float t - s."""
    if not (math.isfinite(s) and math.isfinite(t)):
        raise EvolutionError(f"start time {s} and query time {t} must be finite")
    d = t - s
    if d >= _MAX_SPAN:
        raise EvolutionError(f"t - s = {d!r} is at least 2**53: a float no longer holds "
                             "every whole number of periods")
    return t % 1.0, d % 1.0, math.floor(d)


def _characteristics(xs: np.ndarray, s: float, t: float):
    """(schedule phases, boundary crossings k, data points xi) of the closed form at xs."""
    ft, fd, kd = _split(s, t)
    z, y = xs + fd, xs + ft
    fz = np.floor(z)
    return y - np.floor(y), kd + fz.astype(np.int64), z - fz


def _evolve(M: TimeVaryingMatrix, f: InitialData, s: float, t: float, xs: np.ndarray) -> np.ndarray:
    """Exact solution values at positions xs, shape (m, len(xs))."""
    if t < s:
        raise EvolutionError(f"query time {t} precedes start time {s}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise EvolutionError("positions must lie in [0, 1]")
    if f.m != M.dim:
        raise EvolutionError(f"initial data has {f.m} edges, matrix has {M.dim}")
    phases, ks, xi = _characteristics(xs, s, t)
    out = f.evaluate(xi)
    if not ks.any():  # the start-time state: A^0 is the identity
        return out
    # k0 and the extra-step range are the whole grid's, and a powered result
    # keeps einsum's Fortran order (l1_norm sums in layout order): values and
    # layout stay bitwise those of one whole-grid stack.
    table = M.table(phases)
    k0, kmax = int(ks.min()), int(ks.max())
    result = out if k0 == 0 else np.empty(out.shape, order="F")
    factors = M.vertex_factors
    if factors is None:
        step = max(1, _CHUNK_BYTES // (8 * M.dim ** 2))
        for lo in range(0, len(xs), step):
            hi = lo + step
            result[:, lo:hi] = _power_chunk(M.scatter(table[lo:hi]), out[:, lo:hi],
                                            ks[lo:hi], k0, kmax)
        return result
    # A^k = W C^(k-1) H for the points that cross; the others (k0 = 0) keep f.
    # H u comes Fortran-ordered, as einsum returns C z, so that every mat-vec
    # on C adds in one order, also in a chunk of one point.
    crossed = ks > 0
    c0 = int(ks[crossed].min()) - 1
    n = factors.n
    step = max(1, _CHUNK_BYTES // (8 * (2 * n * n + M.dim)))
    for lo in range(0, len(xs), step):
        hi = lo + step
        w = factors.weights(table[lo:hi])
        # no point takes a product on C when none crosses twice (c0 = 0 then)
        z = _power_chunk(factors.transfer(w) if kmax > 1 else None,
                         factors.collect(out[:, lo:hi]), ks[lo:hi] - 1, c0, kmax - 1)
        u = w.T * z[factors.tails]  # W z, one entry per row
        result[:, lo:hi] = u if k0 else np.where(crossed[lo:hi], u, out[:, lo:hi])
    return result


def _power_chunk(base: np.ndarray, out: np.ndarray, ks: np.ndarray, k0: int, kmax: int):
    """A^k of one chunk's vectors out, given its stack base of A, in two stacks;
    a position with k < k0 gets A^k0."""
    # Positions above k0 (by one, or two where x + frac(t - s) rounds up to
    # 2 at x = 1) take extra mat-vecs on the whole chunk, gathering no
    # rows; then all take A^k0 by binary powering on the vector.
    for above in range(k0 + 1, kmax + 1):
        extra = ks >= above
        if extra.any():
            out[:, extra] = np.einsum("rij,jr->ir", base, out)[:, extra]
    spare = None
    while k0:
        if k0 & 1:
            out = np.einsum("rij,jr->ir", base, out)
        k0 >>= 1
        if k0:
            base, spare = np.matmul(base, base, out=spare), base
    return out


def propagate(
    M: TimeVaryingMatrix, f: InitialData, s: float, t: float, N: int
) -> EdgeDensityField:
    """Sample the exact solution at time t on the N-point midpoint grid."""
    if N < 1:
        raise EvolutionError(f"resolution must be at least 1, got {N}")
    values = _evolve(M, f, s, t, midpoints(N))
    return EdgeDensityField(values=values, resolution=N, time=float(t), origin=float(s))


def _power_cost(M: TimeVaryingMatrix, k: int) -> int:
    """Multiply-adds per grid point of the closed form's powering to k crossings:
    bit_length(k') - 1 squarings (n^3 each) and popcount(k') mat-vecs (n^2
    each), on the m x m A to k' = k or, for a flow schedule, on the n' x n' C
    to k' = k - 1."""
    factors = M.vertex_factors
    n, k = (M.dim, k) if factors is None else (factors.n, k - 1)
    return max(0, k.bit_length() - 1) * n ** 3 + k.bit_count() * n ** 2


def _layer_weights(M: TimeVaryingMatrix, phases: np.ndarray) -> list[np.ndarray]:
    """The values of each of M.layers on the phases, one (rows, N) array each."""
    table = M.table(phases).T
    return [table[j] for _, _, j in M.layers]


def _advance(M: TimeVaryingMatrix, weights: list[np.ndarray], u: np.ndarray) -> np.ndarray:
    """A u on each grid point over A's nonzeros, for the state u, shape (m, N),
    and the _layer_weights of A's phases.

    Each row adds its products in column order, as the dense
    einsum("jir,jr->ir") on A's (m, m, N) stack does from +0; the products of
    A's zeros that the einsum adds are +0 or -0 for a finite u and leave its
    sums alone. So the result is bitwise the einsum's, C-ordered like it, once
    a last + 0.0 has turned any -0 sum into the einsum's +0."""
    layers = M.layers
    out = None if layers and len(layers[0][0]) == len(u) else np.zeros(u.shape)
    for (rows, cols, _), w in zip(layers, weights):
        p = u[cols]
        p *= w
        if out is None:  # layer 0 holds every row, in order
            out = p
        elif len(rows) == len(u):
            out += p
        else:
            out[rows] += p
    out += 0.0
    return out


def _tau_differences(M: TimeVaryingMatrix, f: InitialData, s: float, tau: int,
                     times: list[float], N: int) -> Iterator[np.ndarray]:
    """e(t) = u(t + tau) - u(t) on the N-point grid at each of the
    non-decreasing times t >= s, in order, from one chain per frac(t) and
    frac(t - s) (see the module docstring). A chain's e is its own array, not to be changed, and is
    dropped after the chain's last time."""
    xs = midpoints(N)
    # Each time's chain key, which fixes its phases and data points, and its
    # crossings at grid point 0 (all points of a chain cross equally often).
    plan = [((ft, fd), kd + math.floor(xs[0] + fd))
            for ft, fd, kd in (_split(s, t) for t in times)]
    last_use = {key: i for i, (key, _) in enumerate(plan)}
    # key -> (crossings at grid point 0, e, _layer_weights of its phases)
    chains: dict[tuple[float, float], tuple] = {}
    for i, (t, (key, k)) in enumerate(zip(times, plan)):
        k0, e, weights = chains.pop(key, (None, None, None))
        # k - k0 advances over A's nonzeros, unless the two closed forms multiply
        # less: then the time heads the chain anew (a repeated time does neither)
        if k0 is None or (k - k0) * len(M.entries) > _power_cost(M, k) + _power_cost(M, k + tau):
            e = propagate(M, f, s, t + tau, N).values - propagate(M, f, s, t, N).values
        elif k > k0:
            if weights is None:
                weights = _layer_weights(M, _characteristics(xs, s, t)[0])
            for _ in range(k - k0):
                e = _advance(M, weights, e)
        if last_use[key] > i:
            chains[key] = k, e, weights
        yield e


def l1_norm(u: EdgeDensityField) -> tuple[np.ndarray, float]:
    """(per-edge masses, total mass) by midpoint quadrature of |values|."""
    masses = np.abs(u.values).sum(axis=1) / u.resolution
    return masses, float(masses.sum())


def boundary_residual(
    M: TimeVaryingMatrix, f: InitialData, s: float, t: float, eps: float
) -> float:
    """Sup-norm mismatch of the vertex coupling u(1, t) = M(t) u(0, t).

    Traces at x = 0 and x = 1 are not pointwise defined for integrable
    states, so both sides are evaluated a distance eps inside the edge along
    matched characteristics: u(1 - eps, t) against M(t) u(eps, t - 2 eps).
    Both sides then depend on the initial data at the same point and the
    residual is bounded by the schedule's modulus of continuity over eps,
    except when t - s is within eps of an integer and a data jump crosses
    the comparison (reported, not an error).
    """
    if not 0.0 < eps <= 1e-3:
        raise EvolutionError("eps must lie in (0, 1/1000]")
    if t - 2 * eps < s:
        raise EvolutionError("need t - 2*eps >= s for the matched comparison")
    left = _evolve(M, f, s, t, np.asarray([1.0 - eps]))[:, 0]
    inner = _evolve(M, f, s, t - 2 * eps, np.asarray([eps]))[:, 0]
    right = M.at(float(np.mod(t, 1.0))) @ inner
    return float(np.max(np.abs(left - right)))

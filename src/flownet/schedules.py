"""Time-varying routing matrices and their validation.

Two kinds of m x m matrix-valued schedules are assembled here:

* ``flow``: vertex-based weights; all incoming edges at a vertex feed an
  outgoing edge with the same proportion. Entry (k, l) is the weight assigned
  to outgoing edge k at the head vertex of edge l.
* ``allocation``: edge-resolved proportions; entry (k, l) is the fraction of
  traffic leaving edge l that continues on edge k, given either directly or
  as per-junction blocks that are embedded transposed into the big matrix.

Entries must be 1-periodic in time, because the solver reads the schedule at
(t + x) mod 1: TimeVaryingMatrix refuses, however it is built, a key off the
graph's support, any entry that expr.is_periodic_in_time cannot prove
1-periodic, or that has a sin/cos with more quarter-period points than the
support survey samples; it keeps the quarter-period times it found. It indexes
its nonzeros once, as (row, column, table column): table evaluates each distinct
expression once on a time grid, scatter spreads a table into dense stacks in one
assignment, and layers splits the index row by row for products over the
nonzeros. Both kinds must be column-stochastic for mass conservation:
validators check tables.

A flow schedule also factors through the vertices, as the paper's
b = phi_minus^T phi_plus does: M = W H, with H the 0/1 head incidence of the
edges and W the edge weights by tail vertex. VertexFactors holds that pair;
C = H W has the nonzero spectrum of M and A^k = W C^(k-1) H, so spectra and
powers can be taken on n' x n' matrices instead of m x m ones.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from . import expr as ex
from .errors import ExprEvalError, ScheduleError
from .graph import NetworkGraph, line_graph_adjacency

FLOW = "flow"
ALLOCATION = "allocation"

ExprLike = Union[str, ex.Expr]


def _as_expr(value: ExprLike) -> ex.Expr:
    return ex.parse_expr(value) if isinstance(value, str) else value


def _accepted_times(e: ex.Expr) -> frozenset[float]:
    """The quarter-period times of e, or a ScheduleError, naming no place, when
    e is not provably 1-periodic or has too many quarter-period points."""
    if not ex.is_periodic_in_time(e):
        raise ScheduleError(f"{ex.to_source(e)!r} is not 1-periodic in t (t only in sin/cos"
                            "(k*pi*t + c), |k| and |c|/pi < 2**49; a sum's terms all even or all odd)")
    try:
        return ex.critical_times(e)
    except ExprEvalError as err:
        raise ScheduleError(str(err)) from None


def _layers(keys, items) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(keys, items) pairs in order, split into layers in which each key occurs
    once: the first item of every key, then the second, and so on."""
    seen: dict[int, int] = {}
    layers: list[tuple[list[int], list[int]]] = []
    for key, item in zip(keys, items):
        depth = seen[key] = seen.get(key, -1) + 1
        if depth == len(layers):
            layers.append(([], []))
        layers[depth][0].append(key)
        layers[depth][1].append(item)
    return tuple((np.array(k), np.array(i)) for k, i in layers)


@dataclass(frozen=True)
class VertexFactors:
    """The factor pair of a flow schedule: M = W H, C = H W.

    Edges whose columns of M hold the same expression in each row share a
    class; in a flow schedule those are the edges entering one vertex, so the
    n' classes are the vertices some edge enters (those whose out-edges carry
    no weight fall into one class), numbered in the order of their first edge.
    H is the 0/1 incidence of edge l's head class heads[l]. W has at most one
    entry per row: edge k's weight, in the column tails[k] of its tail's
    class, filled by table column columns[k] of the schedule (-1: no entry).
    Sums over edges add them in edge order, whatever the number of points.
    """

    heads: np.ndarray
    tails: np.ndarray
    columns: np.ndarray

    @cached_property
    def n(self) -> int:
        return int(self.heads.max()) + 1

    @cached_property
    def _in_layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return _layers(self.heads.tolist(), range(self.heads.size))

    @cached_property
    def _transfer_layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        filled = np.flatnonzero(self.columns >= 0)
        return _layers((self.heads[filled] * self.n + self.tails[filled]).tolist(), filled)

    def weights(self, table: np.ndarray) -> np.ndarray:
        """W's entry of each edge on a table of the schedule, shape (len(table), m)."""
        out = np.zeros((len(table), self.columns.size))
        filled = self.columns >= 0
        out[:, filled] = table[:, self.columns[filled]]
        return out

    def collect(self, values: np.ndarray) -> np.ndarray:
        """H values, shape (n', r) for values (m, r); Fortran-ordered."""
        out = np.zeros((self.n, values.shape[1]), order="F")
        for classes, edges in self._in_layers:
            out[classes] += values[edges]
        return out

    def transfer(self, weights: np.ndarray) -> np.ndarray:
        """Stack of C = H W for a stack of W's entries, shape (len(weights), n', n'):
        C[v, w] is the sum of the weights of the edges from w to v."""
        out = np.zeros((len(weights), self.n * self.n))
        for flat, edges in self._transfer_layers:
            out[:, flat] += weights[:, edges]
        return out.reshape(len(weights), self.n, self.n)


@dataclass(frozen=True)
class TimeVaryingMatrix:
    """Square matrix of 1-periodic scalar expressions; absent entries are zero.

    ``entries`` is keyed by 1-based (row k, col l). ``adjacency`` is the 0/1
    support allowed by the underlying graph. Construction refuses the first
    key, in entry order, outside 1..dim or where adjacency is 0; then the
    first (k, l) whose entry is not 1-periodic or has a sin/cos with too many
    quarter-period points.
    """

    dim: int
    entries: Mapping[tuple[int, int], ex.Expr]
    kind: str
    adjacency: np.ndarray

    def __post_init__(self):
        columns: dict[ex.Expr, int] = {}
        cells = []
        for (k, l), e in self.entries.items():
            if not (1 <= k <= self.dim and 1 <= l <= self.dim) or self.adjacency[k - 1, l - 1] == 0:
                raise ScheduleError(f"entry ({k},{l}): edge {l} does not flow into edge {k} (support "
                                    "violation: flow only takes place on edges of the network)")
            cells.append((k - 1, l - 1, columns.setdefault(e, len(columns))))
        cells.sort()
        times: set[float] = set()
        unchecked = dict(enumerate(columns))
        for k, l, j in cells:  # each expression at its first entry, in (row, column) order
            if j in unchecked:
                try:
                    times |= _accepted_times(unchecked.pop(j))
                except ScheduleError as err:
                    raise ScheduleError(f"entry ({k + 1},{l + 1}): {err}") from None
        object.__setattr__(self, "_exprs", tuple(columns))
        object.__setattr__(self, "_nonzeros", np.array(cells, dtype=np.intp).reshape(-1, 3))
        object.__setattr__(self, "_critical_times", frozenset(times))

    @cached_property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The nonzeros as (rows, columns, table columns) layers: layer L holds
        the L-th entry, by column, of each row that has that many."""
        return tuple((rows, cells[:, 0], cells[:, 1]) for rows, cells in
                     _layers(self._nonzeros[:, 0].tolist(), self._nonzeros[:, 1:]))

    def at(self, t: float) -> np.ndarray:
        """Dense value at one time."""
        return self.at_times([t])[0]

    def table(self, ts) -> np.ndarray:
        """Column j: the j-th distinct expression, in entry order, on ts; shape (len(ts), d)."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, len(self._exprs)))
        for j, e in enumerate(self._exprs):
            out[:, j] = ex.evaluate(e, ts)
        return out

    def scatter(self, table: np.ndarray) -> np.ndarray:
        """Dense stack of a table, shape (len(table), dim, dim)."""
        out = np.zeros((len(table), self.dim, self.dim))
        rows, cols, columns = self._nonzeros.T
        out[:, rows, cols] = table[:, columns]
        return out

    def at_times(self, ts: np.ndarray) -> np.ndarray:
        """Stacked dense values, shape (len(ts), dim, dim)."""
        return self.scatter(self.table(ts))

    def critical_times(self) -> frozenset[float]:
        """Union of quarter-period times of every trig factor in any entry."""
        return self._critical_times

    @cached_property
    def vertex_factors(self) -> VertexFactors | None:
        """The factor pair of a flow schedule; None for an allocation schedule,
        or for a matrix whose row fills more than one class, which no flow
        assembly makes."""
        if self.kind != FLOW:
            return None
        column: list[list[tuple[int, int]]] = [[] for _ in range(self.dim)]
        for k, l, j in self._nonzeros.tolist():
            column[l].append((k, j))
        classes: dict[tuple, int] = {}
        heads = [classes.setdefault(tuple(sorted(c)), len(classes)) for c in column]
        row: list[set[tuple[int, int]]] = [set() for _ in range(self.dim)]
        for k, l, j in self._nonzeros.tolist():
            row[k].add((heads[l], j))
        if any(len(r) > 1 for r in row):
            return None
        tails, columns = zip(*(r.pop() if r else (0, -1) for r in row))
        return VertexFactors(np.array(heads), np.array(tails), np.array(columns))


@dataclass(frozen=True)
class JunctionAllocation:
    """Per-junction routing block: rows are incoming edges, columns outgoing.

    Row sums must equal 1 at all times (checked by validate_stochastic after
    embedding, where row sums become column sums of the network matrix).
    """

    incoming: tuple[int, ...]
    outgoing: tuple[int, ...]
    entries: tuple[tuple[ex.Expr, ...], ...]

    def __post_init__(self):
        p, q = len(self.incoming), len(self.outgoing)
        if p < 1 or q < 1:
            raise ScheduleError("junction needs at least one incoming and one outgoing edge")
        if len(self.entries) != p or any(len(row) != q for row in self.entries):
            raise ScheduleError(
                f"junction matrix must be {p}x{q} to match incoming x outgoing edges"
            )


def make_junction(incoming, outgoing, rows) -> JunctionAllocation:
    """Build a JunctionAllocation from expression strings or ASTs."""
    entries = tuple(tuple(_as_expr(v) for v in row) for row in rows)
    return JunctionAllocation(tuple(incoming), tuple(outgoing), entries)


def assemble_weighted_adjacency(
    g: NetworkGraph,
    weights: Mapping[tuple[int, int], ExprLike],
) -> TimeVaryingMatrix:
    """Build the flow-kind matrix from per-(vertex, outgoing edge) weights.

    Entry (k, l) becomes the weight of (tail(e_k), e_k) on each nonzero of the
    line graph's adjacency b, where the head of e_l is the tail of e_k.
    Weights may only be supplied on incident pairs.
    """
    parsed: dict[tuple[int, int], ex.Expr] = {}
    for (i, j), value in weights.items():
        if not (1 <= j <= g.m) or not (1 <= i <= g.n) or g.tail(j) != i:
            raise ScheduleError(
                f"weight ({i},{j}): edge {j} does not leave vertex {i}"
                if 1 <= j <= g.m and 1 <= i <= g.n
                else f"weight ({i},{j}): no such vertex/edge pair"
            )
        parsed[(i, j)] = _as_expr(value)

    b = line_graph_adjacency(g)
    entries: dict[tuple[int, int], ex.Expr] = {}
    for k, l in (np.argwhere(b) + 1).tolist():  # row-major (k, l), as Python ints
        w = parsed.get((g.tail(k), k))
        if w is not None:
            entries[(k, l)] = w
    try:
        return TimeVaryingMatrix(dim=g.m, entries=entries, kind=FLOW, adjacency=b)
    except ScheduleError:  # name the weight the user wrote, not an entry it fills
        for (i, j), w in parsed.items():
            try:
                _accepted_times(w)
            except ScheduleError as err:
                raise ScheduleError(f"weight ({i},{j}): {err}") from None
        raise


def assemble_allocation(
    adj: np.ndarray,
    entries: Mapping[tuple[int, int], ExprLike],
) -> TimeVaryingMatrix:
    """Build the allocation-kind matrix from explicit (k, l) proportions."""
    parsed = {key: _as_expr(value) for key, value in entries.items()}
    return TimeVaryingMatrix(dim=adj.shape[0], entries=parsed, kind=ALLOCATION, adjacency=adj)


def embed_junctions(adj: np.ndarray, junctions: list[JunctionAllocation]) -> TimeVaryingMatrix:
    """Assemble the network allocation matrix from junction blocks.

    Every edge must appear as "incoming" in exactly one junction (each edge
    has a single head vertex). Junction index sets must match the adjacency:
    l incoming and k outgoing at the same junction iff b[k][l] = 1. The block
    is embedded transposed: entry (k, l) of the result is junction row l,
    column k.
    """
    m = adj.shape[0]
    owner: dict[int, int] = {}
    for idx, junction in enumerate(junctions):
        for l in junction.incoming:
            if not 1 <= l <= m:
                raise ScheduleError(f"junction {idx}: incoming edge {l} outside 1..{m}")
            if l in owner:
                raise ScheduleError(
                    f"edge {l} is incoming at junctions {owner[l]} and {idx}; "
                    "each edge has exactly one head vertex"
                )
            owner[l] = idx
        for k in junction.outgoing:
            if not 1 <= k <= m:
                raise ScheduleError(f"junction {idx}: outgoing edge {k} outside 1..{m}")
    missing = [l for l in range(1, m + 1) if l not in owner]
    if missing:
        raise ScheduleError(f"edges {missing} are not incoming at any junction")

    for idx, junction in enumerate(junctions):
        out_set = set(junction.outgoing)
        for l in junction.incoming:
            followers = {k for k in range(1, m + 1) if adj[k - 1, l - 1] == 1}
            if followers != out_set:
                raise ScheduleError(
                    f"junction {idx}: outgoing set {sorted(out_set)} does not match the "
                    f"successors {sorted(followers)} of incoming edge {l}"
                )

    entries: dict[tuple[int, int], ex.Expr] = {}
    for junction in junctions:
        for row, l in enumerate(junction.incoming):
            for col, k in enumerate(junction.outgoing):
                entries[(k, l)] = junction.entries[row][col]
    return TimeVaryingMatrix(dim=m, entries=entries, kind=ALLOCATION, adjacency=adj)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    witness_time: float | None = None
    witness_index: object = None
    witness_value: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    grid: tuple[float, ...] = field(repr=False, default=())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "grid_size": len(self.grid),
        }


def validate_stochastic(M: TimeVaryingMatrix, grid, tol: float) -> ValidationReport:
    """Sample the matrix on a time grid and check nonnegativity and column sums.

    Failures are report contents, not exceptions. Column sums within tol of 1
    encode the no-absorption requirement for both matrix kinds.
    """
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise ScheduleError("validation grid is empty")
    if not tol > 0:
        raise ScheduleError("tolerance must be positive")
    table = M.table(grid)

    # the dense stack's first minimum in C order over (time, row, column), zeros included
    lows = table.min(axis=1, initial=0.0 if len(M.entries) < M.dim ** 2 else np.inf)
    g_idx = int(np.argmin(lows))
    at_g = M.scatter(table[g_idx:g_idx + 1])[0]
    k_idx, l_idx = np.unravel_index(np.argmin(at_g), at_g.shape)
    min_entry = float(at_g[k_idx, l_idx])
    neg = CheckResult(
        name="nonnegative_entries",
        passed=min_entry >= -tol,
        worst=0.0 if min_entry >= 0 else -min_entry,  # NaN stays NaN
        witness_time=grid[g_idx],
        witness_index=[int(k_idx) + 1, int(l_idx) + 1],
        witness_value=min_entry,
    )

    # from zero in (row, column) order, as a dense sum over rows adds them;
    # summed along contiguous rows of the transposed table, read through .T
    columns = np.ascontiguousarray(table.T)
    sums = np.zeros((M.dim, len(grid)))
    for _, l, j in M._nonzeros.tolist():
        sums[l] += columns[j]
    sums = sums.T
    dev = np.abs(sums - 1.0)
    g_idx, l_idx = np.unravel_index(np.argmax(dev), dev.shape)
    worst_dev = float(dev[g_idx, l_idx])
    cols = CheckResult(
        name="column_sums",
        passed=worst_dev <= tol,
        worst=worst_dev,
        witness_time=grid[g_idx],
        witness_index=int(l_idx) + 1,
        witness_value=float(sums[g_idx, l_idx]),
    )
    return ValidationReport(checks=(neg, cols), grid=grid)


def support_pattern(M: TimeVaryingMatrix, t: float, zero_tol: float = 1e-12) -> np.ndarray:
    """0/1 pattern of entries exceeding zero_tol in magnitude at time t."""
    if not zero_tol >= 0:
        raise ScheduleError("zero_tol must be nonnegative")
    return (np.abs(M.at(t)) > zero_tol).astype(np.int64)


def regularity_diagnostic(M: TimeVaryingMatrix, grid) -> float:
    """Max over entries of the discrete total variation along the grid.

    A finite, moderate value is necessary (not sufficient) evidence that the
    schedule is absolutely continuous in time. Purely diagnostic.
    """
    grid = np.asarray(sorted(float(t) for t in grid))
    if grid.size < 2:
        raise ScheduleError("regularity diagnostic needs at least two grid times")
    # one time step after another: sum would go pairwise on a one-column table
    tv = np.add.accumulate(np.abs(np.diff(M.table(grid), axis=0)), axis=0)[-1]
    return float(tv.max(initial=0.0))

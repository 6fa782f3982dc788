"""Shared fixtures-by-hand: known graphs, random generators, brute-force oracles.

The brute-force routines here are deliberately independent of the package's
algorithms (transitive closure instead of Tarjan, cycle enumeration via
networkx instead of BFS level gcd) so tests cross-check two routes.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np

from flownet import EvolutionError, InitialData, TimeVaryingMatrix, build_graph, parse_expr
from flownet import evolution
from flownet.evolution import EdgeDensityField, ExprProfile, PiecewiseProfile, _evolve, midpoints

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name: str):
    """perfbench/<name>.py as a module, imported read-only."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def assert_same_bytes(got, want, what: str = "output") -> None:
    """Fail, naming the first differing offset and about 40 characters of
    context on each side of it, unless got == want (both str or both bytes).

    A plain assert on two reports of half a megabyte lets pytest's assertion
    rewriting diff them in full, which took minutes where this takes
    milliseconds."""
    if got == want:
        return
    at = len(os.path.commonprefix([got, want]))
    lo = max(0, at - 40)
    raise AssertionError(f"{what} differs at offset {at} (lengths {len(got)} and "
                         f"{len(want)}): got {got[lo:at + 40]!r}, want {want[lo:at + 40]!r}")


EXAMPLE1_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 3)]
EXAMPLE1_WEIGHTS = {
    (1, 1): "1",
    (2, 2): "1",
    (3, 3): "1",
    (4, 4): "0.25 + 0.5*cos(pi*t)^2",
    (4, 5): "0.25 + 0.5*sin(pi*t)^2",
    (5, 6): "1",
}

EXAMPLE2_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1), (2, 1),
                  (1, 4), (4, 3), (3, 2), (2, 5), (5, 2)]
EXAMPLE2_WEIGHTS = {
    (1, 1): "cos(pi*t)^2",
    (1, 6): "sin(pi*t)^2",
    (2, 2): "0.5*cos(pi*t)^2",
    (2, 5): "0.5*sin(pi*t)^2",
    (2, 9): "0.5",
    (3, 3): "cos(pi*t)^2",
    (3, 8): "sin(pi*t)^2",
    (4, 4): "cos(pi*t)^2",
    (4, 7): "sin(pi*t)^2",
    (5, 10): "1",
}


def example1_graph():
    return build_graph(EXAMPLE1_EDGES, 5)


def example2_graph():
    return build_graph(EXAMPLE2_EDGES, 5)


def two_cycle_graph():
    return build_graph([(1, 2), (2, 1)], 2)


def cycle_graph(length: int):
    edges = [(i, i % length + 1) for i in range(1, length + 1)]
    return build_graph(edges, length)


def out_edges(g, i: int) -> list[int]:
    """Edges whose tail is vertex i, in edge order."""
    return [j for j in range(1, g.m + 1) if g.tail(j) == i]


def example1_matrix_value(t: float) -> np.ndarray:
    """The 6x6 flow matrix of the first worked example, written out directly."""
    c = math.cos(math.pi * t) ** 2
    s = math.sin(math.pi * t) ** 2
    B = np.zeros((6, 6))
    B[0, 3] = 1.0
    B[1, 0] = 1.0
    B[2, 1] = 1.0
    B[2, 5] = 1.0
    B[3, 2] = 0.25 + 0.5 * c
    B[4, 2] = 0.25 + 0.5 * s
    B[5, 4] = 1.0
    return B


def to_digraph(pattern: np.ndarray) -> nx.DiGraph:
    """Edge-node digraph of a 0/1 pattern: arc j -> i whenever pattern[i][j] = 1."""
    g = nx.DiGraph()
    m = pattern.shape[0]
    g.add_nodes_from(range(m))
    for i in range(m):
        for j in range(m):
            if pattern[i, j]:
                g.add_edge(j, i)
    return g


def closure_strongly_connected(pattern: np.ndarray) -> bool:
    """Irreducibility by brute force: every pair joined by a path of length >= 1.

    Matches the matrix notion, so a single node counts only with a self-loop.
    """
    adj = pattern.astype(bool)
    reach = adj.copy()
    for _ in range(pattern.shape[0]):
        reach = reach | (reach @ adj)
    return bool(reach.all())


def enumerated_cycle_gcd(pattern: np.ndarray) -> int:
    """gcd of all simple-cycle lengths, by exhaustive enumeration."""
    g = 0
    for cycle in nx.simple_cycles(to_digraph(pattern)):
        g = math.gcd(g, len(cycle))
    return g


def random_pattern(rng: random.Random, m: int, density: float = 0.3) -> np.ndarray:
    pattern = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            if rng.random() < density:
                pattern[i, j] = 1
    return pattern


def random_strong_graph(rng: random.Random, max_m: int = 8):
    """Strongly connected graph with at most max_m edges (spanning cycle + extras)."""
    n = rng.randint(2, min(5, max_m))
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    for _ in range(rng.randint(0, max_m - n)):
        edges.append((rng.randint(1, n), rng.randint(1, n)))
    return build_graph(edges, n)


def random_flow_weights(rng: random.Random, g) -> dict[tuple[int, int], str]:
    """Strictly positive column-stochastic vertex weights with a trig wobble."""
    weights: dict[tuple[int, int], str] = {}
    for i in range(1, g.n + 1):
        out = out_edges(g, i)
        if not out:
            continue
        if len(out) == 1:
            weights[(i, out[0])] = "1"
            continue
        raw = [rng.uniform(0.2, 1.0) for _ in out]
        total = sum(raw)
        consts = [r / total for r in raw]
        p, q = rng.sample(range(len(out)), 2)
        beta = 0.4 * min(consts[p], consts[q])
        freq = rng.randint(1, 3)
        for idx, j in enumerate(out):
            if idx == p:
                weights[(i, j)] = (
                    f"{consts[idx]!r} + {beta!r}*cos({freq}*pi*t)^2 - {beta!r}*sin({freq}*pi*t)^2"
                )
            elif idx == q:
                weights[(i, j)] = (
                    f"{consts[idx]!r} + {beta!r}*sin({freq}*pi*t)^2 - {beta!r}*cos({freq}*pi*t)^2"
                )
            else:
                weights[(i, j)] = repr(consts[idx])
    return weights


def ring_network(rng: random.Random, n: int):
    """(graph, weights) of a ring on n >= 5 vertices with 3n edges.

    Vertex i sends c_i*cos(pi*t)^2 along the forward ring i -> i+1,
    c_i*sin(pi*t)^2 along the reverse ring i -> i-1 and the constant 1 - c_i
    along the chord i -> i+2, with c_i a random multiple of 1/20.
    """
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(i % n + 1, i) for i in range(1, n + 1)]
    edges += [(i, (i + 1) % n + 1) for i in range(1, n + 1)]
    weights: dict[tuple[int, int], str] = {}
    for i in range(1, n + 1):
        c = rng.randint(6, 16) / 20
        weights[(i, i)] = f"{c!r}*cos(pi*t)^2"
        weights[(i, n + (i - 2) % n + 1)] = f"{c!r}*sin(pi*t)^2"
        weights[(i, 2 * n + i)] = repr(1 - c)
    return build_graph(edges, n), weights


def random_piecewise_initial(rng: random.Random, m: int, cells: int) -> dict:
    """Nonnegative piecewise-constant profiles with breakpoints on the cell grid."""
    initial = {}
    for j in range(1, m + 1):
        k = rng.randint(1, 4)
        cuts = sorted(rng.sample(range(1, cells), k)) if k < cells else []
        breaks = [0.0] + [c / cells for c in cuts] + [1.0]
        values = [round(rng.uniform(0.0, 3.0), 6) for _ in range(len(breaks) - 1)]
        initial[str(j)] = {"breaks": breaks, "values": values}
    return initial


def expression_initial(sources) -> InitialData:
    """One profile per edge, each an expression in x."""
    return InitialData(tuple(ExprProfile(parse_expr(s, var="x")) for s in sources))


def constant_initial(values) -> InitialData:
    """One constant profile per edge."""
    return InitialData(tuple(PiecewiseProfile((0.0, 1.0), (float(v),)) for v in values))


@dataclass(frozen=True)
class _EvolvedData(InitialData):
    """The state at time t of the flow from f at s: no per-edge profiles, and
    evaluate evolves once for all edges."""

    M: TimeVaryingMatrix
    f: InitialData
    s: float
    t: float

    @property
    def m(self) -> int:
        return self.f.m

    def evaluate(self, x) -> np.ndarray:
        return _evolve(self.M, self.f, self.s, self.t, x)


def initial_from_evolution(
    M: TimeVaryingMatrix, f: InitialData, s: float, t: float
) -> InitialData:
    """The state at time t, exactly samplable, for restarting the evolution."""
    return _EvolvedData((), M, f, s, t)


def edge_space_evolve(M: TimeVaryingMatrix, f: InitialData, s: float, t: float, xs) -> np.ndarray:
    """The closed form with every schedule powered as the m x m A, as _evolve
    was before flow schedules were powered through their vertices: the
    oracle for that path, and bitwise what allocation schedules still take."""
    if t < s:
        raise EvolutionError(f"query time {t} precedes start time {s}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise EvolutionError("positions must lie in [0, 1]")
    if f.m != M.dim:
        raise EvolutionError(f"initial data has {f.m} edges, matrix has {M.dim}")
    phases, ks, xi = evolution._characteristics(xs, s, t)
    out = f.evaluate(xi)
    if not ks.any():  # the start-time state: A^0 is the identity
        return out
    # k0 and the extra-step range are the whole grid's, and a powered result
    # keeps einsum's Fortran order (l1_norm sums in layout order): values and
    # layout stay bitwise those of one whole-grid stack.
    table = M.table(phases)
    k0, kmax = int(ks.min()), int(ks.max())
    result = out if k0 == 0 else np.empty(out.shape, order="F")
    step = max(1, evolution._CHUNK_BYTES // (8 * M.dim ** 2))
    for lo in range(0, len(xs), step):
        hi = lo + step
        result[:, lo:hi] = evolution._power_chunk(M.scatter(table[lo:hi]), out[:, lo:hi],
                                                  ks[lo:hi], k0, kmax)
    return result


def dense_advance(M: TimeVaryingMatrix, phases: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One period of a chain of differences at the grid phases as the einsum on
    A's dense (m, m, N) stack, as chains advanced before they went over A's
    nonzeros: the oracle for evolution._advance."""
    columns = np.ascontiguousarray(M.at_times(phases).transpose(2, 1, 0))
    return np.einsum("jir,jr->ir", columns, u)


def chunk_points(M: TimeVaryingMatrix) -> int:
    """Points per chunk of _evolve on M: its stacks fill at most _CHUNK_BYTES."""
    if M.vertex_factors is None:
        return max(1, evolution._CHUNK_BYTES // (8 * M.dim * M.dim))
    n = M.vertex_factors.n
    return max(1, evolution._CHUNK_BYTES // (8 * (2 * n * n + M.dim)))


def oracle_characteristics(
    M: TimeVaryingMatrix, f: InitialData, s: float, t: float, N: int, dt: float
) -> EdgeDensityField:
    """First-order upwind simulation of the transport system, for cross-checks.

    Maintains point samples on a fine midpoint grid of width dt = 1/(N*q);
    each step is an exact one-cell shift toward x = 0, and the vacated cell
    at x = 1 is refilled through the boundary coupling with the matrix taken
    at the current step time. The shift is exact, so the only error source is
    that time sampling, O(dt). Requires dt to divide both the cell width 1/N
    and the horizon t - s.
    """
    if t < s:
        raise EvolutionError(f"query time {t} precedes start time {s}")
    q = 1.0 / (N * dt)
    if abs(q - round(q)) > 1e-9 * max(1.0, q):
        raise EvolutionError(f"dt={dt} must equal 1/(N*q) for an integer q (N={N})")
    q = int(round(q))
    steps = (t - s) / dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        raise EvolutionError(f"horizon {t - s} is not an integer number of steps of dt={dt}")
    steps = int(round(steps))

    fine = N * q
    buf = f.evaluate(midpoints(fine))
    if steps:
        times = np.mod(s + dt * np.arange(steps), 1.0)
        mats = M.at_times(times)
        for j in range(steps):
            idx = j % fine
            buf[:, idx] = mats[j] @ buf[:, idx]
        order = (np.arange(fine) + steps) % fine
        buf = buf[:, order]

    if q == 1:
        coarse = buf
    elif q % 2 == 1:
        coarse = buf[:, (q - 1) // 2 :: q]
    else:
        lo = buf[:, q // 2 - 1 :: q]
        hi = buf[:, q // 2 :: q]
        coarse = 0.5 * (lo + hi)
    return EdgeDensityField(values=coarse.copy(), resolution=N, time=float(t), origin=float(s))


def random_imprimitive_stochastic(rng: random.Random, m: int):
    """(column-stochastic matrix, its 0/1 pattern) with block-cyclic structure.

    Nodes are split into d classes arranged in a cycle; arcs only go from one
    class to the next, so every cycle length is a multiple of d. Retries until
    the pattern is strongly connected (checked with networkx, independently of
    the code under test).
    """
    while True:
        d = rng.choice([1, 1, 2, 2, 3, 4])
        if d > m:
            continue
        nodes = list(range(m))
        rng.shuffle(nodes)
        classes = [nodes[i::d] for i in range(d)]
        pattern = np.zeros((m, m), dtype=np.int64)
        for g_idx in range(d):
            nxt = classes[(g_idx + 1) % d]
            for u in classes[g_idx]:
                pattern[rng.choice(nxt), u] = 1
            for v in nxt:
                pattern[v, rng.choice(classes[g_idx])] = 1
            for u in classes[g_idx]:
                for v in nxt:
                    if rng.random() < 0.3:
                        pattern[v, u] = 1
        if not nx.is_strongly_connected(to_digraph(pattern)):
            continue
        matrix = np.zeros((m, m))
        for j in range(m):
            rows = np.nonzero(pattern[:, j])[0]
            raw = np.array([rng.uniform(0.1, 1.0) for _ in rows])
            matrix[rows, j] = raw / raw.sum()
        return matrix, pattern


def set_at(doc: dict, pointer: str, value) -> dict:
    """Set the member a JSON pointer such as /tolerances/zero names, making
    missing objects on the way; returns doc."""
    *outer, key = pointer.strip("/").split("/")
    target = doc
    for part in outer:
        target = target.setdefault(part, {})
    target[key] = value
    return doc


def write_scenario(tmp_path, doc, name: str = "scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# 30 parser round-trip sources (parse -> print -> parse must be a fixed point)
ROUND_TRIP_CASES = [
    "1",
    "0.25",
    "pi",
    "t",
    "-t",
    "1 + 2",
    "1 - 2 - 3",
    "1 - (2 - 3)",
    "2*t - 1 + 0.5",
    "2 * 3 * 4",
    "2 / 3 / 4",
    "2 / (3 / 4)",
    "(1 + 2) * 3",
    "1 + 2 * 3",
    "-(1 + 2)",
    "--1",
    "2^3",
    "2^-2",
    "t^1",
    "(1 + t)^2",
    "-t^2",
    "-(t^2)",
    "(-t)^2",
    "-(1/2)",
    "sin(pi*t)",
    "cos(pi*t)^2",
    "0.25 + 0.5*cos(pi*t)^2",
    "sin(2*pi*t + 1)",
    "cos(pi*t) * sin(pi*t)",
    "1/2 + 1/3 + 1/6",
    "sin(cos(1))",
    "0.5*sin(3*pi*t)^4 - 0.125",
    "(t - 0.5)^3 + pi^2",
]

# (source, offset of the reported fault)
MALFORMED_CASES = [
    ("cos(", 4),
    ("", 0),
    ("1 +", 3),
    ("(1", 2),
    ("2 * * 3", 4),
    ("t^2.5", 2),
    ("$", 0),
    ("sin 2", 4),
    ("1..2", 2),
    (")", 0),
]


def base_flow_scenario() -> dict:
    """Minimal valid flow scenario on the two-cycle graph."""
    return {
        "graph": {"n": 2, "edges": [[1, 2], [2, 1]]},
        "mode": "flow",
        "weights": {"1,1": "1", "2,2": "1"},
        "initial": {"1": "1", "2": "0"},
        "s": 0.0,
        "N": 64,
    }

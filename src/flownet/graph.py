"""Directed network topology: incidence matrices, edge adjacency, cycle structure.

Vertices and edges are numbered from 1 in the public API. Edge j runs from its
tail vertex to its head vertex. The edge adjacency matrix ``b`` is oriented so
that ``b[i][j] = 1`` means "edge j is followed by edge i": the head of e_j is
the tail of e_i. All downstream matrix-vector products assume this orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError


@dataclass(frozen=True)
class NetworkGraph:
    """Finite directed graph with 0/1 outgoing (phi_minus) and incoming (phi_plus) incidence."""

    n: int
    m: int
    edges: tuple[tuple[int, int], ...]
    phi_minus: np.ndarray
    phi_plus: np.ndarray

    def tail(self, j: int) -> int:
        return self.edges[j - 1][0]


def build_graph(edge_list, n: int) -> NetworkGraph:
    """Build a NetworkGraph from 1-based (tail, head) pairs.

    Parallel edges and self-loops are permitted.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    edges = tuple((int(t), int(h)) for t, h in edge_list)
    if not edges:
        raise GraphError("edge list is empty")
    for j, (t, h) in enumerate(edges, start=1):
        if not (1 <= t <= n):
            raise GraphError(f"edge {j} tail vertex {t} outside 1..{n}")
        if not (1 <= h <= n):
            raise GraphError(f"edge {j} head vertex {h} outside 1..{n}")
    m = len(edges)
    phi_minus = np.zeros((n, m), dtype=np.int64)
    phi_plus = np.zeros((n, m), dtype=np.int64)
    for j, (t, h) in enumerate(edges):
        phi_minus[t - 1, j] = 1
        phi_plus[h - 1, j] = 1
    phi_minus.setflags(write=False)
    phi_plus.setflags(write=False)
    return NetworkGraph(n=n, m=m, edges=edges, phi_minus=phi_minus, phi_plus=phi_plus)


def line_graph_adjacency(g: NetworkGraph) -> np.ndarray:
    """Read-only 0/1 edge adjacency b of the line graph: the support of phi_minus^T phi_plus,
    b[k, l] = 1 where the tail of edge k is the head of edge l."""
    tails, heads = np.array(g.edges).T
    b = (tails[:, None] == heads).astype(np.int64)
    b.setflags(write=False)
    return b


def _bfs_levels(b: np.ndarray) -> np.ndarray:
    """BFS level of every edge node from node 0 along arcs j -> i (b[i][j] != 0).

    Unreached nodes keep level -1.
    """
    level = np.full(b.shape[0], -1)
    level[0] = 0
    frontier = np.array([0])
    depth = 0
    while frontier.size:
        depth += 1
        frontier = np.nonzero(b[:, frontier].any(axis=1) & (level < 0))[0]
        level[frontier] = depth
    return level


def is_strongly_connected(b: np.ndarray) -> bool:
    """True iff b is irreducible, i.e. the edge-node digraph is a single SCC.

    Checked by BFS reachability from node 0, forward along the arcs and
    backward against them: the digraph is strongly connected iff both reach
    every node. A 1x1 matrix counts as irreducible only with a self-loop
    (b = [[1]]); the zero 1x1 matrix has no cycles and is treated as
    reducible.
    """
    m = b.shape[0]
    if m <= 1:
        return m == 1 and bool(b[0, 0] != 0)
    return bool((_bfs_levels(b) >= 0).all() and (_bfs_levels(b.T) >= 0).all())


def cyclic_index(b: np.ndarray) -> int:
    """Index of imprimitivity: gcd of the lengths of all directed cycles.

    Requires an irreducible matrix. Computed from the forward BFS levels of
    the strong-connectivity check: every arc u -> v contributes
    level(u) + 1 - level(v) to the gcd, which for a strongly connected
    digraph equals the cycle-length gcd without enumerating cycles.
    """
    if not is_strongly_connected(b):
        raise GraphError("cyclic index is defined only for irreducible matrices")
    level = _bfs_levels(b)
    succ, pred = np.nonzero(b)
    return int(np.gcd.reduce(level[pred] + 1 - level[succ]))

"""Simple undirected graphs on dense integer vertices, plus seeded G(n,p).

Vertices are the integers 0..n-1. Edges are unordered pairs stored as
tuples (u, v) with u < v; no loops, no parallel edges. Adjacency is derived
from the edge set and kept symmetric by construction.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Tuple

import numpy as np

from .errors import FormatError, ParameterError
from .rng import check_seed, uniforms_at

Edge = Tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical form of the pair {u, v}."""
    if u == v:
        raise ParameterError(f"loop edge ({u},{v}) is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected graph."""

    __slots__ = ("n", "_edges", "_adj", "_sorted")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ParameterError(f"vertex count must be non-negative, got {n}")
        self.n = n
        canon = set()
        adj = [set() for _ in range(n)]
        for u, v in edges:
            e = edge(u, v)
            if not (0 <= e[0] and e[1] < n):
                raise ParameterError(f"edge {e} out of range for n={n}")
            if e in canon:
                continue
            canon.add(e)
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
        self._edges = frozenset(canon)
        self._adj = tuple(frozenset(s) for s in adj)
        self._sorted: Optional[tuple] = None

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self._edges

    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self._edges

    def neighbors(self, v: int) -> FrozenSet[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def sorted_edges(self) -> tuple:
        # cached: the graph is immutable and game loops poll this often
        if self._sorted is None:
            self._sorted = tuple(sorted(self._edges))
        return self._sorted

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self._edges)})"


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi graph: one Bernoulli draw per vertex pair.

    Pairs are visited in canonical order, (0,1), (0,2), ..., (n-2,n-1),
    i.e. ascending (i, j) with i < j, one uniform draw each, edge kept when
    the draw is strictly below p. Identical seeds give identical graphs.
    """
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"edge probability must lie in [0,1], got {p}")
    check_seed(seed)
    if n < 0:
        raise ParameterError(f"vertex count must be non-negative, got {n}")
    draws = uniforms_at(seed, n * (n - 1) // 2)
    iu, ju = np.triu_indices(n, k=1)
    keep = draws < p
    pairs = zip(iu[keep].tolist(), ju[keep].tolist())
    return Graph(n, pairs)


def degree_into(g: Graph, v: int, subset: Iterable[int]) -> int:
    """Number of neighbors of v inside the given vertex subset."""
    s = subset if isinstance(subset, (set, frozenset)) else set(subset)
    return len(g.neighbors(v) & s)


def edges_between(g: Graph, a: Iterable[int], b: Iterable[int]) -> FrozenSet[Edge]:
    """All edges of g with one endpoint in a and the other in b."""
    sa = a if isinstance(a, (set, frozenset)) else set(a)
    sb = b if isinstance(b, (set, frozenset)) else set(b)
    out = set()
    small, other_in = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    for u in small:
        for w in g.neighbors(u):
            if w in other_in and u != w:
                out.add(edge(u, w))
    return frozenset(out)


def is_spanning_connected(g: Graph, edge_subset: Iterable[Edge]) -> bool:
    """True when the subgraph on the given edges connects all n vertices."""
    subset = list(edge_subset)
    for e in subset:
        if edge(*e) not in g.edges:
            raise ParameterError(f"edge {e} is not an edge of the graph")
    if g.n <= 1:
        return True
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = g.n
    for u, v in subset:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def contains_hn(g: Graph) -> Optional[Edge]:
    """Search for a spanning pair: an edge (u, v) whose two endpoints are
    both adjacent to every other vertex.

    Equivalently the graph contains, as a spanning subgraph, the complete
    bipartite graph on {u, v} versus the rest plus the edge uv. Returns the
    lexicographically first such pair, or None.
    """
    if g.n < 3:
        raise ParameterError(f"spanning-pair search needs n >= 3, got n={g.n}")
    for u, v in g.sorted_edges():
        common = g.neighbors(u) & g.neighbors(v)
        if len(common - {u, v}) == g.n - 2:
            return (u, v)
    return None


def write_edge_list(g: Graph, path: str) -> None:
    """Write the documented edge-list format: header `n <count>`, then one
    `u v` line per edge with u < v, ascending."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n {g.n}\n")
        for u, v in g.sorted_edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str) -> Graph:
    """Read the edge-list format written by write_edge_list.

    Rejects malformed headers, out-of-range vertices, loops, duplicate
    edges and pairs not given as u < v.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty edge-list file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise FormatError(f"{path}: header must be 'n <count>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise FormatError(f"{path}: vertex count {head[1]!r} is not an integer")
    if n < 0:
        raise FormatError(f"{path}: negative vertex count {n}")
    seen = set()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"{path}: bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"{path}: bad edge line {ln!r}")
        if u == v:
            raise FormatError(f"{path}: loop edge {ln!r}")
        if not (u < v):
            raise FormatError(f"{path}: edge {ln!r} must be written 'u v' with u < v")
        if not (0 <= u and v < n):
            raise FormatError(f"{path}: edge {ln!r} out of range for n={n}")
        if (u, v) in seen:
            raise FormatError(f"{path}: duplicate edge {ln!r}")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)

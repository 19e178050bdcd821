"""Simple undirected graphs on dense integer vertices, plus seeded G(n,p).

Vertices are the integers 0..n-1. A graph stores its edges as two int64
arrays `u` and `v` with u < v, sorted by (u, v): no loops, no parallel
edges. Adjacency is a CSR structure (compressed sparse rows) built from
those arrays: `off[x]:off[x+1]` is the slice of the flat `nbr` array
holding x's neighbours, in ascending order, so it is symmetric by
construction. The build is one in-place sort of the 2m keys
endpoint * n + neighbour (each edge both ways round), a binary search
of the sorted keys for where each row starts, and one subtraction of
each row's base endpoint * n. Every adjacency question is answered
from the CSR: per vertex, the ascending row as a tuple (`row`, built on
first use and cached; "has a neighbour in c" is
`not c.isdisjoint(g.row(v))`); for all vertices at once, the neighbour
count inside a boolean vertex mask (`counts_in`, one numpy pass); the
degrees, a plain list of ints. An
edge test (`has_edge`) bisects one row. A scan of the edges in sorted
order (`edges_from`) reads the edge arrays EDGE_CHUNK edges at a time
and keeps nothing. The one whole-board view left, the sorted edge tuple
(`sorted_edges()`), is cached on first use. It holds a Python object
per edge, which the cyclic garbage collector then keeps traversing, so
the engine, `check_b` and every strategy but the greedy Breaker never
build it; that Breaker's rank order, the solver and `check_d` do.

G(n, p) boards come from one uniform per vertex pair, in canonical pair
order, kept when it is below p (the coupling of Stojakovic-Szabo 2005).
The boards of one seed are therefore nested in p. `GnpDraws` walks a
seed's stream once, in blocks of BLOCK draws, keeps the pairs below its
p_max as a row array and a column array, and cuts the board for any
p <= p_max from them; a trial-major sweep shares one GnpDraws across
every density of a trial. A drawn board's arrays go through the same
checks as `Graph(n, edges)` input, on the 1-D arrays themselves, and
become the board's edge arrays uncopied. `gen_gnp` is the one board
builder and goes through it.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from itertools import chain
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import FormatError, ParameterError
from .rng import check_seed, uniforms_at

Edge = Tuple[int, int]


def is_integer(x) -> bool:
    """Whether x is a Python or numpy integer; a bool is not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_real(x) -> bool:
    """Whether x is a real number (`numbers.Real`, numpy's included); a
    bool is not, nor is a string or None."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def edge(u: int, v: int) -> Edge:
    """Canonical form of the pair {u, v}."""
    if u == v:
        raise ParameterError(f"loop edge ({u},{v}) is not allowed")
    return (u, v) if u < v else (v, u)


def _reject_bad_pair(pairs, n: int) -> None:
    """Raise ParameterError for the first pair in `pairs` that is not an
    edge of a graph on n vertices: not a pair, a non-integer vertex, a
    loop or an out-of-range vertex. Returns when every pair is an edge."""
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ParameterError(f"edge {pair!r} is not a pair of vertices") from None
        for w in (a, b):
            if not is_integer(w):
                raise ParameterError(f"edge {pair!r} has a non-integer vertex {w!r}")
        e = edge(int(a), int(b))
        if not (0 <= e[0] and e[1] < n):
            raise ParameterError(f"edge {e} out of range for n={n}")


def _holds_bool(pairs) -> bool:
    """Whether a sequence of pairs holds a bool (Python or numpy)."""
    kinds = set(map(type, chain.from_iterable(pairs)))
    return bool in kinds or np.bool_ in kinds


def _canonical_arrays(n: int, edges) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge list as int64 arrays (u, v, u*n + v), u < v, sorted by
    (u, v) with duplicates merged. Accepts any iterable of pairs or an
    (m, 2) integer array; bad input raises ParameterError before any cast."""
    pairs = edges if isinstance(edges, (list, tuple, np.ndarray)) else list(edges)
    if len(pairs) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    try:
        arr = np.asarray(pairs)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if (
        arr is None
        or arr.ndim != 2
        or arr.shape[1] != 2
        or arr.dtype.kind not in "iu"
        or (arr is not pairs and _holds_bool(pairs))
    ):
        # mixed, ragged or non-integer input, or a bool among integers,
        # which numpy casts to an integer: check it pair by pair
        _reject_bad_pair(pairs, n)
        arr = np.array([(int(a), int(b)) for a, b in pairs], dtype=np.int64)
    return _canonical(n, arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr)


def _canonical(n: int, a: np.ndarray, b: np.ndarray, pairs) -> Tuple[np.ndarray, ...]:
    """The edges {a[k], b[k]} of int64 arrays a and b as in
    `_canonical_arrays`. Pairs already given as u < v in sorted order,
    as a G(n, p) draw gives them, are kept as they are, not copied, and a
    and b are never written. A loop or an off-board vertex raises the
    ParameterError of its first pair in `pairs`, the input read again."""
    if len(a) == 0:
        return a, b, a
    u, v = (a, b) if (a < b).all() else (np.minimum(a, b), np.maximum(a, b))
    if u.min() < 0 or v.max() >= n or (u is not a and (u == v).any()):
        _reject_bad_pair(pairs, n)
    keys = u * n + v
    if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
        keys = np.unique(keys)
        u, v = np.divmod(keys, n)
    return u, v, keys


# edges `Graph.edges_from` reads from the edge arrays at a time
EDGE_CHUNK = 64


class Graph:
    """Immutable undirected graph.

    `Graph(n, edges)` takes any iterable of vertex pairs, or an (m, 2)
    integer array, in any order and orientation; duplicates are merged.
    Loops, out-of-range and non-integer vertices raise ParameterError.
    `u`, `v`, `off` and `nbr` are read-only int64 arrays; a board cut
    from a GnpDraws may share `u` and `v` with it, which neither writes."""

    __slots__ = ("n", "u", "v", "off", "nbr", "_deg", "_rows", "_sorted")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if not is_integer(n):
            raise ParameterError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise ParameterError(f"vertex count must be non-negative, got {n}")
        n = int(n)
        self._build(n, *_canonical_arrays(n, edges))

    @classmethod
    def _of_arrays(cls, n: int, a: np.ndarray, b: np.ndarray) -> "Graph":
        """The graph on n vertices with edges {a[k], b[k]}, from int64
        arrays that pass the same checks as `Graph(n, edges)`. Canonical
        arrays become the graph's own edge arrays, read-only, uncopied."""
        g = cls.__new__(cls)
        g._build(n, *_canonical(n, a, b, zip(a, b)))
        return g

    def _build(self, n: int, u: np.ndarray, v: np.ndarray, keys: np.ndarray) -> None:
        self.n = n
        self.u, self.v = u, v
        # CSR: each edge keyed as endpoint * n + neighbour both ways round;
        # sorting the keys groups the rows, each in ascending order, row x
        # starts at the first key >= x * n, and taking that base off each
        # key of the row leaves the neighbours
        m = len(keys)
        both = np.empty(2 * m, dtype=np.int64)
        np.multiply(v, n, out=both[:m])
        both[:m] += u
        both[m:] = keys
        both.sort()
        base = np.arange(n + 1, dtype=np.int64) * n
        self.off = np.searchsorted(both, base)
        deg = np.diff(self.off)
        both -= np.repeat(base[:n], deg)
        self.nbr = both
        for a in (self.u, self.v, self.nbr, self.off):
            a.flags.writeable = False
        self._deg: List[int] = deg.tolist()
        self._rows: List[Optional[Tuple[int, ...]]] = [None] * n
        self._sorted: Optional[Tuple[Edge, ...]] = None

    def edge_count(self) -> int:
        return len(self.u)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether {u, v} is an edge, in either orientation; False for an
        off-board vertex. A loop raises ParameterError. A bisect of u's
        CSR row, which builds no whole-board view."""
        if u == v:
            raise ParameterError(f"loop edge ({u},{v}) is not allowed")
        if 0 <= u < self.n and 0 <= v < self.n:
            row = self._rows[u] or self.row(u)
            i = bisect_left(row, v)
            return i < len(row) and row[i] == v
        return False

    def row(self, v: int) -> Tuple[int, ...]:
        """v's neighbours in ascending order: its CSR row, built on first
        use and cached per vertex."""
        if not 0 <= v < self.n:
            raise ParameterError(f"vertex {v} is not on the {self.n}-vertex board")
        r = self._rows[v]
        if r is None:
            lo, hi = self.off[v : v + 2].tolist()
            r = self._rows[v] = tuple(self.nbr[lo:hi].tolist())
        return r

    def counts_in(self, mask: np.ndarray) -> np.ndarray:
        """Per vertex, how many of its neighbours lie in `mask`, a boolean
        array over the vertices: the running count of masked entries of
        the flat neighbour array, differenced at the row offsets."""
        csum = np.zeros(len(self.nbr) + 1, dtype=np.int64)
        np.cumsum(mask[self.nbr], out=csum[1:])
        return np.diff(csum[self.off])

    def degree(self, v: int) -> int:
        return self._deg[v]

    def edges_from(self, i: int = 0) -> Iterator[Edge]:
        """Edges i onwards of the sorted edge order, as (u, v) tuples,
        read from the edge arrays a slice of EDGE_CHUNK at a time."""
        u, v = self.u, self.v
        for lo in range(i, len(u), EDGE_CHUNK):
            yield from zip(u[lo : lo + EDGE_CHUNK].tolist(), v[lo : lo + EDGE_CHUNK].tolist())

    def sorted_edges(self) -> Tuple[Edge, ...]:
        if self._sorted is None:
            self._sorted = tuple(zip(self.u.tolist(), self.v.tolist()))
        return self._sorted

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.u.tobytes(), self.v.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# Draws per uniforms_at call: a block's temporaries stay in cache.
BLOCK = 1 << 16


class GnpDraws:
    """The pair draws of one G(n, p) seed, for every p up to p_max.

    Pair (i, j), i < j, is number t = i*n - i*(i+1)/2 + (j - i - 1) in
    canonical order (0,1), (0,2), ..., (n-2,n-1) and gets the uniform at
    stream position t + 1. The first `board` call walks the stream in
    blocks of BLOCK draws and keeps only the pairs whose uniform is below
    p_max, as three arrays in pair order: rows i, columns j and their
    uniforms. `board(p)` is then the kept pairs with uniform below p, the
    same comparison on the same doubles as a draw made for p alone; at
    p_max the board shares the row and column arrays. p and p_max must be
    real numbers (`numbers.Real`, not a bool), else ParameterError."""

    __slots__ = ("n", "seed", "p_max", "_rows", "_cols", "_u")

    def __init__(self, n: int, seed: int, p_max: float):
        if not (is_real(p_max) and 0.0 <= p_max <= 1.0):
            raise ParameterError(f"edge probability must be a real number in [0,1], got {p_max!r}")
        check_seed(seed)
        if not is_integer(n):
            raise ParameterError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise ParameterError(f"vertex count must be non-negative, got {n}")
        self.n = int(n)
        self.seed = seed
        self.p_max = p_max
        self._rows: Optional[np.ndarray] = None
        self._cols: Optional[np.ndarray] = None
        self._u: Optional[np.ndarray] = None

    def _draw(self) -> None:
        n = self.n
        total = n * (n - 1) // 2
        hits, us = [np.empty(0, dtype=np.int64)], [np.empty(0)]
        for lo in range(0, total, BLOCK):
            u = uniforms_at(self.seed, min(BLOCK, total - lo), lo)
            keep = np.flatnonzero(u < self.p_max)
            us.append(u[keep])
            keep += lo
            hits.append(keep)
        t, self._u = np.concatenate(hits), np.concatenate(us)
        del hits, us
        # pair (i, j) is draw number starts[i] + (j - i - 1); the hits are
        # ascending, so row i's hits start at searchsorted(t, starts[i]),
        # and each hit's column is t less its row's starts[i] - i - 1
        i = np.arange(n, dtype=np.int64)
        starts = i * n - i * (i + 1) // 2
        counts = np.diff(np.searchsorted(t, starts), append=len(t))
        self._rows = np.repeat(i, counts)
        starts -= i + 1
        t -= np.repeat(starts, counts)
        self._cols = t

    def board(self, p: float) -> Graph:
        """G(n, p) for this seed; p must not exceed p_max."""
        if not (is_real(p) and 0.0 <= p <= self.p_max):
            raise ParameterError(f"edge probability {p!r} outside [0, {self.p_max}] of these draws")
        if self._u is None:
            self._draw()
        rows, cols = self._rows, self._cols
        # at p_max every kept pair is below p: the board shares the arrays
        if p != self.p_max:
            below = self._u < p
            rows, cols = rows[below], cols[below]
        return Graph._of_arrays(self.n, rows, cols)


def gen_gnp(n: int, p: float, seed: int, draws: Optional[GnpDraws] = None) -> Graph:
    """Seeded Erdos-Renyi graph: one Bernoulli draw per vertex pair.

    Pairs are visited in canonical order, (0,1), (0,2), ..., (n-2,n-1),
    i.e. ascending (i, j) with i < j, one uniform draw each, edge kept when
    the draw is strictly below p. Identical seeds give identical graphs.
    p must be a real number in [0, 1]; a bool, a string or None raises
    ParameterError. `draws`, when given, must be the GnpDraws of this
    (n, seed) with p_max >= p; the board is cut from it instead of a
    fresh draw.
    """
    if draws is None:
        draws = GnpDraws(n, seed, p)
    elif (draws.n, draws.seed) != (n, seed):
        raise ParameterError(
            f"draws are for n={draws.n}, seed={draws.seed}, not n={n}, seed={seed}"
        )
    return draws.board(p)


def edges_between(g: Graph, a: Iterable[int], b: Iterable[int]) -> FrozenSet[Edge]:
    """All edges of g with one endpoint in a and the other in b."""
    sa = a if isinstance(a, (set, frozenset)) else set(a)
    sb = b if isinstance(b, (set, frozenset)) else set(b)
    out = set()
    small, other_in = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    for u in small:
        for w in g.row(u):
            if w in other_in:
                out.add(edge(u, w))
    return frozenset(out)


def contains_hn(g: Graph) -> Optional[Edge]:
    """Search for a spanning pair: an edge (u, v) whose two endpoints are
    both adjacent to every other vertex.

    Equivalently the graph contains, as a spanning subgraph, the complete
    bipartite graph on {u, v} versus the rest plus the edge uv. Returns the
    lexicographically first such pair, or None. Both endpoints of a
    spanning pair have degree n-1, and any two such vertices form one, so
    the first pair is the first two vertices of degree n-1.
    """
    if g.n < 3:
        raise ParameterError(f"spanning-pair search needs n >= 3, got n={g.n}")
    full = np.flatnonzero(np.diff(g.off) == g.n - 1)[:2].tolist()
    return (full[0], full[1]) if len(full) == 2 else None


def read_edge_list(path: str) -> Graph:
    """Read an edge-list file: header `n <count>`, then one `u v` line
    per edge with u < v, every number in plain decimal digits.

    Rejects non-ASCII bytes, malformed headers and numbers, out-of-range
    vertices, loops, duplicate edges and pairs not given as u < v.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise FormatError(f"{path}: edge-list file holds a non-ASCII byte") from None
    if not lines:
        raise FormatError(f"{path}: empty edge-list file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise FormatError(f"{path}: header must be 'n <count>', got {lines[0]!r}")
    # isdigit, unlike int(), refuses signs and '_' separators; the text is ASCII
    if not head[1].isdigit():
        raise FormatError(f"{path}: vertex count {head[1]!r} is not a decimal count")
    n = int(head[1])
    seen = set()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not (parts[0].isdigit() and parts[1].isdigit()):
            raise FormatError(f"{path}: bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise FormatError(f"{path}: loop edge {ln!r}")
        if not (u < v):
            raise FormatError(f"{path}: edge {ln!r} must be written 'u v' with u < v")
        if not v < n:
            raise FormatError(f"{path}: edge {ln!r} out of range for n={n}")
        if (u, v) in seen:
            raise FormatError(f"{path}: duplicate edge {ln!r}")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)

"""Breaker's vertex-isolation machinery.

Breaker picks a vertex x after Connector's first move and tries to keep x
out of Connector's territory for the whole game. The tool is a layered
"bad set" around x, built by `build_bad_set`: the first layer is x's
neighborhood, and each later layer collects the vertices that see at least
two earlier bad vertices. On sparse random graphs the layering stops fast
and enjoys strong structural properties (first layer independent, deeper
vertices seeing exactly two earlier bad vertices, outsiders seeing at most
one); `find_candidate` samples a handful of vertices and keeps the first
whose layering passes those checks against Connector's opening territory.
Each layer is one numpy count over the board's CSR arrays, and the
per-move scans read the ascending CSR rows (`Graph.row`) of the vertices
they visit, so the Breaker builds no Python object per edge of the board.
A decomposition builds its bad set (`union`) and its layer table
(`levels`) once, on first use.

During play Breaker maintains one invariant: whenever a free edge could
carry Connector from her territory onto a bad vertex (or onto x itself)
"from the wrong side", it is a violation and gets claimed immediately.
Under the structural checks at selection time at most two violations can
appear per round, which is exactly Breaker's allowance; x then stays
isolated until the board is exhausted. The rest of each move is filled
by one rule, `GameState.first_free`: first the edges near x, built only
when the move still has room, then the kept scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .engine import GameState, Move
from .errors import CapacityError, ParameterError
from .graph import Edge, Graph, edge, is_integer
from .rng import Rng


@dataclass(frozen=True)
class BadSetDecomposition:
    """Layered bad set around a vertex x.

    `layers[i-1]` holds layer i, so `r_x == len(layers)`. Layer 1 is always
    present (possibly empty, when x is isolated); later layers are
    non-empty. Layer 0 is implicitly {x}.
    """

    x: int
    layers: Tuple[FrozenSet[int], ...]

    @property
    def r_x(self) -> int:
        return len(self.layers)

    # built once on first use; a cached_property lives in the instance
    # dict, outside the dataclass fields, == and hash
    @cached_property
    def union(self) -> FrozenSet[int]:
        return frozenset().union(*self.layers)

    @cached_property
    def levels(self) -> Dict[int, int]:
        """Layer index of every bad vertex, and 0 for x."""
        out = {self.x: 0}
        for i, layer in enumerate(self.layers, start=1):
            for v in layer:
                out[v] = i
        return out


def _check_vertices(g: Graph, what: str, vertices: Iterable[int]) -> List[int]:
    """`vertices` as a list; a bool, a float or any other non-integer is
    refused with ParameterError, then the lowest vertex off the board.
    One pass sets aside what is not a Python int on the board, and only
    that is looked at again."""
    out = list(vertices)
    odd = [v for v in out if type(v) is not int or not 0 <= v < g.n]
    if odd:
        for v in odd:
            if not is_integer(v):
                raise ParameterError(f"{what} vertex {v!r} is not an integer")
        off = [v for v in odd if not 0 <= v < g.n]
        if off:
            raise ParameterError(f"{what} vertex {min(off)} out of range")
    return out


def build_bad_set(
    g: Graph, x: int, excluded: Iterable[int] = ()
) -> BadSetDecomposition:
    """Layer the bad set around x.

    Layer 1 is N(x) minus `excluded`; layer i >= 2 collects vertices not
    yet bad (and not excluded, not x) with at least two neighbors in the
    bad set so far, counted for every vertex at once over the CSR arrays.
    Building halts on the first empty later layer. The `excluded` set
    carries earlier candidates' bad sets when `find_candidate` processes
    candidates in succession; leave it empty for standalone use.
    """
    if not (is_integer(x) and 0 <= x < g.n):
        raise ParameterError(f"center {x!r} is not a vertex of the board")
    excl = frozenset(_check_vertices(g, "excluded", excluded))
    if x in excl:
        raise ParameterError(f"the center vertex {x} cannot be excluded")
    b1 = frozenset(w for w in g.row(x) if w not in excl)
    layers = [b1]
    bad = np.zeros(g.n, dtype=bool)
    bad[list(b1)] = True
    # the vertices a later layer may take: not x, not excluded, not bad
    eligible = ~bad
    eligible[x] = False
    eligible[np.fromiter(excl, dtype=np.int64, count=len(excl))] = False
    while True:
        nxt = eligible & (g.counts_in(bad) >= 2)
        if not nxt.any():
            break
        layers.append(frozenset(np.flatnonzero(nxt).tolist()))
        bad |= nxt
        eligible &= ~nxt
    return BadSetDecomposition(x=x, layers=tuple(layers))


# how many vertices find_candidate samples
CANDIDATES = 7


def find_candidate(
    g: Graph,
    m_set: Iterable[int],
    seed: int = 0,
) -> Optional[Tuple[int, BadSetDecomposition]]:
    """Sample up to CANDIDATES distinct vertices and return the first
    whose bad-set layering passes the structural checks against the
    territory `m_set`.

    Candidates are drawn uniformly without replacement from the seeded
    stream. When every candidate's neighbourhood spans an edge, clause
    B1 rejects them all, so None comes back at once, with no bad set
    built. Otherwise bad sets are built in succession, each excluding
    the earlier ones, and each checked in full. Returns None when every
    candidate fails. Graphs with fewer than CANDIDATES + 4 vertices, and
    territory vertices off the board, are refused.
    """
    from .verifier import _first_internal_edge, check_b

    if g.n < CANDIDATES + 4:
        raise CapacityError(
            f"need at least {CANDIDATES + 4} vertices to sample {CANDIDATES} candidates"
        )
    m_fixed = frozenset(_check_vertices(g, "protected", m_set))
    rng = Rng(seed)
    candidates = rng.sample(range(g.n), CANDIDATES)
    # B1 asks the first layer to be all of N(x) and to span no edge, so a
    # candidate whose N(x) spans an edge fails it whatever the earlier
    # bad sets exclude
    if all(_first_internal_edge(g, set(g.row(x))) is not None for x in candidates):
        return None
    excluded: set = set()
    for x in candidates:
        if x in excluded:
            # landed inside an earlier candidate's bad set; cannot qualify
            continue
        dec = build_bad_set(g, x, excluded)
        excluded |= dec.union
        report = check_b(g, dec, m_fixed)
        if report.all_passed():
            return (x, dec)
    return None


def q_violations(state: GameState, dec: BadSetDecomposition) -> List[Edge]:
    """Free edges that currently threaten the isolation invariant.

    A free edge vw is a violation when v sits outside Connector territory
    on some bad layer (x itself counts as layer 0), w sits inside the
    territory, and w is not on a strictly earlier layer (x included as
    layer 0). Returned in ascending edge order; each is found once, from
    its outside end v.
    """
    if dec.x in state.v_c:
        raise ParameterError(f"isolation target {dec.x} is already in Connector territory")
    levels = dec.levels
    g = state.graph
    out = []
    vc = state.v_c
    for v, lv in levels.items():
        if v in vc:
            continue
        for w in g.row(v):
            if w not in vc:
                continue
            e = edge(v, w)
            if not state.is_free(e):
                continue
            lw = levels.get(w)
            if lw is None or lw >= lv:
                out.append(e)
    return sorted(out)


def breaker_move(
    state: GameState, dec: BadSetDecomposition, edges: Optional[Iterator[Edge]] = None
) -> Move:
    """Breaker's move: claim every current violation, then fill the
    allowance by one rule, `GameState.first_free`, over two ordered
    sources in turn. The first is a generator, so it is built only when
    the move still has room: x's edges, nearest layer first (off the
    layers last), then by the other end, and after them the first
    layer's other edges, ascending. The second is what `edges` yields,
    the lowest edges overall when it is None; a per-game caller that
    keeps one `Graph.edges_from()` iterator resumes that last scan where
    the previous move left it. When the violations exceed the allowance
    the move carries a 'breaker-violation-overflow' flag and claims the
    first b of them.
    """
    g, x, b = state.graph, dec.x, state.b
    viol = q_violations(state, dec)
    flags = ("breaker-violation-overflow",) if len(viol) > b else ()
    picked = viol[:b]

    def near_x() -> Iterator[Edge]:
        levels, far = dec.levels, g.n + 1
        for _, w in sorted((levels.get(w, far), w) for w in g.row(x)):
            yield edge(x, w)
        # reached only once every edge at x is passed (taken, claimed
        # or a violation), so the first layer's edges skip x
        yield from sorted({edge(v, w) for v in dec.layers[0] for w in g.row(v) if w != x})

    for source in (near_x(), edges):
        picked += state.first_free(b - len(picked), source, picked)
    return Move(tuple(picked), flags=flags)

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

During play Breaker maintains one invariant: whenever a free edge could
carry Connector from her territory onto a bad vertex (or onto x itself)
"from the wrong side", it is a violation and gets claimed immediately.
Under the structural checks at selection time at most two violations can
appear per round, which is exactly Breaker's allowance; x then stays
isolated until the board is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .engine import BREAKER, GameState, Move
from .errors import CapacityError, ParameterError
from .graph import Edge, Graph, edge
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

    @property
    def union(self) -> FrozenSet[int]:
        return frozenset().union(*self.layers) if self.layers else frozenset()

    def level_map(self) -> Dict[int, int]:
        """Layer index of every bad vertex, and 0 for x."""
        out = {self.x: 0}
        for i, layer in enumerate(self.layers, start=1):
            for v in layer:
                out[v] = i
        return out


def build_bad_set(
    g: Graph, x: int, excluded: Iterable[int] = ()
) -> BadSetDecomposition:
    """Layer the bad set around x.

    Layer 1 is N(x) minus `excluded`; layer i >= 2 collects vertices not
    yet bad (and not excluded, not x) with at least two neighbors in the
    bad set so far. Building halts on the first empty later layer. The
    `excluded` set carries earlier candidates' bad sets when candidates are
    processed in succession; leave it empty for standalone use.
    """
    if not (0 <= x < g.n):
        raise ParameterError(f"vertex {x} out of range")
    excl = frozenset(excluded)
    if x in excl:
        raise ParameterError(f"the center vertex {x} cannot be excluded")
    off = [v for v in excl if not 0 <= v < g.n]
    if off:
        raise ParameterError(f"excluded vertex {min(off)} out of range")
    b1 = frozenset(g.neighbors(x) - excl)
    layers = [b1]
    union = set(b1)
    while True:
        nxt = set()
        for v in range(g.n):
            if v == x or v in union or v in excl:
                continue
            cnt = 0
            for w in g.neighbors(v):
                if w in union:
                    cnt += 1
                    if cnt == 2:
                        break
            if cnt >= 2:
                nxt.add(v)
        if not nxt:
            break
        layers.append(frozenset(nxt))
        union |= nxt
    return BadSetDecomposition(x=x, layers=tuple(layers))


@dataclass(frozen=True)
class SuccessiveBadSets:
    """Bad sets for a sequence of candidate vertices, built in order with
    each build excluding all earlier bad sets."""

    candidates: Tuple[int, ...]
    decomps: Tuple[BadSetDecomposition, ...]

    def union_through(self, j: int, i: int) -> FrozenSet[int]:
        """All bad vertices of candidates 1..j-1 plus layers 1..i of
        candidate j (1-based indices)."""
        if not (1 <= j <= len(self.decomps)):
            raise ParameterError(f"candidate index {j} out of range")
        dec = self.decomps[j - 1]
        if not (0 <= i <= dec.r_x):
            raise ParameterError(f"layer index {i} out of range for candidate {j}")
        acc = set()
        for d in self.decomps[: j - 1]:
            acc |= d.union
        for layer in dec.layers[:i]:
            acc |= layer
        return frozenset(acc)


def build_successive(g: Graph, candidates: Sequence[int]) -> SuccessiveBadSets:
    decomps = []
    excluded: set = set()
    for x in candidates:
        dec = build_bad_set(g, x, excluded)
        decomps.append(dec)
        excluded |= dec.union
    return SuccessiveBadSets(tuple(candidates), tuple(decomps))


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
    stream; bad sets are built in succession, each excluding the earlier
    ones. Returns None when every candidate fails. Graphs with fewer than
    CANDIDATES + 4 vertices are refused.
    """
    from .verifier import check_b

    if g.n < CANDIDATES + 4:
        raise CapacityError(
            f"need at least {CANDIDATES + 4} vertices to sample {CANDIDATES} candidates"
        )
    m_fixed = frozenset(m_set)
    rng = Rng(seed)
    candidates = rng.sample(range(g.n), CANDIDATES)
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
    layer 0). Returned in ascending edge order.
    """
    if dec.x in state.v_c:
        raise ParameterError(f"isolation target {dec.x} is already in Connector territory")
    levels = dec.level_map()
    g = state.graph
    out = []
    vc = state.v_c
    for v, lv in levels.items():
        if v in vc:
            continue
        for w in g.neighbors(v):
            if w not in vc:
                continue
            e = edge(v, w)
            if not state.is_free(e):
                continue
            lw = levels.get(w)
            if lw is None or lw >= lv:
                out.append(e)
    return sorted(set(out))


def breaker_move(
    state: GameState, dec: BadSetDecomposition, cursor: Optional[List[int]] = None
) -> Move:
    """Breaker's move: claim every current violation, then pad the
    allowance with fillers.

    Fillers prefer free edges at x (nearest layer first), then free edges
    at the first layer, then the lowest free edges overall. When the
    violations exceed the allowance the move carries a
    'breaker-violation-overflow' flag and claims the first b of them.
    `cursor` is the optional scan cursor of `GameState.lowest_free`,
    letting a per-game caller amortize the final filler scan.
    """
    viol = q_violations(state, dec)
    b = state.b
    flags: Tuple[str, ...] = ()
    if len(viol) > b:
        flags = ("breaker-violation-overflow",)
    picked = list(viol[:b])
    chosen = set(picked)
    levels = dec.level_map()

    far = state.graph.n + 1
    if len(picked) < b:
        x_edges = []
        for w in state.graph.neighbors(dec.x):
            e = edge(dec.x, w)
            if e not in chosen and state.is_free(e):
                lw = levels.get(w)
                x_edges.append((lw if lw is not None else far, w, e))
        for _, _, e in sorted(x_edges):
            if len(picked) >= b:
                break
            picked.append(e)
            chosen.add(e)

    if len(picked) < b and dec.layers:
        b1_edges = set()
        for v in dec.layers[0]:
            for w in state.graph.neighbors(v):
                e = edge(v, w)
                if e not in chosen and state.is_free(e):
                    b1_edges.add(e)
        for e in sorted(b1_edges):
            if len(picked) >= b:
                break
            picked.append(e)
            chosen.add(e)

    picked += state.lowest_free(b - len(picked), cursor, chosen)

    return Move(tuple(picked), flags=flags)

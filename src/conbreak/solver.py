"""Exact game values for tiny boards.

Exhaustive memoized minimax over the full move space of the biased
connectivity game, partial moves included. A move of up to k edges is
explored edge by edge with a remaining-claims counter plus an explicit
"stop here" branch, which enumerates exactly the legal partial moves while
letting the memo table collapse permutations of the same claim set.

States are keyed by the claimed-edge bitmaps, the player to move, the
remaining claims in the current move, and whether the previous move was
empty. The stand-off rule matches the engine: two consecutive empty moves
end the game, and a game that ends without Connector reaching her goal is
a Breaker win.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .engine import BREAKER, CONNECTOR, GameState, Move
from .errors import CapacityError, ParameterError
from .graph import Graph

Goal = Union[str, Tuple[str, int]]

GOAL_SPANNING = "spanning"
GOAL_REACH = "reach"

# largest board, in edges, the exhaustive search takes on
MAX_EDGES = 16


def _parse_goal(goal: Goal, n: int) -> Tuple[str, int]:
    if goal == GOAL_SPANNING:
        return (GOAL_SPANNING, -1)
    if isinstance(goal, tuple) and len(goal) == 2 and goal[0] == GOAL_REACH:
        x = goal[1]
        if not (0 <= x < n):
            raise ParameterError(f"goal vertex {x} out of range")
        return (GOAL_REACH, x)
    raise ParameterError(f"goal must be 'spanning' or ('reach', x), got {goal!r}")


class _Search:
    """Memoized game-tree search on one board with fixed biases and goal."""

    def __init__(self, g: Graph, m: int, b: int, kind: str, x: int, depth_cap: Optional[int]):
        self.n = g.n
        self.m = m
        self.b = b
        self.kind = kind
        self.x = x
        self.depth_cap = depth_cap
        self.edges = g.sorted_edges()
        self.inc = [(1 << u) | (1 << v) for u, v in self.edges]
        self.all_e = (1 << len(self.edges)) - 1
        self.full_v = (1 << g.n) - 1
        self.memo: dict = {}

    def goal_met(self, vc: int) -> bool:
        if self.kind == GOAL_SPANNING:
            if self.n <= 1:
                return True
            return vc == self.full_v
        return bool((vc >> self.x) & 1)

    def val(self, cmask, bmask, vc, mover, left, prev_empty, depth) -> bool:
        """True when Connector wins from here with best play."""
        if self.depth_cap is not None and depth > self.depth_cap:
            raise CapacityError(f"search exceeded depth cap {self.depth_cap}")
        key = (cmask, bmask, mover, left, prev_empty)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        free = self.all_e & ~(cmask | bmask)
        fresh_bias = self.m if mover == CONNECTOR else self.b
        any_claimed = left < fresh_bias
        inc = self.inc
        if mover == CONNECTOR:
            result = False
            f = free
            while f:
                bit = f & -f
                f ^= bit
                i = bit.bit_length() - 1
                if vc and not (inc[i] & vc):
                    continue
                nvc = vc | inc[i]
                if self.goal_met(nvc):
                    result = True
                    break
                if left > 1:
                    r = self.val(cmask | bit, bmask, nvc, CONNECTOR, left - 1, prev_empty, depth + 1)
                else:
                    r = self.val(cmask | bit, bmask, nvc, BREAKER, self.b, False, depth + 1)
                if r:
                    result = True
                    break
            if not result:
                # stop early (the empty move when nothing was claimed yet)
                if not any_claimed and prev_empty:
                    result = False  # stalled game, Connector never spans
                else:
                    result = self.val(cmask, bmask, vc, BREAKER, self.b, not any_claimed, depth + 1)
        else:
            result = True
            f = free
            while f:
                bit = f & -f
                f ^= bit
                if left > 1:
                    r = self.val(cmask, bmask | bit, vc, BREAKER, left - 1, prev_empty, depth + 1)
                else:
                    r = self.val(cmask, bmask | bit, vc, CONNECTOR, self.m, False, depth + 1)
                if not r:
                    result = False
                    break
            if result:
                if not any_claimed and prev_empty:
                    result = False
                else:
                    r = self.val(cmask, bmask, vc, CONNECTOR, self.m, not any_claimed, depth + 1)
                    if not r:
                        result = False
        self.memo[key] = result
        return result


def solve_exact(
    g: Graph,
    m: int = 1,
    b: int = 1,
    first: str = CONNECTOR,
    goal: Goal = GOAL_SPANNING,
    start_vertex: Optional[int] = None,
    max_edges: int = MAX_EDGES,
    depth_cap: Optional[int] = None,
) -> str:
    """Winner under optimal play: 'C' or 'B'.

    `first` names the player who moves first. With `start_vertex` set,
    Connector territory starts at that vertex and every claim must touch
    territory; without it her first edge is unconstrained. Boards with more
    than `max_edges` edges are refused (CapacityError), as is a recursion
    deeper than `depth_cap` plies when one is given.
    """
    if m < 1 or b < 1:
        raise ParameterError(f"bias must be at least 1, got m={m} b={b}")
    if first not in (CONNECTOR, BREAKER):
        raise ParameterError(f"first mover must be 'C' or 'B', got {first!r}")
    if start_vertex is not None and not (0 <= start_vertex < g.n):
        raise ParameterError(f"start vertex {start_vertex} out of range")
    kind, x = _parse_goal(goal, g.n)
    ne = g.edge_count()
    if ne > max_edges:
        raise CapacityError(f"board has {ne} edges, guard allows {max_edges}")

    search = _Search(g, m, b, kind, x, depth_cap)
    start_vc = 0 if start_vertex is None else (1 << start_vertex)
    if search.goal_met(start_vc):
        return CONNECTOR
    start_left = m if first == CONNECTOR else b
    won = search.val(0, 0, start_vc, first, start_left, False, 0)
    return CONNECTOR if won else BREAKER


def best_move(state: GameState) -> Move:
    """An optimal move in the spanning game for the player to move in
    `state`, on boards of at most MAX_EDGES edges.

    Enumerates every legal claim sequence for the current move (all orders,
    deduplicated by claim set), evaluates each follow-up position exactly,
    and returns the first winning move in a deterministic order (largest
    claim sets first, then lexicographic). When every move loses, the first
    candidate in that order is returned so play continues naturally. The
    position is assumed not to sit on a half-finished stand-off: the
    previous move is treated as non-empty.
    """
    g = state.graph
    ne = g.edge_count()
    if ne > MAX_EDGES:
        raise CapacityError(f"board has {ne} edges, guard allows {MAX_EDGES}")
    search = _Search(g, state.m, state.b, GOAL_SPANNING, -1, None)
    index = {e: i for i, e in enumerate(search.edges)}

    cmask = 0
    for e in state.connector_edges:
        cmask |= 1 << index[e]
    bmask = 0
    for e in state.breaker_edges:
        bmask |= 1 << index[e]
    vc = 0
    for v in state.v_c:
        vc |= 1 << v

    mover = state.to_move
    is_connector = mover == CONNECTOR
    if search.goal_met(vc):
        return Move(())

    bias = state.bias(mover)
    inc = search.inc
    candidates: List[Tuple[Tuple, int, int, int]] = []
    seen = set()

    def enum(cm: int, bm: int, vcur: int, left: int, claims: Tuple) -> None:
        key = frozenset(claims)
        if key not in seen:
            seen.add(key)
            candidates.append((claims, cm, bm, vcur))
        if left == 0:
            return
        free = search.all_e & ~(cm | bm)
        f = free
        while f:
            bit = f & -f
            f ^= bit
            i = bit.bit_length() - 1
            if is_connector:
                if vcur and not (inc[i] & vcur):
                    continue
                enum(cm | bit, bm, vcur | inc[i], left - 1, claims + (search.edges[i],))
            else:
                enum(cm, bm | bit, vcur, left - 1, claims + (search.edges[i],))

    enum(cmask, bmask, vc, bias, ())
    candidates.sort(key=lambda c: (-len(c[0]), c[0]))

    for claims, cm, bm, vcur in candidates:
        if is_connector:
            if search.goal_met(vcur):
                return Move(claims)
            won = search.val(cm, bm, vcur, BREAKER, state.b, not claims, 0)
            if won:
                return Move(claims)
        else:
            won = search.val(cm, bm, vcur, CONNECTOR, state.m, not claims, 0)
            if not won:
                return Move(claims)
    return Move(candidates[0][0])

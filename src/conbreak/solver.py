"""Exact game values for tiny boards.

Exhaustive memoized minimax over the full move space of the biased
connectivity game, partial moves included. A move of up to k edges is
explored edge by edge with a remaining-claims counter plus an explicit
"stop here" branch, which enumerates exactly the legal partial moves while
letting the memo table collapse permutations of the same claim set.

States are keyed by the claimed-edge bitmaps, the player to move, the
remaining claims in the current move, and whether the previous move was
empty. The goal is a territory mask: Connector has won once her territory
covers it. The stand-off rule matches the engine: two consecutive empty
moves end the game, and a game that ends without Connector reaching her
goal is a Breaker win.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .engine import BREAKER, CONNECTOR, GameState, Move, check_biases
from .errors import CapacityError, ParameterError
from .graph import Graph, is_integer

Goal = Union[str, Tuple[str, int]]

GOAL_SPANNING = "spanning"
GOAL_REACH = "reach"

# largest board, in edges, the exhaustive search takes on
MAX_EDGES = 16


def check_size(g: Graph) -> None:
    """Refuse, with CapacityError, a board too large for the search."""
    if g.edge_count() > MAX_EDGES:
        raise CapacityError(f"board has {g.edge_count()} edges, the solver allows {MAX_EDGES}")


class _Search:
    """Memoized game-tree search on one board with fixed biases and goal.

    `need` is the goal as a territory mask: every vertex for the spanning
    goal (none on a board of at most one vertex, which is won at once),
    and vertex x alone for ('reach', x)."""

    def __init__(self, g: Graph, m: int, b: int, goal: Goal = GOAL_SPANNING):
        check_size(g)
        if goal == GOAL_SPANNING:
            self.need = (1 << g.n) - 1 if g.n >= 2 else 0
        elif isinstance(goal, tuple) and len(goal) == 2 and goal[0] == GOAL_REACH:
            x = goal[1]
            if not (is_integer(x) and 0 <= x < g.n):
                raise ParameterError(f"goal vertex {x} out of range")
            self.need = 1 << x
        else:
            raise ParameterError(f"goal must be 'spanning' or ('reach', x), got {goal!r}")
        self.bias = {CONNECTOR: m, BREAKER: b}
        self.edges = g.sorted_edges()
        self.index = {e: i for i, e in enumerate(self.edges)}
        self.inc = [(1 << u) | (1 << v) for u, v in self.edges]
        self.all_e = (1 << len(self.edges)) - 1
        self.memo: dict = {}

    def goal_met(self, vc: int) -> bool:
        return vc & self.need == self.need

    def val(self, cmask, bmask, vc, mover, left, prev_empty) -> bool:
        """True when Connector wins from here with best play."""
        key = (cmask, bmask, mover, left, prev_empty)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        # `win` is the value the mover plays for; the first child worth
        # it decides the node
        win = mover == CONNECTOR
        other = BREAKER if win else CONNECTOR
        fresh = self.bias[other]
        inc = self.inc
        need = self.need
        f = self.all_e & ~(cmask | bmask)
        while f:
            bit = f & -f
            f ^= bit
            if win:
                i = bit.bit_length() - 1
                if vc and not (inc[i] & vc):
                    continue
                cm, bm, nvc = cmask | bit, bmask, vc | inc[i]
                if nvc & need == need:
                    result = True
                    break
            else:
                cm, bm, nvc = cmask, bmask | bit, vc
            if left > 1:
                r = self.val(cm, bm, nvc, mover, left - 1, prev_empty)
            else:
                r = self.val(cm, bm, nvc, other, fresh, False)
            if r == win:
                result = win
                break
        else:
            # stop here: the empty move when nothing was claimed yet, and
            # a second empty move in a row stalls the game, a Breaker win
            empty = left == self.bias[mover]
            result = not (empty and prev_empty) and self.val(
                cmask, bmask, vc, other, fresh, empty
            )
        self.memo[key] = result
        return result


def solve_exact(
    g: Graph,
    m: int = 1,
    b: int = 1,
    first: str = CONNECTOR,
    goal: Goal = GOAL_SPANNING,
    start_vertex: Optional[int] = None,
) -> str:
    """Winner under optimal play: 'C' or 'B'.

    `first` names the player who moves first. With `start_vertex` set,
    Connector territory starts at that vertex and every claim must touch
    territory; without it her first edge is unconstrained. Boards with more
    than MAX_EDGES edges are refused (CapacityError).
    """
    check_biases(m, b)
    if first not in (CONNECTOR, BREAKER):
        raise ParameterError(f"first mover must be 'C' or 'B', got {first!r}")
    if start_vertex is not None and not (is_integer(start_vertex) and 0 <= start_vertex < g.n):
        raise ParameterError(f"start vertex {start_vertex} out of range")
    search = _Search(g, m, b, goal)
    start_vc = 0 if start_vertex is None else (1 << start_vertex)
    if search.goal_met(start_vc):
        return CONNECTOR
    won = search.val(0, 0, start_vc, first, search.bias[first], False)
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
    search = _Search(state.graph, state.m, state.b)
    index, edges, inc = search.index, search.edges, search.inc
    # distinct bits, so each sum is the union
    cmask = sum(1 << index[e] for e in state.connector_edges)
    bmask = sum(1 << index[e] for e in state.breaker_edges)
    vc = sum(1 << v for v in state.v_c)
    if search.goal_met(vc):
        return Move(())

    win = state.to_move == CONNECTOR
    candidates: List[Tuple[Tuple, int, int, int]] = []
    seen = set()

    def enum(cm: int, bm: int, vcur: int, left: int, claims: Tuple) -> None:
        key = frozenset(claims)
        if key not in seen:
            seen.add(key)
            candidates.append((claims, cm, bm, vcur))
        if left == 0:
            return
        f = search.all_e & ~(cm | bm)
        while f:
            bit = f & -f
            f ^= bit
            i = bit.bit_length() - 1
            if not win:
                enum(cm, bm | bit, vcur, left - 1, claims + (edges[i],))
            elif not vcur or inc[i] & vcur:
                enum(cm | bit, bm, vcur | inc[i], left - 1, claims + (edges[i],))

    enum(cmask, bmask, vc, state.bias(state.to_move), ())
    candidates.sort(key=lambda c: (-len(c[0]), c[0]))

    other = BREAKER if win else CONNECTOR
    for claims, cm, bm, vcur in candidates:
        won = (win and search.goal_met(vcur)) or search.val(
            cm, bm, vcur, other, search.bias[other], not claims
        )
        if won == win:
            return Move(claims)
    return Move(candidates[0][0])

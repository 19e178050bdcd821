"""Exact game values for tiny boards.

Exhaustive memoized minimax over full moves of the biased connectivity
game. A move is explored edge by edge with a claims-left counter, so the
memo table collapses permutations of the same claim set. A position is
keyed by (territory mask, free-edge mask, mover, claims left), and the
goal is a territory mask: Connector has won once her territory covers it.

Why this key is exact:

- Connector's legal claims and her goal depend only on her territory and
  the free edges, so her claimed edges need no place in the key.
- An extra claim never hurts the player who makes it (the monotonicity of
  Maker-Breaker-type games: Beck 2008; Hefetz, Krivelevich, Stojakovic
  and Szabo 2014), so a full move is never worse than the partial moves
  it contains, and the search explores only full moves.
- Without partial moves, a move is empty only when the mover has nothing
  to claim, and that position is a Breaker win: Connector's territory
  grows only through her own claims, so once she has no claimable edge it
  never grows again, and when Breaker has no free edge, Connector has
  none either. That one rule covers the engine's stand-off (a round of
  two empty moves ends the game) and the exhausted board.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple, Union

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
    """Memoized game-tree search over full moves on one board with fixed
    biases and goal.

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

    def val(self, vc, free, mover, left) -> bool:
        """True when Connector wins from here with best play: territory
        mask `vc`, free-edge mask `free`, and `left` claims still to make
        in `mover`'s move."""
        key = (vc, free, mover, left)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        # `win` is the value the mover plays for; the first child worth
        # it decides the node, and a node with no child is a Breaker win
        win = mover == CONNECTOR
        other = BREAKER if win else CONNECTOR
        fresh = self.bias[other]
        inc = self.inc
        need = self.need
        result = False
        f = free
        while f:
            bit = f & -f
            f ^= bit
            nvc = vc
            if win:
                i = bit.bit_length() - 1
                if vc and not (inc[i] & vc):
                    continue
                nvc = vc | inc[i]
                if nvc & need == need:
                    result = True
                    break
            if left > 1:
                result = self.val(nvc, free ^ bit, mover, left - 1)
            else:
                result = self.val(nvc, free ^ bit, other, fresh)
            if result == win:
                break
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
    won = search.val(start_vc, search.all_e, first, search.bias[first])
    return CONNECTOR if won else BREAKER


def best_move(state: GameState) -> Move:
    """An optimal move in the spanning game for the player to move in
    `state`, on boards of at most MAX_EDGES edges.

    Enumerates every legal claim sequence of up to the mover's bias (all
    orders, one per claim set), judges each follow-up position exactly,
    and returns the first winning move in a deterministic order (largest
    claim sets first, then lexicographic). When every move loses, the first
    candidate in that order is returned so play continues naturally.
    """
    search = _Search(state.graph, state.m, state.b)
    index, edges, inc = search.index, search.edges, search.inc
    # distinct bits, so the sum is the union
    free = search.all_e ^ sum(1 << index[e] for e in state.connector_edges | state.breaker_edges)
    vc = sum(1 << v for v in state.v_c)
    if search.goal_met(vc):
        return Move(())

    win = state.to_move == CONNECTOR
    # claim set -> (the first claim order found, free edges, territory)
    candidates: Dict[FrozenSet, Tuple[Tuple, int, int]] = {}

    def enum(fr: int, vcur: int, left: int, claims: Tuple) -> None:
        candidates.setdefault(frozenset(claims), (claims, fr, vcur))
        if left == 0:
            return
        f = fr
        while f:
            bit = f & -f
            f ^= bit
            i = bit.bit_length() - 1
            if win and vcur and not inc[i] & vcur:
                continue
            enum(fr ^ bit, vcur | inc[i] if win else vcur, left - 1, claims + (edges[i],))

    enum(free, vc, state.bias(state.to_move), ())
    order = sorted(candidates.values(), key=lambda c: (-len(c[0]), c[0]))

    other = BREAKER if win else CONNECTOR
    for claims, fr, vcur in order:
        won = (win and search.goal_met(vcur)) or search.val(vcur, fr, other, search.bias[other])
        if won == win:
            return Move(claims)
    return Move(order[0][0])

"""The box game: a claiming race over disjoint element pools.

BoxMaker and BoxBreaker alternate over n boxes, box i holding a_i
anonymous elements; only counts matter. BoxMaker moves first and claims up
to p elements per round, anywhere; BoxBreaker claims exactly one. BoxMaker
wins the moment she owns every element of some box; if every element is
claimed without that, BoxBreaker wins.

`boxbreaker_move_s` is the defensive rule used throughout: claim in an
untouched box that BoxMaker has loaded the most, breaking ties toward the
lowest index; once no untouched box remains, claim in the lowest-index box
with a free element. With uniform box size m and m > p * (ln n + 1) this
rule wins, and along the way an untouched box never accumulates more than
p * (ln n + 1) BoxMaker elements; `corollary_bound_holds` checks that
ceiling against a recorded trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .errors import IllegalMoveError, NoMoveError, ParameterError
from .rng import Rng

MAKER = "maker"
BREAKER = "breaker"


@dataclass
class Box:
    capacity: int
    maker: int = 0
    breaker: int = 0

    def free(self) -> int:
        return self.capacity - self.maker - self.breaker


@dataclass
class BoxState:
    """Counts-only view of a box game in progress."""

    boxes: List[Box]
    p: int
    to_move: str = MAKER

    @staticmethod
    def fresh(capacities: Sequence[int], p: int) -> "BoxState":
        if p < 1:
            raise ParameterError(f"BoxMaker bias must be at least 1, got {p}")
        if not capacities:
            raise ParameterError("box game needs at least one box")
        if any(c < 1 for c in capacities):
            raise ParameterError(f"box capacities must be positive, got {capacities}")
        return BoxState([Box(c) for c in capacities], p)

    def maker_won(self) -> bool:
        return any(b.maker == b.capacity for b in self.boxes)

    def exhausted(self) -> bool:
        return all(b.free() == 0 for b in self.boxes)


def boxbreaker_move_s(state: BoxState) -> int:
    """Index of the box the defensive rule claims in. NoMoveError when no
    box has a free element."""
    best = None
    for i, box in enumerate(state.boxes):
        if box.breaker == 0 and box.free() > 0:
            if best is None or box.maker > state.boxes[best].maker:
                best = i
    if best is not None:
        return best
    for i, box in enumerate(state.boxes):
        if box.free() > 0:
            return i
    raise NoMoveError("no box has a free element")


# A maker strategy sees the state and an rng and returns box indices, at
# most p of them, each with a free element at the moment it is claimed.
MakerStrategy = Callable[[BoxState, Rng], List[int]]


def random_maker(state: BoxState, rng: Rng) -> List[int]:
    """Uniform random free element for each of the p claims."""
    claims: List[int] = []
    extra = [0] * len(state.boxes)
    for _ in range(state.p):
        pool = []
        for i, box in enumerate(state.boxes):
            pool.extend([i] * (box.free() - extra[i]))
        if not pool:
            break
        pick = pool[rng.randrange(len(pool))]
        extra[pick] += 1
        claims.append(pick)
    return claims


@dataclass
class BoxResult:
    winner: str
    capacities: Tuple[int, ...]
    p: int
    trace: Tuple[Tuple[str, Tuple[int, ...]], ...]


def run_box_game(
    capacities: Sequence[int],
    p: int,
    maker: MakerStrategy,
    seed: int = 0,
) -> BoxResult:
    """Play BoxMaker (moving first) against the defensive rule.

    The trace records one (role, claimed box indices) entry per move.
    BoxMaker wins if and when some box is entirely hers; otherwise
    BoxBreaker wins once every element is claimed.
    """
    state = BoxState.fresh(capacities, p)
    rng = Rng(seed)
    trace: list = []
    winner = None
    while winner is None:
        claims = tuple(maker(state, rng))
        if len(claims) > p:
            raise IllegalMoveError(
                f"BoxMaker claimed {len(claims)} elements, bias allows {p}"
            )
        for i in claims:
            if not (0 <= i < len(state.boxes)):
                raise IllegalMoveError(f"BoxMaker claimed in unknown box {i}")
            if state.boxes[i].free() <= 0:
                raise IllegalMoveError(f"BoxMaker claimed in full box {i}")
            state.boxes[i].maker += 1
        trace.append((MAKER, claims))
        if state.maker_won():
            winner = MAKER
            break
        if state.exhausted():
            winner = BREAKER
            break
        j = boxbreaker_move_s(state)
        state.boxes[j].breaker += 1
        trace.append((BREAKER, (j,)))
        if state.exhausted():
            winner = BREAKER
    return BoxResult(winner, tuple(capacities), p, tuple(trace))


def corollary_bound_holds(
    trace: Sequence[Tuple[str, Sequence[int]]],
    n_boxes: int,
    p: int,
) -> bool:
    """Check the untouched-box ceiling along a trace.

    For every box i and every prefix of the trace during which BoxBreaker
    has not yet claimed in box i, BoxMaker's count there must stay at or
    below p * (ln n + 1). Returns False on the first breach.
    """
    if n_boxes < 1:
        raise ParameterError(f"need at least one box, got {n_boxes}")
    bound = p * (math.log(n_boxes) + 1.0)
    maker_count = [0] * n_boxes
    breaker_touched = [False] * n_boxes
    for role, claims in trace:
        for i in claims:
            if not (0 <= i < n_boxes):
                raise ParameterError(f"trace claims unknown box {i}")
            if role == MAKER:
                maker_count[i] += 1
                if not breaker_touched[i] and maker_count[i] > bound:
                    return False
            elif role == BREAKER:
                breaker_touched[i] = True
            else:
                raise ParameterError(f"trace has unknown role {role!r}")
    return True

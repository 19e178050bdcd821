"""Biased connectivity game engine.

Two players alternately claim free edges of a fixed graph. Connector may
claim up to m edges per round and must keep her claimed edge set connected
at all times; Breaker may claim up to b arbitrary free edges. A round is
one Connector move followed by one Breaker move. Connector wins the moment
her edges form a connected spanning subgraph; if the board runs out of free
edges first, Breaker wins. Either side loses immediately by making an
illegal move or by resigning (a forfeit move).

"Up to" is literal: partial moves, including empty ones, are legal. To keep
degenerate stand-offs finite, a full round in which both players claim
nothing while free edges remain ends the game in Breaker's favour (the
board is exhausted for all practical purposes; Connector can never span
from a position she refuses to play).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, Iterable, Iterator, List, Optional, Protocol, Set, Tuple

from .errors import ConbreakError, ConnectivityError, IllegalMoveError, ParameterError
from .graph import Edge, Graph, edge, is_integer
from .rng import check_seed, derive

CONNECTOR = "C"
BREAKER = "B"

REASON_SPANNED = "spanned"
REASON_EXHAUSTED = "board-exhausted"
REASON_FORFEIT = "forfeit"


@dataclass(frozen=True)
class Move:
    """A single player's move: an ordered tuple of edges to claim.

    For Connector the order matters: each edge must touch her territory as
    it stands when that edge is claimed, and territory grows edge by edge
    within the move. `flags` carries strategy diagnostics (for example a
    blown violation budget) into the game record. A forfeit move resigns.
    """

    edges: Tuple[Edge, ...] = ()
    flags: Tuple[str, ...] = ()
    forfeit: bool = False

    @staticmethod
    def of(*pairs) -> "Move":
        return Move(tuple(edge(u, v) for u, v in pairs))


def check_biases(*biases) -> None:
    """Refuse a bias that is not an integer of at least 1: a float or a
    bool is refused, a numpy integer passes."""
    for x in biases:
        if not (is_integer(x) and x >= 1):
            raise ParameterError(f"bias must be an integer of at least 1, got {x!r}")


class GameState:
    """Snapshot of a game in progress.

    `v_c` is Connector's territory: the endpoints of her claimed edges,
    plus the start vertex when one is fixed. `territory` lists the same
    vertices in the order they joined it, and `moves` holds one
    (round, role, edges) entry per move applied since the state was
    built, empty moves included; both only grow. `round` counts from 1
    and increments after Breaker's reply, so within one round Connector
    moves first and both moves share the round number.

    The state holds the position and nothing a strategy alone reads:
    `is_free`, `free_edges_at` and the move checks read one CSR row,
    `first_free` reads an edge iterator its caller may keep, and none of
    them builds a whole-board Python view. A strategy that wants an index
    of the free edges, or Breaker's degrees, keeps its own, brought up to
    date from `moves` and `territory`.
    """

    __slots__ = (
        "graph",
        "connector_edges",
        "breaker_edges",
        "v_c",
        "territory",
        "moves",
        "m",
        "b",
        "round",
        "to_move",
        "start_vertex",
    )

    def __init__(
        self,
        graph: Graph,
        m: int = 2,
        b: int = 2,
        start_vertex: Optional[int] = None,
        connector_edges: Iterable[Edge] = (),
        breaker_edges: Iterable[Edge] = (),
        to_move: str = CONNECTOR,
    ):
        check_biases(m, b)
        if start_vertex is not None and not (
            is_integer(start_vertex) and 0 <= start_vertex < graph.n
        ):
            raise ParameterError(f"start vertex {start_vertex!r} is not a vertex of the board")
        if to_move not in (CONNECTOR, BREAKER):
            raise ParameterError(f"to_move must be 'C' or 'B', got {to_move!r}")
        self.graph = graph
        self.m = m
        self.b = b
        self.start_vertex = start_vertex
        self.connector_edges = set(connector_edges)
        self.breaker_edges = set(breaker_edges)
        both = self.connector_edges & self.breaker_edges
        if both:
            raise ParameterError(f"edges claimed by both players: {sorted(both)}")
        for e in self.connector_edges | self.breaker_edges:
            pair = isinstance(e, tuple) and len(e) == 2 and all(map(is_integer, e))
            if not (pair and e[0] < e[1] and graph.has_edge(*e)):
                raise ParameterError(f"claimed pair {e!r} is not a board edge (u, v) with u < v")
        self.round = 1
        self.to_move = to_move
        order = [] if start_vertex is None else [start_vertex]
        for e in sorted(self.connector_edges):
            order.extend(e)
        self.territory = list(dict.fromkeys(order))
        self.v_c = set(self.territory)
        self.moves: List[Tuple[int, str, Tuple[Edge, ...]]] = []

    def copy(self) -> "GameState":
        s = GameState.__new__(GameState)
        s.graph = self.graph
        s.m = self.m
        s.b = self.b
        s.start_vertex = self.start_vertex
        s.connector_edges = set(self.connector_edges)
        s.breaker_edges = set(self.breaker_edges)
        s.round = self.round
        s.to_move = self.to_move
        s.v_c = set(self.v_c)
        s.territory = list(self.territory)
        s.moves = list(self.moves)
        return s

    def bias(self, role: str) -> int:
        return self.m if role == CONNECTOR else self.b

    def is_free(self, e: Edge) -> bool:
        """Whether e, written u < v, is an unclaimed edge of the board.
        False for a reversed pair, a loop or an off-board vertex."""
        if e in self.connector_edges or e in self.breaker_edges:
            return False
        u, v = e
        return u < v and self.graph.has_edge(u, v)

    def free_edges(self) -> List[Edge]:
        """Free edges in ascending order. O(|E|): `first_free` over the
        whole board, for tests, the random Breaker's index and the
        baseline Connectors' opening from an empty territory."""
        return self.first_free(self.graph.edge_count())

    def first_free(
        self, k: int, edges: Optional[Iterator[Edge]] = None, skip: Container[Edge] = ()
    ) -> List[Edge]:
        """The first k free edges outside `skip` that the iterator `edges`
        yields, in its order, or fewer when it runs out; without an
        iterator, the k lowest of the board's sorted edge order
        (`Graph.edges_from`). A caller that keeps the iterator resumes
        just past the last edge taken; k = 0 reads nothing from it."""
        out: List[Edge] = []
        if k <= 0:
            return out
        claimed, blocked = self.connector_edges, self.breaker_edges
        for e in self.graph.edges_from() if edges is None else edges:
            if e not in claimed and e not in blocked and e not in skip:
                out.append(e)
                if len(out) == k:
                    break
        return out

    def free_edges_at(self, v: int) -> List[Edge]:
        """Free edges at v, in ascending order of the other endpoint.
        O(deg v): one CSR row against the claimed sets."""
        claimed, blocked = self.connector_edges, self.breaker_edges
        out = []
        for x in self.graph.row(v):
            e = (x, v) if x < v else (v, x)
            if e not in claimed and e not in blocked:
                out.append(e)
        return out

    def connector_has_spanned(self) -> bool:
        """Connector's edges are kept connected by the rules, so she spans
        exactly when her territory covers every vertex."""
        if self.graph.n <= 1:
            return True
        return len(self.v_c) == self.graph.n


def _check_move(state: GameState, move: Move) -> Tuple[Edge, ...]:
    """Return the edges of `move` as (u, v) with u < v and Python int
    vertices, or raise if the move is illegal for state.to_move in
    `state`: a ParameterError for a loop, an IllegalMoveError (or its
    subclass ConnectivityError) for anything else, unreadable entries
    included."""
    role = state.to_move
    connector = role == CONNECTOR
    limit = state.m if connector else state.b
    try:
        count = len(move.edges)
    except TypeError:
        raise IllegalMoveError(f"move edges {move.edges!r} are not a sequence") from None
    if count > limit:
        raise IllegalMoveError(f"{role} claimed {count} edges, bias allows {limit}")
    seen: Dict[Edge, None] = {}  # the checked edges, in move order
    vc = state.v_c
    claimed, blocked = state.connector_edges, state.breaker_edges
    has_edge = state.graph.has_edge
    added: Set[int] = set()  # vertices this move has added so far
    for e in move.edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise IllegalMoveError(f"{e!r} is not a pair of integer vertices") from None
        # a legal move pays two type tests; a numpy integer is read as
        # the int it equals, a bool, a float or None ends the move
        if type(u) is not int or type(v) is not int:
            if not (is_integer(u) and is_integer(v)):
                raise IllegalMoveError(f"{e!r} is not a pair of integer vertices")
            u, v = int(u), int(v)
        if u > v:
            u, v = v, u
        elif u == v:
            raise ParameterError(f"loop edge ({u},{v}) is not allowed")
        e = (u, v)
        if e in seen:
            raise IllegalMoveError(f"edge {e} claimed twice in one move", edge=e)
        seen[e] = None
        if not has_edge(u, v):
            raise IllegalMoveError(f"edge {e} is not an edge of the board", edge=e)
        if e in claimed or e in blocked:
            raise IllegalMoveError(f"edge {e} is already claimed", edge=e)
        if connector:
            if (
                (vc or added)
                and u not in vc and v not in vc
                and u not in added and v not in added
            ):
                raise ConnectivityError(
                    f"edge {e} does not touch Connector territory", edge=e
                )
            added.add(u)
            added.add(v)
    return tuple(seen)


def _apply_in_place(state: GameState, edges: Tuple[Edge, ...]) -> None:
    """Apply the edges `_check_move` returned for the player to move and
    record the move in `state.moves`. Mutates `state`; used by the game
    loop."""
    role = state.to_move
    state.moves.append((state.round, role, edges))
    if role == CONNECTOR:
        claimed, vc, territory = state.connector_edges, state.v_c, state.territory
        for e in edges:
            claimed.add(e)
            for w in e:
                if w not in vc:
                    vc.add(w)
                    territory.append(w)
        state.to_move = BREAKER
    else:
        state.breaker_edges.update(edges)
        state.to_move = CONNECTOR
        state.round += 1


def validate_and_apply(state: GameState, move: Move) -> GameState:
    """Check `move` for the player to move and return the resulting state.

    The input state is not modified. Raises IllegalMoveError (naming the
    offending edge, when it is a pair of vertices), ConnectivityError, or
    ParameterError for a loop, on a bad move.
    """
    if move.forfeit:
        raise IllegalMoveError("a forfeit move cannot be applied to a state")
    edges = _check_move(state, move)
    out = state.copy()
    _apply_in_place(out, edges)
    return out


class Strategy(Protocol):
    """A decision procedure for one side of one game.

    Instances are per-game: `start` is called once with the board, the role
    ('C' or 'B') and a seed, then `propose` once per turn, with the
    successive positions of one game, as `run_game` plays them: each
    position after the first is the one before it with the proposed move
    and the opponent's reply applied. So a strategy may keep per-game
    indices, brought up to date from the state's moves and territory
    order, and may update them at `propose` as if its move were played.
    Given the same board, role, seed and state sequence, a strategy must
    produce the same moves. Strategies must treat the passed state as
    read-only.
    """

    def start(self, graph: Graph, role: str, seed: int) -> None: ...

    def propose(self, state: GameState) -> Move: ...


@dataclass
class GameResult:
    """Outcome plus a replayable transcript.

    `transcript` holds one (round, role, edges) entry per move in play
    order, edges written u < v; applied in turn to the initial state they
    reproduce `final_state`. `rounds` is the round number of the last
    recorded move, 0 when the game ended before any move.
    """

    winner: str
    reason: str
    rounds: int
    transcript: Tuple[Tuple[int, str, Tuple[Edge, ...]], ...]
    flags: Tuple[str, ...]
    final_state: GameState
    m: int
    b: int
    start_vertex: Optional[int]
    seed: int

    def transcript_jsonl(self) -> str:
        import json

        lines = []
        for rnd, role, edges in self.transcript:
            lines.append(
                json.dumps(
                    {"round": rnd, "player": role, "edges": [list(e) for e in edges]},
                    separators=(",", ":"),
                )
            )
        lines.append(
            json.dumps(
                {"winner": self.winner, "reason": self.reason},
                separators=(",", ":"),
            )
        )
        return "\n".join(lines) + "\n"


# Tags for the per-role sub-streams drawn from a game seed.
_TAG_CONNECTOR = 0xC0
_TAG_BREAKER = 0xB0


def run_game(
    graph: Graph,
    connector: Strategy,
    breaker: Strategy,
    m: int = 2,
    b: int = 2,
    start_vertex: Optional[int] = None,
    seed: int = 0,
) -> GameResult:
    """Play one game to the end and return its result.

    Connector moves first. Each strategy gets an independent sub-seed
    derived from `seed` (tags 0xC0 and 0xB0 through the documented derive
    function), so a single game seed pins the whole transcript. A seed
    outside 64 unsigned bits is refused with ParameterError. An illegal
    move, a move that cannot be read as pairs of integer vertices, or a
    forfeit move ends the game against its author.
    """
    check_seed(seed)
    state = GameState(graph, m=m, b=b, start_vertex=start_vertex)
    connector.start(graph, CONNECTOR, derive(seed, _TAG_CONNECTOR))
    breaker.start(graph, BREAKER, derive(seed, _TAG_BREAKER))
    strategies = {CONNECTOR: connector, BREAKER: breaker}

    flags: list = []
    total_edges = graph.edge_count()
    winner = reason = None
    last_was_empty = False

    if state.connector_has_spanned():
        winner, reason = CONNECTOR, REASON_SPANNED

    while winner is None:
        role = state.to_move
        move = strategies[role].propose(state)
        flags.extend(move.flags)
        # a forfeit move and a move the checks refuse both lose the game
        try:
            edges = None if move.forfeit else _check_move(state, move)
        except ConbreakError:
            edges = None
        if edges is None:
            winner = BREAKER if role == CONNECTOR else CONNECTOR
            reason = REASON_FORFEIT
            break
        _apply_in_place(state, edges)
        if role == CONNECTOR and state.connector_has_spanned():
            winner, reason = CONNECTOR, REASON_SPANNED
            break
        claimed = len(state.connector_edges) + len(state.breaker_edges)
        if claimed == total_edges:
            winner, reason = BREAKER, REASON_EXHAUSTED
            break
        if not move.edges:
            if last_was_empty:
                winner, reason = BREAKER, REASON_EXHAUSTED
                break
            last_was_empty = True
        else:
            last_was_empty = False

    moves = state.moves
    return GameResult(
        winner=winner,
        reason=reason,
        rounds=moves[-1][0] if moves else 0,
        transcript=tuple(moves),
        flags=tuple(flags),
        final_state=state,
        m=m,
        b=b,
        start_vertex=start_vertex,
        seed=seed,
    )

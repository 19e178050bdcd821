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

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import (
    Container, Iterable, Iterator, List, Optional, Protocol, Sequence, Set, Tuple
)

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


# edges `GameState.lowest_free` reads from the edge arrays at a time
_SCAN_CHUNK = 64


class GameState:
    """Snapshot of a game in progress.

    `v_c` is Connector's territory: the endpoints of her claimed edges,
    plus the start vertex when one is fixed. `territory` lists the same
    vertices in the order they joined it, and `log` holds every claim
    applied since the state was built, as (role, edge) in play order;
    both only grow. `round` counts from 1 and increments after Breaker's
    reply, so within one round Connector moves first and both moves share
    the round number. `breaker_degrees[v]` is the number of Breaker edges
    at v, kept up to date as moves apply.

    Two sorted edge lists, in `graph.sorted_edges()` order, index the
    free edges and the frontier, the free edges that touch `v_c`;
    `free_choices` and `connector_choices` read them. Each is built on
    the first query that needs it, then kept up to date by every applied
    move (a bisect plus a list delete or insert per change) and copied
    by `copy`; a game that never queries them pays nothing for them, and
    builds none of the board's whole-board Python views either:
    `is_free`, `free_edges_at` and the move checks read one CSR row, and
    `lowest_free` reads the edge arrays.
    """

    __slots__ = (
        "graph",
        "connector_edges",
        "breaker_edges",
        "breaker_degrees",
        "v_c",
        "territory",
        "log",
        "m",
        "b",
        "round",
        "to_move",
        "start_vertex",
        "_free",
        "_front",
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
        if m < 1 or b < 1:
            raise ParameterError(f"bias must be at least 1, got m={m} b={b}")
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
        self.breaker_degrees = [0] * graph.n
        for u, v in self.breaker_edges:
            self.breaker_degrees[u] += 1
            self.breaker_degrees[v] += 1
        order = [] if start_vertex is None else [start_vertex]
        for e in sorted(self.connector_edges):
            order.extend(e)
        self.territory = list(dict.fromkeys(order))
        self.v_c = set(self.territory)
        self.log: List[Tuple[str, Edge]] = []
        self._free: Optional[List[Edge]] = None
        self._front: Optional[List[Edge]] = None

    def copy(self) -> "GameState":
        s = GameState.__new__(GameState)
        s.graph = self.graph
        s.m = self.m
        s.b = self.b
        s.start_vertex = self.start_vertex
        s.connector_edges = set(self.connector_edges)
        s.breaker_edges = set(self.breaker_edges)
        s.breaker_degrees = list(self.breaker_degrees)
        s.round = self.round
        s.to_move = self.to_move
        s.v_c = set(self.v_c)
        s.territory = list(self.territory)
        s.log = list(self.log)
        s._free = None if self._free is None else list(self._free)
        s._front = None if self._front is None else list(self._front)
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
        """Free edges in ascending order. O(|E|): a full scan, kept for
        tests, audits and the greedy Connector's opening from an empty
        territory; per-move play uses the indexed queries below."""
        claimed = self.connector_edges
        blocked = self.breaker_edges
        return [e for e in self.graph.sorted_edges() if e not in claimed and e not in blocked]

    def lowest_free(
        self, k: int, cursor: Optional[List[int]] = None, skip: Container[Edge] = ()
    ) -> List[Edge]:
        """Up to k lowest free edges outside `skip`, in ascending order.

        An optional one-element `cursor` list holds the index into the
        sorted edge order (the board's `u`/`v` arrays) where the scan
        starts, and is left just past the last edge taken, so a per-game
        caller can resume its scan there."""
        g = self.graph
        claimed, blocked = self.connector_edges, self.breaker_edges
        out: List[Edge] = []
        i = cursor[0] if cursor is not None else 0
        m = g.edge_count()
        # edge i is (u[i], v[i]); read the arrays a chunk at a time so
        # that no whole-board edge list is built
        while len(out) < k and i < m:
            for e in zip(g.u[i : i + _SCAN_CHUNK].tolist(), g.v[i : i + _SCAN_CHUNK].tolist()):
                i += 1
                if e not in claimed and e not in blocked and e not in skip:
                    out.append(e)
                    if len(out) == k:
                        break
        if cursor is not None:
            cursor[0] = i
        return out

    def _front_list(self) -> List[Edge]:
        """The frontier list, built on first use from the free list.
        Games whose strategies never ask for it do not keep it."""
        if self._front is None:
            vc = self.v_c
            self._front = [e for e in self.free_choices() if e[0] in vc or e[1] in vc]
        return self._front

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

    def free_choices(self) -> List[Edge]:
        """The free edges, Breaker's choices, in ascending order: a full
        scan on first use, then kept up to date. The list is the state's
        own: read it, do not change it."""
        if self._free is None:
            self._free = self.free_edges()
        return self._free

    def connector_choices(self, claims: Sequence[Edge] = ()) -> List[Edge]:
        """The edges Connector may claim next in a move whose earlier
        claims are `claims`, in ascending order: the free edges touching
        `v_c` or the claims, minus the claims; every free edge while both
        are empty. Without claims the list is the state's own, to be read
        and not changed; with claims it is a copy of the frontier,
        corrected by one scan of the claims' new vertices' edges."""
        free, front = self.free_choices(), self._front_list()
        vc = self.v_c
        if not claims:
            return front if vc else free
        out = list(front)
        for e in claims:
            i = bisect_left(out, e)
            if i < len(out) and out[i] == e:
                del out[i]
        # free edges at the new vertices whose other end is outside v_c;
        # an edge between two new vertices turns up twice
        for w in {w for e in claims for w in e if w not in vc}:
            for e in self.free_edges_at(w):
                if e[0] + e[1] - w in vc or e in claims:
                    continue
                i = bisect_left(out, e)
                if i == len(out) or out[i] != e:
                    out.insert(i, e)
        return out

    def connector_has_spanned(self) -> bool:
        """Connector's edges are kept connected by the rules, so she spans
        exactly when her territory covers every vertex."""
        if self.graph.n <= 1:
            return True
        return len(self.v_c) == self.graph.n


def _check_move(state: GameState, move: Move) -> None:
    """Raise if `move` is illegal for state.to_move in `state`: a
    ParameterError for a loop, an IllegalMoveError (or its subclass
    ConnectivityError) for anything else, unreadable entries included."""
    role = state.to_move
    limit = state.bias(role)
    try:
        count = len(move.edges)
    except TypeError:
        raise IllegalMoveError(f"move edges {move.edges!r} are not a sequence") from None
    if count > limit:
        raise IllegalMoveError(f"{role} claimed {count} edges, bias allows {limit}")
    seen = set()
    vc = state.v_c
    added: Set[int] = set()  # vertices this move has added so far
    for e in move.edges:
        # a try is free until it catches: a non-pair entry or a vertex that
        # cannot index a row (None, 0.0) raises TypeError here; one equal to
        # an integer (True, 2.0) still passes as that integer
        try:
            e = u, v = edge(*e)
            on_board = state.graph.has_edge(u, v)
        except TypeError:
            raise IllegalMoveError(f"{e!r} is not a pair of integer vertices") from None
        if e in seen:
            raise IllegalMoveError(f"edge {e} claimed twice in one move", edge=e)
        seen.add(e)
        if not on_board:
            raise IllegalMoveError(f"edge {e} is not an edge of the board", edge=e)
        if e in state.connector_edges or e in state.breaker_edges:
            raise IllegalMoveError(f"edge {e} is already claimed", edge=e)
        if role == CONNECTOR:
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


def _apply_in_place(state: GameState, move: Move) -> None:
    """Apply a checked move. Mutates `state`; used by the game loop."""
    role = state.to_move
    free, front = state._free, state._front  # no frontier list without a free one
    vc = state.v_c
    for e in move.edges:
        e = edge(*e)
        state.log.append((role, e))
        if free is not None:
            del free[bisect_left(free, e)]
            if front is not None:
                i = bisect_left(front, e)
                if i < len(front) and front[i] == e:
                    del front[i]
        if role == CONNECTOR:
            state.connector_edges.add(e)
            for w in e:
                if w not in vc:
                    vc.add(w)
                    state.territory.append(w)
                    if front is not None:
                        # w's free edges into v_c are in the frontier already
                        for f in state.free_edges_at(w):
                            if f[0] + f[1] - w not in vc:
                                insort(front, f)
        else:
            state.breaker_edges.add(e)
            state.breaker_degrees[e[0]] += 1
            state.breaker_degrees[e[1]] += 1
    if role == CONNECTOR:
        state.to_move = BREAKER
    else:
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
    _check_move(state, move)
    out = state.copy()
    _apply_in_place(out, move)
    return out


class Strategy(Protocol):
    """A decision procedure for one side of one game.

    Instances are per-game: `start` is called once with the board, the role
    ('C' or 'B') and a seed, then `propose` once per turn. Given the same
    board, role, seed and state sequence, a strategy must produce the same
    moves. Strategies may keep per-game caches but must treat the passed
    state as read-only.
    """

    def start(self, graph: Graph, role: str, seed: int) -> None: ...

    def propose(self, state: GameState) -> Move: ...


@dataclass
class GameResult:
    """Outcome plus a replayable transcript.

    `transcript` holds one (round, role, edges) entry per move in play
    order. Replaying the moves from the initial state (`replay_states`)
    reproduces `final_state`. `rounds` is the round number of the
    last recorded move, 0 when the game ended before any move.
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

    transcript: list = []
    flags: list = []
    total_edges = graph.edge_count()
    winner = reason = None
    last_was_empty = False

    if state.connector_has_spanned():
        winner, reason = CONNECTOR, REASON_SPANNED

    while winner is None:
        role = state.to_move
        move = strategies[role].propose(state)
        if move.forfeit:
            winner = BREAKER if role == CONNECTOR else CONNECTOR
            reason = REASON_FORFEIT
            flags.extend(move.flags)
            break
        try:
            _check_move(state, move)
        except ConbreakError:
            winner = BREAKER if role == CONNECTOR else CONNECTOR
            reason = REASON_FORFEIT
            flags.extend(move.flags)
            break
        transcript.append((state.round, role, tuple(edge(*e) for e in move.edges)))
        flags.extend(move.flags)
        _apply_in_place(state, move)
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

    rounds = transcript[-1][0] if transcript else 0
    return GameResult(
        winner=winner,
        reason=reason,
        rounds=rounds,
        transcript=tuple(transcript),
        flags=tuple(flags),
        final_state=state,
        m=m,
        b=b,
        start_vertex=start_vertex,
        seed=seed,
    )


def replay_states(
    result: GameResult, graph: Graph
) -> Iterator[Tuple[int, str, GameState]]:
    """Replay a recorded game, checking each move like the game loop does,
    and yield (round, role, state) after each move. The state is one
    object updated in place. A move out of turn raises ParameterError; an
    illegal or unreadable move raises the game loop's ConbreakError."""
    state = GameState(graph, m=result.m, b=result.b, start_vertex=result.start_vertex)
    for rnd, role, edges in result.transcript:
        if role != state.to_move:
            raise ParameterError(
                f"transcript out of turn at round {rnd}: {role} cannot move"
            )
        move = Move(edges)
        _check_move(state, move)
        _apply_in_place(state, move)
        yield rnd, role, state

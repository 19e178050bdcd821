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

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Container, Iterable, Iterator, List, Optional, Protocol, Sequence, Set, Tuple
)

import numpy as np

from .errors import ConnectivityError, IllegalMoveError, ParameterError
from .graph import Edge, Graph, edge

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


class _Fenwick:
    """Fenwick tree (Fenwick 1994) over 0/1 flags: flip a flag or find
    the k-th set flag, each in O(log size). Built from a boolean array in
    O(size) with numpy."""

    __slots__ = ("flags", "tree", "size", "count", "top")

    def __init__(self, flags: np.ndarray):
        self.size = size = len(flags)
        csum = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(flags, out=csum[1:])
        i = np.arange(1, size + 1, dtype=np.int64)
        # node i holds the flags in (i - lowbit(i), i], 1-based
        self.tree = [0] + (csum[1:] - csum[i - (i & -i)]).tolist()
        self.flags = bytearray(flags.astype(np.uint8).tobytes())
        self.count = int(csum[-1])
        self.top = 1 << (size.bit_length() - 1) if size else 0

    def copy(self) -> "_Fenwick":
        t = _Fenwick.__new__(_Fenwick)
        t.flags = bytearray(self.flags)
        t.tree = list(self.tree)
        t.size = self.size
        t.count = self.count
        t.top = self.top
        return t

    def set(self, i: int, on: int) -> None:
        flags = self.flags
        if flags[i] == on:
            return
        flags[i] = on
        d = 1 if on else -1
        self.count += d
        tree = self.tree
        size = self.size
        i += 1
        while i <= size:
            tree[i] += d
            i += i & -i

    def kth(self, k: int) -> int:
        """Position of the k-th set flag, counting from 0; k < count."""
        tree = self.tree
        size = self.size
        pos = 0
        step = self.top
        while step:
            nxt = pos + step
            if nxt <= size and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        return pos

    def select(self, k: int, skip: List[int], extra: List[int]) -> int:
        """Position of the k-th element, counting from 0, of the set flags
        minus `skip` plus `extra`: sorted lists of set and of clear
        positions. The descent of `kth`, with each node's count corrected
        by the skipped and extra positions it covers."""
        tree = self.tree
        size = self.size
        pos = ns = nx = 0  # ns, nx: skipped and extra positions below pos
        step = self.top
        while step:
            nxt = pos + step
            if nxt <= size:
                s = bisect_left(skip, nxt, ns)
                x = bisect_left(extra, nxt, nx)
                c = tree[nxt] - (s - ns) + (x - nx)
                if c <= k:
                    pos = nxt
                    k -= c
                    ns, nx = s, x
            step >>= 1
        return pos


class Choices:
    """A set of free edges as a read-only sequence in ascending order:
    the positions flagged in a Fenwick tree over edge ids, minus `drop`
    and plus `extra` (sorted ids). `len` is O(1) and the k-th element
    O(log |E|), times log |drop| + log |extra| when they are not empty.
    Valid until the state it came from changes."""

    __slots__ = ("_edges", "_tree", "_drop", "_extra", "_size")

    def __init__(self, graph: Graph, tree: _Fenwick, drop: List[int], extra: List[int]):
        self._edges = graph.sorted_edges()
        self._tree = tree
        self._drop = drop
        self._extra = extra
        self._size = tree.count - len(drop) + len(extra)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, k: int) -> Edge:
        if not 0 <= k < self._size:
            raise IndexError(f"no edge number {k} among {self._size}")
        if self._drop or self._extra:
            return self._edges[self._tree.select(k, self._drop, self._extra)]
        return self._edges[self._tree.kth(k)]


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

    Two Fenwick trees over edge ids (positions in `graph.sorted_edges()`)
    index the free edges and the frontier, the free edges that touch
    `v_c`; `free_edges_at`, `free_choices` and `connector_choices` read
    them. Each is built with numpy on the first query that needs it,
    then kept up to date by every applied move and copied by `copy`; a
    game that never queries them pays nothing for them.
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
        round: int = 1,
        to_move: str = CONNECTOR,
    ):
        if m < 1 or b < 1:
            raise ParameterError(f"bias must be at least 1, got m={m} b={b}")
        if start_vertex is not None and not (0 <= start_vertex < graph.n):
            raise ParameterError(f"start vertex {start_vertex} out of range")
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
        self.round = round
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
        self._free: Optional[_Fenwick] = None
        self._front: Optional[_Fenwick] = None

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
        s._free = None if self._free is None else self._free.copy()
        s._front = None if self._front is None else self._front.copy()
        return s

    def bias(self, role: str) -> int:
        return self.m if role == CONNECTOR else self.b

    def is_free(self, e: Edge) -> bool:
        return (
            e in self.graph.edges
            and e not in self.connector_edges
            and e not in self.breaker_edges
        )

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
        sorted edge list where the scan starts, and is left just past the
        last edge taken, so a per-game caller can resume its scan there."""
        edges = self.graph.sorted_edges()
        out: List[Edge] = []
        i = cursor[0] if cursor is not None else 0
        while len(out) < k and i < len(edges):
            e = edges[i]
            if self.is_free(e) and e not in skip:
                out.append(e)
            i += 1
        if cursor is not None:
            cursor[0] = i
        return out

    def free_edge_count(self) -> int:
        return (
            self.graph.edge_count()
            - len(self.connector_edges)
            - len(self.breaker_edges)
        )

    def _free_tree(self) -> _Fenwick:
        """The free-edge tree, built from the claimed sets on first use."""
        if self._free is None:
            g = self.graph
            claimed = [g.edge_id(e) for e in self.connector_edges]
            claimed += [g.edge_id(e) for e in self.breaker_edges]
            free = np.ones(g.edge_count(), dtype=bool)
            free[np.array(claimed, dtype=np.int64)] = False
            self._free = _Fenwick(free)
        return self._free

    def _front_tree(self) -> _Fenwick:
        """The frontier tree, built on first use from the free flags.
        Games whose strategies never ask for it do not keep it."""
        if self._front is None:
            g = self.graph
            free = np.frombuffer(self._free_tree().flags, dtype=np.uint8).astype(bool)
            vc = np.zeros(g.n, dtype=bool)
            vc[np.array(sorted(self.v_c), dtype=np.int64)] = True
            self._front = _Fenwick(free & (vc[g.u] | vc[g.v]))
        return self._front

    def free_edges_at(self, v: int) -> List[Edge]:
        """Free edges at v, in ascending order of the other endpoint.
        O(deg v)."""
        flags = self._free_tree().flags
        edges = self.graph.sorted_edges()
        return [edges[i] for i in self.graph.incident_ids(v) if flags[i]]

    def free_choices(self) -> "Choices":
        """The free edges, Breaker's choices."""
        return Choices(self.graph, self._free_tree(), [], [])

    def connector_choices(self, claims: Sequence[Edge] = ()) -> "Choices":
        """The edges Connector may claim next in a move whose earlier
        claims are `claims`: the free edges touching `v_c` or the claims,
        minus the claims; every free edge while both are empty. The
        claims' new vertices cost one scan of their edges."""
        free, front = self._free_tree(), self._front_tree()
        vc = self.v_c
        if not claims:
            return Choices(self.graph, front if vc else free, [], [])
        grown = {w for e in claims for w in e if w not in vc}
        skipped = [self.graph.edge_id(e) for e in claims]
        inc = self.graph.incident_ids
        # free edges at the new vertices whose other end is outside v_c;
        # each vertex's edge ids come in ascending order
        extra = [
            j
            for w in grown
            for j in inc(w)
            if free.flags[j] and not front.flags[j] and j not in skipped
        ]
        if len(grown) > 1:
            extra = sorted(set(extra))
        drop = sorted(i for i in skipped if front.flags[i])
        return Choices(self.graph, front, drop, extra)

    def connector_has_spanned(self) -> bool:
        """Connector's edges are kept connected by the rules, so she spans
        exactly when her territory covers every vertex."""
        if self.graph.n <= 1:
            return True
        return len(self.v_c) == self.graph.n


def _check_move(state: GameState, move: Move) -> None:
    """Raise if `move` is illegal for state.to_move in `state`."""
    role = state.to_move
    limit = state.bias(role)
    if len(move.edges) > limit:
        raise IllegalMoveError(
            f"{role} claimed {len(move.edges)} edges, bias allows {limit}"
        )
    seen = set()
    vc = state.v_c
    added: Set[int] = set()  # vertices this move has added so far
    for e in move.edges:
        e = edge(*e)
        if e in seen:
            raise IllegalMoveError(f"edge {e} claimed twice in one move", edge=e)
        seen.add(e)
        if e not in state.graph.edges:
            raise IllegalMoveError(f"edge {e} is not an edge of the board", edge=e)
        if e in state.connector_edges or e in state.breaker_edges:
            raise IllegalMoveError(f"edge {e} is already claimed", edge=e)
        if role == CONNECTOR:
            u, v = e
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
    g = state.graph
    free, front = state._free, state._front  # no frontier tree without a free one
    for e in move.edges:
        e = edge(*e)
        state.log.append((role, e))
        if free is not None:
            i = g.edge_id(e)
            free.set(i, 0)
            if front is not None:
                front.set(i, 0)
        if role == CONNECTOR:
            state.connector_edges.add(e)
            for w in e:
                if w not in state.v_c:
                    state.v_c.add(w)
                    state.territory.append(w)
                    if front is not None:
                        for j in g.incident_ids(w):
                            if free.flags[j]:
                                front.set(j, 1)
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
    offending edge) or ConnectivityError on a bad move.
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
    order. Replaying the moves from the initial state (`replay`)
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
    function), so a single game seed pins the whole transcript. An illegal
    move or a forfeit move ends the game against its author.
    """
    from .rng import derive

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
        except IllegalMoveError:
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
    object updated in place. A move out of turn raises ParameterError."""
    state = GameState(graph, m=result.m, b=result.b, start_vertex=result.start_vertex)
    for rnd, role, edges in result.transcript:
        if role != state.to_move:
            raise ParameterError(
                f"transcript out of turn at round {rnd}: {role} cannot move"
            )
        move = Move(tuple(edges))
        _check_move(state, move)
        _apply_in_place(state, move)
        yield rnd, role, state


def replay(result: GameResult, graph: Graph) -> GameState:
    """Re-derive the final state of a recorded game. Used to check
    transcript integrity."""
    state = GameState(graph, m=result.m, b=result.b, start_vertex=result.start_vertex)
    for _, _, state in replay_states(result, graph):
        pass
    return state

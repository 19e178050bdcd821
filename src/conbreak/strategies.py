"""Built-in players and the string-id strategy registry.

Registry ids:

- "random": uniform legal claims, seeded.
- "greedy-degree": deterministic degree chaser, no randomness.
- "minimax": exact play via the solver; tiny boards only.
- "paper-breaker": the layered isolation defense around a computed
  candidate vertex, with a plain filler fallback when no candidate
  qualifies.
- "paper-connector": the staged tree-guided spanning strategy.

Every strategy is instantiated per game: `start` binds graph, role and
seed, `propose` reads the live state without mutating it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

import numpy as np

from .breaker import BadSetDecomposition, breaker_move, find_candidate
from .connector import ConnectorPlan, connector_move, make_plan
from .engine import BREAKER, CONNECTOR, GameState, Move
from .errors import CapacityError, ParameterError
from .graph import Edge, Graph
from .rng import Rng, Seed
from .solver import best_move, check_size


class RandomStrategy:
    """Claims up to the full bias uniformly among currently legal edges.

    Each claim draws one index into the legal edges in ascending order
    and reads that entry of one sorted list the strategy keeps. Breaker's
    list holds the free edges: a full scan at his first propose, then
    each propose deletes the claims of the moves applied since. Connector's
    list holds her frontier, the free edges that touch her territory: each
    propose deletes those claims, and each vertex that joins the territory
    inserts its free edges whose other end has not joined. After each
    claim she updates the list as if the claim were played, so the next
    claim of the move draws from it. From an empty territory she draws
    from all free edges, at most once a game."""

    def __init__(self):
        self.role = ""
        self.rng: Optional[Rng] = None
        self.edges: Optional[List[Edge]] = None
        self.read = 0  # entries of `state.moves` already deleted from `edges`
        self.joined: Set[int] = set()  # vertices whose edges are in `edges`

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        self.role = role
        self.rng = Rng(seed)

    def propose(self, state: GameState) -> Move:
        if self.edges is None:
            self.edges = state.free_edges() if self.role == BREAKER else []
        else:
            self._drop(e for _, _, claims in state.moves[self.read:] for e in claims)
        self.read = len(state.moves)
        edges = self.edges
        if self.role == BREAKER:
            return Move(tuple(self.rng.sample(edges, min(state.b, len(edges)))))
        joined = self.joined
        # the positions are one game's, whose territory only grows, so
        # its first len(joined) vertices have joined, in its order
        for w in state.territory[len(joined):]:
            self._join(state, w, ())
        claims: List[Edge] = []
        for _ in range(state.m):
            cands = edges if joined else state.free_edges()
            if not cands:
                break
            e = self.rng.choice(cands)
            claims.append(e)
            self._drop((e,))
            for w in e:
                if w not in joined:
                    self._join(state, w, claims)
        return Move(tuple(claims))

    def _drop(self, claimed) -> None:
        """Delete the claimed edges from the sorted list."""
        edges = self.edges
        for e in claimed:
            i = bisect_left(edges, e)
            if i < len(edges) and edges[i] == e:
                del edges[i]

    def _join(self, state: GameState, w: int, claims: Sequence[Edge]) -> None:
        """Add w to the territory the frontier is kept for."""
        joined = self.joined
        joined.add(w)
        for e in state.free_edges_at(w):
            if e[0] + e[1] - w not in joined and e not in claims:
                insort(self.edges, e)


class GreedyDegreeStrategy:
    """Deterministic degree chaser.

    Connector grows territory toward high-degree vertices: each claim takes
    the legal free edge whose new endpoint has the largest graph degree
    (lowest edge on ties). Breaker claims the free edges with the largest
    endpoint degree sums.

    Breaker keeps one rank order, sorted once per game, and one iterator
    over it that `GameState.first_free` resumes each move: the edges it
    has passed are all claimed. Connector keeps one live heap entry per
    outside vertex x next to her territory, (-degree(x), e, x) with e the
    lowest free edge from the territory to x, named by `lowest[x]`. When
    x joins the territory, dropping `lowest[x]` retires its entry at once,
    and its edges into the territory, now of gain -1, go to a list of
    inside edges that is heaped only when no outside vertex is left to
    reach. After each claim she joins its new vertices as if the claim
    were played, so the next claim of the move reads the same heap. Her
    opening from an empty territory, at most once a game, scans the free
    edges.
    """

    def __init__(self):
        self.graph: Optional[Graph] = None
        self.role = ""

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        self.graph = graph
        self.role = role
        if role == BREAKER:
            # descending endpoint degree sum; a stable sort keeps ties in
            # ascending edge order
            deg = np.diff(graph.off)
            rank = np.argsort(-(deg[graph.u] + deg[graph.v]), kind="stable")
            edges = graph.sorted_edges()
            self.order = [edges[i] for i in rank.tolist()]
            self.scan = iter(self.order)
        else:
            self.heap: List[Tuple[int, Edge, int]] = []
            self.lowest: Dict[int, Edge] = {}
            self.inside: List[Edge] = []  # a heap of free edges inside territory
            self.pending: List[Edge] = []  # inside edges not yet in that heap
            self.joined: Set[int] = set()  # territory whose edges are indexed

    def propose(self, state: GameState) -> Move:
        if self.role == BREAKER:
            return Move(tuple(state.first_free(state.b, self.scan)))
        joined = self.joined
        # as for the random Connector: the first len(joined) have joined
        for w in state.territory[len(joined):]:
            self._join(state, w, ())
        degree = self.graph.degree
        claims: List[Edge] = []
        for _ in range(state.m):
            if joined:
                best = self._best(state, claims)
            else:
                best = min(
                    state.free_edges(),
                    key=lambda e: (-max(degree(e[0]), degree(e[1])), e),
                    default=None,
                )
            if best is None:
                break
            claims.append(best)
            for w in best:
                if w not in joined:
                    self._join(state, w, claims)
        return Move(tuple(claims))

    def _join(self, state: GameState, w: int, claims: Sequence[Edge]) -> None:
        """Index the free edges at w, a vertex joining the territory,
        leaving out this move's claims."""
        joined = self.joined
        lowest = self.lowest
        degree = self.graph.degree
        joined.add(w)
        lowest.pop(w, None)  # w's entry is dead
        for e in state.free_edges_at(w):
            if e in claims:
                continue
            x = e[0] + e[1] - w
            if x in joined:
                self.pending.append(e)
            elif x not in lowest or e < lowest[x]:
                lowest[x] = e
                heapq.heappush(self.heap, (-degree(x), e, x))

    def _best(self, state: GameState, claims: Sequence[Edge]) -> Optional[Edge]:
        """The best free edge from the territory, with this move's claims
        played: an outside vertex's best edge is its lowest free edge into
        the territory, and an inside edge, of gain -1, comes after every
        edge that reaches an outside vertex."""
        heap = self.heap
        lowest = self.lowest
        joined = self.joined
        while heap:
            key, e, w = heap[0]
            if lowest.get(w) != e:
                heapq.heappop(heap)
            elif not state.is_free(e):
                # free_edges_at is in ascending edge order: w's next lowest
                nxt = next((f for f in state.free_edges_at(w) if f[0] + f[1] - w in joined), None)
                if nxt is None:
                    del lowest[w]
                    heapq.heappop(heap)
                else:
                    lowest[w] = nxt
                    heapq.heapreplace(heap, (key, nxt, w))
            else:
                # w has not joined, so e is no claim of this move
                return e
        inside = self.inside
        if self.pending:
            inside.extend(self.pending)
            self.pending.clear()
            heapq.heapify(inside)
        while inside:
            e = inside[0]
            if state.is_free(e) and e not in claims:
                return e
            heapq.heappop(inside)
        return None


class MinimaxStrategy:
    """Optimal play through the exact solver. Tiny boards only; a board
    above the solver's edge limit is refused with CapacityError at start."""

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        check_size(graph)

    def propose(self, state: GameState) -> Move:
        return best_move(state)


FLAG_NO_CANDIDATE = "breaker-no-candidate"
FLAG_TARGET_REACHED = "breaker-target-reached"

# Connector's opening territory is padded with the lowest outside vertices
# to this size before the candidates are checked against it
PAD_TO = 3


class IsolationBreakerStrategy:
    """Breaker plays to keep one computed vertex out of Connector
    territory forever.

    On his first move he samples candidate vertices, builds their layered
    bad sets with cumulative exclusion, and adopts the first whose B
    clauses verify against Connector's (padded) opening territory. From
    then on every move clears the violation edges and spends leftovers on
    fillers near the defended vertex. Without a verified candidate (or if
    the target is ever reached, which the theorem rules out when the
    clauses held) he degrades to lowest-free-edge filler play, flagged.
    That filler and his last-resort fillers while isolating resume one
    `Graph.edges_from()` iterator kept for the game."""

    def __init__(self):
        self.graph: Optional[Graph] = None
        self.seed: Seed = 0
        self.decomposition: Optional[BadSetDecomposition] = None
        self.candidate: Optional[int] = None
        self.attempted = False
        self.pending_flags: List[str] = []

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        if role != BREAKER:
            raise ParameterError("isolation strategy plays Breaker only")
        self.graph = graph
        self.seed = seed
        self.scan = graph.edges_from()

    def _padded_m(self, state: GameState) -> List[int]:
        m_set = sorted(state.v_c)
        for v in range(self.graph.n):
            if len(m_set) >= PAD_TO:
                break
            if v not in state.v_c:
                m_set.append(v)
        return sorted(m_set)

    def propose(self, state: GameState) -> Move:
        if not self.attempted:
            self.attempted = True
            try:
                found = find_candidate(self.graph, self._padded_m(state), seed=self.seed)
            except CapacityError:
                found = None
            if found is None:
                self.pending_flags.append(FLAG_NO_CANDIDATE)
            else:
                self.candidate, self.decomposition = found
        flags = tuple(self.pending_flags)
        self.pending_flags = []
        if self.decomposition is not None and self.decomposition.x in state.v_c:
            self.decomposition = None
            flags += (FLAG_TARGET_REACHED,)
        if self.decomposition is not None:
            mv = breaker_move(state, self.decomposition, self.scan)
        else:
            mv = Move(tuple(state.first_free(state.b, self.scan)))
        if flags:
            mv = Move(mv.edges, flags=mv.flags + flags)
        return mv


class SpanningConnectorStrategy:
    """Connector's staged tree strategy behind a lazily built plan."""

    def __init__(self, p_hint: Optional[float] = None):
        self.p_hint = p_hint
        self.seed: Seed = 0
        self.plan: Optional[ConnectorPlan] = None

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        if role != CONNECTOR:
            raise ParameterError("spanning strategy plays Connector only")
        self.seed = seed
        self.plan = None

    def propose(self, state: GameState) -> Move:
        if self.plan is None:
            self.plan = make_plan(state.graph, m=state.m, p_hint=self.p_hint, seed=self.seed)
        return connector_move(state, self.plan)


REGISTRY: Dict[str, Type] = {
    "random": RandomStrategy,
    "greedy-degree": GreedyDegreeStrategy,
    "minimax": MinimaxStrategy,
    "paper-breaker": IsolationBreakerStrategy,
    "paper-connector": SpanningConnectorStrategy,
}


def strategy_ids() -> List[str]:
    return sorted(REGISTRY)


def make_strategy(strategy_id: str, **options):
    """Instantiate a registered strategy; options go to its constructor."""
    cls = REGISTRY.get(strategy_id)
    if cls is None:
        raise ParameterError(
            f"unknown strategy {strategy_id!r}; known: {', '.join(strategy_ids())}"
        )
    return cls(**options)

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
from typing import Dict, List, Optional, Set, Tuple, Type

import numpy as np

from .breaker import BadSetDecomposition, breaker_move, find_candidate
from .connector import EXPANSION_CAP, ConnectorPlan, connector_move, make_plan
from .engine import BREAKER, CONNECTOR, GameState, Move
from .errors import CapacityError, ParameterError
from .graph import Edge, Graph
from .rng import Rng, Seed
from .solver import MAX_EDGES, best_move


class RandomStrategy:
    """Claims up to the full bias uniformly among currently legal edges.

    Each claim draws one index into the legal edges in ascending order
    and reads it off the state's free-edge or frontier index, so a move
    costs O(bias log |E|) plus, for Connector, a scan of the edges at the
    vertices her earlier claims in the move add."""

    def __init__(self):
        self.role = ""
        self.rng: Optional[Rng] = None

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        self.role = role
        self.rng = Rng(seed)

    def propose(self, state: GameState) -> Move:
        if self.role == BREAKER:
            free = state.free_choices()
            return Move(tuple(self.rng.sample(free, min(state.b, len(free)))))
        claims: List[Edge] = []
        for _ in range(state.m):
            cands = state.connector_choices(claims)
            if not cands:
                break
            claims.append(self.rng.choice(cands))
        return Move(tuple(claims))


class GreedyDegreeStrategy:
    """Deterministic degree chaser.

    Connector grows territory toward high-degree vertices: each claim takes
    the legal free edge whose new endpoint has the largest graph degree
    (lowest edge on ties). Breaker claims the free edges with the largest
    endpoint degree sums.

    Breaker reads one rank order, sorted once per game, through a cursor
    past the claimed edges. Connector keeps one live heap entry per
    outside vertex w next to her territory, (-degree(w), e, w) with e the
    lowest free edge from the territory to w, named by `lowest[w]`. When w
    joins the territory, dropping `lowest[w]` retires its entry at once,
    and its edges into the territory, now of gain -1, go to a list of
    inside edges that is heaped only when no outside vertex is left to
    reach. Her opening from an empty territory, at most once a game,
    scans the free edges.
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
            self.cursor = 0
        else:
            self.heap: List[Tuple[int, Edge, int]] = []
            self.lowest: Dict[int, Edge] = {}
            self.inside: List[Edge] = []  # a heap of free edges inside territory
            self.pending: List[Edge] = []  # inside edges not yet in that heap
            self.synced: Set[int] = set()  # territory whose edges are indexed

    def propose(self, state: GameState) -> Move:
        if self.role == BREAKER:
            order = self.order
            i = self.cursor
            while i < len(order) and not state.is_free(order[i]):
                i += 1
            self.cursor = i
            picks: List[Edge] = []
            while len(picks) < state.b and i < len(order):
                if state.is_free(order[i]):
                    picks.append(order[i])
                i += 1
            return Move(tuple(picks))
        self._sync(state)
        vc = state.v_c
        claims: List[Edge] = []
        new: Set[int] = set()  # vertices this move's claims add to vc
        held: List[tuple] = []  # (heap, entry) set aside for this move
        for _ in range(state.m):
            if not vc and not claims:
                best = min(((-self._gain(e, vc), e) for e in state.free_edges()), default=None)
            else:
                tops = (
                    self._heap_best(state, new, claims, held),
                    self._best_at(state, new, claims),
                )
                best = min((t for t in tops if t is not None), default=None)
            if best is None:
                break
            claims.append(best[1])
            new.update(w for w in best[1] if w not in vc)
        for heap, entry in held:
            heapq.heappush(heap, entry)
        return Move(tuple(claims))

    def _gain(self, e: Edge, vc, new=()) -> int:
        """Largest graph degree among e's endpoints outside vc and new,
        -1 when there is none."""
        u, v = e
        du = -1 if u in vc or u in new else self.graph.degree(u)
        dv = -1 if v in vc or v in new else self.graph.degree(v)
        return du if du > dv else dv

    def _sync(self, state: GameState) -> None:
        """Index the free edges of territory vertices not yet seen."""
        synced = self.synced
        lowest = self.lowest
        degree = self.graph.degree
        # territory only grows, so its first len(synced) entries are synced
        for w in state.territory[len(synced):]:
            synced.add(w)
            lowest.pop(w, None)  # w's entry is dead
            for e in state.free_edges_at(w):
                x = e[0] + e[1] - w
                if x in synced:
                    self.pending.append(e)
                elif x not in lowest or e < lowest[x]:
                    lowest[x] = e
                    heapq.heappush(self.heap, (-degree(x), e, x))

    def _heap_best(self, state, new, claims, held) -> Optional[Tuple[int, Edge]]:
        """Best (-gain, edge) among the free edges from the territory,
        away from this move's new vertices and claims; those are keyed by
        `_best_at` instead. An outside vertex's best edge is its lowest
        free edge into the territory; an inside edge has gain -1."""
        heap = self.heap
        lowest = self.lowest
        vc = state.v_c
        while heap:
            key, e, w = heap[0]
            if lowest.get(w) != e:
                heapq.heappop(heap)
            elif not state.is_free(e):
                # free_edges_at is in ascending edge order: w's next lowest
                nxt = next((f for f in state.free_edges_at(w) if f[0] + f[1] - w in vc), None)
                if nxt is None:
                    del lowest[w]
                    heapq.heappop(heap)
                else:
                    lowest[w] = nxt
                    heapq.heapreplace(heap, (key, nxt, w))
            elif w in new:
                held.append((heap, heapq.heappop(heap)))
            else:
                return key, e
        inside = self.inside
        if self.pending:
            inside.extend(self.pending)
            self.pending.clear()
            heapq.heapify(inside)
        while inside:
            e = inside[0]
            if not state.is_free(e):
                heapq.heappop(inside)
            elif e in claims:
                held.append((inside, heapq.heappop(inside)))
            else:
                return 1, e
        return None

    def _best_at(self, state, new, claims) -> Optional[Tuple[int, Edge]]:
        """Best (-gain, edge) among the free edges at this move's new
        vertices, with gains counted against the grown territory."""
        vc = state.v_c
        return min(
            (
                (-self._gain(e, vc, new), e)
                for w in new
                for e in state.free_edges_at(w)
                if e not in claims
            ),
            default=None,
        )


class MinimaxStrategy:
    """Optimal play through the exact solver. Tiny boards only; larger
    boards are refused with CapacityError at propose time."""

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        if graph.edge_count() > MAX_EDGES:
            raise CapacityError(
                f"board has {graph.edge_count()} edges, minimax allows {MAX_EDGES}"
            )

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
    clauses held) he degrades to lowest-free-edge filler play, flagged."""

    def __init__(self):
        self.graph: Optional[Graph] = None
        self.seed: Seed = 0
        self.decomposition: Optional[BadSetDecomposition] = None
        self.candidate: Optional[int] = None
        self.attempted = False
        self.cursor = [0]
        self.pending_flags: List[str] = []

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        if role != BREAKER:
            raise ParameterError("isolation strategy plays Breaker only")
        self.graph = graph
        self.seed = seed

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
                self.cursor = [0]
        flags = tuple(self.pending_flags)
        self.pending_flags = []
        if self.decomposition is not None and self.decomposition.x in state.v_c:
            self.decomposition = None
            flags += (FLAG_TARGET_REACHED,)
        if self.decomposition is not None:
            mv = breaker_move(state, self.decomposition, self.cursor)
        else:
            mv = Move(tuple(state.lowest_free(state.b, self.cursor)))
        if flags:
            mv = Move(mv.edges, flags=mv.flags + flags)
        return mv


class SpanningConnectorStrategy:
    """Connector's staged tree strategy behind a lazily built plan."""

    def __init__(self, p_hint: Optional[float] = None, expansion_cap: int = EXPANSION_CAP):
        self.p_hint = p_hint
        self.expansion_cap = expansion_cap
        self.seed: Seed = 0
        self.plan: Optional[ConnectorPlan] = None

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        if role != CONNECTOR:
            raise ParameterError("spanning strategy plays Connector only")
        self.seed = seed
        self.plan = None

    def propose(self, state: GameState) -> Move:
        if self.plan is None:
            self.plan = make_plan(
                state.graph,
                m=state.m,
                p_hint=self.p_hint,
                expansion_cap=self.expansion_cap,
                seed=self.seed,
            )
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

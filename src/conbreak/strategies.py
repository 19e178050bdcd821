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

from typing import Dict, List, Optional, Type

from .breaker import BadSetDecomposition, breaker_move, find_candidate
from .connector import ConnectorPlan, connector_move, make_plan
from .engine import BREAKER, CONNECTOR, GameState, Move
from .errors import CapacityError, ParameterError
from .graph import Graph
from .rng import Rng, Seed
from .solver import Goal, GOAL_SPANNING, best_move


class RandomStrategy:
    """Claims up to the full bias uniformly among currently legal edges."""

    def __init__(self):
        self.role = ""
        self.rng: Optional[Rng] = None

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        self.role = role
        self.rng = Rng(seed)

    def propose(self, state: GameState) -> Move:
        free = state.free_edges()
        bias = state.bias(self.role)
        if self.role == BREAKER:
            k = min(bias, len(free))
            if k == 0:
                return Move(())
            return Move(tuple(self.rng.sample(free, k)))
        claims: List = []
        vc = set(state.v_c)
        taken = set()
        for _ in range(bias):
            cands = [
                e
                for e in free
                if e not in taken and (not vc or e[0] in vc or e[1] in vc)
            ]
            if not cands:
                break
            e = self.rng.choice(cands)
            taken.add(e)
            claims.append(e)
            vc.update(e)
        return Move(tuple(claims))


class GreedyDegreeStrategy:
    """Deterministic degree chaser.

    Connector grows territory toward high-degree vertices: each claim takes
    the legal free edge whose new endpoint has the largest graph degree
    (lowest edge on ties). Breaker claims the free edges with the largest
    endpoint degree sums.
    """

    def __init__(self):
        self.graph: Optional[Graph] = None
        self.role = ""

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        self.graph = graph
        self.role = role

    def propose(self, state: GameState) -> Move:
        g = self.graph
        free = state.free_edges()
        bias = state.bias(self.role)
        if self.role == BREAKER:
            ranked = sorted(free, key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e))
            return Move(tuple(ranked[:bias]))
        claims: List = []
        vc = set(state.v_c)
        taken = set()
        for _ in range(bias):
            best = None
            best_key = None
            for e in free:
                if e in taken:
                    continue
                u, v = e
                if vc and u not in vc and v not in vc:
                    continue
                outside = [w for w in e if w not in vc]
                gain = max((g.degree(w) for w in outside), default=-1)
                key = (-gain, e)
                if best_key is None or key < best_key:
                    best, best_key = e, key
            if best is None:
                break
            taken.add(best)
            claims.append(best)
            vc.update(best)
        return Move(tuple(claims))


class MinimaxStrategy:
    """Optimal play through the exact solver. Tiny boards only; larger
    boards are refused with CapacityError at propose time."""

    def __init__(self, goal: Goal = GOAL_SPANNING, max_edges: int = 16):
        self.goal = goal
        self.max_edges = max_edges

    def start(self, graph: Graph, role: str, seed: Seed) -> None:
        if graph.edge_count() > self.max_edges:
            raise CapacityError(
                f"board has {graph.edge_count()} edges, minimax allows {self.max_edges}"
            )

    def propose(self, state: GameState) -> Move:
        return best_move(state, goal=self.goal, max_edges=self.max_edges)


FLAG_NO_CANDIDATE = "breaker-no-candidate"
FLAG_TARGET_REACHED = "breaker-target-reached"


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

    def __init__(self, t: int = 7, pad_to: int = 3):
        self.t = t
        self.pad_to = pad_to
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
            if len(m_set) >= self.pad_to:
                break
            if v not in state.v_c:
                m_set.append(v)
        return sorted(m_set)

    def propose(self, state: GameState) -> Move:
        if not self.attempted:
            self.attempted = True
            try:
                found = find_candidate(
                    self.graph, self._padded_m(state), t=self.t, seed=self.seed
                )
            except CapacityError:
                found = None
            if found is None:
                self.pending_flags.append(FLAG_NO_CANDIDATE)
            else:
                self.candidate, self.decomposition = found
                self.cursor = [0]
        flags = tuple(self.pending_flags)
        self.pending_flags = []
        if self.decomposition is not None:
            if self.decomposition.x in state.v_c:
                self.decomposition = None
                flags += (FLAG_TARGET_REACHED,)
            else:
                mv = breaker_move(state, self.decomposition, self.cursor)
                if flags:
                    mv = Move(mv.edges, flags=mv.flags + flags)
                return mv
        mv = Move(tuple(state.lowest_free(state.b, self.cursor)))
        if flags:
            mv = Move(mv.edges, flags=mv.flags + flags)
        return mv


class SpanningConnectorStrategy:
    """Connector's staged tree strategy behind a lazily built plan."""

    def __init__(
        self,
        p_hint: Optional[float] = None,
        k_cap: int = 4,
        expansion_cap: int = 10**6,
    ):
        self.p_hint = p_hint
        self.k_cap = k_cap
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
                k_cap=self.k_cap,
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

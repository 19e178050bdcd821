"""Biased connectivity games on graphs: engine, strategies, verifier, harness.

Two players alternate claiming edges of a shared board graph. The
Connector claims up to m edges per round, each touching her connected
territory; the Breaker claims up to b edges anywhere. The Connector
wins by assembling a spanning connected subgraph, the Breaker by
exhausting the board first. This package provides the referee, an
exact solver for small boards, an isolation strategy for the Breaker,
a spanning-tree strategy for the Connector, the box game it leans on,
structural verifiers for the Breaker's bad set, the Connector's
decomposition and the isolation defense, and a Monte Carlo experiment
harness with a CLI.
"""

from .boxgame import (
    BoxResult,
    BoxState,
    boxbreaker_move_s,
    corollary_bound_holds,
    random_maker,
    run_box_game,
)
from .breaker import (
    BadSetDecomposition,
    breaker_move,
    build_bad_set,
    find_candidate,
    q_violations,
)
from .connector import (
    ConnectorPlan,
    Decomposition,
    TargetChase,
    TreeEmbedding,
    alpha_table,
    connector_move,
    decompose,
    find_structure_stage2,
    find_tree_stage1,
    make_cells,
    make_plan,
    select_target,
    tree_depth_for,
)
from .engine import (
    BREAKER,
    CONNECTOR,
    GameResult,
    GameState,
    Move,
    REASON_EXHAUSTED,
    REASON_FORFEIT,
    REASON_SPANNED,
    Strategy,
    run_game,
    validate_and_apply,
)
from .errors import (
    CapacityError,
    ConbreakError,
    ConnectivityError,
    FormatError,
    GameError,
    IllegalMoveError,
    NoMoveError,
    ParameterError,
)
from .graph import (
    Graph,
    contains_hn,
    edge,
    gen_gnp,
    read_edge_list,
)
from .harness import (
    SummaryRow,
    TrialConfig,
    TrialRecord,
    run_trials,
    threshold_scan,
)
from .rng import Rng, derive, mix64, outputs_at, uniforms_at
from .solver import GOAL_SPANNING, best_move, solve_exact
from .strategies import (
    GreedyDegreeStrategy,
    IsolationBreakerStrategy,
    MinimaxStrategy,
    RandomStrategy,
    SpanningConnectorStrategy,
    make_strategy,
    strategy_ids,
)
from .verifier import (
    Clause,
    PropertyReport,
    check_b,
    check_d,
    check_q,
)

__version__ = "0.1.0"

__all__ = [
    "BadSetDecomposition",
    "BoxResult",
    "BoxState",
    "BREAKER",
    "CapacityError",
    "Clause",
    "ConbreakError",
    "ConnectivityError",
    "CONNECTOR",
    "ConnectorPlan",
    "Decomposition",
    "FormatError",
    "GameError",
    "GameResult",
    "GameState",
    "GOAL_SPANNING",
    "Graph",
    "GreedyDegreeStrategy",
    "IllegalMoveError",
    "IsolationBreakerStrategy",
    "MinimaxStrategy",
    "Move",
    "NoMoveError",
    "ParameterError",
    "PropertyReport",
    "REASON_EXHAUSTED",
    "REASON_FORFEIT",
    "REASON_SPANNED",
    "RandomStrategy",
    "Rng",
    "SpanningConnectorStrategy",
    "Strategy",
    "SummaryRow",
    "TargetChase",
    "TreeEmbedding",
    "TrialConfig",
    "TrialRecord",
    "alpha_table",
    "best_move",
    "boxbreaker_move_s",
    "breaker_move",
    "build_bad_set",
    "check_b",
    "check_d",
    "check_q",
    "connector_move",
    "contains_hn",
    "corollary_bound_holds",
    "decompose",
    "derive",
    "edge",
    "find_candidate",
    "find_structure_stage2",
    "find_tree_stage1",
    "gen_gnp",
    "make_cells",
    "make_plan",
    "make_strategy",
    "mix64",
    "outputs_at",
    "q_violations",
    "random_maker",
    "read_edge_list",
    "run_box_game",
    "run_game",
    "run_trials",
    "select_target",
    "solve_exact",
    "strategy_ids",
    "threshold_scan",
    "tree_depth_for",
    "uniforms_at",
    "validate_and_apply",
]

from __future__ import annotations

import pytest

from conbreak import (
    CapacityError,
    GameState,
    Graph,
    Move,
    ParameterError,
    edge,
    gen_gnp,
    make_strategy,
    run_game,
    strategy_ids,
    validate_and_apply,
)
from conbreak.engine import BREAKER, CONNECTOR, REASON_FORFEIT, REASON_SPANNED
from conbreak.strategies import (
    FLAG_NO_CANDIDATE,
    FLAG_TARGET_REACHED,
    GreedyDegreeStrategy,
    IsolationBreakerStrategy,
    MinimaxStrategy,
    RandomStrategy,
    SpanningConnectorStrategy,
)


def triangle() -> Graph:
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


def matching12() -> Graph:
    return Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])


def test_registry_resolution():
    assert strategy_ids() == [
        "greedy-degree",
        "minimax",
        "paper-breaker",
        "paper-connector",
        "random",
    ]
    assert isinstance(make_strategy("random"), RandomStrategy)
    assert isinstance(make_strategy("greedy-degree"), GreedyDegreeStrategy)
    assert isinstance(make_strategy("minimax"), MinimaxStrategy)
    assert isinstance(make_strategy("paper-breaker"), IsolationBreakerStrategy)
    assert isinstance(make_strategy("paper-connector"), SpanningConnectorStrategy)
    with pytest.raises(ParameterError):
        make_strategy("alpha-beta")


def test_role_guards():
    g = triangle()
    with pytest.raises(ParameterError):
        make_strategy("paper-breaker").start(g, CONNECTOR, 0)
    with pytest.raises(ParameterError):
        make_strategy("paper-connector").start(g, BREAKER, 0)
    make_strategy("paper-breaker").start(g, BREAKER, 0)
    make_strategy("paper-connector").start(g, CONNECTOR, 0)


def test_random_play_is_legal_and_seeded():
    g = gen_gnp(12, 0.4, seed=3)
    first = run_game(g, make_strategy("random"), make_strategy("random"), m=2, b=2, seed=5)
    again = run_game(g, make_strategy("random"), make_strategy("random"), m=2, b=2, seed=5)
    assert first.transcript == again.transcript
    assert first.winner == again.winner
    # a random player never proposes an illegal move, so no forfeits
    for seed in range(8):
        res = run_game(g, make_strategy("random"), make_strategy("random"), m=2, b=2, seed=seed)
        assert res.reason != REASON_FORFEIT
    other = run_game(g, make_strategy("random"), make_strategy("random"), m=2, b=2, seed=6)
    assert other.transcript != first.transcript


def test_random_moves_validate_directly():
    g = gen_gnp(10, 0.5, seed=1)
    state = GameState(g, m=2, b=3)
    conn = make_strategy("random")
    conn.start(g, CONNECTOR, 7)
    mv = conn.propose(state)
    assert 0 < len(mv.edges) <= 2
    state = validate_and_apply(state, mv)
    brk = make_strategy("random")
    brk.start(g, BREAKER, 8)
    mv2 = brk.propose(state)
    assert len(mv2.edges) == 3
    validate_and_apply(state, mv2)


def test_greedy_degree_choices():
    # degrees: 0 -> 3, 3 -> 2, leaves -> 1
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    brk = GreedyDegreeStrategy()
    brk.start(g, BREAKER, 0)
    mv = brk.propose(GameState(g, m=2, b=2))
    assert mv.edges == ((0, 3), (0, 1))  # degree sums 5, then lex tie at 4

    conn = GreedyDegreeStrategy()
    conn.start(g, CONNECTOR, 0)
    mv2 = conn.propose(GameState(g, m=2, b=2))
    assert mv2.edges == ((0, 1), (0, 3))  # anchor on max degree, then chase 3
    # a strategy sees the positions of one game, so the same opening
    # position is proposed on by a fresh instance
    again = GreedyDegreeStrategy()
    again.start(g, CONNECTOR, 0)
    assert again.propose(GameState(g, m=2, b=2)).edges == mv2.edges


def test_minimax_capacity_and_optimality():
    g21 = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    with pytest.raises(CapacityError):
        make_strategy("minimax").start(g21, CONNECTOR, 0)

    res = run_game(triangle(), make_strategy("minimax"), make_strategy("minimax"), m=1, b=1)
    assert res.winner == CONNECTOR and res.reason == REASON_SPANNED

    path = Graph(3, [(0, 1), (1, 2)])
    res2 = run_game(path, make_strategy("minimax"), make_strategy("minimax"), m=1, b=1)
    assert res2.winner == BREAKER


def test_isolation_breaker_defends_sparse_boards():
    n = 200
    p = n ** -0.8
    for seed in range(3):
        g = gen_gnp(n, p, seed=seed)
        brk = make_strategy("paper-breaker")
        res = run_game(g, make_strategy("random"), brk, m=1, b=2, seed=seed + 20)
        assert res.winner == BREAKER
        assert FLAG_NO_CANDIDATE not in res.flags
        assert FLAG_TARGET_REACHED not in res.flags
        assert "breaker-violation-overflow" not in res.flags
        assert brk.candidate is not None
        assert brk.candidate not in res.final_state.v_c


def test_isolation_breaker_falls_back_on_tiny_boards():
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    brk = make_strategy("paper-breaker")
    res = run_game(g, make_strategy("random"), brk, m=1, b=1, seed=2)
    assert FLAG_NO_CANDIDATE in res.flags
    assert brk.candidate is None


def test_isolation_breaker_flags_reached_target():
    g = matching12()
    brk = make_strategy("paper-breaker")
    brk.start(g, BREAKER, 3)
    opening = GameState(g, m=1, b=2, start_vertex=0)
    brk.propose(opening)
    assert brk.candidate is not None and brk.candidate >= 4

    hit = GameState(g, m=1, b=2, start_vertex=brk.candidate)
    mv = brk.propose(hit)
    assert FLAG_TARGET_REACHED in mv.flags
    assert brk.decomposition is None
    # later moves stay on the plain filler path without re-flagging
    assert FLAG_TARGET_REACHED not in brk.propose(hit).flags


def test_spanning_connector_wins_dense_boards():
    for seed in (0, 1):
        g = gen_gnp(80, 0.35, seed=seed)
        conn = make_strategy("paper-connector", p_hint=0.35)
        res = run_game(g, conn, make_strategy("random"), m=2, b=1, seed=seed + 40)
        assert res.winner == CONNECTOR and res.reason == REASON_SPANNED
        assert not any(f.startswith("connector-") for f in res.flags)

    g = gen_gnp(80, 0.35, seed=9)
    conn = make_strategy("paper-connector", p_hint=0.35)
    res = run_game(g, conn, make_strategy("greedy-degree"), m=2, b=1, seed=50)
    assert res.winner == CONNECTOR


def test_spanning_connector_builds_plan_lazily():
    g = gen_gnp(40, 0.4, seed=4)
    conn = make_strategy("paper-connector", p_hint=0.4)
    conn.start(g, CONNECTOR, 11)
    assert conn.plan is None
    conn.propose(GameState(g, m=2, b=1))
    assert conn.plan is not None
    conn.start(g, CONNECTOR, 12)
    assert conn.plan is None


class _RowWalker:
    """A Connector that claims the lowest free edges out of her territory,
    reading only the board's CSR rows."""

    def start(self, graph: Graph, role: str, seed) -> None:
        pass

    def propose(self, state: GameState) -> Move:
        claims = []
        for v in sorted(state.v_c):
            for w in state.graph.row(v):
                e = edge(v, w)
                if state.is_free(e) and e not in claims:
                    claims.append(e)
                    if len(claims) == state.m:
                        return Move(tuple(claims))
        return Move(tuple(claims))


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("exponent", [-0.5, -0.35])
def test_paper_games_build_no_whole_board_view(exponent, seed):
    # the edge frozenset and the sorted edge tuple hold a Python object per
    # edge; the paper strategies and the engine's checks must not build them
    n = 300
    p = n**exponent
    g = gen_gnp(n, p, seed)
    res = run_game(
        g,
        make_strategy("paper-connector", p_hint=p),
        make_strategy("paper-breaker"),
        start_vertex=0,
        seed=seed,
    )
    assert res.rounds > 0
    assert g._sorted is None


def test_isolating_breaker_builds_no_whole_board_view():
    n = 300
    g = gen_gnp(n, n**-0.8, 5)
    breaker = make_strategy("paper-breaker")
    res = run_game(g, _RowWalker(), breaker, start_vertex=0, seed=5)
    assert breaker.candidate is not None and FLAG_NO_CANDIDATE not in res.flags
    assert res.rounds > 10
    assert g._sorted is None

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conbreak import (
    BREAKER,
    CONNECTOR,
    ConnectivityError,
    GameState,
    Graph,
    IllegalMoveError,
    Move,
    ParameterError,
    REASON_EXHAUSTED,
    REASON_FORFEIT,
    REASON_SPANNED,
    gen_gnp,
    make_strategy,
    replay,
    run_game,
    validate_and_apply,
)
from conbreak.engine import replay_states


class Scripted:
    """Plays a fixed list of moves, then empty moves forever."""

    def __init__(self, *moves: Move):
        self.moves = list(moves)

    def start(self, graph, role, seed):
        self.i = 0

    def propose(self, state):
        if self.i < len(self.moves):
            mv = self.moves[self.i]
            self.i += 1
            return mv
        return Move(())


def square() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_state_init_and_accessors():
    g = square()
    s = GameState(g, m=2, b=1, start_vertex=2, connector_edges=[(0, 1)])
    assert s.v_c == {0, 1, 2}
    assert s.bias(CONNECTOR) == 2 and s.bias(BREAKER) == 1
    assert s.free_edge_count() == 3
    assert s.free_edges() == [(0, 3), (1, 2), (2, 3)]
    assert s.is_free((1, 2)) and not s.is_free((0, 1))
    assert s.breaker_degrees[0] == 0
    s2 = s.copy()
    s2.connector_edges.add((1, 2))
    s2.v_c.add(9)
    assert (1, 2) not in s.connector_edges and 9 not in s.v_c


def test_lowest_free_cursor_and_skip():
    s = GameState(square(), connector_edges=[(0, 1)])
    assert s.lowest_free(2) == [(0, 3), (1, 2)]
    cursor = [0]
    assert s.lowest_free(1, cursor, skip={(0, 3)}) == [(1, 2)]
    assert cursor == [3]
    assert s.lowest_free(5, cursor) == [(2, 3)] and cursor == [4]
    assert s.lowest_free(0, cursor) == [] and cursor == [4]


def test_state_parameter_validation():
    g = square()
    with pytest.raises(ParameterError):
        GameState(g, m=0)
    with pytest.raises(ParameterError):
        GameState(g, b=0)
    with pytest.raises(ParameterError):
        GameState(g, start_vertex=4)
    with pytest.raises(ParameterError):
        GameState(g, to_move="X")


def test_state_rejects_an_edge_claimed_by_both():
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    # counting (0, 2) once per player gave free_edge_count() == 2 here
    with pytest.raises(ParameterError, match="both players"):
        GameState(g, connector_edges=[(0, 2)], breaker_edges=[(0, 2)])
    for breaker_edges in ([], [(1, 3)]):
        s = GameState(g, connector_edges=[(0, 2)], breaker_edges=breaker_edges)
        assert s.free_edge_count() == len(s.free_edges()) == 3 - len(breaker_edges)


def test_connector_move_grows_territory_within_move():
    g = square()
    s = GameState(g, m=2, b=2, start_vertex=0)
    # (0,1) touches the start, then (1,2) touches the vertex just gained
    out = validate_and_apply(s, Move.of((0, 1), (1, 2)))
    assert out.v_c == {0, 1, 2}
    assert out.to_move == BREAKER
    assert out.round == 1
    # the same edges in the other order never touch the start first
    with pytest.raises(ConnectivityError):
        validate_and_apply(s, Move.of((1, 2), (0, 1)))


def test_first_move_unanchored_without_start():
    g = square()
    s = GameState(g, m=1, b=1)
    out = validate_and_apply(s, Move.of((2, 3)))
    assert out.v_c == {2, 3}
    # a two-edge opening must still hang together, and a rejected move
    # leaves the state's territory as it was
    s2 = GameState(g, m=2, b=1)
    assert validate_and_apply(s2, Move.of((2, 3), (1, 2))).v_c == {1, 2, 3}
    with pytest.raises(ConnectivityError):
        validate_and_apply(s2, Move.of((2, 3), (0, 1)))
    assert s2.v_c == set()
    anchored = GameState(g, m=2, b=1, start_vertex=0)
    with pytest.raises(ConnectivityError):
        validate_and_apply(anchored, Move.of((0, 1), (2, 3)))
    assert anchored.v_c == {0}


def test_illegal_moves():
    g = square()
    s = GameState(g, m=2, b=2, start_vertex=0)
    with pytest.raises(IllegalMoveError):
        validate_and_apply(s, Move.of((0, 1), (0, 3), (1, 2)))  # over bias
    with pytest.raises(IllegalMoveError):
        validate_and_apply(s, Move.of((0, 2)))  # not a board edge
    with pytest.raises(IllegalMoveError):
        validate_and_apply(s, Move.of((0, 1), (0, 1)))  # duplicate in move
    with pytest.raises(IllegalMoveError):
        validate_and_apply(s, Move(forfeit=True))
    taken = validate_and_apply(s, Move.of((0, 1)))
    assert taken.to_move == BREAKER
    with pytest.raises(IllegalMoveError):
        validate_and_apply(taken, Move.of((0, 1)))  # already Connector's
    after_b = validate_and_apply(taken, Move.of((1, 2)))
    with pytest.raises(IllegalMoveError):
        validate_and_apply(after_b, Move.of((1, 2)))  # already Breaker's


def test_breaker_claims_are_unconstrained():
    g = square()
    s = GameState(g, m=1, b=2, to_move=BREAKER)
    out = validate_and_apply(s, Move.of((0, 1), (2, 3)))
    assert out.breaker_edges == {(0, 1), (2, 3)}
    assert out.round == 2 and out.to_move == CONNECTOR


def test_round_increments_after_breaker_only():
    g = square()
    s = GameState(g, m=1, b=1)
    s = validate_and_apply(s, Move.of((0, 1)))
    assert s.round == 1
    s = validate_and_apply(s, Move.of((2, 3)))
    assert s.round == 2


def test_single_edge_win():
    g = Graph(2, [(0, 1)])
    res = run_game(g, Scripted(Move.of((0, 1))), Scripted(), m=2, b=2)
    assert res.winner == CONNECTOR
    assert res.reason == REASON_SPANNED
    assert res.rounds == 1
    assert res.transcript == ((1, CONNECTOR, ((0, 1),)),)


def test_trivial_board_spans_before_any_move():
    for g in (Graph(0), Graph(1)):
        res = run_game(g, Scripted(), Scripted())
        assert res.winner == CONNECTOR and res.rounds == 0
        assert res.transcript == ()


def test_edgeless_board_exhausts():
    res = run_game(Graph(3), Scripted(), Scripted())
    assert res.winner == BREAKER
    assert res.reason == REASON_EXHAUSTED


def test_stall_rule_two_empty_moves():
    g = square()
    res = run_game(g, Scripted(), Scripted(), m=2, b=2)
    # both players pass immediately: Connector empty, Breaker empty, over
    assert res.winner == BREAKER
    assert res.reason == REASON_EXHAUSTED
    assert res.final_state.free_edge_count() == 4
    assert len(res.transcript) == 2


def test_single_empty_move_does_not_end_game():
    g = square()
    # Connector passes once and Breaker answers with a claim, so no two
    # consecutive moves are empty and the game runs to a span
    conn = Scripted(Move(()), Move.of((0, 1)), Move.of((1, 2)), Move.of((2, 3)))
    res = run_game(g, conn, Scripted(Move.of((0, 3))), m=1, b=1)
    assert res.winner == CONNECTOR
    assert res.reason == REASON_SPANNED
    assert res.rounds == 4


def test_forfeit_move_loses():
    g = square()
    res = run_game(g, Scripted(Move(forfeit=True, flags=("gave-up",))), Scripted())
    assert res.winner == BREAKER
    assert res.reason == REASON_FORFEIT
    assert "gave-up" in res.flags
    res = run_game(g, Scripted(Move.of((0, 1))), Scripted(Move(forfeit=True)))
    assert res.winner == CONNECTOR
    assert res.reason == REASON_FORFEIT


def test_illegal_proposal_counts_as_forfeit():
    g = square()
    res = run_game(g, Scripted(Move.of((0, 2))), Scripted())
    assert res.winner == BREAKER
    assert res.reason == REASON_FORFEIT
    assert res.transcript == ()


def test_breaker_wins_on_exhaustion():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    conn = Scripted(Move.of((0, 1)))
    brk = Scripted(Move.of((1, 2), (0, 2)))
    res = run_game(g, conn, brk, m=1, b=2)
    assert res.winner == BREAKER
    assert res.reason == REASON_EXHAUSTED
    assert res.rounds == 1


@example(9, 0.45, 0, "random", "random")
@example(9, 0.45, 1, "random", "random")
@example(9, 0.45, 2, "random", "random")
@example(9, 0.45, 3, "random", "random")
@example(9, 0.45, 4, "random", "random")
@example(9, 0.45, 5, "random", "random")
@example(9, 0.45, 6, "random", "random")
@example(9, 0.45, 7, "random", "random")
@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 24),
    p=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1),
    connector=st.sampled_from(["random", "greedy-degree"]),
    breaker=st.sampled_from(["random", "greedy-degree", "paper-breaker"]),
)
def test_replay_reproduces_final_state(n, p, seed, connector, breaker):
    g = gen_gnp(n, p, seed)
    res = run_game(
        g,
        make_strategy(connector),
        make_strategy(breaker),
        m=2,
        b=2,
        start_vertex=0,
        seed=seed,
    )
    # the engine's derived facts match a naive recount at every replayed state
    for _, _, s in replay_states(res, g):
        counts = [sum(1 for e in s.breaker_edges if v in e) for v in range(n)]
        assert s.breaker_degrees == counts
        naive_free = [e for e in g.sorted_edges() if s.is_free(e)]
        assert s.free_edges() == naive_free
        assert s.lowest_free(3) == naive_free[:3]
    state = replay(res, g)
    assert state.connector_edges == res.final_state.connector_edges
    assert state.breaker_edges == res.final_state.breaker_edges
    assert state.breaker_degrees == res.final_state.breaker_degrees
    assert state.v_c == res.final_state.v_c


def test_same_seed_same_transcript():
    g = gen_gnp(10, 0.5, 3)
    kw = dict(m=2, b=2, start_vertex=None, seed=77)
    r1 = run_game(g, make_strategy("random"), make_strategy("random"), **kw)
    r2 = run_game(g, make_strategy("random"), make_strategy("random"), **kw)
    assert r1.transcript == r2.transcript
    assert r1.winner == r2.winner and r1.rounds == r2.rounds
    r3 = run_game(g, make_strategy("random"), make_strategy("random"), m=2, b=2, seed=78)
    assert r3.transcript != r1.transcript


def test_transcript_jsonl_shape():
    g = square()
    res = run_game(g, make_strategy("greedy-degree"), make_strategy("greedy-degree"))
    lines = res.transcript_jsonl().strip().split("\n")
    *moves, tail = [json.loads(ln) for ln in lines]
    assert json.loads(lines[-1]) == {"winner": res.winner, "reason": res.reason}
    for rec, (rnd, role, edges) in zip(moves, res.transcript):
        assert rec == {"round": rnd, "player": role, "edges": [list(e) for e in edges]}


def test_move_of_normalizes():
    mv = Move.of((3, 1), (0, 2))
    assert mv.edges == ((1, 3), (0, 2))

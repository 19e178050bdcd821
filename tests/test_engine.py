from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conbreak import (
    BREAKER,
    CONNECTOR,
    ConbreakError,
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
    run_game,
    validate_and_apply,
)
from conbreak.graph import EDGE_CHUNK
from conbreak.rng import Rng

from oracles import free_edge_count, replay_states


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
    assert free_edge_count(s) == 3
    assert s.free_edges() == [(0, 3), (1, 2), (2, 3)]
    assert s.is_free((1, 2)) and not s.is_free((0, 1))
    assert s.moves == []
    s2 = s.copy()
    s2.connector_edges.add((1, 2))
    s2.v_c.add(9)
    s2.moves.append((1, CONNECTOR, ((1, 2),)))
    assert (1, 2) not in s.connector_edges and 9 not in s.v_c and s.moves == []


def test_first_free_kept_iterator_and_skip():
    s = GameState(square(), connector_edges=[(0, 1)])
    assert s.first_free(2) == [(0, 3), (1, 2)]
    scan = s.graph.edges_from()
    assert s.first_free(1, scan, skip={(0, 3)}) == [(1, 2)]
    # k = 0 reads nothing, so the next call still finds (2, 3)
    assert s.first_free(0, scan) == []
    assert s.first_free(5, scan) == [(2, 3)]
    assert list(scan) == []
    # a restart mid-board
    assert s.first_free(5, s.graph.edges_from(2)) == [(1, 2), (2, 3)]


def test_first_free_reads_an_iterator_in_its_own_order():
    s = GameState(square(), connector_edges=[(0, 1)])
    scan = iter([(2, 3), (0, 1), (0, 3), (1, 2)])
    assert s.first_free(1, scan, skip={(2, 3)}) == [(0, 3)]
    assert s.first_free(3, scan) == [(1, 2)]
    assert s.first_free(1, iter([(2, 3), (0, 3)])) == [(2, 3)]


def test_first_free_resumes_across_chunks_between_claims():
    """Successive `first_free` calls through one kept iterator per state,
    with claims applied between them ahead of, inside and behind the
    scan, against a fresh scan of the sorted edge tuple from the position
    the test tracks. The board spans several scan chunks, two states on
    it scan in turn, some calls ask for nothing, which reads nothing, and
    a scan that reaches the end restarts mid-board with `edges_from(i)`."""
    g = gen_gnp(40, 0.5, 3)
    edges = g.sorted_edges()
    assert len(edges) >= 3 * EDGE_CHUNK
    rng = Rng(3)
    states = [GameState(g), GameState(g)]
    at = [0, rng.randrange(len(edges))]
    scans = [g.edges_from(), g.edges_from(at[1])]
    ks = []
    for turn in range(400):
        side = turn % 2
        s, pos = states[side], at[side]
        for _ in range(rng.randrange(4)):
            e = edges[max(0, min(len(edges) - 1, pos + rng.randrange(100) - 20))]
            if s.is_free(e):
                (s.connector_edges if rng.randrange(2) else s.breaker_edges).add(e)
        k = rng.randrange(4)
        skip = {e for e in edges[pos : pos + 30] if rng.randrange(5) == 0}
        want, i = [], pos
        while len(want) < k and i < len(edges):
            if s.is_free(edges[i]) and edges[i] not in skip:
                want.append(edges[i])
            i += 1
        assert s.first_free(k, scans[side], skip) == want
        at[side] = i
        ks.append(k)
        if i == len(edges):
            at[side] = rng.randrange(len(edges))
            scans[side] = g.edges_from(at[side])
    assert 0 in ks
    for pos, scan in zip(at, scans):
        assert tuple(scan) == edges[pos:]


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
    # a bias must be an integer: m = 1.5 let best_move claim four edges
    for bias in (1.5, 2.0, True, None):
        with pytest.raises(ParameterError, match="bias"):
            GameState(g, m=bias)
        with pytest.raises(ParameterError, match="bias"):
            GameState(g, b=bias)
    # run_game with random players died on range(2.5) with a TypeError
    with pytest.raises(ParameterError, match="bias"):
        run_game(g, make_strategy("random"), make_strategy("random"), m=2.5, b=1.5)
    assert GameState(g, m=np.int64(3), b=np.uint8(1)).bias(CONNECTOR) == 3
    # a claim must be a board edge written (u, v) with u < v: a reversed
    # (2, 1) left (1, 2) free to claim again
    for opts in (
        dict(connector_edges=[(2, 1)]),
        dict(connector_edges=[(0, 2)]),
        dict(breaker_edges=[(5, 9)]),
        dict(breaker_edges=[(0.0, 1.0)]),
        dict(start_vertex=1.5),
        dict(start_vertex=True),
    ):
        with pytest.raises(ParameterError):
            GameState(g, **opts)
    one, two = np.int64(1), np.int64(2)
    s = GameState(g, start_vertex=one, connector_edges=[(one, two)])
    assert s.v_c == {1, 2} and not s.is_free((1, 2))


def test_state_rejects_an_edge_claimed_by_both():
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    # counting (0, 2) once per player gave free_edge_count() == 2 here
    with pytest.raises(ParameterError, match="both players"):
        GameState(g, connector_edges=[(0, 2)], breaker_edges=[(0, 2)])
    for breaker_edges in ([], [(1, 3)]):
        s = GameState(g, connector_edges=[(0, 2)], breaker_edges=breaker_edges)
        assert free_edge_count(s) == len(s.free_edges()) == 3 - len(breaker_edges)


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


def test_validate_and_apply_records_one_entry_per_move():
    """Each applied move appends one (round, role, edges) entry to
    `moves`, an empty move and a reversed pair included, and the input
    state's record is left as it was."""
    s0 = GameState(square(), m=2, b=2, start_vertex=0)
    s1 = validate_and_apply(s0, Move.of((0, 1), (1, 2)))
    s2 = validate_and_apply(s1, Move(()))
    s3 = validate_and_apply(s2, Move(((3, 2),)))
    assert s0.moves == []
    assert s1.moves == [(1, CONNECTOR, ((0, 1), (1, 2)))]
    assert s2.moves == s1.moves + [(1, BREAKER, ())]
    assert s3.moves == s2.moves + [(2, CONNECTOR, ((2, 3),))]


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
    assert free_edge_count(res.final_state) == 4
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


# (True, 2) and (1, 2.0) equal the free edge (1, 2) of the square
UNREADABLE = [((0, 0),), ((True, 1),), ((0.0, 1),), (None,), ((0, 1, 2),), ((0, 4),),
              ((True, 2),), ((1, 2.0),)]


@pytest.mark.parametrize("edges", UNREADABLE + [None], ids=repr)
@pytest.mark.parametrize("role", [CONNECTOR, BREAKER])
def test_unreadable_proposal_counts_as_forfeit(edges, role):
    # a loop, a bool or float vertex, a non-pair or an off-board vertex:
    # the game ends against the proposer instead of raising out of the loop
    g = square()
    bad = Scripted(Move(edges, flags=("bad",)))
    if role == CONNECTOR:
        res = run_game(g, bad, Scripted())
    else:
        res = run_game(g, Scripted(Move.of((0, 1))), bad)
    assert res.winner == (BREAKER if role == CONNECTOR else CONNECTOR)
    assert res.reason == REASON_FORFEIT and res.flags == ("bad",)
    assert [r for _, r, _ in res.transcript] == [CONNECTOR] * (role == BREAKER)
    # the move checks outside the game loop raise a package error
    with pytest.raises(ConbreakError):
        validate_and_apply(res.final_state, Move(edges))
    recorded = dataclasses.replace(res, transcript=res.transcript + ((1, role, edges),))
    with pytest.raises(ConbreakError):
        list(replay_states(recorded, g))


def test_numpy_vertices_are_played_as_ints():
    g = square()
    conn = Scripted(Move(((np.int64(2), np.int32(1)),)))
    brk = Scripted(Move(((np.int64(3), np.uint8(2)),)))
    res = run_game(g, conn, brk, m=2, b=2)
    assert res.transcript[:2] == ((1, CONNECTOR, ((1, 2),)), (1, BREAKER, ((2, 3),)))
    s = res.final_state
    played = [w for _, _, edges in res.transcript for e in edges for w in e]
    played += [w for _, _, edges in s.moves for e in edges for w in e] + s.territory
    assert all(type(w) is int for w in played)
    assert res.transcript_jsonl().startswith('{"round":1,"player":"C","edges":[[1,2]]}\n')
    nxt = validate_and_apply(GameState(g, start_vertex=0), Move(((np.int16(0), 1),)))
    assert all(type(w) is int for w in nxt.territory) and nxt.moves == [(1, CONNECTOR, ((0, 1),))]


def test_run_game_checks_the_seed():
    for seed in (-5, 2**64, 10**23, True, 1.0):
        with pytest.raises(ParameterError, match="seed"):
            run_game(square(), Scripted(), Scripted(), seed=seed)
    assert run_game(square(), Scripted(), Scripted(), seed=2**64 - 1).seed == 2**64 - 1


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
    # the engine's derived facts match a naive recount at every replayed
    # state, and the last one (the start, when no move was made) is final
    state = GameState(g, m=2, b=2, start_vertex=0)
    for _, _, state in replay_states(res, g):
        naive_free = [e for e in g.sorted_edges() if state.is_free(e)]
        assert state.free_edges() == naive_free
        assert state.first_free(3) == naive_free[:3]
    assert state.connector_edges == res.final_state.connector_edges
    assert state.breaker_edges == res.final_state.breaker_edges
    assert state.moves == list(res.transcript)
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


def test_edge_tests_on_reversed_pairs_loops_and_off_board_vertices():
    s = GameState(square(), start_vertex=0)
    assert s.is_free((0, 1)) and s.is_free((0, 3))
    for e in [(1, 0), (3, 0), (0, 0), (2, 2), (-1, 0), (0, -1), (-1, 3), (0, 4), (3, 4), (4, 5)]:
        assert not s.is_free(e), e
    with pytest.raises(ParameterError):
        s.graph.has_edge(1, 1)
    # a move may name an edge in either orientation
    after = validate_and_apply(s, Move(((1, 0),)))
    assert after.connector_edges == {(0, 1)}
    with pytest.raises(ParameterError):
        validate_and_apply(s, Move(((0, 0),)))
    for e in [(0, 4), (4, 0), (-1, 0), (0, -1), (-1, 3)]:
        with pytest.raises(IllegalMoveError, match="is not an edge of the board") as info:
            validate_and_apply(s, Move((e,)))
        assert info.value.edge == (min(e), max(e))


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 30),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    start=st.integers(0, 450),
    k=st.integers(0, 6),
)
@example(n=30, p=1.0, seed=0, start=60, k=6)
def test_first_free_matches_a_tuple_scan(n, p, seed, start, k):
    g = gen_gnp(n, p, seed)
    edges = g.sorted_edges()
    rng = Rng(seed)
    claimed = [e for e in edges if rng.randrange(3) == 0]
    connector, breaker = claimed[::2], claimed[1::2]
    skip = {e for e in edges if rng.randrange(4) == 0}
    s = GameState(g, connector_edges=connector, breaker_edges=breaker)
    scan = g.edges_from(start)
    i = start
    # the second call must continue from where the first stopped
    for _ in range(2):
        want = []
        while len(want) < k and i < len(edges):
            e = edges[i]
            if e not in connector and e not in breaker and e not in skip:
                want.append(e)
            i += 1
        assert s.first_free(k, scan, skip) == want
    assert tuple(scan) == edges[i:]
    free = [e for e in edges if e not in connector and e not in breaker]
    assert s.first_free(k) == free[:k]

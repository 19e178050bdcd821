from __future__ import annotations

import numpy as np
import pytest

from conbreak import (
    BREAKER,
    CONNECTOR,
    CapacityError,
    GameState,
    Graph,
    MinimaxStrategy,
    Move,
    ParameterError,
    best_move,
    gen_gnp,
    run_game,
    solve_exact,
    validate_and_apply,
)

from oracles import (
    all_labeled_graphs,
    canonical_form,
    connected_graph_classes,
    connected_graph_classes_slow,
    oracle_game_value,
)

BIASES = [(1, 1), (1, 2), (2, 1), (2, 2)]
# the search explores full moves only, an argument that leans on the biases
WIDE_BIASES = [(3, 1), (1, 3), (3, 3), (3, 2), (2, 3)]


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_class_corpus_matches_the_slow_enumeration():
    # the two enumerators pick different representatives of each class
    def classes(corpus):
        return sorted(tuple(sorted(canonical_form(g))) for g in corpus)

    for n in range(0, 6):
        fast = connected_graph_classes(n)
        assert classes(fast) == classes(connected_graph_classes_slow(n)), n
        assert len(set(classes(fast))) == len(fast), n
    # the empty board is the one class on 0 vertices, as on 1
    assert connected_graph_classes(0) == (Graph(0),)
    assert connected_graph_classes(1) == (Graph(1),)


def test_anchor_values():
    assert solve_exact(triangle(), 1, 1) == CONNECTOR
    assert solve_exact(Graph(3, [(0, 1), (1, 2)]), 1, 1) == BREAKER
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert solve_exact(k4, 1, 1) == CONNECTOR
    assert solve_exact(k4, 1, 2) == BREAKER
    # K4 minus an edge still has a dominating adjacent pair
    k4m = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert solve_exact(k4m, 1, 1) == CONNECTOR
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert solve_exact(star, 1, 1) == BREAKER
    assert solve_exact(star, 3, 1) == CONNECTOR


def test_trivial_boards():
    assert solve_exact(Graph(1), 1, 1) == CONNECTOR
    assert solve_exact(Graph(2), 1, 1) == BREAKER  # no edge to claim
    assert solve_exact(Graph(2, [(0, 1)]), 1, 1) == CONNECTOR
    assert solve_exact(Graph(2, [(0, 1)]), 1, 1, first=BREAKER) == BREAKER


def test_matches_oracle_exhaustive_small():
    for n in (2, 3):
        for g in all_labeled_graphs(n):
            for m, b in BIASES:
                for first in (CONNECTOR, BREAKER):
                    got = solve_exact(g, m, b, first=first)
                    want = oracle_game_value(g, m, b, first=first)
                    assert got == want, (n, g.sorted_edges(), m, b, first)


def test_matches_oracle_n4_both_goals():
    reach = ("reach", 2)
    for g in all_labeled_graphs(4):
        for m, b in BIASES:
            assert solve_exact(g, m, b) == oracle_game_value(g, m, b)
            got = solve_exact(g, m, b, goal=reach, start_vertex=0)
            want = oracle_game_value(g, m, b, goal=reach, start_vertex=0)
            assert got == want, (g.sorted_edges(), m, b)
        for m, b in WIDE_BIASES:
            for first in (CONNECTOR, BREAKER):
                for start in (None, 0):
                    for goal in ("spanning", reach):
                        got = solve_exact(g, m, b, first, goal, start)
                        want = oracle_game_value(g, m, b, first, goal, start)
                        assert got == want, (g.sorted_edges(), m, b, first, start, goal)


def test_sixteen_edge_answers_pinned():
    # (2:2) play from vertex 0 on boards at the size limit
    for seed, want in ((1000, BREAKER), (1033, CONNECTOR), (1045, CONNECTOR)):
        g = gen_gnp(8, 0.55, seed)
        assert g.edge_count() == 16
        assert solve_exact(g, 2, 2, start_vertex=0) == want, seed


def test_matches_oracle_n5_classes():
    reach = ("reach", 4)
    for g in connected_graph_classes(5):
        for m, b in ((1, 1), (1, 2)):
            assert solve_exact(g, m, b) == oracle_game_value(g, m, b)
            got = solve_exact(g, m, b, goal=reach, start_vertex=0)
            want = oracle_game_value(g, m, b, goal=reach, start_vertex=0)
            assert got == want, (g.sorted_edges(), m, b)


def test_start_vertex_spanning_matches_oracle():
    for g in all_labeled_graphs(3):
        for m, b in ((1, 1), (2, 2)):
            got = solve_exact(g, m, b, start_vertex=0)
            want = oracle_game_value(g, m, b, start_vertex=0)
            assert got == want, (g.sorted_edges(), m, b)


def test_bias_monotonicity():
    # more Connector claims or fewer Breaker claims never hurt Connector
    corpus = list(all_labeled_graphs(4)) + list(connected_graph_classes(5))
    for g in corpus:
        wins = {(m, b): solve_exact(g, m, b) == CONNECTOR for m, b in BIASES}
        if wins[(1, 2)]:
            assert wins[(1, 1)] and wins[(2, 2)]
        if wins[(1, 1)]:
            assert wins[(2, 1)]
        if wins[(2, 2)]:
            assert wins[(2, 1)]


def test_parameter_validation():
    g = triangle()
    with pytest.raises(ParameterError):
        solve_exact(g, 0, 1)
    with pytest.raises(ParameterError):
        solve_exact(g, 1, 0)
    with pytest.raises(ParameterError):
        solve_exact(g, 1, 1, first="Z")
    # a bias must be an integer: on the 4-cycle, m = 1.5 played as m = 2
    cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for m, b in ((1.5, 1), (1, 1.5), (True, 1), (1, True), (2.0, 1)):
        with pytest.raises(ParameterError, match="bias"):
            solve_exact(cycle, m, b)
    with pytest.raises(ParameterError, match="bias"):
        best_move(GameState(cycle, m=1.5, b=1, start_vertex=0))
    assert solve_exact(cycle, np.int64(1), np.int64(1)) == solve_exact(cycle, 1, 1)
    with pytest.raises(ParameterError):
        solve_exact(g, 1, 1, goal="nonsense")
    with pytest.raises(ParameterError):
        solve_exact(g, 1, 1, goal=("reach", 5))
    for bad in (3, 1.5, True):
        with pytest.raises(ParameterError):
            solve_exact(g, 1, 1, start_vertex=bad)
        with pytest.raises(ParameterError):
            solve_exact(g, 1, 1, goal=("reach", bad))


def test_capacity_guards():
    big = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    with pytest.raises(CapacityError):
        solve_exact(big, 1, 1)  # 21 edges > 16
    with pytest.raises(CapacityError):
        best_move(GameState(big))
    # 16 edges pass the guard; reaching vertex 1 takes one claim
    at_bound = Graph(7, big.sorted_edges()[:16])
    assert solve_exact(at_bound, 1, 1, goal=("reach", 1), start_vertex=0) == CONNECTOR


def test_best_move_on_met_goal_is_empty():
    g = Graph(2, [(0, 1)])
    s = GameState(g, connector_edges=[(0, 1)], to_move=BREAKER)
    assert best_move(s) == Move(())


def test_best_move_wins_single_edge():
    g = Graph(2, [(0, 1)])
    mv = best_move(GameState(g, m=1, b=1))
    assert mv.edges == ((0, 1),)


def test_best_move_preserves_win():
    # play solver against solver; outcome must match the solved value
    for g in connected_graph_classes(4):
        for m, b in ((1, 1), (1, 2), (2, 2)):
            want = solve_exact(g, m, b)
            res = run_game(g, MinimaxStrategy(), MinimaxStrategy(), m=m, b=b)
            assert res.winner == want, (g.sorted_edges(), m, b)


def test_best_move_order_on_disconnected_free_opening():
    # every move loses on this disconnected board with no territory yet,
    # so best_move plays its first candidate: the largest claim set
    g = Graph(7, [(1, 6), (2, 3), (3, 5)])
    assert best_move(GameState(g, m=2, b=1)).edges == ((2, 3), (3, 5))


def test_best_move_refuses_big_board():
    big = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    with pytest.raises(CapacityError):
        best_move(GameState(big))


def test_best_move_breaker_blocks():
    # path on 3, Connector already holds (0,1); Breaker's only saving claim
    # set must include (1,2) to deny the span
    g = Graph(3, [(0, 1), (1, 2)])
    s = GameState(g, m=1, b=1, connector_edges=[(0, 1)], to_move=BREAKER)
    mv = best_move(s)
    assert (1, 2) in mv.edges
    after = validate_and_apply(s, mv)
    assert solve_exact(g, 1, 1) in (CONNECTOR, BREAKER)  # sanity, board solvable
    assert not after.connector_has_spanned()

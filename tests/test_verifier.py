from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from conbreak import (
    BadSetDecomposition,
    Clause,
    Decomposition,
    GameResult,
    GameState,
    Graph,
    Move,
    ParameterError,
    build_bad_set,
    check_b,
    check_d,
    check_q,
    decompose,
    edge,
    gen_gnp,
    make_strategy,
    run_game,
    validate_and_apply,
)
from conbreak.engine import BREAKER, CONNECTOR, REASON_EXHAUSTED

from oracles import hand_cells, naive_check_q


def fan_graph() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


@lru_cache(maxsize=None)
def k25_dec() -> Decomposition:
    g = complete_graph(25)
    cells = hand_cells(25, 0, 2, 2, seed=2)
    dec = decompose(g, 0, cells, 2)
    assert dec is not None
    return dec


# ---------------------------------------------------------------------------
# B family


def test_b_worked_example_all_pass():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    rep = check_b(g, dec, frozenset())
    assert rep.family == "B"
    assert set(rep.clauses) == {"B1", "B2", "B3", "B4"}
    assert all(c.passed for c in rep.clauses.values())
    assert rep.all_passed()
    assert rep.failures() == []
    assert rep.params["r_x"] == 2 and rep.params["x"] == 0


@pytest.mark.parametrize("v", [5, 999, -1])
def test_b_rejects_off_board_territory(v):
    # -1 would otherwise wrap to the last vertex, 999 crash with IndexError
    g = fan_graph()
    with pytest.raises(ParameterError, match=f"protected vertex {v} out of range"):
        check_b(g, build_bad_set(g, 0), {1, v})


@pytest.mark.parametrize("m_set", [[True, 2.5], [1, True], [2.0], ["1"]])
def test_b_refuses_a_non_integer_territory(m_set):
    # a bool or float would pass the range check and crash or alias a vertex
    g = gen_gnp(30, 0.1, 2)
    with pytest.raises(ParameterError, match="protected vertex .* is not an integer"):
        check_b(g, build_bad_set(g, 0), m_set)


def test_b_refuses_a_non_integer_center_or_bad_vertex():
    g = fan_graph()
    with pytest.raises(ParameterError, match="center 0.0 is not a vertex"):
        check_b(g, BadSetDecomposition(x=0.0, layers=(frozenset({1, 2, 3}),)), ())
    with pytest.raises(ParameterError, match="bad vertex 4.0 is not an integer"):
        check_b(g, BadSetDecomposition(x=0, layers=(frozenset({1, 2, 3}), frozenset({4.0}))), ())
    # numpy integers are vertices
    assert check_b(g, build_bad_set(g, 0), np.array([4])).clauses["B4"].passed is False


@pytest.mark.parametrize("v", [5, -1])
def test_b_rejects_off_board_bad_vertices(v):
    # B2 and B3 index a vertex mask: -1 would wrap to the last vertex
    g = fan_graph()
    dec = BadSetDecomposition(x=0, layers=(frozenset({1, 2, 3}), frozenset({v})))
    with pytest.raises(ParameterError, match=f"bad vertex {v} out of range"):
        check_b(g, dec, ())


def test_b1_flags_edge_inside_first_layer():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    dec = build_bad_set(g, 0)
    rep = check_b(g, dec, frozenset())
    b1 = rep.clauses["B1"]
    assert not b1.passed
    assert b1.witness == {"edge": (1, 2), "reason": "edge inside first layer"}
    assert not rep.all_passed()


def test_b1_flags_layer_neighborhood_mismatch():
    g = Graph(3, [(0, 1), (0, 2)])
    dec = BadSetDecomposition(x=0, layers=(frozenset({1}),))
    rep = check_b(g, dec, frozenset())
    assert rep.clauses["B1"].witness == {
        "vertex": 2,
        "reason": "first layer != neighborhood",
    }


def test_b2_flags_wrong_inner_degree():
    # vertex 2 has only one neighbor among the first two layers
    g = Graph(3, [(0, 1), (1, 2)])
    dec = BadSetDecomposition(x=0, layers=(frozenset({1}), frozenset({2})))
    rep = check_b(g, dec, frozenset())
    assert rep.clauses["B2"].witness == {"vertex": 2, "layer": 2, "degree": 1}
    assert rep.failures() == ["B2"]


def test_b3_b4_surface_excluded_vertices():
    # excluding 3 stops the layering, leaving 3 outside with two bad neighbors
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    dec = build_bad_set(g, 0, excluded=(3,))
    assert dec.layers == (frozenset({1, 2}),)
    rep = check_b(g, dec, frozenset())
    assert rep.clauses["B1"].passed and rep.clauses["B2"].passed
    assert rep.clauses["B3"].witness == {"vertex": 3, "degree": 2}
    assert rep.clauses["B4"].passed

    rep2 = check_b(g, dec, frozenset({3}))
    assert rep2.clauses["B4"].witness == {"vertex": 1}


def literal_b_verdicts(g: Graph, dec: BadSetDecomposition, m_set) -> dict:
    first = set(dec.layers[0])
    bad = set(dec.union)
    b1 = first == set(g.row(dec.x)) and not any(
        g.has_edge(u, v) for u in first for v in first if u < v
    )
    b2 = True
    for i in range(2, dec.r_x + 1):
        upto = set().union(*dec.layers[:i])
        for v in dec.layers[i - 1]:
            if len(set(g.row(v)) & upto) != 2:
                b2 = False
    b3 = all(
        len(set(g.row(v)) & bad) <= 1
        for v in range(g.n)
        if v != dec.x and v not in bad
    )
    closed = set(m_set)
    for u in m_set:
        closed |= set(g.row(u))
    b4 = not (bad & closed)
    return {"B1": b1, "B2": b2, "B3": b3, "B4": b4}


def test_b_matches_literal_transcription():
    for seed in range(5):
        for p in (0.25, 0.5):
            g = gen_gnp(9, p, seed=seed * 7 + int(p * 100))
            for x in range(0, 9, 2):
                decs = [
                    build_bad_set(g, x),
                    build_bad_set(g, x, excluded=((x + 1) % 9, (x + 4) % 9)),
                ]
                msets = [frozenset(), frozenset({(x + 3) % 9})]
                for dec in decs:
                    for m in msets:
                        rep = check_b(g, dec, m)
                        got = {k: c.passed for k, c in rep.clauses.items()}
                        assert got == literal_b_verdicts(g, dec, m)
                        for c in rep.clauses.values():
                            if not c.passed:
                                assert "vertex" in c.witness or "edge" in c.witness


# ---------------------------------------------------------------------------
# D family


def test_d_on_valid_decomposition():
    dec = k25_dec()
    rep = check_d(dec)
    assert set(rep.clauses) == {"D1", "D3", "D5", "D6"}
    assert rep.all_passed() and rep.failures() == []

    full = check_d(dec, eps=0.3)
    assert set(full.clauses) == {"D1", "D3", "D4", "D5", "D6"}
    assert full.all_passed() and full.failures() == []
    assert full.params["alphas"] == [1, 4]
    assert full.params["eps"] == 0.3


def test_d1_catches_selection_outside_cell():
    dec = k25_dec()
    stranger = min(dec.mset((1, 1, 2)))
    msets = tuple(
        (key, m | {stranger} if key == (2, 1, 1) else m) for key, m in dec.msets
    )
    rep = check_d(replace(dec, msets=msets))
    assert rep.clauses["D1"].witness == {"key": (2, 1, 1), "vertex": stranger}
    assert rep.clauses["D5"].passed and rep.clauses["D6"].passed


def test_d3_catches_lost_child_link():
    dec = k25_dec()
    v = min(dec.mset((2, 1, 1)))
    cut = {edge(v, w) for w in dec.mset((1, 1, 1))}
    h = Graph(dec.n, [e for e in dec.h.sorted_edges() if e not in cut])
    rep = check_d(replace(dec, h=h))
    assert rep.clauses["D3"].witness == {"key": (2, 1, 1), "vertex": v}
    assert rep.failures() == ["D3"]


def test_d5_catches_detached_first_level():
    dec = k25_dec()
    w = min(dec.mset((1, 1, 1)))
    h = Graph(dec.n, [e for e in dec.h.sorted_edges() if e != edge(0, w)])
    rep = check_d(replace(dec, h=h))
    assert rep.clauses["D5"].witness == {"key": (1, 1, 1), "vertex": w}
    assert rep.failures() == ["D5"]


def test_d6_catches_stray_skeleton_edge():
    dec = k25_dec()
    u = min(dec.mset((2, 1, 1)))
    v = min(dec.mset((2, 1, 2)))
    h = Graph(dec.n, list(dec.h.sorted_edges()) + [edge(u, v)])
    rep = check_d(replace(dec, h=h))
    assert rep.clauses["D6"].witness == {"edge": edge(u, v)}
    assert rep.failures() == ["D6"]


def test_d_diagnostic_misses_do_not_fail_report():
    dec = k25_dec()
    rep = check_d(dec, eps=0.05)
    d4 = rep.clauses["D4"]
    assert not d4.passed and d4.diagnostic
    assert d4.witness["degree"] == 2
    assert d4.witness["bound"] == pytest.approx(25 ** (3 * 0.05))
    assert rep.all_passed()
    assert rep.failures() == ["D4"]


# ---------------------------------------------------------------------------
# Q family


def play_record(g, m, b, start, entries, winner, reason):
    state = GameState(g, m=m, b=b, start_vertex=start)
    for _, _, edges in entries:
        state = validate_and_apply(state, Move(tuple(edges)))
    rounds = entries[-1][0] if entries else 0
    return GameResult(
        winner=winner,
        reason=reason,
        rounds=rounds,
        transcript=tuple(entries),
        flags=(),
        final_state=state,
        m=m,
        b=b,
        start_vertex=start,
        seed=0,
    )


def test_q_clean_defense():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    entries = (
        (1, CONNECTOR, ((2, 4),)),
        (1, BREAKER, ((0, 2), (1, 4))),
        (2, CONNECTOR, ()),
        (2, BREAKER, ()),
    )
    result = play_record(g, 1, 2, 4, entries, BREAKER, REASON_EXHAUSTED)
    rep = check_q(g, result, dec)
    assert rep.family == "Q"
    assert rep.clauses["isolated"].passed
    assert rep.clauses["cleared"].passed
    assert rep.all_passed()
    assert rep.params["winner"] == BREAKER


def test_q_uncleared_violation():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    entries = (
        (1, CONNECTOR, ((2, 4),)),
        (1, BREAKER, ()),
    )
    result = play_record(g, 1, 2, 4, entries, BREAKER, REASON_EXHAUSTED)
    rep = check_q(g, result, dec)
    assert rep.clauses["isolated"].passed
    assert rep.clauses["cleared"].witness == {
        "round": 1,
        "edges": [[0, 2], [1, 4]],
    }


def test_q_center_entered_territory():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    entries = ((1, CONNECTOR, ((0, 2),)),)
    result = play_record(g, 1, 2, 2, entries, CONNECTOR, "spanned")
    rep = check_q(g, result, dec)
    assert rep.clauses["isolated"].witness == {"round": 1}
    assert rep.clauses["cleared"].passed


def test_q_center_as_start_vertex():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    result = play_record(g, 1, 2, 0, (), BREAKER, REASON_EXHAUSTED)
    rep = check_q(g, result, dec)
    assert rep.clauses["isolated"].witness == {
        "round": 0,
        "reason": "center is the start vertex",
    }


def test_q_violation_closed_by_its_outer_end_joining():
    # the fan graph with a triangle 3-5-6 hung off the first layer: 5 and
    # 6 lie off the bad layers of 0, and 3 can join through 6 as well as 5
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (3, 6), (5, 6)])
    dec = build_bad_set(g, 0)
    entries = (
        (1, CONNECTOR, ((5, 6), (3, 6))),
        (1, BREAKER, ((0, 3),)),
        (2, CONNECTOR, ()),
        (2, BREAKER, ()),
    )
    result = play_record(g, 2, 2, 5, entries, BREAKER, REASON_EXHAUSTED)
    # (3, 5) stays free with 5 in territory from the start, but 3 joined
    # before Breaker's first reply, so it was never a violation
    assert result.final_state.is_free((3, 5))
    rep = check_q(g, result, dec)
    assert rep.clauses["cleared"].passed and rep.clauses["isolated"].passed


def test_q_violation_surviving_two_replies_reports_the_first():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    entries = (
        (1, CONNECTOR, ((2, 4),)),
        (1, BREAKER, ((0, 2),)),
        (2, CONNECTOR, ()),
        (2, BREAKER, ()),
    )
    result = play_record(g, 1, 2, 4, entries, BREAKER, REASON_EXHAUSTED)
    rep = check_q(g, result, dec)
    assert rep.clauses["cleared"].witness == {"round": 1, "edges": [[1, 4]]}
    assert rep.clauses["isolated"].passed


def test_q_uncleared_before_the_center_joins():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    entries = (
        (1, CONNECTOR, ((2, 4),)),
        (1, BREAKER, ()),
        (2, CONNECTOR, ((0, 2),)),
    )
    result = play_record(g, 1, 2, 4, entries, CONNECTOR, "spanned")
    rep = check_q(g, result, dec)
    assert rep.clauses["cleared"].witness == {"round": 1, "edges": [[0, 2], [1, 4]]}
    assert rep.clauses["isolated"].witness == {"round": 2}


def test_q_walk_matches_replay_on_played_games():
    # random and greedy Connectors against the paper Breaker, audited
    # around its adopted center and around three fixed ones
    failed = Counter()
    games = itertools.product((30, 60, 200), range(8), ("random", "greedy-degree"))
    for n, seed, connector in games:
        g = gen_gnp(n, n**-0.8 if seed % 2 else 0.1, seed)
        breaker = make_strategy("paper-breaker")
        start = 0 if seed % 3 else None
        result = run_game(g, make_strategy(connector), breaker, start_vertex=start, seed=seed)
        decs = [build_bad_set(g, x) for x in (0, 1, n // 2)]
        if breaker.decomposition is not None:
            decs.append(breaker.decomposition)
        for dec in decs:
            rep = check_q(g, result, dec)
            expected = naive_check_q(g, result, dec).to_json()
            assert rep.to_json() == expected, (n, seed, connector, dec.x)
            failed.update(rep.failures())
    assert failed["cleared"] >= 20 and failed["isolated"] >= 20, failed


def test_q_rejects_out_of_turn_transcript():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    result = GameResult(
        winner=BREAKER,
        reason=REASON_EXHAUSTED,
        rounds=1,
        transcript=((1, BREAKER, ((0, 1),)),),
        flags=(),
        final_state=GameState(g, m=1, b=2, start_vertex=4),
        m=1,
        b=2,
        start_vertex=4,
        seed=0,
    )
    with pytest.raises(ParameterError):
        check_q(g, result, dec)


# ---------------------------------------------------------------------------
# serialization


def test_report_serialization_shape():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    rep = check_b(g, build_bad_set(g, 0), frozenset())
    d = rep.to_dict()
    assert d["family"] == "B"
    assert d["all_passed"] is False
    assert d["clauses"]["B1"] == {
        "passed": False,
        "witness": {"edge": [1, 2], "reason": "edge inside first layer"},
    }
    assert d["clauses"]["B2"] == {"passed": True}
    assert json.loads(rep.to_json()) == d
    assert "\n" in rep.to_json(indent=2)
    text = rep.to_json()
    assert text.index('"all_passed"') < text.index('"clauses"') < text.index('"family"')


def test_clause_to_dict_jsonable():
    c = Clause(False, {"set": frozenset({3, 1}), "pair": (2, 5)})
    assert c.to_dict() == {"passed": False, "witness": {"set": [1, 3], "pair": [2, 5]}}
    assert Clause(True, diagnostic=True).to_dict() == {"passed": True, "diagnostic": True}
    assert Clause(True).to_dict() == {"passed": True}

from __future__ import annotations

import json
import math
from dataclasses import replace
from functools import lru_cache

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
    SuccessiveBadSets,
    TreeEmbedding,
    build_bad_set,
    build_successive,
    check_b,
    check_d,
    check_p,
    check_q,
    check_s,
    decompose,
    edge,
    gen_gnp,
    make_cells,
    regime_ok,
    validate_and_apply,
)
from conbreak.engine import BREAKER, CONNECTOR, REASON_EXHAUSTED
from conbreak.verifier import check_degree_into, check_degree_upper


def fan_graph() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)])


def fan_tail_graph() -> Graph:
    # the fan plus a two-edge tail hanging off vertex 4
    return Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (4, 5), (5, 6)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


@lru_cache(maxsize=None)
def k25_dec() -> Decomposition:
    g = complete_graph(25)
    cells = make_cells(25, x=0, k=2, seed=2, cell_size=2)
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
    b1 = first == set(g.neighbors(dec.x)) and not any(
        g.has_edge(u, v) for u in first for v in first if u < v
    )
    b2 = True
    for i in range(2, dec.r_x + 1):
        upto = set().union(*dec.layers[:i])
        for v in dec.layers[i - 1]:
            if len(g.neighbors(v) & upto) != 2:
                b2 = False
    b3 = all(
        len(g.neighbors(v) & bad) <= 1
        for v in range(g.n)
        if v != dec.x and v not in bad
    )
    closed = set(m_set)
    for u in m_set:
        closed |= g.neighbors(u)
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
# P family


def test_p_worked_example():
    g = fan_tail_graph()
    succ = build_successive(g, [0, 5])
    rep = check_p(g, succ, eps=0.45)
    assert rep.params["t"] == 2
    assert rep.params["depth_cap"] == 3
    assert rep.params["regime_ok"] is False

    # candidate 5 is adjacent to bad vertex 4, so the spacing clause trips
    assert rep.clauses["P1"].witness == {"candidate": 2, "vertex": 5}
    assert rep.clauses["P3"].passed
    assert rep.clauses["P4"].passed
    assert rep.clauses["P6"].passed
    p2 = rep.clauses["P2"]
    assert not p2.passed and p2.diagnostic
    assert p2.witness["candidate"] == 1 and p2.witness["layer"] == 1
    assert p2.witness["size"] == 3
    assert p2.witness["bound"] == pytest.approx(7 ** ((1 - 0.45) / 3))
    assert rep.clauses["P5"].passed and rep.clauses["P5"].diagnostic
    assert not rep.all_passed()
    assert rep.failures() == ["P1", "P2"]


def test_p_depth_cap_clause():
    g = fan_tail_graph()
    succ = build_successive(g, [0])
    rep = check_p(g, succ, eps=1.0)
    assert rep.clauses["P6"].witness == {"candidate": 1, "r": 2, "cap": 1}
    assert rep.clauses["P1"].passed and rep.clauses["P4"].passed
    assert rep.clauses["P5"].diagnostic
    assert not rep.all_passed()


def test_p4_flags_layer_overlap():
    g = fan_tail_graph()
    base = build_successive(g, [0])
    tampered = SuccessiveBadSets(
        candidates=(0, 5),
        decomps=(base.decomps[0], BadSetDecomposition(x=5, layers=(frozenset({4, 6}),))),
    )
    rep = check_p(g, tampered, eps=0.45)
    assert rep.clauses["P4"].witness == {"candidate": 2, "layer": 1, "vertex": 4}
    assert rep.clauses["P3"].passed


def test_p_rejects_nonpositive_eps():
    g = fan_graph()
    succ = build_successive(g, [0])
    with pytest.raises(ParameterError):
        check_p(g, succ, eps=0.0)
    with pytest.raises(ParameterError):
        check_p(g, succ, eps=-0.2)


def test_regime_ok_numeric():
    assert not regime_ok(2, 100.0)
    thr = 7.0 * math.log(math.log(50)) / math.log(50)
    assert regime_ok(50, thr)
    assert not regime_ok(50, thr - 1e-9)
    # the threshold shrinks for astronomically large boards
    assert regime_ok(10**100, 0.2)
    assert not regime_ok(10**6, 0.2)


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
# S family


def pivot_structure():
    # a=0 reaches pivot z=1; two depth-2 trees (roots 2 and 5) hang off z
    # and their leaves all reach the target x=8
    g = Graph(
        9,
        [
            (0, 1),
            (1, 2),
            (1, 5),
            (2, 3),
            (2, 4),
            (5, 6),
            (5, 7),
            (3, 8),
            (4, 8),
            (6, 8),
            (7, 8),
        ],
    )
    t1 = TreeEmbedding(2, (2, 3, 4))
    t2 = TreeEmbedding(2, (5, 6, 7))
    return g, t1, t2


def test_s_valid_structure_passes():
    g, t1, t2 = pivot_structure()
    rep = check_s(g, (), (), {0}, 8, 1, (t1, t2))
    assert set(rep.clauses) == {"pivot", "S1", "S2", "S3", "S4", "disjoint"}
    assert rep.all_passed()
    assert rep.params["count"] == 2


def test_s_pivot_requires_unblocked_link():
    g, t1, t2 = pivot_structure()
    rep = check_s(g, {(0, 1)}, (), {0}, 8, 1, (t1, t2))
    assert rep.clauses["pivot"].witness == {
        "vertex": 1,
        "reason": "no unblocked edge from a1",
    }
    # the pivot itself never counts as its own support
    rep2 = check_s(g, (), (), {1}, 8, 1, (t1, t2))
    assert not rep2.clauses["pivot"].passed


def test_s1_target_inside_tree():
    g, _, t2 = pivot_structure()
    bad = TreeEmbedding(2, (8, 3, 4))
    rep = check_s(g, (), (), {0}, 8, 1, (bad, t2))
    assert rep.clauses["S1"].witness == {"tree": 0, "vertex": 8}
    assert not rep.all_passed()


def test_s2_blocked_root_edge():
    g, t1, t2 = pivot_structure()
    rep = check_s(g, {(1, 2)}, (), {0}, 8, 1, (t1, t2))
    assert rep.clauses["S2"].witness == {"tree": 0, "root": 2}
    assert rep.clauses["pivot"].passed and rep.clauses["S3"].passed


def test_s3_blocked_arc_unless_tolerated():
    g, t1, t2 = pivot_structure()
    rep = check_s(g, {(2, 3)}, (), {0}, 8, 1, (t1, t2))
    assert rep.clauses["S3"].witness == {"tree": 0, "edge": (2, 3)}
    # the same blocked arc is fine when it lands in the tolerated set
    rep2 = check_s(g, {(2, 3)}, {3}, {0}, 8, 1, (t1, t2))
    assert rep2.clauses["S3"].passed

    phantom = TreeEmbedding(2, (2, 3, 6))
    rep3 = check_s(g, (), (), {0}, 8, 1, (phantom,))
    assert rep3.clauses["S3"].witness == {
        "tree": 0,
        "edge": (2, 6),
        "reason": "not a graph edge",
    }


def test_s4_blocked_leaf_edge():
    g, t1, t2 = pivot_structure()
    rep = check_s(g, {(3, 8)}, (), {0}, 8, 1, (t1, t2))
    assert rep.clauses["S4"].witness == {"tree": 0, "vertex": 3}
    assert rep.clauses["S3"].passed


def test_s_disjointness():
    g, t1, t2 = pivot_structure()
    rep = check_s(g, (), (), {0}, 8, 1, (t1, t1))
    w = rep.clauses["disjoint"].witness
    assert w["tree"] == 1 and w["also_in"] == 0

    with_pivot = TreeEmbedding(2, (2, 1, 4))
    rep2 = check_s(g, (), (), {0}, 8, 1, (with_pivot,))
    w2 = rep2.clauses["disjoint"].witness
    assert w2 == {"tree": 0, "vertex": 1, "reason": "tree contains pivot"}


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
# the diagnostic degree windows


def test_degree_window_checkers():
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    rep = check_degree_upper(star, eps=0.05)
    c = rep.clauses["max-degree"]
    assert not c.passed and c.diagnostic
    assert c.witness["vertex"] == 0 and c.witness["degree"] == 4
    assert rep.all_passed()  # diagnostic only

    path = Graph(3, [(0, 1), (1, 2)])
    assert check_degree_upper(path, eps=0.05).clauses["max-degree"].passed

    k5 = complete_graph(5)
    assert check_degree_into(k5, {0, 1}, eps=0.5).clauses["min-degree"].passed
    rep2 = check_degree_into(k5, {0, 1}, eps=2.0)
    c2 = rep2.clauses["min-degree"]
    assert c2.witness == {"vertex": 2, "degree": 2, "bound": 5.0}
    assert rep2.all_passed()


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

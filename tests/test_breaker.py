from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conbreak import (
    CapacityError,
    GameState,
    Graph,
    ParameterError,
    breaker_move,
    build_bad_set,
    find_candidate,
    gen_gnp,
    q_violations,
)
from conbreak import verifier
from conbreak.breaker import CANDIDATES
from conbreak.engine import BREAKER
from conbreak.rng import Rng

from oracles import naive_build_bad_set, naive_find_candidate, oracle_bad_layers


def fan_graph() -> Graph:
    # x=0 joined to a,b,c = 1,2,3; d=4 joined to a and b
    return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)])


def test_layering_worked_example():
    dec = build_bad_set(fan_graph(), 0)
    assert dec.x == 0
    assert dec.layers == (frozenset({1, 2, 3}), frozenset({4}))
    assert dec.r_x == 2
    assert dec.union == frozenset({1, 2, 3, 4})
    assert dec.level_map() == {0: 0, 1: 1, 2: 1, 3: 1, 4: 2}


def test_layering_stops_without_two_witnesses():
    # pendant vertex sees only one bad vertex, so it never joins
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    dec = build_bad_set(g, 0)
    assert dec.layers == (frozenset({1, 2}),)
    assert dec.level_map().get(3) is None


def test_layering_isolated_center():
    dec = build_bad_set(Graph(3), 0)
    assert dec.layers == (frozenset(),)
    assert dec.r_x == 1
    assert dec.union == frozenset()


def test_layering_with_exclusions():
    g = fan_graph()
    dec = build_bad_set(g, 0, excluded={1})
    # a is gone, so d sees only b among the bad vertices and stays out
    assert dec.layers == (frozenset({2, 3}),)
    with pytest.raises(ParameterError):
        build_bad_set(g, 0, excluded={0})
    with pytest.raises(ParameterError):
        build_bad_set(g, 9)


@pytest.mark.parametrize("v", [5, 999, -1])
def test_layering_rejects_off_board_exclusions(v):
    # an off-board vertex would otherwise be dropped without a word
    with pytest.raises(ParameterError, match=f"excluded vertex {v} out of range"):
        build_bad_set(fan_graph(), 0, excluded={1, v})


def test_layering_matches_literal_oracle():
    for seed in range(6):
        for p in (0.2, 0.45):
            g = gen_gnp(8, p, seed)
            for x in range(8):
                want_layers, want_r = oracle_bad_layers(g, x)
                dec = build_bad_set(g, x)
                assert [set(l) for l in dec.layers] == want_layers, (seed, p, x)
                assert dec.r_x == want_r
                excl = {v for v in (0, 3) if v != x}
                want_layers, _ = oracle_bad_layers(g, x, excl)
                dec = build_bad_set(g, x, excl)
                assert [set(l) for l in dec.layers] == want_layers


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    pick=st.integers(0, 2**32),
    isolate=st.booleans(),
)
@example(n=1, p=0.0, seed=0, pick=0, isolate=False)
@example(n=2, p=1.0, seed=0, pick=1, isolate=False)
@example(n=40, p=1.0, seed=3, pick=5, isolate=True)
def test_layering_matches_the_vertex_loop(n, p, seed, pick, isolate):
    g = gen_gnp(n, p, seed)
    rng = Rng(pick)
    x = rng.randrange(n)
    if isolate:
        g = Graph(n, [e for e in g.sorted_edges() if x not in e])
    excl = {v for v in range(n) if v != x and rng.randrange(4) == 0}
    assert build_bad_set(g, x, excl) == naive_build_bad_set(g, x, excl)
    assert build_bad_set(g, x) == naive_build_bad_set(g, x)


def test_successive_builds_exclude_earlier():
    # fan graph plus a tail 4-5-6 hanging off the deep layer; candidates
    # in succession, as find_candidate takes them
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (4, 5), (5, 6)])
    first = build_bad_set(g, 0)
    assert first.union == frozenset({1, 2, 3, 4})
    # 5's neighborhood is {4, 6} but 4 is already bad and excluded
    second = build_bad_set(g, 5, excluded=first.union)
    assert second.layers == (frozenset({6}),)
    assert second.union | first.union == frozenset({1, 2, 3, 4, 6})
    # a candidate inside an earlier bad set is a caller error here
    with pytest.raises(ParameterError):
        build_bad_set(g, 4, excluded=first.union)


def test_find_candidate_matching_witness():
    # perfect matching: every bad set is exactly the mate, all checks pass
    # unless the pair touches the protected territory
    g = Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    found = find_candidate(g, m_set={0, 1, 2}, seed=3)
    assert found is not None
    x, dec = found
    mate = x + 1 if x % 2 == 0 else x - 1
    assert x >= 4  # territory plus its neighborhood is 0..3
    assert dec.layers == (frozenset({mate}),)
    # first qualifying vertex in sample order wins
    sample = Rng(3).sample(range(12), 7)
    assert x == next(v for v in sample if v >= 4)


def test_find_candidate_skips_vertices_buried_by_earlier_builds():
    # arrange the sampled order so the second candidate lies inside the
    # first one's bad set while the first itself fails the territory check
    sample = Rng(0).sample(range(12), 7)
    c0, c1, c2 = sample[0], sample[1], sample[2]
    g = Graph(12, [(min(c0, c1), max(c0, c1))])
    found = find_candidate(g, m_set={c1}, seed=0)
    assert found is not None
    x, dec = found
    # c0 fails (its bad set is {c1}, inside the territory's closure);
    # c1 is buried and gets skipped rather than raising
    assert x == c2
    assert dec.layers == (frozenset(),)


def test_find_candidate_none_on_complete_graph():
    g = Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)])
    assert find_candidate(g, m_set={0}, seed=1) is None


def _neighbourhood_spans_an_edge(g: Graph, x: int) -> bool:
    nx = set(g.row(x))
    return any(w in nx for v in nx for w in g.row(v))


def test_find_candidate_matches_the_full_layering(monkeypatch):
    """find_candidate against the candidate loop that layers and checks
    every candidate, on G(n, p) boards from sparse to dense with a padded
    opening territory: a random vertex and up to two of its neighbours,
    then the lowest outside vertices up to three. Both paths occur: when
    every sampled candidate's neighbourhood spans an edge the search
    returns at once, checking no bad set, and otherwise it layers and
    checks the candidates in turn."""
    real = verifier.check_b
    checks = []

    def counted(*args):
        checks.append(args)
        return real(*args)

    monkeypatch.setattr(verifier, "check_b", counted)
    kinds = set()
    for n in (30, 60, 200):
        for e in (-0.95, -0.85, -0.75, -0.65, -0.55, -0.45, -0.35, -0.3):
            for seed in range(4):
                g = gen_gnp(n, n**e, seed)
                rng = Rng(seed + 1000 * n)
                start = rng.randrange(n)
                opening = {start, *g.row(start)[: rng.randrange(3)]}
                pad = [v for v in range(n) if v not in opening][: 3 - len(opening)]
                m_set = sorted(opening) + pad
                want = naive_find_candidate(g, m_set, seed=seed)
                checks.clear()
                assert find_candidate(g, m_set, seed=seed) == want
                sample = Rng(seed).sample(range(n), CANDIDATES)
                at_once = all(_neighbourhood_spans_an_edge(g, x) for x in sample)
                assert (not checks) == at_once
                kinds.add(at_once)
    assert kinds == {True, False}


def test_find_candidate_refuses_an_off_board_territory():
    # a dense board, where every candidate's neighbourhood spans an edge
    g = Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)])
    with pytest.raises(ParameterError, match="out of range"):
        find_candidate(g, m_set={0, 12}, seed=1)


def test_find_candidate_capacity():
    with pytest.raises(CapacityError):
        find_candidate(Graph(10), m_set={0}, seed=0)
    assert find_candidate(Graph(11), m_set={0}, seed=0) is not None


def test_q_violations_examples():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    # Connector sits on d (deepest layer): both edges down to layer 1 are
    # threats, claimed or not
    s = GameState(g, m=2, b=2, start_vertex=4)
    assert q_violations(s, dec) == [(1, 4), (2, 4)]
    # Connector sits on a (layer 1): the edge up to d is not a violation
    # (d is deeper), the edge to x is
    s = GameState(g, m=2, b=2, start_vertex=1)
    assert q_violations(s, dec) == [(0, 1)]
    # claimed edges are no longer violations
    s = GameState(g, m=2, b=2, start_vertex=1, breaker_edges=[(0, 1)])
    assert q_violations(s, dec) == []
    with pytest.raises(ParameterError):
        q_violations(GameState(g, start_vertex=0), dec)


def test_q_violations_outsider_territory():
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5)])
    dec = build_bad_set(g, 0)
    assert dec.level_map().get(5) is None
    s = GameState(g, m=2, b=2, start_vertex=5)
    # a (layer 1) can be entered from the outsider 5: that is a violation
    assert q_violations(s, dec) == [(1, 5)]


def test_breaker_move_claims_violations_then_fills():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    s = GameState(g, m=2, b=2, start_vertex=4, to_move=BREAKER)
    mv = breaker_move(s, dec)
    assert mv.edges == ((1, 4), (2, 4))
    assert mv.flags == ()
    # no violations: fillers take x-incident edges first
    s = GameState(g, m=2, b=2, to_move=BREAKER)
    mv = breaker_move(s, dec)
    assert mv.edges == ((0, 1), (0, 2))


def test_breaker_move_overflow_flag():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    s = GameState(g, m=2, b=1, start_vertex=4, to_move=BREAKER)
    mv = breaker_move(s, dec)
    assert mv.edges == ((1, 4),)
    assert "breaker-violation-overflow" in mv.flags


def test_breaker_move_resumes_its_edge_iterator():
    # center with no free incident edges left: fillers fall through to the
    # kept scan over the whole edge list
    g = Graph(6, [(0, 1), (2, 3), (2, 4), (3, 4), (4, 5)])
    dec = build_bad_set(g, 0)
    s = GameState(g, m=2, b=2, to_move=BREAKER, breaker_edges=[(0, 1)])
    scan = g.edges_from()
    mv = breaker_move(s, dec, scan)
    assert mv.edges == ((2, 3), (2, 4))
    s2 = GameState(
        g, m=2, b=2, to_move=BREAKER, breaker_edges=[(0, 1), (2, 3), (2, 4)]
    )
    mv2 = breaker_move(s2, dec, scan)
    assert mv2.edges == ((3, 4), (4, 5))
    # the scan has passed every edge: it finds nothing, even where a
    # fresh one would
    assert breaker_move(s, dec, scan).edges == ()
    assert breaker_move(s, dec).edges == ((2, 3), (2, 4))

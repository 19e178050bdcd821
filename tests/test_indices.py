"""The engine's incremental indices against full-board rescans.

The baseline strategies read the claim log, the territory order and the
sorted lists of free and frontier edges instead of rescanning every
edge; `select_target` reads a lowest-missing-vertex cursor and a lazy
degree heap instead of scanning every vertex, and derives the structure
case from that cursor instead of testing the reservoirs as subsets. Each
must give exactly the move, target or case of the naive scan in
`oracles`, from the same random stream.
The lists are built only for strategies that read them.
"""

from __future__ import annotations

import copy
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conbreak import connector
from conbreak.engine import BREAKER, CONNECTOR, GameState, run_game, validate_and_apply
from conbreak.graph import gen_gnp
from conbreak.rng import derive
from conbreak.strategies import make_strategy

from oracles import (
    free_edge_count,
    naive_case,
    naive_greedy_move,
    naive_random_move,
    naive_select_target,
)


def index_view(state: GameState):
    """Everything the indices answer, read through the public queries."""
    n = state.graph.n
    return (
        list(state.free_choices()),
        list(state.connector_choices()),
        [state.free_edges_at(v) for v in range(n)],
    )


def legal_next(free, vc, claims):
    """Connector's legal next claims by the rules, from a full scan."""
    grown = set(vc).union(*claims)
    return [e for e in free if e not in claims and (not grown or grown & set(e))]


def check_queries(state: GameState, pick: random.Random) -> None:
    g = state.graph
    free = [e for e in g.sorted_edges() if state.is_free(e)]
    assert index_view(state) == (
        free,
        legal_next(free, state.v_c, []),
        [[e for e in free if v in e] for v in range(g.n)],
    )
    # a partial Connector move of up to three claims, checked claim by claim
    claims = []
    for _ in range(3):
        cands = state.connector_choices(claims)
        naive = legal_next(free, state.v_c, claims)
        assert list(cands) == naive and len(cands) == len(naive)
        if not naive:
            break
        claims.append(pick.choice(naive))


@example(n=9, p=0.45, seed=0, start=0, m=2, b=2, cid="random", bid="random", check_from=0)
@example(n=12, p=0.6, seed=3, start=None, m=3, b=1, cid="greedy-degree",
         bid="greedy-degree", check_from=4)
@example(n=12, p=0.3, seed=5, start=None, m=1, b=3, cid="random",
         bid="greedy-degree", check_from=2)
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 30),
    p=st.sampled_from([0.1, 0.25, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    start=st.none() | st.integers(0, 29),
    m=st.integers(1, 3),
    b=st.integers(1, 3),
    cid=st.sampled_from(["random", "greedy-degree"]),
    bid=st.sampled_from(["random", "greedy-degree"]),
    check_from=st.integers(0, 6),
)
def test_indexed_baselines_match_naive_rescan(n, p, seed, start, m, b, cid, bid, check_from):
    """At every state of a played game the indexed move equals the
    rescanning oracle's move from the same Rng state; the index queries
    match naive lists; applying a move to a copy leaves the original's
    queries as they were. Queries start after `check_from` moves, so the
    lists are built both at the first position and mid-game."""
    g = gen_gnp(n, p, seed)
    if start is not None:
        start %= n
    state = GameState(g, m=m, b=b, start_vertex=start)
    ids = {CONNECTOR: cid, BREAKER: bid}
    players = {role: make_strategy(sid) for role, sid in ids.items()}
    players[CONNECTOR].start(g, CONNECTOR, derive(seed, 0xC0))
    players[BREAKER].start(g, BREAKER, derive(seed, 0xB0))
    pick = random.Random(seed)
    empty_rounds = 0
    for moves in range(4 * g.edge_count() + 4):
        if free_edge_count(state) == 0 or state.connector_has_spanned() or empty_rounds == 2:
            break
        role = state.to_move
        player = players[role]
        if ids[role] == "random":
            twin = copy.copy(player.rng)
            naive = naive_random_move(twin, role, state)
        else:
            twin = None
            naive = naive_greedy_move(role, state)
        if moves >= check_from:
            check_queries(state, pick)
            before = index_view(state)
        mv = player.propose(state)
        assert mv.edges == naive
        if twin is not None:
            assert twin.u64() == player.rng.u64()
        nxt = validate_and_apply(state, mv)
        if moves >= check_from:
            assert index_view(state) == before
        empty_rounds = empty_rounds + 1 if not mv.edges else 0
        state = nxt
    check_queries(state, pick)


def test_claim_log_and_territory_follow_play():
    g = gen_gnp(30, 0.3, 4)
    res = run_game(g, make_strategy("random"), make_strategy("greedy-degree"), seed=4)
    s = res.final_state
    assert s.log == [(role, e) for _, role, edges in res.transcript for e in edges]
    assert sorted(s.territory) == sorted(s.v_c)
    assert len(set(s.territory)) == len(s.territory)
    # each vertex joins when the first Connector edge at it is claimed
    first = []
    for role, e in s.log:
        if role == CONNECTOR:
            first.extend(w for w in e if w not in first)
    assert s.territory == first
    built = GameState(g, start_vertex=18, connector_edges=[(0, 18), (0, 9)])
    assert built.territory == [18, 0, 9] and built.log == []


def test_edge_lists_are_built_only_for_the_random_strategy():
    """Greedy and paper players read CSR rows and build no edge list;
    the random players build both lists, and they match a full scan at
    the end of the game."""
    g = gen_gnp(40, 0.3, 7)
    for cid, bid, built in (
        ("greedy-degree", "greedy-degree", False),
        ("paper-connector", "paper-breaker", False),
        ("random", "random", True),
    ):
        res = run_game(g, make_strategy(cid), make_strategy(bid), start_vertex=0, seed=7)
        s = res.final_state
        if not built:
            assert s._free is None and s._front is None, (cid, bid)
            continue
        free = s.free_edges()
        assert s._free == free
        assert s._front == [e for e in free if s.v_c & set(e)]


def test_select_target_matches_naive_scan_on_paper_games(monkeypatch):
    """Recorded paper-connector games, with every select_target call
    checked against the full scan and the case it sets checked against
    the reservoir subset tests; both stages and all three cases are
    reached."""
    real = connector.select_target
    stages = []
    cases = []

    def checked(state, plan):
        got = real(state, plan)
        assert got == naive_select_target(state, plan)
        assert plan.case == naive_case(state, plan)
        stages.append(plan.stage)
        cases.append(plan.case)
        return got

    monkeypatch.setattr(connector, "select_target", checked)
    for n, e in ((60, -0.3), (60, -0.4), (200, -0.3), (200, -0.4)):
        for seed in range(4):
            g = gen_gnp(n, n**e, seed)
            for bid in ("random", "greedy-degree", "paper-breaker"):
                run_game(
                    g,
                    make_strategy("paper-connector", p_hint=n**e),
                    make_strategy(bid),
                    start_vertex=0,
                    seed=seed,
                )
    assert stages.count("I") > 50 and stages.count("II") > 50
    assert set(cases) == {1, 2, 3}

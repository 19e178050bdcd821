"""The baseline strategies' own indices against full-board rescans.

The baseline strategies read the state's moves and territory order and
keep their own sorted lists, heaps and scans instead of rescanning
every edge; `select_target` reads a lowest-missing-vertex cursor and a
lazy heap over the Breaker degrees it counts from the moves instead of
scanning every vertex and recounting, and derives the
structure case from that cursor instead of testing the reservoirs as
subsets; `connector_move` finds its direct edge into the target in one
pass over the target's row instead of set operations over the reservoir
a2. Each must give exactly the move, target or case of the naive
scan in `oracles`, from the same random stream, and each strategy's
index must agree with a full scan of the position it was last brought
up to date with.
"""

from __future__ import annotations

import copy
import heapq
import operator

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conbreak import connector, strategies
from conbreak.engine import BREAKER, CONNECTOR, GameState, run_game, validate_and_apply
from conbreak.graph import edge, gen_gnp
from conbreak.rng import derive
from conbreak.strategies import GreedyDegreeStrategy, RandomStrategy, make_strategy

from oracles import (
    free_edge_count,
    naive_case,
    naive_direct_edge,
    naive_greedy_move,
    naive_random_move,
    naive_select_target,
)


def position(state: GameState):
    """The position as the public queries read it."""
    g = state.graph
    return (
        [e for e in g.sorted_edges() if state.is_free(e)],
        [state.free_edges_at(v) for v in range(g.n)],
        list(state.territory),
        list(state.moves),
    )


def check_index(player, state: GameState) -> None:
    """A baseline player's index against a full scan of `state`, a
    position at or after the one its last propose saw, with its move
    played. Claims of the moves applied since that propose may still be
    listed."""
    g = state.graph
    free = [e for e in g.sorted_edges() if state.is_free(e)]
    vc = state.v_c
    if isinstance(player, RandomStrategy):
        assert player.edges == sorted(set(player.edges))
        later = {e for _, _, edges in state.moves[player.read:] for e in edges}
        kept = [e for e in player.edges if e not in later]
        if player.role == BREAKER:
            assert kept == free
        else:
            assert player.joined == vc
            assert kept == ([e for e in free if vc & set(e)] if vc else [])
        return
    assert isinstance(player, GreedyDegreeStrategy)
    if player.role == BREAKER:
        deg = g.degree
        assert player.order == sorted(g.sorted_edges(), key=lambda e: (-deg(e[0]) - deg(e[1]), e))
        # the scan over the rank order has passed only claimed edges
        passed = len(player.order) - operator.length_hint(player.scan)
        assert not any(state.is_free(e) for e in player.order[:passed])
        return
    assert player.joined == vc
    # every outside vertex with a free edge into the territory has a live
    # entry no higher than its lowest such edge; an entry may be claimed
    reach = {}
    for e in free:
        for w in e:
            x = e[0] + e[1] - w
            if w in vc and x not in vc:
                reach.setdefault(x, e)
    lowest = player.lowest
    assert set(reach) <= set(lowest) and not set(lowest) & vc
    for x, e in lowest.items():
        assert vc & set(e) and x in e
        assert e <= reach.get(x, e)
        assert (-g.degree(x), e, x) in player.heap
    live = set(player.inside) | set(player.pending)
    assert {e for e in free if set(e) <= vc} <= live
    inside = player.inside
    assert all(inside[(i - 1) // 2] <= inside[i] for i in range(1, len(inside)))


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
    rescanning oracle's move from the same Rng state, and neither the
    move nor applying it to a copy changes the position. After
    `check_from` moves, each mover's index, updated as if its move were
    played, matches a full scan of the next position, so indices are
    checked from the first position and from mid-game on; both players'
    indices are checked again at the end, once each has moved."""
    g = gen_gnp(n, p, seed)
    if start is not None:
        start %= n
    state = GameState(g, m=m, b=b, start_vertex=start)
    ids = {CONNECTOR: cid, BREAKER: bid}
    players = {role: make_strategy(sid) for role, sid in ids.items()}
    players[CONNECTOR].start(g, CONNECTOR, derive(seed, 0xC0))
    players[BREAKER].start(g, BREAKER, derive(seed, 0xB0))
    empty_rounds = 0
    moved = set()
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
        before = position(state)
        mv = player.propose(state)
        moved.add(role)
        assert mv.edges == naive
        if twin is not None:
            assert twin.u64() == player.rng.u64()
        nxt = validate_and_apply(state, mv)
        assert position(state) == before
        if moves >= check_from:
            check_index(player, nxt)
        empty_rounds = empty_rounds + 1 if not mv.edges else 0
        state = nxt
    for role in moved:
        check_index(players[role], state)


def test_moves_and_territory_follow_play():
    g = gen_gnp(30, 0.3, 4)
    res = run_game(g, make_strategy("random"), make_strategy("greedy-degree"), seed=4)
    s = res.final_state
    assert res.transcript == tuple(s.moves)
    assert sorted(s.territory) == sorted(s.v_c)
    assert len(set(s.territory)) == len(s.territory)
    # each vertex joins when the first Connector edge at it is claimed
    first = []
    for _, role, edges in s.moves:
        if role == CONNECTOR:
            for e in edges:
                first.extend(w for w in e if w not in first)
    assert s.territory == first
    built = GameState(g, start_vertex=18, connector_edges=[(0, 18), (0, 9)])
    assert built.territory == [18, 0, 9] and built.moves == []


def test_baseline_indices_match_a_full_scan_after_run_game():
    """Each baseline player's own index, at the end of a game the engine
    played, matches a full scan of the final position."""
    g = gen_gnp(40, 0.3, 7)
    for cid, bid in (("greedy-degree", "greedy-degree"), ("random", "random"),
                     ("random", "greedy-degree"), ("greedy-degree", "random")):
        players = make_strategy(cid), make_strategy(bid)
        res = run_game(g, *players, start_vertex=0, seed=7)
        assert res.rounds > 5
        for player in players:
            check_index(player, res.final_state)


def test_select_target_matches_naive_scan_on_paper_games(monkeypatch):
    """Recorded paper-connector games, with every select_target call
    checked against the full scan, the case it sets checked against the
    reservoir subset tests and, in stage II, the Breaker degrees it
    counts checked against a recount of Breaker's edges; both stages and
    all three cases are reached. The dense n=400 games make the lazy heap drop stale
    entries, each checked stale when it is popped, and make some stage-II
    target win a Breaker-degree tie against a higher vertex."""
    real = connector.select_target
    stages = []
    cases = []
    ties = []
    popped = []
    current = []  # the state and plan of the select_target call in progress
    real_pop = heapq.heappop

    def checked(state, plan):
        current.append((state, plan))
        got = real(state, plan)
        current.pop()
        assert got == naive_select_target(state, plan)
        assert plan.case == naive_case(state, plan)
        stages.append(plan.stage)
        cases.append(plan.case)
        if plan.stage == "II":
            deg = plan.degrees
            naive = [0] * state.graph.n
            for e in state.breaker_edges:
                for w in e:
                    naive[w] += 1
            assert deg == naive
            ties.append(any(
                v > got and v not in state.v_c and deg[v] == deg[got]
                for v in range(state.graph.n)
            ))
        return got

    def checked_pop(heap):
        entry = real_pop(heap)
        if current:
            state, plan = current[-1]
            d, v = divmod(entry, state.graph.n)
            assert v in state.v_c or -d != plan.degrees[v]
            popped.append(v)
        return entry

    monkeypatch.setattr(connector, "select_target", checked)
    monkeypatch.setattr(heapq, "heappop", checked_pop)
    games = [(n, e, seed) for n in (60, 200) for e in (-0.3, -0.4) for seed in range(4)]
    games += [(400, -0.35, seed) for seed in range(2)]
    for n, e, seed in games:
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
    assert len(popped) > 10 and any(ties)


def test_direct_edge_matches_set_rule_on_paper_games(monkeypatch):
    """Recorded paper-connector games, with every round that reaches the
    direct-edge rule checked against the set-based rule: its edge, when
    one exists, is the whole move. Both sides of the rule are reached: an
    a2 edge taken while a lower non-a2 territory edge into the target was
    free, and a non-a2 edge taken when no a2 edge was free."""
    real = strategies.connector_move
    picks = []

    def checked(state, plan):
        move = real(state, plan)
        vc = state.v_c
        if not vc or len(vc) == state.graph.n or plan.rounds_used > plan.budget:
            return move  # the rule was not reached
        x = plan.target
        want = naive_direct_edge(state, plan, x)
        if want is not None:
            assert move.edges == (want,) and not move.forfeit
            w = want[0] if want[1] == x else want[1]
            lower = any(
                v < w and v in vc and v not in plan.a2 and state.is_free(edge(v, x))
                for v in state.graph.row(x)
            )
            picks.append((w in plan.a2, lower))
        return move

    monkeypatch.setattr(strategies, "connector_move", checked)
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
    assert len(picks) > 100
    assert (True, True) in picks
    assert any(not in_a2 for in_a2, _ in picks)

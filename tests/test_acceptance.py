"""Acceptance gate: one test per numbered criterion.

Each criterion owns exactly one test function, so a verbose run prints
exactly one pass/fail line per criterion. Tolerances and runtime ceilings
are pinned inline; the heavy Monte Carlo checks are directional on
purpose, everything else is exact.
"""

from __future__ import annotations

import math
import time

from conbreak import (
    BREAKER,
    CONNECTOR,
    GameState,
    Move,
    make_strategy,
    run_game,
    solve_exact,
    validate_and_apply,
)
from conbreak import cli
from conbreak.breaker import build_bad_set
from conbreak.boxgame import corollary_bound_holds, random_maker, run_box_game
from conbreak.connector import TargetChase, alpha_table, decompose, make_cells
from conbreak.graph import contains_hn, gen_gnp
from conbreak.harness import TrialConfig, isolation_flags, run_trials
from conbreak.rng import Rng, derive
from conbreak.strategies import FLAG_TARGET_REACHED, IsolationBreakerStrategy
from conbreak.verifier import check_d

from oracles import (
    box_rule_survives_all_maker_play,
    chase_survives_all_breaker_play,
    chase_witness,
    connected_graph_classes,
    oracle_bad_layers,
    spanning_pair_oracle,
)


def test_criterion_1_exact_solver_matches_spanning_pair_rule():
    # Even-bias winner on every small connected board is decided by the
    # spanning-pair rule. The 3-5 vertex range holds 29 isomorphism
    # classes (2 + 6 + 21); the oft-quoted count of 112 classes is the
    # n=6 census, so both corpora are swept.
    t0 = time.monotonic()
    counts = {}
    for n in (3, 4, 5, 6):
        classes = connected_graph_classes(n)
        counts[n] = len(classes)
        for g in classes:
            pair_rule = contains_hn(g) is not None
            assert pair_rule == spanning_pair_oracle(g), g.sorted_edges()
            assert (solve_exact(g, 1, 1) == CONNECTOR) == pair_rule, g.sorted_edges()
    assert counts == {3: 2, 4: 6, 5: 21, 6: 112}
    assert time.monotonic() - t0 < 60.0


def test_criterion_2_double_bias_breaker_wins_every_small_board():
    t0 = time.monotonic()
    for n in (3, 4, 5):
        for g in connected_graph_classes(n):
            assert solve_exact(g, 1, 2) == BREAKER, g.sorted_edges()
    assert time.monotonic() - t0 < 60.0


def test_criterion_3_box_defense_beats_all_play_within_the_bound():
    t0 = time.monotonic()
    qualifying = [
        (n, m, p)
        for n in range(1, 5)
        for m in range(1, 5)
        for p in (1, 2)
        if m > p * (math.log(n) + 1.0)
    ]
    assert len(qualifying) == 13
    for n, m, p in qualifying:
        assert box_rule_survives_all_maker_play([m] * n, p), (n, m, p)
    assert time.monotonic() - t0 < 30.0
    # the untouched-box ceiling holds along every random game
    for seed in range(1000):
        res = run_box_game([30] * 20, 3, random_maker, seed)
        assert res.winner == "breaker", seed
        assert corollary_bound_holds(res.trace, 20, 3), seed


def test_criterion_4_bad_set_layers_match_the_literal_oracle():
    t0 = time.monotonic()
    cases = 0
    for i in range(10_000):
        n = 2 + i % 7
        p = 0.1 * (1 + (i // 7) % 9)
        g = gen_gnp(n, p, seed=i)
        for x in range(n):
            dec = build_bad_set(g, x)
            layers, r = oracle_bad_layers(g, x)
            assert [set(layer) for layer in dec.layers] == layers, (i, x)
            assert dec.r_x == r, (i, x)
            cases += 1
    assert cases >= 10_000
    assert time.monotonic() - t0 < 60.0


def test_criterion_5_isolation_defense_holds_on_sparse_boards():
    # 100 qualifying seeded instances per board size, three opponents
    # each. An instance qualifies when the defender adopts a verified
    # candidate vertex in the games that reach his turn; a first-move
    # forfeit by the opponent leaves nothing to defend and is tolerated
    # but never counted as adoption.
    t0 = time.monotonic()
    for n in (200, 400):
        p = n ** -0.8
        qualified = 0
        trial = 0
        while qualified < 100:
            assert trial < 150, f"n={n}: only {qualified} qualifying instances"
            seed = derive(41, trial)
            trial += 1
            g = gen_gnp(n, p, seed)
            adopted = 0
            disqualified = False
            for cid in ("random", "greedy-degree", "paper-connector"):
                opts = {"p_hint": p} if cid == "paper-connector" else {}
                connector = make_strategy(cid, **opts)
                breaker = IsolationBreakerStrategy()
                res = run_game(
                    g, connector, breaker, m=2, b=2, start_vertex=0, seed=seed
                )
                if breaker.candidate is None:
                    if breaker.attempted:
                        disqualified = True
                        break
                    assert res.winner == BREAKER and res.rounds == 0, (n, trial, cid)
                    continue
                adopted += 1
                assert FLAG_TARGET_REACHED not in res.flags, (n, trial, cid)
                assert "breaker-violation-overflow" not in res.flags, (n, trial, cid)
                assert breaker.candidate not in res.final_state.v_c, (n, trial, cid)
                assert isolation_flags(g, res, breaker.decomposition) == [], (
                    n,
                    trial,
                    cid,
                )
            if not disqualified and adopted >= 2:
                qualified += 1
    assert time.monotonic() - t0 < 600.0


def test_criterion_6_tree_descent_reaches_the_target():
    t0 = time.monotonic()
    for k in (2, 3):
        g, t, x = chase_witness(k)
        assert chase_survives_all_breaker_play(g, t, x, root_start=t.root), k

    # deeper trees: 500 random reply lines and 500 seeded greedy edge
    # hunters per depth
    for k in (4, 5):
        g, t, x = chase_witness(k)
        board = g.sorted_edges()
        for case in range(1000):
            rng = Rng(derive(67, 1000 * k + case))
            if case < 500:

                def reply(state):
                    free = state.free_edges()
                    return rng.sample(free, min(2, len(free)))

            else:
                priority = list(board)
                rng.shuffle(priority)

                def reply(state, priority=priority):
                    return [e for e in priority if state.is_free(e)][:2]

            chase = TargetChase.of(t, x)
            state = GameState(g, m=2, b=2, start_vertex=t.root)
            moves = 0
            while x not in state.v_c:
                mv = chase.step(state)
                assert not mv.forfeit, (k, case)
                state = validate_and_apply(state, mv)
                moves += 1
                assert moves <= t.k - 1, (k, case)
                if x in state.v_c:
                    break
                state = validate_and_apply(state, Move(tuple(reply(state))))
            assert x in state.v_c, (k, case)
    assert time.monotonic() - t0 < 300.0


def test_criterion_7_decomposition_clauses_and_level_exponents():
    t0 = time.monotonic()
    assert alpha_table(6) == (1, 4, 10, 22, 46, 94)
    grid = (0.15, 0.25, 0.35, 0.45)
    returned = 0
    total = 0
    for n in (500, 1000):
        for case in range(500):
            seed = derive(23, total)
            total += 1
            p = grid[case % 4]
            k = 3 if case % 5 == 0 else 2
            x = seed % n
            g = gen_gnp(n, p, seed)
            cells = make_cells(n, x, k, seed=seed)
            dec = decompose(g, x, cells, k, seed=seed)
            if dec is None:
                continue
            returned += 1
            report = check_d(dec)
            for key in ("D1", "D3", "D5", "D6"):
                assert report.clauses[key].passed, (n, case, key)
            assert report.all_passed(), (n, case, report.failures())
    assert total == 1000
    assert returned >= 200, returned
    assert time.monotonic() - t0 < 600.0


def test_criterion_8_win_fraction_rises_with_density():
    t0 = time.monotonic()
    n = 1000
    ps = tuple(n ** e for e in (-0.95, -0.8, -0.65, -0.5, -0.35))
    cfg = TrialConfig(ns=(n,), ps=ps, trials=200, seed_base=2026)
    _, rows = run_trials(cfg)
    assert [(row.n, row.p) for row in rows] == [(n, p) for p in ps]
    fracs = [row.connector_wins / row.trials for row in rows]
    assert fracs[0] <= 0.05, fracs
    assert fracs[-1] >= 0.5, fracs
    for lo, hi in zip(fracs, fracs[1:]):
        assert hi >= lo - 0.1, fracs
    assert time.monotonic() - t0 < 1800.0


def test_criterion_9_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["play", "--n", "60", "--p", "0.2", "--seed", "5"]
    rc1 = cli.main(argv)
    out1 = capsys.readouterr().out
    rc2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 and out1 == out2

    def sweep(tag):
        csv = tmp_path / f"{tag}.csv"
        rec = tmp_path / f"{tag}.jsonl"
        rc = cli.main(
            [
                "sweep",
                "--ns", "40,60",
                "--ps", "0.1,0.3",
                "--trials", "5",
                "--seed", "9",
                "--out", str(csv),
                "--records", str(rec),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        return out, csv.read_bytes(), rec.read_bytes()

    assert sweep("first") == sweep("second")

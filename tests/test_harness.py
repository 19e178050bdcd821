from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conbreak import (
    GameResult,
    GameState,
    Graph,
    Move,
    ParameterError,
    SummaryRow,
    TrialConfig,
    TrialRecord,
    build_bad_set,
    check_q,
    gen_gnp,
    make_strategy,
    run_game,
    run_trials,
    threshold_scan,
    validate_and_apply,
)
from conbreak import engine
from conbreak.engine import BREAKER, CONNECTOR, REASON_EXHAUSTED
from conbreak.harness import (
    CSV_HEADER,
    FLAG_DEGREE_BOUND,
    FLAG_ISOLATION_BROKEN,
    FLAG_Q_NOT_CLEARED,
    degree_bound_flags,
    isolation_flags,
    run_one,
    records_jsonl,
    summarize,
    summary_csv,
)
from conbreak.rng import derive

from oracles import naive_check_q, replay_states


def small_cfg(**overrides) -> TrialConfig:
    base = dict(
        ns=(10,),
        ps=(0.5,),
        trials=3,
        seed_base=0,
        connector_id="random",
        breaker_id="random",
        m=2,
        b=2,
    )
    base.update(overrides)
    return TrialConfig(**base)


def test_config_validation():
    with pytest.raises(ParameterError):
        TrialConfig(ns=(), ps=(0.5,))
    with pytest.raises(ParameterError):
        TrialConfig(ns=(0,), ps=(0.5,))
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,), ps=(0.5,), eps_list=(0.1,))
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,))
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,), ps=())
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,), ps=(1.5,))
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,), ps=(0.5,), trials=0)
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,), ps=(0.5,), m=0)
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,), ps=(0.5,), b=0)
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,), ps=(0.5,), jobs=0)
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,), ps=(0.5,), seed_base=-1)
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,), ps=(0.5,), breaker_id="nonsense")
    with pytest.raises(ParameterError):
        TrialConfig(ns=(5,), ps=(0.5,), start_vertex=-1)
    # a bool ran and wrote True into the CSV's p column, and a string
    # failed the range checks with a TypeError
    for grid in (
        dict(ps=(True,)),
        dict(ps=(0.5, False)),
        dict(ps=("0.5",)),
        dict(eps_list=(True,)),
        dict(eps_list=("0.1",)),
        dict(ps=(None,)),
    ):
        with pytest.raises(ParameterError, match="real number"):
            TrialConfig(ns=(20,), **grid)
    # a density from a non-finite exponent would be made up: nan and +inf
    # both read as p = 1, -inf as p = 0
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="eps must be finite"):
            TrialConfig(ns=(20,), eps_list=(0.1, eps))
    # a repeated cell would count the same seeded games twice in one row
    for grid in (
        dict(ns=(20,), ps=(0.5, 0.5)),
        dict(ns=(20, 20), ps=(0.5,)),
        dict(ns=(20, 30), eps_list=(0.7, 0.9)),  # both clamp to p = 1 at n = 20
    ):
        with pytest.raises(ParameterError, match="twice"):
            TrialConfig(**grid)
    # exponents far above 2/3 clamp to p = 1 without overflowing
    assert TrialConfig(ns=(1000,), eps_list=(1000.0,)).ps_for(1000) == (1.0,)


@pytest.mark.parametrize(
    "bad",
    [
        dict(ns=(12.5,)),
        dict(ns=(12.0,)),
        dict(ns=(True,)),
        dict(trials=2.5),
        dict(m=2.5),
        dict(b=1.5),
        dict(jobs=1.0),
        dict(start_vertex=0.5),
    ],
)
def test_non_integer_sizes_and_counts_keep_existing_outputs(tmp_path, bad):
    """A non-integer board size, count or bias is refused when the config
    is built, so no output file is opened and truncated."""
    out_csv = tmp_path / "x.csv"
    records = tmp_path / "x.jsonl"
    out_csv.write_bytes(b"keep me\n")
    records.write_bytes(b"keep me too\n")
    with pytest.raises(ParameterError, match="must be an integer"):
        run_trials(small_cfg(out_csv=str(out_csv), out_records=str(records), **bad))
    assert out_csv.read_bytes() == b"keep me\n"
    assert records.read_bytes() == b"keep me too\n"


def test_eps_list_maps_to_probabilities():
    cfg = TrialConfig(ns=(100,), eps_list=(0.1, -0.1), trials=1)
    got = cfg.ps_for(100)
    assert got[0] == pytest.approx(100 ** (-2 / 3 + 0.1))
    assert got[1] == pytest.approx(100 ** (-2 / 3 - 0.1))
    capped = TrialConfig(ns=(4,), eps_list=(2.0,), trials=1)
    assert capped.ps_for(4) == (1.0,)

    grid = TrialConfig(ns=(4, 6), ps=(0.5, 1.0), trials=1)
    assert grid.cells() == [(4, 0.5), (4, 1.0), (6, 0.5), (6, 1.0)]


def test_run_one_is_deterministic():
    cfg = small_cfg()
    rec = run_one(cfg, 10, 0.5, 2)
    assert rec == run_one(cfg, 10, 0.5, 2)
    assert rec.seed == derive(0, 2)
    assert rec.n == 10 and rec.p == 0.5 and rec.trial == 2
    assert rec.winner in ("C", "B")
    # a start vertex outside the board is refused, never replaced
    with pytest.raises(ParameterError):
        small_cfg(start_vertex=99)
    with pytest.raises(ParameterError):
        run_one(small_cfg(ns=(100,), start_vertex=50), 10, 0.5, 0)


def test_p_zero_means_no_connector_wins():
    cfg = small_cfg(ps=(0.0,), trials=4)
    records, rows = run_trials(cfg)
    assert all(r.winner == BREAKER for r in records)
    assert rows[0].connector_wins == 0
    assert rows[0].breaker_wins == 4


def test_grid_cardinality_and_summary_consistency():
    cfg = small_cfg(ps=(0.2, 0.9), trials=3)
    records, rows = run_trials(cfg)
    assert len(records) == 6
    assert len(rows) == 2
    assert [r.trial for r in records] == [0, 1, 2, 0, 1, 2]
    assert rows == summarize(records)
    for row in rows:
        cell = [r for r in records if (r.n, r.p) == (row.n, row.p)]
        assert row.trials == 3
        assert row.connector_wins == sum(1 for r in cell if r.winner == "C")
        assert row.breaker_wins == sum(1 for r in cell if r.winner == "B")
        assert row.mean_rounds == pytest.approx(
            sum(r.rounds for r in cell) / len(cell)
        )
    # the whole sweep replays identically
    records2, rows2 = run_trials(cfg)
    assert records2 == records and rows2 == rows


def test_outputs_byte_identical(tmp_path):
    kwargs = dict(ps=(0.3, 0.8), trials=2)
    paths = []
    for tag in ("a", "b"):
        csv = tmp_path / f"summary-{tag}.csv"
        rec = tmp_path / f"records-{tag}.jsonl"
        run_trials(small_cfg(out_csv=str(csv), out_records=str(rec), **kwargs))
        paths.append((csv.read_bytes(), rec.read_bytes()))
    assert paths[0] == paths[1]

    csv_text = paths[0][0].decode()
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "10" and first[2] == "2"

    for line in paths[0][1].decode().strip().split("\n"):
        rec = json.loads(line)
        assert set(rec) == {
            "n",
            "p",
            "trial",
            "seed",
            "winner",
            "reason",
            "rounds",
            "flags",
        }


def test_parallel_matches_serial(tmp_path, monkeypatch):
    """Trial-major runs, serial and one task per (n, trial) on two
    workers, give the records and bytes of a cell-major loop over run_one
    with a fresh board per game. The core count is patched so that two
    workers are allowed on any machine."""
    from conbreak import harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    grids = [
        dict(ps=(0.4, 0.7), trials=3),
        dict(ns=(10, 16), ps=(0.4, 0.7, 0.2), trials=3),
        dict(ns=(12, 20), ps=None, eps_list=(-0.1, 0.2, 0.5), trials=2,
             connector_id="paper-connector", breaker_id="paper-breaker"),
    ]
    for i, kwargs in enumerate(grids):
        runs = {}
        for jobs in (1, 2):
            out = dict(out_csv=str(tmp_path / f"{i}-{jobs}.csv"),
                       out_records=str(tmp_path / f"{i}-{jobs}.jsonl"))
            runs[jobs] = run_trials(small_cfg(jobs=jobs, **out, **kwargs))
        cfg = small_cfg(**kwargs)
        cell_major = [run_one(cfg, n, p, t) for n, p in cfg.cells() for t in range(cfg.trials)]
        cell_major.sort(key=lambda r: (r.n, r.p, r.trial))
        assert runs[1] == runs[2] == (cell_major, summarize(cell_major)), i
        for ext in ("csv", "jsonl"):
            serial = (tmp_path / f"{i}-1.{ext}").read_bytes()
            assert (tmp_path / f"{i}-2.{ext}").read_bytes() == serial, (i, ext)


def test_pool_is_sized_to_the_tasks(tmp_path, monkeypatch):
    """jobs=8 on a 2-task grid asks the fork context for 2 workers. The
    stand-in pool records that and runs the tasks in this process; the
    core count is patched to allow jobs=8."""
    from conbreak import harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    asked = []

    class InlinePool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks, chunksize=1):
            return [fn(*t) for t in tasks]

    class ForkContext:
        Pool = InlinePool

    def get_context(method):
        assert method == "fork"
        return ForkContext()

    monkeypatch.setattr(harness.multiprocessing, "get_context", get_context)
    runs = {}
    for jobs in (1, 8):
        out = dict(out_csv=str(tmp_path / f"{jobs}.csv"),
                   out_records=str(tmp_path / f"{jobs}.jsonl"))
        runs[jobs] = run_trials(small_cfg(jobs=jobs, trials=2, ps=(0.3, 0.6), **out))
    assert asked == [2]
    assert runs[8] == runs[1]
    for ext in ("csv", "jsonl"):
        assert (tmp_path / f"8.{ext}").read_bytes() == (tmp_path / f"1.{ext}").read_bytes()


def test_jobs_above_the_core_count_are_refused(monkeypatch):
    """A jobs count above os.cpu_count() is refused when the config is
    built, before any worker process starts."""
    from conbreak import harness

    def no_pool(method):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness.multiprocessing, "get_context", no_pool)
    with pytest.raises(ParameterError, match="jobs must not exceed the 2 cores, got 3"):
        small_cfg(jobs=3)
    assert small_cfg(jobs=2).jobs == 2
    # no core count known: one job only
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    with pytest.raises(ParameterError, match="got 2"):
        small_cfg(jobs=2)


def test_unwritable_output_fails_before_trials(tmp_path, monkeypatch):
    from conbreak import harness

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    cfg = small_cfg(out_records=str(tmp_path / "no-such-dir" / "r.jsonl"))
    with pytest.raises(OSError):
        run_trials(cfg)
    both = small_cfg(
        out_csv=str(tmp_path / "ok.csv"),
        out_records=str(tmp_path / "no-such-dir" / "r.jsonl"),
    )
    with pytest.raises(OSError):
        run_trials(both)
    # a directory in an output's place fails before any trial too
    with pytest.raises(IsADirectoryError):
        run_trials(small_cfg(out_csv=str(tmp_path)))
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_summarize_keeps_first_seen_cell_order():
    def rec(n, p, trial, winner, reason="spanned", rounds=4):
        return TrialRecord(n, p, trial, 0, winner, reason, rounds)

    records = [
        rec(8, 0.9, 0, "C"),
        rec(8, 0.1, 0, "B", reason="board-exhausted"),
        rec(8, 0.9, 1, "B", reason="forfeit", rounds=2),
        rec(8, 0.1, 1, "B", reason="board-exhausted", rounds=6),
    ]
    rows = summarize(records)
    assert [(r.n, r.p) for r in rows] == [(8, 0.9), (8, 0.1)]
    assert rows[0].connector_wins == 1 and rows[0].breaker_wins == 1
    assert rows[0].forfeits == 1
    assert rows[0].mean_rounds == pytest.approx(3.0)
    assert rows[1].mean_rounds == pytest.approx(5.0)

    line = SummaryRow(100, 0.25, 4, 2, 2, 1, 3.5).csv_line()
    assert line == "100,0.25,4,2,2,1,3.500000"


def test_write_helpers():
    rows = [SummaryRow(5, 0.5, 2, 1, 1, 0, 2.0)]
    assert summary_csv(rows) == CSV_HEADER + "\n5,0.5,2,1,1,0,2.000000\n"
    assert summary_csv([]) == CSV_HEADER + "\n"

    records = [TrialRecord(5, 0.5, 0, 7, "C", "spanned", 2, ("x",))]
    out = records_jsonl(records)
    assert out.endswith("\n") and out.count("\n") == 1
    assert records_jsonl(records + records) == out + out
    assert json.loads(out) == {
        "n": 5,
        "p": 0.5,
        "trial": 0,
        "seed": 7,
        "winner": "C",
        "reason": "spanned",
        "rounds": 2,
        "flags": ["x"],
    }


def scan_row(n, p, frac, trials=10):
    return SummaryRow(n, p, trials, round(frac * trials), trials - round(frac * trials), 0, 1.0)


def test_threshold_scan_bracket():
    rows = [scan_row(100, 0.01, 0.1), scan_row(100, 0.04, 0.9)]
    est = threshold_scan(rows)[100]
    assert est is not None
    assert 0.01 < est["p"] < 0.04
    assert est["exponent"] == pytest.approx(math.log(est["p"]) / math.log(100))


def test_threshold_scan_flat_has_no_estimate():
    rows = [scan_row(64, 0.01, 0.0), scan_row(64, 0.02, 0.0), scan_row(64, 0.04, 0.0)]
    assert threshold_scan(rows) == {64: None}


def test_threshold_scan_hits_middle_of_symmetric_ramp():
    ps = (0.01, 0.02, 0.04)  # log-spaced
    rows = [scan_row(81, p, f) for p, f in zip(ps, (0.2, 0.5, 0.8))]
    est = threshold_scan(rows)[81]
    assert est["p"] == pytest.approx(0.02)
    assert est["exponent"] == pytest.approx(math.log(0.02) / math.log(81))
    # rows arrive unsorted; the scan orders by p itself
    est2 = threshold_scan(list(reversed(rows)))[81]
    assert est2["p"] == pytest.approx(0.02)


def fabricate_result(g, m, b, start, entries, winner=BREAKER, reason=REASON_EXHAUSTED):
    state = GameState(g, m=m, b=b, start_vertex=start)
    for _, _, edges in entries:
        state = validate_and_apply(state, Move(tuple(edges)))
    return GameResult(
        winner=winner,
        reason=reason,
        rounds=entries[-1][0] if entries else 0,
        transcript=tuple(entries),
        flags=(),
        final_state=state,
        m=m,
        b=b,
        start_vertex=start,
        seed=0,
    )


# ln(8)^2 is about 4.3, so five Breaker edges at one outside vertex trip it
PILING_BOARD = Graph(8, [(0, k) for k in range(1, 8)])
PILING = (
    (1, CONNECTOR, ()),
    (1, BREAKER, ((0, 1), (0, 2), (0, 3))),
    (2, CONNECTOR, ()),
    (2, BREAKER, ((0, 4), (0, 5))),
)


def test_degree_bound_flags_detect_piling():
    g, entries = PILING_BOARD, PILING
    result = fabricate_result(g, 1, 3, None, entries)
    assert degree_bound_flags(g, result) == [f"{FLAG_DEGREE_BOUND}@2"]

    # the same pile on a territory vertex is exempt
    shielded = fabricate_result(g, 1, 3, 0, entries)
    assert degree_bound_flags(g, shielded) == []

    assert degree_bound_flags(Graph(1), fabricate_result(Graph(1), 1, 1, None, ())) == []


def naive_degree_bound_flags(g: Graph, result: GameResult):
    """The audit as a full recount of Breaker's edges after every Breaker
    move, over every vertex outside Connector's territory."""
    bound = math.log(g.n) ** 2
    out = []
    for rnd, role, state in replay_states(result, g):
        if role == BREAKER:
            counts = Counter(w for e in state.breaker_edges for w in e)
            if any(c >= bound and w not in state.v_c for w, c in counts.items()):
                out.append(f"{FLAG_DEGREE_BOUND}@{rnd}")
    return out


def test_degree_bound_flags_match_naive_scan():
    flagged = cleared = 0
    for n, p, seed in itertools.product((20, 40, 60), (0.3, 0.9), range(3)):
        g = gen_gnp(n, p, seed)
        for connector, breaker in (
            ("random", "greedy-degree"),
            ("random", "paper-breaker"),
            ("greedy-degree", "paper-breaker"),
        ):
            result = run_game(
                g, make_strategy(connector), make_strategy(breaker),
                m=2, b=2, start_vertex=0, seed=seed,
            )
            got = degree_bound_flags(g, result)
            assert got == naive_degree_bound_flags(g, result), (n, p, seed, connector, breaker)
            if got:
                flagged += 1
                last = int(got[-1].split("@")[1])
                cleared += last < result.transcript[-1][0]
    # games that cross the bound, some of which Connector later absorbs
    assert flagged >= 10 and cleared >= 1, (flagged, cleared)


def test_audits_do_not_replay(monkeypatch):
    piling = fabricate_result(PILING_BOARD, 1, 3, None, PILING)
    g = fan_graph()
    dec = build_bad_set(g, 0)
    # Breaker leaves round 1's violations standing, then the center joins
    late = fabricate_result(
        g, 1, 2, 4, ((1, CONNECTOR, ((2, 4),)), (1, BREAKER, ()), (2, CONNECTOR, ((0, 2),)))
    )

    def refuse(*args):
        raise AssertionError("a move was checked or applied again")

    # validate_and_apply, and so the oracle's replay, calls the engine's
    # helpers as module globals, so the patch catches a replay
    monkeypatch.setattr(engine, "_check_move", refuse)
    monkeypatch.setattr(engine, "_apply_in_place", refuse)
    with pytest.raises(AssertionError):
        next(replay_states(piling, PILING_BOARD))
    assert degree_bound_flags(PILING_BOARD, piling) == [f"{FLAG_DEGREE_BOUND}@2"]
    assert isolation_flags(g, late, dec) == [
        f"{FLAG_ISOLATION_BROKEN}@2",
        f"{FLAG_Q_NOT_CLEARED}@1",
    ]


@st.composite
def legal_games(draw):
    """A board of at most 8 vertices, biases m, b in {1, 2, 3}, a start
    vertex or None, and a legal transcript on them, empty moves included,
    that ends where run_game would end the game."""
    n = draw(st.integers(2, 8))
    pairs = draw(
        st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), min_size=1, unique=True)
    )
    g = Graph(n, sorted(pairs))
    m, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    start = draw(st.none() | st.integers(0, n - 1))
    state = GameState(g, m=m, b=b, start_vertex=start)
    entries = []
    while len(entries) < 60:
        role = state.to_move
        reach = set(state.v_c)
        edges = []
        for _ in range(draw(st.integers(0, state.bias(role)))):
            legal = [
                e for e in state.free_edges()
                if e not in edges and (role == BREAKER or not reach or reach.intersection(e))
            ]
            if not legal:
                break
            edges.append(draw(st.sampled_from(legal)))
            reach.update(edges[-1])
        entries.append((state.round, role, tuple(edges)))
        state = validate_and_apply(state, Move(tuple(edges)))
        if (role == CONNECTOR and state.connector_has_spanned()) or not state.free_edges():
            break
        if len(entries) >= 2 and not entries[-1][2] and not entries[-2][2]:
            break
    return g, m, b, start, tuple(entries)


# ln(5)^2 is about 2.6: vertex 0 reaches three Breaker edges with the first
# edge of round 2's Breaker move, Connector absorbs it in round 3, and the
# three Breaker edges vertex 1 reaches in round 4 come after it joined
ABSORBED = (
    Graph(5, list(itertools.combinations(range(5), 2))),
    1,
    3,
    None,
    (
        (1, CONNECTOR, ((3, 4),)),
        (1, BREAKER, ((0, 1), (0, 2))),
        (2, CONNECTOR, ((2, 4),)),
        (2, BREAKER, ((0, 3), (1, 3))),
        (3, CONNECTOR, ((0, 4),)),
        (3, BREAKER, ()),
        (4, CONNECTOR, ((1, 2),)),
        (4, BREAKER, ((1, 4),)),
    ),
)


def test_degree_bound_flags_stop_when_connector_absorbs():
    g, m, b, start, entries = ABSORBED
    result = fabricate_result(g, m, b, start, entries)
    assert degree_bound_flags(g, result) == [f"{FLAG_DEGREE_BOUND}@2"]


@settings(max_examples=300, deadline=None)
@given(legal_games())
# random games seldom absorb an over-bound vertex, or pile on the start
# vertex while Connector passes
@example(ABSORBED)
@example((PILING_BOARD, 1, 3, 0, PILING))
def test_degree_bound_flags_match_naive_scan_on_fabricated_games(game):
    g, m, b, start, entries = game
    result = fabricate_result(g, m, b, start, entries)
    assert degree_bound_flags(g, result) == naive_degree_bound_flags(g, result)


@settings(max_examples=300, deadline=None)
@given(legal_games(), st.data())
def test_check_q_matches_replay_on_fabricated_games(game, data):
    g, m, b, start, entries = game
    result = fabricate_result(g, m, b, start, entries)
    dec = build_bad_set(g, data.draw(st.integers(0, g.n - 1), label="center"))
    assert check_q(g, result, dec).to_json() == naive_check_q(g, result, dec).to_json()


def fan_graph() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)])


def test_isolation_flags_from_audit():
    g = fan_graph()
    dec = build_bad_set(g, 0)
    clean = fabricate_result(
        g,
        1,
        2,
        4,
        (
            (1, CONNECTOR, ((2, 4),)),
            (1, BREAKER, ((0, 2), (1, 4))),
            (2, CONNECTOR, ()),
            (2, BREAKER, ()),
        ),
    )
    assert isolation_flags(g, clean, dec) == []

    lazy = fabricate_result(g, 1, 2, 4, ((1, CONNECTOR, ((2, 4),)), (1, BREAKER, ())))
    assert isolation_flags(g, lazy, dec) == [f"{FLAG_Q_NOT_CLEARED}@1"]

    broken = fabricate_result(g, 1, 2, 2, ((1, CONNECTOR, ((0, 2),)),))
    assert isolation_flags(g, broken, dec) == [f"{FLAG_ISOLATION_BROKEN}@1"]


def test_run_one_audit_toggles():
    n = 200
    cfg = TrialConfig(
        ns=(n,),
        ps=(n ** -0.8,),
        trials=1,
        connector_id="random",
        breaker_id="paper-breaker",
        m=1,
        b=2,
        verify_degree_bound=True,
        verify_isolation=True,
    )
    rec = run_one(cfg, n, n ** -0.8, 0)
    assert rec.winner == BREAKER
    assert not any(f.startswith(FLAG_ISOLATION_BROKEN) for f in rec.flags)
    assert not any(f.startswith(FLAG_Q_NOT_CLEARED) for f in rec.flags)


def test_paper_connector_gets_density_hint():
    cfg = TrialConfig(
        ns=(60,),
        ps=(0.4,),
        trials=1,
        connector_id="paper-connector",
        breaker_id="random",
        m=2,
        b=1,
    )
    rec = run_one(cfg, 60, 0.4, 0)
    assert rec.winner == CONNECTOR
    assert rec.reason == "spanned"

"""Monte Carlo experiment driver.

Sweeps a grid of board sizes and edge probabilities, playing one seeded
game per trial with pluggable strategies, and reports per-cell win
fractions plus a threshold-crossing estimate. Runs are deterministic
given the config: trial seeds come from the documented derive() mix of
the seed base and the trial index, shared across grid cells so that
neighbouring cells see coupled graph sequences. Records can be audited
post-hoc (degree-bound monitor, isolation audit) with toggles; audit
findings land in per-record flags, never in exceptions.

Sweeps run trial-major: for each n, each trial plays every density of
that n in turn, all cut from one GnpDraws of the trial's seed, so one
trial's boards are nested in p and its pair draws are made once, inside
its first game's board. Records are sorted by (n, p, trial) before they
are summarised or written, so the outputs do not depend on that order.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .breaker import BadSetDecomposition
from .connector import EXPANSION_CAP
from .engine import BREAKER, GameResult, REASON_FORFEIT, replay_states, run_game
from .errors import ParameterError
from .graph import GnpDraws, Graph, gen_gnp
from .rng import check_seed, derive
from .strategies import IsolationBreakerStrategy, make_strategy

FLAG_DEGREE_BOUND = "degree-bound-exceeded"
FLAG_ISOLATION_BROKEN = "isolation-broken"
FLAG_Q_NOT_CLEARED = "q-not-cleared"

CSV_HEADER = "n,p,trials,connector_wins,breaker_wins,forfeits,mean_rounds"


@dataclass(frozen=True)
class TrialConfig:
    """One sweep: each (n, p) cell gets `trials` seeded games.

    Give either `ps` (explicit probabilities) or `eps_list` (density
    exponent offsets, mapped to p = n^(-2/3+eps) per n). Strategy ids
    resolve through the registry; the spanning Connector gets the cell's
    p as its density hint plus the expansion_cap knob."""

    ns: Tuple[int, ...]
    ps: Optional[Tuple[float, ...]] = None
    eps_list: Optional[Tuple[float, ...]] = None
    trials: int = 100
    seed_base: int = 0
    connector_id: str = "paper-connector"
    breaker_id: str = "paper-breaker"
    m: int = 2
    b: int = 2
    start_vertex: Optional[int] = 0
    out_csv: Optional[str] = None
    out_records: Optional[str] = None
    verify_degree_bound: bool = False
    verify_isolation: bool = False
    expansion_cap: int = EXPANSION_CAP
    jobs: int = 1

    def __post_init__(self):
        if not self.ns:
            raise ParameterError("need at least one board size")
        if any(n < 1 for n in self.ns):
            raise ParameterError(f"board sizes must be positive: {self.ns}")
        if (self.ps is None) == (self.eps_list is None):
            raise ParameterError("give exactly one of ps or eps_list")
        if self.ps is not None:
            if not self.ps:
                raise ParameterError("ps must be non-empty")
            for p in self.ps:
                if not (0.0 <= p <= 1.0):
                    raise ParameterError(f"p must be in [0, 1], got {p}")
        elif not self.eps_list:
            raise ParameterError("eps_list must be non-empty")
        if self.trials < 1:
            raise ParameterError(f"trials must be at least 1, got {self.trials}")
        if self.m < 1 or self.b < 1:
            raise ParameterError(f"bias must be at least 1, got m={self.m} b={self.b}")
        if self.jobs < 1:
            raise ParameterError(f"jobs must be at least 1, got {self.jobs}")
        # checked here, before run_trials truncates any output file
        if self.start_vertex is not None and not (0 <= self.start_vertex < min(self.ns)):
            raise ParameterError(
                f"start vertex {self.start_vertex} out of range for n={min(self.ns)}"
            )
        if self.expansion_cap < 1:
            raise ParameterError(f"expansion cap must be at least 1, got {self.expansion_cap}")
        check_seed(self.seed_base)
        # fail fast on unknown strategy ids
        make_strategy(self.connector_id)
        make_strategy(self.breaker_id)

    def ps_for(self, n: int) -> Tuple[float, ...]:
        if self.ps is not None:
            return self.ps
        return tuple(
            min(1.0, n ** (-2.0 / 3.0 + eps)) for eps in self.eps_list
        )

    def cells(self) -> List[Tuple[int, float]]:
        return [(n, p) for n in self.ns for p in self.ps_for(n)]


@dataclass(frozen=True)
class TrialRecord:
    n: int
    p: float
    trial: int
    seed: int
    winner: str
    reason: str
    rounds: int
    flags: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "p": self.p,
            "trial": self.trial,
            "seed": self.seed,
            "winner": self.winner,
            "reason": self.reason,
            "rounds": self.rounds,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class SummaryRow:
    n: int
    p: float
    trials: int
    connector_wins: int
    breaker_wins: int
    forfeits: int
    mean_rounds: float

    def csv_line(self) -> str:
        return (
            f"{self.n},{self.p!r},{self.trials},{self.connector_wins},"
            f"{self.breaker_wins},{self.forfeits},{self.mean_rounds:.6f}"
        )


def degree_bound_flags(g: Graph, result: GameResult) -> List[str]:
    """Replay a transcript and flag every round after which some vertex
    outside Connector territory carries at least ln^2(n) opponent edges."""
    n = g.n
    if n < 2:
        return []
    bound = math.log(n) ** 2
    out: List[str] = []
    # Breaker degrees only grow, and only at the endpoints of Breaker
    # moves, so the vertices at or over the bound are kept as a set
    over: Set[int] = set()
    states = replay_states(result, g)
    for (rnd, role, state), (_, _, edges) in zip(states, result.transcript):
        if role == BREAKER:
            deg = state.breaker_degrees
            over.update(w for e in edges for w in e if deg[w] >= bound)
            if any(w not in state.v_c for w in over):
                out.append(f"{FLAG_DEGREE_BOUND}@{rnd}")
    return out


def isolation_flags(g: Graph, result: GameResult, dec: BadSetDecomposition) -> List[str]:
    """Audit a finished game against an isolation decomposition: flag the
    round where the defended vertex joined territory, and every Breaker
    reply that left violation edges standing."""
    from .verifier import check_q

    report = check_q(g, result, dec)
    out = []
    iso = report.clauses["isolated"]
    if not iso.passed:
        out.append(f"{FLAG_ISOLATION_BROKEN}@{iso.witness['round']}")
    cleared = report.clauses["cleared"]
    if not cleared.passed:
        out.append(f"{FLAG_Q_NOT_CLEARED}@{cleared.witness['round']}")
    return out


def connector_options(
    connector_id: str, p: Optional[float], expansion_cap: int = EXPANSION_CAP
) -> Dict[str, object]:
    """Constructor options for a Connector strategy: the spanning
    Connector takes the board's density, when known, as its hint."""
    if connector_id == "paper-connector":
        return {"p_hint": p, "expansion_cap": expansion_cap}
    return {}


def run_one(
    cfg: TrialConfig, n: int, p: float, trial: int, draws: Optional[GnpDraws] = None
) -> TrialRecord:
    """Play the single seeded game for one grid cell and trial index. The
    board is cut from `draws`, the trial's GnpDraws, when given."""
    seed = derive(cfg.seed_base, trial)
    g = gen_gnp(n, p, seed, draws)
    connector = make_strategy(
        cfg.connector_id, **connector_options(cfg.connector_id, p, cfg.expansion_cap)
    )
    breaker = make_strategy(cfg.breaker_id)
    result = run_game(
        g, connector, breaker, m=cfg.m, b=cfg.b, start_vertex=cfg.start_vertex, seed=seed
    )
    flags = list(result.flags)
    if cfg.verify_degree_bound:
        flags.extend(degree_bound_flags(g, result))
    if cfg.verify_isolation and isinstance(breaker, IsolationBreakerStrategy):
        if breaker.decomposition is not None:
            flags.extend(isolation_flags(g, result, breaker.decomposition))
        elif breaker.candidate is not None and breaker.candidate in result.final_state.v_c:
            flags.append(FLAG_ISOLATION_BROKEN)
    return TrialRecord(
        n=n,
        p=p,
        trial=trial,
        seed=seed,
        winner=result.winner,
        reason=result.reason,
        rounds=result.rounds,
        flags=tuple(flags),
    )


def run_trial(cfg: TrialConfig, n: int, trial: int) -> List[TrialRecord]:
    """Every density of board size n for one trial, in `ps_for(n)` order,
    from one lazy GnpDraws: the first game's board makes the draws."""
    ps = cfg.ps_for(n)
    draws = GnpDraws(n, derive(cfg.seed_base, trial), max(ps))
    return [run_one(cfg, n, p, trial, draws) for p in ps]


def summarize(records: Sequence[TrialRecord]) -> List[SummaryRow]:
    """Per-cell summary rows in (n, p) order of first appearance."""
    order: List[Tuple[int, float]] = []
    buckets: Dict[Tuple[int, float], List[TrialRecord]] = {}
    for r in records:
        key = (r.n, r.p)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(r)
    rows = []
    for n, p in order:
        rs = buckets[(n, p)]
        cw = sum(1 for r in rs if r.winner == "C")
        bw = sum(1 for r in rs if r.winner == "B")
        ff = sum(1 for r in rs if r.reason == REASON_FORFEIT)
        mean_rounds = sum(r.rounds for r in rs) / len(rs)
        rows.append(SummaryRow(n, p, len(rs), cw, bw, ff, mean_rounds))
    return rows


def summary_csv(rows: Sequence[SummaryRow]) -> str:
    """The summary CSV: header line, then one line per row."""
    return "".join([CSV_HEADER + "\n"] + [row.csv_line() + "\n" for row in rows])


def records_jsonl(records: Sequence[TrialRecord]) -> str:
    """One sorted-key JSON object per record, one per line."""
    return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records)


def _open_out(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def run_trials(cfg: TrialConfig) -> Tuple[List[TrialRecord], List[SummaryRow]]:
    """Run the whole grid, trial-major (one `run_trial` per (n, trial),
    also the unit of a parallel task); returns (records, summary rows)
    and writes the configured outputs. Parallel runs produce
    byte-identical outputs to serial ones: records are sorted by
    (n, p, trial) regardless of run or completion order."""
    with ExitStack() as outputs:
        # opened before any trial runs, so a bad path fails fast
        csv_fh = outputs.enter_context(_open_out(cfg.out_csv)) if cfg.out_csv else None
        rec_fh = outputs.enter_context(_open_out(cfg.out_records)) if cfg.out_records else None
        tasks = [(cfg, n, trial) for n in cfg.ns for trial in range(cfg.trials)]
        if cfg.jobs > 1:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(cfg.jobs) as pool:
                per_trial = pool.starmap(run_trial, tasks, chunksize=1)
        else:
            per_trial = [run_trial(*t) for t in tasks]
        records = [r for rs in per_trial for r in rs]
        records.sort(key=lambda r: (r.n, r.p, r.trial))
        rows = summarize(records)
        if csv_fh:
            csv_fh.write(summary_csv(rows))
        if rec_fh:
            rec_fh.write(records_jsonl(records))
    return records, rows


def threshold_scan(rows: Sequence[SummaryRow]) -> Dict[int, Optional[Dict[str, float]]]:
    """Estimate where the Connector win fraction crosses one half.

    Per board size, rows are ordered by p and the first bracket around
    0.5 is interpolated linearly in log p; the result carries both the
    crossing probability and its exponent log(p)/log(n). Board sizes
    whose fractions never straddle 0.5 map to None."""
    by_n: Dict[int, List[SummaryRow]] = {}
    for row in rows:
        by_n.setdefault(row.n, []).append(row)
    out: Dict[int, Optional[Dict[str, float]]] = {}
    for n, cells in by_n.items():
        cells = sorted(cells, key=lambda r: r.p)
        fracs = [(r.p, r.connector_wins / r.trials) for r in cells if r.trials > 0]
        estimate = None
        for (p1, f1), (p2, f2) in zip(fracs, fracs[1:]):
            if f1 <= 0.5 <= f2 and f2 > f1 and p1 > 0:
                t = (0.5 - f1) / (f2 - f1)
                logp = math.log(p1) + t * (math.log(p2) - math.log(p1))
                p_hat = math.exp(logp)
                estimate = {"p": p_hat, "exponent": math.log(p_hat) / math.log(n)}
                break
        if estimate is None:
            for p, f in fracs:
                if f == 0.5 and p > 0:
                    estimate = {"p": p, "exponent": math.log(p) / math.log(n)}
                    break
        out[n] = estimate
    return out

"""The benchmark's three workloads.

Each workload turns the benchmark seed into program inputs, runs them in
passes, and checks the outputs. A pass is a fixed mix of trials, so a run
made of whole passes always measures the same mix. One trial is one seeded
board plus the game or audit played on it.

Inputs depend only on (workload, seed, pass index mod PERIOD); the program
never sees the benchmark seed itself. Inputs repeat after PERIOD passes so
that every trial of a run at PIN_SEED has a pinned digest, however fast
the program becomes.

Importing this module imports the package from ``src/`` next to the
benchmark directory; it starts nothing and writes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from conbreak import cli, connector, graph, harness, verifier  # noqa: E402

# The seed whose outputs are pinned in pins.json.
PIN_SEED = 0


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_seed(workload: str, seed: int, index: int) -> int:
    """64-bit program seed for one input slot, derived from the benchmark
    seed with a hash the program does not share."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class PassOutput:
    """What one pass produced: a digest per trial in trial order, a digest
    per whole output, the trials that failed a structural check, and
    whether the whole outputs failed one (which fails every trial)."""

    trials: List[str] = field(default_factory=list)
    outputs: Dict[str, str] = field(default_factory=dict)
    bad_trials: set = field(default_factory=set)
    broken: bool = False


class TrialClock:
    """Per-trial wall times. `tracer`, when given, is told which trial is
    running so that spans carry its id."""

    def __init__(self, tracer=None):
        self.times: List[float] = []
        self.tracer = tracer

    def start(self) -> float:
        if self.tracer is not None:
            self.tracer.trial = len(self.times)
        return time.perf_counter()

    def stop(self, t0: float) -> None:
        self.times.append(time.perf_counter() - t0)
        if self.tracer is not None:
            self.tracer.trial = -1

    @contextlib.contextmanager
    def around_run_one(self):
        """Time every harness.run_one call, the harness's unit of one trial."""
        inner = harness.run_one

        def run_one(*args, **kwargs):
            t0 = self.start()
            try:
                return inner(*args, **kwargs)
            finally:
                self.stop(t0)

        harness.run_one = run_one
        try:
            yield
        finally:
            harness.run_one = inner


def _check_summary(records_text: str, csv_text: str) -> bool:
    """The CSV must be the per-cell summary of the record lines."""
    cells: Dict[Tuple[int, float], List[dict]] = {}
    for line in records_text.splitlines():
        rec = json.loads(line)
        if rec["winner"] not in ("C", "B") or rec["rounds"] < 0:
            return False
        cells.setdefault((rec["n"], rec["p"]), []).append(rec)
    lines = csv_text.splitlines()
    if not lines or lines[0] != harness.CSV_HEADER:
        return False
    expect = []
    for (n, p), rs in cells.items():
        cw = sum(r["winner"] == "C" for r in rs)
        ff = sum(r["reason"] == "forfeit" for r in rs)
        mean = sum(r["rounds"] for r in rs) / len(rs)
        expect.append(f"{n},{p!r},{len(rs)},{cw},{len(rs) - cw},{ff},{mean:.6f}")
    return lines[1:] == expect


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class PaperSweep:
    """`conbreak sweep`, in-process: paper-connector vs paper-breaker at
    one board size, one trial per density of the paper's exponent grid.

    Chosen because it is the paper's experiment (criterion 8's grid). Its
    cells split three ways: sparse cells are mostly board generation
    (forfeit in round 0-1), the n^-0.5 cell is mostly the failing stage-1
    tree search, the n^-0.35 cell mostly per-move target selection and
    Graph construction. So p50 follows one regime and p90 the other."""

    name = "paper-sweep"
    period = 64
    exponents = (-0.95, -0.8, -0.65, -0.5, -0.35)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.n = 60 if smoke else 1000
        self.ps = ",".join(repr(self.n**e) for e in self.exponents)
        self.trials_per_pass = len(self.exponents)
        self.csv = os.path.join(workdir, "sweep.csv")
        self.records = os.path.join(workdir, "sweep.jsonl")

    def argv(self, k: int) -> List[str]:
        return [
            "sweep",
            "--ns", str(self.n),
            "--ps", self.ps,
            "--trials", "1",
            "--seed", str(input_seed(self.name, self.seed, k % self.period)),
            "--out", self.csv,
            "--records", self.records,
        ]

    def ready(self) -> None:
        """What a sweep does before its first trial: parse the command
        line and validate the config. Stops where the trials would start."""
        real = cli.run_trials
        cli.run_trials = lambda cfg: ([], [])
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv(0))
        finally:
            cli.run_trials = real
        if code != 0:
            raise RuntimeError(f"sweep set-up exited with {code}")

    def run_pass(self, k: int, clock: TrialClock) -> Tuple[float, PassOutput]:
        out = io.StringIO()
        with clock.around_run_one(), contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(self.argv(k))
            wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"sweep exited with {code}")
        csv_text, rec_text, stdout = _read(self.csv), _read(self.records), out.getvalue()
        res = PassOutput(
            trials=[sha(line) for line in rec_text.splitlines()],
            outputs={"csv": sha(csv_text), "records": sha(rec_text), "stdout": sha(stdout)},
        )
        res.broken = stdout != csv_text or not _check_summary(rec_text, csv_text)
        return wall, res


class DenseBoards:
    """Criterion-7 style: board generation, cells, decomposition and its
    check, with no game.

    Chosen because board generation is nearly all of this work (6.2 s of
    6.5 s when measured), so a faster graph core shows here; it runs no
    engine or strategy code, so engine changes should leave it alone."""

    name = "dense-boards"
    period = 32

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        ns = (200,) if smoke else (500, 1000)
        self.grid = [(n, p) for n in ns for p in (0.15, 0.25, 0.35, 0.45)]
        self.trials_per_pass = len(self.grid)

    def ready(self) -> None:
        pass

    @staticmethod
    def trial(n: int, p: float, s: int, x: int, depth: int):
        """One board and its decomposition audit. The board is freed on
        return, so its teardown is timed with the trial that built it."""
        g = graph.gen_gnp(n, p, s)
        cells = connector.make_cells(n, x, depth, seed=s)
        dec = connector.decompose(g, x, cells, depth, seed=s)
        return g.edge_count(), None if dec is None else verifier.check_d(dec)

    def run_pass(self, k: int, clock: TrialClock) -> Tuple[float, PassOutput]:
        res = PassOutput()
        wall = 0.0
        base = (k % self.period) * len(self.grid)
        for i, (n, p) in enumerate(self.grid):
            s = input_seed(self.name, self.seed, base + i)
            x = s % n
            depth = 3 if s % 5 == 0 else 2
            t0 = clock.start()
            edges, report = self.trial(n, p, s, x, depth)
            clock.stop(t0)
            wall += clock.times[-1]
            if report is not None and not report.all_passed():
                res.bad_trials.add(i)
            out = {
                "n": n,
                "p": p,
                "x": x,
                "k": depth,
                "edges": edges,
                "report": None if report is None else report.to_dict(),
            }
            res.trials.append(sha(json.dumps(out, sort_keys=True)))
        res.outputs = {"reports": sha("\n".join(res.trials))}
        return wall, res


class BaselineGames:
    """harness.run_trials on small boards: the random and greedy-degree
    Connectors against the random, greedy-degree and paper Breakers, with
    the degree-bound and isolation audits on.

    Chosen because boards are small (about 2k edges at most), so
    generation is negligible, while games run hundreds of rounds and every
    baseline propose rescans all edges: this is where engine-side indices
    show. It is also the only workload with isolation play, check_b on
    live games and the post-game audits."""

    name = "baseline-games"
    period = 16
    pairs = [
        (c, b)
        for c in ("random", "greedy-degree")
        for b in ("random", "greedy-degree", "paper-breaker")
    ]

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.n = 40 if smoke else 200
        self.ps = (self.n**-0.8, 0.05, 0.1)
        self.trials_per_pass = len(self.pairs) * len(self.ps)
        self.workdir = workdir

    def config(self, k: int, pair: int) -> "harness.TrialConfig":
        c, b = self.pairs[pair]
        return harness.TrialConfig(
            ns=(self.n,),
            ps=self.ps,
            trials=1,
            seed_base=input_seed(self.name, self.seed, k % self.period),
            connector_id=c,
            breaker_id=b,
            out_csv=os.path.join(self.workdir, f"pair{pair}.csv"),
            out_records=os.path.join(self.workdir, f"pair{pair}.jsonl"),
            verify_degree_bound=True,
            verify_isolation=True,
        )

    def ready(self) -> None:
        for pair in range(len(self.pairs)):
            self.config(0, pair)

    def run_pass(self, k: int, clock: TrialClock) -> Tuple[float, PassOutput]:
        res = PassOutput()
        wall = 0.0
        csvs, recs = [], []
        for pair in range(len(self.pairs)):
            with clock.around_run_one():
                t0 = time.perf_counter()
                cfg = self.config(k, pair)
                harness.run_trials(cfg)
                wall += time.perf_counter() - t0
            csv_text, rec_text = _read(cfg.out_csv), _read(cfg.out_records)
            res.trials.extend(sha(line) for line in rec_text.splitlines())
            res.broken = res.broken or not _check_summary(rec_text, csv_text)
            csvs.append(csv_text)
            recs.append(rec_text)
        res.outputs = {"csv": sha("".join(csvs)), "records": sha("".join(recs))}
        return wall, res


WORKLOADS: Dict[str, Callable] = {
    w.name: w for w in (PaperSweep, DenseBoards, BaselineGames)
}

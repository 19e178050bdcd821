"""Self-test of the benchmark at tiny sizes, about ten seconds on two cores.

    python3 bench/selftest.py

For every workload it runs the benchmark at --smoke sizes on the pinned
seed, with and without tracing, and checks that:

- the printed metric names and units are exactly those in BENCHMARK.json;
- every output matches its pinned digest, and the traced run reproduces
  the untraced digests (both show as failed == 0);
- self times nest: no span and no layer has a negative self time, and all
  self times together are at most the traced wall time.

It also checks that a hook whose target is gone is reported missing and
drops the metrics that need it, that every hook is restored, and that the
benchmark fails without printing a result when the package sources are
absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import BENCH, OUT_DIR, ROOT

EPS = 1e-9


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(os.path.relpath(BENCH, ROOT), "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "0",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res: dict, expected: list, what: str) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, (what, sorted(res))
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, (what, res)
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, (what, sorted(set(got) ^ set(want)))
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), (what, name)


def check_nesting(workload: str, res: dict) -> None:
    from tracing import END, NAME, START, self_times

    path = os.path.join(OUT_DIR, f"{workload}-seed0.spans.jsonl")
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans, workload
    selfs = self_times(spans)
    for s, st in zip(spans, selfs):
        assert st >= -EPS, (workload, s, st)
        assert s[END] >= s[START], (workload, s)
    per_layer = {}
    for s, st in zip(spans, selfs):
        per_layer[s[NAME]] = per_layer.get(s[NAME], 0.0) + st
    assert all(v >= -EPS for v in per_layer.values()), (workload, per_layer)
    wall = res["metrics"]["trace.wall_s"]["value"]
    assert sum(selfs) <= wall + EPS, (workload, sum(selfs), wall)


def check_missing_hooks() -> None:
    import workloads  # noqa: F401  (puts the package sources on the path)
    import tracing
    from conbreak import connector, strategies

    originals = {
        (mod, attr): getattr(__import__(mod, fromlist=[attr]), attr)
        for mod, attr, _ in tracing.FUNCTION_HOOKS
    }
    cls = strategies.RandomStrategy
    original_propose = cls.__dict__["propose"]
    saved = connector.select_target
    del connector.select_target
    try:
        tracer = tracing.Tracer()
        tracer.install()
        assert strategies.RandomStrategy.__dict__["propose"] is not original_propose
        tracer.restore()
    finally:
        connector.select_target = saved
    assert tracer.missing == ["connector.select_target"], tracer.missing
    for (mod, attr), fn in originals.items():
        assert getattr(__import__(mod, fromlist=[attr]), attr) is fn, (mod, attr)
    assert cls.__dict__["propose"] is original_propose
    metrics, dropped = tracing.layer_metrics([], tracer.missing)
    assert "connector.select_target.s" in dropped, dropped
    assert "connector.connector_move.self.s" in dropped, dropped
    assert "connector.select_target.s" not in metrics
    assert "graph.gen_gnp.s" in metrics


def check_fails_without_sources() -> None:
    bare = os.path.join(OUT_DIR, f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, os.path.relpath(BENCH, ROOT)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("paper-sweep", 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        check_result(last_json(run(name, 0)), spec["end_to_end"], f"{name} trace 0")
        traced = last_json(run(name, 1))
        check_result(traced, spec["per_layer"], f"{name} trace 1")
        check_nesting(name, traced)
        print(f"ok {name}", flush=True)
    check_missing_hooks()
    print("ok missing hooks", flush=True)
    check_fails_without_sources()
    print("ok fails without sources", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

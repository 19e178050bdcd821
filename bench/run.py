"""Benchmark entry point.

    python3 bench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0

Runs one workload in this single process for at least --seconds of timed
work, in whole passes. With --trace 0 it prints the end-to-end metrics;
with --trace 1 it runs each pass untraced and then traced, checks that both
produced the same digests, and prints the per-layer metrics. The last
line of standard output is the result object; lines before it starting
with '#' are for people. The full result, and with --trace 1 every span,
go to .bench_out/ in the checkout.

Outputs are checked on every run: structurally on any seed, and against
pins.json at the pinned seed. --smoke runs one pass at tiny sizes, for the
self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
PINS = os.path.join(BENCH, "pins.json")

# Enough trials that at least ten lie beyond p90.
MIN_TRIALS = 100
SETUP_PROBES = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="one pass at tiny sizes, for the self-test")
    return ap.parse_args(argv)


def machine_record():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            got = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            if got.returncode == 0:
                commit = got.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def source_digest():
    """Digest of the package sources: names the code measured when the
    checkout carries no git metadata."""
    import hashlib

    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def probe_setup(workload, seed, smoke):
    """Wall time from starting a fresh interpreter to its first trial being
    ready: interpreter start, importing the package, config validation."""
    cmd = [sys.executable, os.path.join(BENCH, "probe.py"), workload, str(seed)]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class Measure:
    """Runs passes and checks their outputs against each other and the pins."""

    def __init__(self, wl, pins):
        self.wl = wl
        self.pins = pins  # list of per-pass pins, or None off the pinned seed
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.passes = []  # PassOutput per pass, in order
        self.bad_counts = []  # failed trials per pass

    def one_pass(self, k, clock):
        from workloads import PassOutput

        wl = self.wl
        t0 = time.perf_counter()
        try:
            wall, res = wl.run_pass(k, clock)
        except Exception as exc:  # a failing pass is counted, not fatal
            print(f"# pass {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            wall = time.perf_counter() - t0
            res = PassOutput(broken=True)
        # A pass with the wrong number of trials, or whose whole outputs
        # fail a check, fails all its trials, missing ones included.
        size = max(len(res.trials), wl.trials_per_pass)
        whole = res.broken or len(res.trials) != wl.trials_per_pass
        bad = set(res.bad_trials)
        if self.pins is not None:
            pin = self.pins[k % len(self.pins)]
            bad.update(i for i, (d, want) in enumerate(zip(res.trials, pin["trials"])) if d != want)
            whole = whole or res.outputs != pin["outputs"]
        if whole:
            bad = set(range(size))
        self.attempted += size
        self.failed += len(bad)
        self.bad_counts.append(len(bad))
        self.wall += wall
        self.passes.append(res)
        return res


def quantile(sorted_vals, q):
    return statistics.quantiles(sorted_vals, n=100, method="inclusive")[int(q * 100) - 1]


def end_to_end(args, wl, pins, out):
    from workloads import TrialClock

    def probe():
        setups.append(probe_setup(args.workload, args.seed, args.smoke))

    # Set-up probes are spread over the run, one each time another
    # 1/SETUP_PROBES of the timed work is done: set-up time follows the
    # host's state, and probes in one burst would sample a single moment.
    setups = []
    probe()
    clock = TrialClock()
    m = Measure(wl, pins)
    k = 0
    while k == 0 or not args.smoke and (m.wall < args.seconds or m.attempted < MIN_TRIALS):
        m.one_pass(k, clock)
        k += 1
        if len(setups) < SETUP_PROBES and m.wall >= len(setups) * args.seconds / SETUP_PROBES:
            probe()
    while len(setups) < SETUP_PROBES:
        probe()
    times = sorted(clock.times)
    if len(times) < 2:
        raise RuntimeError(f"only {len(times)} trial(s) timed; every pass failed?")
    p50, p90 = quantile(times, 0.5), quantile(times, 0.9)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "trials_per_s": (len(times) / m.wall, "1/s"),
        "trial_p50_ms": (p50 * 1e3, "ms"),
        "trial_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"# trials={len(times)} beyond_p90={sum(t > p90 for t in times)} "
          f"passes={len(m.passes)} timed_wall_s={m.wall:.3f}")
    print(f"# setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    out["trial_times_s"] = clock.times
    out["setup_samples_s"] = setups
    return m, metrics


def per_layer(args, wl, pins, out):
    from tracing import Tracer, layer_metrics, self_times
    from workloads import TrialClock

    # Each pass runs untraced, then traced, so machine drift during the run
    # falls on both sides alike.
    plain, traced = Measure(wl, pins), Measure(wl, pins)
    plain_clock, tracer = TrialClock(), Tracer()
    clock = TrialClock(tracer)
    k = 0
    while k == 0 or not args.smoke and plain.wall < args.seconds / 2:
        plain.one_pass(k, plain_clock)
        tracer.install()
        try:
            traced.one_pass(k, clock)
        finally:
            tracer.restore()
        k += 1
    # The traced run must reproduce the untraced digests.
    for k, (a, b) in enumerate(zip(plain.passes, traced.passes)):
        if a.trials != b.trials or a.outputs != b.outputs:
            print(f"# pass {k}: traced digests differ from untraced", file=sys.stderr)
            traced.failed += max(len(b.trials), wl.trials_per_pass) - traced.bad_counts[k]
    metrics, dropped = layer_metrics(tracer.spans, tracer.missing)
    plain_tps = plain.attempted / plain.wall if plain.wall else 0.0
    traced_tps = traced.attempted / traced.wall if traced.wall else 0.0
    metrics["trace.wall_s"] = (traced.wall, "s")
    metrics["trace.trials_per_s"] = (traced_tps, "1/s")
    metrics["trace.untraced_trials_per_s"] = (plain_tps, "1/s")
    metrics["trace.overhead_pct"] = ((plain_tps - traced_tps) / plain_tps * 100 if plain_tps else 0.0, "%")
    if dropped:
        print(f"# missing hooks: {' '.join(sorted(set(tracer.missing)))}")
        print(f"# missing metrics: {' '.join(dropped)}")
    selfs = self_times(tracer.spans)
    print(f"# spans={len(tracer.spans)} self_sum_s={sum(selfs):.4f} wall_s={traced.wall:.4f} "
          f"min_self_s={min(selfs, default=0.0):.3g}")
    out["missing_hooks"] = sorted(set(tracer.missing))
    out["missing_metrics"] = dropped
    spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    out["spans_file"] = os.path.relpath(spans_path, ROOT)
    plain.failed += traced.failed
    plain.attempted += traced.attempted
    return plain, metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "conbreak", "__init__.py")):
        print("bench: no package sources at src/conbreak next to the benchmark", file=sys.stderr)
        return 2
    from workloads import PIN_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        pins = None
        if args.seed == PIN_SEED:
            with open(PINS, encoding="utf-8") as fh:
                pins = json.load(fh)[args.workload]["smoke" if args.smoke else "full"]
        out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "smoke": args.smoke, "machine": machine_record()}
        print(f"# machine {json.dumps(out['machine'], sort_keys=True)}")
        if args.trace:
            m, metrics = per_layer(args, wl, pins, out)
        else:
            m, metrics = end_to_end(args, wl, pins, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if pins is None:
        for k, res in enumerate(m.passes[: wl.period]):
            print(f"# pass {k} " + " ".join(f"{name}={d}" for name, d in sorted(res.outputs.items())))
    print(f"# failed_frac={m.failed / m.attempted:.6g} ({m.failed}/{m.attempted}); "
          f"checked against {'pins' if pins is not None else 'structure only'}")
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    out["result"] = result
    out["pass_digests"] = [{"trials": r.trials, "outputs": r.outputs} for r in m.passes]
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

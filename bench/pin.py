"""Regenerate pins.json: the digests every run at the pinned seed is
checked against.

    python3 bench/pin.py

Pins change only when the program's outputs change on purpose; a change
that re-pins must say why. Runs every workload untraced: one period of
passes at full size, and pass 0 at smoke size, the only pass a smoke run
makes. The full-size baseline-games period takes a few minutes.
"""

import json
import os
import shutil

from run import PINS, OUT_DIR
from workloads import PIN_SEED, WORKLOADS, TrialClock


def pin(name, smoke, workdir):
    wl = WORKLOADS[name](PIN_SEED, smoke, workdir)
    clock = TrialClock()
    out = []
    for k in range(1 if smoke else wl.period):
        _, res = wl.run_pass(k, clock)
        if res.bad_trials or res.broken or len(res.trials) != wl.trials_per_pass:
            raise SystemExit(f"{name} pass {k}: structural check failed, not pinning")
        out.append({"trials": res.trials, "outputs": res.outputs})
    return out


def main():
    workdir = os.path.join(OUT_DIR, f"pin-{os.getpid()}")
    os.makedirs(workdir)
    try:
        pins = {}
        for name in WORKLOADS:
            pins[name] = {size: pin(name, size == "smoke", workdir) for size in ("smoke", "full")}
            print(f"pinned {name}", flush=True)
    finally:
        shutil.rmtree(workdir)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Set-up probe: start, import the package, validate one workload's config,
then print "ready" and exit. run.py times this from the outside.

    python3 bench/probe.py <workload> <seed> [--smoke]

Set-up writes no files, so the work directory is only named, not created.
"""

import os
import sys

from workloads import ROOT, WORKLOADS

name, seed = sys.argv[1], int(sys.argv[2])
WORKLOADS[name](seed, "--smoke" in sys.argv[3:], os.path.join(ROOT, ".bench_out")).ready()
print("ready", flush=True)

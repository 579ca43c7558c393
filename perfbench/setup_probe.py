"""Time a workload's one-time set-up in a fresh interpreter.

    python setup_probe.py WORKLOAD SEED SMOKE WORKDIR

Set-up is `import rcc` (`import rcc.cli` for the cli workload), building
the reference, and one warm-up operation. Input generation is the
benchmark's own work and is not counted. Prints one JSON line of
unscaled times; run.py scales them to the nominal host speed.
"""

import importlib
import json
import sys
import time
from pathlib import Path


def main() -> int:
    name, seed, smoke, work = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
    t0 = time.perf_counter()
    importlib.import_module("rcc.cli" if name == "cli" else "rcc")
    t1 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[name]
    inputs = w.generate(seed, smoke)
    t2 = time.perf_counter()
    ctx = w.build(inputs, work)
    t3 = time.perf_counter()
    w.warmup(ctx)
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "warmup_s": t4 - t3,
                      "raw_setup_s": (t1 - t0) + (t4 - t2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

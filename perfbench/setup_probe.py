"""Time one set-up in a fresh interpreter: ``import apavoid`` plus building a workload's inputs.

Usage: python perfbench/setup_probe.py ROOT WORKLOAD SEED [tiny]

Nothing but ``sys`` and ``time`` is imported before ``apavoid``, so the
import is timed as a user's first command would pay for it. Prints one JSON
object with ``import_s``, ``build_s``, the reference time ``ref_s`` measured
right after (see ``speed``) and ``symbols``.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import apavoid

    t1 = time.perf_counter()
    import json
    from pathlib import Path

    root, workload, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, str(root / "tests"))
    import workloads

    ctx = workloads.Context.create(apavoid, root)
    t2 = time.perf_counter()
    pool, _ = workloads.build(ctx, workload, seed, tiny=sys.argv[4:] == ["tiny"])
    t3 = time.perf_counter()
    import speed

    ref = sorted(speed.reference_time() for _ in range(3))[1]
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "ref_s": ref,
                      "symbols": workloads.input_symbols(pool)}))

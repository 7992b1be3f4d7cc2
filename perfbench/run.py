"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload <rank_n|eligible|cli> --seed <n> \\
        --seconds <s> --trace <0|1>

BLAS is pinned to one thread before numpy loads, for this process and the
CLI processes it starts.  The library is imported from ``src/`` of the
checkout; without it the run stops with exit code 2 and prints no result.
"""

import os
import sys
import time

T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "sepcheck", "__init__.py")):
        print(f"error: no sepcheck sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]
    from perfbench.harness import main

    main(sys.argv[1:], T0)

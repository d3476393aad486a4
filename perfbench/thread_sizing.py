#!/usr/bin/env python3
"""Does ``hypernorm random-suite`` oversubscribe the cores?

Times ``hypernorm.cli.main(["random-suite", ...])`` (sign rows, n=8, m=3200,
four seeds, the criterion-2 solver settings) under every pairing of
``HYPERNORM_THREADS`` (the suite's thread pool) and BLAS threads, each in a
fresh interpreter because BLAS reads its thread count when numpy loads.
Pairings are interleaved over the repetitions, and the median of each is
printed.  Run from the root of a source checkout:

    python3 perfbench/thread_sizing.py [--reps 3]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = ["random-suite", "--dist", "sign", "--n", "8", "--m", "3200", "--seeds", "4",
         "--tol", "1e-7", "--max-iter", "20000", "--out", os.devnull]


def child() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from hypernorm.cli import main

    t0 = time.perf_counter()
    code = main(SUITE)
    print(time.perf_counter() - t0)
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child()

    pairings = [(pool, blas) for pool in (1, 2) for blas in (1, 2)]
    times = {p: [] for p in pairings}
    for _ in range(args.reps):
        for pool, blas in pairings:
            env = dict(os.environ, HYPERNORM_THREADS=str(pool), OPENBLAS_NUM_THREADS=str(blas),
                       OMP_NUM_THREADS=str(blas), MKL_NUM_THREADS=str(blas))
            out = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                                 capture_output=True, text=True)
            times[(pool, blas)].append(float(out.stdout.strip().splitlines()[-1]))
    print(f"nproc {os.cpu_count()}; random-suite sign n=8 m=3200, 4 seeds; {args.reps} reps")
    for (pool, blas), ts in times.items():
        print(f"HYPERNORM_THREADS={pool} BLAS={blas} threads={pool * blas}: "
              f"median {statistics.median(ts):.2f} s  (runs {', '.join('%.2f' % t for t in ts)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the d^2 sweep kernel as its own layer.

For each memory dimension d this times ``_memory_sweep_py`` (the plain loop
over Python floats, the reference) against ``memory_sweep`` (which takes the
anti-diagonal wavefront once d reaches ``WAVEFRONT_MIN_WIDTH``), best of
``--repeats`` runs on the same input, and checks that the two leave the same
bytes.  The reference is timed once at d >= 2000, where one run takes 0.4 s
or more.  Exits 1 when any dimension differs.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--dims 10,100,400,1000,2000] [--repeats 5]
"""

import argparse
import sys
import time

import numpy as np

from thermoproc._kernels import WAVEFRONT_MIN_WIDTH, _memory_sweep_py, memory_sweep

SLOW_REFERENCE_D = 2000


def best_time(fn, vec, d, repeats):
    """(best wall time over ``repeats`` runs, the output of the last run)."""
    best = float("inf")
    for _ in range(repeats):
        work = vec.copy()
        t0 = time.perf_counter()
        fn(work, d, 0.75, 0, d)
        best = min(best, time.perf_counter() - t0)
    return best, work


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="10,100,400,1000,2000",
                        help="comma-separated memory dimensions")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    dims = [int(v) for v in args.dims.split(",")]

    print(f"wavefront from d = {WAVEFRONT_MIN_WIDTH}")
    print(f"{'d':>6} {'steps':>10} {'path':>10} {'loop [ms]':>11} "
          f"{'memory_sweep [ms]':>18} {'speedup':>8} {'bitwise':>8}")
    mismatches = []
    for d in dims:
        vec = np.empty(2 * d)
        vec[:d] = 0.2 / d
        vec[d:] = 0.8 / d
        ref_repeats = 1 if d >= SLOW_REFERENCE_D else args.repeats
        t_ref, ref = best_time(_memory_sweep_py, vec, d, ref_repeats)
        t_new, new = best_time(memory_sweep, vec, d, args.repeats)
        same = ref.tobytes() == new.tobytes()
        if not same:
            mismatches.append(d)
        path = "wavefront" if d >= WAVEFRONT_MIN_WIDTH else "loop"
        print(f"{d:>6} {d * d:>10} {path:>10} {t_ref * 1e3:>11.3f} "
              f"{t_new * 1e3:>18.3f} {t_ref / t_new:>7.1f}x {str(same):>8}")
    if mismatches:
        print(f"memory_sweep differs from _memory_sweep_py at d = {mismatches}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

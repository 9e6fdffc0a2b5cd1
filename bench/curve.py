"""Reference figures for bench/README.md: error against the analytic levels
versus wall time, over grid points, for each system.

    python3 bench/curve.py

Run from the root of a checkout.  For each system and grid size it times
xop.isospectral_compare at 4 levels (median of 3 calls, after one warm-up
call) and prints a markdown table row with the worst |E - analytic| over the
original and extended levels.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

GRID_POINTS = (500, 1000, 2000, 4000, 8000, 16000, 32000)
LEVELS = 4
REPEATS = 3


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    import oracles as O
    import xop
    from workloads import FIVE_SYSTEMS

    print("| system | grid points | ms per compare | max abs(E - analytic) |")
    print("|---|---|---|---|")
    for system in FIVE_SYSTEMS:
        params = xop.system_from_dict(system)
        xop.isospectral_compare(params, LEVELS, grid_points=GRID_POINTS[0])
        for points in GRID_POINTS:
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                report = xop.isospectral_compare(params, LEVELS, grid_points=points)
                times.append(time.perf_counter() - start)
            err = max(O.level_error(system["kind"], system["params"], values)
                      for values in (report.eigenvalues_original,
                                     report.eigenvalues_extended))
            print(f"| {system['kind']} | {points} | {1e3 * statistics.median(times):.1f} "
                  f"| {err:.2e} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

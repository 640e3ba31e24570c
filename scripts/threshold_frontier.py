#!/usr/bin/env python3
"""Threshold trade-off frontier for optimized irregular mixtures.

For each channel quality c on a grid, solves the mixture-design LP for the
minimal mean capability and reports the gap to the universal 2*t_bar bound
and the initial loss.  Regular (point-mass) thresholds are appended for
comparison.

Usage: python scripts/threshold_frontier.py --out frontier.csv
"""

import argparse
import math
import sys

from gpclab import de, optimizer
from gpclab.codespec import preset_hpc
from gpclab.poisson import initial_loss_mixture

C_GRID = (6.0, 8.0, 10.0, 12.0, 13.4, 16.0, 20.0, 26.0, 32.0)
REGULAR_TS = (3, 4, 5, 6, 7, 8)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid-m", type=int, default=1000)
    parser.add_argument("--t-max", type=int, default=50)
    parser.add_argument("--t-min", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    rows = ["c,t_bar,gap,loss_at_c"]
    for c in C_GRID:
        sol = optimizer.solve(optimizer.build_lp(c, args.grid_m, args.t_max, args.t_min))
        if sol.status == optimizer.STATUS_OPTIMAL:
            cols = (sol.t_bar, 2.0 * sol.t_bar - c, initial_loss_mixture(sol.tau, c))
        else:  # infeasible at this t_max
            cols = (math.nan,) * 3
        rows.append(",".join(repr(v) for v in (c, *cols)))
    rows.append("# regular point-mass thresholds: t,c_star,gap")
    for t in REGULAR_TS:
        c_star = de.threshold(preset_hpc(100, t)).c_star
        rows.append(f"# {t},{c_star!r},{2 * t - c_star!r}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

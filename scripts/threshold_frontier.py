#!/usr/bin/env python3
"""Threshold trade-off frontier for optimized irregular mixtures.

For each channel quality c on a grid, solves the mixture-design LP for the
minimal mean capability and reports the gap to the universal 2*t_bar bound,
the initial loss, and the diagnostic floor.  Regular (point-mass) thresholds
are appended for comparison.

Usage: python scripts/threshold_frontier.py --out frontier.csv
"""

import argparse
import sys
from dataclasses import dataclass, field

from gpclab import de, optimizer
from gpclab.codespec import preset_hpc


@dataclass
class FrontierConfig:
    c_grid: tuple = (6.0, 8.0, 10.0, 12.0, 13.4, 16.0, 20.0, 26.0, 32.0)
    grid_m: int = 1000
    t_max: int = 50
    t_min: int = 1
    regular_ts: tuple = (3, 4, 5, 6, 7, 8)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid-m", type=int, default=FrontierConfig.grid_m)
    parser.add_argument("--t-max", type=int, default=FrontierConfig.t_max)
    parser.add_argument("--t-min", type=int, default=FrontierConfig.t_min)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    cfg = FrontierConfig(grid_m=args.grid_m, t_max=args.t_max, t_min=args.t_min)

    points = optimizer.sweep_tradeoff(list(cfg.c_grid), cfg.grid_m, cfg.t_max, cfg.t_min)
    rows = [",".join(r) for r in optimizer.frontier_csv_rows(points)]
    rows.append("# regular point-mass thresholds: t,c_star,gap")
    for t in cfg.regular_ts:
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

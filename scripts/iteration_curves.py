#!/usr/bin/env python3
"""Iteration-indexed decoding curves: DE prediction vs peeling Monte Carlo.

Sweeps the effective channel quality and emits one CSV row per c with the
DE bit-level prediction (x_ell)^2 and the simulated scaled erasure rate at a
fixed iteration count, for a regular half-product family.

Usage: python scripts/iteration_curves.py --out curves.csv
"""

import argparse
import sys

import numpy as np

from gpclab import de, graphsim
from gpclab.codespec import preset_hpc

C_LO, C_HI, C_STEP = 4.5, 7.5, 0.25


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=int, default=4)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--ell", type=int, default=25)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = preset_hpc(args.n, args.t)
    rows = ["c,de_x_sq,mc_scaled_ber,mc_se,mc_mean_w"]
    for c in np.arange(C_LO, C_HI + 1e-9, C_STEP):
        c = round(float(c), 6)
        traj = de.de_run(spec, c, ell_max=args.ell, success_epsilon=0.0)
        k = min(args.ell, traj.iterations_run)
        x_sq = float(traj.x[k][0]) ** 2
        stats = graphsim.monte_carlo(spec, c, args.ell, args.trials, args.seed)
        rows.append(
            f"{c!r},{x_sq!r},{stats.mean_scaled_ber!r},"
            f"{stats.se_scaled_ber!r},{stats.mean_w!r}"
        )
        print(rows[-1], file=sys.stderr)
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

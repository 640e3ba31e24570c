"""Test-local reference for the threshold bisection's convergence classifier.

`reference_run_converges` classifies a tested c by running DE, as
`gpclab.de._run_converges` once did for every spec: a converged run counts,
a stuck one does not, and a single-position run that hits the iteration cap
while still descending is settled by the contraction slack on (0, x_end],
because the trajectory is monotone and no fixed point below x_end means
convergence.  It is slow on purpose: near the threshold a run may take the
full iteration cap.
"""

from __future__ import annotations

import numpy as np

from gpclab import de
from gpclab.codespec import GpcSpec
from gpclab.poisson import poisson_tail_table

NOISE_FLOOR = 1e-12
CAP_GRID_POINTS = 2000
BLOCK = 1024


def _slack_dips_below_floor(spec: GpcSpec, c: float, top: float) -> bool:
    """Whether x - sum_t tau_t P(Pois(c x) >= t) < -NOISE_FLOOR somewhere on
    x = top * i / CAP_GRID_POINTS, i = 1..CAP_GRID_POINTS."""
    tau = spec.tau[0]
    for start in range(1, CAP_GRID_POINTS + 1, BLOCK):
        i = np.arange(start, min(start + BLOCK, CAP_GRID_POINTS + 1))
        x = top * i / CAP_GRID_POINTS
        tails = poisson_tail_table(c * x, tau.t_max)
        mixed = 0.0
        for t, w in tau.support():
            mixed = mixed + w * tails[:, t - 1]
        if (x - mixed < -NOISE_FLOOR).any():
            return True
    return False


def reference_run_converges(
    spec: GpcSpec,
    c: float,
    ell_max: int,
    success_epsilon: float,
    x_tolerance: float,
    regular_sum: float | None = None,
) -> bool:
    """Ignores ``regular_sum``: every spec runs DE."""
    traj = de.de_run(
        spec, c, ell_max=ell_max, x_tolerance=x_tolerance, success_epsilon=success_epsilon
    )
    if traj.verdict == de.CONVERGED:
        return True
    if traj.verdict == de.STUCK or spec.num_positions != 1:
        return False
    return not _slack_dips_below_floor(spec, c, float(traj.final_x[0]))

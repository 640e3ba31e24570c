"""Test-local row generation that `gpclab.optimizer.solve` is compared against.

`reference_row_generation` is the loop the package ran before it appended
each batch of rows to the optimal tableau: a cold `solve_lp`, from the slack
basis, on the whole active row set every round.  It starts from the same rows and adds the
same batches under the same tolerance, so on a design whose optimum is unique
it visits the same row sets and ends at the same point, up to rounding.
"""

from __future__ import annotations

import numpy as np

from gpclab.optimizer import _BATCH_ROWS, _START_ROWS, LpProblem
from gpclab.simplex import _TOL, OPTIMAL, SimplexResult, solve_lp


def reference_row_generation(problem: LpProblem) -> tuple[SimplexResult, np.ndarray, int]:
    """The last cold solve, the active grid rows (sorted) and the pivot total."""
    m = problem.a_ub.shape[0]
    active = np.zeros(m, dtype=bool)
    active[np.linspace(0, m - 1, min(_START_ROWS, m)).round().astype(int)] = True
    pivots = 0
    while True:
        result = solve_lp(problem.objective, a_ub=problem.a_ub[active],
                          b_ub=problem.b_ub[active], a_eq=problem.a_eq, b_eq=problem.b_eq)
        pivots += result.pivots
        if result.status != OPTIMAL:
            break
        slack = problem.b_ub - problem.a_ub @ result.x
        slack[active] = np.inf
        violated = np.flatnonzero(slack < -_TOL)
        if violated.size == 0:
            break
        active[violated[np.argsort(slack[violated])[:_BATCH_ROWS]]] = True
    return result, np.flatnonzero(active), pivots

"""Capability-mixture design by linear programming.

For a target channel quality c, the cheapest mixture (smallest mean
capability) whose DE recursion still contracts is the solution of a small
LP: minimize sum_t tau_t * t subject to sum_t tau_t = 1, tau >= 0, and the
contraction constraint discretized on a grid of M points.  Only a few grid
rows bind at the optimum, so the LP is solved by row generation: the simplex
sees a small subset of rows that grows by the most violated ones until the
point satisfies the whole grid.  Each batch of rows is appended to the last
optimal tableau (``simplex.add_rows``), so a round costs a few dual simplex
pivots instead of a solve from scratch.  Post-verification judges a solution by
the mixture's exact threshold, since the discretization admits hairline
supercriticality between grid points and below the first one, and reports the
contraction slack's minimum on a finer grid.

``build_lp``, ``solve`` and ``post_verify`` are the whole path; a frontier
over c is a loop over ``solve(build_lp(c, ...))``, as in
``scripts/threshold_frontier.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import de
from .codespec import preset_hpc
from .poisson import CapabilityDistribution, _check_quality, poisson_tail_table
from .simplex import _TOL, OPTIMAL, add_rows, solve_lp

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_DEGENERATE = "degenerate-warning"

_START_ROWS = 20  # evenly spaced grid rows in the first restricted LP
_BATCH_ROWS = 20  # most violated rows added per re-solve


@dataclass(frozen=True)
class LpProblem:
    """Discretized mixture-design program."""

    c: float
    grid_m: int
    t_min: int
    t_max: int
    ts: np.ndarray          # capability value per variable
    objective: np.ndarray   # == ts, as floats
    a_ub: np.ndarray        # grid_m x nvars of Poisson tails
    b_ub: np.ndarray        # grid values i / M
    a_eq: np.ndarray        # single all-ones row
    b_eq: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    """Result of :func:`solve`, optionally refined by :func:`post_verify`.

    ``pivots`` is the total over the first restricted solve and every batch
    of added rows, and ``rows_used`` the number of inequality rows at the end.
    """

    status: str
    c: float
    grid_m: int
    t_min: int
    t_max: int
    tau: CapabilityDistribution | None
    t_bar: float | None
    raw_weights: np.ndarray | None
    pivots: int
    rows_used: int = 0
    verified_threshold: float | None = None
    fine_grid_min_slack: float | None = None


def build_lp(c: float, grid_m: int, t_max: int, t_min: int = 1) -> LpProblem:
    """Tabulate the LP: one variable per capability in [t_min, t_max], one
    inequality row per grid point x = i/M (all rows from one tail table),
    one normalization equality.  c must be finite and > 0."""
    _check_quality(c)
    if c == 0.0:
        raise ValueError(f"effective channel quality must be > 0, got {c}")
    if grid_m < 10:
        raise ValueError("need at least 10 grid points")
    if not (1 <= t_min <= t_max <= 64):
        raise ValueError(f"need 1 <= t_min <= t_max <= 64, got [{t_min}, {t_max}]")
    ts = np.arange(t_min, t_max + 1, dtype=np.int64)
    x = np.arange(1, grid_m + 1) / grid_m
    return LpProblem(
        c=c,
        grid_m=grid_m,
        t_min=t_min,
        t_max=t_max,
        ts=ts,
        objective=ts.astype(float),
        a_ub=poisson_tail_table(c * x, t_max)[:, ts - 1],
        b_ub=x,
        a_eq=np.ones((1, ts.size)),
        b_eq=np.ones(1),
    )


def solve(problem: LpProblem) -> LpSolution:
    """Solve the LP by row generation on the dual simplex.

    Starts from a few evenly spaced grid rows, then repeatedly adds the most
    violated rows of the full grid to the optimal tableau and re-optimizes
    with the same dual simplex pivots until the point satisfies every row
    (Kelley's cutting-plane method).  The returned mixture has tiny negative weights
    clipped and is renormalized (``CapabilityDistribution`` drops the zero
    weights past its largest supported capability); ``raw_weights`` keeps the
    untouched solver output for the solver's invariants.
    """
    m = problem.a_ub.shape[0]
    active = np.zeros(m, dtype=bool)
    active[np.linspace(0, m - 1, min(_START_ROWS, m)).round().astype(int)] = True
    result = solve_lp(problem.objective, a_ub=problem.a_ub[active], b_ub=problem.b_ub[active],
                      a_eq=problem.a_eq, b_eq=problem.b_eq)
    pivots = result.pivots
    while result.status == OPTIMAL:
        slack = problem.b_ub - problem.a_ub @ result.x
        # rows already in the LP are never re-added, so the loop ends
        slack[active] = np.inf
        # a row counts as violated beyond the simplex's own tolerance
        violated = np.flatnonzero(slack < -_TOL)
        if violated.size == 0:
            break
        batch = violated[np.argsort(slack[violated])[:_BATCH_ROWS]]
        active[batch] = True
        result = add_rows(result, problem.a_ub[batch], problem.b_ub[batch])
        pivots += result.pivots
    optimal = result.status == OPTIMAL
    tau = raw = None
    if optimal:
        raw = result.x.copy()
        cleaned = np.clip(raw, 0.0, None)
        cleaned /= cleaned.sum()
        weights = np.zeros(problem.t_max)
        weights[problem.ts - 1] = cleaned
        tau = CapabilityDistribution(tuple(weights))
    # a subset of the rows relaxes the LP, so when it is infeasible the full LP is too
    return LpSolution(
        status=STATUS_OPTIMAL if optimal else STATUS_INFEASIBLE,
        c=problem.c,
        grid_m=problem.grid_m,
        t_min=problem.t_min,
        t_max=problem.t_max,
        tau=tau,
        t_bar=tau.mean() if optimal else None,
        raw_weights=raw,
        pivots=pivots,
        rows_used=int(active.sum()),
    )


def post_verify(
    solution: LpSolution,
    grid_factor: int = 10,
    bracket_tol: float = 0.01,
) -> LpSolution:
    """Re-check an optimal mixture at its design point ``solution.c``.

    ``verified_threshold`` is the exact threshold of the single-position
    mixture (``de.threshold`` in closed form), with no grid in x, so it checks
    the LP's grid below x = 1/M too; one below ``solution.c`` downgrades the
    solution to a degenerate warning, and nothing else sets the status.
    ``fine_grid_min_slack`` is reported only: the contraction slack's minimum
    on a grid ``grid_factor`` times finer than the LP's.  ``bracket_tol`` is
    not read beyond a check that it is positive; callers still pass it.
    """
    if solution.status != STATUS_OPTIMAL:
        raise ValueError("can only post-verify an optimal solution")
    min_slack = de._min_slack(solution.tau, solution.c, grid_factor * solution.grid_m)
    spec = preset_hpc(1000, solution.tau, tau_assignment="random")
    found = de.threshold(spec, bracket_tol=bracket_tol)
    status = solution.status if found.c_star >= solution.c else STATUS_DEGENERATE
    return replace(
        solution,
        status=status,
        verified_threshold=found.c_star,
        fine_grid_min_slack=min_slack,
    )


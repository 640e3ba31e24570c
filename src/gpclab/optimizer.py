"""Capability-mixture design by linear programming.

For a target channel quality c, the cheapest mixture (smallest mean
capability) whose DE recursion still contracts is the solution of a small
LP: minimize sum_t tau_t * t subject to sum_t tau_t = 1, tau >= 0, and the
contraction constraint discretized on a grid of M points.  Only a few grid
rows bind at the optimum, so the LP is solved by row generation: the simplex
sees a small subset of rows that grows by the most violated ones until the
point satisfies the whole grid.  Solutions are post-verified on a finer grid
and by an actual threshold run, since the discretization admits hairline
supercriticality between grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import de
from .codespec import preset_hpc
from .poisson import CapabilityDistribution, initial_loss_mixture, poisson_tail_table
from .simplex import _TOL, INFEASIBLE, OPTIMAL, SimplexResult, solve_lp

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

    ``pivots`` is the total over all restricted simplex solves, and
    ``rows_used`` the number of inequality rows in the last one.
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
    one normalization equality."""
    if grid_m < 10:
        raise ValueError("need at least 10 grid points")
    if not (1 <= t_min <= t_max <= 64):
        raise ValueError(f"need 1 <= t_min <= t_max <= 64, got [{t_min}, {t_max}]")
    if c <= 0.0:
        raise ValueError(f"effective channel quality must be > 0, got {c}")
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
    """Solve the LP by row generation on the two-phase simplex.

    Starts from a few evenly spaced grid rows, then repeatedly adds the most
    violated rows of the full grid and re-solves until the point satisfies
    every row (Kelley's cutting-plane method).  The returned mixture has tiny
    negative weights clipped and is renormalized; ``raw_weights`` keeps the
    untouched solver output so the solver-side invariants stay checkable.
    """
    m = problem.a_ub.shape[0]
    active = np.zeros(m, dtype=bool)
    active[np.linspace(0, m - 1, min(_START_ROWS, m)).round().astype(int)] = True
    pivots = 0
    while True:
        result: SimplexResult = solve_lp(
            problem.objective,
            a_ub=problem.a_ub[active],
            b_ub=problem.b_ub[active],
            a_eq=problem.a_eq,
            b_eq=problem.b_eq,
        )
        pivots += result.pivots
        if result.status != OPTIMAL:
            break
        slack = problem.b_ub - problem.a_ub @ result.x
        # rows already in the LP are never re-added, so the loop ends
        slack[active] = np.inf
        # a row counts as violated beyond the simplex's own tolerance
        violated = np.flatnonzero(slack < -_TOL)
        if violated.size == 0:
            break
        active[violated[np.argsort(slack[violated])[:_BATCH_ROWS]]] = True
    rows_used = int(active.sum())
    if result.status == INFEASIBLE:
        # a subset of the rows relaxes the LP, so the full LP is infeasible too
        return LpSolution(
            status=STATUS_INFEASIBLE,
            c=problem.c,
            grid_m=problem.grid_m,
            t_min=problem.t_min,
            t_max=problem.t_max,
            tau=None,
            t_bar=None,
            raw_weights=None,
            pivots=pivots,
            rows_used=rows_used,
        )
    if result.status != OPTIMAL:
        raise RuntimeError(f"simplex failed: {result.status}")
    raw = result.x.copy()
    cleaned = np.clip(raw, 0.0, None)
    cleaned /= cleaned.sum()
    weights = np.zeros(problem.t_max)
    for value, w in zip(problem.ts, cleaned):
        weights[value - 1] = w
    tau = CapabilityDistribution(tuple(weights))
    return LpSolution(
        status=STATUS_OPTIMAL,
        c=problem.c,
        grid_m=problem.grid_m,
        t_min=problem.t_min,
        t_max=problem.t_max,
        tau=tau,
        t_bar=tau.mean(),
        raw_weights=raw,
        pivots=pivots,
        rows_used=rows_used,
    )


def post_verify(
    solution: LpSolution,
    c: float | None = None,
    grid_factor: int = 10,
    bracket_tol: float = 0.01,
    ell_max: int = de.DEFAULT_ELL_MAX,
) -> LpSolution:
    """Re-check an optimal mixture at channel quality c.

    Evaluates the contraction slack on a grid ``grid_factor`` times finer
    than the LP's and measures the actual DE threshold; the solution is
    downgraded to a degenerate warning when that threshold falls below c.
    """
    if solution.status != STATUS_OPTIMAL:
        raise ValueError("can only post-verify an optimal solution")
    c = solution.c if c is None else c
    check = de.success_condition(
        solution.tau, c, grid_points=grid_factor * solution.grid_m
    )
    spec = preset_hpc(1000, solution.tau, tau_assignment="random")
    found = de.threshold(spec, bracket_tol=bracket_tol, ell_max=ell_max)
    status = solution.status if found.c_star >= c else STATUS_DEGENERATE
    return replace(
        solution,
        status=status,
        verified_threshold=found.c_star,
        fine_grid_min_slack=check.min_slack,
    )


@dataclass(frozen=True)
class FrontierPoint:
    c: float
    t_bar: float
    gap: float
    loss_at_c: float
    conjecture_rhs: float


def _frontier_point(c: float, grid_m: int, t_max: int, t_min: int) -> FrontierPoint:
    sol = solve(build_lp(c, grid_m, t_max, t_min))
    if sol.status != STATUS_OPTIMAL:
        return FrontierPoint(c, math.nan, math.nan, math.nan,
                             de.conjectured_capability_floor(c))
    return FrontierPoint(
        c=c,
        t_bar=sol.t_bar,
        gap=2.0 * sol.t_bar - c,
        loss_at_c=initial_loss_mixture(sol.tau, c),
        conjecture_rhs=de.conjectured_capability_floor(c),
    )


def sweep_tradeoff(c_grid, grid_m: int, t_max: int, t_min: int = 1) -> list[FrontierPoint]:
    """Minimal mean capability along a grid of channel qualities."""
    cs = [float(c) for c in c_grid]
    if sorted(cs) != cs:
        raise ValueError("c_grid must be sorted ascending")
    return [_frontier_point(c, grid_m, t_max, t_min) for c in cs]


def frontier_csv_rows(points: list[FrontierPoint]) -> list[list[str]]:
    rows = [["c", "t_bar", "gap", "loss_at_c", "conjecture_rhs"]]
    for p in points:
        rows.append(
            [repr(p.c), repr(p.t_bar), repr(p.gap), repr(p.loss_at_c),
             repr(p.conjecture_rhs)]
        )
    return rows

"""Dense simplex for small linear programs, with warm-started rows.

Solves min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0 by one
method: dual simplex pivots (Lemke 1954) from a dual feasible tableau until
b >= 0, then primal pivots until no reduced cost is negative, each switching
to Bland's smallest-index rule after a run of degenerate pivots so it cannot
cycle.  A cold solve starts from the slack basis priced with max(c, 0), dual
feasible whatever the signs of b, and prices c in once b >= 0.  An optimal
result keeps its tableau; ``add_rows`` appends ``<=`` rows to it, which keeps
it dual feasible, and runs the same pivots.  Sized for the restricted programs
of the mixture-design row generation (about 50 variables and at most a few
hundred rows); no sparsity, no revised formulation.

Tableau columns: the n variables, then one slack per row.  Rows: the ``<=``
rows, the equality rows a.x = b as a.x <= b, then as -a.x <= -b: an equality
row has two slacks and no artificial column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_TOL = 1e-9
_MAX_PIVOTS = 200_000  # pivot budget of one solve_lp or add_rows call


class CyclingError(RuntimeError):
    """Pivot budget exceeded; the instance is numerically degenerate."""


class _Tableau:
    """Row i of ``T`` carries B^-1 [A | b] with basic column ``basis[i]``;
    ``red`` is [cost - cost_B B^-1 A | -objective] for the cost being
    minimized."""

    def __init__(self, T: np.ndarray, basis: np.ndarray, c: np.ndarray):
        self.T, self.basis, self.c = T, basis, c
        self.m, self.N = T.shape[0], T.shape[1] - 1
        self.red = np.zeros(self.N + 1)

    def price(self, cost: np.ndarray) -> None:
        red = np.zeros(self.N + 1)
        red[: cost.size] = cost
        for i in range(self.m):
            cb = red[self.basis[i]]
            if cb != 0.0:
                red -= cb * self.T[i]
        self.red = red

    def pivot(self, row: int, col: int) -> None:
        T = self.T
        T[row] /= T[row, col]
        column = T[:, col].copy()
        column[row] = 0.0
        T[:] -= np.outer(column, T[row])
        rc = self.red[col]
        if rc != 0.0:
            self.red -= rc * T[row]
        self.basis[row] = col

    def optimize(self, budget: int, dual: bool = False) -> tuple[str, int]:
        """Pivot until optimal: primal pivots keep b >= 0 and lower the
        objective, dual pivots keep every reduced cost >= 0 and repair
        a negative b.  After a run of degenerate pivots both switch to Bland's
        smallest-index rule so they cannot cycle."""
        pivots = 0
        degenerate_streak = 0
        bland_after = 2 * (self.m + self.N)
        choose = self._dual_choice if dual else self._primal_choice
        while pivots < budget:
            status, row, col, step = choose(degenerate_streak > bland_after)
            if status is not None:
                return status, pivots
            degenerate_streak = degenerate_streak + 1 if step < 1e-12 else 0
            self.pivot(row, col)
            pivots += 1
        raise CyclingError(f"exceeded {budget} pivots")

    def _primal_choice(self, bland: bool) -> tuple[str | None, int, int, float]:
        T, red = self.T, self.red
        candidates = np.nonzero(red[:-1] < -_TOL)[0]
        if candidates.size == 0:
            return OPTIMAL, -1, -1, 0.0
        # most negative reduced cost; Bland: smallest index
        col = int(candidates[0] if bland else candidates[np.argmin(red[candidates])])
        pos = np.nonzero(T[:, col] > _TOL)[0]
        if pos.size == 0:
            return UNBOUNDED, -1, -1, 0.0
        ratios = T[pos, -1] / T[pos, col]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12]  # smallest basis index leaves on ties
        return None, int(ties[np.argmin(self.basis[ties])]), col, best

    def _dual_choice(self, bland: bool) -> tuple[str | None, int, int, float]:
        T, red = self.T, self.red
        rows = np.nonzero(T[:, -1] < -_TOL)[0]
        if rows.size == 0:
            return OPTIMAL, -1, -1, 0.0
        # most negative b; Bland: smallest basis index
        row = int(rows[np.argmin(self.basis[rows] if bland else T[rows, -1])])
        cols = np.nonzero(T[row, :-1] < -_TOL)[0]
        if cols.size == 0:
            return INFEASIBLE, -1, -1, 0.0  # row says: nonnegative terms sum to b < 0
        ratios = red[cols] / -T[row, cols]
        best = ratios.min()  # smallest index enters on ties
        return None, row, int(cols[np.argmax(ratios <= best + 1e-12)]), best

    def reoptimize(self, reprice: bool = False) -> SimplexResult:
        """Dual pivots until b >= 0 or a row proves infeasibility, then, with
        ``c`` priced in if ``reprice``, primal pivots to the optimum."""
        status, pivots = self.optimize(_MAX_PIVOTS, dual=True)
        if status == OPTIMAL:
            if reprice:
                self.price(self.c)
            status, p = self.optimize(_MAX_PIVOTS - pivots)
            pivots += p
        if status != OPTIMAL:
            return SimplexResult(status, None, None, pivots)
        x_full = np.zeros(self.N)
        x_full[self.basis] = self.T[:, -1]
        x = x_full[: self.c.size]
        return SimplexResult(OPTIMAL, x, float(self.c @ x), pivots, self)


@dataclass(frozen=True)
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    pivots: int
    # the optimal tableau that add_rows starts from; None unless OPTIMAL
    tableau: _Tableau | None = field(default=None, repr=False, compare=False)


def _rows(a, b, n: int, a_name: str, b_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows of n entries and right-hand sides as finite float arrays of one length."""
    a, b = np.atleast_2d(np.asarray(a, float)), np.asarray(b, float).ravel()  # None reads NaN
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError(f"{a_name} and {b_name} must be given and finite")
    if a.shape[0] != b.size:
        raise ValueError(f"{a_name} has {a.shape[0]} rows but {b_name} has {b.size} entries")
    if a.shape[1] != n:
        raise ValueError(f"{a_name} has {a.shape[1]} columns but c has {n} entries")
    return a, b


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> SimplexResult:
    c = np.asarray(c, dtype=float)  # None reads NaN
    if c.ndim != 1 or not np.isfinite(c).all():
        raise ValueError("c must be given and finite, one entry per variable")
    n = c.size
    empty = np.zeros((0, n)), np.zeros(0)
    no_ub, no_eq = a_ub is None and b_ub is None, a_eq is None and b_eq is None
    a_ub, b_ub = empty if no_ub else _rows(a_ub, b_ub, n, "a_ub", "b_ub")
    a_eq, b_eq = empty if no_eq else _rows(a_eq, b_eq, n, "a_eq", "b_eq")
    A, b = np.vstack([a_ub, a_eq, -a_eq]), np.concatenate([b_ub, b_eq, -b_eq])
    if b.size == 0:
        raise ValueError("no constraints")
    tab = _Tableau(np.hstack([A, np.eye(b.size), b[:, None]]), np.arange(n, n + b.size), c)
    tab.red[:n] = np.maximum(c, 0.0)  # the slack basis is dual feasible for this cost
    return tab.reoptimize(reprice=True)


def add_rows(result: SimplexResult, a_ub, b_ub) -> SimplexResult:
    """Re-optimize an OPTIMAL ``result`` with the rows A_ub x <= b_ub added.

    Each new row gets a basic slack and has the basic columns eliminated, so
    the appended tableau keeps its reduced costs and stays dual feasible; dual
    simplex pivots then restore primal feasibility and a primal pass clears any
    reduced cost that rounding left negative.  ``pivots`` counts this call
    only; ``result`` is left as it was.
    """
    old = result.tableau
    if old is None:
        raise ValueError("add_rows needs an optimal result of solve_lp or add_rows")
    a, b = _rows(a_ub, b_ub, old.c.size, "a_ub", "b_ub")
    m, N, k = old.m, old.N, b.size
    T = np.zeros((m + k, N + k + 1))
    T[:m, :N], T[:m, -1] = old.T[:, :-1], old.T[:, -1]
    T[m:, : a.shape[1]], T[m:, -1] = a, b
    T[m:, N:-1] = np.eye(k)
    T[m:] -= T[m:, old.basis] @ T[:m]  # old rows hold the identity on their basis
    basis = np.concatenate([old.basis, np.arange(N, N + k)])
    tab = _Tableau(T, basis, old.c)
    tab.red = np.concatenate([old.red[:-1], np.zeros(k), old.red[-1:]])
    return tab.reoptimize()

"""Dense dual simplex for small linear programs with nonnegative costs, with
warm-started rows.

Solves min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0 for c >= 0 by
one pivot rule: dual simplex pivots (Lemke 1954) from the slack basis, which
c >= 0 makes dual feasible whatever the signs of b, until b >= 0 (optimal) or
a row proves the program infeasible.  After a run of degenerate pivots they
follow Bland's smallest-index rule so they cannot cycle.  With c >= 0 the
objective is bounded below by 0, so no program is unbounded.  An optimal
result keeps its tableau; ``add_rows`` appends ``<=`` rows to it, which keeps
it dual feasible, and runs the same pivots.  Sized for the restricted programs
of the mixture-design row generation, whose costs are capabilities t >= 1
(about 50 variables and at most a few hundred rows); no sparsity, no revised
formulation.

Tableau columns: the n variables, then one slack per row.  Rows: the ``<=``
rows, the equality rows a.x = b as a.x <= b, then as -a.x <= -b: an equality
row has two slacks and no artificial column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_TOL = 1e-9
_MAX_PIVOTS = 200_000  # pivot budget of one solve_lp or add_rows call
_BLAND_STREAK = 2  # Bland's rule after more than this times (rows + columns) degenerate pivots


class CyclingError(RuntimeError):
    """Pivot budget exceeded; the instance is numerically degenerate."""


class _Tableau:
    """Row i of ``T`` carries B^-1 [A | b] with basic column ``basis[i]``;
    ``red`` is [c - c_B B^-1 A | -objective], kept >= 0 by every pivot."""

    def __init__(self, T: np.ndarray, basis: np.ndarray, c: np.ndarray, red: np.ndarray):
        self.T, self.basis, self.c, self.red = T, basis, c, red
        self.m, self.N = T.shape[0], T.shape[1] - 1

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

    def reoptimize(self) -> SimplexResult:
        """Dual pivots until b >= 0 or a row proves infeasibility: the row of
        the most negative b leaves, the column of the smallest ratio enters.
        RuntimeError if rounding left a reduced cost below -_TOL at b >= 0,
        since the point would then not be optimal."""
        T, red, streak = self.T, self.red, 0
        bland_after = _BLAND_STREAK * (self.m + self.N)
        for pivots in range(_MAX_PIVOTS):
            rows = np.nonzero(T[:, -1] < -_TOL)[0]
            if rows.size == 0:
                break
            # Bland: smallest basis index leaves, smallest index enters
            bland = streak > bland_after
            row = int(rows[np.argmin(self.basis[rows] if bland else T[rows, -1])])
            cols = np.nonzero(T[row, :-1] < -_TOL)[0]
            if cols.size == 0:  # row says: nonnegative terms sum to b < 0
                return SimplexResult(INFEASIBLE, None, None, pivots)
            ratios = red[cols] / -T[row, cols]
            best = ratios.min()  # smallest index enters on ties
            streak = streak + 1 if best < 1e-12 else 0
            self.pivot(row, int(cols[np.argmax(ratios <= best + 1e-12)]))
        else:
            raise CyclingError(f"exceeded {_MAX_PIVOTS} pivots")
        if red[:-1].min() < -_TOL:
            raise RuntimeError(f"reduced cost {red[:-1].min()} below -{_TOL} at b >= 0")
        x_full = np.zeros(self.N)
        x_full[self.basis] = T[:, -1]
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
    if (c < 0.0).any():
        raise ValueError(f"c must be >= 0, got {c.min()}")
    A, b = np.vstack([a_ub, a_eq, -a_eq]), np.concatenate([b_ub, b_eq, -b_eq])
    if b.size == 0:
        raise ValueError("no constraints")
    T = np.hstack([A, np.eye(b.size), b[:, None]])
    red = np.concatenate([c, np.zeros(b.size + 1)])  # the slack basis: reduced costs c
    return _Tableau(T, np.arange(n, n + b.size), c, red).reoptimize()


def add_rows(result: SimplexResult, a_ub, b_ub) -> SimplexResult:
    """Re-optimize an OPTIMAL ``result`` with the rows A_ub x <= b_ub added.

    Each new row gets a basic slack and has the basic columns eliminated, so
    the appended tableau keeps its reduced costs and stays dual feasible; dual
    simplex pivots then restore primal feasibility.  ``pivots`` counts this
    call only; ``result`` is left as it was.
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
    red = np.concatenate([old.red[:-1], np.zeros(k), old.red[-1:]])
    return _Tableau(T, basis, old.c, red).reoptimize()

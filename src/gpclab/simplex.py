"""Dense two-phase simplex for small linear programs.

Solves min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.  Pivoting
uses the most-negative reduced cost, falling back to Bland's smallest-index
rule after a run of degenerate pivots so the method cannot cycle.  Sized for
the restricted programs of the mixture-design row generation (about 50
variables and at most a few hundred rows); no sparsity, no revised
formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_TOL = 1e-9


class CyclingError(RuntimeError):
    """Pivot budget exceeded; the instance is numerically degenerate."""


@dataclass(frozen=True)
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    pivots: int


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    max_pivots: int = 200_000,
) -> SimplexResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    kinds: list[str] = []
    if a_ub is not None:
        for a, b in zip(np.atleast_2d(np.asarray(a_ub, float)), np.asarray(b_ub, float).ravel()):
            rows.append(np.array(a, float))
            rhs.append(float(b))
            kinds.append("ub")
    if a_eq is not None:
        for a, b in zip(np.atleast_2d(np.asarray(a_eq, float)), np.asarray(b_eq, float).ravel()):
            rows.append(np.array(a, float))
            rhs.append(float(b))
            kinds.append("eq")
    m = len(rows)
    if m == 0:
        raise ValueError("no constraints")
    A = np.array(rows, float)
    b = np.array(rhs, float)
    # normalize to b >= 0; a flipped <= row becomes a >= row (surplus + artificial)
    for i in range(m):
        if b[i] < 0.0:
            A[i] *= -1.0
            b[i] *= -1.0
            if kinds[i] == "ub":
                kinds[i] = "ge"
    n_slack = sum(k in ("ub", "ge") for k in kinds)
    n_art = sum(k in ("eq", "ge") for k in kinds)
    N = n + n_slack + n_art
    T = np.zeros((m, N + 1))
    T[:, :n] = A
    T[:, -1] = b
    basis = np.empty(m, dtype=np.int64)
    js, ja = n, n + n_slack
    art_cols: list[int] = []
    for i in range(m):
        if kinds[i] == "ub":
            T[i, js] = 1.0
            basis[i] = js
            js += 1
        elif kinds[i] == "ge":
            T[i, js] = -1.0
            js += 1
            T[i, ja] = 1.0
            basis[i] = ja
            art_cols.append(ja)
            ja += 1
        else:
            T[i, ja] = 1.0
            basis[i] = ja
            art_cols.append(ja)
            ja += 1
    art = np.array(art_cols, dtype=np.int64)

    def reduced_row(cost: np.ndarray) -> np.ndarray:
        # red = [cost - cost_B B^-1 A | -objective]; rows carry B^-1 [A | b]
        red = np.zeros(N + 1)
        red[: cost.size] = cost
        for i in range(m):
            cb = red[basis[i]]
            if cb != 0.0:
                red -= cb * T[i]
        return red

    def pivot(red: np.ndarray, row: int, col: int) -> None:
        T[row] /= T[row, col]
        column = T[:, col].copy()
        column[row] = 0.0
        T[:] -= np.outer(column, T[row])
        rc = red[col]
        if rc != 0.0:
            red -= rc * T[row]
        basis[row] = col

    def optimize(red: np.ndarray, allowed: np.ndarray, budget: int) -> tuple[str, int]:
        pivots = 0
        degenerate_streak = 0
        bland_after = 2 * (m + N)
        while pivots < budget:
            candidates = np.nonzero((red[:-1] < -_TOL) & allowed)[0]
            if candidates.size == 0:
                return OPTIMAL, pivots
            if degenerate_streak > bland_after:
                col = int(candidates[0])  # Bland: smallest index
            else:
                col = int(candidates[np.argmin(red[candidates])])
            column = T[:, col]
            pos = np.nonzero(column > _TOL)[0]
            if pos.size == 0:
                return UNBOUNDED, pivots
            ratios = T[pos, -1] / column[pos]
            best = ratios.min()
            ties = pos[ratios <= best + 1e-12]
            row = int(ties[np.argmin(basis[ties])])  # smallest basis index on ties
            degenerate_streak = degenerate_streak + 1 if best < 1e-12 else 0
            pivot(red, row, col)
            pivots += 1
        raise CyclingError(f"exceeded {budget} pivots")

    allowed = np.ones(N, dtype=bool)
    pivots_total = 0
    if n_art:
        phase1_cost = np.zeros(N)
        phase1_cost[art] = 1.0
        red1 = reduced_row(phase1_cost)
        status, p = optimize(red1, allowed, max_pivots)
        pivots_total += p
        if status != OPTIMAL:
            return SimplexResult(status, None, None, pivots_total)
        if -red1[-1] > 1e-7:
            return SimplexResult(INFEASIBLE, None, None, pivots_total)
        # pivot any zero-level artificial out of the basis
        for i in range(m):
            if basis[i] in art:
                nz = np.nonzero(np.abs(T[i, : n + n_slack]) > _TOL)[0]
                if nz.size:
                    pivot(red1, i, int(nz[0]))
        allowed[art] = False
    red2 = reduced_row(c)
    status, p = optimize(red2, allowed, max_pivots - pivots_total)
    pivots_total += p
    if status != OPTIMAL:
        return SimplexResult(status, None, None, pivots_total)
    x_full = np.zeros(N)
    x_full[basis] = T[:, -1]
    x = x_full[:n]
    return SimplexResult(OPTIMAL, x, float(c @ x), pivots_total)

"""Density evolution for deterministic GPC families.

Tracks x_i, the probability that an erased bit touching position i is still
unresolved after a given number of decoding iterations, and z, the fraction
of component codes that would declare failure.  Includes scheduled variants
(frozen positions carry their state forward), the decoding threshold, and
two analytic upper bounds on it, on the threshold's own c axis.

Every DE iteration of ``de_run`` updates all positions with array operations
that evaluate each position's tau-mixed Poisson tails in Horner form, with no
tail table; the contraction slack that post-verification reports reads the
same Horner tails, and the closed form and the continuation read sums of
Poisson pmf terms over the same coefficients, with F' and F'' accurate where
differences of tails lose them.  A step runs Horner on mu = -lam and writes
in place; ``de_run`` checks its stopping rules once per block of ``_BLOCK``
iterations, so it computes and discards up to ``_BLOCK - 1`` iterations, and
nothing reported changes.

The threshold is the fold of the DE fixed points, found without iteration
counts: in closed form for position-regular specs (a lam grid built once per
capability range, then Newton on floats), by continuation for all others.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .codespec import GpcSpec, erasure_scaling, mean_capability
from .poisson import CapabilityDistribution, _check_quality, initial_loss_mixture

CONVERGED = "converged_to_zero"
STUCK = "stuck_positive"
ITERATION_CAP = "iteration_cap"

DEFAULT_ELL_MAX = 20000
DEFAULT_SUCCESS_EPSILON = 1e-8
DEFAULT_X_TOLERANCE = 1e-13

# Grid points per block of the contraction slack: its Horner tails hold a
# few vectors of this length, 128 kB each, whatever the grid size.
SLACK_BLOCK = 16384
_LAM_CAP = 750.0  # Horner tails cap lam here: e^-lam is 0 and p(lam) stays finite
_BLOCK = 16  # DE iterations between two checks of the stopping rules


@dataclass(frozen=True)
class Schedule:
    """Sequence of active position sets; inactive positions are frozen."""

    active_sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "active_sets", tuple(frozenset(s) for s in self.active_sets)
        )
        if any(not s for s in self.active_sets):
            raise ValueError("every active set must be nonempty")

    def covers(self, L: int) -> bool:
        return set().union(*set(self.active_sets)) == set(range(L))  # each distinct set once

    def __len__(self) -> int:
        return len(self.active_sets)


def full_schedule(L: int, steps: int) -> Schedule:
    """Every position active at every step: one set, held ``steps`` times."""
    return Schedule((frozenset(range(L)),) * steps)


def window_schedule(L: int, width: int, steps_per_slide: int) -> Schedule:
    """Sliding decoding window: [s, s+width) stays active for a fixed number
    of steps, then moves one position to the right until it hits the end."""
    if not (1 <= width <= L) or steps_per_slide < 1:
        raise ValueError("need 1 <= width <= L and steps_per_slide >= 1")
    sets = []
    for s in range(L - width + 1):
        active = frozenset(range(s, s + width))
        sets.extend([active] * steps_per_slide)
    return Schedule(tuple(sets))


@dataclass(frozen=True)
class DeTrajectory:
    """Iteration history of one DE run.

    ``x[k]`` is the length-L vector after k iterations (x[0] is all ones) and
    ``z[k]`` the failure fraction at iteration k, with the convention
    z[0] = 1 (nothing decoded yet).
    """

    x: np.ndarray
    z: np.ndarray
    iterations_run: int
    verdict: str

    @property
    def final_z(self) -> float:
        return float(self.z[-1])


class _PositionArrays:
    """Neighbour lists padded to the largest degree d (padding weight 0) and
    stored transposed, as (d, L) arrays."""

    __slots__ = ("nbr", "nbr_w")

    def __init__(self, spec: GpcSpec):
        L = spec.num_positions
        rows, cols = np.nonzero(spec.eta)
        degree = np.bincount(rows, minlength=L)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(degree) - degree, degree)
        self.nbr = np.zeros((int(degree.max()), L), dtype=np.intp)
        self.nbr_w = np.zeros(self.nbr.shape)
        self.nbr[slot, rows] = cols
        self.nbr_w[slot, rows] = spec.gamma[cols]

    def neighbour_sum(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[k] * x[nbr[k]]: one gather, one multiply, d - 1 row adds."""
        terms = x.take(self.nbr)
        terms *= weights
        for row in terms[1:]:
            terms[0] += row
        return terms[0]

    def means(self, x: np.ndarray, c: float) -> np.ndarray:
        """lam_i = c * sum_j eta_ij gamma_j x_j."""
        return c * self.neighbour_sum(x, self.nbr_w)


@functools.lru_cache
def _reciprocals(n: int) -> np.ndarray:
    """[1, 1/1, 1/2, ..., 1/(n - 1)]; shared, so read-only."""
    r = 1.0 / np.maximum(np.arange(n), 1.0)
    r.flags.writeable = False
    return r


@functools.lru_cache
def _inverse_factorials(n: int) -> np.ndarray:
    """[1/0!, 1/1!, ..., 1/(n - 1)!]; shared, so read-only."""
    inv_fact = np.cumprod(_reciprocals(n))
    inv_fact.flags.writeable = False
    return inv_fact


def _tail_coefficients(tau_w: np.ndarray):
    """rest[i, k] = sum_{t >= k} tau_t(i) for k = 0..t_max + 1 (rest[i, 0] = S_i)
    and inv_fact[k] = 1 / k! for k = 0..t_max: the Horner tails' coefficients."""
    rest = np.zeros((tau_w.shape[0], tau_w.shape[1] + 2))
    tau_w[:, ::-1].cumsum(axis=1, out=rest[:, -2:0:-1])
    rest[:, 0] = rest[:, 1]
    return rest, _inverse_factorials(tau_w.shape[1] + 1)


def _stepper(spec: GpcSpec, c: float):
    """One DE iteration as array operations over all positions.

    It evaluates the tau-mixed tails in Horner form, with no tail table:
    sum_t tau_t(i) P(Pois(lam) >= t + d) = S_i - e^-lam p_i(lam) for d = 0 (new
    x) and 1 (failure term), S_i = sum_t tau_t(i), p_i with coefficients
    (sum_{t > k - d} tau_t(i)) / k!: its constant term S_i keeps x = 0 exactly
    absorbing.  lam is capped at 750, where e^-lam is 0 and p_i(lam) finite.
    The step carries mu = -lam (-c folded into the neighbour weights) and runs
    Horner on mu with the odd-degree coefficients negated: each intermediate
    is exactly minus the one on lam, so p_i(lam) is bitwise the same.

    ``step(x, z_prev, active, x_out, z_out)`` writes the new x and failure
    terms into ``x_out`` and ``z_out`` and returns nothing; positions outside
    ``active`` (None: all active) keep x and ``z_prev`` bitwise.  Schedule
    masks are built once per distinct active set.  Runs call it in blocks of
    ``_BLOCK`` (see ``_blocks``), computing and discarding up to ``_BLOCK - 1``
    iterations; nothing reported changes.
    """
    pos = _PositionArrays(spec)
    L, weights = spec.num_positions, -c * pos.nbr_w
    # coef[j, (x, z), i] = (rest[i, k + 1], rest[i, k]) / k! for k = t_max - j,
    # negated for odd k
    rest, inv_fact = _tail_coefficients(spec.tau_table)
    coef = np.stack([rest[:, 1:], rest[:, :-1]]) * inv_fact
    coef = np.ascontiguousarray(coef.transpose(2, 0, 1)[::-1])
    coef[(spec.t_max + 1) % 2 :: 2] *= -1.0
    coef = tuple(coef)  # rows, so a step iterates no array
    total = rest[:, 0].copy()
    masks: dict[frozenset[int], np.ndarray] = {}

    def step(x, z_prev, active, x_out, z_out):
        mu = pos.neighbour_sum(x, weights)
        np.maximum(mu, -_LAM_CAP, out=mu)
        tails = coef[0] * mu
        for row in coef[1:-1]:
            tails += row
            tails *= mu
        tails += coef[-1]
        tails *= np.exp(mu, out=mu)
        np.subtract(total, tails, out=tails)
        mask = True
        if active is not None:
            mask = masks.get(active)
            if mask is None:
                mask = masks[active] = np.zeros(L, dtype=bool)
                mask[list(active)] = True
            x_out[:], z_out[:] = x, z_prev
        np.maximum(tails[0], 0.0, out=x_out, where=mask)
        np.maximum(tails[1], 0.0, out=z_out, where=mask)

    return step


def _blocks(spec: GpcSpec, c: float, steps: int, schedule: Schedule | None = None,
            success_epsilon: float = DEFAULT_SUCCESS_EPSILON):
    """DE from x = 1 for at most ``steps`` iterations, ``_BLOCK`` at a time.

    Yields per block its x rows and per-position failure terms, in arrays of
    their own, and the verdict, None while the run goes on.  The stopping
    rules are checked once per block, over all its rows, and the block is cut
    at the first row that meets one: the rows and the verdict are those of a
    check after each iteration, and up to ``_BLOCK - 1`` iterations are
    discarded.  A run stalls once every position moves by less than
    ``DEFAULT_X_TOLERANCE``, read as the run goes, times the largest x.
    """
    step, L = _stepper(spec, c), spec.num_positions
    x, z_pos = np.ones((_BLOCK + 1, L)), np.ones((_BLOCK + 1, L))
    done = 0
    while True:
        n = min(_BLOCK, max(steps - done, 0))
        for k in range(1, n + 1):
            active = None if schedule is None else schedule.active_sets[done + k - 1]
            step(x[k - 1], z_pos[k - 1], active, x[k], z_pos[k])
        x_max = x[1 : n + 1].max(axis=1)
        stuck = np.abs(x[1 : n + 1] - x[:n]).max(axis=1) < DEFAULT_X_TOLERANCE * x_max
        hit = (x_max <= success_epsilon) | (stuck & (schedule is None))
        m = int(np.argmax(hit)) + 1 if hit.any() else n
        done += m
        verdict = ITERATION_CAP if done >= steps else None
        if hit.any():
            verdict = CONVERGED if x_max[m - 1] <= success_epsilon else STUCK
        yield x[1 : m + 1], z_pos[1 : m + 1], verdict
        if verdict is not None:
            return
        last = x[n], z_pos[n]  # the next block starts from this one's last row
        x, z_pos = np.empty((_BLOCK + 1, L)), np.empty((_BLOCK + 1, L))
        x[0], z_pos[0] = last


def de_run(
    spec: GpcSpec,
    c: float,
    ell_max: int = DEFAULT_ELL_MAX,
    schedule: Schedule | None = None,
    success_epsilon: float = DEFAULT_SUCCESS_EPSILON,
) -> DeTrajectory:
    """Iterate DE until convergence, a stall, or the iteration cap.

    With a schedule, iteration l updates only the active positions; frozen
    positions keep x and their per-position failure term bitwise unchanged,
    and the run executes the whole schedule (stall detection is meaningless
    while positions wait to be activated).  Each iteration updates all
    positions as arrays, whatever L is, in place (see ``_stepper``).  The
    stopping rules are checked once per block of ``_BLOCK`` iterations (see
    ``_blocks``): up to ``_BLOCK - 1`` iterations are computed and discarded,
    and nothing reported changes.
    """
    _check_quality(c)
    if ell_max < 0:
        raise ValueError(f"need ell_max >= 0, got {ell_max}")
    L = spec.num_positions
    if schedule is not None:
        if not schedule.covers(L):
            raise ValueError("schedule must cover every position")
        steps = min(ell_max, len(schedule))
    else:
        steps = ell_max
    xs, zs = [np.ones((1, L))], [1.0]
    for x, z_pos, verdict in _blocks(spec, c, steps, schedule, success_epsilon):
        xs.append(x)
        zs.extend(spec.gamma @ row for row in z_pos)  # a matrix product rounds differently
    x = np.concatenate(xs)
    return DeTrajectory(x=x, z=np.array(zs), iterations_run=len(x) - 1, verdict=verdict)


def _min_slack(tau: CapabilityDistribution, c: float, grid_points: int) -> float:
    """Minimum over x = i / grid_points, i = 1..grid_points, of the
    single-position contraction slack x - sum_t tau_t P(Pois(c x) >= t).

    The slack is x minus one single-position DE step, from ``_stepper``'s
    Horner tails (lam = c x capped at ``_LAM_CAP``, so it stays finite at any
    finite c), taken ``SLACK_BLOCK`` grid points at a time.  Post-verification
    reports it; the verdict on the mixture is its exact threshold.
    """
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    min_slack = math.inf
    rest, inv_fact = _tail_coefficients(np.array([tau.weights]))
    coef = (rest[0, 1:] * inv_fact)[::-1]  # the x row of ``_stepper``'s coefficients
    for start in range(1, grid_points + 1, SLACK_BLOCK):
        x = np.arange(start, min(start + SLACK_BLOCK, grid_points + 1)) / grid_points
        lam = np.minimum(c * x, _LAM_CAP)
        slack = x - (rest[0, 0] - np.exp(-lam) * np.polyval(coef, lam))
        min_slack = min(min_slack, float(slack.min()))
    return min_slack


@dataclass(frozen=True)
class ThresholdResult:
    """Bracket, at most ``bracket_tol`` wide, around the fold where the branch
    of nonzero DE fixed points reached from x = 1 turns back.  ``c_star`` is its
    upper end, where a nonzero fixed point exists: it never under-reports."""

    c_star: float
    bracket_lo: float
    bracket_hi: float
    bracket_width: float


class BracketError(RuntimeError):
    """DE does not stall at the start c of the fold search."""


class ContinuationStall(RuntimeError):
    """The fold's continuation finds no next point on its branch, at any step."""


# A closed-form bracket's relative half-width covers the rounding of F, a few
# ulp per tail times c / lam: below 1e-10 for lam >= _LAM_MIN and c <= 128.
# Continuation in (x, c / c_start): first arclength step, residual of a point
# on the branch, shortest step, and the largest x of a point taken as x = 0.
_CLOSED_FORM_RTOL, _LAM_MIN, _LAM_POINTS, _NEWTON_STEPS = 1e-9, 1e-2, 200, 5
_FIRST_STEP, _RESIDUAL_TOL, _MIN_STEP, _X_ZERO = 0.05, 1e-12, 1e-10, 1e-6


def _pmf_coefficients(tau_w: np.ndarray) -> np.ndarray:
    """coef[i, d] for d = 0, 1, 2: the d-th derivative of F_i(lam) = sum_t
    tau_t(i) P(Pois(lam) >= t) is coef[i, d] . (pmf_0, ..., pmf_{t_max - 1}, 1),
    pmf_k = P(Pois(lam) = k).  Rows: F = S_i - sum_k pmf_k sum_{t > k} tau_t(i),
    F' = sum_k tau_{k+1}(i) pmf_k (dP(Pois >= t)/dlam = pmf_{t-1}) and
    F'' = sum_k (tau_{k+2}(i) - tau_{k+1}(i)) pmf_k (dpmf_k/dlam = pmf_{k-1} - pmf_k)."""
    rest = _tail_coefficients(tau_w)[0]
    coef = np.zeros((tau_w.shape[0], 3, tau_w.shape[1] + 1))
    np.negative(rest[:, 1:-1], out=coef[:, 0, :-1])
    coef[:, 0, -1] = rest[:, 0]
    coef[:, 1, :-1] = tau_w
    np.subtract(coef[:, 1, 1:], coef[:, 1, :-1], out=coef[:, 2, :-1])
    return coef


def _pmf(lam: np.ndarray, size: int) -> np.ndarray:
    """(pmf_0, ..., pmf_{size - 2}, 1) at lam, from one cumulative product over
    (e^-lam, lam / 1, lam / 2, ...).  lam is capped at ``_LAM_CAP``, as in
    ``_stepper``: e^-lam is 0 there and all stays finite."""
    lam = np.minimum(lam, _LAM_CAP)
    pmf = lam[..., None] * _reciprocals(size)
    pmf[..., 0] = np.exp(-lam)
    pmf[..., -1] = 1.0
    np.cumprod(pmf[..., :-1], axis=-1, out=pmf[..., :-1])
    return pmf


def _tail_sums(lam: np.ndarray | float, coef: np.ndarray) -> np.ndarray:
    """F and its derivatives at lam: ``_pmf_coefficients`` rows (last axis of
    the result) dotted with (pmf_0, ..., pmf_{t_max - 1}, 1).  At one float lam,
    a Newton point, ``_pmf``'s cumulative product runs on floats, rounded the same."""
    if isinstance(lam, float):
        lam = min(lam, _LAM_CAP)
        p = float(np.exp(-lam))
        pmf = [p] + [p := p * (lam * (1.0 / k)) for k in range(1, coef.shape[-1] - 1)]
        return np.add.reduce(coef * np.array(pmf + [1.0]), axis=-1)
    return (coef * _pmf(lam, coef.shape[-1])[..., None, :]).sum(axis=-1)


@functools.lru_cache
def _grid(t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The closed form's lam grid for capabilities up to t_max and ``_pmf`` on
    it, t_max + 1 columns; shared, so read-only."""
    lam = np.geomspace(_LAM_MIN, 2.0 * t_max + 2.0, _LAM_POINTS)
    pmf = _pmf(lam, t_max + 1)
    lam.flags.writeable = pmf.flags.writeable = False
    return lam, pmf


def _exact(c: float) -> tuple[float, float]:
    return c * (1.0 - _CLOSED_FORM_RTOL), c * (1.0 + _CLOSED_FORM_RTOL)


def _closed_form(tau: CapabilityDistribution, s: float) -> tuple[float, float]:
    """Bracket of (1/s) min(1/tau_1, min over lam > 0 of lam / F(lam)): a
    position-regular spec has nonzero fixed points x at c = lam / (s F(lam)),
    lam = c s x.  Newton on F = lam F', until a step leaves lam unchanged,
    refines the minimum on a log grid of lam up to 2 t + 2, t the largest
    capability with positive weight; beyond it lam / F >= lam exceeds the
    counting bound."""
    (lam, pmf), coef = _grid(tau.t_max), _pmf_coefficients(np.array([tau.weights]))[0]
    f = np.add.reduce(coef[0] * pmf, axis=-1)
    k = int((f / lam).argmax())  # a tail may round to 0, and lam / 0 to inf
    best = min(float(lam[k] / f[k]), 1.0 / tau.weights[0] if tau.weights[0] > 0.0 else math.inf)
    if 0 < k < lam.size - 1:  # Newton on Python floats
        lo, x, hi = lam[k - 1 : k + 2].tolist()
        for _ in range(_NEWTON_STEPS):
            f, f1, f2 = _tail_sums(x, coef).tolist()
            best = min(best, x / f)
            x, x_prev = x + (f - x * f1) / (x * f2), x
            if x == x_prev or not lo < x < hi:
                break
    return _exact(best / s)


def _fold(spec: GpcSpec, bracket_tol: float) -> tuple[float, float]:
    """Bracket the threshold by following DE's fixed points to their fold.

    From DE's stall at the counting bound, pseudo-arclength continuation
    follows G(x, c) = f(x; c) - x = 0 down in c, with df_i/dx_j =
    c eta_ij gamma_j F_i'(lam_i) and df_i/dc = F_i'(lam_i) lam_i / c, F_i and F_i'
    pmf sums (``_tail_sums``) over the coefficients of DE's own tails.  Past the
    turn the step halves until hi, the lowest c found, is within tol = bracket_tol
    / 2 of the crossing of the tangent lines on either side (a lower bound while
    c is convex).  DE at hi - tol then converges (the threshold is above that),
    stalls on a lower plateau (whose branch is followed next) or hits its cap,
    as a wave crawling along a long chain does (the fold's bracket stands).
    A branch reaching x = 0 ends where c tau_1(i) eta_ij gamma_j has spectral radius 1."""
    pos, L = _PositionArrays(spec), spec.num_positions
    coupling, down = spec.eta * spec.gamma, -np.eye(L + 1)[L]
    coef, tau_1 = _pmf_coefficients(spec.tau_table)[:, :2], spec.tau_table[:, 0] > 0.0
    c = c0 = upper_bound(spec)

    def on_branch(p: np.ndarray, normal: np.ndarray):
        """Newton from p to the branch on normal . (u - p) = 0: (u, tangent), or
        None.  A position with x_i < _X_ZERO at p and tau_1(i) = 0 has decoded:
        it is no unknown, x_i = F_i(lam_i) follows its neighbours, and its
        tangent entry is 0.  Its coupling entries are O(lam_i^(t - 1)), t >= 2."""
        free = np.append((p[:-1] >= _X_ZERO) | tau_1, True)
        if not free[:-1].any():
            raise BracketError(f"every position decodes at c = {p[-1] * c0}, none has t = 1")
        u, t = p.copy(), np.zeros(L + 1)
        for _ in range(8):
            if (u[free] < 0.0).any():
                return None
            x, lam = u[:-1], pos.means(u[:-1], u[-1] * c0)
            f, fp = _tail_sums(lam, coef).T
            x[~free[:-1]] = f[~free[:-1]]
            rows = np.vstack([np.column_stack([(u[-1] * c0 * fp)[:, None] * coupling
                                               - np.eye(L), fp * lam / u[-1]]), normal])
            rows = rows[np.ix_(free, free)]
            if np.abs(f - x).max() <= _RESIDUAL_TOL:
                t[free] = np.linalg.solve(rows, np.eye(L + 1)[L][free])
                return u, t / np.linalg.norm(t)
            u[free] += np.linalg.solve(rows, np.append(x - f, normal @ (p - u))[free])
        return None

    def run(c: float) -> tuple[str, np.ndarray]:
        """Verdict and final x of DE at c, keeping only the last block."""
        ((x, _, verdict),) = deque(_blocks(spec, c, DEFAULT_ELL_MAX), maxlen=1)
        return verdict, x[-1]

    verdict, x_end = run(c)
    if verdict != STUCK:
        raise BracketError(f"DE does not stall at the counting bound c = {c0}")
    while True:
        u, t = on_branch(np.append(x_end, c / c0), down)
        h, turned = _FIRST_STEP, False
        while True:
            while (found := on_branch(u + h * t, t)) is None:
                h /= 2.0
                if h < _MIN_STEP:
                    raise ContinuationStall(f"continuation stalled at c = {u[-1] * c0}")
            v, tv = found
            if v[:-1].max() < _X_ZERO:
                return _exact(1.0 / np.abs(np.linalg.eigvals(spec.tau_table[:, :1] * coupling)).max())
            if tv[-1] < 0.0:  # c still falls: step on, growing steps until the turn
                u, t, h = v, tv, h if turned else 1.5 * h
                continue
            # along the chord u + r d, c has slope a at u and b at v (per unit r)
            turned, d = True, v - u
            a, b = (d @ d) * t[-1] / (t @ d), (d @ d) * tv[-1] / (tv @ d)
            lo, hi = c0 * (u[-1] + a * (v[-1] - u[-1] - b) / (a - b)), c0 * min(u[-1], v[-1])
            if hi - lo <= bracket_tol / 2.0 or h < _MIN_STEP:
                break
            h /= 2.0
        c = max(hi - bracket_tol / 2.0, 0.0)
        verdict, x_end = run(c)
        if verdict == CONVERGED:
            return c, hi
        if verdict == ITERATION_CAP:
            return lo, hi


def threshold(spec: GpcSpec, bracket_tol: float = 0.01) -> ThresholdResult:
    """The fold of the DE fixed points (``ThresholdResult``): in closed form,
    with no DE run, when every position has the same tau and the same
    s = sum_j eta_ij gamma_j, else by ``_fold`` (BracketError if DE never stalls)."""
    if not 0.0 < bracket_tol < np.inf:
        raise ValueError(f"bracket_tol must be > 0 and finite, got {bracket_tol}")
    s = (spec.eta @ spec.gamma).tolist()
    regular = all(d == spec.tau[0] for d in spec.tau) and s.count(s[0]) == len(s)
    lo, hi = _closed_form(spec.tau[0], s[0]) if regular else _fold(spec, bracket_tol)
    return ThresholdResult(float(hi), float(lo), float(hi), float(hi - lo))


def upper_bound(spec: GpcSpec) -> float:
    """Counting bound c <= 2 t_bar / (gamma' eta gamma): the erasures, c/2 per
    component code on this c axis, cannot outnumber t_bar corrections."""
    return 2.0 * mean_capability(spec) * erasure_scaling(spec)


def refined_upper_bound(spec: GpcSpec) -> float:
    """The counting bound tightened by the initial loss, on the threshold's c
    axis as ``upper_bound``: for tau the positions' mixtures weighted by gamma,
    the largest c <= 2*t_bar - 2*initial_loss_mixture(tau, c), bisected to
    within 1e-10, times ``erasure_scaling(spec)``.

    Accounting for the correction potential wasted before the first round
    tightens the 2*t_bar bound; the gap never closes since the initial loss
    is strictly positive at any finite c.
    """
    # row by row, in position order: a matrix product rounds differently
    collapsed = sum(g * row for g, row in zip(spec.gamma, spec.tau_table))
    tau = CapabilityDistribution(tuple(collapsed / collapsed.sum()))
    top = 2.0 * tau.mean()

    def slack(c: float) -> float:
        return top - 2.0 * initial_loss_mixture(tau, c) - c

    # slack(0) = 0 with slope 1 there, and slack is concave: positive below
    # its one root in (0, top], negative above it
    lo, hi = 0.0, top
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if slack(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * erasure_scaling(spec)

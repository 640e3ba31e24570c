"""Test-local references for density evolution and the threshold bisection.

`one_step` runs one iteration of the package's array DE step (the one
`gpclab.de.de_run` iterates) from a given x: `de_step` is its new x and
`failure_probability` its failure fraction z.  `de_step_per_type` is one DE
iteration with the state resolved per (position, capability) type;
aggregating it with the tau weights gives the collapsed step `de_step`.

`reference_de_run` is `gpclab.de.de_run` with the position-by-position step
the package once used for chains shorter than 16 positions: a Python loop
over positions, one scalar Poisson tail block each (``poisson_reference``),
and the same stopping rules.  It agrees with the package's array step to
rounding.

`reference_threshold` is the bisection `gpclab.de.threshold` ran before it
followed the fold of the DE fixed points: it starts from [t_bar/2, 2 t_bar],
doubles or halves an end on the wrong side, and halves the bracket until it
is at most ``bracket_tol`` wide.  Each tested c is classified by
`reference_run_converges`, which runs DE: a converged run counts, a stuck one
does not, and a single-position run that hits the iteration cap while still
descending is settled by the contraction slack on (0, x_end], because the
trajectory is monotone and no fixed point below x_end means convergence.
The result counts the runs that hit the cap, so a test can ask for a cap
high enough that no run does.  It is slow on purpose: near the threshold a
run may take many thousand iterations.  It runs DE through
`reference_de_run`, which at the small L these tests use is several times
faster than the array step.

`reference_closed_form` is `gpclab.de._closed_form` as it was before its
Newton steps ran on Python floats: the coefficients built around inverse
factorials, the grid pmf from `gpclab.de._pmf`, and each Newton point a 0-d
array through `_pmf`'s cumulative product, with numpy-scalar arithmetic in
between.  It also counts the Newton points it evaluated, so a test can ask
for mixtures whose grid argmax sits at an end, where it evaluates none.

`END_CAPABILITY_BRACKETS` pins DE-bisection brackets for staircases whose
end positions decode first (`end_capability_staircase`), on which the fold's
continuation once stalled.  Each came from plain `gpclab.de.de_run`
bisection with ell_max = 400000, where every midpoint converged or stalled
and none hit the cap; near these thresholds a run takes up to 10^5
iterations, so the brackets are pinned rather than recomputed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence

import numpy as np

from gpclab import de
from gpclab.codespec import GpcSpec, erasure_scaling, mean_capability, preset_staircase
from gpclab.poisson import CapabilityDistribution, _check_quality, poisson_tail_table
from poisson_reference import poisson_tail_block

NOISE_FLOOR = 1e-12
CAP_GRID_POINTS = 2000
BLOCK = 1024


def _scalar_step(spec: GpcSpec, c: float):
    """Per-position loop over Poisson tail blocks; see ``de._stepper``."""
    gamma = [float(g) for g in spec.gamma]
    positions = [
        ([(int(j), gamma[j]) for j in np.nonzero(row)[0]], d.t_max + 1, d.support())
        for row, d in zip(spec.eta, spec.tau)
    ]
    z_pos = [1.0] * len(positions)  # per-position failure fraction; 1 before decoding

    def step(x, active):
        new_x = list(x)
        max_change = 0.0
        for i, (neighbors, t_top, support) in enumerate(positions):
            if active is not None and i not in active:
                continue
            lam = c * sum(w * x[j] for j, w in neighbors)
            tails = poisson_tail_block(t_top, lam)
            xi = 0.0
            zi = 0.0
            for t, w in support:
                xi += w * tails[t - 1]
                zi += w * tails[t]
            new_x[i] = xi
            z_pos[i] = zi
            change = abs(x[i] - xi)
            if change > max_change:
                max_change = change
        z = sum(g * zp for g, zp in zip(gamma, z_pos))
        return new_x, z, max(new_x), max_change

    return step


def reference_de_run(
    spec: GpcSpec,
    c: float,
    ell_max: int = de.DEFAULT_ELL_MAX,
    schedule: de.Schedule | None = None,
    x_tolerance: float = de.DEFAULT_X_TOLERANCE,
    success_epsilon: float = de.DEFAULT_SUCCESS_EPSILON,
) -> de.DeTrajectory:
    """``de.de_run`` stepped position by position."""
    L = spec.num_positions
    if schedule is not None:
        if not schedule.covers(L):
            raise ValueError("schedule must cover every position")
        steps = min(ell_max, len(schedule))
    else:
        steps = ell_max
    step = _scalar_step(spec, c)

    x = [1.0] * L
    xs = [x]
    zs = [1.0]
    verdict = de.ITERATION_CAP
    for it in range(1, steps + 1):
        active = schedule.active_sets[it - 1] if schedule is not None else None
        x, z, x_max, max_change = step(x, active)
        xs.append(x)
        zs.append(z)
        if x_max <= success_epsilon:
            verdict = de.CONVERGED
            break
        if schedule is None and max_change < x_tolerance * x_max:
            verdict = de.STUCK
            break
    return de.DeTrajectory(
        x=np.array(xs), z=np.array(zs), iterations_run=len(xs) - 1, verdict=verdict
    )


def reference_success_condition(
    tau: CapabilityDistribution, c: float, grid_points: int = 10000
) -> float:
    """``de._min_slack`` from a tail table per block of ``BLOCK`` grid points:
    the minimum of the slack x - sum_t tau_t P(Pois(c x) >= t) over
    x = i / grid_points, i = 1..grid_points."""
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    min_slack = math.inf
    support = tau.support()
    for start in range(1, grid_points + 1, BLOCK):
        x = np.arange(start, min(start + BLOCK, grid_points + 1)) / grid_points
        tails = poisson_tail_table(c * x, tau.t_max)
        slack = x - sum(w * tails[:, t - 1] for t, w in support)
        min_slack = min(min_slack, float(slack.min()))
    return min_slack


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
) -> tuple[bool, bool]:
    """Whether DE converges at c, and whether its run hit the cap."""
    traj = reference_de_run(
        spec, c, ell_max=ell_max, x_tolerance=x_tolerance, success_epsilon=success_epsilon
    )
    capped = traj.verdict == de.ITERATION_CAP
    if traj.verdict == de.CONVERGED:
        return True, capped
    if traj.verdict == de.STUCK or spec.num_positions != 1:
        return False, capped
    return not _slack_dips_below_floor(spec, c, float(traj.x[-1, 0])), capped


class ReferenceBracket(NamedTuple):
    lo: float
    hi: float
    capped_runs: int  # DE runs that hit ell_max


def reference_threshold(
    spec: GpcSpec,
    c_lo: float | None = None,
    c_hi: float | None = None,
    bracket_tol: float = 0.01,
    ell_max: int = de.DEFAULT_ELL_MAX,
    success_epsilon: float = de.DEFAULT_SUCCESS_EPSILON,
    x_tolerance: float = de.DEFAULT_X_TOLERANCE,
) -> ReferenceBracket:
    """Bisect the largest effective channel quality c with vanishing DE limit.

    Starts from [t_bar/2, 2*t_bar] (the analytic containment bracket) unless
    explicit endpoints are given, expanding by doubling/halving when an
    endpoint is on the wrong side.  Raises BracketError when no sign change
    exists inside [1e-3, 4 * t_max * erasure_scaling(spec)]: coupled chains
    have raw thresholds about erasure_scaling times their normalized ones
    (3.6x for a staircase of 6 positions, about L/2 for long staircases).
    Bisection stops at ``bracket_tol`` or once lo and hi are adjacent floats.
    """
    if not bracket_tol > 0.0:
        raise ValueError(f"bracket_tol must be > 0, got {bracket_tol}")
    for name, end in (("c_lo", c_lo), ("c_hi", c_hi)):
        if end is not None and not (math.isfinite(end) and end > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {end}")
    tbar = mean_capability(spec)
    lo = c_lo if c_lo is not None else tbar / 2.0
    hi = c_hi if c_hi is not None else 2.0 * tbar
    floor, ceil = 1e-3, 4.0 * spec.t_max * erasure_scaling(spec)
    capped = 0

    def conv(c: float) -> bool:
        nonlocal capped
        converges, hit_cap = reference_run_converges(
            spec, c, ell_max, success_epsilon, x_tolerance)
        capped += hit_cap
        return converges

    while not conv(lo):
        lo /= 2.0
        if lo < floor:
            raise de.BracketError(
                f"DE does not converge anywhere above c = {floor}; no threshold bracket"
            )
    while conv(hi):
        hi *= 2.0
        if hi > ceil:
            raise de.BracketError(
                f"DE still converges at c = {ceil}; no threshold bracket"
            )
    while hi - lo > bracket_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no float strictly between the endpoints
            break
        if conv(mid):
            lo = mid
        else:
            hi = mid
    return ReferenceBracket(lo, hi, capped)


def reference_closed_form(tau: CapabilityDistribution, s: float) -> tuple[float, float, int]:
    """``de._closed_form``'s bracket by array Newton, and its Newton points."""
    w = np.asarray(tau.weights)
    rest = np.zeros((1, w.size + 2))
    np.cumsum(w[::-1], out=rest[0, -2:0:-1])
    rest[:, 0] = rest[:, 1]
    coef = np.zeros((3, w.size + 1))
    np.negative(rest[0, 1:-1], out=coef[0, :-1])
    coef[0, -1] = rest[0, 0]
    coef[1, :-1] = w
    np.subtract(coef[1, 1:], coef[1, :-1], out=coef[2, :-1])
    lam = np.geomspace(de._LAM_MIN, 2.0 * w.size + 2.0, de._LAM_POINTS)
    f = (coef[0] * de._pmf(lam, w.size + 1)).sum(axis=-1)
    k = int(np.argmax(f / lam))
    best = min(lam[k] / f[k], 1.0 / w[0] if w[0] > 0.0 else math.inf)
    x, points = lam[k], 0
    for _ in range(de._NEWTON_STEPS if 0 < k < lam.size - 1 else 0):
        f, f1, f2 = (coef * de._pmf(x, w.size + 1)[..., None, :]).sum(axis=-1)
        points += 1
        best = min(best, x / f)
        x, x_prev = x + (f - x * f1) / (x * f2), x
        if x == x_prev or not lam[k - 1] < x < lam[k + 1]:
            break
    lo, hi = de._exact(float(best) / s)
    return lo, hi, points


def end_capability_staircase(L: int, k: int, t_end: int) -> GpcSpec:
    """staircase(L, 6 L, 3) with its first and last k positions at capability t_end."""
    spec = preset_staircase(L, 6 * L, 3)
    end = CapabilityDistribution.point_mass(t_end)
    return dataclasses.replace(
        spec, tau=tuple(end if i < k or i >= L - k else d for i, d in enumerate(spec.tau)))


# (L, k, t_end) -> DE-bisection bracket of `end_capability_staircase(L, k, t_end)`:
# [57.5, 57.6] halved 9 times for L = 20, [21.8, 21.9] halved 10 times for L = 6
END_CAPABILITY_BRACKETS = {
    (20, 1, 5): (57.544140625, 57.544335937499994),
    (20, 2, 4): (57.544335937499994, 57.54453124999999),
    (20, 2, 5): (57.544335937499994, 57.54453124999999),
    (20, 3, 4): (57.545703124999996, 57.5458984375),
    (6, 2, 4): (21.86171875, 21.86181640625),
}


def one_step(spec: GpcSpec, x: Sequence[float], c: float) -> tuple[np.ndarray, float]:
    """New x and failure fraction z after one iteration of ``de._stepper``."""
    _check_quality(c)
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.num_positions,):
        raise ValueError(f"x must have shape {(spec.num_positions,)}, got {x.shape}")
    if (x < 0.0).any():
        raise ValueError("x must be nonnegative")
    new_x, z_pos = np.empty(x.shape), np.empty(x.shape)
    de._stepper(spec, c)(x, None, None, new_x, z_pos)
    return new_x, float(spec.gamma @ z_pos)


def de_step(spec: GpcSpec, x: Sequence[float], c: float) -> np.ndarray:
    """One collapsed DE iteration: x_i <- sum_t tau_t(i) P(Pois(lam_i) >= t)
    with lam_i = c * sum_j eta_ij gamma_j x_j.  c = 0 is admitted and maps
    everything to zero (an erasure-free channel resolves instantly)."""
    return one_step(spec, x, c)[0]


def failure_probability(spec: GpcSpec, x: Sequence[float], c: float) -> float:
    """Fraction of component codes still failing, given the previous x vector.

    Uses the one-larger tail P(Pois(lam_i) >= t+1): a component fails when
    more than t of its erasures survive the round."""
    return one_step(spec, x, c)[1]


def de_step_per_type(spec: GpcSpec, x_typed: np.ndarray, c: float) -> np.ndarray:
    """One DE iteration with state resolved per (position, capability) type.

    ``x_typed[i, t-1]`` is the unresolved probability of a type-(i, t) edge.
    The aggregation sum_t tau_t(i) * x_typed[i, t-1] reproduces the collapsed
    recursion exactly.
    """
    _check_quality(c)
    L = spec.num_positions
    t_max = spec.t_max
    x_typed = np.asarray(x_typed, dtype=float)
    if x_typed.shape != (L, t_max):
        raise ValueError(f"x_typed must have shape {(L, t_max)}, got {x_typed.shape}")
    pos, tau_w = de._PositionArrays(spec), spec.tau_table
    # collapse the incoming typed state per position, then fan back out
    tails = poisson_tail_table(pos.means(np.einsum("it,it->i", tau_w, x_typed), c), t_max)
    return np.where(tau_w > 0.0, tails, 0.0)

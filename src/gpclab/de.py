"""Density evolution for deterministic GPC families.

Tracks x_i, the probability that an erased bit touching position i is still
unresolved after a given number of decoding iterations, and z, the fraction
of component codes that would declare failure.  Includes scheduled variants
(frozen positions carry their state forward), threshold search, and the
analytic bounds used to sanity-check and design capability mixtures.

``de_run`` updates chains of at least ``VECTOR_MIN_POSITIONS`` positions
with array operations over all positions (one ``poisson_tail_table`` per
iteration) and shorter ones position by position, which is faster there
because each numpy call has a fixed cost; both share the stopping rules.
``de_step`` and ``failure_probability`` take one array step whatever L is,
and the contraction check uses the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .codespec import GpcSpec, erasure_scaling, mean_capability, require_valid
from .poisson import (
    CapabilityDistribution,
    initial_loss,
    initial_loss_mixture,
    poisson_tail_block,
    poisson_tail_table,
)

CONVERGED = "converged_to_zero"
STUCK = "stuck_positive"
ITERATION_CAP = "iteration_cap"

DEFAULT_ELL_MAX = 20000
DEFAULT_SUCCESS_EPSILON = 1e-8
DEFAULT_X_TOLERANCE = 1e-13

# de_run steps chains of at least this many positions with array operations;
# their fixed numpy cost (~30 us per iteration) exceeds the scalar loop below
# about 16-24 positions.
VECTOR_MIN_POSITIONS = 16
# Grid points per tail table in the contraction check, which bounds its
# arrays to a few hundred kB whatever the grid size.
SLACK_BLOCK = 1024
# Contraction slack dips smaller than this in magnitude are rounding noise:
# each summand x - sum_t tau_t P(Pois(c x) >= t) carries O(1e-16) error.
_NOISE_FLOOR = 1e-12


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
        union: set[int] = set()
        for s in self.active_sets:
            union |= s
        return union == set(range(L))

    def __len__(self) -> int:
        return len(self.active_sets)


def full_schedule(L: int, steps: int) -> Schedule:
    return Schedule(tuple(frozenset(range(L)) for _ in range(steps)))


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
    def final_x(self) -> np.ndarray:
        return self.x[-1]

    @property
    def final_z(self) -> float:
        return float(self.z[-1])

    def to_csv_rows(self) -> list[list[str]]:
        L = self.x.shape[1]
        header = ["iteration"] + [f"x_{i+1}" for i in range(L)] + ["z"]
        rows = [header]
        for k in range(self.iterations_run + 1):
            rows.append(
                [str(k)]
                + [repr(float(v)) for v in self.x[k]]
                + [repr(float(self.z[k]))]
            )
        return rows


class _PositionArrays:
    """Neighbour lists padded to the largest degree (padding weight 0) and
    capability weights zero-padded to the spec's t_max, as arrays."""

    __slots__ = ("nbr", "nbr_w", "tau_w", "gamma", "t_max")

    def __init__(self, spec: GpcSpec):
        L, self.t_max = spec.num_positions, spec.t_max
        rows, cols = np.nonzero(spec.eta)
        degree = np.bincount(rows, minlength=L)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(degree) - degree, degree)
        self.nbr = np.zeros((L, int(degree.max())), dtype=np.intp)
        self.nbr_w = np.zeros(self.nbr.shape)
        self.nbr[rows, slot] = cols
        self.nbr_w[rows, slot] = spec.gamma[cols]
        self.tau_w = np.zeros((L, self.t_max))
        for i, d in enumerate(spec.tau):
            self.tau_w[i, : d.t_max] = d.weights
        self.gamma = spec.gamma

    def means(self, x: np.ndarray, c: float) -> np.ndarray:
        """lam_i = c * sum_j eta_ij gamma_j x_j."""
        return c * np.einsum("ij,ij->i", self.nbr_w, x[self.nbr])

    def mix(self, tails: np.ndarray) -> np.ndarray:
        """sum_t tau_t(i) * tails[i, t-1] for every position i."""
        return np.einsum("it,it->i", self.tau_w, tails)


def de_step(spec: GpcSpec, x: Sequence[float], c: float) -> np.ndarray:
    """One collapsed DE iteration: x_i <- sum_t tau_t(i) P(Pois(lam_i) >= t)
    with lam_i = c * sum_j eta_ij gamma_j x_j.  c = 0 is admitted and maps
    everything to zero (an erasure-free channel resolves instantly)."""
    if c < 0.0:
        raise ValueError(f"effective channel quality must be >= 0, got {c}")
    return _vector_step(spec, c)(x, None)[0]


def failure_probability(spec: GpcSpec, x: Sequence[float], c: float) -> float:
    """Fraction of component codes still failing, given the previous x vector.

    Uses the one-larger tail P(Pois(lam_i) >= t+1): a component fails when
    more than t of its erasures survive the round."""
    return _vector_step(spec, c)(x, None)[1]


def de_step_per_type(spec: GpcSpec, x_typed: np.ndarray, c: float) -> np.ndarray:
    """One DE iteration with state resolved per (position, capability) type.

    ``x_typed[i, t-1]`` is the unresolved probability of a type-(i, t) edge.
    The aggregation sum_t tau_t(i) * x_typed[i, t-1] reproduces the collapsed
    recursion exactly.
    """
    if c < 0.0:
        raise ValueError(f"effective channel quality must be >= 0, got {c}")
    L = spec.num_positions
    t_max = spec.t_max
    x_typed = np.asarray(x_typed, dtype=float)
    if x_typed.shape != (L, t_max):
        raise ValueError(f"x_typed must have shape {(L, t_max)}, got {x_typed.shape}")
    pos = _PositionArrays(spec)
    # collapse the incoming typed state per position, then fan back out
    tails = poisson_tail_table(pos.means(pos.mix(x_typed), c), t_max)
    return np.where(pos.tau_w > 0.0, tails, 0.0)


def _scalar_step(spec: GpcSpec, c: float):
    """Per-position loop over Poisson tail blocks; see ``_vector_step``."""
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


def _vector_step(spec: GpcSpec, c: float):
    """One DE iteration as array operations over all positions.

    ``step(x, active)`` returns the new x (positions outside ``active`` keep
    theirs bitwise), the failure fraction z, max(x) and the largest change
    of x.  Schedule masks are built once per distinct active set.
    """
    pos = _PositionArrays(spec)
    L = spec.num_positions
    z_pos = np.ones(L)
    masks: dict[frozenset[int], np.ndarray] = {}

    def step(x, active):
        nonlocal z_pos
        x = np.asarray(x, dtype=float)
        tails = poisson_tail_table(pos.means(x, c), pos.t_max + 1)
        new_x = pos.mix(tails[:, :-1])
        new_z = pos.mix(tails[:, 1:])
        if active is None:
            z_pos = new_z
        else:
            mask = masks.get(active)
            if mask is None:
                mask = masks[active] = np.zeros(L, dtype=bool)
                mask[list(active)] = True
            new_x = np.where(mask, new_x, x)
            z_pos = np.where(mask, new_z, z_pos)
        max_change = float(np.abs(new_x - x).max())
        return new_x, float(pos.gamma @ z_pos), float(new_x.max()), max_change

    return step


def de_run(
    spec: GpcSpec,
    c: float,
    ell_max: int = DEFAULT_ELL_MAX,
    schedule: Schedule | None = None,
    x_tolerance: float = DEFAULT_X_TOLERANCE,
    success_epsilon: float = DEFAULT_SUCCESS_EPSILON,
) -> DeTrajectory:
    """Iterate DE until convergence, a stall, or the iteration cap.

    With a schedule, iteration l updates only the active positions; frozen
    positions keep x and their per-position failure term bitwise unchanged,
    and the run executes the whole schedule (stall detection is meaningless
    while positions wait to be activated).  Specs with at least
    ``VECTOR_MIN_POSITIONS`` positions step all positions as arrays, shorter
    ones position by position; the two agree to rounding.
    """
    require_valid(spec)
    if c < 0.0:
        raise ValueError(f"effective channel quality must be >= 0, got {c}")
    L = spec.num_positions
    if schedule is not None:
        if not schedule.covers(L):
            raise ValueError("schedule must cover every position")
        steps = min(ell_max, len(schedule))
    else:
        steps = ell_max
    step = (_vector_step if L >= VECTOR_MIN_POSITIONS else _scalar_step)(spec, c)

    x = [1.0] * L
    xs = [x]
    zs = [1.0]
    verdict = ITERATION_CAP
    for it in range(1, steps + 1):
        active = schedule.active_sets[it - 1] if schedule is not None else None
        x, z, x_max, max_change = step(x, active)
        xs.append(x)
        zs.append(z)
        if x_max <= success_epsilon:
            verdict = CONVERGED
            break
        if schedule is None and max_change < x_tolerance * x_max:
            verdict = STUCK
            break
    return DeTrajectory(
        x=np.array(xs), z=np.array(zs), iterations_run=len(xs) - 1, verdict=verdict
    )


class SuccessCheck(NamedTuple):
    ok: bool
    min_slack: float
    worst_x: float


def success_condition(
    tau: CapabilityDistribution, c: float, grid_points: int = 10000
) -> SuccessCheck:
    """Grid check of the single-position contraction condition.

    Decoding succeeds (threshold >= c) when sum_t tau_t P(Pois(c x) >= t) < x
    on (0, 1].  The check evaluates the slack x - sum(...) at x = i/M; slack
    dips smaller than ``_NOISE_FLOOR`` in magnitude are rounding noise, so
    the verdict is min_slack > -_NOISE_FLOOR.
    """
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    min_slack = math.inf
    worst_x = math.nan
    for x, slack in _grid_slack(tau, c, 1.0, grid_points):
        k = int(np.argmin(slack))
        if slack[k] < min_slack:
            min_slack = float(slack[k])
            worst_x = float(x[k])
    return SuccessCheck(min_slack > -_NOISE_FLOOR, min_slack, worst_x)


def _grid_slack(tau: CapabilityDistribution, c: float, top: float, points: int):
    """Contraction slack x - sum_t tau_t P(Pois(c x) >= t) on the grid
    x = top * i / points, i = 1..points, as (x, slack) blocks of at most
    ``SLACK_BLOCK`` points."""
    support = tau.support()
    for start in range(1, points + 1, SLACK_BLOCK):
        x = top * np.arange(start, min(start + SLACK_BLOCK, points + 1)) / points
        tails = poisson_tail_table(c * x, tau.t_max)
        mixed = 0.0
        for t, w in support:
            mixed = mixed + w * tails[:, t - 1]
        yield x, x - mixed


def _run_converges(
    spec: GpcSpec,
    c: float,
    ell_max: int,
    success_epsilon: float,
    x_tolerance: float,
) -> bool:
    """Convergence classifier used by the threshold bisection.

    A run that hits the iteration cap while still descending is not evidence
    of a positive fixed point.  For single-position specs we settle it with
    the contraction condition restricted to (0, x_end]: the trajectory is
    monotone, so absence of a fixed point below x_end implies convergence.
    """
    traj = de_run(
        spec,
        c,
        ell_max=ell_max,
        x_tolerance=x_tolerance,
        success_epsilon=success_epsilon,
    )
    if traj.verdict == CONVERGED:
        return True
    if traj.verdict == STUCK:
        return False
    if spec.num_positions != 1:
        return False
    x_end = float(traj.final_x[0])
    return not any(
        (slack < -_NOISE_FLOOR).any()
        for _, slack in _grid_slack(spec.tau[0], c, x_end, 2000)
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection estimate of the decoding threshold.

    ``c_star`` is the upper end of the final bracket: the smallest tested c
    that failed to converge.  It therefore never under-reports the true
    supremum, which keeps exact-boundary mixtures (e.g. uniform ones) on the
    correct side.  The full bracket is recorded alongside.
    """

    c_star: float
    bracket_lo: float
    bracket_hi: float
    bracket_width: float
    de_params: dict

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.bracket_lo + self.bracket_hi)


class BracketError(RuntimeError):
    """No convergent/non-convergent bracket found in the admissible range."""


def threshold(
    spec: GpcSpec,
    c_lo: float | None = None,
    c_hi: float | None = None,
    bracket_tol: float = 0.01,
    ell_max: int = DEFAULT_ELL_MAX,
    success_epsilon: float = DEFAULT_SUCCESS_EPSILON,
    x_tolerance: float = DEFAULT_X_TOLERANCE,
) -> ThresholdResult:
    """Bisect the largest effective channel quality c with vanishing DE limit.

    Starts from [t_bar/2, 2*t_bar] (the analytic containment bracket) unless
    explicit endpoints are given, expanding by doubling/halving when an
    endpoint is on the wrong side.  Raises BracketError when no sign change
    exists inside [1e-3, 4 * t_max * erasure_scaling(spec)]: coupled chains
    have raw thresholds about erasure_scaling times their normalized ones
    (3.6x for a staircase of 6 positions, about L/2 for long staircases).
    """
    require_valid(spec)
    tbar = mean_capability(spec)
    lo = c_lo if c_lo is not None else tbar / 2.0
    hi = c_hi if c_hi is not None else 2.0 * tbar
    floor, ceil = 1e-3, 4.0 * spec.t_max * erasure_scaling(spec)

    def conv(c: float) -> bool:
        return _run_converges(spec, c, ell_max, success_epsilon, x_tolerance)

    while not conv(lo):
        lo /= 2.0
        if lo < floor:
            raise BracketError(
                f"DE does not converge anywhere above c = {floor}; no threshold bracket"
            )
    while conv(hi):
        hi *= 2.0
        if hi > ceil:
            raise BracketError(
                f"DE still converges at c = {ceil}; no threshold bracket"
            )
    while hi - lo > bracket_tol:
        mid = 0.5 * (lo + hi)
        if conv(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        c_star=hi,
        bracket_lo=lo,
        bracket_hi=hi,
        bracket_width=hi - lo,
        de_params={
            "ell_max": ell_max,
            "x_tolerance": x_tolerance,
            "success_epsilon": success_epsilon,
        },
    )


def upper_bound(spec: GpcSpec) -> float:
    """Universal necessary condition: c <= 2 * mean capability."""
    return 2.0 * mean_capability(spec)


def refined_upper_bound(tau: CapabilityDistribution, tol: float = 1e-10) -> float:
    """Largest c satisfying c <= 2*t_bar - 2*initial_loss_mixture(tau, c).

    Accounting for the correction potential wasted before the first round
    tightens the 2*t_bar bound; the gap never closes since the initial loss
    is strictly positive at any finite c.
    """
    tbar = tau.mean()
    top = 2.0 * tbar

    def slack(c: float) -> float:
        return top - 2.0 * initial_loss_mixture(tau, c) - c

    lo = None
    for k in range(1, 80):
        cand = top * (1.0 - 0.5**k)
        if cand <= 0.0:
            break
        if slack(cand) > 0.0:
            lo = cand
            break
    if lo is None:
        return 0.0
    hi = top
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slack(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def conjectured_capability_floor(c: float) -> float:
    """Diagnostic only: c/2 + (1/c) * sum_{t=1}^{round(c)} initial_loss(t, c).

    Emitted as a reference column in trade-off reports; nothing asserts it.
    """
    k = max(1, int(round(c)))
    return c / 2.0 + sum(initial_loss(t, c) for t in range(1, k + 1)) / c

"""Numerically stable Poisson pmf/tail evaluation and erasure-capability mixtures.

Everything downstream (density evolution, analytic bounds, LP coefficients)
funnels through the functions here, so they are kept branch-light and pure.
``poisson_tail_table`` is the vectorized kernel behind density evolution,
the contraction check and the LP rows; ``poisson_tail_block`` is its scalar
counterpart for one rate and only serves the position-by-position DE step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

_LOG_FACT_SIZE = 4096
_LOG_FACT = [0.0] * _LOG_FACT_SIZE
for _i in range(2, _LOG_FACT_SIZE):
    _LOG_FACT[_i] = _LOG_FACT[_i - 1] + math.log(_i)

# Direct pmf evaluation is overflow-safe up to this count/rate; beyond it we
# switch to log space.
_DIRECT_LIMIT = 30


def poisson_pmf(i: int, lam: float) -> float:
    """P(X = i) for X ~ Poisson(lam).

    Exact 1.0 at (0, 0).  Uses log-space evaluation once i or lam exceeds 30
    so large arguments neither overflow nor underflow prematurely.
    """
    if lam < 0.0:
        raise ValueError(f"Poisson rate must be nonnegative, got {lam}")
    if i < 0:
        raise ValueError(f"count must be nonnegative, got {i}")
    if lam == 0.0:
        return 1.0 if i == 0 else 0.0
    if i <= _DIRECT_LIMIT and lam <= _DIRECT_LIMIT:
        return lam**i * math.exp(-lam) / math.factorial(i)
    if i < _LOG_FACT_SIZE:
        log_fact = _LOG_FACT[i]
    else:
        log_fact = math.lgamma(i + 1.0)
    log_p = i * math.log(lam) - lam - log_fact
    if log_p < -745.0:
        return 0.0
    return math.exp(log_p)


def poisson_tail(t: int, lam: float) -> float:
    """P(X >= t) for X ~ Poisson(lam), computed as 1 minus the cumulative pmf.

    The subtraction loses relative precision for small tails; a cumulative
    pmf that rounds above 1 reads 0 rather than about -1e-16, as in the
    block and table kernels.
    """
    if lam < 0.0:
        raise ValueError(f"Poisson rate must be nonnegative, got {lam}")
    if t <= 0:
        return 1.0
    if lam == 0.0:
        return 0.0
    return max(0.0, 1.0 - sum(poisson_pmf(i, lam) for i in range(t)))


def poisson_tail_block(t_max: int, lam: float) -> list[float]:
    """[P(X >= 1), ..., P(X >= t_max)] from a single cumulative pmf pass.

    Shares the running pmf across all thresholds.  Once the running cdf
    rounds to 1 or above, the remaining tails read 0 (1 - cdf would give
    about -1e-16 there), as in ``poisson_tail_table``, and the pass stops.
    Rates beyond 600, where exp(-lam) nears underflow, fall back to the
    log-space ``poisson_tail``.
    """
    if lam < 0.0:
        raise ValueError(f"Poisson rate must be nonnegative, got {lam}")
    if t_max <= 0:
        return []
    if lam == 0.0:
        return [0.0] * t_max
    if lam > _DIRECT_LIMIT * 20:
        return [poisson_tail(t, lam) for t in range(1, t_max + 1)]
    out = [0.0] * t_max
    pmf = math.exp(-lam)
    cdf = pmf
    out[0] = 1.0 - cdf
    for i in range(1, t_max):
        pmf *= lam / i
        cdf += pmf
        if cdf >= 1.0:  # this and every later tail rounds to <= 0: leave 0
            break
        out[i] = 1.0 - cdf
    return out


def poisson_tail_table(lam: np.ndarray, t_max: int) -> np.ndarray:
    """Tails of many rates at once: row i is [P(Pois(lam[i]) >= 1), ...,
    P(Pois(lam[i]) >= t_max)], shape ``lam.shape + (t_max,)``.

    The same recursion as ``poisson_tail_block`` (pmf_0 = exp(-lam),
    pmf_k = pmf_{k-1} * lam / k, tail = 1 - running cdf), one array
    operation per threshold, so rows agree with the scalar block up to the
    last-ulp difference between ``np.exp`` and ``math.exp``.  A running cdf
    that rounds above 1 would give a tail of about -2e-16; such entries read
    0, so the table stays a probability and DE rates stay nonnegative.  Once
    exp(-lam) underflows (lam > ~745) every tail reads 1, within rounding of
    the truth while t_max stays well below lam.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if (lam < 0.0).any():
        raise ValueError("Poisson rates must be nonnegative")
    # threshold-major, so each step writes one contiguous row
    out = np.empty((t_max,) + lam.shape)
    if t_max > 0:
        pmf = np.exp(-lam)
        cdf = pmf.copy()
        np.subtract(1.0, cdf, out=out[0])
        for k in range(1, t_max):
            pmf *= lam / k
            cdf += pmf
            np.subtract(1.0, cdf, out=out[k])
        np.maximum(out, 0.0, out=out)
    return np.moveaxis(out, 0, -1)


def initial_loss(t: int, c: float) -> float:
    """Expected correction potential a t-capable component wastes at start.

    A component that can fix t erasures but initially sees i < t of them can
    only ever contribute i corrections in the first round; the shortfall,
    averaged over the Poisson(c) erasure count, is sum_{i<t} pmf(i) * (t-i).
    """
    if t < 1:
        raise ValueError(f"capability must be >= 1, got {t}")
    if c < 0.0:
        raise ValueError(f"effective channel quality must be >= 0, got {c}")
    if c == 0.0:
        return float(t)
    pmf = math.exp(-c)
    total = pmf * t
    for i in range(1, t):
        pmf *= c / i
        total += pmf * (t - i)
    return total


@dataclass(frozen=True)
class CapabilityDistribution:
    """Mixture over erasure-correcting capabilities t = 1..t_max.

    weights[k] is the fraction of components able to correct k+1 erasures.
    Weights must be nonnegative and sum to one (within 1e-12).
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        errs = self.violations()
        if errs:
            raise ValueError("; ".join(errs))

    def violations(self) -> list[str]:
        errs = []
        if len(self.weights) < 1:
            errs.append("capability distribution must have t_max >= 1")
            return errs
        if any(w < 0.0 for w in self.weights):
            errs.append("capability weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            errs.append(
                f"capability weights must sum to 1 (got {sum(self.weights)!r})"
            )
        return errs

    @property
    def t_max(self) -> int:
        return len(self.weights)

    def mean(self) -> float:
        return sum((t + 1) * w for t, w in enumerate(self.weights))

    def support(self) -> list[tuple[int, float]]:
        """(t, weight) pairs with nonzero weight, ascending in t."""
        return [(t + 1, w) for t, w in enumerate(self.weights) if w > 0.0]

    def as_dict(self) -> dict[int, float]:
        return dict(self.support())

    @classmethod
    def point_mass(cls, t: int) -> "CapabilityDistribution":
        if t < 1:
            raise ValueError(f"capability must be >= 1, got {t}")
        return cls(tuple([0.0] * (t - 1) + [1.0]))

    @classmethod
    def uniform(cls, n: int, t_min: int = 1) -> "CapabilityDistribution":
        """Equal weight on each of {t_min, ..., t_min + n - 1}."""
        if n < 1 or t_min < 1:
            raise ValueError("uniform mixture needs n >= 1 and t_min >= 1")
        w = [0.0] * (t_min - 1) + [1.0 / n] * n
        return cls(tuple(w))

    @classmethod
    def from_dict(cls, mapping: Mapping[int, float]) -> "CapabilityDistribution":
        if not mapping:
            raise ValueError("empty capability mapping")
        t_max = max(mapping)
        w = [0.0] * t_max
        for t, weight in mapping.items():
            if t < 1:
                raise ValueError(f"capability must be >= 1, got {t}")
            w[t - 1] = float(weight)
        return cls(tuple(w))


def initial_loss_mixture(tau: CapabilityDistribution, c: float) -> float:
    """Capability-weighted initial loss, sum_t tau_t * initial_loss(t, c)."""
    return sum(w * initial_loss(t, c) for t, w in tau.support())


def tail_integral(t: int, c: float) -> float:
    """Closed form of c * integral_0^1 P(Poisson(c x) >= t) dx.

    Integration by parts collapses the integral to c - t + initial_loss(t, c);
    a quadrature cross-check lives in the test suite.
    """
    if t < 1:
        raise ValueError(f"capability must be >= 1, got {t}")
    if c <= 0.0:
        raise ValueError(f"effective channel quality must be > 0, got {c}")
    return c - t + initial_loss(t, c)


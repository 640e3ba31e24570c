"""Numerically stable Poisson tail evaluation and erasure-capability mixtures.

Every module reads its mixtures as ``CapabilityDistribution``.  The LP rows
read ``poisson_tail_table``, whose running cdf lives in its output buffer, and
the refined bound reads ``initial_loss_mixture``; the functions are kept
branch-light and pure.  DE, the slack and the threshold compute their mixed
tails from ``de._tail_coefficients`` instead: in Horner form, and for the
threshold as pmf sums (``de._tail_sums``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np


def poisson_tail_table(lam: np.ndarray, t_max: int) -> np.ndarray:
    """Tails of many rates at once: row i is [P(Pois(lam[i]) >= 1), ...,
    P(Pois(lam[i]) >= t_max)], shape ``lam.shape + (t_max,)``.

    One running-pmf recursion (pmf_0 = exp(-lam), pmf_k = pmf_{k-1} * lam / k,
    tail = 1 - running cdf) in the threshold-major output, whose row k holds
    lam / k until one multiply and one add per threshold turn it into the cdf;
    1 - cdf and a clamp at 0 over the buffer follow, and a transposed view of
    it is returned.  A running cdf that rounds above 1 would give a tail of about
    -2e-16; the clamp reads it as 0, so the table stays a probability and DE
    rates stay nonnegative.  Once exp(-lam) underflows (lam > ~745) every tail
    reads 1, within rounding of the truth while t_max stays well below lam.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if (lam < 0.0).any():
        raise ValueError("Poisson rates must be nonnegative")
    out = np.empty((t_max,) + lam.shape)
    np.divide(lam, np.arange(1.0, t_max).reshape((-1,) + (1,) * lam.ndim), out=out[1:])
    pmf = np.exp(-lam)
    out[:1] = pmf  # a slice, so t_max = 0 needs no branch
    for k in range(1, t_max):
        pmf *= out[k]
        np.add(out[k - 1], pmf, out=out[k, ...])
    np.subtract(1.0, out, out=out)
    np.maximum(out, 0.0, out=out)
    return out.transpose((*range(1, out.ndim), 0))


def _check_quality(c: float) -> None:
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError(f"effective channel quality must be finite and >= 0, got {c}")


def initial_loss(t: int, c: float) -> float:
    """Expected correction potential a t-capable component wastes at start.

    A component that can fix t erasures but initially sees i < t of them can
    only ever contribute i corrections in the first round; the shortfall,
    averaged over the Poisson(c) erasure count, is sum_{i<t} pmf(i) * (t-i).
    """
    if t < 1:
        raise ValueError(f"capability must be >= 1, got {t}")
    _check_quality(c)
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
    Weights must be nonnegative and sum to one (within 1e-12).  They are
    validated as given, then trailing zero weights are dropped, so t_max is
    the largest capability with positive weight and two mixtures that differ
    only in zero padding compare equal.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if not w:
            raise ValueError("capability distribution must have t_max >= 1")
        errs = []
        if not all(map(math.isfinite, w)):  # NaN passes both checks below
            errs.append("capability weights must be finite")
        if any(x < 0.0 for x in w):
            errs.append("capability weights must be nonnegative")
        if abs(sum(w) - 1.0) > 1e-12:
            errs.append(f"capability weights must sum to 1 (got {sum(w)!r})")
        if errs:
            raise ValueError("; ".join(errs))
        while self.weights[-1] == 0.0:
            object.__setattr__(self, "weights", self.weights[:-1])

    @property
    def t_max(self) -> int:
        return len(self.weights)

    def mean(self) -> float:
        return sum((t + 1) * w for t, w in enumerate(self.weights))

    def support(self) -> list[tuple[int, float]]:
        """(t, weight) pairs with nonzero weight, ascending in t."""
        return [(t + 1, w) for t, w in enumerate(self.weights) if w > 0.0]

    @classmethod
    def point_mass(cls, t: int) -> "CapabilityDistribution":
        if t < 1:
            raise ValueError(f"capability must be >= 1, got {t}")
        return cls(tuple([0.0] * (t - 1) + [1.0]))

    @classmethod
    def uniform(cls, n: int) -> "CapabilityDistribution":
        """Equal weight on each of {1, ..., n}."""
        if n < 1:
            raise ValueError("uniform mixture needs n >= 1")
        return cls(tuple([1.0 / n] * n))

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

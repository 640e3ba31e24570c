"""Test-local scalar Poisson tails: one rate at a time, by a running pmf.

`poisson_tail_block` is the scalar counterpart of
`gpclab.poisson.poisson_tail_table` (same recursion, ``math.exp`` in place
of ``np.exp``), and `poisson_tail` reads one entry of it.  The package used
them for its position-by-position DE step; the tests keep them as the
reference that the table, the LP rows, the contraction slack and the
position-by-position DE loop in ``de_reference`` are compared against.

`tail_integral` is the closed form of c times the integral of
P(Pois(c x) >= t) over x in [0, 1], which the tests check by quadrature.
"""

from __future__ import annotations

import math

from gpclab.poisson import initial_loss

# Beyond this rate exp(-lam) nears underflow, so the block sums the pmf in
# log space instead of by the running product.
_LOG_SPACE_RATE = 600.0


def poisson_tail(t: int, lam: float) -> float:
    """P(X >= t) for X ~ Poisson(lam): entry t of ``poisson_tail_block``."""
    if lam < 0.0:
        raise ValueError(f"Poisson rate must be nonnegative, got {lam}")
    if t <= 0:
        return 1.0
    return poisson_tail_block(t, lam)[t - 1]


def poisson_tail_block(t_max: int, lam: float) -> list[float]:
    """[P(X >= 1), ..., P(X >= t_max)] from a single cumulative pmf pass.

    Shares the running pmf across all thresholds.  Once the running cdf
    rounds to 1 or above, the remaining tails read 0 (1 - cdf would give
    about -1e-16 there), as in ``poisson_tail_table``, and the pass stops.
    Rates beyond 600, where exp(-lam) nears underflow, take each pmf term
    from its logarithm instead, still in one pass.
    """
    if lam < 0.0:
        raise ValueError(f"Poisson rate must be nonnegative, got {lam}")
    if t_max <= 0:
        return []
    if lam == 0.0:
        return [0.0] * t_max
    out = [0.0] * t_max
    if lam > _LOG_SPACE_RATE:
        log_lam, cdf = math.log(lam), 0.0
        for i in range(t_max):
            cdf += math.exp(i * log_lam - lam - math.lgamma(i + 1.0))
            out[i] = max(0.0, 1.0 - cdf)
        return out
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

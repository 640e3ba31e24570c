import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpclab.poisson import (
    CapabilityDistribution,
    initial_loss,
    initial_loss_mixture,
    poisson_tail_table,
)
from conftest import MIX_TBAR7
from poisson_reference import poisson_tail, poisson_tail_block, tail_integral


def mp_pmf(i: int, lam: float) -> float:
    """High-precision reference: lam^i e^-lam / i! at 50 digits."""
    with mpmath.workdps(50):
        lam_mp = mpmath.mpf(lam)
        return float(lam_mp**i * mpmath.e ** (-lam_mp) / mpmath.factorial(i))


def mp_tails(t_max: int, lam: float) -> list[float]:
    """High-precision reference: [P(X >= 1), ..., P(X >= t_max)] at 50 digits."""
    with mpmath.workdps(50):
        lam_mp = mpmath.mpf(lam)
        pmf = mpmath.e ** (-lam_mp)
        cdf, out = pmf, []
        for i in range(1, t_max + 1):
            out.append(float(1 - cdf))
            pmf *= lam_mp / i
            cdf += pmf
        return out


class TestTail:
    def test_tail_from_zero(self):
        assert poisson_tail(0, 7.3) == 1.0

    def test_zero_rate(self):
        assert poisson_tail(1, 0.0) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_tail(1, -2.0)
        with pytest.raises(ValueError):
            poisson_tail_block(3, -0.5)

    def test_complement_of_pmf0(self):
        assert poisson_tail(1, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    @given(
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.0, max_value=60.0),
        st.integers(min_value=0, max_value=50),
    )
    def test_monotone_in_rate(self, lam1, lam2, t):
        lo, hi = sorted((lam1, lam2))
        assert poisson_tail(t, lo) <= poisson_tail(t, hi) + 1e-12

    @given(st.floats(min_value=0.0, max_value=60.0), st.integers(min_value=0, max_value=49))
    def test_monotone_in_threshold(self, lam, t):
        assert poisson_tail(t + 1, lam) <= poisson_tail(t, lam) + 1e-15

    def test_block_matches_scalar(self):
        # rates on both sides of the log-space switch at 600, with thresholds
        # far past the mode there
        cases = [(lam, 12) for lam in (0.0, 0.05, 2.5, 31.0)]
        cases += [(lam, t_max) for lam in (599.0, 650.0, 800.0) for t_max in (700, 1000)]
        for lam, t_max in cases:
            block = poisson_tail_block(t_max, lam)
            exact = mp_tails(t_max, lam)
            assert np.max(np.abs(np.array(block) - exact)) <= 5e-13, (lam, t_max)
            for t in (1, t_max // 2, t_max):
                assert poisson_tail(t, lam) == block[t - 1]

    def test_block_tails_never_negative(self):
        # at small rates the running cdf can round above 1
        for lam in np.geomspace(1e-8, 1e-1, 2000):
            assert min(poisson_tail_block(12, float(lam))) >= 0.0

    def test_scalar_tails_never_negative(self):
        # the same sweep for the scalar tail, at every threshold 2..12
        for lam in np.geomspace(1e-8, 1e-1, 2000):
            assert min(poisson_tail(t, float(lam)) for t in range(2, 13)) >= 0.0

    def test_expectation_identity(self):
        # sum_{i>=0} P(X >= i+1) telescopes to the mean
        for lam in (0.5, 3.0, 12.0):
            total = sum(poisson_tail(i + 1, lam) for i in range(200))
            assert abs(total - lam) < 1e-10


class TestTailTable:
    RATES = (0.0, 1e-6, 0.05, 2.5, 31.0, 650.0)

    @pytest.mark.parametrize("t_max", [1, 2, 4, 11, 50])
    def test_rows_match_block(self, t_max):
        # same recursion; only np.exp vs math.exp (last ulp) may differ,
        # carried along the running cdf
        table = poisson_tail_table(np.array(self.RATES), t_max)
        assert table.shape == (len(self.RATES), t_max)
        for row, lam in zip(table, self.RATES):
            block = np.array(poisson_tail_block(t_max, lam))
            assert np.max(np.abs(row - block)) <= 1e-15

    def test_shape_follows_rates(self):
        lam = np.full((3, 2), 1.5)
        assert poisson_tail_table(lam, 4).shape == (3, 2, 4)
        assert poisson_tail_table(np.array([1.0, 2.0]), 0).shape == (2, 0)

    @pytest.mark.parametrize("lam", [3.0, np.array(3.0)], ids=["float", "0-d"])
    def test_scalar_rate(self, lam):
        table = poisson_tail_table(lam, 4)
        assert table.shape == (4,)
        assert np.array_equal(table, poisson_tail_table(np.array([3.0]), 4)[0])

    def test_tails_never_negative(self):
        # at small rates the running cdf can round above 1
        table = poisson_tail_table(np.geomspace(1e-8, 1e-1, 2000), 12)
        assert (table >= 0.0).all()

    def test_zero_rate_has_no_tail(self):
        assert not poisson_tail_table(np.zeros(4), 6).any()

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_tail_table(np.array([1.0, -0.5]), 3)

    # SHA-256 over the tables of each rate as a 0-d array, of the seven rates
    # as a vector and of a (7, 9) array of rates, pinned from the kernel that
    # kept its running cdf in a buffer of its own: the kernel's IEEE
    # operations and their order must not change
    @pytest.mark.parametrize("t_max, digest", [
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (1, "2d5224b771ec0b588d7eec2fa7ac613fdb1f35f47960f919f73fe8f383342050"),
        (2, "78d6ac54dfe9d7b4e51595435f1196ec59333e1fd2362b2a61f5d0a3e45faa4b"),
        (3, "9e97a55730c4295dd8f2a244a8477b620d7e34da5ccc5161acbaae0d3cec6ae6"),
        (12, "d7ca1ddb8225c87e00ab5532945686c8fb1421b945ffeb845fb367035d4d9a2c"),
        (51, "6731dd0936b6a35d68770720419f46e83a781f9162d8a2f39bb82486492ae26b"),
    ])
    def test_tables_pinned(self, t_max, digest):
        rates = np.array((0.0, 1e-6, 0.05, 2.5, 31.0, 650.0, 800.0))
        h = hashlib.sha256()
        for lam in (*map(np.array, rates), rates, rates[:, None] * (np.arange(1, 10) / 4.0)):
            h.update(poisson_tail_table(lam, t_max).tobytes())
        assert h.hexdigest() == digest


class TestInitialLoss:
    def test_zero_channel(self):
        assert initial_loss(3, 0.0) == 3.0

    @pytest.mark.parametrize("c", [-1.0, math.nan, math.inf, -math.inf])
    def test_bad_quality_rejected(self, c):
        # NaN and +-inf used to return nan: the check of c is the one every
        # other entry point makes
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            initial_loss(3, c)
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            initial_loss_mixture(CapabilityDistribution.uniform(3), c)

    def test_bounds(self):
        for t in (1, 4, 9):
            for c in (0.2, 2.0, 15.0):
                val = initial_loss(t, c)
                assert 0.0 <= val <= t

    def test_term_by_term_oracle(self):
        t, c = 4, 6.8
        direct = sum(mp_pmf(i, c) * (t - i) for i in range(t))
        assert initial_loss(t, c) == pytest.approx(direct, abs=1e-12)

    @given(
        st.integers(min_value=2, max_value=49),
        st.floats(min_value=0.01, max_value=30.0),
    )
    @settings(max_examples=150)
    def test_convexity_identity(self, t, c):
        lhs = initial_loss(t - 1, c) + initial_loss(t + 1, c) - 2.0 * initial_loss(t, c)
        assert lhs == pytest.approx(mp_pmf(t, c), abs=1e-12)

    def test_convexity_identity_pinned_grid(self):
        for c in (0.1, 1.0, 5.0, 20.0):
            for t in range(2, 50):
                lhs = initial_loss(t - 1, c) + initial_loss(t + 1, c) - 2 * initial_loss(t, c)
                assert abs(lhs - mp_pmf(t, c)) < 1e-12

    def test_mixture_point_mass(self):
        assert initial_loss_mixture(CapabilityDistribution.point_mass(5), 0.0) == 5.0

    def test_mixture_uniform_two(self):
        tau = CapabilityDistribution.uniform(2)
        assert initial_loss_mixture(tau, 0.0) == pytest.approx(1.5, abs=1e-15)

    def test_mixture_brute_force(self):
        c = 13.42
        brute = sum(w * initial_loss(t, c) for t, w in MIX_TBAR7.support())
        assert initial_loss_mixture(MIX_TBAR7, c) == pytest.approx(brute, abs=1e-14)

    def test_mixture_at_least_regular(self):
        # convexity: a mixture never loses less than the regular code at floor(mean)
        for tau in (MIX_TBAR7, CapabilityDistribution.uniform(6)):
            for c in (1.0, 5.0, 12.0):
                assert initial_loss_mixture(tau, c) >= initial_loss(
                    int(math.floor(tau.mean())), c
                ) - 1e-12


def simpson_tail_integral(t: int, c: float, panels: int = 10_000) -> float:
    """Composite-Simpson oracle for c * int_0^1 P(Pois(c x) >= t) dx."""
    xs = np.linspace(0.0, 1.0, panels + 1)
    ys = np.array([poisson_tail(t, c * x) for x in xs])
    h = 1.0 / panels
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return c * float((weights * ys).sum()) * h / 3.0


class TestTailIntegral:
    def test_vanishing_limit(self):
        # c -> 0+ with t = 1: both the integral and c - 1 + loss(1, c) vanish
        assert tail_integral(1, 1e-8) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("t,c", [(1, 0.5), (4, 6.8), (7, 11.34)])
    def test_quadrature_agreement(self, t, c):
        assert abs(tail_integral(t, c) - simpson_tail_integral(t, c)) < 1e-8


class TestCapabilityDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CapabilityDistribution((0.5, 0.4))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            CapabilityDistribution((1.5, -0.5))

    @pytest.mark.parametrize("weights", [(0.5, math.nan, 0.5), (0.5, 0.5, math.nan),
                                         (math.nan,)])
    def test_weights_must_be_finite(self, weights):
        # NaN passes both the sign and the sum check
        with pytest.raises(ValueError, match="capability weights must be finite"):
            CapabilityDistribution(weights)

    def test_uniform_mean(self):
        for n in (1, 4, 9):
            assert CapabilityDistribution.uniform(n).mean() == pytest.approx(
                (n + 1) / 2, abs=1e-12
            )

    def test_from_dict_roundtrip(self):
        assert dict(MIX_TBAR7.support()) == {
            1: 0.070, 2: 0.103, 4: 0.115, 5: 0.179, 10: 0.496, 11: 0.037
        }

    def test_point_mass(self):
        pm = CapabilityDistribution.point_mass(7)
        assert pm.mean() == 7.0
        assert pm.support() == [(7, 1.0)]

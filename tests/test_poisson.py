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
    poisson_pmf,
    poisson_tail,
    poisson_tail_block,
    poisson_tail_table,
    tail_integral,
)
from conftest import MIX_TBAR7


def mp_pmf(i: int, lam: float) -> float:
    """High-precision reference: lam^i e^-lam / i! at 50 digits."""
    with mpmath.workdps(50):
        lam_mp = mpmath.mpf(lam)
        return float(lam_mp**i * mpmath.e ** (-lam_mp) / mpmath.factorial(i))


class TestPmf:
    def test_empty_product_case(self):
        assert poisson_pmf(0, 0.0) == 1.0

    def test_single_point(self):
        assert poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_against_high_precision_oracle(self):
        assert poisson_pmf(5, 3.0) == pytest.approx(mp_pmf(5, 3.0), abs=1e-14)

    @pytest.mark.parametrize("i,lam", [(40, 3.0), (5, 60.0), (100, 95.0), (700, 700.0)])
    def test_log_space_path(self, i, lam):
        assert poisson_pmf(i, lam) == pytest.approx(mp_pmf(i, lam), rel=1e-11)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(0, -0.5)
        with pytest.raises(ValueError):
            poisson_tail(1, -2.0)

    def test_pmf_sums_to_one(self):
        # the mass beyond 200 is below 1e-100 for every rate here
        for lam in (0.3, 1.0, 7.7, 25.0):
            total = sum(poisson_pmf(i, lam) for i in range(200))
            assert abs(total - 1.0) < 1e-10


class TestTail:
    def test_tail_from_zero(self):
        assert poisson_tail(0, 7.3) == 1.0

    def test_zero_rate(self):
        assert poisson_tail(1, 0.0) == 0.0

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
        for lam in (0.0, 0.05, 2.5, 31.0):
            block = poisson_tail_block(12, lam)
            for t in range(1, 13):
                assert block[t - 1] == pytest.approx(poisson_tail(t, lam), abs=1e-13)

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

    def test_tails_never_negative(self):
        # at small rates the running cdf can round above 1
        table = poisson_tail_table(np.geomspace(1e-8, 1e-1, 2000), 12)
        assert (table >= 0.0).all()

    def test_zero_rate_has_no_tail(self):
        assert not poisson_tail_table(np.zeros(4), 6).any()

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_tail_table(np.array([1.0, -0.5]), 3)


class TestInitialLoss:
    def test_zero_channel(self):
        assert initial_loss(3, 0.0) == 3.0

    def test_bounds(self):
        for t in (1, 4, 9):
            for c in (0.2, 2.0, 15.0):
                val = initial_loss(t, c)
                assert 0.0 <= val <= t

    def test_term_by_term_oracle(self):
        t, c = 4, 6.8
        direct = sum(poisson_pmf(i, c) * (t - i) for i in range(t))
        assert initial_loss(t, c) == pytest.approx(direct, abs=1e-12)

    @given(
        st.integers(min_value=2, max_value=49),
        st.floats(min_value=0.01, max_value=30.0),
    )
    @settings(max_examples=150)
    def test_convexity_identity(self, t, c):
        lhs = initial_loss(t - 1, c) + initial_loss(t + 1, c) - 2.0 * initial_loss(t, c)
        assert lhs == pytest.approx(poisson_pmf(t, c), abs=1e-12)

    def test_convexity_identity_pinned_grid(self):
        for c in (0.1, 1.0, 5.0, 20.0):
            for t in range(2, 50):
                lhs = initial_loss(t - 1, c) + initial_loss(t + 1, c) - 2 * initial_loss(t, c)
                assert abs(lhs - poisson_pmf(t, c)) < 1e-12

    def test_mixture_point_mass(self):
        assert initial_loss_mixture(CapabilityDistribution.point_mass(5), 0.0) == 5.0

    def test_mixture_uniform_two(self):
        tau = CapabilityDistribution.uniform(2)
        assert initial_loss_mixture(tau, 0.0) == pytest.approx(1.5, abs=1e-15)

    def test_mixture_brute_force(self):
        c = 13.42
        brute = sum(w * initial_loss(t, c) for t, w in MIX_TBAR7.as_dict().items())
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

    def test_uniform_mean(self):
        for n in (1, 4, 9):
            assert CapabilityDistribution.uniform(n).mean() == pytest.approx(
                (n + 1) / 2, abs=1e-12
            )

    def test_from_dict_roundtrip(self):
        assert MIX_TBAR7.as_dict() == {
            1: 0.070, 2: 0.103, 4: 0.115, 5: 0.179, 10: 0.496, 11: 0.037
        }

    def test_point_mass(self):
        pm = CapabilityDistribution.point_mass(7)
        assert pm.mean() == 7.0
        assert pm.support() == [(7, 1.0)]

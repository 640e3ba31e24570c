import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpclab import de, optimizer
from gpclab.codespec import (
    GpcSpec,
    erasure_scaling,
    preset_braided,
    preset_hpc,
    preset_pc,
    preset_staircase,
    spec_from_json,
    spec_to_json,
)
from gpclab.poisson import CapabilityDistribution, initial_loss_mixture, poisson_tail_table
from conftest import (
    BOUNDS_SPECS,
    MIX_TBAR7,
    MIX_TBAR7_MIN4,
    random_mixture,
    random_spec,
    time_limit,
)
from de_reference import (
    END_CAPABILITY_BRACKETS,
    de_step,
    de_step_per_type,
    end_capability_staircase,
    failure_probability,
    one_step,
    reference_de_run,
    reference_success_condition,
    reference_threshold,
)
from poisson_reference import poisson_tail, poisson_tail_block


def typed_ones(spec):
    x = np.zeros((spec.num_positions, spec.t_max))
    for i, dist in enumerate(spec.tau):
        for t, _ in dist.support():
            x[i, t - 1] = 1.0
    return x


def aggregate(spec, x_typed):
    out = np.zeros(spec.num_positions)
    for i, dist in enumerate(spec.tau):
        for t, w in dist.support():
            out[i] += w * x_typed[i, t - 1]
    return out


def mixed_capability_staircase():
    """Staircase whose positions have capability mixtures of different t_max."""
    L = 18
    taus = [MIX_TBAR7, MIX_TBAR7_MIN4, CapabilityDistribution.point_mass(2)]
    return GpcSpec(eta=preset_staircase(L, L, 1).eta, gamma=np.full(L, 1.0 / L),
                   tau=tuple(taus[i % 3] for i in range(L)), n=1800,
                   tau_assignment="random")


class TestDeStep:
    def test_zero_is_absorbing(self):
        spec = preset_hpc(100, 4)
        assert de_step(spec, [0.0], 6.8).tolist() == [0.0]

    def test_first_step_is_plain_tail(self):
        spec = preset_hpc(100, 4)
        assert de_step(spec, [1.0], 6.8)[0] == pytest.approx(
            poisson_tail(4, 6.8), abs=1e-15
        )

    def test_frozen_trajectory_values(self):
        # three iterations at t=4, c=6, pinned against a 40-digit evaluation
        # of the same recursion (independent arithmetic path)
        spec = preset_hpc(100, 4)
        x = np.ones(1)
        for _ in range(3):
            x = de_step(spec, x, 6.0)
        assert x[0] == pytest.approx(0.65542800219111188685, abs=1e-13)
        z = failure_probability(spec, x, 6.0)
        assert z == pytest.approx(0.35799160911094354025, abs=1e-13)

    def test_monotone_in_input(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            L = spec.num_positions
            a = rng.random(L)
            b = np.minimum(a + rng.random(L) * 0.2, 1.0)
            fa = de_step(spec, a, 3.0)
            fb = de_step(spec, b, 3.0)
            assert (fa <= fb + 1e-13).all()

    def test_collapsed_equals_aggregated_per_type(self, rng):
        for _ in range(10):
            spec = random_spec(rng, L_max=3)
            x = np.ones(spec.num_positions)
            xt = typed_ones(spec)
            for _ in range(4):
                x = de_step(spec, x, 2.5)
                xt = de_step_per_type(spec, xt, 2.5)
                assert np.max(np.abs(aggregate(spec, xt) - x)) <= 1e-12

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            de_step(preset_hpc(10, 2), [1.0], -1.0)

    @pytest.mark.parametrize("spec,x", [
        (preset_hpc(100, 4), [0.5, 0.2, 0.1]),
        (preset_hpc(100, 4), [[1.0]]),
        (preset_staircase(6, 36, 3), [1.0] * 5),
        (preset_staircase(6, 36, 3), [1.0] * 7),
    ], ids=["hpc_3", "hpc_1x1", "staircase_5", "staircase_7"])
    def test_wrong_length_rejected(self, spec, x):
        # a single-position step used to read x[0] and drop the rest
        with pytest.raises(ValueError, match="x must have shape"):
            de_step(spec, x, 6.0)
        with pytest.raises(ValueError, match="x must have shape"):
            failure_probability(spec, x, 6.0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_non_finite_c_rejected(self, c):
        spec = preset_hpc(10, 4)
        with pytest.raises(ValueError, match="finite"):
            de_step(spec, [1.0], c)
        with pytest.raises(ValueError, match="finite"):
            failure_probability(spec, [1.0], c)
        with pytest.raises(ValueError, match="finite"):
            de_step_per_type(spec, typed_ones(spec), c)


class TestHornerTails:
    """A DE step evaluates its tau-mixed tails in Horner form; they must agree
    with the tail table mixed by tau, and keep its exact values at lam = 0 and
    where e^-lam underflows."""

    LAMS = (0.0, *np.geomspace(1e-8, 200.0, 40), 800.0, 1e300)

    @staticmethod
    def single_position(tau):
        return GpcSpec(eta=[[1]], gamma=[1.0], tau=(tau,), n=1, tau_assignment="random")

    @pytest.mark.parametrize("t_max", range(1, 65))
    def test_matches_mixed_table(self, rng, t_max):
        tau = random_mixture(rng, t_max)
        spec, w = self.single_position(tau), np.array(tau.weights)
        for lam in self.LAMS:
            # lam = c * x on one position with gamma = 1
            table = poisson_tail_table(min(lam, 800.0), tau.t_max + 1)
            x = de_step(spec, [lam], 1.0)[0]
            z = failure_probability(spec, [lam], 1.0)
            assert abs(x - w @ table[:-1]) <= 1e-14, lam
            assert abs(z - w @ table[1:]) <= 1e-14, lam

    @pytest.mark.parametrize("t_max", range(1, 65))
    def test_negated_rate_is_horner_on_the_rate(self, rng, t_max):
        # the step runs Horner on mu = -lam with the odd-degree coefficients
        # negated: bitwise equal to Horner on lam, and within rounding of the
        # mixed tail table
        tau = random_mixture(rng, t_max)
        spec, w = self.single_position(tau), np.array(tau.weights)
        lam = np.minimum(self.LAMS, de._LAM_CAP)
        rest, inv_fact = de._tail_coefficients(w[None, :])
        tails = []
        for d in (1, 0):  # x, then the failure term
            p = np.zeros(lam.size)
            for a in (rest[0, d : d + tau.t_max + 1] * inv_fact)[::-1]:
                p = p * lam + a
            tails.append(np.maximum(rest[0, 0] - np.exp(-lam) * p, 0.0))
        table = poisson_tail_table(np.minimum(self.LAMS, 800.0), tau.t_max + 1)
        for k, v in enumerate(self.LAMS):
            x, z = one_step(spec, [v], 1.0)
            assert (x[0], z) == (tails[0][k], tails[1][k]), v
            assert abs(x[0] - w @ table[k, :-1]) <= 1e-14, v

    @pytest.mark.parametrize("spec", [
        pytest.param(preset_hpc(1000, MIX_TBAR7, tau_assignment="random"), id="mix_tbar7"),
        pytest.param(preset_hpc(1000, MIX_TBAR7_MIN4, tau_assignment="random"),
                     id="mix_tbar7_min4"),
        pytest.param(mixed_capability_staircase(), id="mixed_staircase"),
    ])
    def test_zero_is_exactly_absorbing(self, spec):
        zeros = np.zeros(spec.num_positions)
        for c in (0.5, 7.0, 40.0):
            assert not de_step(spec, zeros, c).any()
            assert failure_probability(spec, zeros, c) == 0.0


class TestPmfSums:
    """The closed form and the continuation take F = sum_t tau_t P(Pois(lam) >= t),
    F' and F'' as sums of Poisson pmf terms (``de._tail_sums``); against mpmath
    at 50 digits F is within 2e-15 absolute and F', F'' within 1e-13 relative."""

    @staticmethod
    def exact(w, lam):
        """F, F', F'' and the size of the terms of F'', at 50 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            lam, w = mpmath.mpf(float(lam)), [mpmath.mpf(float(v)) for v in w]
            pmf = [mpmath.mpf(0), mpmath.exp(-lam)]  # pmf[k + 1] = P(Pois(lam) = k)
            for k in range(1, len(w)):
                pmf.append(pmf[-1] * lam / k)
            f2 = [v * (pmf[t - 1] - pmf[t]) for t, v in enumerate(w, 1)]
            return (mpmath.fsum(v * (1 - mpmath.fsum(pmf[: t + 1])) for t, v in enumerate(w, 1)),
                    mpmath.fsum(v * pmf[t] for t, v in enumerate(w, 1)),
                    mpmath.fsum(f2), mpmath.fsum(abs(term) for term in f2))

    @staticmethod
    def rows(rng, t_max):
        """A point mass at t_max and two random mixtures, zero-padded to t_max."""
        tau_w = np.zeros((3, t_max))
        tau_w[0, -1] = 1.0
        for row in tau_w[1:]:
            weights = random_mixture(rng, t_max).weights
            row[: len(weights)] = weights
        return tau_w

    def check(self, w, lam, got):
        f, f1, f2, size = self.exact(w, lam)
        assert abs(got[0] - f) <= 2e-15, lam
        if lam == 750.0:  # e^-lam is 0: F reads S, F' and F'' read (about) 0
            assert abs(got[1] - f1) <= 1e-240 and abs(got[2] - f2) <= 1e-240
            return
        assert abs(got[1] - f1) <= 1e-13 * abs(f1), lam
        # F'' changes sign: the size of its terms, not F'' itself, sets its rounding
        assert abs(got[2] - f2) <= 1e-13 * size, lam

    @pytest.mark.parametrize("t_max", [1, 3, 12, 50])
    def test_single_mixture(self, rng, t_max):
        lam = np.append(np.geomspace(1e-2, 2.0 * t_max + 2.0, 25), 750.0)
        for w in self.rows(rng, t_max):
            sums = de._tail_sums(lam, de._pmf_coefficients(w[None, :])[0])
            for k, v in enumerate(lam):
                self.check(w, v, sums[k])

    @pytest.mark.parametrize("t_max", [1, 3, 12, 50])
    def test_per_position_rows(self, rng, t_max):
        tau_w = self.rows(rng, t_max)
        coef = de._pmf_coefficients(tau_w)
        grid = np.append(np.geomspace(1e-2, 2.0 * t_max + 2.0, 25), 750.0)
        for k in range(grid.size):
            lam = grid[[k, (k + 9) % grid.size, (k + 17) % grid.size]]
            for w, v, got in zip(tau_w, lam, de._tail_sums(lam, coef)):
                self.check(w, v, got)

    def test_exact_at_zero_and_finite_far_out(self):
        coef = de._pmf_coefficients(self.rows(np.random.default_rng(0), 12))
        assert not de._tail_sums(np.zeros(3), coef)[:, 0].any()  # F(0) = 0 exactly
        far = de._tail_sums(np.full(3, 1e300), coef)
        assert np.array_equal(far[:, 0], coef[:, 0, -1]) and not far[:, 1:].any()


class TestFailureProbability:
    def test_zero_input(self):
        assert failure_probability(preset_hpc(10, 4), [0.0], 6.8) == 0.0

    def test_first_step(self):
        assert failure_probability(preset_hpc(10, 4), [1.0], 6.8) == pytest.approx(
            poisson_tail(5, 6.8), abs=1e-15
        )

    def test_failure_below_unresolved_fraction(self):
        # for a single position, P(>= t+1 survivors) <= P(>= t survivors)
        spec = preset_hpc(10, 4)
        x = [1.0]
        for _ in range(10):
            z = failure_probability(spec, x, 6.5)
            x_next = de_step(spec, x, 6.5)
            assert z <= x_next[0] + 1e-15
            x = x_next


class TestPerType:
    def test_zero_to_zero(self):
        spec = preset_staircase(4, 16, 2)
        out = de_step_per_type(spec, np.zeros((4, spec.t_max)), 3.0)
        assert not out.any()

    def test_single_type_matches_collapsed(self):
        spec = preset_staircase(4, 16, 3)
        x = np.ones(4)
        xt = typed_ones(spec)
        for _ in range(5):
            x = de_step(spec, x, 4.0)
            xt = de_step_per_type(spec, xt, 4.0)
        assert np.max(np.abs(aggregate(spec, xt) - x)) <= 1e-12

    def test_mixed_capability_hpc(self):
        spec = preset_hpc(1000, MIX_TBAR7, tau_assignment="random")
        x = np.ones(1)
        xt = typed_ones(spec)
        for _ in range(5):
            x = de_step(spec, x, 12.0)
            xt = de_step_per_type(spec, xt, 12.0)
            assert np.max(np.abs(aggregate(spec, xt) - x)) <= 1e-12

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            de_step_per_type(preset_hpc(10, 3), np.ones((2, 3)), 2.0)


class TestDeRun:
    def test_monotone_unscheduled(self, rng):
        for _ in range(15):
            spec = random_spec(rng)
            traj = de.de_run(spec, 2.0, ell_max=40)
            diffs = np.diff(traj.x, axis=0)
            assert (diffs <= 1e-15).all()

    def test_initial_state_is_ones(self):
        traj = de.de_run(preset_hpc(10, 4), 5.0, ell_max=5)
        assert traj.x[0].tolist() == [1.0]
        assert traj.z[0] == 1.0

    def test_subcritical_converges(self):
        traj = de.de_run(preset_hpc(10, 4), 5.0, ell_max=100)
        assert traj.verdict == de.CONVERGED
        assert traj.x[-1, 0] <= 1e-8

    def test_supercritical_sticks(self):
        traj = de.de_run(preset_hpc(10, 4), 7.5, ell_max=5000)
        assert traj.verdict == de.STUCK
        assert traj.x[-1, 0] > 0.1

    def test_bit_error_prediction_below_waterfall(self):
        # at c = 6.5 with 25 iterations the squared unresolved fraction has
        # already dropped out of the visible range
        traj = de.de_run(preset_hpc(1000, 4), 6.5, ell_max=25, success_epsilon=0.0)
        final = float(traj.x[min(25, traj.iterations_run)][0])
        assert final**2 < 1e-2

    def test_zero_channel_converges_immediately(self):
        traj = de.de_run(preset_hpc(10, 4), 0.0, ell_max=10)
        assert traj.verdict == de.CONVERGED
        assert traj.iterations_run == 1
        assert traj.x[-1, 0] == 0.0

    def test_full_schedule_matches_unscheduled(self):
        spec = preset_staircase(5, 25, 2)
        plain = de.de_run(spec, 3.0, ell_max=30)
        sched = de.de_run(spec, 3.0, ell_max=30,
                          schedule=de.full_schedule(5, 30))
        k = min(plain.iterations_run, sched.iterations_run)
        assert np.array_equal(plain.x[: k + 1], sched.x[: k + 1])

    def test_alternating_pc_freezes_other_side(self):
        spec = preset_pc(20, (0.5, 0.5), 3)
        sets = [frozenset({0}), frozenset({1})] * 4
        traj = de.de_run(spec, 4.0, schedule=de.Schedule(tuple(sets)))
        for k, active in enumerate(sets[: traj.iterations_run]):
            frozen = {0, 1} - set(active)
            for i in frozen:
                assert traj.x[k + 1][i] == traj.x[k][i]  # bitwise

    def test_window_freezing_staircase(self):
        spec = preset_staircase(8, 64, 3)
        sched = de.window_schedule(8, width=3, steps_per_slide=2)
        traj = de.de_run(spec, 4.0, schedule=sched)
        for k in range(traj.iterations_run):
            active = sched.active_sets[k]
            for i in set(range(8)) - set(active):
                assert traj.x[k + 1][i] == traj.x[k][i]

    def test_negative_iteration_cap_rejected(self):
        # ell_max = -2 returned a 0-iteration trajectory at the iteration cap
        with pytest.raises(ValueError, match="need ell_max >= 0, got -2"):
            de.de_run(preset_hpc(10, 4), 5.0, ell_max=-2)


class TestNonFiniteQuality:
    """A NaN c used to run DE to the iteration cap."""

    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_run_rejected(self, c):
        with time_limit(10), pytest.raises(ValueError, match="finite"):
            de.de_run(preset_staircase(6, 36, 3), c)


def assert_same_run(vector, scalar):
    assert vector.verdict == scalar.verdict
    assert vector.iterations_run == scalar.iterations_run
    assert np.max(np.abs(vector.x - scalar.x)) <= 1e-12
    assert np.max(np.abs(vector.z - scalar.z)) <= 1e-12


class TestVectorPath:
    """de_run steps every chain as arrays over one tail table; the
    position-by-position loop of ``de_reference`` must reach the same run,
    up to rounding."""

    @staticmethod
    def both_paths(spec, c, **kwargs):
        vector = de.de_run(spec, c, **kwargs)
        assert_same_run(vector, reference_de_run(spec, c, **kwargs))
        return vector

    @pytest.mark.parametrize("c_norm,verdict", [(5.0, de.CONVERGED), (6.0, de.STUCK)])
    def test_staircase(self, c_norm, verdict):
        spec = preset_staircase(20, 200, 3)
        traj = self.both_paths(spec, c_norm * erasure_scaling(spec))
        assert traj.verdict == verdict

    @pytest.mark.parametrize("c_norm,verdict", [(5.0, de.CONVERGED), (6.0, de.STUCK)])
    def test_braided(self, c_norm, verdict):
        spec = preset_braided(20, 200, 3)
        traj = self.both_paths(spec, c_norm * erasure_scaling(spec))
        assert traj.verdict == verdict

    def test_window_schedule(self):
        spec = preset_staircase(20, 200, 3)
        sched = de.window_schedule(20, width=5, steps_per_slide=4)
        traj = self.both_paths(spec, 5.4 * erasure_scaling(spec), schedule=sched)
        assert traj.iterations_run == len(sched)
        for k, active in enumerate(sched.active_sets):
            frozen = sorted(set(range(20)) - active)
            assert np.array_equal(traj.x[k + 1][frozen], traj.x[k][frozen])

    def test_mixed_capabilities(self):
        spec = mixed_capability_staircase()
        for c_norm in (7.0, 12.0):
            self.both_paths(spec, c_norm * erasure_scaling(spec), ell_max=500)

    @pytest.mark.parametrize("spec,c,verdict,kwargs", [
        pytest.param(preset_hpc(100, 4), 6.0, de.CONVERGED, {}, id="hpc_t4_c6"),
        pytest.param(preset_hpc(100, 4), 7.0, de.STUCK, {}, id="hpc_t4_c7"),
        pytest.param(preset_pc(1000, (0.25, 0.75), 3), 12.0, de.CONVERGED, {},
                     id="pc_split_c12"),
        pytest.param(preset_pc(1000, (0.25, 0.75), 3), 13.0, de.STUCK, {},
                     id="pc_split_c13"),
        pytest.param(preset_pc(1000, t_row=3, t_col=4), 11.5, de.CONVERGED, {},
                     id="pc_t3_t4_c11.5"),
        pytest.param(preset_pc(1000, t_row=3, t_col=4), 12.5, de.STUCK, {},
                     id="pc_t3_t4_c12.5"),
        pytest.param(preset_staircase(6, 36, 3), 16.0, de.CONVERGED, {},
                     id="staircase6_c16"),
        pytest.param(preset_staircase(6, 36, 3), 20.0, de.STUCK, {},
                     id="staircase6_c20"),
        pytest.param(preset_staircase(6, 36, 3), 16.0, de.ITERATION_CAP,
                     {"schedule": de.window_schedule(6, width=3, steps_per_slide=4)},
                     id="staircase6_window"),
        pytest.param(preset_pc(20, (0.5, 0.5), 3), 4.0, de.CONVERGED,
                     {"schedule": de.Schedule((frozenset({0}), frozenset({1})) * 4)},
                     id="alternating_pc"),
    ])
    def test_short_chain(self, spec, c, verdict, kwargs):
        # chains below 16 positions, once stepped only position by position
        traj = self.both_paths(spec, c, **kwargs)
        assert traj.verdict == verdict


class TestCoupledRuns:
    """Long L = 200 chains keep their verdicts and iteration counts; a
    staircase, whose neighbour sums add two terms, keeps its final z bitwise,
    and a braided chain, which adds three, to rounding."""

    # (final z, tolerance)
    FINAL_Z = {
        (preset_staircase, 5.4): (1.0339618050636546e-13, 0.0),
        (preset_staircase, 5.6): (1.5876189252139735e-16, 0.0),
        (preset_staircase, 6.0): (0.7876532251051086, 0.0),
        (preset_braided, 5.5): (0.0, 1e-14),
        (preset_braided, 6.0): (0.7853669067862823, 1e-14),
    }

    @pytest.mark.parametrize("preset,c_norm,verdict,iterations", [
        (preset_staircase, 5.4, de.CONVERGED, 609),
        (preset_staircase, 5.6, de.CONVERGED, 1743),
        (preset_staircase, 6.0, de.STUCK, 97),
        (preset_braided, 5.5, de.CONVERGED, 607),
        (preset_braided, 6.0, de.STUCK, 96),
    ])
    def test_unscheduled(self, preset, c_norm, verdict, iterations):
        spec = preset(200, 2000, 3)
        traj = de.de_run(spec, c_norm * erasure_scaling(spec))
        assert (traj.verdict, traj.iterations_run) == (verdict, iterations)
        final_z, tol = self.FINAL_Z[preset, c_norm]
        assert abs(traj.final_z - final_z) <= tol

    def test_window(self):
        spec = preset_staircase(200, 2000, 3)
        sched = de.window_schedule(200, 20, 10)
        traj = de.de_run(spec, 5.4 * erasure_scaling(spec), schedule=sched)
        assert (traj.verdict, traj.iterations_run) == (de.ITERATION_CAP, 1810)
        assert traj.final_z == 0.00015368410854541543
        frozen = np.ones((len(sched), 200), dtype=bool)
        for k, active in enumerate(sched.active_sets):
            frozen[k, list(active)] = False
        assert np.array_equal(traj.x[1:][frozen], traj.x[:-1][frozen])


class TestBlockBoundaries:
    """de_run checks its stopping rules once per block of ``de._BLOCK``
    iterations and cuts the trajectory at the first iteration that meets one;
    runs must match the iteration-by-iteration reference wherever they end."""

    both_paths = staticmethod(TestVectorPath.both_paths)

    @pytest.mark.parametrize("ell_max", [0, 1, de._BLOCK - 1, de._BLOCK, de._BLOCK + 1,
                                         2 * de._BLOCK + 1])
    def test_iteration_cap(self, monkeypatch, ell_max):
        # 6.0 is above the threshold and the tolerance 0 never stalls: the cap ends every run
        spec = preset_staircase(6, 36, 3)
        c = 6.0 * erasure_scaling(spec)
        monkeypatch.setattr(de, "DEFAULT_X_TOLERANCE", 0.0)
        with time_limit(20):
            traj = de.de_run(spec, c, ell_max=ell_max)
            assert_same_run(traj, reference_de_run(spec, c, ell_max=ell_max, x_tolerance=0.0))
        assert (traj.verdict, traj.iterations_run) == (de.ITERATION_CAP, ell_max)
        assert traj.x.shape == (ell_max + 1, 6) and traj.z.shape == (ell_max + 1,)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_cap_around_the_stall(self, offset):
        # the cap one before, at and one after the iteration where the run stalls
        spec = preset_hpc(100, 4)
        stall = de.de_run(spec, 7.0).iterations_run
        traj = self.both_paths(spec, 7.0, ell_max=stall + offset)
        assert traj.iterations_run == min(stall, stall + offset)

    @pytest.mark.parametrize("c_norm", [5.9, 6.0, 6.2, 7.0, 9.0])
    def test_stuck_mid_block(self, c_norm):
        spec = preset_braided(8, 800, 3)
        traj = self.both_paths(spec, c_norm * erasure_scaling(spec))
        assert traj.verdict == de.STUCK

    def test_stops_at_every_offset_in_a_block(self):
        # stalls and convergences landing on every residue mod _BLOCK
        spec, ends = preset_staircase(6, 36, 3), set()
        for c in np.linspace(10.0, 30.0, 60):
            ends.add(self.both_paths(spec, c).iterations_run % de._BLOCK)
        assert ends == set(range(de._BLOCK))

    def test_window_not_a_multiple_of_the_block(self):
        spec = preset_staircase(12, 120, 3)
        sched = de.window_schedule(12, width=4, steps_per_slide=3)
        assert len(sched) % de._BLOCK != 0
        traj = self.both_paths(spec, 5.4 * erasure_scaling(spec), schedule=sched)
        assert (traj.verdict, traj.iterations_run) == (de.ITERATION_CAP, len(sched))
        for k, active in enumerate(sched.active_sets):
            frozen = sorted(set(range(12)) - active)
            assert traj.x[k + 1][frozen].tobytes() == traj.x[k][frozen].tobytes()

    def test_zero_success_epsilon(self):
        # only an exact 0 converges: HPC t = 4 at c = 6 reaches it
        spec = preset_hpc(1000, 4)
        traj = self.both_paths(spec, 6.0, success_epsilon=0.0)
        assert traj.verdict == de.CONVERGED and traj.x[-1, 0] == 0.0

    def test_zero_channel(self):
        spec = preset_braided(8, 800, 3)
        traj = self.both_paths(spec, 0.0)
        assert (traj.verdict, traj.iterations_run) == (de.CONVERGED, 1)
        assert not traj.x[-1].any() and traj.final_z == 0.0


class TestPaddedCapabilities:
    """Zero weights past a mixture's support are dropped when it is built: the
    c = 13.4 design padded to t = 50 is the design trimmed to its support, so
    it gives the same bracket, the same DE trajectory and the same spec JSON."""

    @staticmethod
    def padded_design():
        trimmed = _designed_mixture(13.4, 1)
        padded = CapabilityDistribution(trimmed.weights + (0.0,) * (50 - trimmed.t_max))
        assert padded == trimmed and padded.weights == trimmed.weights
        assert padded.t_max == trimmed.t_max == 11
        return trimmed, padded

    @classmethod
    def both(cls, make):
        trimmed, padded = cls.padded_design()
        return make(trimmed), make(padded)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda tau: preset_hpc(1000, tau, tau_assignment="random"), id="hpc"),
        pytest.param(lambda tau: GpcSpec(eta=np.array([[0, 1], [1, 0]]),
                                         gamma=np.array([0.4, 0.6]), tau=(tau, tau),
                                         n=1000, tau_assignment="random"), id="pc_uneven"),
    ])
    def test_same_threshold(self, make):
        trimmed, padded = self.both(make)
        a, b = de.threshold(trimmed), de.threshold(padded)
        assert (a.c_star, a.bracket_lo) == (b.c_star, b.bracket_lo)

    def test_same_trajectory(self):
        trimmed, padded = self.both(
            lambda tau: GpcSpec(eta=preset_staircase(6, 6, 1).eta, gamma=np.full(6, 1.0 / 6),
                                tau=(tau,) * 6, n=600, tau_assignment="random"))
        for c in (40.0, 60.0):
            a, b = de.de_run(trimmed, c), de.de_run(padded, c)
            assert (a.verdict, a.iterations_run) == (b.verdict, b.iterations_run)
            assert a.x.tobytes() == b.x.tobytes() and a.z.tobytes() == b.z.tobytes()

    @pytest.mark.parametrize("padded", ["t2_to_t4", "design_to_t50"])
    def test_spec_json_round_trip(self, padded):
        # JSON lists only positive weights: a padded mixture used to come back
        # with a smaller t_max and a tau that compared unequal
        tau = (CapabilityDistribution((0.5, 0.5, 0.0, 0.0)) if padded == "t2_to_t4"
               else self.padded_design()[1])
        spec = preset_hpc(1000, tau, tau_assignment="random")
        back = spec_from_json(spec_to_json(spec))
        assert back.tau == spec.tau and back.t_max == spec.t_max == tau.t_max

    def test_padding_only_irregular_spec_takes_closed_form(self, monkeypatch):
        # positions whose mixtures differ only in zero padding are one
        # mixture: the spec is position-regular and runs no DE
        trimmed, padded = self.padded_design()
        spec = GpcSpec(eta=np.array([[0, 1], [1, 0]]), gamma=np.array([0.5, 0.5]),
                       tau=(trimmed, padded), n=1000, tau_assignment="random")

        def no_de(*args, **kwargs):
            raise AssertionError("de._blocks called")

        monkeypatch.setattr(de, "_blocks", no_de)
        res = de.threshold(spec)
        hpc = de.threshold(preset_hpc(1000, trimmed, tau_assignment="random"))
        assert (res.c_star, res.bracket_lo) == (2.0 * hpc.c_star, 2.0 * hpc.bracket_lo)  # s = 1/2


class TestSchedule:
    def test_union_must_cover(self):
        spec = preset_pc(10, (0.5, 0.5), 2)
        with pytest.raises(ValueError):
            de.de_run(spec, 2.0, schedule=de.Schedule((frozenset({0}),)))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            de.Schedule((frozenset(),))

    def test_window_covers(self):
        assert de.window_schedule(10, 4, 3).covers(10)

    def test_window_params_checked(self):
        with pytest.raises(ValueError):
            de.window_schedule(5, 6, 1)

    def test_full_schedule_holds_one_set(self):
        # one set object, held once per step: a set per step is about 960 MB here
        tracemalloc.start()
        try:
            schedule = de.full_schedule(800, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len({id(s) for s in schedule.active_sets}) == 1
        assert len(schedule) == 20000 and schedule.covers(800)
        assert peak < 1e6


class TestThreshold:
    def test_hpc_t4(self):
        res = de.threshold(preset_hpc(100, 4))
        assert abs(res.c_star - 6.8) <= 0.1
        assert res.bracket_width <= 0.01

    def test_bracket_contains_c_star(self):
        res = de.threshold(preset_hpc(100, 3), bracket_tol=0.05)
        assert res.bracket_lo <= (res.bracket_lo + res.bracket_hi) / 2 <= res.c_star
        assert res.c_star == res.bracket_hi

    @pytest.mark.parametrize("spec,expected", [
        (preset_staircase(6, 36, 3), 4.97),
        (preset_braided(8, 800, 3), 5.08),
    ])
    def test_coupled_normalized_threshold(self, spec, expected):
        # raw thresholds of coupled chains are about erasure_scaling times
        # their normalized ones
        res = de.threshold(spec)
        assert res.c_star / erasure_scaling(spec) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("tol", [0.0, -0.01, float("nan"), float("inf")])
    def test_nonpositive_tolerance_rejected(self, tol):
        # inf was taken: the staircase(6, 36, 3) fold came back unrefined,
        # with bracket_lo = 0.0
        with pytest.raises(ValueError, match="bracket_tol"):
            de.threshold(preset_hpc(100, 3), bracket_tol=tol)

    def test_tolerance_below_float_spacing_stops(self):
        # 1e-17 is below the spacing of floats near c*: the turn refinement
        # must stop once its chord is too short to split, and the closed
        # form needs no refinement
        for spec in (preset_hpc(100, 3), preset_staircase(6, 36, 3)):
            with time_limit(20):
                res = de.threshold(spec, bracket_tol=1e-17)
            coarse = de.threshold(spec, bracket_tol=0.01)
            assert res.bracket_lo <= res.bracket_hi
            assert res.bracket_lo <= coarse.c_star and coarse.bracket_lo <= res.c_star

    def test_no_bracket_error(self, monkeypatch):
        # the fold search needs DE to stall at its start; a start below the
        # threshold (here c = 1 on a chain of capability-1 codes) raises
        monkeypatch.setattr(de, "upper_bound", lambda spec: 1.0)
        with pytest.raises(de.BracketError, match="does not stall"):
            de.threshold(preset_staircase(4, 16, 1))

    def test_pittel_sanity(self):
        # regular families: the margin c* - t grows with t, and c* < 2t
        stars = {t: de.threshold(preset_hpc(100, t), bracket_tol=0.02).c_star
                 for t in range(2, 9)}
        margins = [stars[t] - t for t in range(2, 9)]
        assert all(np.diff(margins) > 0)
        assert all(stars[t] < 2 * t for t in range(2, 9))


def _single_position_corpus():
    rng = np.random.default_rng(8)
    dists = [(f"uniform_{n}", CapabilityDistribution.uniform(n)) for n in (4, 8, 12)]
    dists += [("mix_tbar7", MIX_TBAR7), ("mix_tbar7_min4", MIX_TBAR7_MIN4)]
    dists += [(f"point_{t}", CapabilityDistribution.point_mass(t)) for t in (1, 3, 6)]
    dists += [(f"random_{k}", random_mixture(rng, int(rng.integers(2, 13))))
              for k in range(22)]
    params = [pytest.param(dist, 0.005, id=name) for name, dist in dists]
    # a finer tolerance, where the reference bisection tests c closer to c*
    fine = [("mix_tbar7", MIX_TBAR7),
            ("two_five_nine", CapabilityDistribution.from_dict({2: 5 / 9, 5: 1 / 9, 9: 3 / 9}))]
    return params + [pytest.param(dist, 1e-3, id=f"{name}_tol1e-3") for name, dist in fine]


# DE-run cap of the reference bisection: no run in the comparisons below hits
# it, except just above a stability limit (see the single-position test)
REFERENCE_CAP = 200000


def assert_brackets_meet(fold, ref):
    assert fold.bracket_lo <= ref.hi and ref.lo <= fold.bracket_hi, (fold, ref)


class TestSinglePositionClassifier:
    """threshold gives single-position specs the closed form; the bracket it
    reports must meet the bracket of the DE-run bisection in ``de_reference``."""

    @pytest.mark.parametrize("dist,tol", _single_position_corpus())
    def test_matches_de_reference(self, dist, tol):
        spec = preset_hpc(1000, dist, tau_assignment="random")
        fold = de.threshold(spec, bracket_tol=tol)
        ref = reference_threshold(spec, bracket_tol=tol, ell_max=REFERENCE_CAP)
        assert_brackets_meet(fold, ref)
        if ref.capped_runs:
            # a run just above the stability limit 1/tau_1 creeps towards its
            # fixed point near x = 0 for millions of iterations (random_18 at
            # c = 3.2503, 3e-4 above 3.25); the slack settles such a run
            assert fold.c_star == pytest.approx(1.0 / dist.weights[0], rel=1e-8)

    def test_runs_no_de(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("single-position threshold ran DE")

        monkeypatch.setattr(de, "_blocks", no_run)
        assert abs(de.threshold(preset_hpc(100, 4)).c_star - 6.8) <= 0.1

    def test_stability_edge(self):
        # c * tau_1 <= 1 binds here: the threshold is 1 / tau_1 = 10 exactly,
        # and the bracket must hold it with c_star above.  At c = 10.00004 DE
        # is still at x = 1e-5 after 20000 iterations, above a fixed point
        # near 8e-7
        dist = CapabilityDistribution.from_dict({1: 0.1, 12: 0.9})
        res = de.threshold(preset_hpc(1000, dist, tau_assignment="random"),
                           bracket_tol=1e-4)
        assert res.bracket_lo <= 10.0 < res.c_star


def _cycle_spec(L, n, t):
    eta = np.zeros((L, L), dtype=np.int64)
    for i in range(L):
        eta[i, (i + 1) % L] = eta[(i + 1) % L, i] = 1
    tau = (CapabilityDistribution.point_mass(t),) * L
    return GpcSpec(eta=eta, gamma=np.full(L, 1.0 / L), tau=tau, n=n)


class TestRegularSpecs:
    """threshold gives position-regular specs (same tau, same
    s = sum_j eta_ij gamma_j) the closed form at c * s."""

    @pytest.mark.parametrize("spec", [
        pytest.param(preset_pc(1000, t_row=t), id=f"pc_t{t}") for t in (3, 5, 7)
    ] + [
        pytest.param(preset_braided(4, 1000, t), id=f"braided4_t{t}") for t in (3, 5)
    ])
    def test_matches_de_reference(self, spec):
        ref = reference_threshold(spec, bracket_tol=0.005, ell_max=REFERENCE_CAP)
        assert ref.capped_runs == 0
        assert_brackets_meet(de.threshold(spec, bracket_tol=0.005), ref)

    @pytest.mark.parametrize("t", [3, 4, 7])
    def test_product_code_is_twice_half_product(self, t):
        # s = 1/2 doubles the closed form exactly
        hpc = de.threshold(preset_hpc(100, t))
        pc = de.threshold(preset_pc(100, t_row=t))
        assert (pc.c_star, pc.bracket_lo, pc.bracket_hi) == (
            2 * hpc.c_star, 2 * hpc.bracket_lo, 2 * hpc.bracket_hi)

    @pytest.mark.parametrize("spec,expected", [
        (preset_pc(100, t_row=4), 2 * 6.8),
        (preset_braided(4, 1000, 3), 10.30),
        (_cycle_spec(6, 60, 3), 3 * 5.152),  # s = 1/3
    ])
    def test_runs_no_de(self, monkeypatch, spec, expected):
        def no_run(*args, **kwargs):
            raise AssertionError("position-regular threshold ran DE")

        monkeypatch.setattr(de, "_blocks", no_run)
        assert de.threshold(spec).c_star == pytest.approx(expected, abs=0.2)

    @pytest.mark.parametrize("spec", [
        pytest.param(preset_pc(100, t_row=3, t_col=4), id="pc_t3_t4"),
        pytest.param(preset_pc(100, split=(0.25, 0.75)), id="pc_uneven_split"),
        pytest.param(preset_staircase(6, 36, 3), id="staircase6"),
    ])
    def test_others_run_de(self, monkeypatch, spec):
        # every DE run, de_run's and the fold's, steps through de._blocks
        calls = []
        real_run = de._blocks

        def counted_run(*args, **kwargs):
            calls.append(args[1])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(de, "_blocks", counted_run)
        de.threshold(spec, bracket_tol=0.1)
        assert calls


# A mixture whose lam / F(lam) has two local minima below the counting bound:
# DE stalls near x = 0.8 down to c = 26.23, then on a lower plateau near
# x = 0.35 down to the threshold 19.61.  On a product code with an uneven
# split it is not position-regular, so threshold follows its branches.
TWO_PLATEAUS = CapabilityDistribution.from_dict({2: 0.35, 9: 0.65})


def _two_plateau_spec():
    return GpcSpec(eta=np.array([[0, 1], [1, 0]]), gamma=np.array([0.4, 0.6]),
                   tau=(TWO_PLATEAUS, TWO_PLATEAUS), n=1000, tau_assignment="random")


class TestFold:
    """Specs that are not position-regular follow the branch of DE fixed
    points from a DE stall down to its fold."""

    @pytest.mark.parametrize("spec", [
        pytest.param(preset_pc(1000, (0.25, 0.75), 3), id="pc_uneven_split"),
        pytest.param(preset_pc(1000, t_row=3, t_col=4), id="pc_t3_t4"),
        pytest.param(preset_staircase(6, 36, 3), id="staircase6"),
        pytest.param(preset_braided(6, 1200, 3), id="braided6"),
        pytest.param(preset_braided(8, 1000, 3), id="braided8"),
        pytest.param(_two_plateau_spec(), id="two_plateaus"),
    ])
    def test_matches_de_reference(self, spec):
        fold = de.threshold(spec, bracket_tol=0.005)
        ref = reference_threshold(spec, bracket_tol=0.005, ell_max=REFERENCE_CAP)
        assert ref.capped_runs == 0
        assert fold.bracket_width <= 0.005
        assert_brackets_meet(fold, ref)

    def test_two_plateaus(self):
        spec = _two_plateau_spec()
        upper = de.de_run(spec, 26.5)
        lower = de.de_run(spec, 26.0)
        assert upper.verdict == lower.verdict == de.STUCK
        assert upper.x[-1].max() > 0.8 and 0.3 < lower.x[-1].max() < 0.5
        # the threshold lies below the first fold, on the lower plateau
        assert 19.5 < de.threshold(spec, bracket_tol=0.005).c_star < 19.7

    @pytest.mark.parametrize("spec", [
        pytest.param(preset_hpc(100, 4), id="hpc_t4"),
        pytest.param(preset_hpc(1000, MIX_TBAR7, tau_assignment="random"), id="hpc_mix"),
        pytest.param(preset_pc(1000, t_row=3), id="pc_t3"),
        pytest.param(preset_braided(4, 1000, 3), id="braided4_t3"),
    ])
    def test_continuation_matches_closed_form(self, spec):
        tol = 0.005
        lo, hi = de._fold(spec, tol)
        exact = de.threshold(spec, bracket_tol=tol)
        assert hi - lo <= tol
        assert lo <= exact.bracket_hi and exact.bracket_lo <= hi

    def test_long_staircase_not_under_reported(self):
        # DE converges at c = 287.6279 after 46336 iterations, so c* is above
        # it; a bisection that counted 20000-iteration runs as failures
        # reported 287.4762
        # the check run below the fold keeps no trajectory: 20000 iterations
        # of 100 positions would hold 16 MB
        tracemalloc.start()
        try:
            with time_limit(30):
                res = de.threshold(preset_staircase(100, 600, 3), bracket_tol=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 287.6279 <= res.c_star <= 287.8147
        assert res.bracket_width <= 0.01
        assert peak < 4e6

    @pytest.mark.parametrize("tol", [0.01, 0.001])
    @pytest.mark.parametrize("key", END_CAPABILITY_BRACKETS, ids=lambda k: "L{}-k{}-t{}".format(*k))
    def test_end_positions_decoding_first(self, key, tol):
        # the end positions reach x of 1e-16 and below while the interior
        # sits near 0.88; the predictor pushed one below 0 and the
        # continuation stalled on three of the L = 20 specs, at c = 57.5619,
        # 58.1780 and 61.2314.  Decoded positions now leave the unknowns.
        res = de.threshold(end_capability_staircase(*key), bracket_tol=tol)
        lo, hi = END_CAPABILITY_BRACKETS[key]
        assert math.isfinite(res.bracket_lo) and res.bracket_lo <= res.bracket_hi
        assert res.bracket_width <= tol
        assert res.bracket_lo <= hi and lo <= res.bracket_hi

    def test_branch_ending_at_zero(self):
        # with tau_1 > 0 on an uneven product code the branch reaches x = 0
        # at the stability limit c tau_1 sqrt(gamma_1 gamma_2) = 1
        uniform = CapabilityDistribution.uniform(4)
        spec = GpcSpec(eta=np.array([[0, 1], [1, 0]]), gamma=np.array([0.4, 0.6]),
                       tau=(uniform, uniform), n=1000, tau_assignment="random")
        res = de.threshold(spec)
        assert res.c_star == pytest.approx(4.0 / np.sqrt(0.24), rel=1e-8)
        assert res.bracket_lo < 4.0 / np.sqrt(0.24) < res.c_star


def _exact_minimum(tau):
    """min(1/tau_1, min over lam of lam / F(lam)) at 30 digits: the minimum on
    a float grid, refined by a root of F - lam F' in mpmath."""
    mpmath = pytest.importorskip("mpmath")

    def f(lam):  # P(Pois(lam) >= t) = P(Gamma(t, 1) <= lam)
        return sum(w * mpmath.gammainc(t, 0, lam, regularized=True) for t, w in tau.support())

    def df(lam):  # dP(Pois(lam) >= t)/dlam = P(Pois(lam) = t - 1)
        return sum(w * mpmath.exp(-lam) * lam ** (t - 1) / mpmath.factorial(t - 1)
                   for t, w in tau.support())

    with mpmath.workdps(30):
        grid = [mpmath.mpf(lam) for lam in np.geomspace(1e-2, 2.0 * tau.t_max + 2.0, 400)]
        ratios = [lam / f(lam) for lam in grid]
        k = int(np.argmin([float(r) for r in ratios]))
        best = ratios[k]
        if 0 < k < len(grid) - 1:
            root = mpmath.findroot(lambda lam: f(lam) - lam * df(lam),
                                   (grid[k - 1], grid[k + 1]), solver="anderson")
            best = min(best, root / f(root))
        if tau.weights[0] > 0.0:
            best = min(best, 1 / mpmath.mpf(tau.weights[0]))
        return best


class TestClosedForm:
    @pytest.mark.parametrize("dist", [
        pytest.param(CapabilityDistribution.point_mass(4), id="point_4"),
        pytest.param(MIX_TBAR7, id="mix_tbar7"),
        pytest.param(MIX_TBAR7_MIN4, id="mix_tbar7_min4"),
        pytest.param(CapabilityDistribution.uniform(12), id="uniform_12"),
        pytest.param(TWO_PLATEAUS, id="two_plateaus"),
    ])
    def test_brackets_exact_minimum(self, dist):
        res = de.threshold(preset_hpc(1000, dist, tau_assignment="random"))
        exact = _exact_minimum(dist)
        assert res.bracket_lo <= exact <= res.c_star
        assert res.bracket_width <= 3e-9 * res.c_star

    def test_benchmark_families_pinned(self):
        # the threshold table of the benchmark: HPC t = 3..8, the two
        # reference mixtures, PC and braided L = 4 (t = 3, 5, 7 and 3, 5)
        # and uniform mixtures of 4, 8 and 12, bit for bit; four moved (by at
        # most 5.9e-14 relative) when the closed form's tails became pmf sums,
        # and stay within 1e-13 of their earlier values
        specs = [preset_hpc(1000, t) for t in range(3, 9)]
        specs += [preset_hpc(1000, mix, tau_assignment="random")
                  for mix in (MIX_TBAR7, MIX_TBAR7_MIN4)]
        specs += [preset_pc(1000, t_row=t) for t in (3, 5, 7)]
        specs += [preset_braided(4, 1000, t) for t in (3, 5)]
        specs += [preset_hpc(1000, CapabilityDistribution.uniform(n), tau_assignment="random")
                  for n in (4, 8, 12)]
        results = [de.threshold(s, 0.005) for s in specs]
        pairs = [repr((r.c_star, r.bracket_lo)) for r in results]
        assert pairs == [
            "(5.149402752135857, 5.149402741837051)", "(6.799275495417361, 6.79927548181881)",
            "(8.365340778413044, 8.365340761682361)", "(9.875290734719192, 9.87529071496861)",
            "(11.34412890883422, 11.344128886145961)", "(12.781099708780648, 12.781099683218448)",
            "(13.408711410691053, 13.40871138387363)", "(12.88729891726416, 12.88729889148956)",
            "(10.298805504271714, 10.298805483674101)", "(16.730681556826088, 16.730681523364723)",
            "(22.68825781766844, 22.688257772291923)", "(10.298805504271714, 10.298805483674101)",
            "(16.730681556826088, 16.730681523364723)", "(4.000000004, 3.999999996)",
            "(8.000000007999304, 7.999999991999305)", "(12.000000011998166, 11.999999987998166)",
        ]
        earlier = {6: (13.408711410691057, 13.408711383873634),
                   7: (12.887298917264161, 12.887298891489563),
                   14: (8.000000007999017, 7.999999991999016),
                   15: (12.000000011997455, 11.999999987997455)}
        for k, pair in earlier.items():
            assert (results[k].c_star, results[k].bracket_lo) == pytest.approx(pair, rel=1e-13, abs=0.0)

    def test_newton_evaluates_no_point_twice(self, monkeypatch):
        # Newton stops once a step leaves lam unchanged; on HPC t = 5 and 8
        # the step is exactly 0 before the fifth, and the steps after it
        # evaluated the same point again
        tail_sums, points = de._tail_sums, []

        def record(lam, coef):
            if np.ndim(lam) == 0:  # a Newton evaluation, not the grid
                points.append(float(lam))
            return tail_sums(lam, coef)

        monkeypatch.setattr(de, "_tail_sums", record)
        for t in (5, 8):
            points.clear()
            de.threshold(preset_hpc(1000, t))
            assert points and len(set(points)) == len(points)

    def test_lambda_grid_cached_read_only(self):
        # one grid and its pmf table per capability range, shared by every
        # threshold on it
        grid = de._grid(12)
        assert grid is de._grid(12)
        lam, pmf = grid
        assert not lam.flags.writeable and not pmf.flags.writeable
        assert np.array_equal(lam, np.geomspace(de._LAM_MIN, 26.0, de._LAM_POINTS))
        for array in grid:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_grid_pmf_is_tail_sums_own_pmf(self):
        # the closed form reads F on its grid from the cached pmf table; an
        # identity coefficient row picks out each pmf term of ``_tail_sums``
        for t_max in (1, 4, 12, 50):
            lam, pmf = de._grid(t_max)
            want = de._tail_sums(lam, np.eye(t_max + 1))
            assert pmf.shape == want.shape and np.array_equal(pmf, want)

    def test_fold_pinned(self):
        # the README staircase goes through the continuation, whose Jacobian
        # reads the same pmf sums as the closed form; the bracket moved by 1-2
        # ulp when they replaced tail differences
        lo, hi = de._fold(preset_staircase(6, 36, 3), 0.005)
        assert (repr(float(lo)), repr(float(hi))) == ("17.872779899383495", "17.875279899383496")
        assert (lo, hi) == pytest.approx((17.87277989938349, 17.875279899383493), rel=1e-13, abs=0.0)


class TestBounds:
    def test_upper_bound_point_mass(self):
        assert de.upper_bound(preset_hpc(10, 7)) == 14.0

    def test_upper_bound_uniform(self):
        for n in (4, 10):
            spec = preset_hpc(100, CapabilityDistribution.uniform(n))
            assert de.upper_bound(spec) == pytest.approx(n + 1, abs=1e-12)

    def test_upper_bound_dist44(self):
        spec = preset_hpc(1000, MIX_TBAR7)
        assert de.upper_bound(spec) == pytest.approx(2 * MIX_TBAR7.mean(), abs=1e-14)
        assert abs(de.upper_bound(spec) - 14.0) < 0.05

    def test_refined_strictly_below_2t(self):
        for t in (2, 4, 7):
            bound = de.refined_upper_bound(preset_hpc(1000, t, tau_assignment="random"))
            assert bound < 2 * t

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_refined_bracketed(self, t):
        bound = de.refined_upper_bound(preset_hpc(1000, t, tau_assignment="random"))
        assert t <= bound < 2 * t

    def test_refined_vs_grid_scan(self):
        tau = CapabilityDistribution.point_mass(7)
        bound = de.refined_upper_bound(preset_hpc(1000, tau, tau_assignment="random"))
        step = 1e-4
        best = 0.0
        c = step
        while c <= 14.0:
            if c <= 14.0 - 2.0 * initial_loss_mixture(tau, c):
                best = c
            c += step
        assert abs(bound - best) <= 2 * step

    def test_refined_dominates_threshold(self):
        for tau in (CapabilityDistribution.point_mass(4),
                    CapabilityDistribution.point_mass(7), MIX_TBAR7, MIX_TBAR7_MIN4,
                    # the root lies below t_bar = 10.9: the bound used to read 0
                    CapabilityDistribution.from_dict({1: 0.9, 100: 0.1})):
            spec = preset_hpc(1000, tau, tau_assignment="random")
            c_star = de.threshold(spec).c_star
            assert de.refined_upper_bound(spec) >= c_star - 1e-9

    def test_loss_explains_half_the_gap(self):
        # for near-optimal mixtures, twice the initial loss at threshold is
        # roughly half of the distance to the 2*t_bar bound
        spec = preset_hpc(1000, MIX_TBAR7, tau_assignment="random")
        c_star = de.threshold(spec).c_star
        gap = 2 * MIX_TBAR7.mean() - c_star
        ratio = 2.0 * initial_loss_mixture(MIX_TBAR7, c_star) / gap
        assert 0.35 <= ratio <= 0.75

    @pytest.mark.parametrize("spec", BOUNDS_SPECS.values(), ids=BOUNDS_SPECS.keys())
    def test_bounds_sandwich_threshold(self, spec):
        assert de.threshold(spec).c_star <= de.refined_upper_bound(spec) <= de.upper_bound(spec)

    @pytest.mark.parametrize("spec,expected", [
        (preset_staircase(6, 36, 3), 20.920923817151927),
        (preset_braided(8, 80, 3), 18.596376726357267),
    ], ids=["staircase6", "braided8"])
    def test_refined_pinned(self, spec, expected):
        # the README's two chains, bit for bit as gpclab bounds prints them
        assert de.refined_upper_bound(spec) == expected


@functools.lru_cache(maxsize=None)
def _designed_mixture(c, t_min):
    return optimizer.solve(optimizer.build_lp(c, 1000, 50, t_min)).tau


# mixtures for the Horner contraction slack: point masses, the benchmark's
# three designs (M = 1000, t <= 50), the c = 13.4 design built from weights
# zero-padded to t = 50 (the constructor drops the padding), and capabilities
# up to 64
SLACK_MIXTURES = {
    **{f"point_mass_{t}": functools.partial(CapabilityDistribution.point_mass, t)
       for t in (1, 4, 11, 64)},
    **{f"design_c{c}_tmin{t_min}": functools.partial(_designed_mixture, c, t_min)
       for c, t_min in ((13.4, 1), (12.86, 4), (10.0, 1))},
    "design_c13.4_padded": lambda: CapabilityDistribution(
        _designed_mixture(13.4, 1).weights + (0.0,) * 39),
    "spread_to_64": lambda: CapabilityDistribution.from_dict(
        {2: 0.3, 17: 0.2, 40: 0.2, 64: 0.3}),
}


class TestSuccessCondition:
    """``de._min_slack``, the contraction slack's grid minimum that
    post-verification reports; the exact threshold decides whether a mixture
    decodes at c."""

    def test_point_mass_around_threshold(self):
        # the point mass t = 4 has threshold 6.80: the slack changes sign there
        tau = CapabilityDistribution.point_mass(4)
        assert de._min_slack(tau, 6.7, 10000) > 0.0 > de._min_slack(tau, 6.9, 10000)

    def test_beyond_capability_budget_fails(self):
        for tau in (CapabilityDistribution.point_mass(5), MIX_TBAR7,
                    CapabilityDistribution.uniform(9)):
            c = 2 * tau.mean() + 1.0
            assert de._min_slack(tau, c, 2000) < -1e-6

    def test_reports_min_slack(self):
        assert 0.0 < de._min_slack(CapabilityDistribution.point_mass(4), 5.0, 10000) < 1.0

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 grid points"):
            de._min_slack(CapabilityDistribution.point_mass(4), 5.0, 1)

    @pytest.mark.parametrize("tau,c", [
        (CapabilityDistribution.point_mass(4), 5.0),
        (CapabilityDistribution.point_mass(4), 6.9),
        (MIX_TBAR7, 13.0),
        (MIX_TBAR7, 13.6),
    ])
    def test_matches_scalar_loop(self, tau, c):
        grid = 10000
        min_slack = np.inf
        for i in range(1, grid + 1):
            x = i / grid
            tails = poisson_tail_block(tau.t_max, c * x)
            min_slack = min(min_slack, x - sum(w * tails[t - 1] for t, w in tau.support()))
        assert de._min_slack(tau, c, grid) == pytest.approx(min_slack, abs=1e-15)

    @pytest.mark.parametrize("c", [0.5, 6.0, 13.4, 128.0])
    @pytest.mark.parametrize("name", sorted(SLACK_MIXTURES))
    def test_horner_slack_matches_tail_table(self, name, c):
        tau = SLACK_MIXTURES[name]()
        for grid in (2, de.SLACK_BLOCK - 1, de.SLACK_BLOCK, de.SLACK_BLOCK + 1, 10000):
            ref = reference_success_condition(tau, c, grid_points=grid)
            assert de._min_slack(tau, c, grid) == pytest.approx(ref, abs=1e-15)

    @pytest.mark.parametrize("grid", [2, 100])
    @pytest.mark.parametrize("c", [1e8, 1e300])
    def test_huge_rate_stays_finite(self, c, grid):
        # uncapped, lam = c x makes p(lam) overflow to inf and the slack NaN
        tau = CapabilityDistribution.point_mass(64)
        min_slack = de._min_slack(tau, c, grid)
        assert np.isfinite(min_slack)
        assert min_slack == reference_success_condition(tau, c, grid_points=grid)

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.1, max_value=20.0),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_slack_monotone_in_c(self, t, c, shrink):
        # the tail grows with c, so feasibility at c implies it below c
        tau = CapabilityDistribution.point_mass(t)
        hi = de._min_slack(tau, c, 300)
        lo = de._min_slack(tau, c * shrink, 300)
        assert lo >= hi - 1e-12

from dataclasses import replace

import numpy as np
import pytest

from gpclab import de, optimizer, simplex
from gpclab.optimizer import (
    STATUS_DEGENERATE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    build_lp,
    post_verify,
    solve,
)
from gpclab.poisson import CapabilityDistribution, initial_loss_mixture
from gpclab.simplex import INFEASIBLE, OPTIMAL, solve_lp
from conftest import MIX_TBAR7_MIN4
from de_reference import reference_success_condition
from lp_reference import reference_row_generation
from poisson_reference import poisson_tail, poisson_tail_block


class TestBuildLp:
    def test_shape(self):
        lp = build_lp(10.0, grid_m=100, t_max=20, t_min=3)
        assert lp.a_ub.shape == (100, 18)
        assert lp.a_eq.shape == (1, 18)
        assert lp.ts.tolist() == list(range(3, 21))

    def test_coefficients_are_tails(self):
        lp = build_lp(8.0, grid_m=50, t_max=10)
        i, t = 24, 7  # row for x = 0.5, capability 7
        assert lp.a_ub[i, t - 1] == pytest.approx(poisson_tail(7, 8.0 * 0.5), abs=1e-13)
        assert lp.b_ub[i] == 0.5

    def test_rows_match_block(self):
        # reference: one scalar tail block per grid row.  Both are 1 minus a
        # running cdf of up to 50 rounded terms, so they may differ by ~50 ulp
        # of 1.
        tol = 50 * np.finfo(float).eps
        for c, t_min in ((3.0, 1), (13.4, 1), (12.86, 4), (40.0, 1), (700.0, 1)):
            lp = build_lp(c, grid_m=200, t_max=50, t_min=t_min)
            for i in range(200):
                block = poisson_tail_block(50, c * (i + 1) / 200)
                np.testing.assert_allclose(lp.a_ub[i], block[t_min - 1:], rtol=0,
                                           atol=tol)

    def test_params_checked(self):
        with pytest.raises(ValueError):
            build_lp(10.0, grid_m=5, t_max=20)
        with pytest.raises(ValueError):
            build_lp(10.0, grid_m=100, t_max=70)
        with pytest.raises(ValueError):
            build_lp(-1.0, grid_m=100, t_max=20)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.0, -1.0])
    def test_quality_rejected(self, c):
        # a NaN c used to give an "optimal" design with t_bar = 1.0, and an
        # infinite one an "infeasible" LP
        with pytest.raises(ValueError, match="effective channel quality"):
            build_lp(c, grid_m=50, t_max=10)

    def test_point_mass_feasibility_tracks_threshold(self):
        # single-variable program: feasible exactly when the point mass works
        below = solve(build_lp(6.7, grid_m=500, t_max=4, t_min=4))
        above = solve(build_lp(6.9, grid_m=500, t_max=4, t_min=4))
        assert below.status == STATUS_OPTIMAL
        assert above.status == STATUS_INFEASIBLE

    def test_uniform_feasible_below_design_point(self):
        n = 8
        lp = build_lp(n - 0.01, grid_m=200, t_max=n)
        uniform = np.full(n, 1.0 / n)
        slack = lp.b_ub - lp.a_ub @ uniform
        assert (slack > 0).all()


class TestSolve:
    def test_small_design(self):
        sol = solve(build_lp(6.0, grid_m=200, t_max=10))
        assert sol.status == STATUS_OPTIMAL
        assert sol.t_bar <= 3.55  # c/2 + loss margin
        assert sol.t_bar >= 3.0  # 2*t_bar bound

    def test_raw_solution_invariants(self):
        for c in (6.0, 9.5, 13.4):
            problem = build_lp(c, grid_m=400, t_max=30)
            sol = solve(problem)
            assert sol.status == STATUS_OPTIMAL
            # feasible for every grid row, not only the generated ones
            assert (problem.b_ub - problem.a_ub @ sol.raw_weights).min() >= -1e-9
            assert abs(sol.raw_weights.sum() - 1.0) <= 1e-10
            assert (sol.raw_weights >= -1e-12).all()
            assert sol.t_bar >= c / 2.0

    def test_objective_monotone_in_c(self):
        tbars = [solve(build_lp(c, grid_m=200, t_max=25)).t_bar
                 for c in (5.0, 7.5, 10.0)]
        assert tbars[0] <= tbars[1] + 1e-9 <= tbars[2] + 2e-9

    def test_infeasible_status(self):
        sol = solve(build_lp(9.0, grid_m=200, t_max=4))
        assert sol.status == STATUS_INFEASIBLE
        assert sol.tau is None

    @pytest.mark.parametrize("t_min", [1, 2, 4])
    def test_dual_pivots_end_every_design(self, t_min):
        # costs t >= 1 leave dual pivots one outcome or the other, and an
        # optimal point meets every grid row, not only the generated ones
        statuses = set()
        for c in np.arange(20, 400, 7) / 10:
            problem = build_lp(c, grid_m=200, t_max=20, t_min=t_min)
            sol = solve(problem)
            statuses.add(sol.status)
            if sol.status == STATUS_OPTIMAL:
                assert (problem.a_ub @ sol.raw_weights - problem.b_ub).max() <= simplex._TOL
                assert abs(sol.raw_weights.sum() - 1.0) <= simplex._TOL
                assert sol.raw_weights.min() >= -simplex._TOL
        assert statuses == {STATUS_OPTIMAL, STATUS_INFEASIBLE}


def _full_solve(problem):
    return solve_lp(problem.objective, a_ub=problem.a_ub, b_ub=problem.b_ub,
                    a_eq=problem.a_eq, b_eq=problem.b_eq)


class TestRowGeneration:
    @pytest.mark.parametrize("c, grid_m, t_max", [(6.0, 200, 10), (26.0, 300, 40)])
    def test_agrees_with_full_solve(self, c, grid_m, t_max):
        problem = build_lp(c, grid_m=grid_m, t_max=t_max)
        sol = solve(problem)
        full = _full_solve(problem)
        assert sol.status == STATUS_OPTIMAL and full.status == OPTIMAL
        assert problem.objective @ sol.raw_weights == pytest.approx(full.objective, abs=1e-12)
        assert np.abs(sol.raw_weights - full.x).max() <= 1e-9
        assert sol.rows_used < grid_m

    def test_infeasible_row_outside_start_rows(self):
        problem = build_lp(6.0, grid_m=200, t_max=10)
        a_ub, b_ub = problem.a_ub.copy(), problem.b_ub.copy()
        # 20 evenly spaced starting rows of 200 lie about 10.5 apart: row 5 is
        # not among them; sum_t tau_t = 1 cannot meet sum_t tau_t <= 0.5
        a_ub[5], b_ub[5] = 1.0, 0.5
        bad = replace(problem, a_ub=a_ub, b_ub=b_ub)
        assert _full_solve(bad).status == INFEASIBLE
        sol = solve(bad)
        assert sol.status == STATUS_INFEASIBLE
        assert sol.tau is None and sol.raw_weights is None
        assert sol.rows_used > 20

    def test_fewer_rows_than_start_subset(self):
        problem = build_lp(6.0, grid_m=10, t_max=10)
        sol = solve(problem)
        full = _full_solve(problem)
        assert sol.rows_used == 10
        assert sol.pivots == full.pivots
        assert np.array_equal(sol.raw_weights, full.x)


class TestWarmStart:
    """Appending each batch of rows to the optimal tableau visits the same row
    sets as a cold solve per round (``lp_reference``) and ends at the same
    point."""

    @pytest.mark.parametrize("t_max", [20, 50])
    @pytest.mark.parametrize("grid_m", [100, 1000])
    @pytest.mark.parametrize("c, t_min", [(6.0, 1), (10.0, 1), (12.86, 4), (13.4, 1),
                                          (20.0, 1), (26.0, 1)])
    def test_design_corpus_matches_cold_row_generation(self, monkeypatch, c, t_min,
                                                       grid_m, t_max):
        problem = build_lp(c, grid_m=grid_m, t_max=t_max, t_min=t_min)
        seen = []  # the right-hand side (i + 1) / M of every row handed to the simplex

        def record_solve(*args, **kwargs):
            seen.extend(kwargs["b_ub"])
            return simplex.solve_lp(*args, **kwargs)

        def record_add(result, a_ub, b_ub):
            seen.extend(b_ub)
            return simplex.add_rows(result, a_ub, b_ub)

        monkeypatch.setattr(optimizer, "solve_lp", record_solve)
        monkeypatch.setattr(optimizer, "add_rows", record_add)
        sol = solve(problem)
        ref, ref_rows, ref_pivots = reference_row_generation(problem)
        assert sol.status == STATUS_OPTIMAL and ref.status == OPTIMAL
        rows = np.rint(np.array(seen) * grid_m).astype(int) - 1
        assert sol.rows_used == ref_rows.size == rows.size
        assert np.array_equal(np.sort(rows), ref_rows)
        assert np.abs(sol.raw_weights - ref.x).max() <= 1e-11
        assert sol.pivots <= ref_pivots


class TestPostVerify:
    def test_overclaimed_point_mass_flagged(self):
        sol = optimizer.LpSolution(
            status=STATUS_OPTIMAL, c=7.5, grid_m=1000, t_min=4, t_max=4,
            tau=CapabilityDistribution.point_mass(4), t_bar=4.0,
            raw_weights=np.array([1.0]), pivots=0,
        )
        verified = post_verify(sol)
        assert verified.status == STATUS_DEGENERATE
        assert verified.verified_threshold < 7.5
        assert abs(verified.verified_threshold - 6.8) < 0.1

    def test_published_mixture_verifies_at_design_point(self):
        from conftest import MIX_TBAR7

        sol = optimizer.LpSolution(
            status=STATUS_OPTIMAL, c=13.40, grid_m=1000, t_min=1, t_max=11,
            tau=MIX_TBAR7, t_bar=MIX_TBAR7.mean(),
            raw_weights=np.array([w for _, w in MIX_TBAR7.support()]), pivots=0,
        )
        verified = post_verify(sol)
        assert verified.verified_threshold >= 13.40
        assert verified.status == STATUS_OPTIMAL

    def test_uniform_mixture_verifies(self):
        sol = optimizer.LpSolution(
            status=STATUS_OPTIMAL, c=10.0, grid_m=1000, t_min=1, t_max=10,
            tau=CapabilityDistribution.uniform(10), t_bar=5.5,
            raw_weights=np.full(10, 0.1), pivots=0,
        )
        verified = post_verify(sol)
        assert verified.status == STATUS_OPTIMAL
        assert verified.verified_threshold >= 10.0

    def test_stability_row_bounds_verified_threshold(self):
        # this design sits past its stability edge: c * tau_1 = 1.0021, so its
        # threshold is 1 / tau_1 = 9.9792, which no grid in x resolves (a
        # 2000-point grid misses the negative slack below x = 5e-4 and would
        # report 9.991390)
        sol = post_verify(solve(build_lp(10.0, 1000, 50)))
        assert sol.status == STATUS_DEGENERATE
        assert sol.verified_threshold == pytest.approx(1.0 / sol.tau.weights[0], rel=1e-8)

    def test_requires_optimal_input(self):
        sol = optimizer.LpSolution(
            status=STATUS_INFEASIBLE, c=9.0, grid_m=100, t_min=4, t_max=4,
            tau=None, t_bar=None, raw_weights=None, pivots=0,
        )
        with pytest.raises(ValueError):
            post_verify(sol)


class TestDesignRegression:
    """The designs of ROADMAP's defect table, pinned from before the designed
    mixture was trimmed to its support and the contraction slack moved to the
    Horner tails: only ``tau.t_max`` moves, and the closed-form threshold by
    rounding (its tails sum fewer zero-weight columns).

    ``t_bar`` and ``support`` are the designs the two-phase simplex returned
    before every solve ran dual pivots from the slack basis; the one method
    moved them by rounding only, so they stay to 1e-13 relative (t_bar) and
    1e-12 absolute (weights), and ``exact`` pins the values it returns now."""

    @pytest.mark.parametrize(
        "c, grid_m, t_max, top, t_bar, support, pivots, rows, threshold, exact", [
            (10.0, 1000, 50, 8, 5.302505235031085,
             {1: 0.1002082466932368, 2: 0.057824516727593034, 3: 0.23734868623316493,
              7: 0.46234650658487403, 8: 0.1422720437611312}, 27, 60, 9.979218617218772,
             (5.302505235031086,
              {1: 0.10020824669323715, 2: 0.05782451672756706, 3: 0.23734868623321362,
               7: 0.46234650658478427, 8: 0.14227204376119792})),
            (6.0, 200, 10, 5, 3.3264473623868027,
             {1: 0.16757828421081408, 2: 0.1072108501309555, 4: 0.6816069503770741,
              5: 0.04360391528115623}, 15, 30, 5.967360303928142,
             (3.3264473623868014,
              {1: 0.1675782842108139, 2: 0.10721085013095408, 4: 0.6816069503770804,
               5: 0.043603915281151595})),
            (6.0, 1000, 50, 5, 3.3268391857342534,
             {1: 0.16684250788508068, 2: 0.10832588065531243, 4: 0.6808131407594861,
              5: 0.04401847070012077}, 18, 40, 5.993676393840767,
             (3.326839185734253,
              {1: 0.16684250788508062, 2: 0.1083258806553118, 4: 0.6808131407594893,
               5: 0.044018470700118356})),
            (13.4, 1000, 50, 11, 6.991798763126033,
             {1: 0.07036102516659071, 2: 0.1027499287456783, 4: 0.11560579142587102,
              5: 0.17808375307431146, 10: 0.5020985680699903, 11: 0.03110093351755823},
             38, 91, 13.399987938850076,
             (6.9917987631260425,
              {1: 0.07036102516650591, 2: 0.1027499287459701, 4: 0.11560579142500195,
               5: 0.17808375307516564, 10: 0.5020985680691585, 11: 0.031100933518197756})),
        ])
    def test_design_pinned(self, c, grid_m, t_max, top, t_bar, support, pivots, rows,
                           threshold, exact):
        sol = solve(build_lp(c, grid_m=grid_m, t_max=t_max))
        assert sol.t_max == t_max and sol.tau.t_max == top
        assert (sol.t_bar, dict(sol.tau.support())) == exact
        assert sol.t_bar == pytest.approx(t_bar, rel=1e-13, abs=0.0)
        assert dict(sol.tau.support()) == pytest.approx(support, rel=0.0, abs=1e-12)
        assert (sol.pivots, sol.rows_used) == (pivots, rows)
        verified = post_verify(sol)
        assert verified.status == STATUS_DEGENERATE
        assert verified.verified_threshold == pytest.approx(threshold, rel=1e-13, abs=0.0)
        ref = reference_success_condition(sol.tau, c, grid_points=10 * grid_m)
        assert verified.fine_grid_min_slack == pytest.approx(ref, abs=1e-15)

    @pytest.mark.parametrize("c, t_min, weights, pivots, threshold, two_phase, two_phase_threshold", [
        (13.40, 1, (0.07036102516650591, 0.1027499287459701, 0.0, 0.11560579142500195,
                    0.17808375307516564, 0.0, 0.0, 0.0, 0.0, 0.5020985680691585,
                    0.031100933518197756), 38, "13.399987938850039",
         (0.07036102516659071, 0.1027499287456783, 0.0, 0.11560579142587102,
          0.17808375307431146, 0.0, 0.0, 0.0, 0.0, 0.5020985680699903,
          0.03110093351755823), 13.399987938850062),
        (12.86, 4, (0.0, 0.0, 0.0, 0.4954716850402732, 0.0, 0.0, 0.0, 0.0,
                    0.03688650226856503, 0.4676418126911617), 13, "12.859999681590295",
         (0.0, 0.0, 0.0, 0.4954716850403187, 0.0, 0.0, 0.0, 0.0,
          0.036886502268291814, 0.46764181269138966), 12.859999681590295),
        (10.0, 1, (0.10020824669323715, 0.05782451672756706, 0.23734868623321362, 0.0, 0.0,
                   0.0, 0.46234650658478427, 0.14227204376119792), 27, "9.979218617218736",
         (0.1002082466932368, 0.057824516727593034, 0.23734868623316493, 0.0, 0.0,
          0.0, 0.46234650658487403, 0.1422720437611312), 9.979218617218772),
    ], ids=["design_c13.4", "design_c12.86_tmin4", "design_c10"])
    def test_benchmark_design_pinned(self, c, t_min, weights, pivots, threshold, two_phase,
                                     two_phase_threshold):
        # the benchmark's designs at M = 1000, t_max = 50, bit for bit: the LP
        # rows read the tail kernel, the verified closed-form threshold the pmf
        # sums; c = 13.4's threshold moved by 2 ulp from 13.399987938850067
        # when they replaced tail differences.  ``two_phase`` and
        # ``two_phase_threshold`` are the design the two-phase simplex returned
        # (in 54 / 15 / 23 pivots), which the one method moved by rounding
        sol = solve(build_lp(c, 1000, 50, t_min))
        assert sol.tau.weights == weights and sol.pivots == pivots
        assert sol.tau.weights == pytest.approx(two_phase, rel=0.0, abs=1e-12)
        verified = post_verify(sol).verified_threshold
        assert repr(verified) == threshold
        assert verified == pytest.approx(two_phase_threshold, rel=1e-13, abs=0.0)
        if c == 13.40:
            assert verified == pytest.approx(13.399987938850067, rel=1e-13, abs=0.0)


class TestSweep:
    """The frontier quantities that scripts/threshold_frontier.py reports."""

    def test_frontier_columns_and_gap(self):
        for c in (9.0, 13.4):
            sol = solve(build_lp(c, grid_m=300, t_max=40))
            assert sol.t_bar >= c / 2
            assert initial_loss_mixture(sol.tau, c) > 0

    def test_gap_shrinks_with_capability(self):
        gaps = [2 * solve(build_lp(c, grid_m=300, t_max=40)).t_bar - c
                for c in (9.0, 13.4, 18.0, 26.0)]
        assert gaps[0] > gaps[-1]

    def test_near_seven_gap_value(self):
        # at mean capability ~7 the distance to the 2*t_bar bound is ~0.58
        sol = solve(build_lp(13.40, grid_m=1000, t_max=50))
        assert abs(sol.t_bar - 7.0) < 0.05
        assert abs(2 * sol.t_bar - 13.40 - 0.58) < 0.1

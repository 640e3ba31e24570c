from dataclasses import replace

import numpy as np
import pytest

from gpclab import de, optimizer
from gpclab.optimizer import (
    STATUS_DEGENERATE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    build_lp,
    frontier_csv_rows,
    post_verify,
    solve,
    sweep_tradeoff,
)
from gpclab.poisson import CapabilityDistribution, poisson_tail, poisson_tail_block
from gpclab.simplex import INFEASIBLE, OPTIMAL, solve_lp
from conftest import MIX_TBAR7_MIN4


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

    def test_requires_optimal_input(self):
        sol = optimizer.LpSolution(
            status=STATUS_INFEASIBLE, c=9.0, grid_m=100, t_min=4, t_max=4,
            tau=None, t_bar=None, raw_weights=None, pivots=0,
        )
        with pytest.raises(ValueError):
            post_verify(sol)


class TestSweep:
    def test_frontier_columns_and_gap(self):
        points = sweep_tradeoff([9.0, 13.4], grid_m=300, t_max=40)
        rows = frontier_csv_rows(points)
        assert rows[0] == ["c", "t_bar", "gap", "loss_at_c", "conjecture_rhs"]
        for p in points:
            assert p.gap == pytest.approx(2 * p.t_bar - p.c, abs=1e-12)
            assert p.t_bar >= p.c / 2
            assert p.loss_at_c > 0

    def test_gap_shrinks_with_capability(self):
        points = sweep_tradeoff([9.0, 13.4, 18.0, 26.0], grid_m=300, t_max=40)
        gaps = [p.gap for p in points]
        assert gaps[0] > gaps[-1]

    def test_requires_sorted_grid(self):
        with pytest.raises(ValueError):
            sweep_tradeoff([10.0, 9.0], grid_m=50, t_max=10)

    def test_near_seven_gap_value(self):
        # at mean capability ~7 the distance to the 2*t_bar bound is ~0.58
        point = sweep_tradeoff([13.40], grid_m=1000, t_max=50)[0]
        assert abs(point.t_bar - 7.0) < 0.05
        assert abs(point.gap - 0.58) < 0.1

import hashlib
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from gpclab import simplex
from gpclab.simplex import _TOL, INFEASIBLE, OPTIMAL, CyclingError, _Tableau, add_rows, solve_lp


def enumerate_vertices(c, a_ub, b_ub, a_eq, b_eq):
    """Brute-force oracle: walk every basic solution of the polytope
    {A_ub x <= b_ub, A_eq x = b_eq, x >= 0} and minimize c.x over the
    feasible ones.  Only viable for a handful of variables."""
    c = np.asarray(c, float)
    n = c.size
    rows = [np.asarray(r, float) for r in a_ub] if a_ub is not None else []
    rhs = list(np.asarray(b_ub, float)) if b_ub is not None else []
    eq_rows = [np.asarray(r, float) for r in a_eq] if a_eq is not None else []
    eq_rhs = list(np.asarray(b_eq, float)) if b_eq is not None else []
    # candidate active constraints: inequality rows and coordinate planes
    candidates = [(row, b) for row, b in zip(rows, rhs)]
    candidates += [(np.eye(n)[k], 0.0) for k in range(n)]
    best = None
    need = n - len(eq_rows)
    for combo in itertools.combinations(range(len(candidates)), need):
        mat = np.array([candidates[k][0] for k in combo] + eq_rows)
        vec = np.array([candidates[k][1] for k in combo] + eq_rhs)
        if np.linalg.matrix_rank(mat) < n:
            continue
        try:
            x = np.linalg.lstsq(mat, vec, rcond=None)[0]
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(mat @ x - vec)) > 1e-8:
            continue
        if (x < -1e-9).any():
            continue
        if rows and (np.array(rows) @ x > np.array(rhs) + 1e-9).any():
            continue
        if eq_rows and np.max(np.abs(np.array(eq_rows) @ x - np.array(eq_rhs))) > 1e-9:
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


class TestHandInstances:
    def test_two_variable_vertex(self):
        res = solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert res.status == OPTIMAL
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-12)
        assert res.objective == pytest.approx(1.0, abs=1e-12)

    def test_trivially_infeasible(self):
        # 0.x <= -1 can never hold
        res = solve_lp([1.0], a_ub=[[0.0]], b_ub=[-1.0])
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        # min -x over x >= -1 is unbounded; only a negative cost makes a
        # program unbounded, and solve_lp refuses one
        with pytest.raises(ValueError, match=r"^c must be >= 0, got -1\.0"):
            solve_lp([-1.0], a_ub=[[-1.0]], b_ub=[1.0])

    @pytest.mark.parametrize("c, a_ub, b_ub, a_eq, b_eq", [
        ([-1.0, -2.0, -0.5], [[0.0, 1.0, 0.0]], [0.3], [[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]],
         [1.0, 0.7]),
        ([-2.0, 1.0], None, None, [[1.0, -1.0]], [0.0]),
        ([1.0, -0.0, -1e-300], None, None, [[1.0, 1.0, 1.0]], [1.0]),
    ], ids=["negative_costs", "negative_costs_unbounded", "tiny_negative_cost"])
    def test_negative_cost_rejected(self, c, a_ub, b_ub, a_eq, b_eq):
        # dual pivots from the slack basis need c >= 0; these programs were
        # solved by a primal phase that no design LP reached
        with pytest.raises(ValueError, match="^c must be >= 0"):
            solve_lp(c, a_ub, b_ub, a_eq, b_eq)

    def test_zero_costs(self):
        # -0.0 and 0.0 are nonnegative: every feasible point is optimal
        res = solve_lp([0.0, -0.0], a_ub=[[1.0, 1.0], [-1.0, 0.0]], b_ub=[1.0, -0.5])
        assert res.status == OPTIMAL and res.objective == 0.0
        assert res.x[0] >= 0.5 - 1e-12 and res.x.sum() <= 1.0 + 1e-12

    def test_equality_only(self):
        res = solve_lp([2.0, 3.0, 1.0], a_eq=[[1, 1, 1], [1, -1, 0]],
                       b_eq=[2.0, 0.0])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-9)


    @pytest.mark.parametrize("c, a_ub, b_ub, a_eq, b_eq", [
        ([1.0, 2.0, 3.0], [[1.0, 0.0, 0.0]], [0.4], [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
         [1.0, 1.0]),
        ([1.0, 1.0, 3.0], None, None, [[1.0, 2.0, 1.0], [-3.0, -6.0, -3.0]], [2.0, -6.0]),
        ([1.0, 1.0], None, None, [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]),
    ], ids=["duplicated_row", "multiple_of_a_row", "contradictory_rows"])
    def test_redundant_or_contradictory_equalities_match_highs(self, c, a_ub, b_ub, a_eq,
                                                               b_eq):
        # each equality row is a pair of <= rows, so a redundant row leaves a
        # slack basic at zero and a contradictory pair proves infeasibility
        res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs")
        assert res.status == {0: OPTIMAL, 2: INFEASIBLE}[ref.status]
        if res.status == OPTIMAL:
            assert res.x == pytest.approx(ref.x, abs=1e-12)
            assert res.objective == pytest.approx(ref.fun, abs=1e-12)
            assert np.abs(np.asarray(a_eq) @ res.x - b_eq).max() <= 1e-12
            assert res.x.min() >= 0.0


class TestAgainstOracles:
    def test_vertex_enumeration(self, rng):
        for trial in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            c = np.abs(rng.normal(size=n))
            a_ub = rng.normal(size=(m, n))
            b_ub = rng.uniform(0.1, 2.0, size=m)
            a_eq = np.ones((1, n))
            b_eq = np.array([1.0])  # bounded feasible region inside the simplex
            res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
            best = enumerate_vertices(c, a_ub, b_ub, a_eq, b_eq)
            if res.status == OPTIMAL:
                assert best is not None
                assert abs(res.objective - best) <= 1e-9 * max(1.0, abs(best))
            else:
                assert res.status == INFEASIBLE
                assert best is None

    def test_vertex_enumeration_six_variables(self, rng):
        # one beefier instance at the oracle's practical size limit
        n, m = 6, 12
        c = np.abs(rng.normal(size=n))
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.2, 2.0, size=m)
        a_eq = np.ones((1, n))
        b_eq = np.array([1.0])
        res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        best = enumerate_vertices(c, a_ub, b_ub, a_eq, b_eq)
        if res.status == OPTIMAL:
            assert abs(res.objective - best) <= 1e-9 * max(1.0, abs(best))
        else:
            assert best is None

    def test_scipy_cross_check(self, rng):
        agree = 0
        for trial in range(150):
            n = int(rng.integers(2, 7))
            mu = int(rng.integers(1, 10))
            me = int(rng.integers(0, 3))
            c = np.abs(rng.normal(size=n))
            a_ub = rng.normal(size=(mu, n))
            b_ub = rng.uniform(-1.0, 2.0, size=mu)
            a_eq = rng.normal(size=(me, n)) if me else None
            b_eq = rng.uniform(0.2, 1.0, size=me) if me else None
            res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
            ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=(0, None), method="highs")
            # c >= 0 bounds every program below, so it is optimal or infeasible
            assert res.status == {0: OPTIMAL, 2: INFEASIBLE}[ref.status]
            if ref.status == 0:
                assert res.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
                agree += 1
        assert agree > 30  # plenty of optimal instances exercised

    def test_perturbed_restart_same_objective(self, rng):
        # column permutations change the pivot path but not the optimum
        n, m = 6, 8
        c = np.abs(rng.normal(size=n))
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.5, 2.0, size=m)
        a_eq = np.ones((1, n))
        b_eq = np.array([1.0])
        base = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        assert base.status == OPTIMAL
        for _ in range(5):
            perm = rng.permutation(n)
            res = solve_lp(c[perm], a_ub[:, perm], b_ub, a_eq[:, perm], b_eq)
            assert res.status == OPTIMAL
            assert abs(res.objective - base.objective) <= 1e-9 * max(1.0, abs(base.objective))


class TestAddRows:
    """Rows appended to an optimal tableau and re-optimized by dual simplex
    pivots must give what a cold solve on all the rows gives."""

    def test_hand_instance(self):
        base = solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        res = add_rows(base, [[1.0, 0.0]], [0.25])
        assert res.status == OPTIMAL
        assert res.x == pytest.approx([0.25, 0.75], abs=1e-12)
        assert res.objective == pytest.approx(1.75, abs=1e-12)
        assert res.pivots == 1
        # the result added to is left as it was
        assert base.x == pytest.approx([1.0, 0.0], abs=1e-12)
        again = add_rows(base, [[1.0, 0.0]], [0.25])
        assert np.array_equal(again.x, res.x) and again.pivots == res.pivots

    def test_needs_an_optimal_result(self):
        res = solve_lp([1.0], a_ub=[[0.0]], b_ub=[-1.0])
        assert res.status == INFEASIBLE and res.tableau is None
        with pytest.raises(ValueError):
            add_rows(res, [[1.0]], [1.0])

    def test_random_batches_match_cold_solve_and_scipy(self, rng):
        optimal = infeasible = 0
        for trial in range(120):
            n = int(rng.integers(2, 7))
            c = np.abs(rng.normal(size=n))
            # sum_t x_t = 1 keeps every program bounded, and the starting rows
            # admit the uniform point
            a_eq, b_eq = np.ones((1, n)), np.array([1.0])
            a_ub = rng.normal(size=(int(rng.integers(1, 6)), n))
            b_ub = a_ub.mean(axis=1) + rng.uniform(0.1, 1.0, size=a_ub.shape[0])
            res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
            assert res.status == OPTIMAL
            for _ in range(int(rng.integers(1, 5))):
                k = int(rng.integers(1, 5))
                a_new = rng.normal(size=(k, n))
                b_new = rng.uniform(-0.3, 1.5, size=k)
                res = add_rows(res, a_new, b_new)
                a_ub, b_ub = np.vstack([a_ub, a_new]), np.concatenate([b_ub, b_new])
                cold = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
                ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                              bounds=(0, None), method="highs")
                assert res.status == cold.status
                if res.status != OPTIMAL:
                    assert res.status == INFEASIBLE and ref.status == 2
                    infeasible += 1
                    break
                assert ref.status == 0
                assert res.objective == pytest.approx(cold.objective, abs=1e-9)
                assert res.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
                assert (a_ub @ res.x - b_ub).max() <= 1e-9
                assert res.x.min() >= -1e-9 and abs(res.x.sum() - 1.0) <= 1e-9
                optimal += 1
        assert optimal > 100 and infeasible > 10

    def test_cuts_through_the_optimal_vertex(self, rng):
        # rows tight at the current optimum leave zero right-hand sides: every
        # ratio ties, and the optimum must stay where it is
        n = 6
        c = np.abs(rng.normal(size=n))
        a_ub, b_ub = rng.normal(size=(4, n)), rng.uniform(0.5, 2.0, size=4)
        a_eq, b_eq = np.ones((1, n)), np.array([1.0])
        base = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        a_new = np.vstack([a_ub, rng.normal(size=(3, n))])
        res = add_rows(base, a_new, a_new @ base.x)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(base.objective, abs=1e-12)

    def test_cut_that_empties_the_feasible_set(self):
        # sum_t x_t = 1 cannot meet sum_t x_t >= 2
        n = 5
        base = solve_lp(np.arange(1.0, n + 1), a_ub=np.eye(n), b_ub=np.full(n, 0.5),
                        a_eq=np.ones((1, n)), b_eq=[1.0])
        assert base.status == OPTIMAL
        res = add_rows(base, -np.ones((1, n)), [-2.0])
        assert res.status == INFEASIBLE and res.x is None and res.tableau is None

    @pytest.mark.parametrize("call, message", [
        (lambda: solve_lp([1.0, 1.0], a_ub=[[1.0, 0.0]], b_ub=[1.0, -5.0]),
         "a_ub has 1 rows but b_ub has 2 entries"),
        (lambda: solve_lp([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0, 3.0]),
         "a_eq has 1 rows but b_eq has 2 entries"),
        (lambda: add_rows(solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]),
                          [[1.0, 0.0]], [0.25, 0.75]),
         "a_ub has 1 rows but b_ub has 2 entries"),
    ], ids=["solve_lp_ub", "solve_lp_eq", "add_rows"])
    def test_row_count_mismatch_rejected(self, call, message):
        # rows were zipped with right-hand sides, dropping the extra ones, and
        # add_rows broadcast a single row over two right-hand sides
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("call, names", [
        (lambda: solve_lp([1.0], a_ub=[[1.0]]), "a_ub and b_ub"),
        (lambda: solve_lp([-1.0], a_ub=[[1.0]]), "a_ub and b_ub"),
        (lambda: solve_lp([1.0], a_eq=[[1.0]]), "a_eq and b_eq"),
        (lambda: solve_lp([1.0], a_ub=[[1.0]], b_ub=[np.nan]), "a_ub and b_ub"),
        (lambda: solve_lp([1.0], a_eq=[[np.inf]], b_eq=[1.0]), "a_eq and b_eq"),
        (lambda: add_rows(solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]),
                          [[1.0, np.nan]], [0.25]), "a_ub and b_ub"),
        (lambda: solve_lp([1.0], b_ub=[-5.0], a_eq=[[1.0]], b_eq=[1.0]), "a_ub and b_ub"),
        (lambda: solve_lp([1.0], a_ub=[[1.0]], b_ub=[1.0], b_eq=[2.0]), "a_eq and b_eq"),
        (lambda: solve_lp([np.nan, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]), "c"),
        (lambda: solve_lp([[1.0, 2.0]], a_eq=[[1.0, 1.0]], b_eq=[1.0]), "c"),
    ], ids=["missing_b_ub", "missing_b_ub_unbounded", "missing_b_eq", "nan_b_ub", "inf_a_eq",
            "add_rows_nan", "missing_a_ub", "missing_a_eq", "nan_c", "two_dimensional_c"])
    def test_missing_or_nonfinite_rows_rejected(self, call, names):
        # a missing right-hand side was read as NaN: the first call returned
        # x = 0 as optimal, the second failed on an argmin of nothing; a
        # right-hand side without rows was dropped (x = 1 came back optimal
        # for the row x <= -5); a NaN cost came back optimal with a NaN
        # objective, and a 2-D cost failed with a TypeError in the result
        with pytest.raises(ValueError, match=f"^{names} must be given and finite"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: solve_lp([1.0, 1.0], a_ub=[[1.0]], b_ub=[1.0]),
         "a_ub has 1 columns but c has 2 entries"),
        (lambda: solve_lp([1.0, 1.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0]),
         "a_eq has 3 columns but c has 2 entries"),
        (lambda: add_rows(solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]),
                          [[1.0, 0.0, 1.0]], [0.25]),
         "a_ub has 3 columns but c has 2 entries"),
    ], ids=["solve_lp_ub", "solve_lp_eq", "add_rows"])
    def test_column_count_mismatch_rejected(self, call, message):
        # stacking the rows failed inside numpy, and add_rows wrote a wide
        # row's extra entries into the slack columns
        with pytest.raises(ValueError, match=message):
            call()

    def test_pivot_budget(self, monkeypatch):
        base = solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
        with pytest.raises(CyclingError):
            add_rows(base, [[1.0, 0.0]], [0.25])
        with pytest.raises(CyclingError):  # both read the budget when called
            solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])


def pinned_programs():
    """1200 seeded random programs (c, a_ub, b_ub, a_eq, b_eq, a_new, b_new)
    with costs |N(0, 1)|, right-hand sides N(0, 1) and a batch of 1-3 rows
    a_new x <= b_new for ``add_rows``; about half the ``<=`` rows have b < 0,
    so the slack basis starts primal infeasible there and dual pivots repair
    it."""
    rng = np.random.default_rng(20151)
    for _ in range(1200):
        n, mu, me = (int(k) for k in rng.integers((1, 0, 0), (8, 8, 3)))
        if mu + me == 0:
            mu = 1
        c = np.abs(rng.normal(size=n))
        a_ub, b_ub = rng.normal(size=(mu, n)), rng.normal(size=mu)
        a_eq, b_eq = rng.normal(size=(me, n)), rng.normal(size=me)
        k = int(rng.integers(1, 4))
        a_new, b_new = rng.normal(size=(k, n)), rng.normal(size=k)
        yield (c, a_ub if mu else None, b_ub if mu else None, a_eq if me else None,
               b_eq if me else None, a_new, b_new)


def solves(program):
    """The cold solve of a pinned program and, when it is optimal, its
    ``add_rows`` re-optimization, each with the rows it solved."""
    c, a_ub, b_ub, a_eq, b_eq, a_new, b_new = program
    res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    yield res, a_ub, b_ub
    if res.status == OPTIMAL:
        a_ub = a_new if a_ub is None else np.vstack([a_ub, a_new])
        b_ub = b_new if b_ub is None else np.concatenate([b_ub, b_new])
        yield add_rows(res, a_new, b_new), a_ub, b_ub


class TestPinnedPath:
    """Status, solution bytes and pivot count of the pinned programs' solves,
    pinned by SHA-256: a change to the tableau's column order or to the pivot
    rule moves the digest."""

    def test_pivot_path_pinned(self):
        digest = hashlib.sha256()
        statuses = set()
        for program in pinned_programs():
            for res, _, _ in solves(program):
                statuses.add(res.status)
                digest.update(res.status.encode())
                digest.update(b"" if res.x is None else res.x.tobytes())
                digest.update(res.pivots.to_bytes(4, "little"))
        assert statuses == {OPTIMAL, INFEASIBLE}
        assert digest.hexdigest() == (
            "fc629e54d171e69f87695521c20e213cf4d920e8cb3ff4ca7bc418cbb74c249d")

    def test_bland_rule_matches_highs(self, monkeypatch):
        # below 0 the streak factor makes every pivot follow Bland's rule,
        # which the default rule reaches only after a long degenerate run
        default_pivots = [res.pivots for p in pinned_programs() for res, _, _ in solves(p)]
        monkeypatch.setattr(simplex, "_BLAND_STREAK", -1)
        bland_pivots = []
        for program in pinned_programs():
            c, _, _, a_eq, b_eq, _, _ = program
            for res, a_ub, b_ub in solves(program):
                bland_pivots.append(res.pivots)
                ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                              method="highs")
                assert res.status == {0: OPTIMAL, 2: INFEASIBLE}[ref.status]
                if res.status == OPTIMAL:
                    assert res.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
                    assert res.x.min() >= -1e-9
                    if a_ub is not None:
                        assert (a_ub @ res.x - b_ub).max() <= 1e-9
                    if a_eq is not None:
                        assert np.abs(a_eq @ res.x - b_eq).max() <= 1e-9
        assert len(bland_pivots) == len(default_pivots)
        assert bland_pivots != default_pivots  # the patch reached the pivot rule


class TestDualFeasibilityCheck:
    """At b >= 0 the point is optimal only if no reduced cost is negative;
    rounding that pushes one below -_TOL is an error, not an optimum."""

    @staticmethod
    def tableau(red_x):
        # x + s = 1 with the slack basic: b >= 0 from the start
        return _Tableau(np.array([[1.0, 1.0, 1.0]]), np.array([1]), np.array([1.0]),
                        np.array([red_x, 0.0, 0.0]))

    def test_negative_reduced_cost_raises(self):
        with pytest.raises(RuntimeError, match="reduced cost .* below"):
            self.tableau(-10 * _TOL).reoptimize()

    def test_reduced_cost_within_tolerance_is_optimal(self):
        res = self.tableau(-_TOL / 10).reoptimize()
        assert res.status == OPTIMAL and res.pivots == 0 and res.x.tolist() == [0.0]

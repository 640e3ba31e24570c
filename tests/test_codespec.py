import json

import numpy as np
import pytest

from gpclab.codespec import (
    BchComponentParams,
    GpcSpec,
    bch_params,
    block_array_eta,
    braided_eta,
    cn_counts,
    cn_degrees,
    code_length,
    erasure_scaling,
    hpc_rate_lower_bound,
    mean_capability,
    preset_braided,
    preset_from_block_array,
    preset_hpc,
    preset_pc,
    preset_staircase,
    rate_lower_bound,
    spec_from_json,
    spec_hash,
    spec_to_json,
    staircase_eta,
    validate,
)
from gpclab.poisson import CapabilityDistribution
from conftest import MIX_TBAR7, MIX_TBAR7_MIN4, random_spec

STAIRCASE_6 = np.array(
    [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 0],
    ]
)

BRAIDED_8 = np.array(
    [
        [0, 1, 0, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 1, 0, 0],
        [1, 0, 1, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 0, 1, 0],
        [0, 0, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 0, 1, 0],
    ]
)


class TestPresets:
    def test_hpc_shape(self):
        spec = preset_hpc(5, 2)
        assert spec.eta.tolist() == [[1]]
        assert spec.gamma.tolist() == [1.0]
        assert validate(spec).ok

    def test_staircase_matrix(self):
        assert np.array_equal(staircase_eta(6), STAIRCASE_6)

    def test_braided_matrix(self):
        assert np.array_equal(braided_eta(8), BRAIDED_8)

    def test_braided_parity_rejected(self):
        with pytest.raises(ValueError):
            braided_eta(7)
        with pytest.raises(ValueError):
            braided_eta(2)

    def test_staircase_size_rejected(self):
        with pytest.raises(ValueError):
            staircase_eta(1)


class TestValidate:
    def test_staircase_valid(self):
        assert validate(preset_staircase(6, 36, 3)).ok

    def test_zero_row_invalid(self):
        eta = np.array([[0, 0], [0, 1]])
        spec = GpcSpec(eta, np.array([0.5, 0.5]),
                       (CapabilityDistribution.point_mass(2),) * 2, 10)
        report = validate(spec)
        assert not report.ok
        assert any("unconnected" in msg for msg in report.violations)

    def test_block_diagonal_invalid(self):
        eta = np.array([[1, 0], [0, 1]])
        spec = GpcSpec(eta, np.array([0.5, 0.5]),
                       (CapabilityDistribution.point_mass(2),) * 2, 10)
        report = validate(spec)
        assert not report.ok
        assert any("reducible" in msg for msg in report.violations)

    def test_asymmetric_invalid(self):
        eta = np.array([[0, 1], [0, 1]])
        spec = GpcSpec(eta, np.array([0.5, 0.5]),
                       (CapabilityDistribution.point_mass(2),) * 2, 10)
        assert not validate(spec).ok

    def test_deterministic_integrality_enforced(self):
        # 0.3 / 0.7 of n = 10 CNs cannot host a 50/50 capability split
        tau = CapabilityDistribution.from_dict({2: 0.5, 3: 0.5})
        spec = GpcSpec(np.array([[0, 1], [1, 0]]), np.array([0.3, 0.7]),
                       (tau, tau), 10, tau_assignment="deterministic")
        report = validate(spec)
        assert not report.ok
        assert any("not integral" in msg for msg in report.violations)
        relaxed = GpcSpec(np.array([[0, 1], [1, 0]]), np.array([0.3, 0.7]),
                          (tau, tau), 10, tau_assignment="random")
        assert validate(relaxed).ok

    def test_gamma_sum_checked(self):
        spec = GpcSpec(np.array([[1]]), np.array([0.9]),
                       (CapabilityDistribution.point_mass(2),), 10)
        assert not validate(spec).ok


class TestStructure:
    def test_staircase_degrees(self):
        spec = preset_staircase(6, 36, 3)
        assert cn_degrees(spec).tolist() == [6, 12, 12, 12, 12, 6]

    def test_hpc_degrees(self):
        assert cn_degrees(preset_hpc(5, 2)).tolist() == [4]

    def test_pc_degrees(self):
        spec = preset_pc(10, (0.5, 0.5), 3)
        assert cn_degrees(spec).tolist() == [5, 5]

    def test_hpc_length(self):
        assert code_length(preset_hpc(5, 2)) == 10

    def test_pc_length(self):
        assert code_length(preset_pc(20, (0.4, 0.6), 3)) == 96

    def test_staircase_length(self):
        assert code_length(preset_staircase(6, 36, 3)) == 180

    def test_handshake(self, rng):
        # sum of CN degrees counts every VN twice
        specs = [preset_hpc(7, 2), preset_pc(20, (0.4, 0.6), 3),
                 preset_staircase(6, 36, 3), preset_braided(8, 32, 4)]
        specs += [random_spec(rng) for _ in range(20)]
        for spec in specs:
            counts = cn_counts(spec)
            degrees = cn_degrees(spec)
            assert int((counts * degrees).sum()) == 2 * code_length(spec)

    def test_pairing_matches_pair_loops(self, rng):
        # reference: count partners and VN pairs position by position
        def loop_degrees(spec):
            counts, eta, L = cn_counts(spec), spec.eta, spec.num_positions
            return [eta[i, i] * (counts[i] - 1)
                    + sum(counts[j] for j in range(L) if j != i and eta[i, j])
                    for i in range(L)]

        def loop_length(spec):
            counts, eta, L = cn_counts(spec), spec.eta, spec.num_positions
            m = sum(counts[i] * (counts[i] - 1) // 2 for i in range(L) if eta[i, i])
            return m + sum(counts[i] * counts[j] for i in range(L)
                           for j in range(i + 1, L) if eta[i, j])

        specs = [preset_hpc(7, 2), preset_pc(20, (0.4, 0.6), 3),
                 preset_staircase(6, 36, 3), preset_braided(8, 32, 4),
                 preset_from_block_array(np.array([[1, 1], [0, 1]]), 40, 3)]
        specs += [random_spec(rng) for _ in range(20)]
        for spec in specs:
            assert cn_degrees(spec).tolist() == loop_degrees(spec)
            assert code_length(spec) == loop_length(spec)

    def test_length_tracks_quadratic_growth(self):
        # m approaches (gamma' eta gamma / 2) n^2 as n grows
        for spec in (preset_staircase(6, 3600, 3), preset_pc(2000, (0.4, 0.6), 3),
                     preset_hpc(5000, 4)):
            q = float(spec.gamma @ spec.eta @ spec.gamma)
            m = code_length(spec)
            assert abs(m - q * spec.n**2 / 2) / m < 1e-2

    def test_random_assignment_rounds_counts_with_warning(self):
        import warnings as w

        tau = CapabilityDistribution.point_mass(2)
        spec = GpcSpec(np.array([[0, 1], [1, 0]]), np.array([1 / 3, 2 / 3]),
                       (tau, tau), 10, tau_assignment="random")
        assert validate(spec).ok
        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            counts = cn_counts(spec)
        assert counts.tolist() == [3, 7]
        assert any("rounded" in str(c.message) for c in caught)

    def test_scaling_hpc(self):
        assert erasure_scaling(preset_hpc(10, 2)) == pytest.approx(1.0, abs=1e-14)

    def test_scaling_square_pc(self):
        assert erasure_scaling(preset_pc(10, (0.5, 0.5), 3)) == pytest.approx(2.0, abs=1e-14)

    def test_scaling_staircase(self):
        # gamma' eta gamma = 2(L-1)/L^2 for the chain, so the scaling inverts it
        L = 6
        spec = preset_staircase(L, 36, 3)
        assert erasure_scaling(spec) == pytest.approx(L * L / (2 * L - 2), rel=1e-12)

    def test_scaling_inverse_invariant(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            q = float(spec.gamma @ spec.eta @ spec.gamma)
            assert abs(erasure_scaling(spec) * q - 1.0) <= 1e-14

    def test_mean_capability(self):
        assert mean_capability(preset_hpc(10, 7)) == 7.0
        uniform = CapabilityDistribution.uniform(9)
        assert mean_capability(preset_hpc(10, uniform)) == pytest.approx(5.0, abs=1e-12)
        assert abs(mean_capability(preset_hpc(1000, MIX_TBAR7)) - 7.0) < 0.05


class TestBlockArray:
    def test_three_by_two_prunes_to_five(self):
        eta, gamma = block_array_eta(np.ones((3, 2), dtype=int))
        assert eta.shape == (5, 5)
        assert np.array_equal(eta, eta.T)
        assert gamma.tolist() == [0.2] * 5
        # same code as the plain product family with gamma = (2/5, 3/5):
        # identical length and identical component-length multiset
        spec = preset_from_block_array(np.ones((3, 2), dtype=int), n=20, t=3)
        pc = preset_pc(20, (0.4, 0.6), 3)
        assert validate(spec).ok
        assert code_length(spec) == code_length(pc)
        multiset_a = np.repeat(cn_degrees(spec), cn_counts(spec)).tolist()
        multiset_b = np.repeat(cn_degrees(pc), cn_counts(pc)).tolist()
        assert sorted(multiset_a) == sorted(multiset_b)

    def test_single_block_couples_its_row_and_column(self):
        # one block on the grid couples exactly one row position with one
        # column position: the square two-position product family
        eta, gamma = block_array_eta(np.array([[1]]))
        assert eta.tolist() == [[0, 1], [1, 0]]
        assert gamma.tolist() == [0.5, 0.5]

    def test_staircase_band(self):
        band = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        eta, gamma = block_array_eta(band)
        assert np.array_equal(eta, staircase_eta(6))
        assert gamma.tolist() == [1.0 / 6] * 6

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            block_array_eta(np.zeros((2, 2), dtype=int))

    def test_symmetry_and_irreducibility(self, rng):
        for _ in range(30):
            a, b = rng.integers(1, 5, size=2)
            ep = (rng.random((a, b)) < 0.6).astype(int)
            if not ep.any():
                ep[0, 0] = 1
            eta, gamma = block_array_eta(ep)
            assert np.array_equal(eta, eta.T)
            assert (eta.sum(axis=1) > 0).all()
            assert abs(gamma.sum() - 1.0) < 1e-12


class TestBch:
    def test_lengths(self):
        assert bch_params(BchComponentParams(10, 23, 4))[0] == 1000
        assert bch_params(BchComponentParams(12, 1095, 4))[0] == 3000

    def test_even_branch_dimension(self):
        assert bch_params(BchComponentParams(10, 23, 4))[1] == 980

    def test_odd_branch_dimension(self):
        n_c, k_c, d = bch_params(BchComponentParams(10, 23, 7))
        assert k_c == 1000 - 10 * 3 - 1
        assert d == 8

    def test_overshortened_rejected(self):
        with pytest.raises(ValueError):
            bch_params(BchComponentParams(4, 0, 8))  # k_C would be < 1


class TestRateBounds:
    def test_single_parity_forms_agree(self):
        n = 12
        k_c = n - 1
        spec = preset_hpc(n, 1)
        dims = [k_c - 1] * n  # every CN is shortened by one bit
        assert rate_lower_bound(spec, dims) == pytest.approx(
            hpc_rate_lower_bound(n, k_c), abs=1e-14
        )

    def test_exact_dimension_beats_bound(self):
        n, k_c = 40, 33
        exact_rate = (k_c * (k_c - 1) / 2) / (n * (n - 1) / 2)
        assert exact_rate >= hpc_rate_lower_bound(n, k_c)

    @pytest.mark.parametrize("dist,expect", [(MIX_TBAR7, 0.93), (MIX_TBAR7_MIN4, 0.93)])
    def test_irregular_bch_mixture(self, dist, expect):
        n_c = 1000
        spec = preset_hpc(n_c, dist)
        dims = []
        for t, w in dist.support():
            _, k_c, _ = bch_params(BchComponentParams(10, 23, t))
            dims.extend([k_c - 1] * int(round(w * n_c)))
        bound = rate_lower_bound(spec, dims)
        assert abs(bound - expect) < 0.005

    def test_dims_length_checked(self):
        with pytest.raises(ValueError):
            rate_lower_bound(preset_hpc(5, 2), [3, 3])


class TestSerialization:
    def test_roundtrip_bit_exact(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            text = spec_to_json(spec)
            again = spec_from_json(text)
            assert spec_to_json(again) == text
            assert np.array_equal(spec.eta, again.eta)
            assert np.array_equal(spec.gamma, again.gamma)
            assert spec.tau == again.tau
            assert spec.n == again.n

    def test_fields(self):
        doc = json.loads(spec_to_json(preset_staircase(6, 36, 3)))
        assert set(doc) == {"eta", "gamma", "tau", "n", "assignment"}
        assert doc["assignment"] == "deterministic"
        assert doc["tau"][0] == {"3": 1.0}

    def test_hash_stable(self):
        a = spec_hash(preset_hpc(100, 4))
        b = spec_hash(preset_hpc(100, 4))
        c = spec_hash(preset_hpc(100, 5))
        assert a == b != c

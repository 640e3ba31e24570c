import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest

from gpclab.codespec import (
    GpcSpec,
    block_array_eta,
    cn_counts,
    cn_degrees,
    code_length,
    erasure_scaling,
    mean_capability,
    preset_braided,
    preset_from_block_array,
    preset_hpc,
    preset_pc,
    preset_staircase,
    spec_from_json,
    spec_hash,
    spec_to_json,
)
from gpclab.graphsim import monte_carlo, sample_residual
from gpclab.poisson import CapabilityDistribution
from codespec_reference import (
    BchComponentParams,
    bch_params,
    hpc_rate_lower_bound,
    rate_lower_bound,
)
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

    def test_staircase_matrix(self):
        assert np.array_equal(preset_staircase(6, 36, 3).eta, STAIRCASE_6)

    def test_braided_matrix(self):
        assert np.array_equal(preset_braided(8, 80, 3).eta, BRAIDED_8)

    def test_braided_parity_rejected(self):
        with pytest.raises(ValueError, match="braided needs even L >= 4, got 7"):
            preset_braided(7, 70, 3)
        with pytest.raises(ValueError, match="braided needs even L >= 4, got 2"):
            preset_braided(2, 20, 3)

    def test_staircase_size_rejected(self):
        with pytest.raises(ValueError, match="staircase needs L >= 2, got 1"):
            preset_staircase(1, 10, 3)

    def test_block_array_presets_pinned(self):
        # the staircase and braided presets are built as block arrays; their
        # spec JSON matches, byte for byte, what the direct constructions gave
        docs = [spec_to_json(preset_staircase(L, 10 * L, 3)) for L in range(2, 120)]
        docs += [spec_to_json(preset_braided(L, 10 * L, 3)) for L in range(4, 119, 2)]
        docs.append(spec_to_json(preset_from_block_array(np.ones((3, 2), dtype=int), 20, 3)))
        assert hashlib.sha256("".join(docs).encode()).hexdigest() == (
            "ec20bbeb1046b40e7873ad5e5745bfd4504a3f86f012689c5396fbb42ec9f8aa")


class TestValidate:
    """A spec is checked when it is built: an invalid one never exists."""

    def test_staircase_valid(self):
        spec = preset_staircase(6, 36, 3)
        assert spec.num_positions == 6

    def test_zero_row_invalid(self):
        eta = np.array([[0, 0], [0, 1]])
        with pytest.raises(ValueError, match="unconnected"):
            GpcSpec(eta, np.array([0.5, 0.5]),
                    (CapabilityDistribution.point_mass(2),) * 2, 10)

    def test_block_diagonal_invalid(self):
        eta = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="reducible"):
            GpcSpec(eta, np.array([0.5, 0.5]),
                    (CapabilityDistribution.point_mass(2),) * 2, 10)

    def test_asymmetric_invalid(self):
        eta = np.array([[0, 1], [0, 1]])
        with pytest.raises(ValueError, match="symmetric"):
            GpcSpec(eta, np.array([0.5, 0.5]),
                    (CapabilityDistribution.point_mass(2),) * 2, 10)

    def test_deterministic_integrality_enforced(self):
        # 0.3 / 0.7 of n = 10 CNs cannot host a 50/50 capability split
        tau = CapabilityDistribution.from_dict({2: 0.5, 3: 0.5})
        with pytest.raises(ValueError, match="not integral"):
            GpcSpec(np.array([[0, 1], [1, 0]]), np.array([0.3, 0.7]),
                    (tau, tau), 10, tau_assignment="deterministic")
        relaxed = GpcSpec(np.array([[0, 1], [1, 0]]), np.array([0.3, 0.7]),
                          (tau, tau), 10, tau_assignment="random")
        assert relaxed.tau_assignment == "random"

    def test_gamma_sum_checked(self):
        with pytest.raises(ValueError) as err:
            GpcSpec(np.array([[1]]), np.array([0.9]),
                    (CapabilityDistribution.point_mass(2),), 10)
        assert str(err.value) == "invalid spec: gamma must sum to 1, got 0.9"

    @pytest.mark.parametrize("assignment", ["deterministic", "random"])
    def test_gamma_must_be_finite(self, assignment):
        # NaN passes both the sign and the sum check; the deterministic
        # integrality check then raised "cannot convert float NaN to integer"
        with pytest.raises(ValueError) as err:
            GpcSpec(np.array([[0, 1], [1, 0]]), np.full(2, np.nan),
                    (CapabilityDistribution.point_mass(3),) * 2, 100, assignment)
        assert str(err.value) == "invalid spec: gamma entries must be finite"

    def test_every_violation_named(self):
        eta = np.array([[0, 1], [0, 1]])
        with pytest.raises(ValueError, match="symmetric") as err:
            GpcSpec(eta, np.array([0.5, 0.6]),
                    (CapabilityDistribution.point_mass(2),) * 2, 10)
        assert str(err.value).startswith("invalid spec: ")
        assert "gamma must sum to 1" in str(err.value)

    def test_replace_revalidates(self):
        spec = preset_staircase(6, 36, 3)
        with pytest.raises(ValueError, match="gamma must sum to 1"):
            dataclasses.replace(spec, gamma=np.full(6, 0.15))

    def test_json_load_validates(self):
        doc = json.loads(spec_to_json(preset_pc(10, (0.5, 0.5), 2)))
        doc["eta"] = [[0, 1], [0, 1]]
        with pytest.raises(ValueError, match="invalid spec: eta must be symmetric"):
            spec_from_json(json.dumps(doc))


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

    @staticmethod
    def rounded_spec():
        # 10 CNs split 1/3 : 2/3 round to 3 and 7
        tau = CapabilityDistribution.point_mass(2)
        return GpcSpec(np.array([[0, 1], [1, 0]]), np.array([1 / 3, 2 / 3]),
                       (tau, tau), 10, tau_assignment="random")

    def test_random_assignment_rounds_counts_with_warning(self):
        import warnings as w

        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            counts = cn_counts(self.rounded_spec())
        assert counts.tolist() == [3, 7]
        assert any("rounded" in str(c.message) for c in caught)

    @pytest.mark.parametrize("call", [
        lambda spec: sample_residual(spec, 2.0, 0),
        lambda spec: monte_carlo(spec, 2.0, 3, 4, 0, jobs=1),
    ], ids=["sample_residual", "monte_carlo"])
    def test_rounding_warning_names_the_caller(self, call):
        # the sampler and code_length round the counts inside the package;
        # each warning names this file, not a line of gpclab
        import warnings as w

        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            call(self.rounded_spec())
        assert caught and all(c.filename == __file__ for c in caught)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_monte_carlo_warns_once_for_any_jobs(self, jobs):
        # every block rounds the counts again, in a worker when jobs > 1: one
        # jobs = 1 run of 4 blocks warned 12 times, and jobs = 2 not at all
        # in this process (each worker warned, naming concurrent.futures)
        import warnings as w

        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            monte_carlo(self.rounded_spec(), 1.0, 5, 8, 0, jobs=jobs)
        assert [c.filename for c in caught] == [__file__]
        assert "rounded non-integral CN counts" in str(caught[0].message)

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
        assert mean_capability(preset_hpc(9, uniform)) == pytest.approx(5.0, abs=1e-12)
        assert abs(mean_capability(preset_hpc(1000, MIX_TBAR7)) - 7.0) < 0.05


class TestCapabilityTable:
    """``GpcSpec.tau_table``, the one capability table that DE, the refined
    bound, the branching oracle and the sampler read."""

    @staticmethod
    def assert_matches_support(spec):
        table = spec.tau_table
        assert table.shape == (spec.num_positions, spec.t_max)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.5
        for row, dist in zip(table, spec.tau):
            got = [(int(k) + 1, float(row[k])) for k in np.flatnonzero(row)]
            assert got == dist.support()

    def test_matches_support_on_random_specs(self, rng):
        for _ in range(30):
            self.assert_matches_support(random_spec(rng))

    def test_zero_padded_mixtures(self):
        # a mixture's trailing zeros are dropped, and a shorter row is padded
        # with zeros up to the spec's t_max
        padded = CapabilityDistribution((0.0, 0.5, 0.0, 0.5, 0.0, 0.0))
        spec = GpcSpec(eta=STAIRCASE_6[:3, :3], gamma=np.full(3, 1 / 3), n=3000,
                       tau=(padded, CapabilityDistribution.point_mass(7), MIX_TBAR7_MIN4))
        self.assert_matches_support(spec)
        assert spec.tau_table.shape == (3, 10)
        assert spec.tau_table[0].tolist() == [0.0, 0.5, 0.0, 0.5] + [0.0] * 6

    def test_built_once_and_outside_the_json(self):
        spec = preset_staircase(6, 36, 3)
        text = spec_to_json(spec)
        assert spec.tau_table is spec.tau_table
        assert spec_to_json(spec) == text
        assert "tau_table" not in {f.name for f in dataclasses.fields(spec)}


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
        assert np.array_equal(eta, STAIRCASE_6)
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
    def test_pickle_keeps_arrays_read_only(self):
        # pool workers get specs by pickle: the round trip goes through the
        # constructor and leaves the cached capability table behind
        spec = preset_staircase(6, 36, 3)
        table = spec.tau_table
        again = pickle.loads(pickle.dumps(spec))
        assert "tau_table" not in again.__dict__
        assert spec_to_json(again) == spec_to_json(spec) and again.tau == spec.tau
        assert np.array_equal(again.tau_table, table)
        for arr in (again.eta, again.gamma, again.tau_table):
            assert not arr.flags.writeable

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

    @pytest.mark.parametrize("field,value,shown", [
        ("n", 36.9, "36.9"), ("n", True, "true"), ("eta", [[0, 1.7], [1, 0]], "1.7"),
        ("eta", [[0, True], [True, 0]], "true"), ("eta", [[0, 1], [1, False]], "false"),
    ])
    def test_integer_fields_not_truncated(self, field, value, shown):
        # int() and an int64 cast read 36.9 as 36 and true as 1
        doc = json.loads(spec_to_json(preset_pc(36, (0.5, 0.5), 2)))
        doc[field] = value
        with pytest.raises(ValueError) as err:
            spec_from_json(json.dumps(doc))
        assert str(err.value) == f"spec field {field!r}: {shown} is not an integer"

    def test_integral_floats_read_as_integers(self):
        spec = preset_pc(36, (0.5, 0.5), 2)
        doc = json.loads(spec_to_json(spec))
        doc["n"], doc["eta"] = 36.0, [[0.0, 1.0], [1.0, 0.0]]
        again = spec_from_json(json.dumps(doc))
        assert again.n == 36 and type(again.n) is int
        assert again.eta.dtype == np.int64 and spec_to_json(again) == spec_to_json(spec)

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

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpclab import branching, de
from gpclab.branching import TreeSizeLimit, survival_mc
from gpclab.codespec import GpcSpec, preset_hpc, preset_pc, preset_staircase
from gpclab.graphsim import peel, sample_residual
from gpclab.poisson import CapabilityDistribution
from de_reference import de_step_per_type
from tree_reference import (
    TypedTree,
    peel_tree,
    reference_survival_mc,
    sample_tree,
    total_progeny_samples,
    total_progeny_second_moment,
    tree_to_graph,
)

# two positions with capability mixtures, assigned at random
MIXTURE_SPEC = GpcSpec(
    eta=np.array([[1, 1], [1, 0]], dtype=np.int64),
    gamma=np.array([0.4, 0.6]),
    tau=(CapabilityDistribution.from_dict({1: 0.25, 3: 0.75}),
         CapabilityDistribution.from_dict({2: 0.5, 5: 0.5})),
    n=100,
    tau_assignment="random",
)


def chain_tree(caps):
    """Path root -> child -> grandchild ... with given capabilities."""
    n = len(caps)
    return TypedTree(
        parent=np.array([-1] + list(range(n - 1)), dtype=np.int64),
        position=np.zeros(n, dtype=np.int64),
        capability=np.array(caps, dtype=np.int64),
        depth=np.arange(n, dtype=np.int64),
    )


def star_tree(t_root, t_leaf, leaves):
    return TypedTree(
        parent=np.array([-1] + [0] * leaves, dtype=np.int64),
        position=np.zeros(leaves + 1, dtype=np.int64),
        capability=np.array([t_root] + [t_leaf] * leaves, dtype=np.int64),
        depth=np.array([0] + [1] * leaves, dtype=np.int64),
    )


class TestSampleTree:
    def test_depth_zero_single_root(self):
        tree = sample_tree(preset_hpc(100, 4), 3.0, depth=0, seed=1)
        assert tree.num_nodes == 1
        assert tree.parent.tolist() == [-1]

    def test_offspring_mean_matches_channel(self):
        # single-position family: every node spawns Poisson(c) children
        c, trees = 3.0, 4000
        total_children = 0
        for s in range(trees):
            tree = sample_tree(preset_hpc(100, 4), c, depth=1, seed=s)
            total_children += tree.num_nodes - 1
        mean = total_children / trees
        assert abs(mean - c) < 3 * math.sqrt(c / trees)

    def test_generation_growth(self):
        # mean node count at depth ell tracks c^ell
        c, ell, trees = 2.0, 3, 3000
        counts = []
        for s in range(trees):
            tree = sample_tree(preset_hpc(100, 4), c, depth=ell, seed=10_000 + s)
            counts.append(int((tree.depth == ell).sum()))
        mean = np.mean(counts)
        # Var(Z_ell) = c^(ell-1) * c * (c^ell - 1)/(c - 1) for c != 1
        var = c**ell * (c**ell - 1) / (c - 1)
        assert abs(mean - c**ell) < 3 * math.sqrt(var / trees)

    def test_positions_respect_coupling(self):
        spec = preset_staircase(5, 25, 2)
        for s in range(30):
            tree = sample_tree(spec, 4.0, depth=3, seed=s)
            for v in range(1, tree.num_nodes):
                p = tree.parent[v]
                assert spec.eta[tree.position[p], tree.position[v]] == 1

    def test_node_cap_aborts(self):
        with pytest.raises(TreeSizeLimit):
            sample_tree(preset_hpc(100, 4), 25.0, depth=6, seed=0, node_cap=500)


class TestPeelTree:
    def test_bare_root_removed(self):
        for t in (1, 3, 9):
            assert peel_tree(chain_tree([t]), 1) is False

    def test_zero_iterations_keep_root(self):
        assert peel_tree(chain_tree([2]), 0) is True

    def test_star_with_t_plus_one_leaves(self):
        # leaves are childless and die at depth 1; the root then sees zero
        # survivors and is removed no matter how many leaves it started with
        t = 3
        assert peel_tree(star_tree(t, 5, t + 1), 2) is False

    def test_star_single_round_survives(self):
        # with only one iteration the leaves are never evaluated: they all
        # survive, so a root with > t children keeps failing
        t = 3
        assert peel_tree(star_tree(t, 1, t + 1), 1) is True
        assert peel_tree(star_tree(t, 1, t), 1) is False

    def test_double_chain_unwinds_one_level_per_iteration(self):
        # root with two depth-3 arms, capability 1 everywhere: the arms burn
        # down one level per iteration, so the root falls exactly at ell = 4
        tree = TypedTree(
            parent=np.array([-1, 0, 0, 1, 2, 3, 4], dtype=np.int64),
            position=np.zeros(7, dtype=np.int64),
            capability=np.ones(7, dtype=np.int64),
            depth=np.array([0, 1, 1, 2, 2, 3, 3], dtype=np.int64),
        )
        assert peel_tree(tree, 1) is True
        assert peel_tree(tree, 2) is True
        assert peel_tree(tree, 3) is True
        assert peel_tree(tree, 4) is False

    def test_agrees_with_graph_peeling(self, rng):
        spec_a = preset_hpc(100, 2)
        spec_b = preset_staircase(4, 16, 2)
        checked = 0
        for k in range(500):
            spec = spec_a if k % 2 else spec_b
            ell = int(rng.integers(1, 5))
            tree = sample_tree(spec, 2.5, depth=ell, seed=7000 + k)
            graph = tree_to_graph(tree)
            survivors = set(peel(graph, ell).survivors.tolist())
            assert peel_tree(tree, ell) == (0 in survivors)
            checked += 1
        assert checked == 500


class TestSurvivalMc:
    def test_matches_de_failure_probability(self):
        spec = preset_hpc(100, 4)
        c = 5.0
        traj = de.de_run(spec, c, ell_max=4)
        for ell in (1, 2, 3, 4):
            est = survival_mc(spec, c, ell, trees=100_000, master_seed=42)
            z = float(traj.z[ell])
            assert abs(est.mean - z) <= 3 * est.stderr + 1e-12

    def test_per_type_roots_match_typed_recursion(self):
        spec = preset_staircase(3, 12, 2)
        c, ell = 3.5, 3
        x_typed = np.zeros((3, spec.t_max))
        for i, dist in enumerate(spec.tau):
            for t, _ in dist.support():
                x_typed[i, t - 1] = 1.0
        for _ in range(ell - 1):
            x_typed = de_step_per_type(spec, x_typed, c)
        # z per type: P(Pois(arg) >= t+1) with the same aggregated argument
        from poisson_reference import poisson_tail

        agg = np.zeros(3)
        for j, dist in enumerate(spec.tau):
            for t, w in dist.support():
                agg[j] += w * x_typed[j, t - 1]
        for i in (0, 1):
            lam = c * sum(
                float(spec.gamma[j]) * agg[j] for j in range(3) if spec.eta[i, j]
            )
            z_typed = poisson_tail(3, lam)  # t = 2 root needs >= t+1 survivors
            est = survival_mc(spec, c, ell, trees=60_000, master_seed=9,
                              root_type=(i, 2))
            assert abs(est.mean - z_typed) <= 3 * est.stderr + 1e-12

    def test_over_budget_level_is_never_built(self, monkeypatch):
        # levels of 100, 3e3 and 9e4 nodes fit the budget; the next one,
        # about 2.7e6 nodes (65 MB of node arrays), must raise unbuilt
        budget = 100_000
        monkeypatch.setattr(branching, "NODE_BUDGET", budget)
        tracemalloc.start()
        try:
            with pytest.raises(TreeSizeLimit):
                survival_mc(preset_hpc(1000, 3), 30.0, 5, trees=100, master_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a node takes 24 bytes (position, capability, parent as int64); a
        # level is copied once while it is concatenated
        assert peak < 64 * budget

    def test_leaf_level_counts_against_budget(self, monkeypatch):
        # roots, depth 1 and depth 2 hold about 1e2 + 3e3 + 9e4 nodes, inside
        # the budget; at ell = 4 the 2.7e6 leaves alone exceed it
        monkeypatch.setattr(branching, "NODE_BUDGET", 150_000)
        spec = preset_hpc(1000, 3)
        survival_mc(spec, 30.0, 3, trees=100, master_seed=1)
        with pytest.raises(TreeSizeLimit):
            survival_mc(spec, 30.0, 4, trees=100, master_seed=1)

    @pytest.mark.parametrize("name,spec,c,root_type", [
        ("hpc", preset_hpc(1000, 4), 5.0, None),
        ("staircase", preset_staircase(6, 36, 3), 12.0, None),
        ("pc", preset_pc(100, t_row=2, t_col=4), 7.0, None),
        ("mixture", MIXTURE_SPEC, 5.0, None),
        ("mixture-pinned", MIXTURE_SPEC, 5.0, (1, 2)),
    ])
    def test_agrees_with_level_by_level_reference(self, name, spec, c, root_type):
        for ell in (1, 2, 3, 4):
            new = survival_mc(spec, c, ell, trees=30_000, master_seed=17,
                              root_type=root_type)
            ref = reference_survival_mc(spec, c, ell, trees=30_000, master_seed=18,
                                        root_type=root_type)
            tol = 4 * math.sqrt(new.stderr**2 + ref.stderr**2)
            assert abs(new.mean - ref.mean) <= tol, (name, ell, new, ref)

    def test_z_scores_over_seeds(self, monkeypatch):
        # independent seeds give z-scores against DE with mean 0 and sd 1;
        # children whose parents are drawn in a correlated way, or batches
        # that share a stream, widen them; 5 batches, so 5 streams, per estimate
        monkeypatch.setattr(branching, "BATCH_SIZE", 1000)
        spec = preset_hpc(1000, 4)
        c, ell, trees = 5.0, 3, 5000
        z_de = float(de.de_run(spec, c, ell_max=ell, success_epsilon=0.0).z[ell])
        zs = []
        for seed in range(1000, 1040):
            est = survival_mc(spec, c, ell, trees=trees, master_seed=seed)
            zs.append((est.mean - z_de) / est.stderr)
        assert abs(np.mean(zs)) <= 0.5
        assert 0.7 <= np.std(zs, ddof=1) <= 1.3

    def test_certain_estimate_has_zero_stderr(self):
        est = survival_mc(preset_hpc(100, 3), 0.01, 2, trees=1000, master_seed=3)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_depth_zero(self):
        est = survival_mc(preset_hpc(10, 2), 1.0, 0, trees=10, master_seed=0)
        assert est.mean == 1.0

    def test_arguments_checked(self):
        spec = preset_hpc(10, 2)
        for ell, trees in ((-1, 10), (2, 0)):
            with pytest.raises(ValueError):
                survival_mc(spec, 1.0, ell, trees=trees, master_seed=0)

    @pytest.mark.parametrize("root_type", [(5, 3), (0, 9), (0, 2), (-1, 3)],
                             ids=["position_5", "capability_9", "capability_2", "position_-1"])
    @pytest.mark.parametrize("ell", [0, 3])
    def test_root_type_outside_the_spec_rejected(self, root_type, ell):
        # (5, 3) failed on a numpy broadcast, and (0, 9) returned mean 0.0 for
        # a type that preset_hpc(100, 3), all at position 0 with t = 3, lacks
        with pytest.raises(ValueError, match=r"root_type \(.*\) is not"):
            survival_mc(preset_hpc(100, 3), 4.0, ell, trees=10, master_seed=0,
                        root_type=root_type)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -1.0])
    def test_bad_quality_rejected(self, c):
        # the same message as density evolution, not a numpy sampling error
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            survival_mc(preset_hpc(10, 2), c, 3, trees=10, master_seed=0)

    def test_deterministic(self):
        spec = preset_hpc(100, 3)
        a = survival_mc(spec, 4.0, 3, trees=20_000, master_seed=11)
        b = survival_mc(spec, 4.0, 3, trees=20_000, master_seed=11)
        assert a == b

    @pytest.mark.parametrize("spec, c, survived", [
        (preset_hpc(1000, 4), 6.0, [1775, 1413, 1102]),
        (preset_staircase(6, 36, 3), 12.0, [559, 198, 18]),
    ], ids=["hpc", "staircase"])
    def test_leaf_chunks_take_the_same_draws(self, monkeypatch, spec, c, survived):
        # leaf parents drawn 1001 at a time read the stream as one call does, so
        # the estimates match bit for bit, and so does skipping the copy of a
        # single position's leaf counts (the survivors are pinned)
        whole = [survival_mc(spec, c, ell, trees=3000, master_seed=5) for ell in (2, 3, 4)]
        assert [round(est.mean * 3000) for est in whole] == survived
        monkeypatch.setattr(branching, "LEAF_CHUNK", 1001)
        assert [survival_mc(spec, c, ell, trees=3000, master_seed=5) for ell in (2, 3, 4)] == whole

    @staticmethod
    def batch_peak(c, ell):
        tracemalloc.start()
        try:
            survival_mc(preset_hpc(1000, 4), c, ell, trees=branching.BATCH_SIZE, master_seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_batch_peak(self):
        # one batch at ell = 4 gives 1.8e6 surviving leaves to 5e5 parents,
        # drawn and counted LEAF_CHUNK (1 MB of int32) at a time: 5.5 MB
        # traced (17.1 MB with int64 counts and parents 8 MB at a time)
        assert self.batch_peak(5.0, 4) <= 8e6

    def test_one_batch_peak_at_depth_5(self):
        # the depth-3 level's 4.3e6 int32 parents and the leaves' counts; the
        # fold compares each type's nodes with its need in place, and counts
        # surviving children LEAF_CHUNK parents at a time: 44.8 MB traced
        # (113.8 MB with int64 parents and a repeat of the needs)
        assert self.batch_peak(6.0, 5) <= 50e6


class TestProgenySecondMoment:
    def test_critical_case_exact(self):
        assert total_progeny_second_moment(1.0, 2) == 14.0

    def test_critical_closed_form(self):
        for ell in range(8):
            expect = (ell + 1) * (ell + 2) * (2 * ell + 3) / 6
            assert total_progeny_second_moment(1.0, ell) == pytest.approx(
                expect, rel=1e-14
            )

    def test_depth_zero_is_one(self):
        for c in (0.25, 1.0, 3.7, 10.0):
            assert total_progeny_second_moment(c, 0) == 1.0

    def test_first_level_hand_value(self):
        # T = 1 + Pois(c): E[T^2] = 1 + 3c + c^2
        for c in (0.5, 2.0, 5.0):
            assert total_progeny_second_moment(c, 1) == pytest.approx(
                1 + 3 * c + c * c, rel=1e-13
            )

    @given(
        st.floats(min_value=0.05, max_value=6.0),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_dominates_squared_mean(self, c, ell):
        # Jensen: E[T^2] >= (E[T])^2, with E[T] the geometric sum of means
        mean = sum(c**j for j in range(ell + 1))
        assert total_progeny_second_moment(c, ell) >= mean**2 - 1e-9 * mean**2

    @pytest.mark.parametrize("c,ell", [(0.5, 3), (2.0, 3)])
    def test_monte_carlo_agreement(self, c, ell):
        samples = total_progeny_samples(c, ell, trees=1_000_000, seed=314)
        sq = samples**2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - total_progeny_second_moment(c, ell)) <= 3 * se

    def test_dominates_graph_neighborhoods(self):
        # BFS ball sizes in the finite graph are stochastically below the
        # tree sizes, so their second moment sits below the exact value
        n, c, ell, trials = 300, 2.0, 3, 300
        spec = preset_hpc(n, 2)
        vals = []
        for s in range(trials):
            graph = sample_residual(spec, c, seed=s)
            adj = [[] for _ in range(n)]
            for u, v in graph.edges:
                adj[u].append(v)
                adj[v].append(u)
            seen = {0}
            frontier = [0]
            for _ in range(ell):
                nxt = []
                for v in frontier:
                    for w in adj[v]:
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            vals.append(len(seen) ** 2)
        vals = np.array(vals, dtype=float)
        bound = total_progeny_second_moment(c, ell)
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert vals.mean() <= bound + 3 * se

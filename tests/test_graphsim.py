import hashlib
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scistats

from gpclab import de, graphsim
from gpclab.codespec import (
    GpcSpec, cn_counts, cn_degrees, preset_braided, preset_hpc, preset_pc, preset_staircase,
)
from gpclab.graphsim import (
    McStatistics,
    ResidualGraph,
    _bernoulli_indices,
    _incidence,
    _unrank_triangle,
    core_oracle,
    monte_carlo,
    peel,
    peel_scheduled,
    sample_residual,
)
from gpclab.poisson import CapabilityDistribution
from conftest import hpc_demo_graph, random_spec, time_limit
from graph_reference import (
    first_rank, reference_bernoulli_indices, reference_core_oracle, reference_exponential_indices,
    reference_unrank_triangle,
)


def make_graph(edges, caps):
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    caps = np.asarray(caps, dtype=np.int64)
    return ResidualGraph(
        vertex_position=np.zeros(len(caps), dtype=np.int64),
        vertex_capability=caps,
        edges=np.sort(edges, axis=1) if len(edges) else np.empty((0, 2), np.int64),
    )


def recount_peel(graph, ell=None):
    """The parallel peeling reference: recounts every live edge each round."""
    n = graph.num_vertices
    alive = np.ones(n, dtype=bool)
    edge_alive = np.ones(graph.num_edges, dtype=bool)
    removed = []
    while ell is None or len(removed) < ell:
        deg = np.bincount(graph.edges[edge_alive].ravel(), minlength=n)
        eligible = alive & (deg <= graph.vertex_capability)
        cnt = int(eligible.sum())
        if cnt == 0:
            break
        alive[eligible] = False
        edge_alive &= alive[graph.edges[:, 0]] & alive[graph.edges[:, 1]]
        removed.append(cnt)
    return (float(alive.sum()) / n if n else 0.0, tuple(removed),
            int(edge_alive.sum()), len(removed), np.nonzero(alive)[0].tolist())


def recount_peel_scheduled(graph, schedule):
    """Scheduled peeling reference with the same full recount per round."""
    n = graph.num_vertices
    alive = np.ones(n, dtype=bool)
    edge_alive = np.ones(graph.num_edges, dtype=bool)
    failed = np.ones(n, dtype=bool)
    removed = []
    for active in schedule.active_sets:
        mask = np.isin(graph.vertex_position, list(active))
        deg = np.bincount(graph.edges[edge_alive].ravel(), minlength=n)
        eligible = alive & mask & (deg <= graph.vertex_capability)
        cnt = int(eligible.sum())
        if cnt:
            alive[eligible] = False
            edge_alive &= alive[graph.edges[:, 0]] & alive[graph.edges[:, 1]]
        removed.append(cnt)
        failed[mask] = alive[mask]
        if not alive.any():
            break
    return (float(failed.sum()) / n if n else 0.0, tuple(removed),
            int(edge_alive.sum()), len(removed), np.nonzero(alive)[0].tolist())


def fields(result):
    return (result.failed_fraction, result.removed_per_round, result.surviving_edges,
            result.rounds_run, result.survivors.tolist())


# (spec, c below threshold, c above threshold where peeling gets stuck)
REFERENCE_FAMILIES = [
    (preset_hpc(400, 4), 5.0, 7.5),
    (preset_pc(400, (0.5, 0.5), 3), 7.0, 13.0),
    (preset_staircase(6, 60, 3), 12.0, 24.0),
]


class TestDemoFixture:
    def test_weak_components_get_stuck_after_one_round(self):
        result = peel(hpc_demo_graph(1))
        assert result.removed_per_round == (2,)
        assert result.rounds_run == 1
        assert result.failed_fraction == pytest.approx(0.6)
        assert result.survivors.tolist() == [0, 2, 4]

    def test_stronger_components_finish_in_two_rounds(self):
        result = peel(hpc_demo_graph(2))
        assert result.removed_per_round == (3, 2)
        assert result.rounds_run == 2
        assert result.failed_fraction == 0.0
        assert result.surviving_edges == 0


class TestSampling:
    def test_zero_channel_is_empty(self):
        graph = sample_residual(preset_hpc(50, 2), 0.0, seed=3)
        assert graph.num_edges == 0

    def test_probability_one_rejected(self):
        with pytest.raises(ValueError):
            sample_residual(preset_hpc(10, 2), 10.0, seed=0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -1.0])
    def test_bad_quality_rejected(self, c):
        # the same message as density evolution, before any draw
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            sample_residual(preset_hpc(10, 2), c, seed=0)
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            monte_carlo(preset_hpc(10, 2), c, 5, trials=2, master_seed=0)

    def test_simple_graph_structure(self, rng):
        for k in range(10):
            spec = random_spec(rng, n_scale=8)
            graph = sample_residual(spec, 3.0, seed=k)
            assert (graph.edges[:, 0] < graph.edges[:, 1]).all()
            pairs = set(map(tuple, graph.edges.tolist()))
            assert len(pairs) == graph.num_edges  # no parallel edges
            pos = graph.vertex_position
            for u, v in graph.edges:
                assert spec.eta[pos[u], pos[v]] == 1

    @pytest.mark.parametrize("spec", [
        preset_hpc(5000, 4), preset_pc(4000, (0.5, 0.5), 3), preset_staircase(6, 3600, 3),
    ], ids=["hpc", "pc", "staircase"])
    def test_edges_list_lower_end_first(self, spec):
        # no sort after sampling: every block must draw its pairs as u < v
        graph = sample_residual(spec, 6.0, seed=11)
        assert graph.num_edges > 1000
        assert (graph.edges[:, 0] < graph.edges[:, 1]).all()

    def test_pc_has_no_intra_position_edges(self):
        spec = preset_pc(60, (0.5, 0.5), 2)
        for seed in range(20):
            graph = sample_residual(spec, 4.0, seed=seed)
            pos = graph.vertex_position
            assert (pos[graph.edges[:, 0]] != pos[graph.edges[:, 1]]).all()

    def test_hpc_mean_edge_count(self):
        n, c, trials = 400, 5.5, 400
        m = n * (n - 1) // 2
        p = c / n
        counts = [sample_residual(preset_hpc(n, 4), c, seed=s).num_edges
                  for s in range(trials)]
        expect = m * p  # == (n-1) c / 2
        sigma = math.sqrt(m * p * (1 - p) / trials)
        assert abs(np.mean(counts) - expect) < 3 * sigma
        assert expect == pytest.approx((n - 1) * c / 2)

    def test_deterministic_capability_counts(self):
        from gpclab.poisson import CapabilityDistribution

        tau = CapabilityDistribution.from_dict({2: 0.25, 5: 0.75})
        spec = preset_hpc(80, tau)
        graph = sample_residual(spec, 2.0, seed=1)
        values, counts = np.unique(graph.vertex_capability, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == {2: 20, 5: 60}

    def test_unrank_triangle_exhaustive(self):
        for n in (2, 3, 5, 11):
            want = list(itertools.combinations(range(n), 2))
            ks = np.arange(len(want), dtype=np.int64)
            out = np.empty((ks.size, 2), dtype=np.int64)
            _unrank_triangle(ks, n, out)
            assert list(map(tuple, out.tolist())) == want

    # n = 2^k - 1, 2^k, 2^k + 1 up to 2^24 + 1, and 3 * 10^6
    UNRANK_SIZES = sorted({2**k + d for k in range(2, 25) for d in (-1, 0, 1)} | {3_000_000})

    @staticmethod
    def boundary_ranks(n, rows):
        """first(r) - 1, first(r) and first(r) + 1 for each row r, and the
        last rank, as a sorted int64 array of valid ranks."""
        ks = {first_rank(r, n) + d for r in rows for d in (-1, 0, 1)}
        pairs = n * (n - 1) // 2
        return np.array(sorted(k for k in ks | {pairs - 1} if 0 <= k < pairs), np.int64)

    def check_unrank(self, n, ks):
        out = np.empty((ks.size, 2), dtype=np.int64)
        _unrank_triangle(ks, n, out)
        assert out.tolist() == [list(reference_unrank_triangle(k, n)) for k in ks.tolist()]

    @pytest.mark.parametrize("n", UNRANK_SIZES)
    def test_unrank_triangle_row_boundaries(self, n):
        # the first three rows, the last two and 200 sampled ones; at 3 * 10^6
        # 30000 rows, so the ranks span two unranking chunks
        sampled = np.random.default_rng(n).integers(0, n - 1, 30000 if n > 2**24 else 200)
        self.check_unrank(n, self.boundary_ranks(n, {0, 1, 2, n - 3, n - 2, *sampled.tolist()}))

    @pytest.mark.parametrize("n", [2**27 + 1, 2**28, 2**31 + 1])
    def test_unrank_triangle_corrects_float_drift(self, n):
        # from n = 2^27 on, the float row floor((b - sqrt(b^2 - 8k)) / 2) is
        # off at some row boundaries, so the correction runs; from n = 2^28 on
        # b^2 - 8k no longer fits in 53 bits, and the last rank but one is two
        # rows off, which a single correction step left one row off
        b = 2 * n - 1
        rows = [n - 2, *np.random.default_rng(27).integers(0, n - 1, 3000).tolist()]
        ks = self.boundary_ranks(n, rows)
        float_rows = np.floor((b - np.sqrt(b * b - 8.0 * ks)) / 2.0).astype(np.int64)
        exact_rows = [reference_unrank_triangle(k, n)[0] for k in ks.tolist()]
        assert (float_rows != exact_rows).sum() > 100
        self.check_unrank(n, ks)

    def test_bernoulli_indices_density(self):
        # one exponential draw per block at every p: the count of successes
        # is Binomial(n, p), and a gap of 1 has probability p
        gen = np.random.default_rng(5)
        for p in (0.01, 0.5, 0.9):
            hits = _bernoulli_indices(gen, 200000, p)
            assert (np.diff(hits) > 0).all() and 0 <= hits[0] and hits[-1] < 200000
            assert abs(hits.size - 200000 * p) < 3 * math.sqrt(200000 * p * (1 - p))
            ones = (np.diff(hits) == 1).mean()
            assert abs(ones - p) < 4 * math.sqrt(p * (1 - p) / hits.size)

    # p -> (n_items, seed of default_rng) whose walk draws a second block of
    # gaps (at p = 1/2 about one seed in 5 million does); from p = 5/6 on a
    # block holds more gaps than there are items, so no walk draws a second
    TWO_BLOCKS = {1e-6: (40_000_000, 6460), 1e-3: (40_000, 6460), 0.1: (400, 8689),
                  0.3: (200, 11322), 1 / 3: (200, 6460), 0.5: (140, 5_059_570)}

    def check_walk(self, p, reference):
        # ranks and dtype bit for bit, and the stream left where it leaves it
        cases = [(n_items, seed) for n_items in (999, int(80 / p)) for seed in range(4)]
        for n_items, seed in cases + ([self.TWO_BLOCKS[p]] if p in self.TWO_BLOCKS else []):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _bernoulli_indices(got_rng, n_items, p)
            want, blocks = reference(want_rng, n_items, p)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert blocks == 2 or (n_items, seed) != self.TWO_BLOCKS.get(p)

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.3])
    def test_bernoulli_indices_match_the_geometric_walk(self, p):
        # below p = 1/3 numpy's rng.geometric draws its gaps by the same
        # exponential inversion
        self.check_walk(p, reference_bernoulli_indices)

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.3, 1 / 3, 0.5, 0.9])
    def test_bernoulli_indices_match_the_exponential_walk(self, p):
        # the vectorized draw is the scalar walk, one exponential per gap
        self.check_walk(p, reference_exponential_indices)

    def test_tiny_quality_samples_no_edge(self):
        # below p = c / n of about 1e-18 the gaps used to saturate at
        # INT64_MAX and the running sum wrapped negative: garbage ranks, and
        # a triangle unranking that never ended
        assert _bernoulli_indices(np.random.default_rng(0), 499500, 1e-19).size == 0
        spec, out = preset_hpc(1000, 3), []
        worker = threading.Thread(target=lambda: out.append(
            (sample_residual(spec, 1e-17, 0), monte_carlo(spec, 1e-17, 5, 4, 0))), daemon=True)
        worker.start()
        worker.join(timeout=1.0)
        assert out, "sampling at c = 1e-17 did not end within a second"
        graph, stats = out[0]
        assert graph.num_edges == 0 and graph.num_vertices == 1000
        assert stats.mean_w == 0.0 and stats.mean_edge_fraction == 0.0

    def test_degree_law_chi_square(self):
        # degrees at a position follow Binomial(d_k, c/n)
        spec = preset_pc(300, (0.5, 0.5), 3)
        n, c = 300, 4.0
        degrees_expected = cn_degrees(spec)
        counts = cn_counts(spec)
        for seed in range(20):
            graph = sample_residual(spec, c, seed=seed)
            deg = np.bincount(graph.edges.ravel(), minlength=n)
            for pos in range(2):
                sel = deg[graph.vertex_position == pos]
                d_k = int(degrees_expected[pos])
                binom = scistats.binom(d_k, c / n)
                # merge the upper tail so expected counts stay >= 5
                hi = int(binom.ppf(0.9999))
                while counts[pos] * binom.sf(hi - 1) < 5:
                    hi -= 1
                observed = np.zeros(hi + 1)
                for v in sel:
                    observed[min(v, hi)] += 1
                expected = np.array(
                    [binom.pmf(k) for k in range(hi)] + [binom.sf(hi - 1)]
                ) * sel.size
                keep = expected >= 1e-9
                chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
                p = scistats.chi2.sf(chi2, keep.sum() - 1)
                assert p > 0.001


class TestPeeling:
    def test_empty_graph(self):
        result = peel(make_graph([], []))
        assert result.failed_fraction == 0.0
        assert result.rounds_run == 0

    def test_edgeless_graph_clears_in_one_round(self):
        result = peel(make_graph([], [2, 2, 2]))
        assert result.failed_fraction == 0.0
        assert result.rounds_run == 1

    def test_complete_graph_strong_capability(self):
        n = 6
        edges = list(itertools.combinations(range(n), 2))
        result = peel(make_graph(edges, [n - 1] * n))
        assert result.rounds_run == 1
        assert result.failed_fraction == 0.0

    def test_cycle_survives_capability_one(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        result = peel(make_graph(edges, [1] * 5))
        assert result.failed_fraction == 1.0
        assert result.rounds_run == 0

    def test_tree_peels_inward(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]
        result = peel(make_graph(edges, [1] * 6))
        assert result.failed_fraction == 0.0

    def test_round_cap(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        capped = peel(make_graph(edges, [1] * 5), ell=1)
        assert capped.rounds_run == 1
        full = peel(make_graph(edges, [1] * 5))
        assert full.rounds_run > 1

    def test_monotone_rounds(self, rng):
        for k in range(10):
            spec = random_spec(rng, n_scale=10)
            graph = sample_residual(spec, 4.0, seed=100 + k)
            result = peel(graph)
            # every executed round removes something, and degrees never rise:
            # re-deriving prefix sums must match a manual replay
            assert all(cnt > 0 for cnt in result.removed_per_round)
            alive = np.ones(graph.num_vertices, dtype=bool)
            edge_alive = np.ones(graph.num_edges, dtype=bool)
            prev_deg = np.bincount(graph.edges.ravel(), minlength=graph.num_vertices)
            for _ in result.removed_per_round:
                deg = np.bincount(graph.edges[edge_alive].ravel(),
                                  minlength=graph.num_vertices)
                assert (deg <= prev_deg).all()
                eligible = alive & (deg <= graph.vertex_capability)
                alive[eligible] = False
                edge_alive &= alive[graph.edges[:, 0]] & alive[graph.edges[:, 1]]
                prev_deg = deg
            assert np.array_equal(np.nonzero(alive)[0], result.survivors)


class TestIncrementalPeeling:
    def test_incidence_matches_edge_list(self, rng):
        graphs = [make_graph([], [1, 1]), hpc_demo_graph(1)]
        graphs += [sample_residual(random_spec(rng, n_scale=8), 3.0, seed=k)
                   for k in range(6)]
        for graph in graphs:
            start, nbr = _incidence(graph)
            n = graph.num_vertices
            assert np.array_equal(np.diff(start),
                                  np.bincount(graph.edges.ravel(), minlength=n))
            assert start.dtype == np.int64 and nbr.dtype == np.int32
            for v in range(n):
                slots = range(start[v], start[v + 1])
                want = [int(u if w == v else w) for u, w in graph.edges if v in (u, w)]
                # one slot per edge, listed in increasing neighbour order
                assert nbr[slots].tolist() == sorted(want)

    @pytest.mark.parametrize("family", range(len(REFERENCE_FAMILIES)))
    def test_matches_full_recount(self, family):
        spec, c_low, c_high = REFERENCE_FAMILIES[family]
        stuck = 0
        for seed, c in itertools.product(range(3), (c_low, c_high)):
            graph = sample_residual(spec, c, seed=seed)
            for ell in (None, 1, 3, 10):
                assert fields(peel(graph, ell)) == recount_peel(graph, ell)
            L = spec.num_positions
            for schedule in (de.full_schedule(L, 12),
                             de.window_schedule(L, width=min(2, L), steps_per_slide=3)):
                assert (fields(peel_scheduled(graph, schedule))
                        == recount_peel_scheduled(graph, schedule))
            stuck += peel(graph).survivors.size > 0
        assert stuck >= 3  # the above-threshold graphs keep a core


class TestIncidenceKeyWidth:
    @pytest.mark.parametrize("num_vertices", [32767, 32768, 32769])
    def test_matches_a_stable_argsort(self, num_vertices):
        # a key (end << b) | neighbour carries b = (num_vertices - 1).bit_length()
        # neighbour bits: the keys of up to 32768 vertices fit in 31 bits,
        # those of 32769 do not
        rng = np.random.default_rng(num_vertices)
        u = rng.integers(0, num_vertices - 1, size=1 << 19)
        edges = np.stack([u, rng.integers(u + 1, num_vertices)], axis=1)
        zeros = np.zeros(num_vertices, dtype=np.int64)
        start, nbr = _incidence(ResidualGraph(zeros, zeros, edges))
        ends = edges.ravel()
        assert ends.max() == num_vertices - 1
        counts = np.bincount(ends, minlength=num_vertices)
        assert start.dtype == np.int64 and np.array_equal(start[1:], np.cumsum(counts))
        # each vertex's neighbours in edge order, then sorted vertex by vertex
        order = np.argsort(ends, kind="stable")
        want = ends[order ^ 1]
        want = want[np.lexsort((want, ends[order]))]
        assert nbr.dtype == np.int32 and np.array_equal(nbr, want)
        # 4 B per slot: the int64 keys' buffer shrank to the neighbour list
        assert (nbr if nbr.base is None else nbr.base).nbytes == 4 * nbr.size


class TestTracedIncidence:
    """A tracer or profiler holds one more reference to the incidence's keys,
    so the int64 keys of more than 32768 vertices cannot shrink in place."""

    @pytest.fixture(scope="class")
    def graph(self):
        return sample_residual(preset_hpc(40000, 4), 6.0, 1)

    @pytest.mark.parametrize("hooks", [(sys.settrace, sys.gettrace),
                                       (sys.setprofile, sys.getprofile)],
                             ids=["settrace", "setprofile"])
    def test_peel_matches_untraced(self, graph, hooks):
        fresh = lambda: ResidualGraph(graph.vertex_position, graph.vertex_capability, graph.edges)
        want = fields(peel(fresh()))
        set_hook, get_hook = hooks
        old = get_hook()
        set_hook(lambda *args: None)
        try:
            got = fields(peel(fresh()))
        finally:
            set_hook(old)
        assert got == want

    def test_rounds_past_one_removal_pass(self, graph):
        # the first round removes more vertices than one pass of _removal holds
        result = fields(peel(graph))
        assert result[1][0] > 1 << 13
        assert result == recount_peel(graph)


class TestKeptIncidence:
    def test_one_incidence_per_graph(self, monkeypatch):
        spec, _, c_high = REFERENCE_FAMILIES[2]  # staircase: peeling gets stuck
        graph = sample_residual(spec, c_high, seed=11)
        schedule = de.window_schedule(spec.num_positions, width=2, steps_per_slide=3)
        calls = []
        build = graphsim._incidence
        monkeypatch.setattr(graphsim, "_incidence", lambda g: calls.append(g) or build(g))
        phases = [lambda g: fields(peel(g)), lambda g: fields(peel(g, 3)),
                  lambda g: core_oracle(g).tolist(),
                  lambda g: fields(peel_scheduled(g, schedule))]
        got = [phase(graph) for phase in phases]
        assert len(calls) == 1 and calls[0] is graph
        for phase, want in zip(phases, got):
            fresh = ResidualGraph(graph.vertex_position, graph.vertex_capability, graph.edges)
            assert phase(fresh) == want
        assert len(calls) == 1 + len(phases)
        assert got[2] and got[0][4] == got[2]  # a nonempty core, the fixpoint's survivors


class TestScheduledPeeling:
    def test_full_schedule_matches_plain(self, rng):
        for k in range(8):
            spec = random_spec(rng, n_scale=10)
            graph = sample_residual(spec, 4.5, seed=200 + k)
            plain = peel(graph)
            sched = peel_scheduled(
                graph, de.full_schedule(spec.num_positions, plain.rounds_run + 2)
            )
            assert np.array_equal(plain.survivors, sched.survivors)
            assert plain.failed_fraction == sched.failed_fraction
            assert plain.surviving_edges == sched.surviving_edges

    def test_one_mask_per_distinct_active_set(self, monkeypatch):
        # a window schedule repeats each active set steps_per_slide times
        spec, _, c_high = REFERENCE_FAMILIES[2]  # staircase: peeling gets stuck
        graph = sample_residual(spec, c_high, seed=4)
        schedule = de.window_schedule(spec.num_positions, width=2, steps_per_slide=3)
        want = recount_peel_scheduled(graph, schedule)
        isin, calls = np.isin, []
        monkeypatch.setattr(np, "isin", lambda *a, **k: calls.append(a) or isin(*a, **k))
        assert fields(peel_scheduled(graph, schedule)) == want
        assert want[3] == len(schedule.active_sets)  # every step ran
        # one call checks coverage, one builds each distinct set's mask
        assert len(calls) == 1 + len(set(schedule.active_sets)) < len(schedule.active_sets)

    def test_window_never_touches_outside(self):
        spec = preset_staircase(6, 60, 2)
        graph = sample_residual(spec, 4.0, seed=9)
        sched = de.window_schedule(6, width=2, steps_per_slide=1)
        # replay manually: removals must stay inside the active window
        alive = np.ones(graph.num_vertices, dtype=bool)
        edge_alive = np.ones(graph.num_edges, dtype=bool)
        for active in sched.active_sets:
            deg = np.bincount(graph.edges[edge_alive].ravel(),
                              minlength=graph.num_vertices)
            eligible = (alive & np.isin(graph.vertex_position, list(active))
                        & (deg <= graph.vertex_capability))
            outside = ~np.isin(graph.vertex_position, list(active))
            assert not (eligible & outside).any()
            alive[eligible] = False
            edge_alive &= alive[graph.edges[:, 0]] & alive[graph.edges[:, 1]]
        result = peel_scheduled(graph, sched)
        assert np.array_equal(result.survivors, np.nonzero(alive)[0])

    def test_hand_traced_row_column_passes(self):
        # two-position instance, rows then columns then rows
        graph = ResidualGraph(
            vertex_position=np.array([0, 0, 0, 1, 1, 1]),
            vertex_capability=np.ones(6, dtype=np.int64),
            edges=np.array([[0, 3], [0, 4], [1, 3], [2, 5]]),
        )
        two_pass = peel_scheduled(
            graph, de.Schedule((frozenset({0}), frozenset({1})))
        )
        assert two_pass.removed_per_round == (2, 3)
        assert two_pass.survivors.tolist() == [0]
        # vertex 0 was only active in round 1 where it still failed
        assert two_pass.failed_fraction == pytest.approx(1 / 6)
        three_pass = peel_scheduled(
            graph, de.Schedule((frozenset({0}), frozenset({1}), frozenset({0})))
        )
        assert three_pass.removed_per_round == (2, 3, 1)
        assert three_pass.failed_fraction == 0.0

    def test_schedule_may_cover_positions_without_vertices(self):
        # position 2 has gamma = 0, so no component sits there, and a graph
        # with no vertices has no position at all; de_run takes the schedule
        eta = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        spec = GpcSpec(eta=eta, gamma=(0.5, 0.5, 0.0),
                       tau=(CapabilityDistribution.point_mass(2),) * 3, n=40)
        graph = sample_residual(spec, 3.0, 0)
        assert set(graph.vertex_position.tolist()) == {0, 1}
        plain = peel(graph)
        schedule = de.full_schedule(3, plain.rounds_run + 2)
        de.de_run(spec, 3.0, schedule=schedule)
        sched = peel_scheduled(graph, schedule)
        assert np.array_equal(sched.survivors, plain.survivors)
        assert sched.failed_fraction == plain.failed_fraction
        empty = ResidualGraph(vertex_position=np.zeros(0, dtype=np.int64),
                              vertex_capability=np.zeros(0, dtype=np.int64),
                              edges=np.zeros((0, 2), dtype=np.int64))
        none_left = peel_scheduled(empty, schedule)
        assert none_left.failed_fraction == 0.0 and none_left.survivors.size == 0
        # a position that holds vertices must still be covered
        with pytest.raises(ValueError, match="cover every position present"):
            peel_scheduled(graph, de.Schedule((frozenset({0, 2}),)))

    def test_frozen_failure_status_persists(self):
        # position 0 never reactivated: its survivor keeps the old failure flag
        graph = ResidualGraph(
            vertex_position=np.array([0, 1]),
            vertex_capability=np.array([1, 1]),
            edges=np.array([[0, 1]]),
        )
        result = peel_scheduled(
            graph, de.Schedule((frozenset({1}), frozenset({0}), frozenset({1})))
        )
        # round 1: vertex 1 removable (degree 1), vertex 0 frozen-failed;
        # round 2: vertex 0 degree 0, removed; round 3: nothing left
        assert result.failed_fraction == 0.0


def assert_core(graph):
    """The package oracle, the stack reference and `peel` agree; returns the core."""
    core = core_oracle(graph)
    assert np.array_equal(core, reference_core_oracle(graph))
    assert np.array_equal(core, peel(graph).survivors)
    return core


class TestCoreOracle:
    def test_cycle_is_two_core(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        assert assert_core(make_graph(edges, [1] * 5)).tolist() == [0, 1, 2, 3, 4]

    def test_tree_fully_peels(self):
        edges = [(0, 1), (1, 2), (2, 3), (1, 4)]
        assert assert_core(make_graph(edges, [1] * 5)).size == 0

    def test_empty_graph(self):
        core = assert_core(make_graph([], []))
        assert core.size == 0 and core.dtype == np.int64

    def test_vertices_without_edges(self):
        # degree 0 is at most any capability, 0 included
        assert assert_core(make_graph([], [0, 1, 3, 0])).size == 0

    def test_capability_zero(self):
        # a capability-0 vertex goes only once it has no neighbour left: the
        # triangle of them stays; the star centre goes after its leaves
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (3, 6)]
        core = assert_core(make_graph(edges, [0, 0, 0, 0, 1, 1, 1]))
        assert core.tolist() == [0, 1, 2]

    def test_slack_below_zero_in_one_batch(self):
        # the odd centre 1 has slack 4 - 2 = 2; the even batch removes its
        # four leaves at once and takes it to -2, and it must still go; the
        # K4 on 7..10 with capability 2 is the core
        edges = [(0, 1), (1, 2), (1, 4), (1, 6)]
        edges += [(u, v) for u in range(7, 11) for v in range(u + 1, 11)]
        caps = [1, 2, 1, 0, 1, 0, 1, 2, 2, 2, 2]
        assert assert_core(make_graph(edges, caps)).tolist() == [7, 8, 9, 10]

    def test_staircase_nonempty_core(self):
        graph = sample_residual(preset_staircase(6, 600, 3), 24.0, seed=11)
        core = assert_core(graph)
        assert 0 < core.size < graph.num_vertices

    @pytest.mark.parametrize("family", range(len(REFERENCE_FAMILIES)))
    def test_matches_nonempty_parallel_core(self, family):
        spec, _, c_high = REFERENCE_FAMILIES[family]
        for seed in range(3):
            graph = sample_residual(spec, c_high, seed=seed)
            assert assert_core(graph).size > 0

    def test_matches_parallel_fixpoint(self, rng):
        for k in range(60):
            spec = random_spec(rng, n_scale=6)
            graph = sample_residual(spec, rng.uniform(1.0, 6.0), seed=300 + k)
            assert_core(graph)


class TestMonteCarlo:
    def test_zero_channel_exact(self):
        stats = monte_carlo(preset_hpc(200, 3), 0.0, ell=5, trials=5, master_seed=1)
        assert stats.mean_w == 0.0
        assert stats.se_w == 0.0

    def test_bitwise_reproducible(self):
        spec = preset_hpc(300, 3)
        a = monte_carlo(spec, 4.0, ell=8, trials=12, master_seed=77)
        b = monte_carlo(spec, 4.0, ell=8, trials=12, master_seed=77)
        assert a == b

    def test_worker_count_invariant(self):
        spec = preset_hpc(300, 3)
        serial = monte_carlo(spec, 4.5, ell=8, trials=8, master_seed=5, jobs=1)
        parallel = monte_carlo(spec, 4.5, ell=8, trials=8, master_seed=5, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("trials", [13, 1])
    def test_blocks_of_trials_do_not_change_statistics(self, trials):
        # blocks of max(1, trials // (4 jobs)) trials: 3, 1 and 1 for 13
        # trials; one trial asks for more workers than trials
        spec = preset_hpc(300, 3)
        serial = monte_carlo(spec, 4.5, ell=8, trials=trials, master_seed=5, jobs=1)
        assert serial.se_w > 0 or trials == 1
        for jobs in (2, 3):
            assert monte_carlo(spec, 4.5, ell=8, trials=trials, master_seed=5, jobs=jobs) == serial

    def test_supercritical_agreement_with_de(self):
        # above threshold the failed fraction settles at the DE prediction;
        # complements the subcritical (near-zero) acceptance comparison
        n, c, ell, trials = 2000, 7.5, 10, 60
        spec = preset_hpc(n, 4)
        traj = de.de_run(spec, c, ell_max=ell, success_epsilon=0.0)
        z_ell = float(traj.z[ell])
        x_sq = float(traj.x[ell][0]) ** 2
        stats = monte_carlo(spec, c, ell, trials, master_seed=606)
        assert z_ell > 0.1
        assert abs(stats.mean_w - z_ell) <= 3 * stats.se_w + 5 / math.sqrt(n)
        assert abs(stats.mean_scaled_ber - x_sq) <= (
            3 * stats.se_scaled_ber + 5 / math.sqrt(n)
        )

    def test_concentration_with_size(self):
        # supercritical point: the failed fraction tightens as n grows
        c, ell, trials = 7.5, 10, 60
        small = [peel(sample_residual(preset_hpc(500, 4), c, seed=s), ell).failed_fraction
                 for s in range(trials)]
        large = [peel(sample_residual(preset_hpc(2000, 4), c, seed=s), ell).failed_fraction
                 for s in range(trials)]
        assert np.std(large, ddof=1) < np.std(small, ddof=1)

    def test_trials_required(self):
        with pytest.raises(ValueError):
            monte_carlo(preset_hpc(10, 2), 1.0, 1, 0, 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_variable_node_refused(self, jobs):
        # one CN of degree 0: the scaled BER divided by c * m = 0 in a block
        with pytest.raises(ValueError, match="no variable node: every CN has degree 0 at n = 1"):
            monte_carlo(preset_hpc(1, 3), 0.5, 100, 3, 0, jobs=jobs)

    def test_failed_trials_counts_trials_with_w_above_zero(self):
        spec, c, ell, trials = preset_hpc(200, 3), 5.2, 20, 20
        sample = graphsim._sampler(spec, c)
        w = [peel(sample(graphsim._stream_rng(3, r)), ell).failed_fraction for r in range(trials)]
        stats = monte_carlo(spec, c, ell, trials, 3)
        assert stats.failed_trials == sum(v > 0.0 for v in w)
        assert 0 < stats.failed_trials < trials
        assert type(stats.failed_trials) is int

    def test_negative_rounds_rejected(self):
        # ell = -2 reported W = 1.0 after zero peeling rounds
        with pytest.raises(ValueError, match="need ell >= 0, got -2"):
            monte_carlo(preset_hpc(10, 2), 1.0, -2, 2, 0)

    def test_peel_negative_rounds_rejected(self):
        # peel ran no round at ell = -1 and reported failed_fraction 1.0
        graph = hpc_demo_graph(2)
        with pytest.raises(ValueError, match="need ell >= 0, got -1"):
            peel(graph, -1)
        assert peel(graph, 0).failed_fraction == 1.0
        assert peel(graph, 2).failed_fraction == 0.0

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs >= 1"):
            monte_carlo(preset_hpc(10, 2), 1.0, 1, 2, 0, jobs=jobs)



class TestPinnedOutputs:
    """Sampled graphs and Monte Carlo statistics, pinned bit for bit.

    Any change to the draw order, the block sizes of the geometric-gap walk
    or the unranking shows here as a different digest."""

    # name -> (spec, c, seed, edge count, SHA-256 of the edges as int64
    # bytes); every edge array is int32.  The HPC graph has more ranks than
    # one unranking chunk; the mixture is assigned at random.
    SAMPLES = {
        "hpc": (preset_hpc(30000, 4), 7.0, 1, 105557,
                "afe846dfec743c9643df6d44c05b04c8a1d9e040c911159159526cf16ae190eb"),
        "hpc_random_tau": (
            preset_hpc(3000, CapabilityDistribution.from_dict({3: 0.3, 5: 0.7}), "random"),
            6.5, 2, 9793,
            "0f003b87cb9319d719a1b3893a00399324273935ff25ab7c8373618ec0985501"),
        "staircase": (preset_staircase(6, 360, 3), 12.0, 3, 646,
                      "673485cb4b3ba058db92e5e222fbbe50953db5a7f8bfffe69d00a2931d910e8a"),
        "braided": (preset_braided(4, 400, 3), 10.0, 4, 975,
                    "b4ca1e4e7ea3e7ff8b53527ff59e5fb047643733e096e118e8def2c60c6cce0f"),
        "pc": (preset_pc(2000, (0.5, 0.5), 3), 9.0, 5, 4587,
               "efb5d2823993f61cd6580204d83ac49d1fa2b2ad3fdda8cc446d7eb282ee5c0e"),
    }

    @pytest.mark.parametrize("name", SAMPLES)
    def test_sampled_edges(self, name):
        spec, c, seed, count, digest = self.SAMPLES[name]
        edges = sample_residual(spec, c, seed).edges
        assert edges.dtype == np.int32 and edges.shape == (count, 2)
        assert hashlib.sha256(edges.astype(np.int64).tobytes()).hexdigest() == digest

    def test_bernoulli_indices_over_two_blocks(self):
        # seed 3573 runs past the first block of gaps (1.2 * 80 + 16 of them)
        # before reaching n_items, so the walk draws a second block
        hits = _bernoulli_indices(np.random.default_rng(3573), 8000, 0.01)
        assert hits.dtype == np.int64 and hits.size == 114
        assert hashlib.sha256(hits.tobytes()).hexdigest() == (
            "c8c3f8dc3c4c1327d831f2211f3a13020ecc8280cca81a5ec33ba5007c76737e")

    def test_monte_carlo_statistics(self):
        assert monte_carlo(preset_hpc(5000, 4), 7.0, 25, 20, 12, jobs=1) == McStatistics(
            trials=20, failed_trials=20, mean_w=0.6934400000000002, se_w=0.00530349636411778,
            mean_scaled_ber=0.6960020575543682, se_scaled_ber=0.007428637008658387,
            mean_edge_fraction=0.6959501332759759, se_edge_fraction=0.006165152042554143)


class TestMemory:
    """Traced peak bytes per edge of each phase on HPC t = 4, n = 200k at
    c = 6.75 (about 675k edges; the int32 edge list alone is 8 B/edge).  The
    peak counts everything alive during the call: the graph too for the
    incidence and peeling."""

    @pytest.fixture(scope="class")
    def sampled(self):
        tracemalloc.start()
        try:
            graph = sample_residual(preset_hpc(200_000, 4), 6.75, 0)
            return graph, tracemalloc.get_traced_memory()[1] / graph.num_edges
        finally:
            tracemalloc.stop()

    @staticmethod
    def traced_peak(graph, *phases):
        tracemalloc.start()
        try:
            # a copy made under tracing puts the graph itself in the peak, and
            # so does what every phase but the last keeps on it
            traced = ResidualGraph(graph.vertex_position.copy(),
                                   graph.vertex_capability.copy(), graph.edges.copy())
            for phase in phases:
                tracemalloc.reset_peak()
                phase(traced)
            return tracemalloc.get_traced_memory()[1] / graph.num_edges
        finally:
            tracemalloc.stop()

    def test_vertex_arrays_are_int32(self, sampled):
        graph = sampled[0]
        assert graph.vertex_position.dtype == graph.vertex_capability.dtype == np.int32

    def test_sampling_peak(self, sampled):
        # the int32 vertex arrays (about 2.4 B/edge), the edge list and every
        # block's ranks (each cast in place into its block of 1.2 gaps per
        # edge): 22.8
        assert sampled[1] <= 24

    def test_incidence_peak(self, sampled):
        # the graph (about 10.4 B/edge with its vertex arrays) and the int64
        # sort keys (16), which shrink to the neighbour list before start is
        # counted: 27.2
        assert self.traced_peak(sampled[0], _incidence) <= 28

    @pytest.mark.parametrize("phase", [peel, core_oracle], ids=["peel", "core_oracle"])
    def test_peeling_peak(self, sampled, phase):
        # the building of the incidence sets both: 27.2
        assert self.traced_peak(sampled[0], phase) <= 28

    def test_indexed_peeling_peak(self, sampled):
        # the graph, the neighbour list (8), start and slack (2.4 each) and
        # one removal pass of at most 8192 vertices' slots: 25.4
        assert self.traced_peak(sampled[0], lambda g: g.incidence, peel) <= 26


class TestVertexLimit:
    """Vertex ids are int32: 2**31 or more vertices are refused before any
    vertex or edge array is allocated, not wrapped."""

    SPEC = preset_hpc(2**31, 3)

    @staticmethod
    def refused(call):
        tracemalloc.start()
        try:
            with time_limit(1), pytest.raises(ValueError, match=r"fewer than 2\*\*31 vertices"):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sample_residual(self):
        assert self.refused(lambda: sample_residual(self.SPEC, 3.0, 0)) < 1 << 20

    def test_monte_carlo(self):
        assert self.refused(lambda: monte_carlo(self.SPEC, 3.0, 5, 2, 0)) < 1 << 20

    def test_peel(self):
        # zero-stride views: 2**31 vertices that occupy one element each
        vertices = np.broadcast_to(np.zeros(1, dtype=np.int64), (2**31,))
        graph = ResidualGraph(vertices, vertices, np.empty((0, 2), dtype=np.int32))
        assert graph.num_vertices == 2**31
        assert self.refused(lambda: peel(graph)) < 1 << 20


class TestNarrowEdges:
    # (spec, c) above threshold; the HPC graph's 40000 vertices give keys
    # (end << 16) | neighbour past 2**31, so they need 64 bits
    CASES = [(spec, c_high) for spec, _, c_high in REFERENCE_FAMILIES]
    CASES.append((preset_hpc(40000, 4), 7.5))

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_int32_edges_peel_like_int64(self, case):
        spec, c = self.CASES[case]
        narrow = sample_residual(spec, c, seed=7)
        wide = ResidualGraph(narrow.vertex_position, narrow.vertex_capability,
                             narrow.edges.astype(np.int64))
        assert narrow.edges.dtype == np.int32
        for got, want, dtype in zip(_incidence(narrow), _incidence(wide), (np.int64, np.int32)):
            assert got.dtype == want.dtype == dtype and np.array_equal(got, want)
        for ell in (None, 2):
            assert fields(peel(narrow, ell)) == fields(peel(wide, ell))
        core = core_oracle(narrow)
        assert core.size > 0 and np.array_equal(core, core_oracle(wide))

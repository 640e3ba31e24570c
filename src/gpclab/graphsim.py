"""Residual-graph sampling and iterative peeling.

The residual graph of a GPC after a binary erasure channel keeps one vertex
per component code and one edge per erased bit.  Decoding is the parallel
peeling process: every round removes all vertices whose current degree is at
most their capability.  Peeling keeps degrees incrementally on a CSR
incidence, so a round reads only the edges of the vertices it removes: O(E)
edge work over the whole run for E edges, plus one O(n) scan of the vertex
flags per round.  The core oracle removes vertices over the same incidence in
batches by colour class (vertex index mod 2), a different order from the
parallel rounds.  Removal only lowers degrees, so every batch is a legal
sequential removal and both orders end at the same core, which the tests
check; the oracle costs the same O(E) edge work plus one O(n) scan per batch.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .codespec import GpcSpec, cn_counts, code_length
from .de import Schedule, _check_quality

__all__ = [
    "ResidualGraph",
    "PeelingResult",
    "McStatistics",
    "sample_residual",
    "peel",
    "peel_scheduled",
    "core_oracle",
    "monte_carlo",
]


@dataclass(frozen=True)
class ResidualGraph:
    """Typed simple graph left over after channel erasures.

    ``edges`` holds each undirected edge once as (u, v) with u < v; an edge
    may only join vertices at coupled positions.
    """

    vertex_position: np.ndarray
    vertex_capability: np.ndarray
    edges: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertex_position.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class PeelingResult:
    failed_fraction: float
    removed_per_round: tuple[int, ...]
    surviving_edges: int
    rounds_run: int
    survivors: np.ndarray


@dataclass(frozen=True)
class McStatistics:
    trials: int
    mean_w: float
    se_w: float
    mean_scaled_ber: float
    se_scaled_ber: float
    mean_edge_fraction: float
    se_edge_fraction: float


def _stream_rng(master_seed: int, stream: int) -> np.random.Generator:
    # Philox is counter-based: streams keyed by (master_seed, stream) are
    # independent and reproducible no matter how trials or batches are
    # scheduled.  The branching oracle draws from the same streams.
    return np.random.Generator(
        np.random.Philox(key=np.random.SeedSequence((master_seed, stream)).generate_state(2, np.uint64))
    )


def _bernoulli_indices(rng: np.random.Generator, n_items: int, p: float) -> np.ndarray:
    """Positions of successes in n_items iid Bernoulli(p) draws.

    Walks the index space with geometric gaps, so the cost is proportional to
    the number of successes rather than n_items.
    """
    if p <= 0.0 or n_items == 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_items, dtype=np.int64)
    chunks = []
    pos = -1
    block = max(64, int(n_items * p * 1.2) + 16)
    while True:
        gaps = rng.geometric(p, size=block)
        idx = pos + np.cumsum(gaps)
        chunks.append(idx[idx < n_items])
        if idx[-1] >= n_items:
            break
        pos = int(idx[-1])
    return np.concatenate(chunks)


def _unrank_triangle(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert row-major upper-triangle enumeration: k -> (r, c), r < c < n."""
    kk = k.astype(np.float64)
    r = np.floor(((2 * n - 1) - np.sqrt((2 * n - 1) ** 2 - 8.0 * kk)) / 2.0).astype(np.int64)
    # fix float drift at block boundaries
    off = r * (2 * n - r - 1) // 2
    r -= off > k
    off = r * (2 * n - r - 1) // 2
    r += k >= off + (n - 1 - r)
    off = r * (2 * n - r - 1) // 2
    c = k - off + r + 1
    return r, c


def _assign_capabilities(
    spec: GpcSpec, counts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    caps = np.empty(int(counts.sum()), dtype=np.int64)
    offset = 0
    for i, dist in enumerate(spec.tau):
        n_i = int(counts[i])
        if spec.tau_assignment == "random":
            ts = np.array([t for t, _ in dist.support()], dtype=np.int64)
            ws = np.array([w for _, w in dist.support()])
            caps[offset : offset + n_i] = rng.choice(ts, size=n_i, p=ws / ws.sum())
        else:
            pos = offset
            for t, w in dist.support():
                cnt = int(round(w * n_i))
                caps[pos : pos + cnt] = t
                pos += cnt
            # rounding slack (a valid GpcSpec keeps it at most 1 ulp worth)
            caps[pos : offset + n_i] = dist.support()[-1][0]
        offset += n_i
    return caps


def _sample(spec: GpcSpec, c: float, rng: np.random.Generator) -> ResidualGraph:
    n = spec.n
    _check_quality(c)
    if c >= n:
        raise ValueError(f"edge probability c/n must stay below 1 (c={c}, n={n})")
    counts = cn_counts(spec)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    positions = np.repeat(np.arange(spec.num_positions, dtype=np.int64), counts)
    caps = _assign_capabilities(spec, counts, rng)
    p = c / n

    edge_blocks = []
    L = spec.num_positions
    for i in range(L):
        if spec.eta[i, i]:
            n_i = int(counts[i])
            ks = _bernoulli_indices(rng, n_i * (n_i - 1) // 2, p)
            if ks.size:
                u, v = _unrank_triangle(ks, n_i)
                edge_blocks.append(np.stack([u + offsets[i], v + offsets[i]], axis=1))
        for j in range(i + 1, L):
            if spec.eta[i, j]:
                n_i, n_j = int(counts[i]), int(counts[j])
                ks = _bernoulli_indices(rng, n_i * n_j, p)
                if ks.size:
                    u = ks // n_j + offsets[i]
                    v = ks % n_j + offsets[j]
                    edge_blocks.append(np.stack([u, v], axis=1))
    if edge_blocks:
        # every block already lists u < v: a triangle unranks to row < column,
        # and a cross block puts the lower position's offset first
        edges = np.concatenate(edge_blocks, axis=0)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return ResidualGraph(
        vertex_position=positions,
        vertex_capability=caps,
        edges=edges,
    )


def sample_residual(spec: GpcSpec, c: float, seed: int) -> ResidualGraph:
    """Draw the residual graph at effective channel quality c.

    Every admissible vertex pair (same-position pairs when eta_ii = 1, cross
    pairs when eta_ij = 1) carries an edge independently with probability
    c/n.  Identical (spec, c, seed) always reproduce the same graph.
    """
    return _sample(spec, c, _stream_rng(seed, 0))


def _incidence(graph: ResidualGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR incidence: vertex v owns slots start[v]:start[v + 1], and slot s
    joins v to nbr[s]; a vertex lists its neighbours in edge order."""
    ends = graph.edges.astype(np.int64).ravel()
    m = ends.size
    # the stable argsort of ends; sorting unique (end, slot) keys is faster
    order = np.sort(ends * m + np.arange(m)) % m
    start = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=graph.num_vertices), out=start[1:])
    return start, ends[order ^ 1]


def _slots(start: np.ndarray, gone: np.ndarray) -> np.ndarray:
    """The incidence slots of the vertices ``gone``, vertex after vertex."""
    lo = start[gone]
    size = start[gone + 1] - lo
    return np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())


def _peel(
    graph: ResidualGraph, masks: Iterable[np.ndarray], stop_when_idle: bool
) -> PeelingResult:
    """One parallel round per vertex mask, on degrees kept incrementally: a
    round reads only the incidence slots of the vertices it removes.

    A vertex is removed only in a round whose mask holds it, so once its last
    such round has passed, its failure status is its final ``alive``."""
    n = graph.num_vertices
    start, nbr = _incidence(graph)
    deg = np.diff(start)
    alive = np.ones(n, dtype=bool)
    removed: list[int] = []
    for mask in masks:
        gone = np.flatnonzero(alive & mask & (deg <= graph.vertex_capability))
        if stop_when_idle and gone.size == 0:
            break
        alive[gone] = False
        # a live vertex's degree counts exactly its edges to live neighbours;
        # degrees of dead vertices are never read again, so every slot may count
        deg -= np.bincount(nbr[_slots(start, gone)], minlength=n)
        removed.append(gone.size)
        if not alive.any():
            break
    return PeelingResult(
        failed_fraction=float(alive.sum()) / n if n else 0.0,
        removed_per_round=tuple(removed),
        surviving_edges=int(deg[alive].sum()) // 2,
        rounds_run=len(removed),
        survivors=np.nonzero(alive)[0],
    )


def peel(graph: ResidualGraph, ell: int | None = None) -> PeelingResult:
    """Parallel peeling: each round removes, simultaneously, every vertex
    whose degree is at most its capability; stops at the round cap or at a
    fixpoint (a round that would remove nothing)."""
    everyone = np.ones(graph.num_vertices, dtype=bool)
    rounds = itertools.repeat(everyone) if ell is None else itertools.repeat(everyone, ell)
    return _peel(graph, rounds, True)


def peel_scheduled(graph: ResidualGraph, schedule: Schedule) -> PeelingResult:
    """Peeling under a decoding schedule.

    Round l touches only vertices at active positions; a frozen vertex keeps
    the failure status from the last round its position was active, so the
    reported failed fraction reflects per-vertex last-active outcomes.
    """
    L = int(graph.vertex_position.max()) + 1 if graph.num_vertices else 0
    if not schedule.covers(L):
        raise ValueError("schedule must cover every position present in the graph")
    positions = np.arange(L)
    masks = (np.isin(positions, list(active))[graph.vertex_position]
             for active in schedule.active_sets)
    return _peel(graph, masks, False)


def core_oracle(graph: ResidualGraph) -> np.ndarray:
    """The generalized core: the largest vertex set in which every vertex has
    more neighbours than its capability.

    Removes vertices in batches by colour class (vertex index mod 2) until
    neither class has a removable one.  Removal only lowers degrees, so any
    set of removable vertices may go in any sequence: each batch is a legal
    sequential order, different from the parallel rounds of `peel`, and both
    end at the core (k-core confluence).  Cost: O(E) edge work over the run
    plus one O(n) scan per batch.
    """
    n = graph.num_vertices
    start, nbr = _incidence(graph)
    # slack = degree - capability: a live vertex is removable at slack <= 0,
    # and a removed vertex's slack is never read again
    slack = np.diff(start) - graph.vertex_capability
    alive = np.ones(n, dtype=bool)
    colour, idle = 0, 0
    while idle < 2:  # stop once both classes come up empty in a row
        gone = colour + 2 * np.flatnonzero(alive[colour::2] & (slack[colour::2] <= 0))
        alive[gone] = False
        slack -= np.bincount(nbr[_slots(start, gone)], minlength=n)
        idle = 0 if gone.size else idle + 1
        colour ^= 1
    return np.flatnonzero(alive)


def _mc_trial(args: tuple) -> tuple[float, float, float]:
    spec, c, ell, master_seed, trial, m = args
    graph = _sample(spec, c, _stream_rng(int(master_seed), int(trial)))
    result = peel(graph, ell)
    w = result.failed_fraction
    ber = result.surviving_edges * graph.num_vertices / (c * m) if c > 0 else 0.0
    frac = result.surviving_edges / graph.num_edges if graph.num_edges else 0.0
    return w, ber, frac


def monte_carlo(
    spec: GpcSpec,
    c: float,
    ell: int,
    trials: int,
    master_seed: int,
    jobs: int = 1,
) -> McStatistics:
    """Estimate the failed fraction W, the scaled bit erasure rate
    surviving_edges * n / (c * m), and the surviving-edge fraction.

    Trial r always uses the stream derived from (master_seed, r), and the
    reduction runs in trial order, so the statistics are bit-identical for
    any jobs count.
    """
    if ell < 0:
        raise ValueError(f"need ell >= 0, got {ell}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if jobs < 1:
        raise ValueError("need jobs >= 1")
    m = code_length(spec)
    work = [(spec, c, ell, master_seed, r, m) for r in range(trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_mc_trial, work, chunksize=max(1, trials // (4 * jobs))))
    else:
        rows = [_mc_trial(w) for w in work]
    data = np.array(rows)  # trials x 3, trial order

    def stats(col: int) -> tuple[float, float]:
        vals = data[:, col]
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        return mean, se

    mw, sw = stats(0)
    mb, sb = stats(1)
    mf, sf = stats(2)
    return McStatistics(trials, mw, sw, mb, sb, mf, sf)

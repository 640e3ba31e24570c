"""Residual-graph sampling and iterative peeling.

The residual graph of a GPC after a binary erasure channel keeps one vertex
per component code and one edge per erased bit.  Decoding is the parallel
peeling process: every round removes all vertices whose current degree is at
most their capability.  Peeling keeps degrees incrementally on a CSR
incidence, so a round reads only the edges of the vertices it removes: O(E)
edge work over the whole run for E edges, plus one O(n) scan of the vertex
flags per round.  A sequential removal oracle over the same incidence and a
deterministic worked example back the tests.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .codespec import GpcSpec, cn_counts, code_length, require_valid
from .de import Schedule

__all__ = [
    "ResidualGraph",
    "PeelingResult",
    "McStatistics",
    "sample_residual",
    "peel",
    "peel_scheduled",
    "core_oracle",
    "monte_carlo",
    "hpc_demo_graph",
    "write_graph",
    "read_graph",
    "write_round_log",
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
    origin_edge_count: int

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
            # rounding slack (validate() guarantees it is at most 1 ulp worth)
            caps[pos : offset + n_i] = dist.support()[-1][0]
        offset += n_i
    return caps


def _sample(spec: GpcSpec, c: float, rng: np.random.Generator) -> ResidualGraph:
    n = spec.n
    if c < 0.0:
        raise ValueError(f"effective channel quality must be >= 0, got {c}")
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
        edges = np.concatenate(edge_blocks, axis=0)
        edges = np.sort(edges, axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return ResidualGraph(
        vertex_position=positions,
        vertex_capability=caps,
        edges=edges,
        origin_edge_count=edges.shape[0],
    )


def sample_residual(spec: GpcSpec, c: float, seed: int) -> ResidualGraph:
    """Draw the residual graph at effective channel quality c.

    Every admissible vertex pair (same-position pairs when eta_ii = 1, cross
    pairs when eta_ij = 1) carries an edge independently with probability
    c/n.  Identical (spec, c, seed) always reproduce the same graph.
    """
    require_valid(spec)
    return _sample(spec, c, _stream_rng(seed, 0))


def _incidence(graph: ResidualGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR incidence: vertex v owns slots start[v]:start[v + 1], and slot s
    joins v to nbr[s] by edge eid[s]; a vertex lists its edges in edge order."""
    ends = graph.edges.astype(np.int64).ravel()
    m = ends.size
    # the stable argsort of ends; sorting unique (end, slot) keys is faster
    order = np.sort(ends * m + np.arange(m)) % m
    start = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=graph.num_vertices), out=start[1:])
    return start, ends[order ^ 1], order // 2


def _peel(
    graph: ResidualGraph, masks: Iterable[np.ndarray], stop_when_idle: bool
) -> PeelingResult:
    """One parallel round per vertex mask, on degrees kept incrementally: a
    round reads only the incidence slots of the vertices it removes."""
    n = graph.num_vertices
    start, nbr, eid = _incidence(graph)
    deg = np.diff(start)
    alive = np.ones(n, dtype=bool)
    edge_alive = np.ones(graph.num_edges, dtype=bool)
    failed = np.ones(n, dtype=bool)  # before any decoding, everything fails
    removed: list[int] = []
    for mask in masks:
        gone = np.flatnonzero(alive & mask & (deg <= graph.vertex_capability))
        if stop_when_idle and gone.size == 0:
            break
        alive[gone] = False
        lo = start[gone]
        size = start[gone + 1] - lo
        slots = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())
        edge_alive[eid[slots]] = False
        # a slot reaching a live neighbour holds a live edge; degrees of dead
        # vertices are never read again, so every slot may count
        deg -= np.bincount(nbr[slots], minlength=n)
        removed.append(gone.size)
        np.copyto(failed, alive, where=mask)
        if not alive.any():
            break
    return PeelingResult(
        failed_fraction=float(failed.sum()) / n if n else 0.0,
        removed_per_round=tuple(removed),
        surviving_edges=int(edge_alive.sum()),
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
    """Sequential-removal fixpoint: keep deleting any one vertex with degree
    at most its capability until none qualifies.  Monotone peeling is
    confluent, so this equals the parallel fixpoint exactly."""
    n = graph.num_vertices
    start, nbr, _ = _incidence(graph)
    deg = np.diff(start).tolist()
    start, nbr = start.tolist(), nbr.tolist()
    caps = graph.vertex_capability.tolist()
    alive = [True] * n
    queued = [d <= t for d, t in zip(deg, caps)]
    stack = [v for v in range(n) if queued[v]]
    while stack:
        v = stack.pop()  # each vertex is queued at most once
        alive[v] = False
        for u in nbr[start[v] : start[v + 1]]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] <= caps[u] and not queued[u]:
                    queued[u] = True
                    stack.append(u)
    return np.flatnonzero(alive)


def _mc_trial(args: tuple) -> tuple[float, float, float]:
    spec, c, ell, master_seed, trial, m = args
    graph = _sample(spec, c, _stream_rng(int(master_seed), int(trial)))
    result = peel(graph, ell)
    w = result.failed_fraction
    ber = result.surviving_edges * graph.num_vertices / (c * m) if c > 0 else 0.0
    frac = (
        result.surviving_edges / graph.origin_edge_count
        if graph.origin_edge_count
        else 0.0
    )
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
    require_valid(spec)
    if trials < 1:
        raise ValueError("need at least one trial")
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


def hpc_demo_graph(t: int) -> ResidualGraph:
    """Five-component worked example (half-product family, n = 5).

    Reading the punctured 5x5 code array row by row, bits 2, 3, 4, 7 and 9
    are erased.  With t = 1 the peeling gets stuck after one round on the
    surviving triangle; with t = 2 the graph empties in two rounds.
    """
    edges = np.array([[0, 2], [0, 3], [0, 4], [1, 4], [2, 4]], dtype=np.int64)
    return ResidualGraph(
        vertex_position=np.zeros(5, dtype=np.int64),
        vertex_capability=np.full(5, t, dtype=np.int64),
        edges=edges,
        origin_edge_count=5,
    )


def write_graph(graph: ResidualGraph, path: str) -> None:
    """Dump: first line "<num_vertices> <num_edges>", then one
    "position capability" line per vertex, then one "u v" line per edge."""
    with open(path, "w") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for p, t in zip(graph.vertex_position, graph.vertex_capability):
            fh.write(f"{int(p)} {int(t)}\n")
        for u, v in graph.edges:
            fh.write(f"{int(u)} {int(v)}\n")


def read_graph(path: str) -> ResidualGraph:
    with open(path) as fh:
        n, e = (int(tok) for tok in fh.readline().split())
        pos = np.empty(n, dtype=np.int64)
        cap = np.empty(n, dtype=np.int64)
        for v in range(n):
            a, b = fh.readline().split()
            pos[v], cap[v] = int(a), int(b)
        edges = np.empty((e, 2), dtype=np.int64)
        for k in range(e):
            a, b = fh.readline().split()
            edges[k] = (int(a), int(b))
    return ResidualGraph(pos, cap, edges, e)


def write_round_log(result: PeelingResult, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("round,removed\n")
        for k, cnt in enumerate(result.removed_per_round, start=1):
            fh.write(f"{k},{cnt}\n")

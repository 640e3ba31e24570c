"""Residual-graph sampling and iterative peeling.

The residual graph of a GPC after a binary erasure channel keeps one vertex
per component code and one edge per erased bit.  Decoding is the parallel
peeling process: every round removes all vertices whose current degree is at
most their capability.  Peeling keeps slacks (degree minus capability)
incrementally on a CSR incidence that each graph builds once and keeps, so a
round reads only the edges of the vertices it removes: O(E) edge work over the
run for E edges, plus one O(n) scan of the slacks per round.  The core oracle
removes vertices over the same incidence in batches by colour class (vertex
index mod 2), not in parallel rounds.  Removal only lowers degrees, so every
batch is a legal sequential removal and both orders end at the same core, which
the tests check; the oracle costs O(E) edge work plus one O(n) scan per batch.

Sampling skips through each block of vertex pairs by geometric gaps, drawn
by exponential inversion and cast in place to int64 ranks; it peaks with the
vertex arrays and every block's ranks (views of blocks about 1.2 times longer)
alive.  Vertex ids, positions and capabilities are int32, and sampling and
indexing refuse 2**31 or more vertices before they allocate.  The incidence
sorts the keys (end << b) | neighbour, b the bit length of the largest id, in
place and keeps their low bits, so a vertex lists its neighbours in increasing
order.  Keys below 2**31 are int32 and become the neighbour list; wider int64
keys (16 B per edge, the peak of peeling an unindexed graph) narrow into the
front half of their buffer, which then shrinks to 8 B per edge.  Peeling and
the core oracle hold the graph, its neighbour list and two vertex arrays, and
remove a round's vertices 8192 at a time; the graph keeps its neighbour list.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .codespec import GpcSpec, cn_counts, code_length
from .poisson import _check_quality

if TYPE_CHECKING:  # an annotation only: peeling runs no DE code
    from .de import Schedule


@dataclass(frozen=True)
class ResidualGraph:
    """Typed simple graph left over after channel erasures.

    ``edges`` holds each undirected edge once as (u, v) with u < v, in any
    integer dtype; an edge may only join vertices at coupled positions.
    Sampled arrays are all int32, like the incidence's: both refuse 2**31 vertices.
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

    @functools.cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """`_incidence`, built on first use and kept: 8 B/edge beside the graph."""
        return _incidence(self)


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
    failed_trials: int  # trials with W > 0
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
    the number of successes rather than n_items.  Each block of gaps comes from
    one vectorized exponential draw: ceil(E / -log1p(-p)), E standard
    exponential, is Geometric(p) at every p, and below p = 1/3 it is the gap
    numpy's ``geometric`` draws from the same stream.  The gaps are clipped at
    n_items + 1, which leaves every rank below n_items as it is and keeps the
    running sum from overflowing when p is tiny.
    """
    if p <= 0.0 or n_items == 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_items, dtype=np.int64)
    chunks = []
    pos, scale = -1, -math.log1p(-p)
    # the block sizes and the draw order fix the random stream: keep them
    block = max(64, int(n_items * p * 1.2) + 16)
    while True:
        gap = rng.standard_exponential(block)
        gap /= scale
        np.minimum(gap, n_items + 1, out=gap)
        idx = np.ceil(gap, out=gap.view(np.int64), casting="unsafe")  # cast in place
        np.cumsum(idx, out=idx)
        idx += pos
        chunks.append(idx[: np.searchsorted(idx, n_items)])  # a view of the block
        if idx[-1] >= n_items:
            break
        pos = int(idx[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _unrank_triangle(k: np.ndarray, n: int, out: np.ndarray) -> None:
    """Invert row-major upper-triangle enumeration: k -> (r, c), r < c < n,
    written as the rows of ``out``, a (k.size, 2) int32 or int64 array."""
    b, step = 2 * n - 1, 1 << 16  # ranks per pass: bounds the temporaries
    x, r = np.empty(min(step, k.size)), np.empty(min(step, k.size), dtype=np.int64)
    for lo in range(0, k.size, step):
        kk = k[lo : lo + step]
        x, r = x[: kk.size], r[: kk.size]  # every pass reuses the two buffers
        np.multiply(kk, -8.0, out=x)  # b^2 - 8k is exact below 2^53; sqrt rounds correctly
        x += b * b
        r[:] = np.subtract(b, np.sqrt(x, out=x), out=x)  # truncates, as it is >= 0
        r >>= 1  # floor((b - root) / 2)
        t = np.subtract(b, r, out=x.view(np.int64))  # row r starts at rank r (b - r) / 2
        t *= r
        t >>= 1
        np.subtract(kk, t, out=t)  # the rank in row r
        t += r  # the column less one: r <= t <= n - 2 unless drift moved the row
        while t.max() > n - 2 or (t < r).any():  # float drift: move those ranks a row
            bad = np.flatnonzero((t < r) | (t > n - 2))
            rb = r[bad] + (t[bad] > n - 2) - (t[bad] < r[bad])
            r[bad], t[bad] = rb, kk[bad] - ((b - rb) * rb >> 1) + rb
        out[lo : lo + step, 0] = r
        np.add(t, 1, out=out[lo : lo + step, 1])


def _assign_capabilities(
    spec: GpcSpec, counts: np.ndarray, rng: np.random.Generator | None
) -> np.ndarray:
    caps = np.empty(int(counts.sum()), dtype=np.int32)
    offset = 0
    for n_i, row in zip(counts.tolist(), spec.tau_table):
        ts = np.flatnonzero(row) + 1
        if spec.tau_assignment == "random":
            ws = row[ts - 1]
            caps[offset : offset + n_i] = rng.choice(ts, size=n_i, p=ws / ws.sum())
        else:
            pos = offset
            for t in ts:
                cnt = int(round(row[t - 1] * n_i))
                caps[pos : pos + cnt] = t
                pos += cnt
            # rounding slack (a valid GpcSpec keeps it at most 1 ulp worth)
            caps[pos : offset + n_i] = ts[-1]
        offset += n_i
    return caps


def _sampler(spec: GpcSpec, c: float) -> Callable[[np.random.Generator], ResidualGraph]:
    """Build once what every graph of (spec, c) shares, and return the function
    that draws one graph from a stream; its graphs share the vertex arrays."""
    _check_quality(c)
    if c >= spec.n:
        raise ValueError(f"edge probability c/n must stay below 1 (c={c}, n={spec.n})")
    counts = cn_counts(spec)
    offsets = np.concatenate([[0], np.cumsum(counts)]).tolist()  # ints: no int64 upcast
    if offsets[-1] >= 1 << 31:  # before any vertex array exists
        raise ValueError(f"residual graphs need fewer than 2**31 vertices, got {offsets[-1]}")
    positions = np.repeat(np.arange(spec.num_positions, dtype=np.int32), counts)
    caps = None if spec.tau_assignment == "random" else _assign_capabilities(spec, counts, None)
    sizes = counts.tolist()  # block (i, i) holds same-position pairs
    blocks = [(i, j, sizes[i] * (sizes[i] - 1) // 2 if i == j else sizes[i] * sizes[j])
              for i, j in zip(*np.nonzero(np.triu(spec.eta)))]

    def sample(rng: np.random.Generator) -> ResidualGraph:
        # capabilities first, then every block's ranks: one edge list allocation
        vertex_caps = _assign_capabilities(spec, counts, rng) if caps is None else caps
        ranks = [_bernoulli_indices(rng, pairs, c / spec.n) for *_, pairs in blocks]
        edges = np.empty((sum(ks.size for ks in ranks), 2), dtype=np.int32)
        end = 0
        for (i, j, _), ks in zip(blocks, ranks):
            out = edges[end : end + ks.size]
            end += ks.size
            if i == j:
                _unrank_triangle(ks, sizes[j], out)
            else:
                np.divmod(ks, sizes[j], out=(out[:, 0], out[:, 1]))
            # every block lists u < v: a triangle unranks to row < column, and a
            # cross block puts the lower position's offset first
            out[:, 0] += offsets[i]  # one column at a time: a broadcast add is slower
            out[:, 1] += offsets[j]
        return ResidualGraph(positions, vertex_caps, edges)

    return sample


def sample_residual(spec: GpcSpec, c: float, seed: int) -> ResidualGraph:
    """Draw the residual graph at effective channel quality c.

    Every admissible vertex pair (same-position pairs when eta_ii = 1, cross
    pairs when eta_ij = 1) carries an edge independently with probability
    c/n.  Identical (spec, c, seed) always reproduce the same graph.
    """
    return _sampler(spec, c)(_stream_rng(seed, 0))


def _incidence(graph: ResidualGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR incidence: vertex v owns slots start[v]:start[v + 1], and slot s
    joins v to nbr[s], an int32 id; v lists its neighbours in increasing order."""
    n, m, step = graph.num_vertices, graph.num_edges, 1 << 16  # edges per pass
    if n >= 1 << 31:  # int32 ids: refused before anything is allocated
        raise ValueError(f"residual graphs need fewer than 2**31 vertices, got {n}")
    # sort the unique keys (end << b) | neighbour in place, then keep the
    # neighbour bits; the keys stay below 2**(2b), so they are int32 up to
    # b = 15, and those sort in about half the time
    b = max(n - 1, 0).bit_length()
    keys = np.empty(2 * m, dtype=np.int64 if b > 15 else np.int32)
    for lo in range(0, m, step):
        u, v = graph.edges[lo : lo + step].T  # column views, not copies
        for at, end, other in ((lo, u, v), (m + lo, v, u)):
            np.left_shift(end, b, out=keys[at : at + end.size], dtype=keys.dtype)
            keys[at : at + end.size] |= other
    keys.sort()
    nbr = keys.view(np.int32)[: 2 * m]  # the front of the keys' buffer
    for lo in range(0, 2 * m, step):
        np.bitwise_and(keys[lo : lo + step], (1 << b) - 1, out=nbr[lo : lo + step])
    del nbr  # resize refuses to shrink a buffer that a view still reads
    try:
        keys.resize(8 * m // keys.itemsize)  # to 4 B per slot
    except ValueError:  # a tracer or profiler holds the keys too: copy the front
        keys = keys.view(np.int32)[: 2 * m].copy()
    start = np.zeros(n + 1, dtype=np.int64)  # counted once the keys have shrunk
    for lo in range(0, m, step):
        start[1:] += np.bincount(graph.edges[lo : lo + step].ravel(), minlength=n)
    np.cumsum(start, out=start)
    return start, keys.view(np.int32)


_GONE = 1 << 62  # a removed vertex's slack


def _removal(graph: ResidualGraph) -> tuple[np.ndarray, Callable[[np.ndarray], None]]:
    """Each vertex's slack, degree - capability, and the function that
    removes vertices: it sets their slack to _GONE and lowers each neighbour's
    slack once per edge to them.  A live vertex is removable at slack <= 0; a
    removed one loses at most its degree, so it stays above _GONE // 2."""
    start, nbr = graph.incidence
    step = 1 << 13  # vertices per pass: bounds the slots, and n = 5000 takes one
    slack = np.diff(start)
    slack -= graph.vertex_capability

    def remove(gone: np.ndarray) -> None:
        slack[gone] = _GONE
        for lo in range(0, gone.size, step):
            part = gone[lo : lo + step]
            first = start[part]
            sz = start[part + 1] - first
            slots = np.repeat(first - np.cumsum(sz) + sz, sz)
            slots += np.arange(slots.size)
            np.subtract.at(slack, nbr[slots], 1)  # once per edge to gone

    return slack, remove


def _peel(
    graph: ResidualGraph, masks: Iterable[np.ndarray | None], stop_when_idle: bool
) -> PeelingResult:
    """One parallel round per vertex mask (None: every vertex), on slacks
    kept incrementally: a round reads only the incidence slots of the
    vertices it removes.

    A vertex is removed only in a round whose mask holds it, so once its last
    such round has passed, its failure status is whether it is still live."""
    n = graph.num_vertices
    slack, remove = _removal(graph)
    left = n
    removed: list[int] = []
    for mask in masks:
        gone = (slack <= 0 if mask is None else (slack <= 0) & mask).nonzero()[0]
        if stop_when_idle and gone.size == 0:
            break
        remove(gone)
        removed.append(gone.size)
        left -= gone.size
        if not left:
            break
    alive = slack < _GONE // 2
    return PeelingResult(
        failed_fraction=left / n if n else 0.0,
        removed_per_round=tuple(removed),
        surviving_edges=int((slack[alive] + graph.vertex_capability[alive]).sum()) // 2,
        rounds_run=len(removed),
        survivors=np.flatnonzero(alive),
    )


def peel(graph: ResidualGraph, ell: int | None = None) -> PeelingResult:
    """Parallel peeling: each round removes, simultaneously, every vertex
    whose degree is at most its capability; stops at the round cap or at a
    fixpoint (a round that would remove nothing)."""
    if ell is not None and ell < 0:
        raise ValueError(f"need ell >= 0, got {ell}")
    rounds = itertools.repeat(None) if ell is None else itertools.repeat(None, ell)
    return _peel(graph, rounds, True)


def peel_scheduled(graph: ResidualGraph, schedule: Schedule) -> PeelingResult:
    """Peeling under a decoding schedule.

    Round l touches only vertices at active positions; a frozen vertex keeps
    the failure status from the last round its position was active, so the
    reported failed fraction reflects per-vertex last-active outcomes.
    """
    positions = np.arange(int(graph.vertex_position.max()) + 1 if graph.num_vertices else 0)
    covered = np.isin(positions, list(set().union(*set(schedule.active_sets))))
    if not covered[graph.vertex_position].all():  # a position without vertices may be left out
        raise ValueError("schedule must cover every position present in the graph")
    # one mask per distinct active set: a window schedule repeats each set
    mask = functools.cache(lambda active: np.isin(positions, list(active))[graph.vertex_position])
    return _peel(graph, map(mask, schedule.active_sets), False)


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
    slack, remove = _removal(graph)
    colour, idle = 0, 0
    while idle < 2:  # stop once both classes come up empty in a row
        gone = colour + 2 * (slack[colour::2] <= 0).nonzero()[0]
        remove(gone)
        idle = 0 if gone.size else idle + 1
        colour ^= 1
    return np.flatnonzero(slack < _GONE // 2)


def _mc_block(args: tuple) -> list[tuple[float, float, float]]:
    """(W, scaled BER, surviving-edge fraction) of trials first..last - 1."""
    spec, c, ell, m, master_seed, first, last = args
    with warnings.catch_warnings():  # monte_carlo warned already, naming its caller
        warnings.filterwarnings("ignore", "rounded non-integral CN counts")
        sample = _sampler(spec, c)
    rows = []
    for r in range(first, last):
        graph = sample(_stream_rng(int(master_seed), r))
        result = peel(graph, ell)
        ber = result.surviving_edges * graph.num_vertices / (c * m) if c > 0 else 0.0
        frac = result.surviving_edges / graph.num_edges if graph.num_edges else 0.0
        rows.append((result.failed_fraction, ber, frac))
    return rows


def monte_carlo(
    spec: GpcSpec,
    c: float,
    ell: int,
    trials: int,
    master_seed: int,
    jobs: int = 1,
) -> McStatistics:
    """Estimate the failed fraction W, the scaled bit erasure rate
    surviving_edges * n / (c * m), and the surviving-edge fraction, and count
    the trials with W > 0.  A code with no variable node (m = 0) is refused.

    The unit of work is a block of max(1, trials // (4 jobs)) trials that
    share one sampler.  Trial r always uses the stream derived from
    (master_seed, r), and the reduction runs in trial order, so the
    statistics are bit-identical for any jobs count.
    """
    if ell < 0:
        raise ValueError(f"need ell >= 0, got {ell}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if jobs < 1:
        raise ValueError("need jobs >= 1")
    cn_counts(spec)  # its rounding warning, once, for any jobs
    with warnings.catch_warnings():  # code_length rounds the counts twice more
        warnings.filterwarnings("ignore", "rounded non-integral CN counts")
        m = code_length(spec)
    if m == 0:
        raise ValueError(f"the code has no variable node: every CN has degree 0 at n = {spec.n}")
    size = max(1, trials // (4 * jobs))
    work = [(spec, c, ell, m, master_seed, r, min(r + size, trials)) for r in range(0, trials, size)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it imports multiprocessing
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            blocks = list(pool.map(_mc_block, work))
    else:
        blocks = [_mc_block(w) for w in work]
    data = np.array([row for block in blocks for row in block])  # trials x 3, trial order

    def stats(col: int) -> tuple[float, float]:
        vals = data[:, col]
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        return mean, se

    mw, sw = stats(0)
    mb, sb = stats(1)
    mf, sf = stats(2)
    return McStatistics(trials, int(np.count_nonzero(data[:, 0] > 0.0)), mw, sw, mb, sb, mf, sf)

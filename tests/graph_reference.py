"""Test-local core oracle that `gpclab.graphsim.core_oracle` is compared against.

`reference_core_oracle` is the oracle the package used before it removed
vertices in colour-class batches: a Python stack over the CSR incidence of
`gpclab.graphsim._incidence` that deletes one removable vertex at a time, in
last-queued-first order.  It is plain and slow on purpose; by k-core
confluence it ends at the same core as the package oracle and `peel`.

`reference_bernoulli_indices` is the geometric-gap walk of
`gpclab.graphsim._bernoulli_indices` as numpy's ``rng.geometric`` draws it,
one call per block of gaps; below p = 1/3 numpy draws those gaps by
exponential inversion.  `reference_exponential_indices` is the same walk at
every p as a scalar loop: one ``rng.standard_exponential()`` per gap.

`reference_unrank_triangle` is the exact, integer-only inverse of the
row-major pair enumeration that `gpclab.graphsim._unrank_triangle` computes
in float64 and corrects.
"""

from __future__ import annotations

import math

import numpy as np

from gpclab.graphsim import ResidualGraph, _incidence


def reference_core_oracle(graph: ResidualGraph) -> np.ndarray:
    """Sequential-removal fixpoint: keep deleting any one vertex with degree
    at most its capability until none qualifies.  Monotone peeling is
    confluent, so this equals the parallel fixpoint exactly."""
    start, nbr = _incidence(graph)
    # slack = degree - capability; a vertex is queued once its slack reaches
    # 0 and never decremented after, so survivors are those with slack > 0
    slack = (np.diff(start) - graph.vertex_capability).tolist()
    start, nbr = start.tolist(), nbr.tolist()
    stack = [v for v, s in enumerate(slack) if s <= 0]
    while stack:
        v = stack.pop()  # each vertex is queued at most once
        for u in nbr[start[v] : start[v + 1]]:
            if slack[u] > 0:
                slack[u] -= 1
                if slack[u] == 0:
                    stack.append(u)
    return np.flatnonzero(np.array(slack) > 0)


def reference_bernoulli_indices(
    rng: np.random.Generator, n_items: int, p: float
) -> tuple[np.ndarray, int]:
    """Positions of successes in n_items iid Bernoulli(p) draws, 0 < p < 1,
    and the number of blocks of gaps the walk drew."""
    chunks, pos, blocks = [], -1, 0
    block = max(64, int(n_items * p * 1.2) + 16)
    while True:
        blocks += 1
        idx = np.cumsum(rng.geometric(p, size=block)) + pos
        chunks.append(idx[idx < n_items])
        if idx[-1] >= n_items:
            return np.concatenate(chunks), blocks
        pos = int(idx[-1])


def reference_exponential_indices(
    rng: np.random.Generator, n_items: int, p: float
) -> tuple[np.ndarray, int]:
    """`reference_bernoulli_indices` with each gap ceil(E / -log1p(-p)), E one
    standard exponential, clipped at n_items + 1: Geometric(p) at any p."""
    hits, pos, blocks = [], -1, 0
    block, scale = max(64, int(n_items * p * 1.2) + 16), -math.log1p(-p)
    while True:
        blocks += 1
        for _ in range(block):  # the whole block is drawn, as the package draws it
            pos += math.ceil(min(rng.standard_exponential() / scale, n_items + 1))
            if pos < n_items:
                hits.append(pos)
        if pos >= n_items:
            return np.array(hits, dtype=np.int64), blocks


def first_rank(r: int, n: int) -> int:
    """The rank of pair (r, r + 1): rows 0..r-1 hold (n - 1) + ... + (n - r)."""
    return r * (2 * n - 1 - r) // 2


def reference_unrank_triangle(k: int, n: int) -> tuple[int, int]:
    """The pair (r, c), r < c < n, of rank k in row-major order, in exact
    integers.  The row is the largest r with first_rank(r) <= k, that is
    floor((b - sqrt(D)) / 2) for b = 2n - 1 and D = b^2 - 8k >= 9.  D is an
    integer, so floor(b - sqrt(D)) = b - ceil(sqrt(D)) = b - 1 - isqrt(D - 1)."""
    b = 2 * n - 1
    r = (b - 1 - math.isqrt(b * b - 8 * k - 1)) // 2
    return r, k - first_rank(r, n) + r + 1

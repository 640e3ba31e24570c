"""Multi-type branching-process oracle for the DE recursions.

Estimates the probability that the root of the limiting local neighborhood
of a residual-graph vertex (a typed Poisson tree) survives depth-limited
peeling.  Kept deliberately independent of the DE code paths, the
Poisson-tail kernel included, so the two can cross-validate.

The survival sampler builds each batch of trees level by level, but draws
neither a per-node offspring count nor the leaf level.  A level's nodes of
position i have independent Poisson(m) children of each coupled type, so
their total is one Poisson(n_i * m) draw and each child's parent is uniform
over the n_i nodes.  A leaf survives when its own children, which peeling
never reaches, number at least its capability t; the leaves of type (j, t)
that survive are therefore a Binomial thinning of their total with
q = P(Pois(M_j) >= t), M_j being a position-j node's mean child count, and
only those are given parents.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .codespec import GpcSpec
from .graphsim import _stream_rng
from .poisson import _check_quality


BATCH_SIZE = 20000  # trees per batch, each batch on a random stream of its own
NODE_BUDGET = 50_000_000  # nodes one batch may draw
LEAF_CHUNK = 1 << 18  # parents drawn at once: 1 MB of int32 draws, counted in place


class TreeSizeLimit(RuntimeError):
    """Sampling aborted: the tree exceeded the per-trial node budget."""


class SurvivalEstimate(NamedTuple):
    mean: float
    stderr: float
    trees: int


def _node_types(spec: GpcSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node types (position, capability) in position order, weighted gamma_i tau_t(i)."""
    ps, k = np.nonzero(spec.tau_table)
    return ps, k + 1, spec.gamma[ps] * spec.tau_table[ps, k]


def _tail(mean: float, t: int) -> float:
    """P(Pois(mean) >= t) as one minus a pmf sum, so the oracle needs no DE kernel."""
    pmf, cdf = math.exp(-mean), 0.0
    for k in range(t):
        cdf += pmf
        pmf *= mean / (k + 1)
    return max(0.0, 1.0 - cdf)


def _parent_counts(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """Children per parent as n children pick among ``size`` parents; drawn
    ``LEAF_CHUNK`` at a time into one count array, the draws are one call's."""
    counts = np.zeros(size, dtype=np.int32)
    for done in range(0, n, LEAF_CHUNK):  # an int32 one keeps add.at on its fast loop
        np.add.at(counts, rng.integers(0, size, min(LEAF_CHUNK, n - done), np.int32), np.int32(1))
    return counts


def survival_mc(
    spec: GpcSpec,
    c: float,
    ell: int,
    trees: int,
    master_seed: int,
    root_type: tuple[int, int] | None = None,
) -> SurvivalEstimate:
    """Monte Carlo estimate of the root-survival probability at depth ell.

    Each batch of ``BATCH_SIZE`` trees draws its root types as one
    multinomial (or pins ``root_type``) and lays every level out type by
    type.  For each parent position i and child type (j, t) a level draws one
    Poisson(n_i * m) total, m = c * gamma_j * tau_t(j), and gives each child
    a parent by a uniform draw over the n_i position-i nodes.  At the leaf
    level (depth ell - 1) only the Binomial(total, P(Pois(M_j) >= t)) leaves
    that survive get parents; at ell = 1 the roots survive with
    P(Pois(M_i) >= t + 1).  Survival is folded bottom-up by counting each
    node's surviving children.

    ``NODE_BUDGET`` bounds the nodes a batch draws: roots, every internal
    level and every leaf, survivor or not.  The totals of a level are
    checked against it before any array of that level is allocated, and
    TreeSizeLimit is raised once they exceed it.
    """
    _check_quality(c)
    if ell < 0 or trees < 1:
        raise ValueError("need ell >= 0 and trees >= 1")
    ps, ts, w = _node_types(spec)
    if root_type is not None and not ((ps == root_type[0]) & (ts == root_type[1])).any():
        raise ValueError(f"root_type {root_type} is not a (position, capability) of the spec")
    if ell == 0:
        return SurvivalEstimate(1.0, 0.0, trees)
    L = spec.num_positions
    # links (child type k, parent position i), grouped by k, wherever eta couples them
    link_k, link_i = np.nonzero(spec.eta[:, ps].T)
    link_mean = c * w[link_k]
    child_mean = np.bincount(link_i, weights=link_mean, minlength=L)
    leaf_q = np.array([_tail(child_mean[j], t) for j, t in zip(ps, ts)])[link_k]
    if root_type is None:
        root_pos, root_need, probs = ps, ts + 1, w / w.sum()
    else:
        root_pos = np.array([root_type[0]], dtype=np.int64)
        root_need = np.array([root_type[1] + 1], dtype=np.int64)
        probs = np.ones(1)
    survived = 0
    done = 0
    batch_idx = 0
    while done < trees:
        b = min(BATCH_SIZE, trees - done)
        rng = _stream_rng(master_seed, batch_idx)
        batch_idx += 1
        count = rng.multinomial(b, probs)
        done += b
        if ell == 1:
            q = [_tail(child_mean[i], need) for i, need in zip(root_pos, root_need)]
            survived += int(rng.binomial(count, q).sum())
            continue
        # a level is (need per type, nodes per type, parent index per node);
        # its nodes sit type by type, so each position's nodes are contiguous
        levels = [(root_need, count, None)]
        seg_pos = root_pos
        nodes_seen = b
        for d in range(1, ell):
            size = np.bincount(seg_pos, weights=count, minlength=L).astype(np.int64)
            start = np.cumsum(size) - size
            kids = rng.poisson(size[link_i] * link_mean)
            nodes_seen += int(kids.sum())
            if nodes_seen > NODE_BUDGET:
                raise TreeSizeLimit(f"a batch of trees exceeded {NODE_BUDGET} nodes; "
                                    "lower ell, c or trees")
            if d < ell - 1:
                parent, at = np.empty(int(kids.sum()), dtype=np.int32), 0
                for i, n in zip(link_i.tolist(), kids.tolist()):  # start[i] + one call's draws
                    for lo in range(at, at + n, LEAF_CHUNK):
                        hi = min(lo + LEAF_CHUNK, at + n)
                        parent[lo:hi] = rng.integers(start[i], start[i] + size[i], hi - lo, np.int32)
                    at += n
                count = np.bincount(link_k, weights=kids, minlength=ps.size).astype(np.int64)
                levels.append((ts, count, parent))
                seg_pos = ps
        kept = np.bincount(link_i, weights=rng.binomial(kids, leaf_q), minlength=L)
        alive = [_parent_counts(rng, size[i], int(kept[i])) for i in range(L)]
        alive = alive[0] if L == 1 else np.concatenate(alive)  # no copy of one part
        for d in range(len(levels) - 1, -1, -1):
            need, count, parent = levels[d]
            survive, ends = np.empty(alive.size, dtype=bool), np.cumsum(count).tolist()
            for t, lo, hi in zip(need.tolist(), [0] + ends, ends):  # type by type
                np.greater_equal(alive[lo:hi], t, out=survive[lo:hi])
            if d:
                alive = np.zeros(levels[d - 1][1].sum(), dtype=np.int32)
                for lo in range(0, parent.size, LEAF_CHUNK):
                    hit = parent[lo : lo + LEAF_CHUNK][survive[lo : lo + LEAF_CHUNK]]
                    np.add.at(alive, hit, np.int32(1))
        survived += int(survive.sum())
    p_hat = survived / trees
    se = math.sqrt(p_hat * (1.0 - p_hat) / trees)
    return SurvivalEstimate(p_hat, se, trees)

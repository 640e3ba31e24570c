"""Multi-type branching-process oracle for the DE recursions.

Samples the limiting local neighborhood of a residual-graph vertex (a typed
Poisson tree), evaluates root survival under depth-limited peeling, and
carries the exact second moment of the total progeny.  Kept deliberately
independent of the DE code paths so the two can cross-validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codespec import GpcSpec, require_valid
from .graphsim import ResidualGraph, _stream_rng


class TreeSizeLimit(RuntimeError):
    """Sampling aborted: the tree exceeded the per-trial node budget."""


@dataclass(frozen=True)
class TypedTree:
    """Rooted tree with per-node position/capability; parent[0] == -1."""

    parent: np.ndarray
    position: np.ndarray
    capability: np.ndarray
    depth: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.parent.shape[0]

    @property
    def max_depth(self) -> int:
        return int(self.depth.max()) if self.num_nodes else 0


def _offspring_types(spec: GpcSpec, c: float) -> list[list[tuple[int, int, float]]]:
    """For each position i: [(child_position, child_capability, poisson_mean)]."""
    out = []
    L = spec.num_positions
    for i in range(L):
        rates = []
        for j in range(L):
            if spec.eta[i, j]:
                for t, w in spec.tau[j].support():
                    rates.append((j, t, c * float(spec.gamma[j]) * w))
        out.append(rates)
    return out


def _root_types(spec: GpcSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Root type table: positions, capabilities, probabilities gamma_i tau_t(i)."""
    ps, ts, pr = [], [], []
    for i in range(spec.num_positions):
        for t, w in spec.tau[i].support():
            ps.append(i)
            ts.append(t)
            pr.append(float(spec.gamma[i]) * w)
    probs = np.array(pr)
    return np.array(ps, dtype=np.int64), np.array(ts, dtype=np.int64), probs / probs.sum()


def sample_tree(
    spec: GpcSpec,
    c: float,
    depth: int,
    seed: int,
    node_cap: int = 10_000_000,
    root_type: tuple[int, int] | None = None,
) -> TypedTree:
    """Sample the typed Poisson tree down to the given depth.

    The root type (position, capability) is drawn with probability
    gamma_i * tau_t(i) unless ``root_type`` pins it; a node of position i
    then has an independent Poisson(c * gamma_j * tau_t'(j)) number of
    children of each coupled type (j, t').  Raises TreeSizeLimit beyond
    ``node_cap`` nodes, which callers should count as an aborted trial.
    """
    require_valid(spec)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rng = _stream_rng(seed, 0)
    rates = _offspring_types(spec, c)
    if root_type is None:
        ps, ts, probs = _root_types(spec)
        k = rng.choice(len(probs), p=probs)
        root = (int(ps[k]), int(ts[k]))
    else:
        root = root_type
    parent = [-1]
    position = [root[0]]
    capability = [root[1]]
    depths = [0]
    frontier = [0]
    for d in range(depth):
        nxt = []
        for v in frontier:
            for j, t, mean in rates[position[v]]:
                for _ in range(int(rng.poisson(mean))):
                    parent.append(v)
                    position.append(j)
                    capability.append(t)
                    depths.append(d + 1)
                    nxt.append(len(parent) - 1)
            if len(parent) > node_cap:
                raise TreeSizeLimit(f"tree exceeded {node_cap} nodes at depth {d + 1}")
        frontier = nxt
        if not frontier:
            break
    return TypedTree(
        parent=np.array(parent, dtype=np.int64),
        position=np.array(position, dtype=np.int64),
        capability=np.array(capability, dtype=np.int64),
        depth=np.array(depths, dtype=np.int64),
    )


def peel_tree(tree: TypedTree, ell: int) -> bool:
    """Does the root survive ell peeling iterations?

    Evaluated bottom-up: a node at depth d is effectively peeled for
    ell - d iterations.  Non-root nodes keep the edge to their parent, so
    they are removed only when at most t - 1 of their children survive;
    the root is removed when at most t survive.  Nodes at depth >= ell are
    never reached by the peeling and always survive.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if ell == 0:
        return True
    n = tree.num_nodes
    survive = np.ones(n, dtype=bool)
    # process depths ell-1 down to 0; children of depth-d nodes sit at d+1
    for d in range(min(ell, tree.max_depth + 1) - 1, -1, -1):
        nodes = np.nonzero(tree.depth == d)[0]
        child_mask = tree.depth == d + 1
        counts = np.zeros(n, dtype=np.int64)
        if child_mask.any():
            kids = np.nonzero(child_mask & survive)[0]
            np.add.at(counts, tree.parent[kids], 1)
        need = tree.capability[nodes] + (1 if d == 0 else 0)
        survive[nodes] = counts[nodes] >= need
    return bool(survive[0])


def tree_to_graph(tree: TypedTree) -> ResidualGraph:
    """Serialize the tree as a residual graph (parent-child edges)."""
    n = tree.num_nodes
    if n > 1:
        child = np.arange(1, n, dtype=np.int64)
        edges = np.stack([tree.parent[1:], child], axis=1)
        edges = np.sort(edges, axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return ResidualGraph(
        vertex_position=tree.position.copy(),
        vertex_capability=tree.capability.copy(),
        edges=edges,
        origin_edge_count=edges.shape[0],
    )


class SurvivalEstimate(NamedTuple):
    mean: float
    stderr: float
    trees: int


def survival_mc(
    spec: GpcSpec,
    c: float,
    ell: int,
    trees: int,
    master_seed: int,
    batch_size: int = 20000,
    root_type: tuple[int, int] | None = None,
    node_budget: int = 50_000_000,
) -> SurvivalEstimate:
    """Monte Carlo estimate of the root-survival probability at depth ell.

    Vectorized level-by-level over batches of trees: the realized per-node
    offspring counts are drawn per (position, capability) type and the
    survival bits are folded bottom-up, which avoids materializing the last
    generation (its nodes always survive, only their counts matter).  Raises
    TreeSizeLimit once a batch would exceed ``node_budget`` nodes, before the
    level that would exceed it is allocated.
    """
    require_valid(spec)
    if ell < 0 or trees < 1:
        raise ValueError("need ell >= 0 and trees >= 1")
    if ell == 0:
        return SurvivalEstimate(1.0, 0.0, trees)
    rates = _offspring_types(spec, c)
    L = spec.num_positions
    total_mean_by_pos = np.array([sum(r[2] for r in rates[i]) for i in range(L)])
    ps, ts, probs = _root_types(spec)
    survived = 0
    done = 0
    batch_idx = 0
    while done < trees:
        b = min(batch_size, trees - done)
        rng = _stream_rng(master_seed, batch_idx)
        batch_idx += 1
        if root_type is None:
            ks = rng.choice(len(probs), size=b, p=probs)
            pos = ps[ks]
            cap = ts[ks]
        else:
            pos = np.full(b, root_type[0], dtype=np.int64)
            cap = np.full(b, root_type[1], dtype=np.int64)
        levels = [(pos, cap, None)]  # (positions, capabilities, parent indices)
        nodes_seen = b
        # expand levels 0 .. ell-2 with typed children; a level's offspring
        # counts are drawn and summed against the budget before it is built
        for d in range(ell - 1):
            pos_d = levels[d][0]
            if pos_d.shape[0] == 0:
                break
            draws = []  # (parent indices, child counts, child position, capability)
            for i in range(L):
                sel = np.nonzero(pos_d == i)[0]
                if sel.size:
                    draws.extend((sel, rng.poisson(mean, size=sel.size), j, t)
                                 for j, t, mean in rates[i])
            nodes_seen += sum(int(k.sum()) for _, k, _, _ in draws)
            if nodes_seen > node_budget:
                raise TreeSizeLimit(
                    f"batch exceeded {node_budget} nodes; lower ell, c, or batch_size"
                )
            kids = [(np.repeat(sel, k), j, t) for sel, k, j, t in draws]
            levels.append((
                np.concatenate([np.full(par.size, j, dtype=np.int64) for par, j, _ in kids]),
                np.concatenate([np.full(par.size, t, dtype=np.int64) for par, _, t in kids]),
                np.concatenate([par for par, _, _ in kids]),
            ))
        # bottom level (depth ell-1): children counts suffice, all grandkids survive
        deepest = len(levels) - 1
        pos_d, cap_d, _ = levels[deepest]
        if deepest == ell - 1 and pos_d.shape[0]:
            totals = rng.poisson(total_mean_by_pos[pos_d])
            need_bottom = cap_d + (1 if deepest == 0 else 0)
            survive = totals >= need_bottom
        else:
            survive = np.zeros(pos_d.shape[0], dtype=bool)
        # fold upward: node survives iff enough children survive
        for d in range(deepest, 0, -1):
            pos_u, cap_u, _ = levels[d - 1]
            agg = np.bincount(levels[d][2], weights=survive, minlength=pos_u.shape[0])
            need = cap_u + (1 if d - 1 == 0 else 0)
            survive = agg >= need
        survived += int(survive.sum())
        done += b
    p_hat = survived / trees
    se = math.sqrt(p_hat * (1.0 - p_hat) / trees)
    return SurvivalEstimate(p_hat, se, trees)


def total_progeny_second_moment(c: float, ell: int) -> float:
    """Exact E[T^2] where T counts all nodes in generations 0..ell of a
    single-type branching process with Poisson(c) offspring.

    With s_j = E[Z_j^2] = c^j * G_j and G_j = 1 + c + ... + c^j, expanding
    E[(sum_j Z_j)^2] with E[Z_i Z_j] = c^(i-j) E[Z_j^2] for i > j gives
    E[T^2] = sum_j s_j * (2 * G_{ell-j} - 1).  The geometric sums are kept
    in accumulated form, so the expression stays exact at c = 1 (where it
    reduces to (ell+1)(ell+2)(2*ell+3)/6).
    """
    if c <= 0.0:
        raise ValueError(f"offspring mean must be positive, got {c}")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    G = [0.0] * (ell + 1)
    acc = 0.0
    power = 1.0
    for j in range(ell + 1):
        acc += power
        G[j] = acc
        power *= c
    total = 0.0
    cj = 1.0
    for j in range(ell + 1):
        total += cj * G[j] * (2.0 * G[ell - j] - 1.0)
        cj *= c
    return total


def total_progeny_samples(c: float, ell: int, trees: int, seed: int) -> np.ndarray:
    """Sampled totals T for the same process; generation sizes only."""
    rng = _stream_rng(seed, 0)
    z = np.ones(trees)
    tot = np.ones(trees)
    for _ in range(ell):
        z = rng.poisson(c * z).astype(float)
        tot += z
    return tot

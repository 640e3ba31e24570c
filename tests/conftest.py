import contextlib
import signal

import numpy as np
import pytest

from gpclab.codespec import (
    GpcSpec,
    preset_braided,
    preset_hpc,
    preset_pc,
    preset_staircase,
)
from gpclab.graphsim import ResidualGraph
from gpclab.poisson import CapabilityDistribution

# reference mixtures with mean capability ~7: the unconstrained LP optimum
# near its threshold and the variant constrained to capabilities >= 4
MIX_TBAR7 = CapabilityDistribution.from_dict(
    {1: 0.070, 2: 0.103, 4: 0.115, 5: 0.179, 10: 0.496, 11: 0.037}
)
MIX_TBAR7_MIN4 = CapabilityDistribution.from_dict({4: 0.495, 9: 0.029, 10: 0.476})

# families whose threshold the tests sandwich between the two upper bounds
BOUNDS_SPECS = {
    "hpc_t4": preset_hpc(1000, 4),
    "pc_t3": preset_pc(1000, t_row=3),
    "braided4": preset_braided(4, 1000, 3),
    "braided8": preset_braided(8, 1000, 3),
    "braided20": preset_braided(20, 1200, 3),
    "staircase6": preset_staircase(6, 36, 3),
    "staircase20": preset_staircase(20, 120, 3),
    # the refined bound's root lies below t_bar = 10.9
    "root_below_tbar": preset_hpc(1000, CapabilityDistribution.from_dict({1: 0.9, 100: 0.1}),
                                  tau_assignment="random"),
}


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in a call that runs longer than ``seconds``, so a
    call that would loop forever fails instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_connected_eta(rng: np.random.Generator, L: int) -> np.ndarray:
    """Random symmetric 0/1 coupling matrix whose position graph is connected."""
    eta = np.zeros((L, L), dtype=np.int64)
    order = rng.permutation(L)
    for a, b in zip(order[:-1], order[1:]):  # random spanning tree
        eta[a, b] = eta[b, a] = 1
    for i in range(L):
        for j in range(i, L):
            if rng.random() < 0.3:
                eta[i, j] = eta[j, i] = 1
    if L == 1:
        eta[0, 0] = 1
    return eta


def random_mixture(rng: np.random.Generator, t_max: int) -> CapabilityDistribution:
    k = int(rng.integers(1, min(4, t_max) + 1))
    ts = sorted(rng.choice(np.arange(1, t_max + 1), size=k, replace=False).tolist())
    raw = rng.integers(1, 6, size=k)
    total = int(raw.sum())
    return CapabilityDistribution.from_dict(
        {int(t): int(w) / total for t, w in zip(ts, raw)}
    )


def random_spec(rng: np.random.Generator, L_max: int = 5, t_max: int = 8,
                n_scale: int = 12) -> GpcSpec:
    """Random family with random capability assignment (valid by construction)."""
    L = int(rng.integers(1, L_max + 1))
    eta = random_connected_eta(rng, L)
    raw = rng.integers(1, 6, size=L)
    gamma = raw / raw.sum()
    tau = tuple(random_mixture(rng, t_max) for _ in range(L))
    return GpcSpec(eta=eta, gamma=gamma, tau=tau, n=int(raw.sum()) * n_scale,
                   tau_assignment="random")


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
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)

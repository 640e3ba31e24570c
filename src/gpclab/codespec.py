"""Deterministic generalized-product-code families.

A family is given by a symmetric binary coupling matrix ``eta`` over L
positions, position weights ``gamma`` summing to one, per-position capability
mixtures ``tau``, and the total check-node count ``n``.  Presets cover the
classic shapes: half-product, product, staircase, block-wise braided, and
arbitrary block arrays.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .poisson import CapabilityDistribution

DETERMINISTIC = "deterministic"
RANDOM = "random"


@dataclass(frozen=True)
class GpcSpec:
    """Immutable description of one deterministic GPC family member."""

    eta: np.ndarray
    gamma: np.ndarray
    tau: tuple[CapabilityDistribution, ...]
    n: int
    tau_assignment: str = DETERMINISTIC

    def __post_init__(self) -> None:
        eta = np.ascontiguousarray(np.asarray(self.eta, dtype=np.int64))
        gamma = np.ascontiguousarray(np.asarray(self.gamma, dtype=np.float64))
        eta.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "tau", tuple(self.tau))

    @property
    def num_positions(self) -> int:
        return self.eta.shape[0]

    @property
    def t_max(self) -> int:
        return max(d.t_max for d in self.tau)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _position_graph_connected(eta: np.ndarray) -> bool:
    """BFS over positions i--j with eta[i, j] == 1 (self-loops ignored)."""
    L = eta.shape[0]
    seen = np.zeros(L, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(eta[i])[0]:
            if j != i and not seen[j]:
                seen[j] = True
                stack.append(int(j))
    # an isolated position with only a self-loop still counts as disconnected
    return bool(seen.all())


def validate(spec: GpcSpec) -> ValidationReport:
    """Collect every structural violation; never raises on bad content."""
    v: list[str] = []
    eta, gamma = spec.eta, spec.gamma
    if eta.ndim != 2 or eta.shape[0] != eta.shape[1]:
        v.append(f"eta must be square, got shape {eta.shape}")
        return ValidationReport(tuple(v))
    L = eta.shape[0]
    if not np.array_equal(eta, eta.T):
        v.append("eta must be symmetric")
    if not np.isin(eta, (0, 1)).all():
        v.append("eta entries must be 0 or 1")
    zero_rows = np.nonzero(~eta.any(axis=1))[0]
    if zero_rows.size:
        v.append(f"unconnected CNs: eta rows {zero_rows.tolist()} are all zero")
    elif L > 1 and not _position_graph_connected(eta):
        v.append("eta is reducible: position graph is disconnected")
    if gamma.shape != (L,):
        v.append(f"gamma must have length {L}, got {gamma.shape}")
        return ValidationReport(tuple(v))
    if (gamma < 0.0).any():
        v.append("gamma entries must be nonnegative")
    if abs(float(gamma.sum()) - 1.0) > 1e-12:
        v.append(f"gamma must sum to 1, got {float(gamma.sum())!r}")
    if len(spec.tau) != L:
        v.append(f"tau must list {L} capability distributions, got {len(spec.tau)}")
        return ValidationReport(tuple(v))
    for i, dist in enumerate(spec.tau):
        for err in dist.violations():
            v.append(f"tau({i}): {err}")
    if spec.n < 1:
        v.append(f"n must be positive, got {spec.n}")
    if spec.tau_assignment not in (DETERMINISTIC, RANDOM):
        v.append(f"unknown tau assignment {spec.tau_assignment!r}")
    if spec.tau_assignment == DETERMINISTIC:
        for i, dist in enumerate(spec.tau):
            n_i = gamma[i] * spec.n
            if abs(n_i - round(n_i)) > 1e-9:
                v.append(f"position {i}: gamma_i * n = {n_i!r} is not integral")
                continue
            for t, w in dist.support():
                cnt = w * n_i
                if abs(cnt - round(cnt)) > 1e-9:
                    v.append(
                        f"position {i}: tau_{t} * gamma_i * n = {cnt!r} "
                        "is not integral under deterministic assignment"
                    )
    return ValidationReport(tuple(v))


def require_valid(spec: GpcSpec) -> None:
    report = validate(spec)
    if not report.ok:
        raise ValueError("invalid spec: " + "; ".join(report.violations))


def cn_counts(spec: GpcSpec) -> np.ndarray:
    """Integer CN count per position (gamma_i * n, rounded).

    Under random capability assignment a non-integral gamma_i * n is rounded
    to the nearest integer with a warning; deterministic assignment rejects
    such specs in validate().
    """
    raw = spec.gamma * spec.n
    rounded = np.rint(raw).astype(np.int64)
    if spec.tau_assignment == RANDOM:
        off = np.abs(raw - rounded) > 1e-9
        if off.any():
            warnings.warn(
                f"rounded non-integral CN counts at positions {np.nonzero(off)[0].tolist()}",
                stacklevel=2,
            )
    return rounded


def _degrees(eta: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # the pairing rule: a CN at position i shares one VN with every CN of
    # each coupled position j, itself excluded: d_i = sum_j eta_ij n_j - eta_ii
    return eta @ counts - np.diag(eta)


def cn_degrees(spec: GpcSpec) -> np.ndarray:
    """Component-code length at each position."""
    return _degrees(spec.eta, cn_counts(spec))


def code_length(spec: GpcSpec) -> int:
    """Total number of VNs; each joins exactly two CNs (handshake identity)."""
    counts = cn_counts(spec)
    return int(counts @ _degrees(spec.eta, counts)) // 2


def erasure_scaling(spec: GpcSpec) -> float:
    """CN-count rescaling 1 / (gamma' eta gamma).

    Multiplying the CN count by this constant makes the effective channel
    quality c equal (asymptotically) to the mean number of initial erasures
    per component code, which puts different families on a comparable axis.
    """
    q = float(spec.gamma @ spec.eta @ spec.gamma)
    return 1.0 / q


def mean_capability(spec: GpcSpec) -> float:
    """Position-weighted mean erasure-correcting capability."""
    return float(sum(g * d.mean() for g, d in zip(spec.gamma, spec.tau)))


def _uniform_tau(L: int, dist: CapabilityDistribution) -> tuple[CapabilityDistribution, ...]:
    return tuple([dist] * L)


def preset_hpc(n: int, tau: CapabilityDistribution | int,
               tau_assignment: str = DETERMINISTIC) -> GpcSpec:
    """Half-product family: one self-coupled position (complete CN graph)."""
    if isinstance(tau, int):
        tau = CapabilityDistribution.point_mass(tau)
    return GpcSpec(
        eta=np.ones((1, 1), dtype=np.int64),
        gamma=np.ones(1),
        tau=(tau,),
        n=n,
        tau_assignment=tau_assignment,
    )


def preset_pc(n: int, split: Sequence[float] = (0.5, 0.5), t_row: int = 3,
              t_col: int | None = None,
              tau_assignment: str = DETERMINISTIC) -> GpcSpec:
    """Product family: two coupled positions (rows and columns)."""
    if t_col is None:
        t_col = t_row
    g = np.asarray(split, dtype=float)
    if g.shape != (2,):
        raise ValueError("split must give exactly two position weights")
    return GpcSpec(
        eta=np.array([[0, 1], [1, 0]], dtype=np.int64),
        gamma=g,
        tau=(CapabilityDistribution.point_mass(t_row),
             CapabilityDistribution.point_mass(t_col)),
        n=n,
        tau_assignment=tau_assignment,
    )


def staircase_eta(L: int) -> np.ndarray:
    if L < 2:
        raise ValueError(f"staircase needs L >= 2, got {L}")
    eta = np.zeros((L, L), dtype=np.int64)
    for i in range(L - 1):
        eta[i, i + 1] = eta[i + 1, i] = 1
    return eta


def preset_staircase(L: int, n: int, t: int,
                     tau_assignment: str = DETERMINISTIC) -> GpcSpec:
    """Chain of L positions, each coupled to its neighbours, uniform gamma."""
    return GpcSpec(
        eta=staircase_eta(L),
        gamma=np.full(L, 1.0 / L),
        tau=_uniform_tau(L, CapabilityDistribution.point_mass(t)),
        n=n,
        tau_assignment=tau_assignment,
    )


def braided_eta(L: int) -> np.ndarray:
    if L < 4 or L % 2:
        raise ValueError(f"block-wise braided needs even L >= 4, got {L}")
    eta = np.zeros((L, L), dtype=np.int64)
    for i in range(L - 1):
        eta[i, i + 1] = eta[i + 1, i] = 1
    # extra skew couplings between odd and even positions two steps apart
    for i in range(1, L // 2):
        a, b = 2 * i - 2, 2 * i + 1
        eta[a, b] = eta[b, a] = 1
    return eta


def preset_braided(L: int, n: int, t: int,
                   tau_assignment: str = DETERMINISTIC) -> GpcSpec:
    """Block-wise braided chain with skew couplings, uniform gamma."""
    return GpcSpec(
        eta=braided_eta(L),
        gamma=np.full(L, 1.0 / L),
        tau=_uniform_tau(L, CapabilityDistribution.point_mass(t)),
        n=n,
        tau_assignment=tau_assignment,
    )


def block_array_eta(eta_prime: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coupling matrix for an arbitrary code array of square blocks.

    ``eta_prime[i, j] = 1`` marks a block at grid cell (i, j).  Convention:
    odd output positions are column codes, even positions are row codes
    (1-based), i.e. block (i, j) couples row position 2i with column position
    2j-1.  Empty positions are pruned and the returned gamma is uniform over
    the survivors.
    """
    ep = np.asarray(eta_prime, dtype=np.int64)
    if ep.ndim != 2 or not ep.any():
        raise ValueError("block array must be a nonzero 2-d 0/1 matrix")
    if not np.isin(ep, (0, 1)).all():
        raise ValueError("block array entries must be 0 or 1")
    a_rows, b_cols = ep.shape
    a = max(a_rows, b_cols)
    L = 2 * a
    eta = np.zeros((L, L), dtype=np.int64)
    for i in range(a_rows):
        for j in range(b_cols):
            if ep[i, j]:
                # 1-based positions 2(i+1) and 2(j+1)-1
                r, c = 2 * i + 1, 2 * j
                eta[r, c] = eta[c, r] = 1
    keep = np.nonzero(eta.any(axis=1))[0]
    eta = eta[np.ix_(keep, keep)]
    gamma = np.full(len(keep), 1.0 / len(keep))
    return eta, gamma


def preset_from_block_array(eta_prime: np.ndarray, n: int, t: int,
                            tau_assignment: str = DETERMINISTIC) -> GpcSpec:
    eta, gamma = block_array_eta(eta_prime)
    return GpcSpec(
        eta=eta,
        gamma=gamma,
        tau=_uniform_tau(len(gamma), CapabilityDistribution.point_mass(t)),
        n=n,
        tau_assignment=tau_assignment,
    )


@dataclass(frozen=True)
class BchComponentParams:
    """Shortened binary BCH component code, parameterized by field degree,
    shortening length and erasure-correcting capability."""

    nu: int
    s: int
    t: int

    def __post_init__(self) -> None:
        if 2**self.nu - 1 - self.s < 1:
            raise ValueError("shortening leaves no code bits")
        if self.t < 1:
            raise ValueError(f"capability must be >= 1, got {self.t}")


def bch_params(p: BchComponentParams) -> tuple[int, int, int]:
    """(length, dimension, design distance) of the shortened BCH code."""
    n_c = 2**p.nu - 1 - p.s
    if p.t % 2 == 0:
        k_c = n_c - p.nu * p.t // 2
    else:
        k_c = n_c - p.nu * (p.t - 1) // 2 - 1
    if k_c < 1:
        raise ValueError(f"no information bits left: k_C = {k_c}")
    return n_c, k_c, p.t + 1


def rate_lower_bound(spec: GpcSpec, dims: Sequence[int]) -> float:
    """1 - sum_k (len_k - dim_k) / m over all component codes.

    ``dims`` lists the dimension of each CN's (possibly shortened) component
    code, ordered by position blocks; its length must equal the CN count n.
    """
    counts = cn_counts(spec)
    degrees = cn_degrees(spec)
    dims = np.asarray(dims, dtype=np.int64)
    if dims.shape != (int(counts.sum()),):
        raise ValueError(f"need one dimension per CN ({int(counts.sum())}), got {dims.shape}")
    lengths = np.repeat(degrees, counts)
    redundancy = int((lengths - dims).sum())
    return 1.0 - redundancy / code_length(spec)


def hpc_rate_lower_bound(n: int, k_c: int) -> float:
    """Closed form for the half-product family with full-length dimension k_c."""
    return 1.0 - 2.0 * (n - k_c) / (n - 1)


# JSON round-trip ------------------------------------------------------------

def spec_to_json(spec: GpcSpec) -> str:
    doc = {
        "eta": spec.eta.tolist(),
        "gamma": [float(g) for g in spec.gamma],
        "tau": [{str(t): w for t, w in d.support()} for d in spec.tau],
        "n": spec.n,
        "assignment": spec.tau_assignment,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def spec_from_json(text: str) -> GpcSpec:
    doc = json.loads(text)
    tau = tuple(
        CapabilityDistribution.from_dict({int(t): float(w) for t, w in entry.items()})
        for entry in doc["tau"]
    )
    return GpcSpec(
        eta=np.asarray(doc["eta"], dtype=np.int64),
        gamma=np.asarray(doc["gamma"], dtype=np.float64),
        tau=tau,
        n=int(doc["n"]),
        tau_assignment=doc.get("assignment", DETERMINISTIC),
    )


def spec_hash(spec: GpcSpec) -> str:
    return hashlib.sha256(spec_to_json(spec).encode()).hexdigest()[:16]

"""Deterministic generalized-product-code families.

A family is given by a symmetric binary coupling matrix ``eta`` over L
positions, position weights ``gamma`` summing to one, per-position capability
mixtures ``tau``, and the total check-node count ``n``.  A ``GpcSpec`` is
valid by construction: building one that breaks any of these rules (or leaves
eta reducible, or gives non-integral capability counts under deterministic
assignment) raises ``ValueError`` naming every violation, so the analysis
modules never re-check a spec; each mixture in ``tau`` checked itself when it
was built.  Presets cover half-product, product and arbitrary block arrays;
the staircase and block-wise braided presets are banded block arrays.
"""

from __future__ import annotations

import functools
import json
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .poisson import CapabilityDistribution

DETERMINISTIC = "deterministic"
RANDOM = "random"


@dataclass(frozen=True)
class GpcSpec:
    """Immutable description of one deterministic GPC family member.

    Construction normalizes ``eta``/``gamma`` to read-only arrays and raises
    ``ValueError("invalid spec: ...")`` listing every structural violation.
    """

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
        violations = _violations(self)
        if violations:
            raise ValueError("invalid spec: " + "; ".join(violations))

    def __reduce__(self):  # through the constructor: read-only arrays, no cached table
        return GpcSpec, (self.eta, self.gamma, self.tau, self.n, self.tau_assignment)

    @property
    def num_positions(self) -> int:
        return self.eta.shape[0]

    @property
    def t_max(self) -> int:
        return max(d.t_max for d in self.tau)

    @functools.cached_property
    def tau_table(self) -> np.ndarray:
        """Read-only (L, t_max) weights, tau_table[i, t - 1] = tau_t(i) with zero
        padding; built once, on first use, and kept out of the fields and JSON."""
        table = np.zeros((self.num_positions, self.t_max))
        for row, dist in zip(table, self.tau):
            row[: dist.t_max] = dist.weights
        table.setflags(write=False)
        return table


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


def _violations(spec: GpcSpec) -> list[str]:
    """Collect every structural violation; never raises on bad content."""
    v: list[str] = []
    eta, gamma = spec.eta, spec.gamma
    if eta.ndim != 2 or eta.shape[0] != eta.shape[1]:
        v.append(f"eta must be square, got shape {eta.shape}")
        return v
    L = eta.shape[0]
    if not np.array_equal(eta, eta.T):
        v.append("eta must be symmetric")
    if not ((eta == 0) | (eta == 1)).all():
        v.append("eta entries must be 0 or 1")
    zero_rows = np.nonzero(~eta.any(axis=1))[0]
    if zero_rows.size:
        v.append(f"unconnected CNs: eta rows {zero_rows.tolist()} are all zero")
    elif L > 1 and not _position_graph_connected(eta):
        v.append("eta is reducible: position graph is disconnected")
    if gamma.shape != (L,):
        v.append(f"gamma must have length {L}, got {gamma.shape}")
        return v
    if not np.isfinite(gamma).all():  # NaN passes both checks below
        v.append("gamma entries must be finite")
        return v
    if (gamma < 0.0).any():
        v.append("gamma entries must be nonnegative")
    if abs(float(gamma.sum()) - 1.0) > 1e-12:
        v.append(f"gamma must sum to 1, got {float(gamma.sum())!r}")
    if len(spec.tau) != L:
        v.append(f"tau must list {L} capability distributions, got {len(spec.tau)}")
        return v
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
    return v


def cn_counts(spec: GpcSpec) -> np.ndarray:
    """Integer CN count per position (gamma_i * n, rounded).

    Under random capability assignment a non-integral gamma_i * n is rounded
    to the nearest integer with a warning; deterministic assignment rejects
    such specs at construction.
    """
    raw = spec.gamma * spec.n
    rounded = np.rint(raw).astype(np.int64)
    if spec.tau_assignment == RANDOM:
        off = np.abs(raw - rounded) > 1e-9
        if off.any():  # name the first caller outside the package
            frame, level = sys._getframe(1), 2
            while frame.f_globals.get("__name__", "").startswith(__package__ + "."):
                frame, level = frame.f_back, level + 1
            msg = f"rounded non-integral CN counts at positions {np.nonzero(off)[0].tolist()}"
            warnings.warn(msg, stacklevel=level)
    return rounded


def cn_degrees(spec: GpcSpec) -> np.ndarray:
    """Component-code length at each position, by the pairing rule: a CN at
    position i shares one VN with every CN of each coupled position j, itself
    excluded, d_i = sum_j eta_ij n_j - eta_ii."""
    return spec.eta @ cn_counts(spec) - np.diag(spec.eta)


def code_length(spec: GpcSpec) -> int:
    """Total number of VNs; each joins exactly two CNs (handshake identity)."""
    return int(cn_counts(spec) @ cn_degrees(spec)) // 2


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
              t_col: int | None = None) -> GpcSpec:
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
    if not ((ep == 0) | (ep == 1)).all():
        raise ValueError("block array entries must be 0 or 1")
    i, j = np.nonzero(ep)
    rows, cols = 2 * i + 1, 2 * j  # 1-based positions 2(i+1) and 2(j+1)-1
    used = np.zeros(2 * max(ep.shape), dtype=bool)
    used[rows] = used[cols] = True
    index = np.cumsum(used) - 1  # position after the empty ones are pruned
    L = int(used.sum())
    eta = np.zeros((L, L), dtype=np.int64)
    eta[index[rows], index[cols]] = 1
    eta[index[cols], index[rows]] = 1
    return eta, np.full(L, 1.0 / L)


def preset_from_block_array(eta_prime: np.ndarray, n: int, t: int) -> GpcSpec:
    """Block-array family (``block_array_eta``) with capability t everywhere."""
    eta, gamma = block_array_eta(eta_prime)
    return GpcSpec(eta=eta, gamma=gamma,
                   tau=(CapabilityDistribution.point_mass(t),) * len(gamma), n=n)


def preset_staircase(L: int, n: int, t: int) -> GpcSpec:
    """Staircase: the block array with blocks on its diagonal and
    superdiagonal, a chain of L positions each coupled to its neighbours."""
    if L < 2:
        raise ValueError(f"staircase needs L >= 2, got {L}")
    a = (L + 1) // 2
    return preset_from_block_array((np.eye(a) + np.eye(a, k=1))[: L // 2], n, t)


def preset_braided(L: int, n: int, t: int) -> GpcSpec:
    """Block-wise braided: the tridiagonal block array, a chain of L
    positions with skew couplings 2i - 2 -- 2i + 1."""
    if L < 4 or L % 2:
        raise ValueError(f"block-wise braided needs even L >= 4, got {L}")
    a = L // 2
    return preset_from_block_array(np.eye(a, k=-1) + np.eye(a) + np.eye(a, k=1), n, t)


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


def _json_number(value, kind: type):
    """``value``, a number or nested lists of them, unchanged.  An entry that
    is true or a string, which a cast reads as 1 or parses, raises ValueError;
    so does, for kind int, one like 36.9, which an integer cast truncates
    (36.0 passes)."""
    what = "an integer" if kind is int else "a number"
    for x in np.asarray(value, dtype=object).flat:
        fraction = kind is int and isinstance(x, float) and not x.is_integer()
        if fraction or isinstance(x, (bool, str)):
            raise ValueError(f"{json.dumps(x)} is not {what}")
    return value


def spec_from_json(text: str) -> GpcSpec:
    """Inverse of ``spec_to_json``; ValueError names a missing or ill-typed field."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"spec must be a JSON object, got {type(doc).__name__}")

    def field(name, convert):
        if name not in doc:
            raise ValueError(f"spec has no field {name!r}")
        try:
            return convert(doc[name])
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"spec field {name!r}: {exc}") from exc

    tau = field("tau", lambda v: tuple(CapabilityDistribution.from_dict(
        {int(t): float(_json_number(w, float)) for t, w in entry.items()}) for entry in v))
    return GpcSpec(eta=field("eta", lambda v: np.asarray(_json_number(v, int), dtype=np.int64)),
                   gamma=field("gamma", lambda v: np.asarray(_json_number(v, float), dtype=float)),
                   tau=tau, n=field("n", lambda v: int(_json_number(v, int))),
                   tau_assignment=doc.get("assignment", DETERMINISTIC))


def spec_hash(spec: GpcSpec) -> str:
    import hashlib  # only here, so that importing gpclab does not load it
    return hashlib.sha256(spec_to_json(spec).encode()).hexdigest()[:16]

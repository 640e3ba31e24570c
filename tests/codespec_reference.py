"""Test-local component-code parameters and rate bounds for GPC families.

`BchComponentParams` and `bch_params` give the length, dimension and design
distance of a shortened binary BCH component code.  `rate_lower_bound` is
1 - (total component redundancy) / (code length) for a spec with one
dimension per component code, and `hpc_rate_lower_bound` its closed form for
the half-product family.  The tests check the structural quantities of
`gpclab.codespec` (`cn_counts`, `cn_degrees`, `code_length`) through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gpclab.codespec import GpcSpec, cn_counts, cn_degrees, code_length


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

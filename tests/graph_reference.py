"""Test-local core oracle that `gpclab.graphsim.core_oracle` is compared against.

`reference_core_oracle` is the oracle the package used before it removed
vertices in colour-class batches: a Python stack over the CSR incidence of
`gpclab.graphsim._incidence` that deletes one removable vertex at a time, in
last-queued-first order.  It is plain and slow on purpose; by k-core
confluence it ends at the same core as the package oracle and `peel`.
"""

from __future__ import annotations

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

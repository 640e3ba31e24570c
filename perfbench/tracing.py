"""Spans around calls into gpclab's layers, and the per-layer metrics they give.

A traced run replaces public functions of the package with wrappers, as
module attributes, for the duration of one round; the untraced rounds call
the package unchanged.  Calls made inside the package through a module
attribute (``post_verify`` -> ``de.threshold`` -> ``de.de_run``) get spans of
their own, each with its parent.  The Poisson tail block is called about a
million times per round, so its calls are not kept one by one: each span
accumulates the calls, time and pmf terms of the tail blocks run directly
inside it.  A span's self time is its duration minus its child spans and
those tail blocks.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = -1

# name -> unit of every per-layer metric a traced run reports
LAYER_METRICS = {
    "poisson.calls": "count",
    "poisson.terms": "count",
    "poisson.self_s": "s",
    "codespec.validate_calls": "count",
    "codespec.validate_s": "s",
    "de.runs": "count",
    "de.iterations": "count",
    "de.position_updates": "count",
    "de.self_s": "s",
    "de.ns_per_position_update": "ns",
    "de.converged": "count",
    "de.stuck": "count",
    "de.iteration_cap": "count",
    "de.threshold_calls": "count",
    "de.runs_per_threshold": "ratio",
    "de.threshold_self_s": "s",
    "de.contraction_s": "s",
    "de.bracket_errors": "count",
    "optimizer.build_lp_s": "s",
    "optimizer.lp_rows": "count",
    "optimizer.binding_rows": "count",
    "optimizer.binding_frac": "ratio",
    "optimizer.solve_self_s": "s",
    "optimizer.post_verify_self_s": "s",
    "optimizer.degenerate_warnings": "count",
    "optimizer.fine_grid_min_slack": "ratio",
    "simplex.calls": "count",
    "simplex.pivots": "count",
    "simplex.s": "s",
    "simplex.ms_per_pivot": "ms",
    "simplex.flops_computed": "flop",
    "simplex.bytes_computed": "B",
    "graphsim.sample_s": "s",
    "graphsim.edges_sampled": "count",
    "graphsim.peel_s": "s",
    "graphsim.peel_rounds": "count",
    "graphsim.core_oracle_s": "s",
    "graphsim.mc_s": "s",
    "graphsim.mc_trials": "count",
    "graphsim.mc_cpu_s": "s",
    "graphsim.mc_parallel_eff": "ratio",
    "branching.survival_s": "s",
    "branching.trees": "count",
    "branching.trees_per_s": "1/s",
    "branching.rss_growth_mb": "MB",
    "trace.overhead_frac": "ratio",
}


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "cpu0", "cpu1",
                 "rss0", "rss1", "info", "leaf")

    def __init__(self, sid: int, name: str, parent: int, start: float, end: float = 0.0):
        self.sid, self.name, self.parent = sid, name, parent
        self.start, self.end = start, end
        self.cpu0 = self.cpu1 = 0.0
        self.rss0 = self.rss1 = 0
        self.info: dict = {}
        self.leaf = [0, 0.0, 0]  # tail-block calls, seconds, pmf terms

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _note_de_run(args, kwargs, out) -> dict:
    return {"L": int(out.x.shape[1]), "iterations": out.iterations_run,
            "verdict": out.verdict}


def _note_solve_lp(args, kwargs, out) -> dict:
    n_vars = len(_arg(args, kwargs, 0, "c"))
    b_ub = _arg(args, kwargs, 2, "b_ub")
    b_eq = _arg(args, kwargs, 4, "b_eq")
    n_ub = 0 if b_ub is None else len(b_ub)
    n_eq = 0 if b_eq is None else len(b_eq)
    n_ge = 0 if b_ub is None else sum(1 for b in b_ub if b < 0.0)
    flops, nbytes = simplex_work(n_vars, n_ub, n_eq, n_ge, out.pivots)
    return {"pivots": out.pivots, "flops": flops, "bytes": nbytes}


def _note_monte_carlo(args, kwargs, out) -> dict:
    return {"trials": out.trials, "jobs": _arg(args, kwargs, 5, "jobs", 1)}


# (module, attribute, span name, note taking (args, kwargs, result)).
# Attributes a later version of the package no longer has are skipped.
TARGETS = [
    ("de", "de_run", "de.de_run", _note_de_run),
    ("de", "threshold", "de.threshold", None),
    ("de", "success_condition", "de.success_condition", None),
    ("de", "require_valid", "codespec.require_valid", None),
    ("optimizer", "build_lp", "optimizer.build_lp", None),
    ("optimizer", "solve", "optimizer.solve", None),
    ("optimizer", "post_verify", "optimizer.post_verify", None),
    ("optimizer", "solve_lp", "simplex.solve_lp", _note_solve_lp),
    ("graphsim", "sample_residual", "graphsim.sample_residual",
     lambda a, k, out: {"edges": out.num_edges}),
    ("graphsim", "peel", "graphsim.peel", lambda a, k, out: {"rounds": out.rounds_run}),
    ("graphsim", "core_oracle", "graphsim.core_oracle", None),
    ("graphsim", "monte_carlo", "graphsim.monte_carlo", _note_monte_carlo),
    ("graphsim", "require_valid", "codespec.require_valid", None),
    ("branching", "survival_mc", "branching.survival_mc",
     lambda a, k, out: {"trees": out.trees}),
    ("branching", "require_valid", "codespec.require_valid", None),
]
LEAF_TARGETS = [("de", "poisson_tail_block"), ("optimizer", "poisson_tail_block")]


class Tracer:
    """In-memory span store for one traced round."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root = Span(ROOT, "root", ROOT, 0.0)  # tail blocks outside any span
        self._stack: list[Span] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1].sid if stack else ROOT
            span = Span(len(spans), name, parent, 0.0)
            span.rss0, span.cpu0 = peak_rss_kib(), cpu_seconds()
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                span.rss1, span.cpu1 = peak_rss_kib(), cpu_seconds()
                stack.pop()
            if note is not None:
                span.info.update(note(args, kwargs, out))
            return out

        return wrapper

    def wrap_leaf(self, fn):
        stack, root = self._stack, self.root

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            acc = (stack[-1] if stack else root).leaf
            acc[0] += 1
            acc[1] += elapsed
            acc[2] += _arg(args, kwargs, 0, "t_max", 0)
            return out

        return wrapper

    def records(self) -> list[dict]:
        """Spans as JSON-ready dicts, the tail blocks outside any span first."""
        out = [{"id": ROOT, "name": "root", "leaf": self.root.leaf}]
        for s in self.spans:
            out.append({"id": s.sid, "name": s.name, "parent": s.parent,
                        "start": s.start, "end": s.end, "cpu_s": s.cpu1 - s.cpu0,
                        "peak_rss_kib": [s.rss0, s.rss1], "leaf": s.leaf, **s.info})
        return out


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Swap the traced functions in ``modules`` for wrappers, then restore."""
    saved = []
    try:
        for mod_name, attr, name, note in TARGETS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is not None:
                saved.append((mod, attr, fn))
                setattr(mod, attr, tracer.wrap(name, fn, note))
        for mod_name, attr in LEAF_TARGETS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is not None:
                saved.append((mod, attr, fn))
                setattr(mod, attr, tracer.wrap_leaf(fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its child spans and its own tail blocks."""
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent != ROOT:
            children[s.parent] += s.duration
    return [s.duration - children[i] - s.leaf[1] for i, s in enumerate(spans)]


def simplex_work(n_vars: int, n_ub: int, n_eq: int, n_ge: int,
                 pivots: int) -> tuple[int, int]:
    """Computed flops and bytes of the dense simplex's rank-1 pivots.

    The tableau has m = rows + 1 rows (constraints and the reduced-cost row)
    and N = variables + slacks + artificials columns; ``n_ge`` counts the
    <= rows with negative right-hand side, which the solver flips into >=
    rows that need an artificial.  Each pivot multiplies and subtracts once
    per entry (2 flops) and reads and writes each float64 entry (16 bytes).
    """
    m = n_ub + n_eq + 1
    n_cols = n_vars + n_ub + n_eq + n_ge
    cells = m * n_cols * pivots
    return 2 * cells, 16 * cells


def _sum(values) -> float:
    return float(sum(values))


def layer_metrics(tracer: Tracer, outputs: list[dict]) -> dict[str, float | None]:
    """Per-layer metrics of one traced round; None marks a layer not exercised.

    ``outputs`` are the task results of the same round; the LP row counts
    and post-verification results come from them.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s.sid)

    def total(name: str) -> float:
        return _sum(spans[i].duration for i in by_name[name])

    def own_total(name: str) -> float:
        return _sum(own[i] for i in by_name[name])

    def info_sum(name: str, key: str) -> int:
        return sum(spans[i].info.get(key, 0) for i in by_name[name])

    def ratio(num: float, den: float) -> float | None:
        return num / den if den else None

    m: dict[str, float | None] = {k: None for k in LAYER_METRICS}

    leaves = [tracer.root.leaf] + [s.leaf for s in spans]
    calls = sum(leaf[0] for leaf in leaves)
    if calls:
        m["poisson.calls"] = calls
        m["poisson.terms"] = sum(leaf[2] for leaf in leaves)
        m["poisson.self_s"] = _sum(leaf[1] for leaf in leaves)

    if by_name["codespec.require_valid"]:
        m["codespec.validate_calls"] = len(by_name["codespec.require_valid"])
        m["codespec.validate_s"] = total("codespec.require_valid")

    runs = by_name["de.de_run"]
    if runs:
        updates = sum(spans[i].info["iterations"] * spans[i].info["L"] for i in runs)
        verdicts = [spans[i].info["verdict"] for i in runs]
        m["de.runs"] = len(runs)
        m["de.iterations"] = info_sum("de.de_run", "iterations")
        m["de.position_updates"] = updates
        m["de.self_s"] = own_total("de.de_run")
        m["de.ns_per_position_update"] = ratio(1e9 * m["de.self_s"], updates)
        m["de.converged"] = verdicts.count("converged_to_zero")
        m["de.stuck"] = verdicts.count("stuck_positive")
        m["de.iteration_cap"] = verdicts.count("iteration_cap")

    thresholds = by_name["de.threshold"]
    if thresholds:
        in_threshold = set(thresholds)
        nested = 0
        for i in runs:
            p = spans[i].parent
            while p != ROOT and p not in in_threshold:
                p = spans[p].parent
            nested += p != ROOT
        m["de.threshold_calls"] = len(thresholds)
        m["de.runs_per_threshold"] = nested / len(thresholds)
        m["de.threshold_self_s"] = own_total("de.threshold")
        m["de.bracket_errors"] = sum(
            spans[i].info.get("error") == "BracketError" for i in thresholds)
    if by_name["de.success_condition"]:
        m["de.contraction_s"] = total("de.success_condition")

    if by_name["optimizer.build_lp"]:
        m["optimizer.build_lp_s"] = total("optimizer.build_lp")
    if by_name["optimizer.solve"]:
        m["optimizer.solve_self_s"] = own_total("optimizer.solve")
    if by_name["optimizer.post_verify"]:
        m["optimizer.post_verify_self_s"] = own_total("optimizer.post_verify")
    designs = [o for o in outputs if "lp_rows" in o]
    if designs:
        rows = sum(o["lp_rows"] for o in designs)
        binding = sum(o["binding_rows"] for o in designs)
        m["optimizer.lp_rows"] = rows
        m["optimizer.binding_rows"] = binding
        m["optimizer.binding_frac"] = binding / rows
        m["optimizer.degenerate_warnings"] = sum(
            o["status"] == "degenerate-warning" for o in designs)
        # the worst design; negative means infeasible between LP grid points
        m["optimizer.fine_grid_min_slack"] = min(o["fine_grid_min_slack"] for o in designs)

    if by_name["simplex.solve_lp"]:
        pivots = info_sum("simplex.solve_lp", "pivots")
        m["simplex.calls"] = len(by_name["simplex.solve_lp"])
        m["simplex.pivots"] = pivots
        m["simplex.s"] = total("simplex.solve_lp")
        m["simplex.ms_per_pivot"] = ratio(1e3 * m["simplex.s"], pivots)
        m["simplex.flops_computed"] = info_sum("simplex.solve_lp", "flops")
        m["simplex.bytes_computed"] = info_sum("simplex.solve_lp", "bytes")

    if by_name["graphsim.sample_residual"]:
        m["graphsim.sample_s"] = total("graphsim.sample_residual")
        m["graphsim.edges_sampled"] = info_sum("graphsim.sample_residual", "edges")
    if by_name["graphsim.peel"]:
        m["graphsim.peel_s"] = total("graphsim.peel")
        m["graphsim.peel_rounds"] = info_sum("graphsim.peel", "rounds")
    if by_name["graphsim.core_oracle"]:
        m["graphsim.core_oracle_s"] = total("graphsim.core_oracle")
    mcs = by_name["graphsim.monte_carlo"]
    if mcs:
        mc_s = total("graphsim.monte_carlo")
        mc_cpu = _sum(spans[i].cpu1 - spans[i].cpu0 for i in mcs)
        worker_s = _sum(spans[i].duration * spans[i].info["jobs"] for i in mcs)
        m["graphsim.mc_s"] = mc_s
        m["graphsim.mc_trials"] = info_sum("graphsim.monte_carlo", "trials")
        m["graphsim.mc_cpu_s"] = mc_cpu
        m["graphsim.mc_parallel_eff"] = ratio(mc_cpu, worker_s)

    survivals = by_name["branching.survival_mc"]
    if survivals:
        seconds = total("branching.survival_mc")
        trees = info_sum("branching.survival_mc", "trees")
        m["branching.survival_s"] = seconds
        m["branching.trees"] = trees
        m["branching.trees_per_s"] = ratio(trees, seconds)
        rss_end = max(spans[i].rss1 for i in survivals)
        m["branching.rss_growth_mb"] = (rss_end - spans[survivals[0]].rss0) / 1024.0
    return m

"""Command-line front end.

One JSON config document per run; command-line flags override config fields.
Every CSV starts with a comment line carrying the hash of the fully resolved
config, so identical inputs are byte-identical and auditable.

Exit codes: 0 success/converged, 1 input error, 2 analytic non-convergence,
3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import sys
from typing import Any

import numpy as np

from . import branching, de, graphsim, optimizer
from .codespec import (
    GpcSpec,
    erasure_scaling,
    mean_capability,
    preset_braided,
    preset_hpc,
    preset_pc,
    preset_staircase,
    spec_from_json,
    spec_hash,
    spec_to_json,
)
from .poisson import CapabilityDistribution

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGED = 2
EXIT_SOLVER = 3


class InputError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError(f"config {path} must be a JSON object, got {type(config).__name__}")
    return config


def _resolve_spec(config: dict) -> GpcSpec:
    src = config.get("spec")
    if src is None:
        raise InputError("no spec given (config key 'spec' or --spec PATH)")
    if isinstance(src, str):
        try:
            with open(src) as fh:
                doc = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read spec {src}: {exc}") from exc
        spec = spec_from_json(doc)
        config["spec"] = json.loads(spec_to_json(spec))  # inline for hashing
        return spec
    return spec_from_json(json.dumps(src))


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit(rows: list[list[str]], config: dict, args) -> None:
    lines = [f"# config_hash={_config_hash(config)}"]
    lines += [",".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.csv or not args.out:
        sys.stdout.write(text)


def _merge(config: dict, args, keys: list[str]) -> dict:
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    return config


def _number(config: dict, key: str, default: float, kind: type = float):
    """config[key] (default when absent) read as ``kind``, int or float; an
    integer field takes 100.0 but not 2.7, which int() would truncate."""
    value = config.get(key, default)
    try:
        if not isinstance(value, bool):  # JSON true and false are not numbers
            if kind is int and isinstance(value, float) and not value.is_integer():
                raise ValueError(value)
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a number"
    raise InputError(f"config field {key!r} must be {what}, got {json.dumps(value)}")


def _jobs(config: dict, args) -> int:
    if getattr(args, "jobs", None) is not None:
        return args.jobs
    if config.get("jobs") is not None:
        return _number(config, "jobs", 1, int)
    env = os.environ.get("GPCLAB_JOBS")
    if env:
        return int(env)
    return os.cpu_count() or 1


def _schedule(config: dict, L: int) -> de.Schedule | None:
    desc = config.get("schedule")
    if desc is None:
        return None
    if not isinstance(desc, dict):
        raise InputError(f"schedule must be a JSON object, got {type(desc).__name__}")
    kind = desc.get("type")

    def integer(name: str) -> int:  # a missing field raises KeyError, caught below
        return _number({name: desc[name]}, name, 0, int)

    try:
        if kind == "full":
            return de.full_schedule(L, integer("steps"))
        if kind == "window":
            return de.window_schedule(L, integer("width"), integer("steps_per_slide"))
        if kind == "explicit":
            # config uses 1-based positions, matching the x_1..x_L column names
            sets = tuple(frozenset(operator.index(p) - 1 for p in s) for s in desc["sets"])
            return de.Schedule(sets)
    except KeyError as exc:
        raise InputError(f"{kind} schedule needs the field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise InputError(f"{kind} schedule has a field of the wrong type: {exc}") from exc
    raise InputError(f"unknown schedule type {kind!r}")


def cmd_de(args) -> int:
    config = _merge(_load_config(args.config), args, ["spec", "c", "ell"])
    spec = _resolve_spec(config)
    c = _number(config, "c", 1.0)
    ell = _number(config, "ell", de.DEFAULT_ELL_MAX, int)
    schedule = _schedule(config, spec.num_positions)
    traj = de.de_run(spec, c, ell_max=ell, schedule=schedule)
    _emit(traj.to_csv_rows(), config, args)
    return EXIT_OK if traj.verdict == de.CONVERGED else EXIT_NONCONVERGED


def cmd_threshold(args) -> int:
    config = _merge(_load_config(args.config), args, ["spec", "bracket_tol"])
    spec = _resolve_spec(config)
    result = de.threshold(spec, bracket_tol=_number(config, "bracket_tol", 0.01))
    rows = [["spec_hash", "c_star", "bracket_lo", "bracket_hi", "bracket_width"],
            [spec_hash(spec)] + [repr(v) for v in (result.c_star, result.bracket_lo,
                                                   result.bracket_hi, result.bracket_width)]]
    _emit(rows, config, args)
    return EXIT_OK


def cmd_bounds(args) -> int:
    config = _merge(_load_config(args.config), args, ["spec"])
    spec = _resolve_spec(config)
    collapsed = np.zeros(spec.t_max)
    for g, dist in zip(spec.gamma, spec.tau):
        for t, w in dist.support():
            collapsed[t - 1] += float(g) * w
    mixture = CapabilityDistribution(tuple(collapsed / collapsed.sum()))
    refined = de.refined_upper_bound(mixture)
    # both bounds on the threshold's c axis; the diagnostic stays unscaled
    rows = [["spec_hash", "t_bar", "upper_2tbar", "refined_upper", "conjecture_rhs"],
            [spec_hash(spec)] + [repr(v) for v in (
                mean_capability(spec), de.upper_bound(spec), refined * erasure_scaling(spec),
                de.conjectured_capability_floor(refined))]]
    _emit(rows, config, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _merge(
        _load_config(args.config), args, ["spec", "c", "ell", "trials", "seed"]
    )
    spec = _resolve_spec(config)
    stats = graphsim.monte_carlo(
        spec,
        c=_number(config, "c", 1.0),
        ell=_number(config, "ell", 100, int),
        trials=_number(config, "trials", 100, int),
        master_seed=_number(config, "seed", 0, int),
        jobs=_jobs(config, args),
    )
    rows = [
        ["spec_hash", "trials", "mean_w", "se_w", "mean_scaled_ber",
         "se_scaled_ber", "mean_edge_fraction", "se_edge_fraction"],
        [
            spec_hash(spec),
            str(stats.trials),
            repr(stats.mean_w),
            repr(stats.se_w),
            repr(stats.mean_scaled_ber),
            repr(stats.se_scaled_ber),
            repr(stats.mean_edge_fraction),
            repr(stats.se_edge_fraction),
        ],
    ]
    _emit(rows, config, args)
    return EXIT_OK


def cmd_optimize(args) -> int:
    config = _merge(_load_config(args.config), args, ["c", "grid", "t_min", "t_max"])
    c = _number(config, "c", 10.0)
    problem = optimizer.build_lp(
        c,
        grid_m=_number(config, "grid", 1000, int),
        t_max=_number(config, "t_max", 50, int),
        t_min=_number(config, "t_min", 1, int),
    )
    solution = optimizer.solve(problem)
    if solution.status == optimizer.STATUS_INFEASIBLE:
        sys.stderr.write(f"infeasible at c={c}\n")
        return EXIT_SOLVER
    solution = optimizer.post_verify(solution)
    rows = [["key", "value"],
            ["status", solution.status],
            ["c", repr(solution.c)],
            ["t_bar", repr(solution.t_bar)],
            ["pivots", str(solution.pivots)],
            ["rows_used", str(solution.rows_used)],
            ["verified_threshold", repr(solution.verified_threshold)],
            ["fine_grid_min_slack", repr(solution.fine_grid_min_slack)]]
    for t, w in solution.tau.support():
        rows.append([f"tau_{t}", repr(w)])
    _emit(rows, config, args)
    return EXIT_OK


def cmd_oracle(args) -> int:
    config = _merge(
        _load_config(args.config), args, ["spec", "c", "ell", "trees", "seed"]
    )
    spec = _resolve_spec(config)
    c = _number(config, "c", 1.0)
    ell = _number(config, "ell", 4, int)
    trees = _number(config, "trees", 100000, int)
    seed = _number(config, "seed", 0, int)
    rows = [["ell", "z_de", "z_mc", "stderr", "diff_over_se", "cp95_bound"]]
    traj = de.de_run(spec, c, ell_max=ell)
    for depth in range(1, ell + 1):
        z_de = float(traj.z[min(depth, traj.iterations_run)])
        est = branching.survival_mc(spec, c, depth, trees, seed)
        if 0.0 < est.mean < 1.0:
            compare = [repr(abs(est.mean - z_de) / est.stderr), ""]
        else:  # stderr is 0: one-sided 95% Clopper-Pearson bound instead
            edge = 0.05 ** (1.0 / est.trees)
            compare = ["", repr(1.0 - edge if est.mean == 0.0 else edge)]
        rows.append([str(depth), repr(z_de), repr(est.mean), repr(est.stderr)] + compare)
    _emit(rows, config, args)
    return EXIT_OK


def cmd_preset(args) -> int:
    name = args.name
    t = args.t
    if name == "hpc":
        spec = preset_hpc(args.n, t)
    elif name == "pc":
        split = (args.split, 1.0 - args.split)
        spec = preset_pc(args.n, split, t_row=t, t_col=args.t_col or t)
    elif name == "staircase":
        spec = preset_staircase(args.L, args.n, t)
    elif name == "braided":
        spec = preset_braided(args.L, args.n, t)
    else:
        raise InputError(f"unknown preset {name!r}")
    doc = spec_to_json(spec)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
    else:
        sys.stdout.write(doc + "\n")
    return EXIT_OK


def _common(sub: argparse.ArgumentParser, spec: bool = True) -> None:
    sub.add_argument("--config", help="JSON config path")
    if spec:
        sub.add_argument("--spec", help="spec JSON path (overrides config)")
    sub.add_argument("--out", help="write CSV to this path")
    sub.add_argument("--csv", action="store_true", help="echo CSV to stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpclab",
        description="Deterministic GPC analysis: DE, thresholds, peeling MC, mixture design",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("de", help="run density evolution, emit trajectory CSV")
    _common(p)
    p.add_argument("--c", type=float, help="effective channel quality")
    p.add_argument("--ell", type=int, help="iteration cap")
    p.set_defaults(func=cmd_de)

    p = subs.add_parser("threshold", help="decoding threshold: the fold of the DE fixed points")
    _common(p)
    p.add_argument("--bracket-tol", dest="bracket_tol", type=float,
                   help="widest bracket around the fold (default 0.01)")
    p.set_defaults(func=cmd_threshold)

    p = subs.add_parser("bounds", help="2*t_bar and refined bounds on the threshold's c axis")
    _common(p)
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("simulate", help="Monte Carlo peeling statistics")
    _common(p)
    p.add_argument("--c", type=float)
    p.add_argument("--ell", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--jobs", type=int, help="worker processes (env GPCLAB_JOBS)")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("optimize", help="LP mixture design + post-verification")
    _common(p, spec=False)
    p.add_argument("--c", type=float)
    p.add_argument("--grid", type=int, help="constraint grid size M")
    p.add_argument("--t-min", dest="t_min", type=int)
    p.add_argument("--t-max", dest="t_max", type=int)
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("oracle", help="branching-process cross-check of DE")
    _common(p)
    p.add_argument("--c", type=float)
    p.add_argument("--ell", type=int)
    p.add_argument("--trees", type=int)
    p.add_argument("--seed", type=int, help="master seed")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("preset", help="write a family preset as spec JSON")
    p.add_argument("name", help="one of: hpc, pc, staircase, braided")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--L", type=int, default=6)
    p.add_argument("--split", type=float, default=0.5)
    p.add_argument("--t-col", dest="t_col", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_preset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except de.BracketError as exc:
        sys.stderr.write(f"no threshold bracket: {exc}\n")
        return EXIT_NONCONVERGED
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

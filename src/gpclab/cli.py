"""Command-line front end.

One JSON config document per run; command-line flags override config fields.
Each command's fields (name, int or float, default, flag help) are declared
once, in ``COMMANDS``: the flags, the merge into the config and the typed
reads all come from there.  Every CSV starts with a comment line carrying the
hash of the fully resolved config, so identical inputs are byte-identical and
auditable.  Only this module formats CSV; ``_write`` writes each line as it is
made, opening ``--out`` after the run, so a failed run writes no file.

Exit codes: 0 success/converged, 1 input error, 2 analytic non-convergence,
3 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from typing import Callable, Iterable, NamedTuple

from . import de
from .codespec import (
    GpcSpec,
    _json_number,
    mean_capability,
    preset_braided,
    preset_hpc,
    preset_pc,
    preset_staircase,
    spec_from_json,
    spec_hash,
    spec_to_json,
)

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
    # the worker count changes no statistic, so it stays out of the hash
    blob = json.dumps({k: v for k, v in config.items() if k != "jobs"},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write(lines: Iterable[str], args) -> None:
    """Write each line as it comes: to --out, and to stdout with --csv or without --out."""
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc
    with out as fh:
        for line in lines:
            fh.write(line + "\n")
            if args.csv and args.out:
                sys.stdout.write(line + "\n")


def _emit(rows: Iterable[list[str]], config: dict, args) -> None:
    _write(itertools.chain([f"# config_hash={_config_hash(config)}"], map(",".join, rows)), args)


class Field(NamedTuple):
    """A run-config field; its flag is ``--`` + ``name`` with ``_`` as ``-``."""

    name: str
    kind: type  # int or float
    default: float | Callable[[], int]  # a callable is called when the field is read
    help: str | None = None


def _settings(args) -> tuple[dict, dict[str, float]]:
    """The run config with ``spec`` and every given flag merged in, and each
    of the command's fields read typed, at its default when absent.  Only
    fields from the config or a flag enter the config hash."""
    config = _load_config(args.config)
    _, _, fields = COMMANDS[args.command]
    for key in ("spec", *(f.name for f in fields)):
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)
    return config, {f.name: _number(config, f.name, f.default, f.kind) for f in fields}


def _record(spec: GpcSpec, values: dict) -> list[list[str]]:
    return [["spec_hash", *values], [spec_hash(spec), *map(repr, values.values())]]


def _number(config: dict, key: str, default: float | Callable[[], int], kind: type):
    """config[key], or the default (called if callable) when absent, read as
    ``kind``, int or float, never from true or a string; an integer field takes
    100.0 but not 2.7 (as a spec's) and nothing below 0: each is a count or seed."""
    value = config[key] if key in config else default() if callable(default) else default
    what = "an integer" if kind is int else "a number"
    try:
        number = kind(_json_number(value, kind))
        if kind is float or number >= 0:
            return number
        what = "a non-negative integer"
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"config field {key!r} must be {what}, got {json.dumps(value)}")


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
            sets = [[_number({"sets": p}, "sets", 0, int) for p in s] for s in desc["sets"]]
            outside = [p for s in sets for p in s if not 1 <= p <= L]
            if outside:
                raise InputError(f"schedule position {outside[0]} is outside 1..{L}")
            return de.Schedule(tuple(frozenset(p - 1 for p in s) for s in sets))
    except KeyError as exc:
        raise InputError(f"{kind} schedule needs the field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise InputError(f"{kind} schedule has a field of the wrong type: {exc}") from exc
    raise InputError(f"unknown schedule type {kind!r}")


def cmd_de(args) -> int:
    config, v = _settings(args)
    spec = _resolve_spec(config)
    traj = de.de_run(spec, v["c"], v["ell"], schedule=_schedule(config, spec.num_positions))
    x_names = (f"x_{i + 1}" for i in range(spec.num_positions))
    rows = ([str(k), *map(repr, x.tolist()), repr(float(z))] for k, (x, z) in enumerate(zip(traj.x, traj.z)))
    _emit(itertools.chain([["iteration", *x_names, "z"]], rows), config, args)
    return EXIT_OK if traj.verdict == de.CONVERGED else EXIT_NONCONVERGED


def cmd_threshold(args) -> int:
    config, v = _settings(args)
    spec = _resolve_spec(config)
    result = de.threshold(spec, bracket_tol=v["bracket_tol"])
    _emit(_record(spec, dataclasses.asdict(result)), config, args)
    return EXIT_OK


def cmd_bounds(args) -> int:
    config, _ = _settings(args)
    spec = _resolve_spec(config)
    _emit(_record(spec, {
        "t_bar": mean_capability(spec),
        "upper_2tbar": de.upper_bound(spec),
        "refined_upper": de.refined_upper_bound(spec),
    }), config, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import graphsim

    config, v = _settings(args)
    spec = _resolve_spec(config)
    stats = graphsim.monte_carlo(spec, v["c"], v["ell"], v["trials"], v["seed"], jobs=v["jobs"])
    _emit(_record(spec, dataclasses.asdict(stats)), config, args)
    return EXIT_OK


def cmd_optimize(args) -> int:
    from . import optimizer

    config, v = _settings(args)
    solution = optimizer.solve(optimizer.build_lp(v["c"], v["grid"], v["t_max"], v["t_min"]))
    if solution.status == optimizer.STATUS_INFEASIBLE:
        sys.stderr.write(f"infeasible at c={v['c']}\n")
        return EXIT_SOLVER
    solution = optimizer.post_verify(solution)
    rows = [["key", "value"], ["status", solution.status]]
    rows += [[key, repr(getattr(solution, key))] for key in (
        "c", "t_bar", "pivots", "rows_used", "verified_threshold", "fine_grid_min_slack")]
    rows += [[f"tau_{t}", repr(w)] for t, w in solution.tau.support()]
    _emit(rows, config, args)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import branching

    config, v = _settings(args)
    spec = _resolve_spec(config)
    rows = [["ell", "z_de", "z_mc", "stderr", "diff_over_se", "cp95_bound"]]
    traj = de.de_run(spec, v["c"], ell_max=v["ell"])
    for depth in range(1, v["ell"] + 1):
        z_de = float(traj.z[min(depth, traj.iterations_run)])
        try:
            est = branching.survival_mc(spec, v["c"], depth, v["trees"], v["seed"])
        except branching.TreeSizeLimit as exc:
            raise InputError(str(exc)) from exc
        if 0.0 < est.mean < 1.0:
            compare = [repr(abs(est.mean - z_de) / est.stderr), ""]
        else:  # stderr is 0: one-sided 95% Clopper-Pearson bound instead
            edge = 0.05 ** (1.0 / est.trees)
            compare = ["", repr(1.0 - edge if est.mean == 0.0 else edge)]
        rows.append([str(depth), repr(z_de), repr(est.mean), repr(est.stderr)] + compare)
    _emit(rows, config, args)
    return EXIT_OK


def cmd_preset(args) -> int:
    presets = {
        "hpc": lambda: preset_hpc(args.n, args.t),
        "pc": lambda: preset_pc(args.n, (args.split, 1.0 - args.split), t_row=args.t, t_col=args.t_col),
        "staircase": lambda: preset_staircase(args.L, args.n, args.t),
        "braided": lambda: preset_braided(args.L, args.n, args.t),
    }
    if args.name not in presets:
        raise InputError(f"unknown preset {args.name!r}")
    _write([spec_to_json(presets[args.name]())], args)
    return EXIT_OK


# command -> (function, help, run-config fields)
COMMANDS = {
    "de": (cmd_de, "run density evolution, emit trajectory CSV", (
        Field("c", float, 1.0, "effective channel quality"),
        Field("ell", int, de.DEFAULT_ELL_MAX, "iteration cap"))),
    "threshold": (cmd_threshold, "decoding threshold: the fold of the DE fixed points", (
        Field("bracket_tol", float, 0.01, "widest bracket around the fold (default 0.01)"),)),
    "bounds": (cmd_bounds, "2*t_bar and refined bounds on the threshold's c axis", ()),
    "simulate": (cmd_simulate, "Monte Carlo peeling statistics", (
        Field("c", float, 1.0), Field("ell", int, 100), Field("trials", int, 100),
        Field("seed", int, 0, "master seed"),
        Field("jobs", int, lambda: len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, "worker processes (default: the CPUs this process may use)"))),
    "optimize": (cmd_optimize, "LP mixture design + post-verification", (
        Field("c", float, 10.0), Field("grid", int, 1000, "constraint grid size M"),
        Field("t_min", int, 1), Field("t_max", int, 50))),
    "oracle": (cmd_oracle, "branching-process cross-check of DE", (
        Field("c", float, 1.0), Field("ell", int, 4), Field("trees", int, 100000),
        Field("seed", int, 0, "master seed"))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpclab",
        description="Deterministic GPC analysis: DE, thresholds, peeling MC, mixture design",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, fields) in COMMANDS.items():
        p = subs.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config path")
        if name != "optimize":
            p.add_argument("--spec", help="spec JSON path (overrides config)")
        p.add_argument("--out", help="write CSV to this path")
        p.add_argument("--csv", action="store_true", help="echo CSV to stdout")
        for f in fields:
            p.add_argument("--" + f.name.replace("_", "-"), type=f.kind, help=f.help)
        p.set_defaults(func=func)

    p = subs.add_parser("preset", help="write a family preset as spec JSON")
    p.add_argument("name", help="one of: hpc, pc, staircase, braided")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--L", type=int, default=6)
    p.add_argument("--split", type=float, default=0.5)
    p.add_argument("--t-col", dest="t_col", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_preset, csv=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except de.BracketError as exc:
        sys.stderr.write(f"no threshold bracket: {exc}\n")
        return EXIT_NONCONVERGED
    except de.ContinuationStall as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

"""gpclab benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a gpclab checkout; the package is imported from
``src/`` of that checkout and nowhere else:

    python3 perfbench/run.py --workload threshold_table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py):
  threshold_table     many short DE runs at L <= 4 (threshold bisection)
  coupled_de          few long DE runs on L = 200 coupled chains
  mixture_design      build_lp -> dense simplex -> post_verify
  decoder_crosscheck  Monte Carlo peeling, core oracle and branching oracle
                      against DE; the only user of graphsim and branching

Set-up imports numpy and gpclab (timed in child processes, several times),
then builds the inputs and makes one warm-up call per layer, several times;
``setup_s`` is the sum of the two medians.  The timed phase runs every task
of the workload once per round until ``--seconds`` have passed.  Each task's
outputs are checked inside its timed call.  ``peak_rss_mb`` is taken after
set-up and the first round; for decoder_crosscheck it includes the 8 MB
that the streaming calibration keeps.

``wall_s`` and ``cpu_s`` add up each task's mean over the rounds.  They and
``setup_s`` are given in reference seconds (see hostspeed.py): the measured
seconds divided by the host's slowdown, which a fixed calibration kernel run
between tasks measures over the same minutes.  On a shared 2-CPU host
(Python 3.11, numpy 2.4) other tenants slowed the same code by up to 40% for
minutes at a time, CPU time with wall time.  Over ten seeds per workload the
raw wall times spread by 0.10 to 0.25 (interquartile range over median; most
on mixture_design) and the reference times by 0.03 to 0.13.  The raw seconds
are printed on ``#`` lines.

With ``--trace 1`` traced and untraced rounds alternate.  The traced rounds
give the per-layer metrics (medians over traced rounds) and, against the
untraced ones, ``trace.overhead_frac``.  The spans are written to
``.perfbench_out/`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
starting with ``#``, give the run's revision, versions and per-task times,
the failed fraction, and which per-layer metrics the workload leaves absent
(reported as 0).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # one BLAS thread, set before numpy loads
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (imports numpy)
import tracing  # noqa: E402

WORKLOADS = ("threshold_table", "coupled_de", "mixture_design", "decoder_crosscheck")
IMPORT_REPEATS = 11
SETUP_REPEATS = 7
OUT_DIR = ".perfbench_out"
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t0 = time.perf_counter(); "
    "import numpy, gpclab; print(time.perf_counter() - t0)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_revision(root: Path) -> str:
    """Commit of a plain git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


class Tally:
    """Task executions attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, name: str, exc: Exception | None) -> None:
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")


def measure_imports(root: Path, speed) -> list[float]:
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        speed.sample(times[-1], min_units=2)
    return times


def run_round(tasks, tally: Tally, samples, speed=None) -> list[dict]:
    """Run each task once; record its wall and CPU seconds and its outputs.

    With ``speed``, calibration units run after each task.
    """
    outputs = []
    for task in tasks:
        exc = None
        out: dict = {}
        t0, c0 = time.perf_counter(), tracing.cpu_seconds()
        try:
            out = task.run()
        except Exception as err:  # a failed task is counted, the run goes on
            exc = err
        wall = time.perf_counter() - t0
        samples[task.name].append((wall, tracing.cpu_seconds() - c0))
        tally.record(task.name, exc)
        if speed is not None:
            speed.sample(wall)
        outputs.append(out)
    return outputs


def mean_sum(samples, column: int) -> float:
    """Sum over tasks of each task's mean over the rounds."""
    return sum(statistics.fmean(s[column] for s in runs) for runs in samples.values())


def another_round(start: float, rounds: int, seconds: float, at_least: int) -> bool:
    """Start a round unless it would end more than half a round past the budget."""
    elapsed = time.perf_counter() - start
    return rounds < at_least or elapsed + 0.5 * elapsed / rounds < seconds


def peak_rss_mb() -> float:
    """Largest peak RSS so far of this process and of any child it waited for, in MB.

    Not their sum: a forked Monte Carlo worker counts the pages it shares
    with this process, so a sum would count them twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed_phase(wl, seconds: float, tally: Tally) -> dict:
    samples = defaultdict(list)
    speed = hostspeed.HostSpeed(streaming=wl.streaming)
    start = time.perf_counter()
    speed.sample(min_units=3)
    rounds = 0
    while another_round(start, rounds, seconds, at_least=1):
        run_round(wl.tasks, tally, samples, speed)
        rounds += 1
        if rounds == 1:
            # Later rounds repeat the same allocations, but heap fragmentation
            # can add one LP tableau (8 MB) to the peak after a varying number
            # of them, which would make the peak depend on the host's speed.
            first_pass_rss = peak_rss_mb()
    print(f"# timed phase: {rounds} rounds; peak RSS {first_pass_rss:.1f} MB after the "
          f"first, {peak_rss_mb():.1f} MB after the last")
    print_tasks(samples)
    factor = speed.factor()
    wall, cpu = mean_sum(samples, 0), mean_sum(samples, 1)
    print(f"# host slowdown {factor:.4f} ({len(speed.units)} calibration units); "
          f"raw wall {wall:.4f} s, raw cpu {cpu:.4f} s")
    return {
        "wall_s": (wall / factor, "s"),
        "cpu_s": (cpu / factor, "s"),
        "peak_rss_mb": (first_pass_rss, "MB"),
    }


def traced_phase(wl, seconds: float, tally: Tally, out_path: Path) -> dict:
    from gpclab import branching, de, graphsim, optimizer

    modules = {"de": de, "optimizer": optimizer, "graphsim": graphsim,
               "branching": branching}
    plain, traced = defaultdict(list), defaultdict(list)
    per_round, records = [], []
    start = time.perf_counter()
    pairs = 0
    # the traced round of a pair comes first, so the first one still sees
    # peak RSS rise
    while another_round(start, pairs, seconds, at_least=1):
        tracer = tracing.Tracer()
        with tracing.installed(tracer, modules):
            outputs = run_round(wl.tasks, tally, traced)
        per_round.append(tracing.layer_metrics(tracer, outputs))
        records.append({"round": pairs, "spans": tracer.records()})
        run_round(wl.tasks, tally, plain)
        pairs += 1
    print(f"# traced phase: {pairs} traced and {pairs} untraced rounds; "
          "untraced per-task times:")
    print_tasks(plain)

    metrics: dict = {}
    for name in tracing.LAYER_METRICS:
        values = [m[name] for m in per_round if m[name] is not None]
        if not values:
            metrics[name] = None
        elif name == "branching.rss_growth_mb":
            metrics[name] = max(values)  # only the first round can raise the peak
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = mean_sum(traced, 0) / mean_sum(plain, 0) - 1.0

    if wl.probes:
        probe = tracing.Tracer()
        with tracing.installed(probe, modules):
            for fn in wl.probes:
                fn()
        errors = tracing.layer_metrics(probe, [])["de.bracket_errors"] or 0
        metrics["de.bracket_errors"] = (metrics["de.bracket_errors"] or 0) + errors
        records.append({"round": "probes", "spans": probe.records()})

    out_path.parent.mkdir(exist_ok=True)
    with open(out_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    absent = [k for k, v in metrics.items() if v is None]
    print(f"# absent per-layer metrics (reported as 0): {', '.join(absent) or 'none'}")
    return {k: (0.0 if v is None else v, tracing.LAYER_METRICS[k]) for k, v in metrics.items()}


def print_tasks(samples) -> None:
    for name, runs in samples.items():
        wall = [s[0] for s in runs]
        cpu = statistics.fmean(s[1] for s in runs)
        print(f"#   {name}: raw wall mean {statistics.fmean(wall):.4f} s, min {min(wall):.4f} s;"
              f" raw cpu mean {cpu:.4f} s ({len(runs)} rounds)")


def run_one(args, root: Path) -> int:
    src = root / "src"
    if not (src / "gpclab" / "__init__.py").is_file():
        print(f"error: {src} holds no gpclab package; run from the root of a "
              "gpclab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    speed = hostspeed.HostSpeed()
    speed.sample(min_units=3)
    import_times = measure_imports(root, speed)
    import numpy
    import gpclab

    if not Path(gpclab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: gpclab imported from {gpclab.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    print(f"# gpclab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} revision={git_revision(root)} nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    tally = Tally()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.build(args.workload, args.seed)
        exc = None
        try:
            wl.warmup()
        except Exception as err:  # counted as a failed check, like a task
            exc = err
        setup_times.append(time.perf_counter() - t0)
        tally.record("setup", exc)
        speed.sample(setup_times[-1], min_units=2)
    setup_raw = statistics.median(import_times) + statistics.median(setup_times)
    setup_s = setup_raw / speed.factor()

    if args.trace:
        out_path = root / OUT_DIR / f"{args.workload}-seed{args.seed}.trace.jsonl"
        metrics = traced_phase(wl, args.seconds, tally, out_path)
    else:
        metrics = timed_phase(wl, args.seconds, tally)
        metrics["setup_s"] = (setup_s, "s")
    print(f"# setup_s: raw import {statistics.median(import_times):.4f} s + inputs and "
          f"warm-up {statistics.median(setup_times):.4f} s, host slowdown "
          f"{speed.factor():.4f} ({len(speed.units)} calibration units)")
    print(f"# failed_frac={tally.failed / tally.attempted:g} "
          f"({tally.failed} of {tally.attempted} task runs)")
    for line in tally.errors:
        print(f"# FAILED {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, root: Path) -> int:
    """Every workload in its own process, one summary line each."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        res = json.loads(done.stdout.strip().splitlines()[-1])
        attempted, failed = res["attempted"], res["failed"]
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()]
        print(f"# {name}: failed_frac={failed / attempted:g} ratio, " + ", ".join(cells))
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += attempted
        merged["failed"] += failed
        for k, m in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = m
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())

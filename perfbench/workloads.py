"""The four benchmark workloads: inputs, warm-ups, tasks and output checks.

Every task calls gpclab through module attributes (``de.threshold``,
``graphsim.peel``, ...), so the wrappers a traced run installs see each call,
including nested ones made inside the package.  A task returns a dict of its
outputs and raises ``CheckFailed`` when an output is wrong.

The seed picks every random stream.  The DE and LP workloads have no random
input, so their outputs are the same for every seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from gpclab import branching, codespec, de, graphsim, optimizer
from gpclab.poisson import CapabilityDistribution

# Reference mixtures with mean capability ~7: the unconstrained LP optimum
# near its threshold and the variant constrained to capabilities >= 4.
MIX_TBAR7 = CapabilityDistribution.from_dict(
    {1: 0.070, 2: 0.103, 4: 0.115, 5: 0.179, 10: 0.496, 11: 0.037}
)
MIX_TBAR7_MIN4 = CapabilityDistribution.from_dict({4: 0.495, 9: 0.029, 10: 0.476})

THRESHOLD_TOL = 0.005
LP_GRID, LP_T_MAX = 1000, 50
BINDING_SLACK = 1e-9
ROW_TOL = 1e-7


class CheckFailed(Exception):
    """A task produced a wrong output."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], dict]


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    warmup: Callable[[], None]
    # called once in a traced run to record known defects; never gated
    probes: list[Callable[[], None]] = field(default_factory=list)
    # calibrate host speed with the streaming part too (see hostspeed.py)
    streaming: bool = False


def derived_seeds(seed: int, count: int) -> list[int]:
    """Independent 31-bit seeds for the workload's random streams."""
    state = np.random.SeedSequence(seed).generate_state(count, np.uint32)
    return [int(s) >> 1 for s in state]


# ---------------------------------------------------------------- threshold_table

# (family, spec factory, expected c*, tolerance).  HPC t=4 and t=7, the two
# reference mixtures and PC t=3 are the paper's values; the other families
# carry this DE's own bisection result at THRESHOLD_TOL.
_THRESHOLD_FAMILIES = [
    ("hpc_t3", lambda: codespec.preset_hpc(1000, 3), 5.1519, 0.02),
    ("hpc_t4", lambda: codespec.preset_hpc(1000, 4), 6.8, 0.1),
    ("hpc_t5", lambda: codespec.preset_hpc(1000, 5), 8.3667, 0.02),
    ("hpc_t6", lambda: codespec.preset_hpc(1000, 6), 9.8774, 0.02),
    ("hpc_t7", lambda: codespec.preset_hpc(1000, 7), 11.34, 0.02),
    ("hpc_t8", lambda: codespec.preset_hpc(1000, 8), 12.7832, 0.02),
    ("mix_tbar7", lambda: codespec.preset_hpc(1000, MIX_TBAR7, tau_assignment="random"),
     13.42, 0.02),
    ("mix_tbar7_min4",
     lambda: codespec.preset_hpc(1000, MIX_TBAR7_MIN4, tau_assignment="random"),
     12.88, 0.02),
    ("pc_t3", lambda: codespec.preset_pc(1000, t_row=3), 10.30, 0.02),
    ("pc_t5", lambda: codespec.preset_pc(1000, t_row=5), 16.7316, 0.02),
    ("pc_t7", lambda: codespec.preset_pc(1000, t_row=7), 22.6885, 0.02),
    ("braided4_t3", lambda: codespec.preset_braided(4, 1000, 3), 10.3004, 0.02),
    ("braided4_t5", lambda: codespec.preset_braided(4, 1000, 5), 16.7316, 0.02),
]


def _threshold_task(name: str, spec, lo: float, hi: float) -> Task:
    def run() -> dict:
        res = de.threshold(spec, bracket_tol=THRESHOLD_TOL)
        check(lo <= res.c_star <= hi, f"{name}: c*={res.c_star} outside [{lo}, {hi}]")
        return {"c_star": res.c_star}

    return Task(name, run)


def threshold_table(seed: int) -> Workload:
    tasks = [
        _threshold_task(name, make(), ref - tol, ref + tol)
        for name, make, ref, tol in _THRESHOLD_FAMILIES
    ]
    for n in (4, 8, 12):
        # uniform mixtures sit exactly on the sandwich N <= c* <= N + 1
        spec = codespec.preset_hpc(
            1000, CapabilityDistribution.uniform(n), tau_assignment="random"
        )
        tasks.append(_threshold_task(f"uniform_{n}", spec, n, n + 1))
    small = codespec.preset_hpc(100, 2)
    stair6 = codespec.preset_staircase(6, 36, 3)

    def warmup() -> None:
        de.threshold(small, bracket_tol=0.1)

    def probe_staircase_bracket() -> None:
        # `gpclab threshold --spec stair.json` from the README; the bracket
        # ceiling ignores the coupling scale, so this raises BracketError.
        try:
            de.threshold(stair6, bracket_tol=THRESHOLD_TOL)
        except de.BracketError:
            pass

    return Workload("threshold_table", tasks, warmup, [probe_staircase_bracket])


# ---------------------------------------------------------------- coupled_de

# (family, normalized c, expected verdict, final z of a stuck run)
_COUPLED_RUNS = [
    ("staircase", 5.4, de.CONVERGED, None),
    ("staircase", 5.6, de.CONVERGED, None),
    ("staircase", 6.0, de.STUCK, 0.7876532251051072),
    ("braided", 5.5, de.CONVERGED, None),
    ("braided", 6.0, de.STUCK, 0.7853669067862821),
]
COUPLED_L, COUPLED_N, COUPLED_T = 200, 2000, 3
WINDOW_WIDTH, WINDOW_STEPS, WINDOW_C = 20, 10, 5.4


def _coupled_task(name: str, spec, c_norm: float, verdict: str, z_ref) -> Task:
    c = c_norm * codespec.erasure_scaling(spec)

    def run() -> dict:
        traj = de.de_run(spec, c)
        check(traj.verdict == verdict, f"{name}: verdict {traj.verdict}, expected {verdict}")
        if z_ref is not None:
            check(abs(traj.final_z - z_ref) <= 1e-6,
                  f"{name}: final z {traj.final_z!r} vs reference {z_ref!r}")
        return {"verdict": traj.verdict, "iterations": traj.iterations_run,
                "final_z": traj.final_z}

    return Task(name, run)


def coupled_de(seed: int) -> Workload:
    specs = {
        "staircase": codespec.preset_staircase(COUPLED_L, COUPLED_N, COUPLED_T),
        "braided": codespec.preset_braided(COUPLED_L, COUPLED_N, COUPLED_T),
    }
    tasks = [
        _coupled_task(f"{family}_c{c_norm}", specs[family], c_norm, verdict, z_ref)
        for family, c_norm, verdict, z_ref in _COUPLED_RUNS
    ]
    stair = specs["staircase"]
    schedule = de.window_schedule(COUPLED_L, WINDOW_WIDTH, WINDOW_STEPS)
    frozen = np.ones((len(schedule), COUPLED_L), dtype=bool)
    for k, active in enumerate(schedule.active_sets):
        frozen[k, list(active)] = False
    c_window = WINDOW_C * codespec.erasure_scaling(stair)

    def window() -> dict:
        traj = de.de_run(stair, c_window, schedule=schedule)
        steps = traj.iterations_run
        mask = frozen[:steps]
        check(np.array_equal(traj.x[1:][mask], traj.x[:-1][mask]),
              "window: a frozen position changed")
        return {"verdict": traj.verdict, "iterations": steps, "final_z": traj.final_z}

    tasks.append(Task("staircase_window", window))
    small = codespec.preset_staircase(4, 40, 3)
    small_schedule = de.window_schedule(4, 2, 2)

    def warmup() -> None:
        de.de_run(small, 4.0)
        de.de_run(small, 4.0, schedule=small_schedule)

    return Workload("coupled_de", tasks, warmup)


# ---------------------------------------------------------------- mixture_design

# (c, t_min, highest admissible t_bar, lowest admissible verified threshold)
_DESIGNS = [
    (13.40, 1, 7.02, 13.35),   # acceptance criterion 04, unconstrained design
    (12.86, 4, 7.02, None),    # acceptance criterion 04, capabilities >= 4
    (10.0, 1, None, None),     # comes out degenerate-warning (threshold 9.98)
]


def _design_task(c: float, t_min: int, t_bar_max, verified_min) -> Task:
    name = f"design_c{c}_tmin{t_min}"

    def run() -> dict:
        problem = optimizer.build_lp(c, LP_GRID, LP_T_MAX, t_min)
        sol = optimizer.solve(problem)
        check(sol.status == optimizer.STATUS_OPTIMAL, f"{name}: LP status {sol.status}")
        raw = sol.raw_weights
        row_slack = problem.b_ub - problem.a_ub @ raw
        check(float(row_slack.min()) >= -ROW_TOL and float(raw.min()) >= -ROW_TOL
              and abs(float(raw.sum()) - 1.0) <= ROW_TOL,
              f"{name}: raw weights violate an LP row by more than {ROW_TOL}")
        # 2 * t_bar >= c holds for every decodable HPC mixture
        check(2.0 * sol.t_bar >= c, f"{name}: t_bar={sol.t_bar} below c/2")
        if t_bar_max is not None:
            check(sol.t_bar <= t_bar_max, f"{name}: t_bar={sol.t_bar} > {t_bar_max}")
        verified = optimizer.post_verify(sol)
        # a degenerate warning is a valid outcome of post-verification
        check(verified.status in (optimizer.STATUS_OPTIMAL, optimizer.STATUS_DEGENERATE),
              f"{name}: post-verify status {verified.status}")
        if verified_min is not None:
            check(verified.verified_threshold >= verified_min,
                  f"{name}: verified threshold {verified.verified_threshold} < {verified_min}")
        return {
            "status": verified.status,
            "t_bar": sol.t_bar,
            "pivots": sol.pivots,
            "verified_threshold": verified.verified_threshold,
            "fine_grid_min_slack": verified.fine_grid_min_slack,
            "lp_rows": int(problem.a_ub.shape[0] + problem.a_eq.shape[0]),
            "binding_rows": int((row_slack <= BINDING_SLACK).sum()),
        }

    return Task(name, run)


def mixture_design(seed: int) -> Workload:
    tasks = [_design_task(*d) for d in _DESIGNS]

    def warmup() -> None:
        sol = optimizer.solve(optimizer.build_lp(3.0, 20, 5))
        optimizer.post_verify(sol, grid_factor=2, bracket_tol=0.1)

    return Workload("mixture_design", tasks, warmup)


# ---------------------------------------------------------------- decoder_crosscheck

MC_N, MC_T, MC_ELL, MC_TRIALS = 5000, 4, 25, 200
MC_CS = (6.0, 6.6, 7.0)
GRAPH_N, GRAPH_C = 200_000, 6.75
SURVIVAL_TREES, SURVIVAL_ELLS = 100_000, (1, 2, 3, 4)
REPRO_TRIALS = 20


def mc_jobs() -> int:
    """Monte Carlo workers: two, or fewer when fewer CPUs are available."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


def _mc_task(spec, c: float, seed: int, jobs: int) -> Task:
    finite_size = 5.0 / math.sqrt(spec.n)

    def run() -> dict:
        traj = de.de_run(spec, c, ell_max=MC_ELL, success_epsilon=0.0)
        # once x underflows to 0 the trailing iterates are constant
        k = min(MC_ELL, traj.iterations_run)
        z_ell, x_sq = float(traj.z[k]), float(traj.x[k][0]) ** 2
        st = graphsim.monte_carlo(spec, c, MC_ELL, MC_TRIALS, seed, jobs=jobs)
        check(abs(st.mean_w - z_ell) <= 5 * st.se_w + finite_size,
              f"mc c={c}: W={st.mean_w} vs DE z={z_ell} (se {st.se_w})")
        check(abs(st.mean_scaled_ber - x_sq) <= 5 * st.se_scaled_ber + finite_size,
              f"mc c={c}: ber={st.mean_scaled_ber} vs DE x^2={x_sq}")
        return {"mean_w": st.mean_w, "se_w": st.se_w, "mean_ber": st.mean_scaled_ber}

    return Task(f"monte_carlo_c{c}", run)


def _graph_task(spec, seed: int) -> Task:
    def run() -> dict:
        graph = graphsim.sample_residual(spec, GRAPH_C, seed)
        result = graphsim.peel(graph)
        core = graphsim.core_oracle(graph)
        check(np.array_equal(core, result.survivors),
              "graph: core_oracle differs from the peeling fixpoint")
        return {"edges": graph.num_edges, "rounds": result.rounds_run,
                "survivors": int(result.survivors.size)}

    return Task("sample_peel_core", run)


def _survival_task(name: str, spec, c: float, seed: int) -> Task:
    def run() -> dict:
        traj = de.de_run(spec, c, ell_max=max(SURVIVAL_ELLS), success_epsilon=0.0)
        means = []
        for ell in SURVIVAL_ELLS:
            est = branching.survival_mc(spec, c, ell, SURVIVAL_TREES, seed)
            z = float(traj.z[ell])
            check(abs(est.mean - z) <= 5 * est.stderr + 1e-12,
                  f"{name} ell={ell}: survival {est.mean} vs DE z={z} (se {est.stderr})")
            means.append(est.mean)
        return {"survival": means}

    return Task(name, run)


def mc_reproducible(spec, c: float, seed: int, jobs: int) -> bool:
    """Monte Carlo statistics must not depend on the worker count."""
    one = graphsim.monte_carlo(spec, c, MC_ELL, REPRO_TRIALS, seed, jobs=1)
    many = graphsim.monte_carlo(spec, c, MC_ELL, REPRO_TRIALS, seed, jobs=jobs)
    return one == many


def decoder_crosscheck(seed: int) -> Workload:
    *mc_seeds, graph_seed, hpc_seed, stair_seed, warm_seed = derived_seeds(
        seed, len(MC_CS) + 4)
    jobs = mc_jobs()
    mc_spec = codespec.preset_hpc(MC_N, MC_T)
    tasks = [_mc_task(mc_spec, c, s, jobs) for c, s in zip(MC_CS, mc_seeds)]
    tasks.append(_graph_task(codespec.preset_hpc(GRAPH_N, 4), graph_seed))
    tasks.append(_survival_task("survival_hpc_c5", codespec.preset_hpc(1000, 4), 5.0,
                                hpc_seed))
    tasks.append(_survival_task("survival_staircase_c12",
                                codespec.preset_staircase(6, 36, 3), 12.0, stair_seed))
    small = codespec.preset_hpc(2000, 3)

    def warmup() -> None:
        graph = graphsim.sample_residual(small, 5.0, warm_seed)
        graphsim.peel(graph)
        graphsim.core_oracle(graph)
        branching.survival_mc(small, 5.0, 2, 1000, warm_seed)
        # at c=7.0 about 69% of components fail, so the statistics are not
        # trivially equal the way an all-decoded c=6.0 run would be
        check(mc_reproducible(mc_spec, 7.0, warm_seed, 2),
              "monte_carlo statistics differ between jobs=1 and jobs=2")

    return Workload("decoder_crosscheck", tasks, warmup, streaming=True)


WORKLOADS = {
    "threshold_table": threshold_table,
    "coupled_de": coupled_de,
    "mixture_design": mixture_design,
    "decoder_crosscheck": decoder_crosscheck,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

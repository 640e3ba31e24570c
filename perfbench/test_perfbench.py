"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gpclab import branching, de, graphsim, optimizer, simplex  # noqa: E402
from gpclab.codespec import preset_hpc  # noqa: E402

MODULES = {"de": de, "optimizer": optimizer, "graphsim": graphsim, "branching": branching}


def _span(sid, name, parent, start, end, leaf_s=0.0):
    s = tracing.Span(sid, name, parent, start, end)
    s.leaf[1] = leaf_s
    return s


def test_self_time_subtracts_children_and_tail_blocks():
    spans = [
        _span(0, "a", tracing.ROOT, 0.0, 10.0, leaf_s=1.0),
        _span(1, "b", 0, 1.0, 4.0, leaf_s=0.5),
        _span(2, "c", 0, 5.0, 9.0),
        _span(3, "d", 2, 6.0, 7.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.5, 3.0, 1.0])


def test_simplex_work_on_a_hand_sized_tableau():
    # 2 variables, 2 <= rows (one with negative rhs, so it needs an
    # artificial), 1 equality: m = 3 + 1 rows, N = 2 + 2 + 2 columns
    assert tracing.simplex_work(2, 2, 1, 1, pivots=3) == (2 * 4 * 6 * 3, 16 * 4 * 6 * 3)


def test_solve_lp_span_counts_pivots_and_computed_work():
    tracer = tracing.Tracer()
    args = dict(a_ub=[[1.0, 0.0], [-1.0, -1.0]], b_ub=[4.0, -1.0],
                a_eq=[[1.0, -1.0]], b_eq=[0.0])
    plain = simplex.solve_lp([1.0, 1.0], **args)
    with tracing.installed(tracer, MODULES):
        traced = optimizer.solve_lp([1.0, 1.0], **args)
    assert optimizer.solve_lp is simplex.solve_lp  # restored
    assert traced.pivots == plain.pivots and traced.objective == plain.objective
    (span,) = tracer.spans
    assert span.info["pivots"] == plain.pivots
    assert span.info["flops"] == 2 * 4 * 6 * plain.pivots


def test_nested_calls_get_their_own_spans():
    tracer = tracing.Tracer()
    spec = preset_hpc(100, 3)
    with tracing.installed(tracer, MODULES):
        de.threshold(spec, bracket_tol=0.1)
    names = [s.name for s in tracer.spans]
    assert names[0] == "de.threshold"
    runs = [s for s in tracer.spans if s.name == "de.de_run"]
    assert runs and all(tracer.spans[s.parent].name == "de.threshold" for s in runs)
    m = tracing.layer_metrics(tracer, [])
    assert m["de.runs"] == len(runs) and m["de.threshold_calls"] == 1
    assert m["poisson.calls"] > 0 and m["simplex.calls"] is None
    assert set(m) == set(tracing.LAYER_METRICS)


def test_host_speed_runs_its_share_and_scales_to_the_reference():
    speed = hostspeed.HostSpeed()
    speed.sample(min_units=2)
    assert len(speed.units) == 2
    speed.sample(after_s=1.0)
    assert sum(speed.units[2:]) >= hostspeed.SHARE * 1.0
    speed.units = [hostspeed.REF_UNIT_S, 3 * hostspeed.REF_UNIT_S]
    assert speed.factor() == pytest.approx(2.0)
    streaming = hostspeed.HostSpeed(streaming=True)
    streaming.units = [2 * (hostspeed.REF_UNIT_S + hostspeed.REF_STREAM_S)]
    assert streaming.factor() == pytest.approx(2.0)


def test_mean_sum_adds_each_tasks_mean():
    samples = {"a": [(1.0, 0.5), (3.0, 1.5)], "b": [(0.5, 0.5)]}
    assert run.mean_sum(samples, 0) == pytest.approx(2.5)
    assert run.mean_sum(samples, 1) == pytest.approx(1.5)


# one cheap task per workload, plus the Monte Carlo path
CHEAP_TASKS = [
    ("threshold_table", "hpc_t4"),
    ("coupled_de", "staircase_c6.0"),
    ("mixture_design", "design_c12.86_tmin4"),
    ("decoder_crosscheck", "survival_staircase_c12"),
    ("decoder_crosscheck", "monte_carlo_c6.0"),
]


@pytest.mark.parametrize("workload,task", CHEAP_TASKS)
def test_traced_and_untraced_outputs_are_identical(workload, task):
    (item,) = [t for t in workloads.build(workload, seed=7).tasks if t.name == task]
    plain = item.run()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, MODULES):
        traced = item.run()
    assert tracer.spans
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "setup_s",
                                                       "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)

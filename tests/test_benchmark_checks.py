"""Every benchmark task's output check passes, in the tier-1 run.

The benchmark (``perfbench/``) checks each task's output against the
paper's values and this package's own references, and its smoke run
(``python3 perfbench/run.py --workload all --seed 1 --seconds 1``) gates on
``"correct": true``.  This runs the same checks once per task at seed 1,
without the timing rounds, so a wrong output fails the tier-1 suite as well.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_task_passes_its_check(name):
    workload = workloads.build(name, seed=1)
    workload.warmup()
    for task in workload.tasks:
        task.run()  # raises workloads.CheckFailed on a wrong output

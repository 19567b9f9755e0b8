"""The benchmark still ends in a result: ``perfbench/run.py`` prints its JSON
line last, with every metric BENCHMARK.json lists for the mode, finite, and
with the traced work counters of the default seed.

A run whose last stdout line is not that object measures nothing. The ways
it can happen: output after the line (a print, a worker process or thread
that outlives the run, an atexit hook), a metric that ``json.dumps`` writes
as ``NaN`` or ``Infinity``, or a per-layer metric left out because a wrap
point of perfbench/tracer.py is no longer reached.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# perfbench/METRICS.md's seed figures for each workload at the default seed
TRACED_COUNTERS = {
    "batch_static": {
        "channel.emulate.calls": 1150,
        "tdoa.compute_tdoas.calls_per_trial": 1,
        "lsq.solve.calls_per_trial": 4,
        "irls.candidates.gn_iterations": 20_654,
        "irls.candidates.capped": 0,
        "irls.degenerate": 0,
    },
    "batch_nlos": {
        "channel.emulate.calls": 1150,
        "tdoa.compute_tdoas.calls_per_trial": 1,
        "lsq.solve.calls_per_trial": 4,
        "irls.candidates.gn_iterations": 34_856,
        "irls.candidates.capped": 166,
        "irls.degenerate": 356,
    },
}


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TRACED_COUNTERS))
def test_benchmark_ends_in_a_finite_result(workload, trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        value = metrics[spec["name"]]["value"]
        assert math.isfinite(value), spec["name"]
    if trace:
        assert "absent layers: []" in lines
        counters = {name: metrics[name]["value"] for name in TRACED_COUNTERS[workload]}
        assert counters == TRACED_COUNTERS[workload]

"""The tracer records nested spans, restores what it wraps, and reports a
layer whose functions are gone as absent.

    python3 -m pytest perfbench/test_tracer.py -q
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
import tracer  # noqa: E402
from irlspos import harness, irls, lsq  # noqa: E402
from irlspos.presets import get_preset  # noqa: E402


@pytest.fixture
def cfg():
    return get_preset("semidynamic_cband").with_overrides(trials_per_poi=1)


def test_spans_nest_and_originals_come_back(cfg):
    originals = (harness.compute_tdoas, lsq.solve_single_reference, irls.irls_position)
    t = tracer.Tracer()
    assert t.missing == [] and t.absent_layers() == []
    t.phase = "fix"
    t.install()
    mset, _ = harness.emulate_trial_measurements(cfg, 0, 0)
    t.trial = (0, 0)
    irls.irls_position(mset, cfg.stations, cfg.solver, cfg.irls)
    t.uninstall()
    assert (harness.compute_tdoas, lsq.solve_single_reference, irls.irls_position) == originals

    by_id = {s[tracer.SPAN_ID]: s for s in t.spans}
    top = [s for s in t.spans if s[tracer.NAME] == "irls.position"]
    assert len(top) == 1 and top[0][tracer.PARENT] == -1
    solves = [s for s in t.spans if s[tracer.NAME] == "lsq.solve"]
    assert len(solves) == 4
    for s in solves:
        parent = by_id[s[tracer.PARENT]]
        assert parent[tracer.NAME] == "irls.solve_all"
        assert parent[tracer.START] <= s[tracer.START] <= s[tracer.END] <= parent[tracer.END]
        assert s[tracer.TRIAL] == (0, 0)
    metrics = tracer.round_metrics(t.spans, 0, 1, cfg.solver.max_iterations)
    assert 0 < metrics["fix.irls.loop.self_s"] < metrics["fix.irls.position.busy_s"]


def test_missing_function_makes_layer_absent_not_zero(monkeypatch):
    monkeypatch.delattr(harness, "emulate_trial_measurements")
    t = tracer.Tracer()
    assert ("harness", "emulate_trial_measurements", "channel.emulate") in t.missing
    assert t.absent_layers() == ["channel"]
    t.install()
    t.uninstall()
    assert not hasattr(harness, "emulate_trial_measurements")


def test_partly_missing_layer_stays_present(monkeypatch):
    monkeypatch.delattr(irls, "compute_tdoas")
    t = tracer.Tracer()
    assert "tdoa" not in t.absent_layers()
    assert ("irls", "compute_tdoas", "tdoa.compute_tdoas") in t.missing

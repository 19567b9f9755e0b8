"""The correctness gate trips on perturbed results and passes the reference.

    python3 -m pytest perfbench/test_gate.py -q
"""

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import gate  # noqa: E402
import run  # noqa: E402
from irlspos.presets import get_preset  # noqa: E402

PRESETS = sorted(run.WORKLOADS.values())


@pytest.fixture(scope="module", params=PRESETS)
def preset(request):
    return request.param


@pytest.fixture(scope="module")
def reference(preset):
    return gate.load_reference(preset)


def _as_batch(reference):
    return {
        k: dataclasses.replace(r, irls_xy_m=None) for k, r in reference.items()
    }


def _as_sweep(reference):
    return {
        k: dataclasses.replace(r, ls_error_m=None) for k, r in reference.items()
    }


def _config():
    # 23 PoIs x 50 trials, the shape of every workload preset
    return SimpleNamespace(pois=[None] * 23, trials_per_poi=50)


def test_reference_covers_every_trial(reference):
    assert set(reference) == set(run.trial_keys(_config()))
    assert gate.mismatches(reference, reference) == []


def test_unperturbed_run_passes(preset, reference):
    batches, sweeps = [_as_batch(reference)] * 2, [_as_sweep(reference)] * 2
    assert run.consistency(_config(), run.DEFAULT_SEED, batches, sweeps, preset) == []


@pytest.mark.parametrize(
    "field, change",
    [
        ("ls_error_m", lambda v: v + 1e-6),
        ("irls_error_m", lambda v: v + 1e-6),
        ("irls_error_m", lambda v: float("nan")),
        ("irls_xy_m", lambda v: (v[0], v[1] + 1e-6)),
        ("rejected", lambda v: v + (9,)),
    ],
)
def test_perturbed_result_trips_gate(preset, reference, field, change):
    key = (7, 31)
    perturbed = dict(reference)
    old = perturbed[key]
    perturbed[key] = dataclasses.replace(old, **{field: change(getattr(old, field))})
    problems = gate.mismatches(perturbed, reference)
    assert len(problems) == 1 and str(key) in problems[0]

    batches = [_as_batch(reference), _as_batch(perturbed)]
    sweeps = [_as_sweep(perturbed)]
    assert run.consistency(_config(), run.DEFAULT_SEED, batches, sweeps, preset)


def test_difference_below_tolerance_passes(reference):
    key = (0, 0)
    nudged = dict(reference)
    old = nudged[key]
    nudged[key] = dataclasses.replace(old, irls_error_m=old.irls_error_m + 1e-12)
    assert gate.mismatches(nudged, reference) == []


def test_missing_or_unknown_trial_trips_gate(preset, reference):
    shifted = {(poi + 100, t): r for (poi, t), r in list(reference.items())[:3]}
    assert len(gate.mismatches(shifted, reference)) == 3
    partial = dict(list(_as_batch(reference).items())[:-1])
    sweeps = [_as_sweep(reference)]
    assert run.consistency(_config(), run.DEFAULT_SEED, [partial], sweeps, preset)


def test_metrics_of_failed_operations_are_left_out():
    rounds = run.Rounds(latencies=[{(0, 0): (0.002, 1.0), (0, 1): (0.003, 1.0)}])
    metrics = run.end_to_end_metrics(rounds, 1150, [1.0])
    assert "trials_per_s" not in metrics and "ls_mean_error_m" not in metrics
    assert metrics["fixes_per_s"] == pytest.approx(400.0)


def test_times_are_unit_medians_at_reference_speed():
    # (seconds, probe scale): a scale of 0.5 marks a host at half speed
    sweeps = [
        {(0, 0): (0.004, 0.5), (0, 1): (0.001, 1.0)},
        {(0, 0): (0.002, 1.0), (0, 1): (0.003, 1.0)},
        {(0, 1): (0.002, 1.0)},
    ]
    assert run.unit_medians(sweeps) == {(0, 0): 0.002, (0, 1): 0.002}
    assert run.unit_medians(sweeps, scaled=False) == {(0, 0): 0.003, (0, 1): 0.002}
    passes = [{0: (0.5, 0.5), 1: (0.3, 1.0)}, {0: (0.25, 1.0)}, {0: (0.2, 1.0), 1: (0.3, 1.0)}]
    metrics = run.timing_metrics(run.Rounds(pass_walls=passes, latencies=sweeps), 1150)
    # two chunks of 1150 / CHUNKS trials each, medians 0.25 s and 0.3 s
    assert metrics["trials_per_s"] == pytest.approx(2 * 1150 / run.CHUNKS / 0.55)
    assert metrics["fixes_per_s"] == pytest.approx(2 / 0.004)
    # p99 of the wall-time medians (3 ms, 2 ms) times the median scale, 1
    assert metrics["fix_p99_ms"] == pytest.approx(2.99)


def test_chunks_cover_the_workload_once():
    cfg = get_preset("static_cband")
    chunks = run.chunk_configs(cfg, 7)
    assert len({part.root_seed for _, part in chunks}) == run.CHUNKS
    keys = [(p, offset + t) for offset, part in chunks for p, t in run.trial_keys(part)]
    assert sorted(keys) == run.trial_keys(cfg)

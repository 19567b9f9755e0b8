"""How often a fix reaches each layer, and that a station list, a tuple and
a checked layout lead to the same work.

The layers call each other through module attributes. perfbench/tracer.py
times a layer by replacing those attributes at runtime, and several tests
spy on them the same way, so a refactor that inlines a call or binds it
locally hides it from both. The counts below fail first.
"""

from collections import Counter

import pytest

from irlspos import (
    BaseStation,
    Position2D,
    harness,
    irls,
    lsq,
)
from irlspos.geometry import check_station_layout
from irlspos.presets import PRESET_NAMES, get_preset
from conftest import exact_measurements, ring_stations

CALL_POINTS = (
    (harness, "emulate_trial_measurements"),
    (harness, "irls_position"),
    (harness, "export_results"),
    (irls, "solve_all_references"),
    (lsq, "compute_tdoas"),
    (lsq, "solve_single_reference"),
    (lsq, "_gauss_newton_step"),
    (irls, "andrews_weight"),
    (irls, "weighted_average"),
)


@pytest.fixture
def calls(monkeypatch):
    """Calls through each call point by "module.name", and every estimate
    ``harness.irls_position`` returned."""
    counts = Counter()
    estimates = []

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = original(*args, **kwargs)
            if key == "harness.irls_position":
                estimates.append(result)
            return result

        return wrapper

    for module, name in CALL_POINTS:
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    return counts, estimates


def loop_counts(estimates):
    """(andrews_weight calls, weighted_average calls) the loop makes for
    these estimates: one weight per reference per iteration, and one fused
    estimate up front plus one per iteration that did not reject all."""
    andrews = sum(len(e.candidates) * e.iterations for e in estimates)
    averages = sum(1 + e.iterations - e.degenerate for e in estimates)
    return andrews, averages


@pytest.mark.parametrize("n", [3, 4, 8])
def test_one_fix_reaches_each_layer_once_per_epoch(n, band, calls):
    counts, _ = calls
    stations = ring_stations(n)
    m = exact_measurements(Position2D(13.0, 11.0), stations, band, biases={2: 2.0})
    est = irls.irls_position(m, stations)
    andrews, averages = loop_counts([est])
    assert counts == {
        "irls.solve_all_references": 1,
        "lsq.compute_tdoas": 1,
        "lsq.solve_single_reference": n,
        # no nudge and no cycle on this epoch: one step per iteration
        "lsq._gauss_newton_step": sum(c.iterations_used for c in est.candidates),
        "irls.andrews_weight": andrews,
        "irls.weighted_average": averages,
    }


@pytest.mark.parametrize("preset", ["static_cband", "semidynamic_cband"])
def test_batch_reaches_each_layer_once_per_epoch(preset, calls, tmp_path):
    counts, estimates = calls
    cfg = get_preset(preset).with_overrides(trials_per_poi=1)
    trials = len(cfg.pois)
    harness.export_results(harness.run_batch(cfg), tmp_path)
    assert len(estimates) == trials
    andrews, averages = loop_counts(estimates)
    steps = counts.pop("lsq._gauss_newton_step")
    assert counts == {
        "harness.emulate_trial_measurements": trials,
        "harness.irls_position": trials,
        "harness.export_results": 1,
        "irls.solve_all_references": trials,
        "lsq.compute_tdoas": trials,
        "lsq.solve_single_reference": len(cfg.stations) * trials,
        "irls.andrews_weight": andrews,
        "irls.weighted_average": averages,
    }
    iterations = sum(c.iterations_used for e in estimates for c in e.candidates)
    if preset == "static_cband":
        # every solve converges off the box edge: one step per iteration
        assert steps == iterations
    else:
        # a pinned solve stops at its first repeat and counts to the cap
        assert 0 < steps <= iterations


@pytest.mark.parametrize("preset", ["static_cband", "semidynamic_cband"])
def test_run_batch_emulates_and_fixes_each_trial_once(preset, monkeypatch):
    # perfbench/tracer.py reads an emulate call's PoI and trial from args[1]
    # and args[2], so both stay positional
    cfg = get_preset(preset).with_overrides(trials_per_poi=2)
    emulate, position = harness.emulate_trial_measurements, harness.irls_position
    emulated, fixed = [], []

    def emulating(*args, **kwargs):
        assert len(args) == 3 and set(kwargs) == {"rngs"}
        out = emulate(*args, **kwargs)
        emulated.append((args[1:], out[0]))
        return out

    def fixing(mset, *args, **kwargs):
        fixed.append(mset)
        return position(mset, *args, **kwargs)

    monkeypatch.setattr(harness, "emulate_trial_measurements", emulating)
    monkeypatch.setattr(harness, "irls_position", fixing)
    harness.run_batch(cfg)
    keys = [(p, t) for p in range(len(cfg.pois)) for t in range(cfg.trials_per_poi)]
    assert [key for key, _ in emulated] == keys
    assert len(fixed) == len(keys)
    assert all(mset is epoch for mset, (_, epoch) in zip(fixed, emulated))


# GN steps of the preset's 1,150 trials at its default seed
GN_STEPS = {"static_cband": 20_649, "semidynamic_cband": 28_840}


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_station_list_tuple_and_layout_give_equal_fixes(preset, monkeypatch):
    cfg = get_preset(preset)
    steps = Counter()
    original = lsq._gauss_newton_step

    def counting(*args):
        # counted under the station input of the fix in progress
        steps[mode] += 1
        return original(*args)

    monkeypatch.setattr(lsq, "_gauss_newton_step", counting)
    mode = "batch"
    harness.run_batch(cfg)

    stations = sorted(cfg.stations, key=lambda s: s.id)
    rebuilt = [BaseStation(s.id, Position2D(s.position.x, s.position.y)) for s in stations]
    inputs = {
        "list": stations,
        "tuple": tuple(stations),
        "layout": check_station_layout(stations),
        "rebuilt": rebuilt,
    }
    for p in range(len(cfg.pois)):
        for t in range(cfg.trials_per_poi):
            m, _ = harness.emulate_trial_measurements(cfg, p, t)
            fixes = []
            for mode, given in inputs.items():
                fixes.append(irls.irls_position(m, given, cfg.solver, cfg.irls))
            assert all(f == fixes[0] for f in fixes[1:])
    expected = GN_STEPS.get(preset, steps["batch"])
    assert set(steps.values()) == {expected}

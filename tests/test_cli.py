"""Command-line surface: subcommands, exit codes, output files."""

from pathlib import Path

import pytest
import yaml

import irlspos
from irlspos.cli import EXIT_CONFIG, EXIT_OK, main
from irlspos.config import config_to_mapping, load_config
from irlspos.presets import PRESET_NAMES, get_preset
from conftest import loaded_after


def write_small_scenario(tmp_path, **overrides):
    cfg = get_preset("static_cband").with_overrides(trials_per_poi=2)
    raw = config_to_mapping(cfg)
    raw["pois"] = raw["pois"][:3]
    raw.update(overrides)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


def test_presets_list(capsys):
    assert main(["presets", "list"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert list(PRESET_NAMES) == out


def test_presets_show_round_trips(capsys, tmp_path):
    for name in PRESET_NAMES:
        assert main(["presets", "show", name]) == EXIT_OK
        dumped = capsys.readouterr().out
        path = tmp_path / "dumped.yaml"
        path.write_text(dumped)
        assert main(["validate", str(path)]) == EXIT_OK
        assert "OK" in capsys.readouterr().out
        assert load_config(path) == get_preset(name)


def test_validate_preset(capsys):
    assert main(["validate", "static_cband"]) == EXIT_OK
    assert capsys.readouterr().out == "OK: static_cband: 4 stations, 23 PoIs, 1150 trials\n"


def test_validate_bad_config(tmp_path, capsys):
    path = write_small_scenario(tmp_path, nlos_probability=2.0)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "nlos_probability" in capsys.readouterr().err


def test_negative_seed_exits_with_config_error(tmp_path, capsys):
    path = write_small_scenario(tmp_path, root_seed=-1)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert main(["run", "static_cband", "--out", str(tmp_path / "o"), "--seed", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("root_seed must be >= 0") == 3


def test_unreachable_poi_exits_with_config_error(tmp_path, capsys):
    path = write_small_scenario(tmp_path, pois=[{"x": 1e6, "y": 1e6}])
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("outside the solve box") == 2
    assert not (tmp_path / "out").exists()


def test_unknown_key_exits_with_config_error(tmp_path, capsys):
    # a misspelt key, and keys that no computation reads any more: the
    # solver's start, the band's carrier, subcarrier spacing and pulse shape,
    # the transmit power, and the heights behind height_difference_m
    raw = config_to_mapping(get_preset("static_cband"))
    solver, band = raw["solver"], raw["band"]
    for overrides, key in (
        ({"nlos_probabilty": 0.3}, "nlos_probabilty"),
        ({"solver": {**solver, "initial_guess": [1.0, 2.0]}}, "initial_guess"),
        ({"band": {**band, "carrier_frequency_hz": 3.775e9}}, "carrier_frequency_hz"),
        ({"band": {**band, "subcarrier_spacing_hz": 3.0e4}}, "subcarrier_spacing_hz"),
        ({"band": {**band, "rolloff": 0.25}}, "rolloff"),
        ({"band": {**band, "symbol_period_s": 1.25e-8}}, "symbol_period_s"),
        ({"transmit_power_dbm": 20.0}, "transmit_power_dbm"),
        ({"projected_3d": True}, "projected_3d"),
        ({"station_height_m": 4.0}, "station_height_m"),
        ({"poi_height_m": 1.0}, "poi_height_m"),
    ):
        path = write_small_scenario(tmp_path, **overrides)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.count(f"unknown key '{key}'") == 2
        assert not (tmp_path / "out").exists()


# each used to end in exit 1 at the first trial or at load: 10 ** 400
# overflows, and (2 pi B)^2 * B underflows to 0
@pytest.mark.parametrize(
    "band,message",
    [
        pytest.param({"bandwidth_hz": 1e8, "snr_db": 4000}, "band.snr_db", id="huge-snr-db"),
        pytest.param(
            {"bandwidth_hz": 1e-200, "snr_linear": 100.0},
            "no finite ranging noise std",
            id="tiny-bandwidth",
        ),
    ],
)
def test_band_without_a_finite_noise_std_exits_with_config_error(tmp_path, capsys, band, message):
    path = write_small_scenario(tmp_path, band=band)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.count(message) == 2
    assert not (tmp_path / "out").exists()


def test_stagger_that_swamps_the_flight_time_exits_with_config_error(tmp_path, capsys):
    path = write_small_scenario(tmp_path, schedule_period_s=1e3)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("solver.step_tolerance_m") == 2
    assert not (tmp_path / "out").exists()


# the Andrews weight used to overflow to inf, and the run exited 2 on a NaN
# fused coordinate
@pytest.mark.parametrize("noise_override_m", [None, 0.0], ids=["band-noise", "noise-free"])
def test_u_max_near_the_float_range_runs(tmp_path, noise_override_m):
    path = write_small_scenario(
        tmp_path, noise_override_m=noise_override_m, irls={"u_max_m": 1e305}
    )
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_validate_and_presets_list_load_neither_numpy_nor_yaml():
    for argv in (["validate", "static_cband"], ["presets", "list"]):
        code = f"from irlspos.cli import main; assert main({argv!r}) == 0"
        assert loaded_after(code, ("numpy", "yaml")) == "[]", argv


def test_run_loads_no_scipy(tmp_path):
    # scipy serves only the tests' waveform pipeline
    argv = ["run", "static_cband", "--trials", "1", "--out", str(tmp_path)]
    code = f"from irlspos.cli import main; assert main({argv!r}) == 0"
    assert loaded_after(code, ("scipy",)) == "[]"
    for path in Path(irlspos.__file__).parent.glob("*.py"):
        assert "scipy" not in path.read_text(), path.name


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_run_end_to_end(tmp_path, capsys):
    scenario = write_small_scenario(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "mean" in printed and "p90" in printed
    assert "degenerate trials: " in printed and "non-converged candidate solves: " in printed
    for name in ("trials.csv", "summary.txt", "cdf_ls.csv", "cdf_irls.csv"):
        assert (out_dir / name).is_file(), name


def test_run_summarizes_each_batch_once(tmp_path, monkeypatch, capsys):
    # export_results and the printed lines read one summary of the batch
    from irlspos import harness

    summaries = harness._summaries
    calls = []

    def counting(batch):
        calls.append(batch)
        return summaries(batch)

    monkeypatch.setattr(harness, "_summaries", counting)
    scenario = write_small_scenario(tmp_path)
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == 1
    assert "mean" in capsys.readouterr().out


def test_run_overrides_seed_and_trials(tmp_path):
    scenario = write_small_scenario(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["run", str(scenario), "--out", str(out1), "--seed", "7", "--trials", "1"]) == EXIT_OK
    assert main(["run", str(scenario), "--out", str(out2), "--seed", "7", "--trials", "1"]) == EXIT_OK
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    n_lines = len((out1 / "trials.csv").read_text().splitlines())
    assert n_lines == 1 + 3 * 1 * 2  # header + pois * trials * methods


def test_run_preset_by_name(tmp_path):
    out_dir = tmp_path / "preset_run"
    assert main(["run", "static_mmwave", "--out", str(out_dir), "--trials", "1"]) == EXIT_OK
    assert (out_dir / "summary.txt").is_file()

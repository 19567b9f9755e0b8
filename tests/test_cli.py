"""Command-line surface: subcommands, exit codes, output files."""

import yaml

from irlspos.cli import EXIT_CONFIG, EXIT_OK, main
from irlspos.config import config_to_mapping
from irlspos.presets import PRESET_NAMES, get_preset


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
    assert main(["presets", "show", "semidynamic_mmwave"]) == EXIT_OK
    dumped = capsys.readouterr().out
    path = tmp_path / "dumped.yaml"
    path.write_text(dumped)
    assert main(["validate", str(path)]) == EXIT_OK


def test_validate_preset(capsys):
    assert main(["validate", "static_cband"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "OK" in out
    assert "unused" in out  # fidelity-only fields are called out


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


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_run_end_to_end(tmp_path, capsys):
    scenario = write_small_scenario(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "mean" in printed and "p90" in printed
    for name in ("trials.csv", "summary.txt", "cdf_ls.csv", "cdf_irls.csv"):
        assert (out_dir / name).is_file(), name


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

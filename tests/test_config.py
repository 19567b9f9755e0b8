"""Scenario schema, presets, and YAML loading."""

from dataclasses import replace

import yaml
import pytest

from irlspos import ConfigError, Position2D, SolverSettings, load_config
from irlspos.config import config_from_mapping, config_to_mapping
from irlspos.presets import PRESET_NAMES, get_preset


def test_static_cband_preset():
    cfg = load_config("static_cband")
    assert len(cfg.stations) == 4
    assert len(cfg.pois) == 23
    assert cfg.band.bandwidth_hz == 100e6
    assert cfg.nlos_probability == 0.0


def test_semidynamic_mmwave_preset():
    cfg = load_config("semidynamic_mmwave")
    assert cfg.band.bandwidth_hz == 400e6
    assert cfg.nlos_probability > 0.0


def test_presets_share_geometry_and_seed():
    a = get_preset("static_cband")
    b = get_preset("static_mmwave")
    assert a.stations == b.stations
    assert a.pois == b.pois
    assert a.root_seed == b.root_seed


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        get_preset("nope")


def test_two_station_config_rejected():
    raw = config_to_mapping(get_preset("static_cband"))
    raw["stations"] = raw["stations"][:2]
    with pytest.raises(ConfigError, match="under-determined"):
        config_from_mapping(raw)


def test_yaml_round_trip(tmp_path):
    cfg = get_preset("semidynamic_cband")
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(config_to_mapping(cfg), sort_keys=False))
    loaded = load_config(path)
    assert loaded.stations == cfg.stations
    assert loaded.pois == cfg.pois
    assert loaded.band == cfg.band
    assert loaded.bias_model == cfg.bias_model
    assert loaded.nlos_probability == cfg.nlos_probability
    assert loaded.root_seed == cfg.root_seed
    assert loaded.solver == cfg.solver
    assert loaded.irls == cfg.irls


def test_missing_file_mentions_presets(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.yaml")


def test_invalid_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("stations: [unbalanced")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(path)


def test_snr_fields_are_exclusive():
    raw = config_to_mapping(get_preset("static_cband"))
    raw["band"]["snr_db"] = 20.0  # snr_linear already present
    with pytest.raises(ConfigError, match="snr"):
        config_from_mapping(raw)
    del raw["band"]["snr_db"]
    del raw["band"]["snr_linear"]
    with pytest.raises(ConfigError, match="snr"):
        config_from_mapping(raw)


def test_snr_db_converts_to_linear():
    raw = config_to_mapping(get_preset("static_cband"))
    del raw["band"]["snr_linear"]
    raw["band"]["snr_db"] = 20.0
    cfg = config_from_mapping(raw)
    assert cfg.band.snr_linear == pytest.approx(100.0)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda r: r.pop("stations"), "stations"),
        (lambda r: r.pop("band"), "band"),
        (lambda r: r.__setitem__("pois", []), "pois"),
        (lambda r: r.__setitem__("nlos_probability", 1.5), "nlos_probability"),
        (lambda r: r.__setitem__("trials_per_poi", 0), "trials_per_poi"),
        (lambda r: r.__setitem__("bias_model", {"type": "weird", "mean_m": 1}), "bias_model"),
        (lambda r: r["band"].__setitem__("bandwidth_hz", -1.0), "bandwidth_hz"),
        (lambda r: r["stations"][0].pop("x"), "stations"),
        (lambda r: r.__setitem__("schedule_period_s", -0.1), "schedule_period_s"),
    ],
)
def test_field_specific_errors(mutate, message):
    raw = config_to_mapping(get_preset("static_cband"))
    mutate(raw)
    with pytest.raises(ConfigError, match=message):
        config_from_mapping(raw)


# malformed scalars: never exit 1, never truncated
@pytest.mark.parametrize(
    "mutate,message",
    [
        pytest.param(lambda r: r.__setitem__("root_seed", -1), "root_seed", id="negative-seed"),
        pytest.param(lambda r: r.__setitem__("root_seed", True), "root_seed", id="bool-seed"),
        pytest.param(
            lambda r: r.__setitem__("nlos_probability", "abc"),
            "nlos_probability",
            id="text-probability",
        ),
        pytest.param(
            lambda r: r.__setitem__("trials_per_poi", 2.7), "trials_per_poi", id="fractional-trials"
        ),
        pytest.param(
            lambda r: r["stations"][0].__setitem__("id", 1.5),
            r"stations\[0\]\.id",
            id="fractional-station-id",
        ),
        pytest.param(
            lambda r: r.__setitem__("station_height_m", float("nan")),
            "station_height_m",
            id="nan-height",
        ),
        pytest.param(
            lambda r: r["band"].__setitem__("snr_linear", "abc"), "snr_linear", id="text-snr"
        ),
        pytest.param(lambda r: r["band"].__setitem__("rolloff", [0.25]), "rolloff", id="list-rolloff"),
        pytest.param(
            lambda r: r.__setitem__("bias_model", {"type": "exponential", "mean_m": "x"}),
            "mean_m",
            id="text-bias-mean",
        ),
        pytest.param(lambda r: r.__setitem__("solver", 3), "solver", id="scalar-solver"),
        pytest.param(
            lambda r: r["irls"].__setitem__("max_iterations", 2.5),
            "max_iterations",
            id="fractional-max-iterations",
        ),
        pytest.param(
            lambda r: r.__setitem__("projected_3d", "yes"), "projected_3d", id="text-projected-3d"
        ),
        pytest.param(
            lambda r: r.__setitem__("projected_3d", 1), "projected_3d", id="integer-projected-3d"
        ),
        pytest.param(
            lambda r: r.__setitem__("noise_override_m", float("nan")),
            "noise_override_m",
            id="nan-noise-override",
        ),
        pytest.param(
            lambda r: r.__setitem__("noise_override_m", float("inf")),
            "noise_override_m",
            id="inf-noise-override",
        ),
        pytest.param(
            lambda r: r.__setitem__("poi_height_m", float("-inf")),
            "poi_height_m",
            id="inf-poi-height",
        ),
    ],
)
def test_malformed_scalars_are_config_errors(mutate, message):
    raw = config_to_mapping(get_preset("static_cband"))
    mutate(raw)
    with pytest.raises(ConfigError, match=message):
        config_from_mapping(raw)


# the same scalars set on the dataclass, past the YAML readers: a NaN noise
# override used to fail only at the first trial's ToA check, and a text
# projected_3d counted as true
@pytest.mark.parametrize(
    "field,value",
    [
        pytest.param("noise_override_m", float("nan"), id="nan-noise-override"),
        pytest.param("noise_override_m", float("inf"), id="inf-noise-override"),
        pytest.param("noise_override_m", -0.5, id="negative-noise-override"),
        pytest.param("station_height_m", float("nan"), id="nan-station-height"),
        pytest.param("station_height_m", float("inf"), id="inf-station-height"),
        pytest.param("poi_height_m", float("nan"), id="nan-poi-height"),
        pytest.param("poi_height_m", float("-inf"), id="inf-poi-height"),
        pytest.param("projected_3d", "yes", id="text-projected-3d"),
        pytest.param("projected_3d", 1, id="integer-projected-3d"),
    ],
)
def test_malformed_fields_set_in_code_are_config_errors(field, value):
    with pytest.raises(ConfigError, match=field):
        replace(get_preset("static_cband"), **{field: value})


# the same scalars set in code: each used to pass and fail later in run_batch
@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"trials_per_poi": 2.5}, id="fractional-trials"),
        pytest.param({"trials_per_poi": True}, id="bool-trials"),
        pytest.param({"root_seed": 1.5}, id="fractional-seed"),
        pytest.param({"root_seed": True}, id="bool-seed"),
    ],
)
def test_malformed_overrides_are_config_errors(overrides):
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        get_preset("static_cband").with_overrides(**overrides)


def test_integral_floats_and_numeric_strings_are_accepted():
    # YAML reads 1e-6 (no decimal point) as a string
    raw = config_to_mapping(get_preset("static_cband"))
    raw["trials_per_poi"] = 3.0
    raw["solver"]["step_tolerance_m"] = "1e-6"
    cfg = config_from_mapping(raw)
    assert cfg.trials_per_poi == 3 and isinstance(cfg.trials_per_poi, int)
    assert cfg.solver.step_tolerance_m == 1e-6


# the preset's stations span [0, 29] x [0, 25] and bounds_margin_m is 1, so
# every solver iterate is clamped to [-1, 30] x [-1, 26]
@pytest.mark.parametrize(
    "x,y",
    [(1e6, 1e6), (30.000001, 12.0), (12.0, -1.000001), (-5.0, 26.5)],
)
def test_poi_outside_the_solve_box_is_rejected(x, y):
    raw = config_to_mapping(get_preset("static_cband"))
    raw["pois"][2] = {"x": x, "y": y}
    with pytest.raises(ConfigError, match=r"pois\[2\].*outside the solve box.*\[-1\.0, 30\.0\]"):
        config_from_mapping(raw)


def test_poi_on_the_solve_box_edge_is_valid():
    cfg = get_preset("static_cband")
    corners = (Position2D(-1.0, -1.0), Position2D(30.0, 26.0))
    assert replace(cfg, pois=corners).pois == corners
    # the box follows the solver margin
    with pytest.raises(ConfigError, match=r"pois\[0\]"):
        replace(cfg, pois=corners, solver=SolverSettings(bounds_margin_m=0.5))


def test_fixed_bias_model_requires_value():
    raw = config_to_mapping(get_preset("static_cband"))
    raw["bias_model"] = {"type": "fixed"}
    with pytest.raises(ConfigError, match="value_m"):
        config_from_mapping(raw)
    raw["bias_model"] = {"type": "fixed", "value_m": 2.0}
    cfg = config_from_mapping(raw)
    assert cfg.bias_model.kind == "fixed"
    assert cfg.bias_model.value_m == 2.0


def test_overrides():
    cfg = get_preset("static_cband").with_overrides(root_seed=7, trials_per_poi=3)
    assert cfg.root_seed == 7
    assert cfg.trials_per_poi == 3


def test_projected_3d_height():
    cfg = get_preset("static_cband")
    assert cfg.height_difference_m == 0.0
    raw = config_to_mapping(cfg)
    raw["projected_3d"] = True
    cfg3d = config_from_mapping(raw)
    assert cfg3d.height_difference_m == pytest.approx(3.0)


def test_all_presets_valid():
    for name in PRESET_NAMES:
        cfg = get_preset(name)
        assert cfg.name == name
        assert cfg.transmit_power_dbm == 20.0  # accepted, unused

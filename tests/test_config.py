"""Scenario schema, presets, and YAML loading."""

import math
import re
import textwrap
from dataclasses import replace

import numpy as np
import yaml
import pytest

import irlspos
from irlspos import (
    SPEED_OF_LIGHT_M_S,
    BandProfile,
    BiasModel,
    ConfigError,
    IrlsSettings,
    Position2D,
    SolverSettings,
    config,
    harness,
    load_config,
    presets,
)
from irlspos.config import config_from_mapping, config_to_mapping
from irlspos.presets import PRESET_NAMES, get_preset
from conftest import fresh_interpreter, loaded_after


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
    # the last config sets every field the presets leave at None or default
    configs = [get_preset(name) for name in PRESET_NAMES]
    configs.append(
        replace(
            configs[0],
            name="variant",
            bias_model=BiasModel(kind="fixed", value_m=2.0),
            solver=SolverSettings(max_iterations=20, bounds_margin_m=2.0),
            noise_override_m=0.5,
            height_difference_m=3.0,
        )
    )
    for cfg in configs:
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(config_to_mapping(cfg), sort_keys=False))
        assert load_config(path) == cfg, cfg.name


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
            lambda r: r.__setitem__("height_difference_m", float("nan")),
            "height_difference_m",
            id="nan-height",
        ),
        pytest.param(
            lambda r: r["band"].__setitem__("snr_linear", "abc"), "snr_linear", id="text-snr"
        ),
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
            lambda r: r["solver"].__setitem__("initial_guess", [1.0]),
            "initial_guess",
            id="short-initial-guess",
        ),
        pytest.param(
            lambda r: r["solver"].__setitem__("initial_guess", ["a", 2.0]),
            "initial_guess",
            id="text-initial-guess",
        ),
        pytest.param(lambda r: r.__setitem__("irls", None), "irls", id="null-irls"),
    ],
)
def test_malformed_scalars_are_config_errors(mutate, message):
    raw = config_to_mapping(get_preset("static_cband"))
    mutate(raw)
    with pytest.raises(ConfigError, match=message):
        config_from_mapping(raw)


def _scenario(**fields):
    return replace(get_preset("static_cband"), **fields)


def _band(**fields):
    return replace(get_preset("static_cband").band, **fields)


def _default_band(**fields):
    # the fields left out take their defaults
    return BandProfile(**{"bandwidth_hz": 1e8, **fields})


# fields set in code follow the type rule of the YAML readers: each case
# names its field in a ConfigError, where a text, None or list value used to
# raise TypeError and a NaN noise override failed only at the first trial's
# ToA check
@pytest.mark.parametrize(
    "build,field,value",
    [
        pytest.param(_scenario, "noise_override_m", float("nan"), id="nan-noise-override"),
        pytest.param(_scenario, "noise_override_m", float("inf"), id="inf-noise-override"),
        pytest.param(_scenario, "noise_override_m", -0.5, id="negative-noise-override"),
        pytest.param(_scenario, "height_difference_m", float("nan"), id="nan-height-difference"),
        pytest.param(_scenario, "height_difference_m", float("inf"), id="inf-height-difference"),
        pytest.param(_scenario, "nlos_probability", "abc", id="text-probability"),
        pytest.param(_scenario, "schedule_period_s", None, id="none-schedule-period"),
        pytest.param(_scenario, "height_difference_m", [4.0], id="list-height-difference"),
        pytest.param(_scenario, "nlos_probability", True, id="bool-probability"),
        pytest.param(_scenario, "trials_per_poi", None, id="none-trials"),
        pytest.param(_scenario, "root_seed", "7", id="text-seed"),
        pytest.param(_scenario, "noise_override_m", "x", id="text-noise-override"),
        pytest.param(SolverSettings, "max_iterations", "50", id="solver-text-max-iterations"),
        pytest.param(SolverSettings, "bounds_margin_m", None, id="solver-none-margin"),
        pytest.param(SolverSettings, "step_tolerance_m", [1e-6], id="solver-list-tolerance"),
        pytest.param(SolverSettings, "bounds_margin_m", True, id="solver-bool-margin"),
        pytest.param(IrlsSettings, "u_max_m", "abc", id="irls-text-u-max"),
        pytest.param(IrlsSettings, "epsilon_m", None, id="irls-none-epsilon"),
        pytest.param(IrlsSettings, "max_iterations", [100], id="irls-list-max-iterations"),
        pytest.param(IrlsSettings, "u_max_m", True, id="irls-bool-u-max"),
        pytest.param(IrlsSettings, "epsilon_m", math.inf, id="irls-inf-epsilon"),
        pytest.param(BiasModel, "value_m", "abc", id="bias-text-value"),
        pytest.param(BiasModel, "value_m", None, id="bias-none-value"),
        pytest.param(BiasModel, "value_m", [3.0], id="bias-list-value"),
        pytest.param(BiasModel, "value_m", True, id="bias-bool-value"),
        pytest.param(_band, "bandwidth_hz", "abc", id="band-text-bandwidth"),
        pytest.param(_band, "snr_linear", None, id="band-none-snr"),
        pytest.param(_default_band, "bandwidth_hz", "abc", id="band-defaults-text-bandwidth"),
    ],
)
def test_malformed_fields_set_in_code_are_config_errors(build, field, value):
    with pytest.raises(ConfigError, match=field):
        build(**{field: value})


# one value through the file and through the dataclass: the same outcome
@pytest.mark.parametrize(
    "section,field,value,expected",
    [
        pytest.param("irls", "epsilon_m", math.inf, None, id="inf-epsilon"),
        pytest.param("solver", "max_iterations", 50.0, 50, id="integral-max-iterations"),
        pytest.param(None, "trials_per_poi", 3.0, 3, id="integral-trials"),
        pytest.param(None, "noise_override_m", "1", 1.0, id="text-noise-override"),
    ],
)
def test_yaml_and_code_read_a_value_alike(section, field, value, expected):
    cfg = get_preset("static_cband")
    raw = config_to_mapping(cfg)
    (raw[section] if section else raw)[field] = value

    def from_code():
        if section is None:
            return replace(cfg, **{field: value})
        return replace(cfg, **{section: replace(getattr(cfg, section), **{field: value})})

    for build in (lambda: config_from_mapping(raw), from_code):
        if expected is None:
            with pytest.raises(ConfigError, match=field):
                build()
            continue
        got = build()
        got = getattr(getattr(got, section) if section else got, field)
        assert got == expected and type(got) is type(expected)


# a misspelt key used to be dropped: the typo below loaded as an all-LoS scenario
@pytest.mark.parametrize(
    "mutate,message",
    [
        pytest.param(
            lambda r: r.__setitem__("nlos_probabilty", 0.3),
            "config: unknown key 'nlos_probabilty'",
            id="top-level",
        ),
        pytest.param(
            lambda r: r["solver"].__setitem__("max_iteration", 50),
            "solver: unknown key 'max_iteration'",
            id="solver",
        ),
        pytest.param(
            lambda r: r["irls"].__setitem__("umax", 1.0), "irls: unknown key 'umax'", id="irls"
        ),
        pytest.param(
            lambda r: r["band"].__setitem__("bandwith_hz", 1e8),
            "band: unknown key 'bandwith_hz'",
            id="band",
        ),
        pytest.param(
            lambda r: r["bias_model"].__setitem__("value_m", 3.0),
            "bias_model: unknown key 'value_m'",
            id="exponential-bias-value",
        ),
        pytest.param(
            lambda r: r["stations"][0].__setitem__("z", 4.0),
            r"stations\[0\]: unknown key 'z'",
            id="station",
        ),
        pytest.param(
            lambda r: r["pois"][0].__setitem__("z", 1.0), r"pois\[0\]: unknown key 'z'", id="poi"
        ),
    ],
)
def test_unknown_keys_are_config_errors(mutate, message):
    raw = config_to_mapping(get_preset("semidynamic_cband"))
    mutate(raw)
    with pytest.raises(ConfigError, match=message):
        config_from_mapping(raw)


def _schema_block():
    doc = config.__doc__
    block = doc[doc.index("\n\n    ") : doc.index("\n\n", doc.index("\n\n    ") + 2)]
    return textwrap.dedent(block)


def _keys_in(data):
    if isinstance(data, dict):
        return set(data) | {k for v in data.values() for k in _keys_in(v)}
    if isinstance(data, list):
        return {k for v in data for k in _keys_in(v)}
    return set()


def test_schema_docstring_loads_as_a_scenario():
    cfg = config_from_mapping(yaml.safe_load(_schema_block()))
    assert cfg.name == "my_scenario"
    assert cfg.band.snr_linear == pytest.approx(100.0)


def test_schema_docstring_names_every_accepted_key():
    # what the writer emits for both bias kinds, with every optional field set,
    # plus snr_db, the reader's alternative to snr_linear
    exponential = get_preset("static_cband")
    fixed = replace(exponential, bias_model=BiasModel(kind="fixed", value_m=1.0))
    accepted = _keys_in(config_to_mapping(exponential)) | _keys_in(config_to_mapping(fixed))
    accepted.add("snr_db")
    assert len(accepted) == 28
    for key in sorted(accepted):
        assert re.search(rf"\b{key}\b", config.__doc__), key


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


# station ids 1 to 4 stagger the ToAs by up to 3 periods; one ulp of that is
# 2**-49 s below 16 s and 2**-48 s from there, about 0.53e-6 and 1.07e-6 m
# against the 1e-6 m step tolerance. A 1e3 s period rounds ToAs to 1.4e-4 m
@pytest.mark.parametrize(
    "period,accepted",
    [(0.010, True), (5.3, True), (5.4, False), (1e3, False), (1e300, False)],
)
def test_stagger_that_swamps_the_flight_time_is_rejected(period, accepted):
    cfg = get_preset("static_cband")
    if accepted:
        assert replace(cfg, schedule_period_s=period).schedule_period_s == period
    else:
        with pytest.raises(ConfigError, match="schedule_period_s.*step_tolerance_m"):
            replace(cfg, schedule_period_s=period)


def test_stagger_bound_follows_the_ids_and_the_tolerance():
    cfg = get_preset("static_cband")
    # ids 4 to 16 span 12 periods, so the boundary moves to 16 / 12 s
    wide = tuple(replace(s, id=s.id * 4) for s in cfg.stations)
    assert replace(cfg, stations=wide, schedule_period_s=5.3 / 4).stations == wide
    for period in (5.4 / 4, 5.3):
        with pytest.raises(ConfigError, match="ids 4 to 16"):
            replace(cfg, stations=wide, schedule_period_s=period)
    # the presets' 0.010 s rounds ToAs to about 1e-9 m
    with pytest.raises(ConfigError, match="schedule_period_s"):
        replace(cfg, solver=replace(cfg.solver, step_tolerance_m=1e-10))
    # an id span too large for a float cannot be staggered at all
    huge = (*cfg.stations[:3], replace(cfg.stations[3], id=10**400))
    with pytest.raises(ConfigError, match="schedule_period_s"):
        replace(cfg, stations=huge)


def test_projected_3d_height():
    # the file's height difference reaches every emulated range
    cfg = get_preset("static_cband")
    assert cfg.height_difference_m == 0.0
    raw = config_to_mapping(cfg)
    raw["height_difference_m"] = 3.0
    raw["noise_override_m"] = 0.0
    cfg3d = config_from_mapping(raw)
    mset, _ = harness.emulate_trial_measurements(cfg3d, 0, 0)
    poi = cfg3d.pois[0]
    for (sid, toa), st in zip(mset.samples, cfg3d.stations):
        stagger = (sid - 1) * cfg3d.schedule_period_s
        dist = math.hypot(poi.x - st.position.x, poi.y - st.position.y)
        expected = math.hypot(dist, 3.0) / SPEED_OF_LIGHT_M_S
        assert toa - stagger == pytest.approx(expected, abs=1e-17), sid


def test_all_presets_valid():
    for name in PRESET_NAMES:
        cfg = get_preset(name)
        assert cfg.name == name


def test_preset_load_leaves_yaml_and_scipy_unloaded():
    # a preset is built in code, without numpy, yaml or scipy; importing
    # numpy would be most of the set-up time
    assert loaded_after("import irlspos; irlspos.load_config('static_cband')") == "[]"


def test_config_import_after_the_package_loads_nothing():
    # importing the package already loads the config module, so nothing
    # moves into the gap between timing the import and timing a load
    code = (
        "import sys, irlspos; before = set(sys.modules); "
        "from irlspos.config import load_config; "
        "print(sorted(set(sys.modules) - before))"
    )
    assert fresh_interpreter(code) == "[]"


def test_every_exported_name_resolves():
    # the harness names resolve on first access, and only then load numpy
    for name in irlspos.__all__:
        assert getattr(irlspos, name) is not None
    assert irlspos.run_batch is harness.run_batch
    with pytest.raises(AttributeError, match="no_such_name"):
        irlspos.no_such_name


def test_preset_pois_equal_the_seeded_draw():
    # the draw the literals were made from: the first 23 nodes of a 5 x 5
    # grid 3 m inside the walls, each jittered by a uniform [-1, 1) m per axis
    rng = np.random.default_rng(20230423)
    xs = np.linspace(3.0, presets.AOI_WIDTH_M - 3.0, 5)
    ys = np.linspace(3.0, presets.AOI_HEIGHT_M - 3.0, 5)
    cells = [(x, y) for y in ys for x in xs][:23]
    jitter = rng.uniform(-1.0, 1.0, size=(len(cells), 2))
    drawn = tuple(
        Position2D(float(x + dx), float(y + dy)) for (x, y), (dx, dy) in zip(cells, jitter)
    )
    assert presets.POIS == drawn
    assert all(get_preset(name).pois == drawn for name in PRESET_NAMES)

"""Scenario configuration: schema, validation, and YAML loading.

A scenario file is a YAML mapping with these keys (see the bundled presets
for complete examples, ``irlspos presets show <name>``):

    name: my_scenario                 # optional label
    stations:                         # >= 3, unique ids
      - {id: 1, x: 0.0, y: 0.0}
    pois:                             # >= 1 ground-truth evaluation points
      - {x: 10.0, y: 10.0}
    band:
      carrier_frequency_hz: 3.775e9   # fidelity only, unused by computation
      bandwidth_hz: 1.0e8
      subcarrier_spacing_hz: 3.0e4    # fidelity only, unused by computation
      signal_time_period_s: 1.0e-5
      snr_db: 20.0                    # or snr_linear (exactly one)
      rolloff: 0.25
      symbol_period_s: 1.25e-8        # optional, default (1+rolloff)/bandwidth
    transmit_power_dbm: 20.0          # optional; fidelity only, unused
    bias_model: {type: exponential, mean_m: 3.0}    # or {type: fixed, value_m: ...}
    nlos_probability: 0.3
    schedule_period_s: 0.010
    trials_per_poi: 50
    root_seed: 20240601
    noise_override_m: null            # optional; 0.0 disables ranging noise
    projected_3d: false               # optional; adds height range offset
    station_height_m: 4.0             # used only when projected_3d
    poi_height_m: 1.0                 # used only when projected_3d
    solver: {max_iterations: 50, step_tolerance_m: 1.0e-6, bounds_margin_m: 1.0}
    irls: {u_max_m: 1.0, epsilon_m: 1.0e-3, max_iterations: 100}
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import yaml

from .channel import BandProfile
from .errors import ConfigError, GeometryError
from .geometry import BaseStation, Position2D, check_station_layout, is_int
from .irls import IrlsSettings
from .lsq import SolverSettings

# accepted for scenario fidelity, never read by any computation
UNUSED_FIDELITY_FIELDS = (
    "band.carrier_frequency_hz",
    "band.subcarrier_spacing_hz",
    "transmit_power_dbm",
)


@dataclass(frozen=True)
class BiasModel:
    """NLoS excess-range model: a fixed value or an exponential draw.

    ``value_m`` is the bias itself for kind "fixed" and the distribution
    mean for kind "exponential" (one independent draw per NLoS link per
    trial).
    """

    kind: str = "exponential"
    value_m: float = 3.0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "exponential"):
            raise ConfigError(f"bias_model.type must be fixed or exponential, got {self.kind!r}")
        if not math.isfinite(self.value_m) or self.value_m < 0:
            raise ConfigError(f"bias_model value must be finite and >= 0, got {self.value_m!r}")

    def draw(self, rng) -> float:
        if self.kind == "fixed":
            return self.value_m
        return float(rng.exponential(self.value_m))


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete experiment description."""

    stations: tuple[BaseStation, ...]
    pois: tuple[Position2D, ...]
    band: BandProfile
    bias_model: BiasModel = field(default_factory=BiasModel)
    nlos_probability: float = 0.0
    schedule_period_s: float = 0.010
    trials_per_poi: int = 50
    root_seed: int = 20240601
    solver: SolverSettings = field(default_factory=SolverSettings)
    irls: IrlsSettings = field(default_factory=IrlsSettings)
    noise_override_m: float | None = None
    projected_3d: bool = False
    station_height_m: float = 4.0
    poi_height_m: float = 1.0
    transmit_power_dbm: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        try:
            layout = check_station_layout(self.stations)
        except GeometryError as exc:
            raise ConfigError(f"stations: {exc}") from exc
        if len(self.pois) < 1:
            raise ConfigError("pois: need at least one point of interest")
        # every solver iterate is clamped to this box, so a PoI outside it
        # could never be estimated
        lo_x, lo_y, hi_x, hi_y = layout.solve_box(self.solver.bounds_margin_m)
        for i, p in enumerate(self.pois):
            if not (lo_x <= p.x <= hi_x and lo_y <= p.y <= hi_y):
                raise ConfigError(
                    f"pois[{i}]: ({p.x!r}, {p.y!r}) lies outside the solve box "
                    f"x in [{lo_x!r}, {hi_x!r}], y in [{lo_y!r}, {hi_y!r}] "
                    f"(station bounding box plus solver.bounds_margin_m), "
                    f"where the solver cannot reach it"
                )
        if not 0.0 <= self.nlos_probability <= 1.0:
            raise ConfigError(
                f"nlos_probability must be in [0, 1], got {self.nlos_probability!r}"
            )
        if self.schedule_period_s < 0 or not math.isfinite(self.schedule_period_s):
            raise ConfigError(f"schedule_period_s must be >= 0, got {self.schedule_period_s!r}")
        for name in ("trials_per_poi", "root_seed"):
            if not is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trials_per_poi < 1:
            raise ConfigError(f"trials_per_poi must be >= 1, got {self.trials_per_poi!r}")
        if self.root_seed < 0:
            raise ConfigError(f"root_seed must be >= 0, got {self.root_seed!r}")
        if self.noise_override_m is not None and self.noise_override_m < 0:
            raise ConfigError(f"noise_override_m must be >= 0, got {self.noise_override_m!r}")

    @property
    def height_difference_m(self) -> float:
        """Range-offset height used when projected-3D mode is enabled."""
        if not self.projected_3d:
            return 0.0
        return self.station_height_m - self.poi_height_m

    def with_overrides(
        self, *, root_seed: int | None = None, trials_per_poi: int | None = None
    ) -> "ScenarioConfig":
        cfg = self
        if root_seed is not None:
            cfg = replace(cfg, root_seed=root_seed)
        if trials_per_poi is not None:
            cfg = replace(cfg, trials_per_poi=trials_per_poi)
        return cfg


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _number(value: Any, what: str) -> float:
    """A finite real scalar. Numeric strings count, since YAML reads an
    exponent without a decimal point, such as 1e-6, as a string."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(f"{what}: expected a finite number, got {value!r}")


def _integer(value: Any, what: str) -> int:
    """An integer scalar; an integral float such as 50.0 counts, a fraction
    or a string does not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{what}: expected an integer, got {value!r}")


def _flag(value: Any, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what}: expected true or false, got {value!r}")
    return value


def _section(raw: dict, key: str) -> dict:
    """An optional nested mapping; absent means all defaults."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a mapping, got {value!r}")
    return value


def _band_from_mapping(raw: dict) -> BandProfile:
    if not isinstance(raw, dict):
        raise ConfigError("band: expected a mapping")
    has_db = "snr_db" in raw
    has_linear = "snr_linear" in raw
    if has_db == has_linear:
        raise ConfigError("band: specify exactly one of snr_db or snr_linear")
    try:
        return BandProfile.with_defaults(
            carrier_frequency_hz=_number(
                _require(raw, "carrier_frequency_hz", "band"), "carrier_frequency_hz"
            ),
            bandwidth_hz=_number(_require(raw, "bandwidth_hz", "band"), "bandwidth_hz"),
            subcarrier_spacing_hz=_number(
                _require(raw, "subcarrier_spacing_hz", "band"), "subcarrier_spacing_hz"
            ),
            snr_linear=(
                10.0 ** (_number(raw["snr_db"], "snr_db") / 10.0)
                if has_db
                else _number(raw["snr_linear"], "snr_linear")
            ),
            signal_time_period_s=_number(
                raw.get("signal_time_period_s", 1e-5), "signal_time_period_s"
            ),
            rolloff=_number(raw.get("rolloff", 0.25), "rolloff"),
            symbol_period_s=(
                _number(raw["symbol_period_s"], "symbol_period_s")
                if "symbol_period_s" in raw
                else None
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"band: {exc}") from exc


def _point(raw: Any, what: str) -> Position2D:
    if not isinstance(raw, dict) or "x" not in raw or "y" not in raw:
        raise ConfigError(f"{what}: expected {{x, y}}, got {raw!r}")
    return Position2D(_number(raw["x"], f"{what}.x"), _number(raw["y"], f"{what}.y"))


def config_from_mapping(raw: dict, name: str = "") -> ScenarioConfig:
    """Build and validate a ScenarioConfig from parsed YAML data.

    Every malformed field, a scalar of the wrong type included, raises
    ConfigError; nothing is truncated or coerced from a fraction.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    stations_raw = _require(raw, "stations", "config")
    if not isinstance(stations_raw, list) or not stations_raw:
        raise ConfigError("stations: expected a non-empty list")
    stations = []
    for i, st in enumerate(stations_raw):
        if not isinstance(st, dict) or "id" not in st:
            raise ConfigError(f"stations[{i}]: expected {{id, x, y}}, got {st!r}")
        stations.append(
            BaseStation(
                _integer(st["id"], f"stations[{i}].id"), _point(st, f"stations[{i}]")
            )
        )

    pois_raw = _require(raw, "pois", "config")
    if not isinstance(pois_raw, list) or not pois_raw:
        raise ConfigError("pois: expected a non-empty list")
    pois = [_point(poi, f"pois[{i}]") for i, poi in enumerate(pois_raw)]

    bias_raw = raw.get("bias_model", {"type": "exponential", "mean_m": 3.0})
    if not isinstance(bias_raw, dict) or "type" not in bias_raw:
        raise ConfigError(f"bias_model: expected a mapping with a type, got {bias_raw!r}")
    kind = bias_raw["type"]
    value_key = "value_m" if kind == "fixed" else "mean_m"
    if value_key not in bias_raw:
        raise ConfigError(f"bias_model: {kind!r} model requires {value_key!r}")
    bias_model = BiasModel(
        kind=kind, value_m=_number(bias_raw[value_key], f"bias_model.{value_key}")
    )

    solver_raw = _section(raw, "solver")
    guess = solver_raw.get("initial_guess")
    try:
        if guess is not None and (not isinstance(guess, list) or len(guess) != 2):
            raise ConfigError(f"initial_guess: expected [x, y], got {guess!r}")
        solver = SolverSettings(
            max_iterations=_integer(solver_raw.get("max_iterations", 50), "max_iterations"),
            step_tolerance_m=_number(
                solver_raw.get("step_tolerance_m", 1e-6), "step_tolerance_m"
            ),
            initial_guess=(
                None
                if guess is None
                else Position2D(*(_number(v, "initial_guess") for v in guess))
            ),
            bounds_margin_m=_number(
                solver_raw.get("bounds_margin_m", 1.0), "bounds_margin_m"
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    irls_raw = _section(raw, "irls")
    try:
        irls = IrlsSettings(
            u_max_m=_number(irls_raw.get("u_max_m", 1.0), "u_max_m"),
            epsilon_m=_number(irls_raw.get("epsilon_m", 1e-3), "epsilon_m"),
            max_iterations=_integer(irls_raw.get("max_iterations", 100), "max_iterations"),
        )
    except ValueError as exc:
        raise ConfigError(f"irls: {exc}") from exc

    noise_override = raw.get("noise_override_m")
    return ScenarioConfig(
        stations=tuple(stations),
        pois=tuple(pois),
        band=_band_from_mapping(_require(raw, "band", "config")),
        bias_model=bias_model,
        nlos_probability=_number(raw.get("nlos_probability", 0.0), "nlos_probability"),
        schedule_period_s=_number(
            raw.get("schedule_period_s", 0.010), "schedule_period_s"
        ),
        trials_per_poi=_integer(raw.get("trials_per_poi", 50), "trials_per_poi"),
        root_seed=_integer(raw.get("root_seed", 20240601), "root_seed"),
        solver=solver,
        irls=irls,
        noise_override_m=(
            None
            if noise_override is None
            else _number(noise_override, "noise_override_m")
        ),
        projected_3d=_flag(raw.get("projected_3d", False), "projected_3d"),
        station_height_m=_number(raw.get("station_height_m", 4.0), "station_height_m"),
        poi_height_m=_number(raw.get("poi_height_m", 1.0), "poi_height_m"),
        transmit_power_dbm=(
            _number(raw["transmit_power_dbm"], "transmit_power_dbm")
            if "transmit_power_dbm" in raw
            else None
        ),
        name=str(raw.get("name", name)),
    )


def load_config(path_or_preset: str | Path) -> ScenarioConfig:
    """Load a scenario from a YAML file or a bundled preset name."""
    from . import presets  # deferred; presets builds ScenarioConfig objects

    text = str(path_or_preset)
    if text in presets.PRESET_NAMES:
        return presets.get_preset(text)
    path = Path(path_or_preset)
    if not path.is_file():
        raise ConfigError(
            f"config file not found: {path} (and not a preset; "
            f"presets are {', '.join(presets.PRESET_NAMES)})"
        )
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    return config_from_mapping(raw, name=path.stem)


def config_to_mapping(cfg: ScenarioConfig) -> dict:
    """Plain-data form of a config, suitable for YAML dumping."""
    band = cfg.band
    out: dict[str, Any] = {
        "name": cfg.name,
        "stations": [
            {"id": s.id, "x": s.position.x, "y": s.position.y} for s in cfg.stations
        ],
        "pois": [{"x": p.x, "y": p.y} for p in cfg.pois],
        "band": {
            "carrier_frequency_hz": band.carrier_frequency_hz,
            "bandwidth_hz": band.bandwidth_hz,
            "subcarrier_spacing_hz": band.subcarrier_spacing_hz,
            "signal_time_period_s": band.signal_time_period_s,
            "snr_linear": band.snr_linear,
            "symbol_period_s": band.symbol_period_s,
            "rolloff": band.rolloff,
        },
        "bias_model": (
            {"type": "fixed", "value_m": cfg.bias_model.value_m}
            if cfg.bias_model.kind == "fixed"
            else {"type": "exponential", "mean_m": cfg.bias_model.value_m}
        ),
        "nlos_probability": cfg.nlos_probability,
        "schedule_period_s": cfg.schedule_period_s,
        "trials_per_poi": cfg.trials_per_poi,
        "root_seed": cfg.root_seed,
        "noise_override_m": cfg.noise_override_m,
        "projected_3d": cfg.projected_3d,
        "station_height_m": cfg.station_height_m,
        "poi_height_m": cfg.poi_height_m,
        "solver": {
            "max_iterations": cfg.solver.max_iterations,
            "step_tolerance_m": cfg.solver.step_tolerance_m,
            "bounds_margin_m": cfg.solver.bounds_margin_m,
        },
        "irls": {
            "u_max_m": cfg.irls.u_max_m,
            "epsilon_m": cfg.irls.epsilon_m,
            "max_iterations": cfg.irls.max_iterations,
        },
    }
    if cfg.solver.initial_guess is not None:
        out["solver"]["initial_guess"] = [
            cfg.solver.initial_guess.x,
            cfg.solver.initial_guess.y,
        ]
    if cfg.transmit_power_dbm is not None:
        out["transmit_power_dbm"] = cfg.transmit_power_dbm
    return out

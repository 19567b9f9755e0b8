"""Scenario configuration: schema, validation, and YAML loading.

A scenario file is a YAML mapping with these keys (see the bundled presets
for complete examples, ``irlspos presets show <name>``). ``stations``,
``pois`` and ``band`` are required; any other key may be left out and then
takes the default of its dataclass field. An unknown key at any level is an
error. The block below is itself a valid scenario file:

    name: my_scenario                 # label; default the file name
    stations:                         # >= 3, unique ids, not collinear
      - {id: 1, x: 0.0, y: 0.0}
      - {id: 2, x: 20.0, y: 0.0}
      - {id: 3, x: 0.0, y: 20.0}
    pois:                             # >= 1 ground-truth evaluation points
      - {x: 10.0, y: 10.0}
    band:
      bandwidth_hz: 1.0e8
      signal_time_period_s: 1.0e-5
      snr_db: 20.0                    # or snr_linear (exactly one)
    bias_model: {type: exponential, mean_m: 3.0}    # or {type: fixed, value_m: ...}
    nlos_probability: 0.3
    schedule_period_s: 0.010
    trials_per_poi: 50
    root_seed: 20240601
    noise_override_m: null            # 0.0 disables ranging noise
    height_difference_m: 0.0          # station minus UE height; range = hypot(d_2d, this)
    solver:
      max_iterations: 50
      step_tolerance_m: 1.0e-6        # > 0 and at most 1 m
      bounds_margin_m: 1.0            # solve box: station box plus this; start: station centroid
    irls: {u_max_m: 1.0, epsilon_m: 1.0e-3, max_iterations: 100}

Each scalar is read by the one rule in :mod:`irlspos.geometry` that also
applies to values set in code: an integral float counts as an integer and a
numeric string as a number.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Any

from .channel import BandProfile, toa_noise_std
from .errors import ConfigError, GeometryError
from .geometry import (
    BaseStation,
    Position2D,
    as_integer,
    as_number,
    check_station_layout,
    read_fields,
)
from .irls import IrlsSettings
from .lsq import SolverSettings, _rounding_m

# PoI and trial indices are each one 32-bit word of a trial's seed key
SEED_KEY_LIMIT = 2**32

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
        what = "bias_model.value_m" + ("" if self.kind == "fixed" else " (mean_m)")
        object.__setattr__(self, "value_m", as_number(self.value_m, what))
        if self.value_m < 0:
            raise ConfigError(f"{what} must be >= 0, got {self.value_m!r}")

    def draw(self, rng) -> float:
        if self.kind == "fixed":
            return self.value_m
        return float(rng.exponential(self.value_m))


def _bias_value_key(kind: Any) -> str:
    """The scenario-file key of a bias model's value_m: an exponential
    model names its mean."""
    return "value_m" if kind == "fixed" else "mean_m"


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """A complete experiment description. The fields are keyword-only and
    in the order config_to_mapping writes them."""

    name: str = ""
    stations: tuple[BaseStation, ...]
    pois: tuple[Position2D, ...]
    band: BandProfile
    bias_model: BiasModel = field(default_factory=BiasModel)
    nlos_probability: float = 0.0
    schedule_period_s: float = 0.010
    trials_per_poi: int = 50
    root_seed: int = 20240601
    noise_override_m: float | None = None
    height_difference_m: float = 0.0
    solver: SolverSettings = field(default_factory=SolverSettings)
    irls: IrlsSettings = field(default_factory=IrlsSettings)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name))
        read_fields(
            self,
            as_number,
            "nlos_probability",
            "schedule_period_s",
            "height_difference_m",
        )
        read_fields(self, as_integer, "trials_per_poi", "root_seed")
        if self.noise_override_m is not None:
            read_fields(self, as_number, "noise_override_m")
        try:
            layout = check_station_layout(self.stations)
        except GeometryError as exc:
            raise ConfigError(f"stations: {exc}") from exc
        if len(self.pois) < 1:
            raise ConfigError("pois: need at least one point of interest")
        if len(self.pois) >= SEED_KEY_LIMIT:
            raise ConfigError(f"pois: need fewer than 2**32 points, got {len(self.pois)}")
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
        if self.schedule_period_s < 0:
            raise ConfigError(f"schedule_period_s must be >= 0, got {self.schedule_period_s!r}")
        # the emulator adds a transmit stagger of up to this to a ToA, so a
        # ToA is only known to one ulp of it
        ids = layout.ids
        try:
            stagger_s = (ids[-1] - ids[0]) * self.schedule_period_s
        except OverflowError:
            stagger_s = math.inf
        rounding_m = _rounding_m(stagger_s, self.solver)
        if rounding_m is not None:
            raise ConfigError(
                f"schedule_period_s={self.schedule_period_s!r}: station ids "
                f"{ids[0]} to {ids[-1]} stagger the ToAs by up to {stagger_s!r} s, "
                f"which rounds them to {rounding_m!r} m, more than "
                f"solver.step_tolerance_m={self.solver.step_tolerance_m!r}"
            )
        if not 1 <= self.trials_per_poi < SEED_KEY_LIMIT:
            raise ConfigError(
                f"trials_per_poi must be in [1, 2**32), got {self.trials_per_poi!r}"
            )
        if self.root_seed < 0:
            raise ConfigError(f"root_seed must be >= 0, got {self.root_seed!r}")
        if self.noise_override_m is not None and self.noise_override_m < 0:
            raise ConfigError(f"noise_override_m must be >= 0, got {self.noise_override_m!r}")

    @cached_property
    def emulation(self) -> tuple:
        """What every trial's emulation shares, built at first use and kept
        with the config: the ascending station ids, each station's transmit
        stagger ``(id - min_id) * schedule_period_s`` in seconds, the ranging
        noise std in meters (``toa_noise_std(band)``, or
        ``noise_override_m`` when set), and per PoI the range to each
        station in id order, ``hypot(hypot(dx, dy), height_difference_m)``
        for every height difference: at 0 it is the 2D distance, bit for
        bit, since ``hypot(d, 0.0) == d``."""
        layout = check_station_layout(self.stations)
        ids, h = layout.ids, self.height_difference_m
        staggers = tuple([(sid - ids[0]) * self.schedule_period_s for sid in ids])
        sigma_m = self.noise_override_m
        if sigma_m is None:
            sigma_m = toa_noise_std(self.band)
        ranges = tuple([
            tuple([math.hypot(math.hypot(p.x - x, p.y - y), h) for x, y in layout.coords])
            for p in self.pois
        ])
        return ids, staggers, sigma_m, ranges

    def with_overrides(
        self, *, root_seed: int | None = None, trials_per_poi: int | None = None
    ) -> "ScenarioConfig":
        cfg = self
        if root_seed is not None:
            cfg = replace(cfg, root_seed=root_seed)
        if trials_per_poi is not None:
            cfg = replace(cfg, trials_per_poi=trials_per_poi)
        return cfg


def _keys(build: Any) -> dict[str, bool]:
    """Each parameter ``build`` declares, and whether it is required."""
    return {
        name: param.default is param.empty
        for name, param in inspect.signature(build).parameters.items()
    }


def _checked(raw: Any, what: str, keys: dict[str, bool]) -> dict:
    """``raw`` as a mapping that names no key outside ``keys`` and every
    required one."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what}: expected a mapping, got {raw!r}")
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{what}: unknown key {key!r}")
    for key, required in keys.items():
        if required and key not in raw:
            raise ConfigError(f"{what}: missing required field {key!r}")
    return dict(raw)


def _built(build: Any, what: str, kwargs: dict) -> Any:
    try:
        return build(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _entries(raw: Any, what: str, keys: dict[str, bool]) -> list[tuple[str, dict]]:
    """(label, checked entry) for each entry of a non-empty list."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{what}: expected a non-empty list")
    labels = [f"{what}[{i}]" for i in range(len(raw))]
    return [(label, _checked(entry, label, keys)) for label, entry in zip(labels, raw)]


def _point(raw: dict, what: str) -> Position2D:
    return Position2D(as_number(raw["x"], f"{what}.x"), as_number(raw["y"], f"{what}.y"))


def _band_from_mapping(raw: Any) -> BandProfile:
    band = _checked(raw, "band", {**_keys(BandProfile), "snr_db": False})
    if ("snr_db" in band) == ("snr_linear" in band):
        raise ConfigError("band: specify exactly one of snr_db or snr_linear")
    if "snr_db" in band:
        snr_db = as_number(band.pop("snr_db"), "band.snr_db")
        try:
            band["snr_linear"] = 10.0 ** (snr_db / 10.0)
        except OverflowError as exc:
            raise ConfigError(
                f"band.snr_db: {snr_db!r} dB is too large for a linear SNR"
            ) from exc
    return _built(BandProfile, "band", band)


def _bias_from_mapping(raw: Any) -> BiasModel:
    kind = raw.get("type") if isinstance(raw, dict) else None
    bias = _checked(raw, "bias_model", {"type": True, _bias_value_key(kind): True})
    return BiasModel(kind=kind, value_m=bias[_bias_value_key(kind)])


def config_from_mapping(raw: Any, name: str = "") -> ScenarioConfig:
    """Build and validate a ScenarioConfig from parsed YAML data.

    Only the file's structure is handled here: station and PoI lists,
    ``snr_db`` and the bias model's value key. A key that is left out takes
    its dataclass default, and ``name`` defaults to the given one. An
    unknown key at any level and every malformed value raise ConfigError.
    """
    cfg = _checked(raw, "config", _keys(ScenarioConfig))
    station_keys = {"id": True, **_keys(Position2D)}
    cfg["stations"] = tuple(
        BaseStation(as_integer(st["id"], f"{label}.id"), _point(st, label))
        for label, st in _entries(cfg["stations"], "stations", station_keys)
    )
    cfg["pois"] = tuple(
        _point(poi, label) for label, poi in _entries(cfg["pois"], "pois", _keys(Position2D))
    )
    cfg["band"] = _band_from_mapping(cfg["band"])
    if "bias_model" in cfg:
        cfg["bias_model"] = _bias_from_mapping(cfg["bias_model"])
    for key, settings in (("solver", SolverSettings), ("irls", IrlsSettings)):
        if key in cfg:
            cfg[key] = _built(settings, key, _checked(cfg[key], key, _keys(settings)))
    cfg.setdefault("name", name)
    return ScenarioConfig(**cfg)


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
    import yaml  # deferred: a preset never reads YAML

    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    return config_from_mapping(raw, name=path.stem)


def _fields(obj: Any) -> dict[str, Any]:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def config_to_mapping(cfg: ScenarioConfig) -> dict:
    """Plain-data form of a config, suitable for YAML dumping; keys follow
    the dataclass fields, as config_from_mapping accepts them."""
    out = _fields(cfg)
    out["stations"] = [
        {"id": s.id, "x": s.position.x, "y": s.position.y} for s in cfg.stations
    ]
    out["pois"] = [{"x": p.x, "y": p.y} for p in cfg.pois]
    out["band"] = _fields(cfg.band)
    out["bias_model"] = {
        "type": cfg.bias_model.kind,
        _bias_value_key(cfg.bias_model.kind): cfg.bias_model.value_m,
    }
    out["solver"] = _fields(cfg.solver)
    out["irls"] = _fields(cfg.irls)
    return out

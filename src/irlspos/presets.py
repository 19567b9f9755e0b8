"""Bundled benchmark scenarios.

Geometry: four corner-mounted stations around a 29 m x 25 m area of
interest with 23 evaluation points on a jittered 5 x 5 grid (fixed seed
20230423, so the layout is reproducible and documented rather than claimed
as surveyed coordinates).

Bands: C-band (3.775 GHz carrier, 100 MHz bandwidth, 30 kHz subcarrier
spacing) and mmWave (26.85 GHz, 400 MHz, 120 kHz), both at 20 dB SNR.

Static presets have no NLoS flips; semi-dynamic presets flip each link to
NLoS with probability 0.3 per trial with an exponential excess range of
mean 3 m, standing in for moving machinery that intermittently blocks
links. All presets share one root seed so that link-state and bias draws
are identical across bands for like-for-like comparisons.
"""

from __future__ import annotations

import numpy as np

from .channel import BandProfile
from .config import BiasModel, ScenarioConfig
from .errors import ConfigError
from .geometry import BaseStation, Position2D

AOI_WIDTH_M = 29.0
AOI_HEIGHT_M = 25.0
POI_COUNT = 23
POI_GRID_SEED = 20230423

PRESET_NAMES = (
    "static_cband",
    "static_mmwave",
    "semidynamic_cband",
    "semidynamic_mmwave",
)


def corner_stations() -> tuple[BaseStation, ...]:
    return (
        BaseStation(1, Position2D(0.0, 0.0)),
        BaseStation(2, Position2D(AOI_WIDTH_M, 0.0)),
        BaseStation(3, Position2D(AOI_WIDTH_M, AOI_HEIGHT_M)),
        BaseStation(4, Position2D(0.0, AOI_HEIGHT_M)),
    )


def default_poi_grid(
    count: int = POI_COUNT, seed: int = POI_GRID_SEED
) -> tuple[Position2D, ...]:
    """Jittered grid of evaluation points, at least ~2 m off the walls."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(3.0, AOI_WIDTH_M - 3.0, 5)
    ys = np.linspace(3.0, AOI_HEIGHT_M - 3.0, 5)
    cells = [(x, y) for y in ys for x in xs][:count]
    jitter = rng.uniform(-1.0, 1.0, size=(len(cells), 2))
    return tuple(
        Position2D(float(x + dx), float(y + dy))
        for (x, y), (dx, dy) in zip(cells, jitter)
    )


def cband_profile(snr_db: float = 20.0) -> BandProfile:
    return BandProfile.with_defaults(
        carrier_frequency_hz=3.775e9,
        bandwidth_hz=100e6,
        subcarrier_spacing_hz=30e3,
        snr_linear=10.0 ** (snr_db / 10.0),
    )


def mmwave_profile(snr_db: float = 20.0) -> BandProfile:
    return BandProfile.with_defaults(
        carrier_frequency_hz=26.85e9,
        bandwidth_hz=400e6,
        subcarrier_spacing_hz=120e3,
        snr_linear=10.0 ** (snr_db / 10.0),
    )


def get_preset(name: str) -> ScenarioConfig:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    band = cband_profile() if name.endswith("cband") else mmwave_profile()
    semidynamic = name.startswith("semidynamic")
    return ScenarioConfig(
        stations=corner_stations(),
        pois=default_poi_grid(),
        band=band,
        bias_model=BiasModel(kind="exponential", value_m=3.0),
        nlos_probability=0.3 if semidynamic else 0.0,
        schedule_period_s=0.010,
        trials_per_poi=50,
        transmit_power_dbm=20.0,
        name=name,
    )

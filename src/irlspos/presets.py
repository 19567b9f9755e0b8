"""Bundled benchmark scenarios.

Geometry: four corner-mounted stations around a 29 m x 25 m area of
interest with 23 evaluation points on a jittered 5 x 5 grid. They are
drawn, not surveyed: the grid's nodes are 3 to 26 m in x and 3 to 22 m in
y, row by row in y, and the first 23 nodes each move by a uniform offset in
[-1, 1) m per axis, drawn as ``default_rng(20230423).uniform(-1.0, 1.0,
size=(23, 2))`` with numpy. ``POIS`` holds the results as literals, so a
preset is built without numpy; a test repeats the draw and checks that they
are equal.

Bands: C-band (3.775 GHz carrier, 100 MHz bandwidth, 30 kHz subcarrier
spacing) and mmWave (26.85 GHz, 400 MHz, 120 kHz), both at 20 dB SNR and
20 dBm transmit power over a 10 us integration time. Only the bandwidth,
SNR and integration time enter the ranging noise (``toa_noise_std``), so
a ``BandProfile`` holds just those; carrier, subcarrier spacing and
transmit power are recorded here as the scenarios' description.

Static presets have no NLoS flips; semi-dynamic presets flip each link to
NLoS with probability 0.3 per trial with an exponential excess range of
mean 3 m, standing in for moving machinery that intermittently blocks
links. All presets share one root seed so that link-state and bias draws
are identical across bands for like-for-like comparisons.
"""

from __future__ import annotations

from .channel import BandProfile
from .config import BiasModel, ScenarioConfig
from .errors import ConfigError
from .geometry import BaseStation, Position2D

AOI_WIDTH_M = 29.0
AOI_HEIGHT_M = 25.0

# the jittered grid; the module docstring says how it was drawn
POIS = (
    Position2D(3.360913661205064, 3.620417231819695),
    Position2D(9.010648641571853, 3.332616012789134),
    Position2D(14.941523033673509, 3.522253178089028),
    Position2D(19.980844153691496, 2.230868398783513),
    Position2D(26.411779863422932, 2.777184083255739),
    Position2D(3.0852168669076363, 7.6866396456635515),
    Position2D(8.686924998382313, 8.602236839828869),
    Position2D(15.136001690880411, 8.18356334963036),
    Position2D(20.567857329044845, 6.806876702777391),
    Position2D(25.1099947434004, 7.645221016565609),
    Position2D(3.0404209881381563, 12.295759131944912),
    Position2D(9.192189649037664, 12.267391890178807),
    Position2D(13.528843787467089, 13.485273622168613),
    Position2D(19.810092490678603, 12.180051705185642),
    Position2D(25.75272877525278, 13.217440119339482),
    Position2D(2.2176414952130736, 17.352444673181036),
    Position2D(8.69489697972435, 17.940170917881087),
    Position2D(14.566266181989054, 17.618274220857828),
    Position2D(19.27235804122731, 17.773209363835846),
    Position2D(26.12641933266014, 16.842965925123337),
    Position2D(3.8941684383177275, 21.361715533887374),
    Position2D(8.292152399512497, 22.892970327676466),
    Position2D(14.570341917397073, 22.798392779901807),
)

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


def cband_profile() -> BandProfile:
    return BandProfile(bandwidth_hz=100e6, snr_linear=10.0 ** (20.0 / 10.0))


def mmwave_profile() -> BandProfile:
    return BandProfile(bandwidth_hz=400e6, snr_linear=10.0 ** (20.0 / 10.0))


def get_preset(name: str) -> ScenarioConfig:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    band = cband_profile() if name.endswith("cband") else mmwave_profile()
    semidynamic = name.startswith("semidynamic")
    return ScenarioConfig(
        stations=corner_stations(),
        pois=POIS,
        band=band,
        bias_model=BiasModel(kind="exponential", value_m=3.0),
        nlos_probability=0.3 if semidynamic else 0.0,
        schedule_period_s=0.010,
        trials_per_poi=50,
        name=name,
    )

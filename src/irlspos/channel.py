"""Statistical ToA emulator.

``emulate_measurement_set`` makes one epoch's first-arrival times: per
link, the geometric propagation delay plus an optional NLoS excess range
and Gaussian ranging noise whose standard deviation ``toa_noise_std``
derives from the band's bandwidth, integration time and SNR. It stands in
for a ray tracer; the benchmark harness runs it for every trial.

Measurement timestamps include the per-station transmit stagger of the
sequential schedule (station with id ``n`` transmits ``(n - min_id) * delta``
after the first one); the TDoA stage removes the stagger exactly, since the
station clocks are assumed synchronized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigError
from .geometry import (
    SPEED_OF_LIGHT_M_S,
    BaseStation,
    Position2D,
    as_number,
    euclidean_distance,
    is_int,
    read_fields,
    sorted_stations,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class BandProfile:
    """Radio parameters of one 5G operating band: the three that the
    ranging noise (:func:`toa_noise_std`) depends on."""

    bandwidth_hz: float
    signal_time_period_s: float = 1e-5
    snr_linear: float = 100.0

    def __post_init__(self) -> None:
        # field by field, so a bad field is named before the noise check
        # below divides by it
        for f in fields(self):
            value = as_number(getattr(self, f.name), f.name)
            if not value > 0:
                raise ConfigError(f"invalid band parameter {f.name}={value!r}")
            object.__setattr__(self, f.name, value)
        # positive finite fields can still overflow the noise formula or
        # underflow its denominator to zero
        try:
            sigma = toa_noise_std(self)
        except (OverflowError, ZeroDivisionError):
            sigma = math.inf
        if not math.isfinite(sigma):
            raise ConfigError(
                f"bandwidth_hz={self.bandwidth_hz!r}, signal_time_period_s="
                f"{self.signal_time_period_s!r} and snr_linear={self.snr_linear!r} "
                f"give no finite ranging noise std"
            )


@dataclass(frozen=True)
class LinkState:
    """LoS/NLoS condition of one station-UE link for one epoch: a link is
    LoS exactly when it adds no excess range."""

    station_id: int
    nlos_bias_m: float = 0.0

    def __post_init__(self) -> None:
        read_fields(self, as_number, "nlos_bias_m")
        if self.nlos_bias_m < 0:
            raise ConfigError(f"nlos_bias_m must be >= 0, got {self.nlos_bias_m!r}")


@dataclass(frozen=True)
class MeasurementSet:
    """First-arrival timestamps for one positioning epoch.

    ``samples`` holds one ``(station_id, measured_toa_s)`` pair per station,
    ascending by id. Timestamps are arrival times on the UE clock and include
    the transmit stagger ``(id - min_id) * schedule_period_s``; the pairwise
    offsets given by :meth:`transmission_offset` are what the TDoA stage
    subtracts.
    """

    epoch_id: int
    samples: tuple[tuple[int, float], ...]
    schedule_period_s: float = 0.0

    def __post_init__(self) -> None:
        if len(self.samples) < 1:
            raise ConfigError("measurement set has no samples")
        for sid, _ in self.samples:
            if not is_int(sid):
                raise ConfigError(f"station id must be an integer, got {sid!r}")
        ordered = tuple(sorted((sid, as_number(toa, "ToA")) for sid, toa in self.samples))
        object.__setattr__(self, "samples", ordered)
        read_fields(self, as_number, "schedule_period_s")
        ids = [sid for sid, _ in ordered]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate station ids in measurement set: {ids}")
        if self.schedule_period_s < 0:
            raise ConfigError(f"schedule_period_s must be >= 0, got {self.schedule_period_s!r}")
        # every range difference the TDoA stage forms must be finite; the
        # (e, n) one is the negation of the (n, e) one
        for i, (n, toa_n) in enumerate(ordered):
            for e, toa_e in ordered[:i]:
                try:
                    offset = self.transmission_offset(n, e)
                except OverflowError:
                    offset = math.inf
                if not math.isfinite(SPEED_OF_LIGHT_M_S * ((toa_n - toa_e) - offset)):
                    raise ConfigError(
                        f"stations {n} and {e}: range difference "
                        f"c*((toa_n - toa_e) - delta_ne) is not finite for ToAs "
                        f"{toa_n!r} s and {toa_e!r} s, schedule_period_s "
                        f"{self.schedule_period_s!r}"
                    )

    @property
    def station_ids(self) -> tuple[int, ...]:
        return tuple(sid for sid, _ in self.samples)

    def transmission_offset(self, n: int, e: int) -> float:
        """Transmit-time offset delta_ne = (n - e) * schedule period, seconds."""
        return (n - e) * self.schedule_period_s


def toa_noise_std(band: BandProfile) -> float:
    """Ranging noise standard deviation, in meters.

    sigma^2 = c^2 / ((2 pi B)^2 * t_s * B * SNR): the variance shrinks with
    the cube of the bandwidth and linearly with integration time and SNR.
    """
    b = band.bandwidth_hz
    variance = SPEED_OF_LIGHT_M_S**2 / (
        (2.0 * math.pi * b) ** 2 * band.signal_time_period_s * b * band.snr_linear
    )
    return math.sqrt(variance)


def emulate_measurement_set(
    ue: Position2D,
    stations: Sequence[BaseStation],
    links: Sequence[LinkState],
    band: BandProfile,
    rng_seed: int | np.random.Generator,
    *,
    schedule_period_s: float = 0.0,
    noise_std_m: float | None = None,
    height_difference_m: float = 0.0,
    epoch_id: int = 0,
) -> MeasurementSet:
    """Measurement generation for one epoch.

    Per station: arrival = stagger + (range + nlos_bias + noise) / c, where
    range is sqrt(d_2d^2 + height_difference_m^2), the 2D distance when the
    station-to-UE height difference is 0, and the noise draw is Gaussian
    with std ``toa_noise_std(band)`` (in meters; override with
    ``noise_std_m``, 0 disables). Deterministic given the seed: one draw of N noise values,
    the same stream as N scalar draws, is assigned in ascending id order so
    equal seeds give identical draws.
    """
    import numpy as np

    sts = sorted_stations(stations)
    link_by_id = {ln.station_id: ln for ln in links}
    if len(link_by_id) != len(links) or set(link_by_id) != {s.id for s in sts}:
        raise ConfigError(
            f"link states {sorted(link_by_id)} do not match stations "
            f"{sorted(s.id for s in sts)}"
        )
    sigma_m = toa_noise_std(band) if noise_std_m is None else noise_std_m
    if sigma_m < 0:
        raise ConfigError(f"noise_std_m must be >= 0, got {sigma_m}")

    gen = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    noise = gen.normal(0.0, sigma_m, len(sts)).tolist()
    min_id = sts[0].id
    samples = []
    for st, noise_m in zip(sts, noise):
        dist = euclidean_distance(ue, st.position)
        if height_difference_m != 0.0:
            dist = math.hypot(dist, height_difference_m)
        range_m = dist + link_by_id[st.id].nlos_bias_m + noise_m
        toa = (st.id - min_id) * schedule_period_s + range_m / SPEED_OF_LIGHT_M_S
        samples.append((st.id, toa))
    return MeasurementSet(
        epoch_id=epoch_id,
        samples=tuple(samples),
        schedule_period_s=schedule_period_s,
    )

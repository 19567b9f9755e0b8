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

Every ToA comes from one formula, :func:`arrival_samples`. The harness
feeds it per-config constants (``ScenarioConfig.emulation``): the stations'
ranges to each PoI and their staggers are computed once per config, not
once per trial.
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


# |ToA| and largest transmit stagger, in seconds, under which no range
# difference c*((toa_n - toa_e) - delta_ne) can overflow: c * 3e299 < 1.8e308
COMMON_EPOCH_BOUND_S = 1e299


def _is_common_epoch(samples: object, schedule_period_s: object) -> bool:
    """True for an epoch that passes the full check of
    :class:`MeasurementSet` unchanged, tested in O(N): a tuple of
    ``(int, float)`` tuples with strictly ascending ids that are not bools,
    ToAs within ``COMMON_EPOCH_BOUND_S``, and a float period whose largest
    stagger is within it too. Anything else takes the full check."""
    period = schedule_period_s
    if not (
        period.__class__ is float
        and 0.0 <= period < COMMON_EPOCH_BOUND_S
        and samples.__class__ is tuple
        and samples
    ):
        return False
    bound = COMMON_EPOCH_BOUND_S
    previous = None
    try:
        for sample in samples:
            sid, toa = sample
            if not (
                sample.__class__ is tuple
                and sid.__class__ is int
                and toa.__class__ is float
                and -bound < toa < bound
                and (previous is None or sid > previous)
            ):
                return False
            previous = sid
        return (previous - samples[0][0]) * period < bound
    except (TypeError, ValueError, OverflowError):
        return False


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
        if not _is_common_epoch(self.samples, self.schedule_period_s):
            self._check()

    def _check(self) -> None:
        """The full rule: every sample read and sorted by id, and every
        pair's range difference tested."""
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


def ranging_noise_m(band: BandProfile, noise_std_m: float | None = None) -> float:
    """The ranging noise std in meters: ``toa_noise_std(band)``, or
    ``noise_std_m`` when it is given (0 disables the noise)."""
    sigma_m = toa_noise_std(band) if noise_std_m is None else noise_std_m
    if sigma_m < 0:
        raise ConfigError(f"noise_std_m must be >= 0, got {sigma_m}")
    return sigma_m


def transmit_staggers(ids: Sequence[int], schedule_period_s: float) -> tuple[float, ...]:
    """Each station's transmit stagger ``(id - min_id) * schedule_period_s``,
    for ``ids`` in ascending order."""
    return tuple([(sid - ids[0]) * schedule_period_s for sid in ids])


def station_ranges(
    ue: Position2D, coords: Sequence[tuple[float, float]], height_difference_m: float = 0.0
) -> tuple[float, ...]:
    """The range from ``ue`` to each station at ``coords`` (x, y): the 2D
    distance, or sqrt(d_2d^2 + height_difference_m^2) when the height
    difference is not 0."""
    ranges = [math.hypot(ue.x - x, ue.y - y) for x, y in coords]
    if height_difference_m != 0.0:
        ranges = [math.hypot(dist, height_difference_m) for dist in ranges]
    return tuple(ranges)


def arrival_samples(
    ids: Sequence[int],
    staggers: Sequence[float],
    ranges: Sequence[float],
    biases: Sequence[float],
    noise: Sequence[float],
) -> tuple[tuple[int, float], ...]:
    """One ``(station id, ToA)`` sample per station, in the order given:
    ToA = stagger + (range + nlos_bias + noise) / c."""
    c = SPEED_OF_LIGHT_M_S
    return tuple([
        (sid, stagger + (range_m + bias + noise_m) / c)
        for sid, stagger, range_m, bias, noise_m in zip(ids, staggers, ranges, biases, noise)
    ])


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
    sigma_m = ranging_noise_m(band, noise_std_m)

    gen = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    noise = gen.normal(0.0, sigma_m, len(sts)).tolist()
    ids = [s.id for s in sts]
    samples = arrival_samples(
        ids,
        transmit_staggers(ids, schedule_period_s),
        station_ranges(ue, [(s.position.x, s.position.y) for s in sts], height_difference_m),
        [link_by_id[sid].nlos_bias_m for sid in ids],
        noise,
    )
    return MeasurementSet(
        epoch_id=epoch_id,
        samples=samples,
        schedule_period_s=schedule_period_s,
    )

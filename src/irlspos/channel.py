"""The ranging noise model and the measurement set of one epoch.

``toa_noise_std`` gives the Gaussian ranging noise std that a band's
bandwidth, integration time and SNR allow. ``MeasurementSet`` holds one
epoch's first-arrival times, one per station. The emulator that makes them
for a trial, standing in for a ray tracer, is
:func:`irlspos.harness.emulate_trial_measurements`.

Measurement timestamps include the per-station transmit stagger of the
sequential schedule (station with id ``n`` transmits ``(n - min_id) * delta``
after the first one); the TDoA stage removes the stagger exactly, since the
station clocks are assumed synchronized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .geometry import SPEED_OF_LIGHT_M_S, as_number, is_int, read_fields


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
    offsets ``(n - e) * schedule_period_s`` are what the TDoA stage
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
                    offset = (n - e) * self.schedule_period_s
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

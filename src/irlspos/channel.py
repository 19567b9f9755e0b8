"""Parametric multipath ToA emulator.

Two emulation modes are provided:

* Statistical mode (``emulate_measurement_set``): each link's first-arrival
  time is the geometric propagation delay plus an optional NLoS excess range
  and bandwidth-dependent Gaussian noise. This is what the benchmark harness
  uses.

* Waveform mode (``synthesize_received_waveform`` +
  ``estimate_toa_from_waveform``): the received signal is synthesized as a
  sum of raised-cosine pulses, one per multipath component, plus white
  Gaussian noise; the ToA is read off the matched-filter peak. Used by
  validation tests to tie the sampled-signal pipeline to the statistical
  noise model.

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
    true_first_toa,
)

if TYPE_CHECKING:
    import numpy as np

# pulse tails retained on each side of a multipath arrival, in symbol periods
PULSE_SUPPORT_SYMBOLS = 8.0

MIN_SAMPLE_RATE_FACTOR = 4.0


@dataclass(frozen=True)
class BandProfile:
    """Radio parameters of one 5G operating band.

    ``carrier_frequency_hz``, ``subcarrier_spacing_hz`` and
    ``transmit_power_dbm`` (carried by the scenario config) are accepted for
    scenario fidelity but play no role in the computation: the ranging noise
    is fully determined by bandwidth, integration time and SNR.
    """

    carrier_frequency_hz: float
    bandwidth_hz: float
    subcarrier_spacing_hz: float
    signal_time_period_s: float
    snr_linear: float
    symbol_period_s: float
    rolloff: float

    def __post_init__(self) -> None:
        # field by field, so a bad bandwidth is reported before the symbol
        # period that with_defaults could not derive from it
        for f in fields(self):
            value = as_number(getattr(self, f.name), f.name)
            if not (0.0 <= value <= 1.0 if f.name == "rolloff" else value > 0):
                raise ConfigError(f"invalid band parameter {f.name}={value!r}")
            object.__setattr__(self, f.name, value)

    @classmethod
    def with_defaults(
        cls,
        carrier_frequency_hz: float,
        bandwidth_hz: float,
        subcarrier_spacing_hz: float,
        *,
        snr_linear: float = 100.0,
        signal_time_period_s: float = 1e-5,
        rolloff: float = 0.25,
        symbol_period_s: float | None = None,
    ) -> "BandProfile":
        """Build a profile, deriving the symbol period so the pulse spectrum
        occupies exactly the configured bandwidth: T = (1 + rolloff) / B."""
        if symbol_period_s is None:
            bandwidth = as_number(bandwidth_hz, "bandwidth_hz")
            if bandwidth > 0:
                symbol_period_s = (1.0 + as_number(rolloff, "rolloff")) / bandwidth
        return cls(
            carrier_frequency_hz=carrier_frequency_hz,
            bandwidth_hz=bandwidth_hz,
            subcarrier_spacing_hz=subcarrier_spacing_hz,
            signal_time_period_s=signal_time_period_s,
            snr_linear=snr_linear,
            symbol_period_s=symbol_period_s,
            rolloff=rolloff,
        )


@dataclass(frozen=True)
class MultipathComponent:
    """One propagation path: amplitude and absolute arrival time."""

    amplitude: float
    toa_s: float

    def __post_init__(self) -> None:
        read_fields(self, as_number, "amplitude", "toa_s")
        if self.toa_s < 0:
            raise ConfigError(f"toa_s must be >= 0, got {self.toa_s!r}")


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


def raised_cosine_pulse(t, band: BandProfile):
    """Raised-cosine pulse amplitude at time offset ``t`` (scalar or array).

    h(t) = (1/T) sinc(t/T) cos(pi beta t/T) / (1 - (2 beta t/T)^2), with the
    removable singularity at t = +/- T/(2 beta) filled by its closed-form
    limit (pi/(4T)) sinc(1/(2 beta)) rather than by epsilon-nudging.
    """
    import numpy as np

    T = band.symbol_period_s
    beta = band.rolloff
    x = np.asarray(t, dtype=float) / T
    if beta == 0.0:
        out = np.sinc(x) / T
    else:
        arg = 2.0 * beta * x
        singular = np.abs(np.abs(arg) - 1.0) < 1e-10
        denom = 1.0 - arg * arg
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.sinc(x) * np.cos(np.pi * beta * x) / denom / T
        limit = (np.pi / (4.0 * T)) * np.sinc(1.0 / (2.0 * beta))
        out = np.where(singular, limit, out)
    if np.isscalar(t):
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class SampledWaveform:
    """A uniformly sampled real waveform."""

    times_s: np.ndarray
    samples: np.ndarray
    sample_rate_hz: float


def synthesize_received_waveform(
    mpcs: Sequence[MultipathComponent],
    band: BandProfile,
    sample_rate_hz: float,
    noise_std: float,
    rng: int | np.random.Generator | None = None,
    span_s: tuple[float, float] | None = None,
) -> SampledWaveform:
    """Superpose one raised-cosine pulse per multipath component plus AWGN.

    The sample grid spans the earliest arrival minus a pulse tail to the
    latest arrival plus a pulse tail, unless ``span_s`` pins it explicitly
    (useful to keep the grid identical across draws). ``noise_std`` is the
    per-sample standard deviation of the additive receiver noise, in the
    same (dimensionless) amplitude units as the pulse.
    """
    import numpy as np

    if not mpcs:
        raise ValueError("invalid link: no multipath components")
    if sample_rate_hz < MIN_SAMPLE_RATE_FACTOR * band.bandwidth_hz:
        raise ConfigError(
            f"sample_rate_hz={sample_rate_hz:g} is below "
            f"{MIN_SAMPLE_RATE_FACTOR:g}x the band's bandwidth"
        )
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")

    if span_s is not None:
        start, stop = span_s
        if not stop > start:
            raise ValueError(f"empty waveform span {span_s}")
    else:
        margin = PULSE_SUPPORT_SYMBOLS * band.symbol_period_s
        start = min(m.toa_s for m in mpcs) - margin
        stop = max(m.toa_s for m in mpcs) + margin
    n = int(math.ceil((stop - start) * sample_rate_hz)) + 1
    times = start + np.arange(n) / sample_rate_hz

    samples = np.zeros(n)
    for m in mpcs:
        samples += m.amplitude * raised_cosine_pulse(times - m.toa_s, band)
    if noise_std > 0:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        samples = samples + gen.normal(0.0, noise_std, n)
    return SampledWaveform(times_s=times, samples=samples, sample_rate_hz=sample_rate_hz)


def _pulse_template(band: BandProfile, sample_rate_hz: float) -> np.ndarray:
    """Odd-length pulse template centered at t = 0, for matched filtering."""
    import numpy as np

    half = int(round(PULSE_SUPPORT_SYMBOLS * band.symbol_period_s * sample_rate_hz))
    offsets = np.arange(-half, half + 1) / sample_rate_hz
    return raised_cosine_pulse(offsets, band)


def estimate_toa_from_waveform(waveform: SampledWaveform, band: BandProfile) -> float:
    """ToA estimate: grid time of the peak absolute matched-filter output.

    Exact ties break to the earliest grid time, matching first-arrival
    semantics.
    """
    import numpy as np

    # importing scipy.signal costs more than a second and ~75 MB, and only
    # the waveform emulator needs it
    from scipy import signal

    x = waveform.samples
    if x.size == 0:
        raise ValueError("degenerate waveform: empty")
    if not np.any(x):
        raise ValueError("degenerate waveform: all samples are zero")
    template = _pulse_template(band, waveform.sample_rate_hz)
    matched = signal.correlate(x, template, mode="same")
    return float(waveform.times_s[int(np.argmax(np.abs(matched)))])


def waveform_noise_std(
    band: BandProfile, sample_rate_hz: float, amplitude: float = 1.0
) -> float:
    """Per-sample noise std that puts the waveform pipeline in the band's
    SNR regime.

    Chosen so the matched-filter ToA bound for a single pulse of the given
    amplitude equals the band's statistical ranging noise: the delay variance
    of a peak estimate in white noise is sigma_n^2 dt / (E * beta_g^2), with
    pulse energy E and mean-square (Gabor) bandwidth beta_g^2 computed
    numerically from the sampled template.
    """
    import numpy as np

    template = _pulse_template(band, sample_rate_hz)
    dt = 1.0 / sample_rate_hz
    energy = float(np.sum(template**2) * dt) * amplitude**2
    spectrum = np.abs(np.fft.rfft(template)) ** 2
    freqs = np.fft.rfftfreq(template.size, d=dt)
    gabor_sq = (2.0 * math.pi) ** 2 * float(
        np.sum(freqs**2 * spectrum) / np.sum(spectrum)
    )
    sigma_t = toa_noise_std(band) / SPEED_OF_LIGHT_M_S
    return sigma_t * math.sqrt(energy * gabor_sq / dt)


def make_multipath_components(
    ue: Position2D, station: BaseStation, excess_delays_s: Sequence[float] = ()
) -> list[MultipathComponent]:
    """LoS component plus optional delayed echoes for one link.

    Echo amplitudes follow free-space 1/d decay relative to the direct path:
    A_j = d_1 / d_j with d_j = c * toa_j. Excess delays must be >= 0 so no
    path arrives before the direct one.
    """
    toa_los = true_first_toa(ue, station)
    mpcs = [MultipathComponent(amplitude=1.0, toa_s=toa_los)]
    d_los = toa_los * SPEED_OF_LIGHT_M_S
    for excess in excess_delays_s:
        if excess < 0:
            raise ValueError(f"excess delay must be >= 0, got {excess}")
        toa = toa_los + excess
        amp = 1.0 if d_los == 0.0 else d_los / (toa * SPEED_OF_LIGHT_M_S)
        mpcs.append(MultipathComponent(amplitude=amp, toa_s=toa))
    return mpcs


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
    """Statistical-mode measurement generation for one epoch.

    Per station: arrival = stagger + (range + nlos_bias + noise) / c, where
    range is the 2D distance, or sqrt(d_2d^2 + height_difference_m^2) when a
    projected-3D offset is enabled, and the noise draw is Gaussian with
    std ``toa_noise_std(band)`` (in meters; override with ``noise_std_m``,
    0 disables). Deterministic given the seed: one draw of N noise values,
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

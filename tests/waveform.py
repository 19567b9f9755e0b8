"""Sampled-waveform ToA pipeline: the check on the statistical noise model.

The received signal of one link is a sum of raised-cosine pulses, one per
multipath component, plus white Gaussian noise; the ToA is read off the
matched-filter peak. Acceptance criterion 7 runs it in the band's SNR
regime (``waveform_noise_std``) and compares the spread of its ToA errors
with ``toa_noise_std``, which is what the emulator draws from.

The pulse shape is a parameter here, not a band field: ``rolloff`` (beta)
sets the symbol period T = (1 + beta) / B, so the pulse spectrum occupies
exactly the band's bandwidth B.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import signal

from irlspos import (
    SPEED_OF_LIGHT_M_S,
    BandProfile,
    BaseStation,
    ConfigError,
    Position2D,
    toa_noise_std,
)
from irlspos.geometry import as_number, read_fields
from conftest import true_first_toa

ROLLOFF = 0.25

# pulse tails retained on each side of a multipath arrival, in symbol periods
PULSE_SUPPORT_SYMBOLS = 8.0

MIN_SAMPLE_RATE_FACTOR = 4.0


def symbol_period_s(band: BandProfile, rolloff: float = ROLLOFF) -> float:
    """T = (1 + rolloff) / B: the pulse spectrum fills the band."""
    return (1.0 + rolloff) / band.bandwidth_hz


@dataclass(frozen=True)
class MultipathComponent:
    """One propagation path: amplitude and absolute arrival time."""

    amplitude: float
    toa_s: float

    def __post_init__(self) -> None:
        read_fields(self, as_number, "amplitude", "toa_s")
        if self.toa_s < 0:
            raise ConfigError(f"toa_s must be >= 0, got {self.toa_s!r}")


def raised_cosine_pulse(t, band: BandProfile, rolloff: float = ROLLOFF):
    """Raised-cosine pulse amplitude at time offset ``t`` (scalar or array).

    h(t) = (1/T) sinc(t/T) cos(pi beta t/T) / (1 - (2 beta t/T)^2), with the
    removable singularity at t = +/- T/(2 beta) filled by its closed-form
    limit (pi/(4T)) sinc(1/(2 beta)) rather than by epsilon-nudging.
    """
    T = symbol_period_s(band, rolloff)
    beta = rolloff
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
    rolloff: float = ROLLOFF,
) -> SampledWaveform:
    """Superpose one raised-cosine pulse per multipath component plus AWGN.

    The sample grid spans the earliest arrival minus a pulse tail to the
    latest arrival plus a pulse tail, unless ``span_s`` pins it explicitly
    (useful to keep the grid identical across draws). ``noise_std`` is the
    per-sample standard deviation of the additive receiver noise, in the
    same (dimensionless) amplitude units as the pulse.
    """
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
        margin = PULSE_SUPPORT_SYMBOLS * symbol_period_s(band, rolloff)
        start = min(m.toa_s for m in mpcs) - margin
        stop = max(m.toa_s for m in mpcs) + margin
    n = int(math.ceil((stop - start) * sample_rate_hz)) + 1
    times = start + np.arange(n) / sample_rate_hz

    samples = np.zeros(n)
    for m in mpcs:
        samples += m.amplitude * raised_cosine_pulse(times - m.toa_s, band, rolloff)
    if noise_std > 0:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        samples = samples + gen.normal(0.0, noise_std, n)
    return SampledWaveform(times_s=times, samples=samples, sample_rate_hz=sample_rate_hz)


def _pulse_template(band: BandProfile, sample_rate_hz: float, rolloff: float) -> np.ndarray:
    """Odd-length pulse template centered at t = 0, for matched filtering."""
    half = int(round(PULSE_SUPPORT_SYMBOLS * symbol_period_s(band, rolloff) * sample_rate_hz))
    offsets = np.arange(-half, half + 1) / sample_rate_hz
    return raised_cosine_pulse(offsets, band, rolloff)


def estimate_toa_from_waveform(
    waveform: SampledWaveform, band: BandProfile, rolloff: float = ROLLOFF
) -> float:
    """ToA estimate: time of the peak absolute matched-filter output, to a
    fraction of a sample.

    The peak sample is the largest absolute output; exact ties break to the
    earliest grid time, matching first-arrival semantics. The vertex of the
    parabola through the peak sample and its two neighbours then moves the
    estimate by at most half a sample; a peak on the grid's edge, or with no
    downward curvature, stays on its grid time.
    """
    x = waveform.samples
    if x.size == 0:
        raise ValueError("degenerate waveform: empty")
    if not np.any(x):
        raise ValueError("degenerate waveform: all samples are zero")
    template = _pulse_template(band, waveform.sample_rate_hz, rolloff)
    matched = np.abs(signal.correlate(x, template, mode="same"))
    k = int(np.argmax(matched))
    peak_time = float(waveform.times_s[k])
    if 0 < k < matched.size - 1:
        before, peak, after = (float(v) for v in matched[k - 1 : k + 2])
        curvature = before - 2.0 * peak + after
        if curvature < 0.0:
            peak_time += 0.5 * (before - after) / curvature / waveform.sample_rate_hz
    return peak_time


def waveform_noise_std(
    band: BandProfile, sample_rate_hz: float, amplitude: float = 1.0, rolloff: float = ROLLOFF
) -> float:
    """Per-sample noise std that puts the waveform pipeline in the band's
    SNR regime.

    Chosen so the matched-filter ToA bound for a single pulse of the given
    amplitude equals the band's statistical ranging noise: the delay variance
    of a peak estimate in white noise is sigma_n^2 dt / (E * beta_g^2), with
    pulse energy E and mean-square (Gabor) bandwidth beta_g^2 computed
    numerically from the sampled template.
    """
    template = _pulse_template(band, sample_rate_hz, rolloff)
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

"""Band noise model, raised-cosine pulse, waveform mode, and the emulator."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import irlspos
from irlspos import (
    SPEED_OF_LIGHT_M_S,
    BandProfile,
    BaseStation,
    ConfigError,
    LinkState,
    MeasurementSet,
    MultipathComponent,
    Position2D,
    emulate_measurement_set,
    estimate_toa_from_waveform,
    make_multipath_components,
    raised_cosine_pulse,
    synthesize_received_waveform,
    toa_noise_std,
    true_first_toa,
    waveform_noise_std,
)
from conftest import exact_measurements, fingerprint, transmission_offsets


def make_band(**overrides):
    params = dict(
        carrier_frequency_hz=3.775e9,
        bandwidth_hz=1e8,
        subcarrier_spacing_hz=30e3,
        signal_time_period_s=1e-5,
        snr_linear=10.0,
        symbol_period_s=1.25e-8,
        rolloff=0.25,
    )
    params.update(overrides)
    return BandProfile(**params)


# --- band profile validation -------------------------------------------------

@pytest.mark.parametrize(
    "field,value",
    [
        ("bandwidth_hz", 0.0),
        ("bandwidth_hz", -1e8),
        ("signal_time_period_s", 0.0),
        ("snr_linear", 0.0),
        ("symbol_period_s", -1e-9),
        ("rolloff", -0.1),
        ("rolloff", 1.1),
        ("carrier_frequency_hz", 0.0),
        ("subcarrier_spacing_hz", 0.0),
    ],
)
def test_band_invariants(field, value):
    with pytest.raises(ConfigError, match=field):
        make_band(**{field: value})


@pytest.mark.parametrize("bad_id", [1.5, True, "1"])
def test_measurement_set_rejects_non_integer_station_ids(bad_id):
    # 1.5 used to be stored as station 1
    with pytest.raises(ConfigError, match="station id must be an integer"):
        MeasurementSet(0, ((bad_id, 1e-8), (2, 2e-8), (3, 3e-8)))


# --- noise model --------------------------------------------------------------

def test_noise_std_direct_value():
    band = make_band()  # B=100 MHz, t_s=10 us, SNR=10
    b, ts, snr = 1e8, 1e-5, 10.0
    expected = math.sqrt(
        SPEED_OF_LIGHT_M_S**2 / ((2 * math.pi * b) ** 2 * ts * b * snr)
    )
    sigma = toa_noise_std(band)
    assert sigma == pytest.approx(expected, rel=1e-14)
    assert sigma == pytest.approx(4.771345159236943e-3, rel=1e-12)
    # c = 3e8 shorthand puts it near 4.775e-3
    assert sigma == pytest.approx(4.775e-3, rel=1e-3)


def test_noise_std_bandwidth_power_law():
    sigma1 = toa_noise_std(make_band(bandwidth_hz=1e8))
    sigma4 = toa_noise_std(make_band(bandwidth_hz=4e8))
    assert sigma1 / sigma4 == pytest.approx(8.0, rel=1e-12)


def test_noise_std_snr_power_law():
    sigma = toa_noise_std(make_band(snr_linear=10.0))
    sigma4 = toa_noise_std(make_band(snr_linear=40.0))
    assert sigma / sigma4 == pytest.approx(2.0, rel=1e-12)


def test_noise_std_strictly_decreasing_in_each_parameter():
    base = make_band()
    for field in ("bandwidth_hz", "signal_time_period_s", "snr_linear"):
        values = [getattr(base, field) * f for f in (1.0, 1.5, 2.5, 10.0)]
        sigmas = [toa_noise_std(make_band(**{field: v})) for v in values]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:])), field


# --- raised-cosine pulse --------------------------------------------------------

def test_pulse_peak_is_inverse_symbol_period():
    band = make_band()
    assert raised_cosine_pulse(0.0, band) == pytest.approx(1.0 / band.symbol_period_s)


def test_pulse_zero_at_symbol_period_when_rectangular():
    band = make_band(rolloff=0.0)
    # zero up to the floating-point angle error of sin(pi)
    assert abs(raised_cosine_pulse(band.symbol_period_s, band)) < 1e-8 / band.symbol_period_s * 1e-8


@pytest.mark.parametrize("rolloff", [0.5, 0.3, 0.25])
def test_pulse_singularity_matches_neighborhood(rolloff):
    band = make_band(rolloff=rolloff)
    T = band.symbol_period_s
    t0 = T / (2 * rolloff)
    limit = (math.pi / (4 * T)) * np.sinc(1 / (2 * rolloff))
    value = raised_cosine_pulse(t0, band)
    assert value == pytest.approx(limit, abs=1e-12 / T)
    # cross-check against direct evaluation one part-per-billion of T away
    for t in (t0 + 1e-9 * T, t0 - 1e-9 * T):
        assert raised_cosine_pulse(t, band) == pytest.approx(value, abs=1e-7 / T)


@pytest.mark.parametrize("rolloff", [0.0, 0.22, 0.37, 1.0])
def test_pulse_is_even(rolloff):
    band = make_band(rolloff=rolloff)
    rng = np.random.default_rng(4)
    t = rng.uniform(0, 6 * band.symbol_period_s, 300)
    np.testing.assert_allclose(
        raised_cosine_pulse(t, band), raised_cosine_pulse(-t, band), rtol=1e-13
    )


def test_pulse_scalar_matches_array():
    band = make_band()
    ts = [0.0, 1e-9, band.symbol_period_s / (2 * band.rolloff)]
    arr = raised_cosine_pulse(np.array(ts), band)
    for t, expected in zip(ts, arr):
        assert raised_cosine_pulse(t, band) == pytest.approx(float(expected), rel=1e-14)


# --- waveform synthesis and the matched filter ----------------------------------

def test_single_mpc_waveform_is_the_pulse():
    band = make_band()
    tau = 1e-7
    wf = synthesize_received_waveform(
        [MultipathComponent(1.0, tau)], band, 8 * band.bandwidth_hz, 0.0
    )
    np.testing.assert_allclose(
        wf.samples, raised_cosine_pulse(wf.times_s - tau, band), atol=1e-12
    )


def test_two_separated_mpcs_give_two_equal_peaks():
    band = make_band()
    T = band.symbol_period_s
    tau1, tau2 = 1e-7, 1e-7 + 40 * T
    wf = synthesize_received_waveform(
        [MultipathComponent(1.0, tau1), MultipathComponent(1.0, tau2)],
        band,
        8 * band.bandwidth_hz,
        0.0,
    )
    # the two local maxima sit at the arrival times with the same height
    near1 = np.abs(wf.times_s - tau1) < T / 2
    near2 = np.abs(wf.times_s - tau2) < T / 2
    assert wf.samples[near1].max() == pytest.approx(wf.samples[near2].max(), rel=1e-9)
    assert wf.samples[near1].max() == pytest.approx(1.0 / T, rel=1e-6)


def test_noiseless_peak_within_one_sample_of_toa():
    band = make_band()
    fs = 8 * band.bandwidth_hz
    rng = np.random.default_rng(5)
    for _ in range(20):
        tau = rng.uniform(5e-8, 3e-7)
        wf = synthesize_received_waveform(
            [MultipathComponent(1.0, tau)], band, fs, 0.0,
            span_s=(0.0, tau + 10 * band.symbol_period_s),
        )
        peak_time = wf.times_s[np.argmax(wf.samples)]
        assert abs(peak_time - tau) <= 1.0 / fs


def test_synthesis_rejects_empty_mpcs():
    band = make_band()
    with pytest.raises(ValueError, match="no multipath"):
        synthesize_received_waveform([], band, 8e8, 0.0)


def test_synthesis_rejects_undersampling():
    band = make_band()
    with pytest.raises(ConfigError, match="sample_rate"):
        synthesize_received_waveform([MultipathComponent(1.0, 0.0)], band, 2e8, 0.0)


def test_matched_filter_recovers_single_toa():
    band = make_band()
    fs = 8 * band.bandwidth_hz
    tau = 1.37e-7
    wf = synthesize_received_waveform([MultipathComponent(1.0, tau)], band, fs, 0.0)
    assert estimate_toa_from_waveform(wf, band) == pytest.approx(tau, abs=0.5 / fs)


def test_matched_filter_tie_breaks_to_earliest():
    band = make_band()
    fs = 8 * band.bandwidth_hz
    T = band.symbol_period_s
    tau1 = 1e-7
    tau2 = tau1 + 10 * T
    wf = synthesize_received_waveform(
        [MultipathComponent(1.0, tau1), MultipathComponent(1.0, tau2)], band, fs, 0.0
    )
    est = estimate_toa_from_waveform(wf, band)
    assert est == pytest.approx(tau1, abs=0.5 / fs)


def test_matched_filter_rejects_all_zero():
    band = make_band()
    wf = synthesize_received_waveform([MultipathComponent(0.0, 1e-7)], band, 8e8, 0.0)
    with pytest.raises(ValueError, match="zero"):
        estimate_toa_from_waveform(wf, band)


def test_waveform_noise_regime_matches_statistical_model():
    # reduced-size version of the acceptance tie between the two modes
    band = make_band(snr_linear=100.0)
    fs = 512 * band.bandwidth_hz
    dt = 1.0 / fs
    sigma_t = toa_noise_std(band) / SPEED_OF_LIGHT_M_S
    noise = waveform_noise_std(band, fs)
    span = (1e-7 - 8 * band.symbol_period_s, 1e-7 + dt + 8 * band.symbol_period_s)
    rng = np.random.default_rng(6)
    errors = []
    for _ in range(150):
        tau = 1e-7 + rng.uniform(0, dt)
        wf = synthesize_received_waveform(
            [MultipathComponent(1.0, tau)], band, fs, noise, rng=rng, span_s=span
        )
        errors.append(estimate_toa_from_waveform(wf, band) - tau)
    measured = float(np.std(errors, ddof=1))
    assert sigma_t / 3 <= measured <= 3 * sigma_t


# --- multipath helpers -----------------------------------------------------------

def test_multipath_amplitudes_decay_with_path_length():
    ue = Position2D(0, 0)
    bs = BaseStation(1, Position2D(30, 40))  # 50 m direct path
    mpcs = make_multipath_components(ue, bs, excess_delays_s=[50.0 / SPEED_OF_LIGHT_M_S])
    assert mpcs[0].amplitude == 1.0
    assert mpcs[1].amplitude == pytest.approx(0.5)  # 100 m echo, 1/d decay
    assert mpcs[1].toa_s > mpcs[0].toa_s


def test_multipath_rejects_negative_excess():
    with pytest.raises(ValueError, match="excess"):
        make_multipath_components(
            Position2D(0, 0), BaseStation(1, Position2D(3, 4)), [-1e-9]
        )


# --- statistical-mode emulator ----------------------------------------------------

def test_emulator_zero_noise_all_los_reproduces_truth(stations, band):
    ue = Position2D(7.0, 11.0)
    m = exact_measurements(ue, stations, band)
    for st in stations:
        assert m.toa(st.id) == pytest.approx(true_first_toa(ue, st), abs=1e-22)


def test_emulator_schedule_stagger_is_exact(stations, band):
    ue = Position2D(7.0, 11.0)
    delta = 0.010
    m = exact_measurements(ue, stations, band, schedule_period_s=delta)
    for st in stations:
        stagger = (st.id - 1) * delta
        assert m.toa(st.id) - stagger == pytest.approx(true_first_toa(ue, st), abs=1e-17)
    assert transmission_offsets(m)[(3, 1)] == pytest.approx(2 * delta)
    assert transmission_offsets(m)[(1, 3)] == pytest.approx(-2 * delta)


def test_emulator_bias_adds_exact_range(stations, band):
    ue = Position2D(4.0, 6.0)
    clean = exact_measurements(ue, stations, band)
    biased = exact_measurements(ue, stations, band, biases={2: 10.0})
    assert biased.toa(2) - clean.toa(2) == pytest.approx(10.0 / SPEED_OF_LIGHT_M_S, rel=1e-12)
    assert biased.toa(1) == clean.toa(1)


def test_emulator_is_deterministic(stations, band):
    ue = Position2D(12.0, 9.0)
    links = [LinkState(s.id, True, 0.0) for s in stations]
    m1 = emulate_measurement_set(ue, stations, links, band, rng_seed=123)
    m2 = emulate_measurement_set(ue, stations, links, band, rng_seed=123)
    assert m1 == m2
    assert fingerprint(m1) == fingerprint(m2)
    m3 = emulate_measurement_set(ue, stations, links, band, rng_seed=124)
    assert m1 != m3


def test_emulator_rejects_link_mismatch(stations, band):
    links = [LinkState(s.id, True, 0.0) for s in stations[:-1]]
    with pytest.raises(ConfigError, match="link states"):
        emulate_measurement_set(Position2D(1, 1), stations, links, band, 0)


def test_emulator_noise_is_unbiased(stations, band):
    # mean of (measured - true) over 10^4 draws within 4 sigma / sqrt(n) of zero
    ue = Position2D(10.0, 10.0)
    st = stations[0]
    links = [LinkState(s.id, True, 0.0) for s in stations]
    sigma = toa_noise_std(band)
    n = 10_000
    rng = np.random.default_rng(7)
    draws = np.empty(n)
    truth = true_first_toa(ue, st)
    for i in range(n):
        m = emulate_measurement_set(ue, stations, links, band, rng_seed=rng)
        draws[i] = m.toa(st.id) - truth
    mean_m = draws.mean() * SPEED_OF_LIGHT_M_S
    assert abs(mean_m) < 4 * sigma / math.sqrt(n)


def test_emulator_projected_3d_offset(stations, band):
    ue = Position2D(10.0, 10.0)
    links = [LinkState(s.id, True, 0.0) for s in stations]
    m = emulate_measurement_set(
        ue, stations, links, band, 0, noise_std_m=0.0, height_difference_m=3.0
    )
    d2d = math.hypot(10.0, 10.0)
    expected = math.hypot(d2d, 3.0) / SPEED_OF_LIGHT_M_S
    assert m.toa(1) == pytest.approx(expected, rel=1e-15)


def test_link_state_invariant():
    with pytest.raises(ConfigError, match="nlos_bias"):
        LinkState(1, is_los=True, nlos_bias_m=2.0)
    with pytest.raises(ConfigError, match="nlos_bias"):
        LinkState(1, is_los=False, nlos_bias_m=0.0)


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal takes over a second and ~75 MB to import; only the
    # waveform matched filter needs it
    src = str(Path(irlspos.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, irlspos; print('scipy.signal' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "False"

"""Band noise model, the emulator, and the sampled-waveform pipeline of
``waveform.py`` (raised-cosine pulse, synthesis, matched filter)."""

import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irlspos
from irlspos import (
    SPEED_OF_LIGHT_M_S,
    BandProfile,
    BaseStation,
    ConfigError,
    IrlsSettings,
    MeasurementSet,
    Position2D,
    ScenarioConfig,
    SolverSettings,
    euclidean_distance,
    irls_position,
    toa_noise_std,
)
from irlspos import harness
from irlspos.config import BiasModel
from irlspos.presets import PRESET_NAMES, get_preset
from conftest import fingerprint, toa, transmission_offsets, true_first_toa
from waveform import (
    ROLLOFF,
    MultipathComponent,
    estimate_toa_from_waveform,
    make_multipath_components,
    raised_cosine_pulse,
    symbol_period_s,
    synthesize_received_waveform,
    waveform_noise_std,
)


def make_band(**overrides):
    params = dict(bandwidth_hz=1e8, signal_time_period_s=1e-5, snr_linear=10.0)
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
    ],
)
def test_band_invariants(field, value):
    with pytest.raises(ConfigError, match=field):
        make_band(**{field: value})


# (2 pi B)^2 * B underflows to 0 for a tiny bandwidth, and (2 pi B)^2
# overflows for a huge one: either used to fail only at the first trial
@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"bandwidth_hz": 1e-200}, id="tiny-bandwidth"),
        pytest.param({"bandwidth_hz": 1e200}, id="huge-bandwidth"),
        pytest.param({"snr_linear": 1e-300, "signal_time_period_s": 1e-20}, id="tiny-snr-and-period"),
    ],
)
def test_band_without_a_finite_noise_std_is_rejected(overrides):
    with pytest.raises(ConfigError, match="no finite ranging noise std"):
        make_band(**overrides)


@pytest.mark.parametrize("bad_id", [1.5, True, "1"])
def test_measurement_set_rejects_non_integer_station_ids(bad_id):
    # 1.5 used to be stored as station 1
    with pytest.raises(ConfigError, match="station id must be an integer"):
        MeasurementSet(0, ((bad_id, 1e-8), (2, 2e-8), (3, 3e-8)))


GOOD_SAMPLES = ((1, 1e-8), (2, 2e-8), (3, 3e-8))


def with_toa(toa):
    return ((1, 1e-8), (2, toa), (3, 3e-8))


BAD_TOA = "ToA: expected a finite number"
BAD_PERIOD = "schedule_period_s: expected a finite number"


# the fix trusts what a measurement set checked when it was built; a None,
# text or list number used to escape as TypeError or a plain ValueError, and
# a True period read as 1 s
@pytest.mark.parametrize(
    "samples,schedule_period_s,match",
    [
        pytest.param(((1, 1e-8), (2, 2e-8), (1, 3e-8)), 0.0, "duplicate station ids", id="duplicate-id"),
        pytest.param(with_toa(math.nan), 0.0, BAD_TOA, id="nan-toa"),
        pytest.param(((1, 1e-8), (2, 2e-8), (3, math.inf)), 0.0, BAD_TOA, id="inf-toa"),
        pytest.param(with_toa(None), 0.0, BAD_TOA, id="none-toa"),
        pytest.param(with_toa("x"), 0.0, BAD_TOA, id="text-toa"),
        pytest.param(with_toa([2e-8]), 0.0, BAD_TOA, id="list-toa"),
        pytest.param(GOOD_SAMPLES, -1e-3, "schedule_period_s must be >= 0", id="negative-period"),
        pytest.param(GOOD_SAMPLES, math.nan, BAD_PERIOD, id="nan-period"),
        pytest.param(GOOD_SAMPLES, None, BAD_PERIOD, id="none-period"),
        pytest.param(GOOD_SAMPLES, "x", BAD_PERIOD, id="text-period"),
        pytest.param(GOOD_SAMPLES, [0.01], BAD_PERIOD, id="list-period"),
        pytest.param(GOOD_SAMPLES, True, BAD_PERIOD, id="bool-period"),
    ],
)
def test_measurement_set_rejects_malformed_epochs(samples, schedule_period_s, match):
    with pytest.raises(ConfigError, match=match):
        MeasurementSet(0, samples, schedule_period_s)


FOUR_SAMPLES = ((1, 1e-8), (2, 2e-8), (3, 3e-8), (4, 4e-8))


# a 1e300 s ToA used to reach the solver, print LAPACK's DLASCL complaint 12
# times on stderr, and fail on a NaN candidate instead of on the epoch
@pytest.mark.parametrize(
    "samples,schedule_period_s,pair",
    [
        pytest.param(((1, 1e-8), (2, 1e300), (3, 3e-8), (4, 4e-8)), 0.0, "2 and 1", id="huge-toa"),
        pytest.param(FOUR_SAMPLES, 1e300, "2 and 1", id="huge-period"),
        pytest.param(((1, 1e-8), (2, -5e299), (3, 3e-8), (4, 5e299)), 0.0, "4 and 2", id="wide-toas"),
        pytest.param(((1, 1e-8), (3, 3e-8), (10**400, 2e-8)), 0.0, f"{10**400} and 1", id="huge-id-gap"),
    ],
)
def test_overflowing_range_differences_are_rejected_at_the_epoch(
    samples, schedule_period_s, pair, stations, capfd, monkeypatch
):
    def entered(*args, **kwargs):
        pytest.fail("the solver was entered")

    monkeypatch.setattr(irlspos.irls, "solve_all_references", entered)
    with pytest.raises(ConfigError, match=f"stations {pair}: range difference .* is not finite"):
        irls_position(
            MeasurementSet(0, samples, schedule_period_s), stations, SolverSettings(), IrlsSettings()
        )
    assert capfd.readouterr().err == ""


def test_huge_toas_whose_stagger_cancels_are_accepted():
    # every range difference here is 0: the check is on each pair, not a bound
    m = MeasurementSet(0, ((1, 0.0), (2, 1e300), (3, 2e300)), 1e300)
    assert m.samples == ((1, 0.0), (2, 1e300), (3, 2e300))


def fully_checked(cls, *values):
    """An instance of ``cls`` holding ``values`` that went through the full
    check alone, the rule the O(N) common-case test stands in for."""
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), values):
        object.__setattr__(obj, f.name, value)
    obj._check()
    return obj


def outcome(build):
    """What building gives: the exception raised, or each stored field's
    repr (which tells 0.0 from -0.0 and a numpy scalar from a float)."""
    try:
        obj = build()
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(repr(getattr(obj, f.name)) for f in fields(obj))


EDGE_NUMBERS = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e299, -1e299, 0.0, -0.0]
NUMBERS = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from(EDGE_NUMBERS),
    st.floats(),
    st.integers(-3, 3),
    st.floats(-1.0, 1.0).map(np.float64),
    st.floats(-1.0, 1.0).map(repr),
    st.sampled_from([None, "x", True, [1e-8]]),
)
IDS = st.one_of(
    st.integers(-3, 6),
    st.booleans(),
    st.integers(-3, 6).map(np.int64),
    st.integers(-3, 6).map(str),
    st.sampled_from([1.5, 2.0, 10**400, -(10**400)]),
)
ASCENDING_IDS = st.lists(st.integers(-3, 2**70), unique=True, max_size=6).map(sorted)
SAMPLES = st.one_of(
    ASCENDING_IDS.flatmap(
        lambda ids: st.tuples(*[st.tuples(st.just(i), NUMBERS) for i in ids])
    ),
    ASCENDING_IDS.flatmap(
        lambda ids: st.tuples(*[st.tuples(st.just(i), st.floats(-1.0, 1.0)).map(list) for i in ids])
    ),
    st.lists(st.tuples(IDS, NUMBERS), max_size=6).map(tuple),
    st.lists(st.tuples(IDS, NUMBERS), max_size=6),
    st.lists(st.lists(NUMBERS, min_size=1, max_size=3).map(tuple), max_size=3).map(tuple),
)
PERIODS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(EDGE_NUMBERS + [-1e-3, 0, 1, "0.01", True, None]),
    st.floats(),
)


# the stagger-cancelling epoch of test_huge_toas_whose_stagger_cancels_are_accepted
@example(samples=((1, 0.0), (2, 1e300), (3, 2e300)), schedule_period_s=1e300)
@example(samples=((1, 1e-8), (2, 1e300), (3, 3e-8), (4, 4e-8)), schedule_period_s=0.0)
@example(samples=((1, 1e-8), (3, 3e-8), (10**400, 2e-8)), schedule_period_s=0.0)
@example(samples=((2**70, 1e-8), (2**70 + 1, 2e-8)), schedule_period_s=1e299)
@example(samples=((True, 1e-8), (2, 2e-8)), schedule_period_s=0.0)
@example(samples=((3, 1e-8), (2, 2e-8), (3, 1e-8)), schedule_period_s=0.01)
@example(samples=([1, 1e-8], [2, 2e-8]), schedule_period_s=0.0)
@settings(max_examples=300)
@given(samples=SAMPLES, schedule_period_s=PERIODS)
def test_common_epoch_check_agrees_with_the_full_rule(samples, schedule_period_s):
    built = outcome(lambda: MeasurementSet(7, samples, schedule_period_s))
    assert built == outcome(lambda: fully_checked(MeasurementSet, 7, samples, schedule_period_s))


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_emulated_epochs_take_the_common_case(preset, monkeypatch):
    def full_check(self):
        pytest.fail(f"{type(self).__name__} took the full check")

    cfg = get_preset(preset)
    monkeypatch.setattr(MeasurementSet, "_check", full_check)
    for t in range(cfg.trials_per_poi):
        mset, biases = harness.emulate_trial_measurements(cfg, t % len(cfg.pois), t)
        assert len(mset.samples) == len(biases) == len(cfg.stations)


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
    # every band field: one that left the noise alone would drive nothing
    base = make_band()
    for field in (f.name for f in fields(BandProfile)):
        values = [getattr(base, field) * k for k in (1.0, 1.5, 2.5, 10.0)]
        sigmas = [toa_noise_std(make_band(**{field: v})) for v in values]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:])), field


# --- raised-cosine pulse --------------------------------------------------------

def test_pulse_peak_is_inverse_symbol_period():
    band = make_band()
    assert raised_cosine_pulse(0.0, band) == pytest.approx(1.0 / symbol_period_s(band))


def test_pulse_zero_at_symbol_period_when_rectangular():
    band = make_band()
    T = symbol_period_s(band, 0.0)
    # zero up to the floating-point angle error of sin(pi)
    assert abs(raised_cosine_pulse(T, band, 0.0)) < 1e-8 / T * 1e-8


@pytest.mark.parametrize("rolloff", [0.5, 0.3, 0.25])
def test_pulse_singularity_matches_neighborhood(rolloff):
    band = make_band()
    T = symbol_period_s(band, rolloff)
    t0 = T / (2 * rolloff)
    limit = (math.pi / (4 * T)) * np.sinc(1 / (2 * rolloff))
    value = raised_cosine_pulse(t0, band, rolloff)
    assert value == pytest.approx(limit, abs=1e-12 / T)
    # cross-check against direct evaluation one part-per-billion of T away
    for t in (t0 + 1e-9 * T, t0 - 1e-9 * T):
        assert raised_cosine_pulse(t, band, rolloff) == pytest.approx(value, abs=1e-7 / T)


@pytest.mark.parametrize("rolloff", [0.0, 0.22, 0.37, 1.0])
def test_pulse_is_even(rolloff):
    band = make_band()
    rng = np.random.default_rng(4)
    t = rng.uniform(0, 6 * symbol_period_s(band, rolloff), 300)
    np.testing.assert_allclose(
        raised_cosine_pulse(t, band, rolloff), raised_cosine_pulse(-t, band, rolloff), rtol=1e-13
    )


def test_pulse_scalar_matches_array():
    band = make_band()
    ts = [0.0, 1e-9, symbol_period_s(band) / (2 * ROLLOFF)]
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
    T = symbol_period_s(band)
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
            span_s=(0.0, tau + 10 * symbol_period_s(band)),
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


def test_matched_filter_peak_is_sub_sample():
    # arrivals between grid times: the grid peak alone is off by up to half
    # a sample, the vertex of the parabola through it and its neighbours by
    # under 1% of one
    band = make_band()
    fs = 8 * band.bandwidth_hz
    T = symbol_period_s(band)
    rng = np.random.default_rng(5)
    for _ in range(20):
        tau = 1e-7 + rng.uniform(0.0, 1.0 / fs)
        wf = synthesize_received_waveform(
            [MultipathComponent(1.0, tau)], band, fs, 0.0, span_s=(1e-7 - 8 * T, 1e-7 + 8 * T)
        )
        assert abs(estimate_toa_from_waveform(wf, band) - tau) <= 0.01 / fs


def test_matched_filter_tie_breaks_to_earliest():
    band = make_band()
    fs = 8 * band.bandwidth_hz
    T = symbol_period_s(band)
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


# The relative standard error of the std of 150 draws is 1/sqrt(2*149), about
# 5.8%; the band is 4.5 of them each side, as criterion 7's band is of its own.
WAVEFORM_RATIO_BAND = (0.74, 1.26)


def test_waveform_noise_regime_matches_statistical_model():
    # reduced-size version of the acceptance tie between the two modes, at 16
    # samples per 1/B with the matched filter's sub-sample peak
    band = make_band(snr_linear=100.0)
    fs = 16 * band.bandwidth_hz
    dt = 1.0 / fs
    sigma_t = toa_noise_std(band) / SPEED_OF_LIGHT_M_S
    noise = waveform_noise_std(band, fs)
    span = (1e-7 - 8 * symbol_period_s(band), 1e-7 + dt + 8 * symbol_period_s(band))
    rng = np.random.default_rng(6)
    errors = []
    for _ in range(150):
        tau = 1e-7 + rng.uniform(0, dt)
        wf = synthesize_received_waveform(
            [MultipathComponent(1.0, tau)], band, fs, noise, rng=rng, span_s=span
        )
        errors.append(estimate_toa_from_waveform(wf, band) - tau)
    ratio = float(np.std(errors, ddof=1)) / sigma_t
    print(f"waveform / statistical ToA std ratio: {ratio:.3f}")
    low, high = WAVEFORM_RATIO_BAND
    assert low <= ratio <= high


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


BAD_AMPLITUDE = "amplitude: expected a finite number"
BAD_ARRIVAL = "toa_s: expected a finite number"


# None and text used to raise TypeError, and True counted as amplitude 1
@pytest.mark.parametrize(
    "amplitude,toa_s,match",
    [
        pytest.param(None, 1e-8, BAD_AMPLITUDE, id="none-amplitude"),
        pytest.param("x", 1e-8, BAD_AMPLITUDE, id="text-amplitude"),
        pytest.param(True, 1e-8, BAD_AMPLITUDE, id="bool-amplitude"),
        pytest.param(math.nan, 1e-8, BAD_AMPLITUDE, id="nan-amplitude"),
        pytest.param(1.0, None, BAD_ARRIVAL, id="none-toa"),
        pytest.param(1.0, "x", BAD_ARRIVAL, id="text-toa"),
        pytest.param(1.0, True, BAD_ARRIVAL, id="bool-toa"),
        pytest.param(1.0, math.inf, BAD_ARRIVAL, id="inf-toa"),
        pytest.param(1.0, -1e-9, "toa_s must be >= 0", id="negative-toa"),
    ],
)
def test_multipath_component_rejects_malformed_fields(amplitude, toa_s, match):
    with pytest.raises(ConfigError, match=match):
        MultipathComponent(amplitude, toa_s)


# --- statistical-mode emulator ----------------------------------------------------

def one_poi_config(ue, stations, band, **fields):
    """A one-trial scenario with its one PoI at ``ue``, with no transmit
    stagger unless ``fields`` set one."""
    fields.setdefault("schedule_period_s", 0.0)
    return ScenarioConfig(
        stations=tuple(stations), pois=(ue,), band=band, trials_per_poi=1, **fields
    )


def emulated(ue, stations, band, rngs=None, **fields):
    """The library emulator's epoch and biases for trial 0 of
    :func:`one_poi_config`; ``rngs`` are the trial's (link/bias, noise)
    generators, by default its own."""
    cfg = one_poi_config(ue, stations, band, **fields)
    return harness.emulate_trial_measurements(cfg, 0, 0, rngs=rngs)


def test_emulator_zero_noise_all_los_reproduces_truth(stations, band):
    ue = Position2D(7.0, 11.0)
    m, biases = emulated(ue, stations, band, noise_override_m=0.0)
    assert biases == [0.0] * len(stations)
    for st in stations:
        assert toa(m, st.id) == pytest.approx(true_first_toa(ue, st), abs=1e-22)


def test_emulator_schedule_stagger_is_exact(stations, band):
    ue = Position2D(7.0, 11.0)
    delta = 0.010
    m, _ = emulated(ue, stations, band, schedule_period_s=delta, noise_override_m=0.0)
    for st in stations:
        stagger = (st.id - 1) * delta
        assert toa(m, st.id) - stagger == pytest.approx(true_first_toa(ue, st), abs=1e-17)
    assert transmission_offsets(m)[(3, 1)] == pytest.approx(2 * delta)
    assert transmission_offsets(m)[(1, 3)] == pytest.approx(-2 * delta)


def test_emulator_bias_adds_exact_range(stations, band):
    # the same noise-free trial, all LoS and then with a fixed 10 m bias on
    # the links that the link generator's draws make NLoS
    ue = Position2D(4.0, 6.0)
    clean, _ = emulated(ue, stations, band, noise_override_m=0.0)
    biased, biases = emulated(
        ue,
        stations,
        band,
        rngs=(np.random.default_rng(0), np.random.default_rng(0)),
        noise_override_m=0.0,
        nlos_probability=0.5,
        bias_model=BiasModel("fixed", 10.0),
    )
    assert 0.0 in biases and 10.0 in biases
    for sid, bias in zip(clean.station_ids, biases):
        if bias:
            assert toa(biased, sid) - toa(clean, sid) == pytest.approx(
                10.0 / SPEED_OF_LIGHT_M_S, rel=1e-12
            )
        else:
            assert toa(biased, sid) == toa(clean, sid)


def test_emulator_is_deterministic(stations, band):
    ue = Position2D(12.0, 9.0)
    m1, _ = emulated(ue, stations, band, rngs=(None, np.random.default_rng(123)))
    m2, _ = emulated(ue, stations, band, rngs=(None, np.random.default_rng(123)))
    assert m1 == m2
    assert fingerprint(m1) == fingerprint(m2)
    m3, _ = emulated(ue, stations, band, rngs=(None, np.random.default_rng(124)))
    assert m1 != m3


def test_emulator_draws_one_noise_value_per_station_in_id_order(stations, band):
    # the determinism contract: station k (by id) gets the k-th scalar draw
    # of the noise stream, whatever order the scenario lists the stations in
    ue = Position2D(7.0, 15.0)
    m, biases = emulated(
        ue,
        list(reversed(stations)),
        band,
        rngs=(np.random.default_rng(5), np.random.default_rng(11)),
        nlos_probability=1.0,
    )
    assert all(bias > 0 for bias in biases)
    gen = np.random.default_rng(11)
    sigma = toa_noise_std(band)
    for s, bias in zip(sorted(stations, key=lambda s: s.id), biases):
        range_m = euclidean_distance(ue, s.position) + bias + gen.normal(0.0, sigma)
        assert toa(m, s.id) == range_m / SPEED_OF_LIGHT_M_S


def test_emulator_noise_is_unbiased(stations, band):
    # mean of (measured - true) over 10^4 draws within 4 sigma / sqrt(n) of zero
    ue = Position2D(10.0, 10.0)
    st = stations[0]
    cfg = one_poi_config(ue, stations, band)
    sigma = toa_noise_std(band)
    n = 10_000
    rng = np.random.default_rng(7)
    draws = np.empty(n)
    truth = true_first_toa(ue, st)
    for i in range(n):
        m, _ = harness.emulate_trial_measurements(cfg, 0, 0, rngs=(None, rng))
        draws[i] = toa(m, st.id) - truth
    mean_m = draws.mean() * SPEED_OF_LIGHT_M_S
    assert abs(mean_m) < 4 * sigma / math.sqrt(n)


def test_emulator_projected_3d_offset(stations, band):
    ue = Position2D(10.0, 10.0)
    m, _ = emulated(ue, stations, band, noise_override_m=0.0, height_difference_m=3.0)
    d2d = math.hypot(10.0, 10.0)
    expected = math.hypot(d2d, 3.0) / SPEED_OF_LIGHT_M_S
    assert toa(m, 1) == pytest.approx(expected, rel=1e-15)


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

"""Acceptance suite: one test per exit criterion, one printed verdict line per
criterion (run with -s to see them).

Fixed seeds throughout; every tolerance is stated inline.

Criterion 2 checks what a single epoch can support. Four synchronized
anchors give four ToAs for three unknowns (x, y and the UE clock offset),
which leaves one redundant measurement: enough to detect a fault, not to
isolate it (Parkinson & Axelrad, "Autonomous GPS integrity monitoring using
the pseudorange residual", 1988). On the criterion's data (+10 m on station
1, u_max = 1 m, 100 UEs):

* in 90 of the 100 epochs at least two of the four 3-station subsets fit
  their measurements exactly at a point inside the hall, so no single-epoch
  estimator can tell which station is biased;
* every reference-rotated candidate contains the biased ToA, either as its
  reference or as a range-difference row, and each is at least 2.15 m from
  the UE, so a centimeter-accurate fusion is out of reach;
* at the true position every reference's mean residual is at least
  10/3 m > u_max, so trusting any one reference means trusting a
  contaminated one.

The scheme's promise on such an epoch is therefore detection and a better
estimate than the contaminated baseline: every epoch is reported
``degenerate`` with all four stations rejected, and the fused estimate is
strictly closer to the UE than fixed-reference LS on the biased station
(measured: 100/100 epochs, smallest margin 0.14 m). At the returned
position the biased reference has the largest uncertainty in only 45 of
the 100 epochs; the zero weight comes from rejecting everything.

Criterion 3 is directional, as the paper's claim is: IRLS beats LS. Over the
1,012 matched trials of ``static_cband`` with ``nlos_probability = 0.3`` it
asserts the mean and 90th-percentile orderings and a paired one-sided test
of d = err_LS - err_IRLS at the 1% level. The test separates the estimator
from any single-reference solve, which the orderings alone do not: the
lone reference-3 and reference-4 candidates also order below LS on mean and
p90, but give paired t of 0.29 and 1.39 (reference 2: -1.55), against 4.42
for IRLS (621 trials won, 389 lost). IRLS's whole margin over LS comes from
averaging the four reference candidates: equal-weight fusion of the same
candidates gives mean 1.4705 m against 1.4710 m for IRLS, and the same p90
of 3.596 m; 334 of the 1,012 epochs are degenerate.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from irlspos import (
    IrlsSettings,
    Position2D,
    SPEED_OF_LIGHT_M_S,
    andrews_weight,
    euclidean_distance,
    irls_position,
    run_batch,
    summarize,
    toa_noise_std,
)
from irlspos.channel import LinkState, emulate_measurement_set
from irlspos.geometry import check_station_layout
from irlspos.harness import METHOD_IRLS, METHOD_LS, export_results
from irlspos.lsq import solve_single_reference
from irlspos.presets import cband_profile, corner_stations, get_preset
from irlspos.tdoa import compute_tdoas
from conftest import AOI_H, AOI_W, deltas_by_id, exact_measurements
from waveform import (
    MultipathComponent,
    estimate_toa_from_waveform,
    symbol_period_s,
    synthesize_received_waveform,
    waveform_noise_std,
)

STATIONS = list(corner_stations())
LAYOUT = check_station_layout(STATIONS)
CBAND = cband_profile()


def verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_exact_recovery():
    rng = np.random.default_rng(20240601)
    start = time.perf_counter()
    worst_ls = worst_irls = 0.0
    for _ in range(100):
        ue = Position2D(*rng.uniform([0.5, 0.5], [AOI_W - 0.5, AOI_H - 0.5]))
        m = exact_measurements(ue, STATIONS, CBAND)
        ls = solve_single_reference(compute_tdoas(m, LAYOUT)[0], LAYOUT)
        est = irls_position(m, STATIONS)
        worst_ls = max(worst_ls, euclidean_distance(ls.position, ue))
        worst_irls = max(worst_irls, euclidean_distance(est.position, ue))
    elapsed = time.perf_counter() - start
    ok = worst_ls < 1e-6 and worst_irls < 1e-6 and elapsed < 5.0
    assert verdict(
        "1 exact recovery",
        ok,
        f"max LS err {worst_ls:.2e} m, max IRLS err {worst_irls:.2e} m, {elapsed:.1f} s",
    )
    assert worst_ls < 1e-6 and worst_irls < 1e-6
    assert elapsed < 5.0


def test_criterion_2_outlier_rejection():
    rng = np.random.default_rng(20240602)
    u_max = IrlsSettings(u_max_m=1.0)
    biased_id = 1  # also the fixed LS reference
    all_ids = tuple(s.id for s in STATIONS)
    zero_weight_hits = 0
    flagged = 0
    margins = []  # LS error minus IRLS error, per epoch
    ls_errors = []
    for _ in range(100):
        ue = Position2D(*rng.uniform([2.0, 2.0], [AOI_W - 2.0, AOI_H - 2.0]))
        m = exact_measurements(ue, STATIONS, CBAND, biases={biased_id: 10.0})
        est = irls_position(m, STATIONS, irls=u_max)
        ls = solve_single_reference(compute_tdoas(m, LAYOUT)[0], LAYOUT)
        zero_weight_hits += est.weights[biased_id] == 0.0
        flagged += est.degenerate and est.rejected_station_ids() == all_ids
        ls_err = euclidean_distance(ls.position, ue)
        ls_errors.append(ls_err)
        margins.append(ls_err - euclidean_distance(est.position, ue))

    wins = sum(d > 0.0 for d in margins)
    weight_ok = zero_weight_hits == 100
    flagged_ok = flagged == 100
    beats_ok = wins == 100
    ls_ok = min(ls_errors) > 1.0
    assert verdict(
        "2 outlier rejection",
        weight_ok and flagged_ok and beats_ok and ls_ok,
        f"biased weight zero {zero_weight_hits}/100, "
        f"degenerate with all stations rejected {flagged}/100, "
        f"IRLS closer than LS {wins}/100 (min margin {min(margins):.3f} m), "
        f"min LS err {min(ls_errors):.3f} m (> 1 required: {ls_ok})",
    )
    assert weight_ok, "biased station weight must be exactly 0 in every trial"
    assert flagged_ok, (
        "every epoch must be reported as contaminated: degenerate, with "
        "every reference rejected (each one's residual at the UE is >= 10/3 m)"
    )
    assert beats_ok, (
        "the fused estimate must be strictly closer to the UE than LS on the "
        f"biased reference in every epoch (won {wins}/100)"
    )
    assert ls_ok, "fixed-reference LS on the biased reference must err by > 1 m"


# One-sided 1% critical value of the standard normal; with 1,011 degrees of
# freedom the t quantile is 2.330, which changes no verdict here.
T_CRITICAL_ONE_SIDED_1PCT = 2.326


def test_criterion_3_directional_table2():
    start = time.perf_counter()
    cfg = replace(
        get_preset("static_cband").with_overrides(trials_per_poi=44),  # 1012 trials
        nlos_probability=0.3,
    )
    batch = run_batch(cfg)
    summary = summarize(batch)
    elapsed = time.perf_counter() - start
    ls, irls = summary[METHOD_LS], summary[METHOD_IRLS]
    # run_batch writes one LS and one IRLS record per trial, in trial order
    trials = {
        method: [(t.poi_index, t.trial_index) for t in batch.per_trial if t.method == method]
        for method in (METHOD_LS, METHOD_IRLS)
    }
    assert trials[METHOD_LS] == trials[METHOD_IRLS]
    d = batch.errors(METHOD_LS) - batch.errors(METHOD_IRLS)
    # one-sample t of the paired differences; nan (a fail) if all are 0
    t_stat = float(d.mean() / (d.std(ddof=1) / math.sqrt(d.size)))
    won, lost = int((d > 0).sum()), int((d < 0).sum())
    direction_ok = t_stat > T_CRITICAL_ONE_SIDED_1PCT
    mean_ok = irls.mean_error_m < ls.mean_error_m
    p90_ok = irls.p90_error_m < ls.p90_error_m
    time_ok = elapsed < 60.0
    assert verdict(
        "3 directional Table-2",
        direction_ok and mean_ok and p90_ok and time_ok,
        f"LS mean {ls.mean_error_m:.3f} / IRLS mean {irls.mean_error_m:.3f} "
        f"(ordering: {mean_ok}), "
        f"LS p90 {ls.p90_error_m:.3f} / IRLS p90 {irls.p90_error_m:.3f} "
        f"(ordering: {p90_ok}), "
        f"paired t {t_stat:.2f} over {d.size} trials, {won} won / {lost} lost "
        f"(> {T_CRITICAL_ONE_SIDED_1PCT} required: {direction_ok}), {elapsed:.1f} s",
    )
    assert mean_ok, "IRLS must beat LS on mean error"
    assert p90_ok, "IRLS must beat LS at the 90th percentile"
    assert direction_ok, (
        "IRLS must beat LS trial by trial at the one-sided 1% level "
        f"(paired t {t_stat:.2f})"
    )
    assert time_ok


def test_criterion_4_bandwidth_trend():
    results = {}
    for name in (
        "static_cband",
        "static_mmwave",
        "semidynamic_cband",
        "semidynamic_mmwave",
    ):
        cfg = get_preset(name).with_overrides(trials_per_poi=44)  # 1012 trials
        results[name] = summarize(run_batch(cfg))
    checks = []
    for scenario in ("static", "semidynamic"):
        for method in (METHOD_LS, METHOD_IRLS):
            c = results[f"{scenario}_cband"][method].mean_error_m
            m = results[f"{scenario}_mmwave"][method].mean_error_m
            checks.append((scenario, method, m <= c, c, m))
    ok = all(c[2] for c in checks)
    detail = "; ".join(
        f"{sc}/{me}: mmWave {mm:.4g} <= C {cc:.4g}: {good}"
        for sc, me, good, cc, mm in checks
    )
    assert verdict("4 bandwidth trend", ok, detail)
    assert ok


def test_criterion_5_grid_search_oracle():
    rng = np.random.default_rng(20240605)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        stations = [
            replace(
                s,
                position=Position2D(
                    s.position.x + rng.uniform(-1.5, 1.5),
                    s.position.y + rng.uniform(-1.5, 1.5),
                ),
            )
            for s in STATIONS
        ]
        ue = Position2D(*rng.uniform([3.0, 3.0], [AOI_W - 3.0, AOI_H - 3.0]))
        links = [LinkState(s.id) for s in stations]
        m = emulate_measurement_set(
            ue, stations, links, CBAND, rng_seed=rng, noise_std_m=0.01
        )
        layout = check_station_layout(stations)
        rd = compute_tdoas(m, layout)[0]
        cand = solve_single_reference(rd, layout)

        # independent oracle: exhaustive 1 cm objective scan over the AoI
        xs = np.arange(0.0, AOI_W + 0.005, 0.01)
        ys = np.arange(0.0, AOI_H + 0.005, 0.01)
        X, Y = np.meshgrid(xs, ys)
        index = {s.id: s for s in stations}
        ref = index[1].position
        dist_e = np.hypot(X - ref.x, Y - ref.y)
        total = np.zeros_like(X)
        for sid, dd in deltas_by_id(rd, stations).items():
            q = index[sid].position
            total += (dd - (np.hypot(X - q.x, Y - q.y) - dist_e)) ** 2
        best = np.unravel_index(np.argmin(total), total.shape)
        oracle = Position2D(float(X[best]), float(Y[best]))
        worst = max(worst, euclidean_distance(cand.position, oracle))
    elapsed = time.perf_counter() - start
    ok = worst < 2e-2 and elapsed < 30.0
    assert verdict(
        "5 grid-search oracle",
        ok,
        f"max distance to grid minimizer {worst * 100:.2f} cm, {elapsed:.1f} s",
    )
    assert worst < 2e-2
    assert elapsed < 30.0


def test_criterion_6_andrews_unit_suite():
    u_max = 1.0
    exact = (
        andrews_weight(0.0, u_max) == 1.0
        and andrews_weight(u_max, u_max) == pytest.approx(0.0, abs=1e-15)
        and andrews_weight(u_max / 2, u_max) == pytest.approx(2 / math.pi, abs=1e-12)
        and andrews_weight(1.5 * u_max, u_max) == 0.0
    )
    continuous = all(
        abs(andrews_weight(max(u + du, 0.0), u_max) - andrews_weight(u, u_max)) < 1e-6
        for u in (0.0, u_max / 2, u_max)
        for du in (1e-9, -1e-9)
    )
    grid = np.linspace(1e-9, u_max, 1000)
    values = [andrews_weight(float(u), u_max) for u in grid]
    monotone = all(a > b for a, b in zip(values, values[1:]))
    ok = exact and continuous and monotone
    assert verdict(
        "6 Andrews unit suite",
        ok,
        f"exact values {exact}, continuity {continuous}, monotone {monotone}",
    )
    assert ok


# The sample std of 1,000 Gaussian errors has a relative standard error of
# 1/sqrt(2 * 999), about 2.2%, so the [0.9, 1.1] band is about 4.5 of them.
# The matched filter's sub-sample peak keeps the ratio near 1 at 16 samples
# per 1/B; this seed reads 0.967, 0.973 and 1.004 at 512, 64 and 16.
NOISE_RATIO_BAND = (0.9, 1.1)


def test_criterion_7_noise_model_validation():
    start = time.perf_counter()
    band = CBAND  # B = 100 MHz, SNR 20 dB
    fs = 16 * band.bandwidth_hz
    dt = 1.0 / fs
    noise = waveform_noise_std(band, fs)
    predicted = toa_noise_std(band) / SPEED_OF_LIGHT_M_S
    tau0 = 1e-7
    T = symbol_period_s(band)
    span = (tau0 - 8 * T, tau0 + dt + 8 * T)
    rng = np.random.default_rng(20240607)
    errors = np.empty(1000)
    for i in range(1000):
        tau = tau0 + rng.uniform(0.0, dt)
        wf = synthesize_received_waveform(
            [MultipathComponent(1.0, tau)], band, fs, noise, rng=rng, span_s=span
        )
        errors[i] = estimate_toa_from_waveform(wf, band) - tau
    measured = float(errors.std(ddof=1))
    elapsed = time.perf_counter() - start
    ratio = measured / predicted
    low, high = NOISE_RATIO_BAND
    ok = low <= ratio <= high and elapsed < 60.0
    assert verdict(
        "7 noise-model validation",
        ok,
        f"measured ToA std {measured:.3e} s vs predicted {predicted:.3e} s "
        f"(ratio {ratio:.3f}, band [{low}, {high}]), {elapsed:.1f} s",
    )
    assert low <= ratio <= high
    assert elapsed < 60.0


def test_criterion_8_byte_determinism(tmp_path):
    cfg = get_preset("semidynamic_cband")
    dirs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        export_results(run_batch(cfg), out)
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    identical = all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
    )
    assert verdict(
        "8 determinism",
        identical,
        f"{len(names)} files byte-identical across two full preset runs: {identical}",
    )
    assert identical

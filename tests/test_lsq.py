"""Gauss-Newton range-difference solver against independent oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irlspos import (
    BaseStation,
    GeometryError,
    Position2D,
    RangeDifferenceSet,
    SolverSettings,
    euclidean_distance,
    solve_all_references,
    solve_single_reference,
)
from irlspos import lsq
from irlspos.geometry import check_station_layout
from irlspos.harness import emulate_trial_measurements, run_batch
from irlspos.lsq import _gauss_newton_step, reference_rows, residuals_at
from irlspos.presets import PRESET_NAMES, cband_profile, corner_stations, get_preset
from irlspos.tdoa import compute_tdoas
from conftest import AOI_H, AOI_W, exact_measurements, fixes, station_layouts, translated


def grid_search_minimum(rd, stations, step=0.01, x_max=AOI_W, y_max=AOI_H):
    """Exhaustive objective evaluation over the area of interest."""
    xs = np.arange(0.0, x_max + step / 2, step)
    ys = np.arange(0.0, y_max + step / 2, step)
    X, Y = np.meshgrid(xs, ys)
    index = {s.id: s for s in stations}
    ref = index[rd.reference_id].position
    dist_e = np.hypot(X - ref.x, Y - ref.y)
    total = np.zeros_like(X)
    for sid, dd in rd.entries:
        q = index[sid].position
        total += (dd - (np.hypot(X - q.x, Y - q.y) - dist_e)) ** 2
    i = np.unravel_index(np.argmin(total), total.shape)
    return Position2D(float(X[i]), float(Y[i])), float(total[i])


# --- array oracle: the solver loop as first written, on np.linalg.lstsq -----------

def residual_vector_and_jacobian(p, rd, stations):
    """Residuals r_n = delta_d_n - (||p - q_n|| - ||p - q_e||) and dr/dp.

    The Jacobian row for station n is -((p - q_n)/||p - q_n|| -
    (p - q_e)/||p - q_e||); it is undefined when p coincides with a station.
    """
    index = {s.id: s for s in stations}
    coords = np.array(
        [(index[sid].position.x, index[sid].position.y) for sid in rd.station_ids]
    )
    deltas = np.array([dd for _, dd in rd.entries])
    ref = index[rd.reference_id].position
    pt = np.array([p.x, p.y])
    diff_n = pt - coords
    dist_n = np.hypot(diff_n[:, 0], diff_n[:, 1])
    diff_e = pt - np.array([ref.x, ref.y])
    dist_e = math.hypot(diff_e[0], diff_e[1])
    if dist_e == 0.0 or np.any(dist_n == 0.0):
        raise ZeroDivisionError("position coincides with a station; Jacobian undefined")
    residuals = deltas - (dist_n - dist_e)
    jac = -(diff_n / dist_n[:, None] - diff_e / dist_e)
    return residuals, jac


def lstsq_step(p, rd, stations):
    """The Gauss-Newton step from np.linalg.lstsq on the (N-1) x 2 system;
    None where the Jacobian is undefined or lstsq fails."""
    try:
        residuals, jac = residual_vector_and_jacobian(Position2D(p[0], p[1]), rd, stations)
        step, *_ = np.linalg.lstsq(jac, -residuals, rcond=None)
    except (ZeroDivisionError, np.linalg.LinAlgError):
        return None
    return step


def closed_form_step(p, rd, stations):
    """The solver's own step arithmetic, for bit-for-bit loop comparisons."""
    geometry = reference_rows(rd, check_station_layout(stations))
    step = _gauss_newton_step(float(p[0]), float(p[1]), geometry)
    return None if step is None else np.array(step)


def lstsq_oracle(rd, stations, settings=None, step_fn=lstsq_step):
    """(position, converged, iterations) of the guarded Gauss-Newton loop,
    run to the cap without an early exit, with each step from ``step_fn``."""
    settings = settings or SolverSettings()
    sts = sorted(stations, key=lambda s: s.id)
    xs = [s.position.x for s in sts]
    ys = [s.position.y for s in sts]
    diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    lo = np.array([min(xs) - settings.bounds_margin_m, min(ys) - settings.bounds_margin_m])
    hi = np.array([max(xs) + settings.bounds_margin_m, max(ys) + settings.bounds_margin_m])
    if settings.initial_guess is not None:
        p = np.array([settings.initial_guess.x, settings.initial_guess.y])
    else:
        p = np.array(
            [
                sum(s.position.x for s in sts) / len(sts),
                sum(s.position.y for s in sts) / len(sts),
            ]
        )
    station_coords = np.array([(s.position.x, s.position.y) for s in sts])
    converged = False
    iterations = 0
    for iterations in range(1, settings.max_iterations + 1):
        if np.any(np.hypot(*(p - station_coords).T) < 1e-12):
            p = p + np.array([settings.step_tolerance_m, 0.0])
        step = step_fn(p, rd, sts)
        if step is None:
            break
        step_norm = float(np.hypot(step[0], step[1]))
        while np.hypot(step[0], step[1]) > diag:
            step = step / 2.0
        p = np.clip(p + step, lo, hi)
        if step_norm < settings.step_tolerance_m:
            converged = True
            break
    return Position2D(float(p[0]), float(p[1])), converged, iterations


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Counts calls to np.linalg.lstsq while the count is switched on."""
    original = np.linalg.lstsq
    calls = {"on": False, "count": 0}

    def counting(*args, **kwargs):
        calls["count"] += calls["on"]
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_candidates_match_lstsq_oracle_on_presets(preset, lstsq_calls):
    # every candidate of the preset's first 5 trials per PoI; all of them are
    # well conditioned, so the closed-form step is the one under test
    cfg = get_preset(preset).with_overrides(trials_per_poi=5)
    stations = sorted(cfg.stations, key=lambda s: s.id)
    solves = 0
    for poi_index in range(len(cfg.pois)):
        for trial_index in range(cfg.trials_per_poi):
            m, _ = emulate_trial_measurements(cfg, poi_index, trial_index)
            lstsq_calls["on"] = True
            candidates = solve_all_references(m, stations, cfg.solver)
            lstsq_calls["on"] = False
            for c in candidates:
                assert c.range_differences == compute_tdoas(m, c.reference_id)
                position, converged, iterations = lstsq_oracle(
                    c.range_differences, stations, cfg.solver
                )
                assert euclidean_distance(c.position, position) < 1e-9
                assert (c.converged, c.iterations_used) == (converged, iterations)
                solves += 1
    assert solves == len(cfg.pois) * 5 * len(stations)
    assert lstsq_calls["count"] == 0


# at (-0.5, 0) the unit vectors to stations 1 and 2 coincide, so the
# station-2 Jacobian row is zero and det(J^T J) = 0; at (-0.5, 1e-4) that row
# is nearly zero and det / trace^2 is 9e-9, and the first step is ~5e4 m long
ILL_POSED_STATIONS = [
    BaseStation(1, Position2D(0.0, 0.0)),
    BaseStation(2, Position2D(10.0, 0.0)),
    BaseStation(3, Position2D(0.0, 10.0)),
]
ILL_POSED_RD = RangeDifferenceSet(reference_id=1, entries=((2, 3.0), (3, 1.0)))


@pytest.mark.parametrize(
    "start,expected",
    [
        ((-0.5, 0.0), (Position2D(2.9552991172621, 4.4184330390874), 6)),
        ((-0.5, 1e-4), None),
    ],
)
def test_singular_or_ill_conditioned_step_falls_back_to_lstsq(
    start, expected, lstsq_calls
):
    settings = SolverSettings(initial_guess=Position2D(*start))
    lstsq_calls["on"] = True
    cand = solve_single_reference(ILL_POSED_RD, ILL_POSED_STATIONS, settings)
    lstsq_calls["on"] = False
    assert lstsq_calls["count"] >= 1
    position, converged, iterations = lstsq_oracle(
        ILL_POSED_RD, ILL_POSED_STATIONS, settings
    )
    assert euclidean_distance(cand.position, position) < 1e-9
    assert (cand.converged, cand.iterations_used) == (converged, iterations)
    assert cand.converged
    if expected is not None:
        assert euclidean_distance(cand.position, expected[0]) < 1e-9
        assert cand.iterations_used == expected[1]


def test_start_on_a_station_is_nudged():
    # the Jacobian is undefined on station 2; without the nudge the solve
    # would stop there after one iteration
    settings = SolverSettings(initial_guess=Position2D(10.0, 0.0))
    cand = solve_single_reference(ILL_POSED_RD, ILL_POSED_STATIONS, settings)
    position, converged, iterations = lstsq_oracle(
        ILL_POSED_RD, ILL_POSED_STATIONS, settings
    )
    assert euclidean_distance(cand.position, position) < 1e-9
    assert (cand.converged, cand.iterations_used) == (converged, iterations)
    assert cand.converged and cand.iterations_used > 1


# --- solves pinned to the box edge -------------------------------------------------

@pytest.fixture
def gn_steps(monkeypatch):
    """Counts the Gauss-Newton steps the solver computes."""
    calls = {"count": 0}

    def counting(*args):
        calls["count"] += 1
        return _gauss_newton_step(*args)

    monkeypatch.setattr(lsq, "_gauss_newton_step", counting)
    return calls


# (PoI, trial, reference) of semidynamic_cband at its default seed whose
# solve ends on the box edge, and the period its iterates settle into there
@pytest.mark.parametrize(
    "poi,trial,reference,period",
    [
        pytest.param(0, 3, 1, 1, id="fixed-point"),
        pytest.param(0, 5, 2, 2, id="period-2"),
        pytest.param(0, 42, 2, 5, id="period-5"),
    ],
)
def test_pinned_solve_exits_at_first_repeat(poi, trial, reference, period, gn_steps):
    cfg = get_preset("semidynamic_cband")
    stations = sorted(cfg.stations, key=lambda s: s.id)
    m, _ = emulate_trial_measurements(cfg, poi, trial)
    rd = compute_tdoas(m, reference)
    cap = cfg.solver.max_iterations

    cand = solve_single_reference(rd, stations, cfg.solver)
    assert gn_steps["count"] < cap

    position, converged, iterations = lstsq_oracle(rd, stations, cfg.solver, closed_form_step)
    assert (cand.position, cand.converged, cand.iterations_used) == (position, False, cap)
    assert (converged, iterations) == (False, cap)
    x, y = cand.position.x, cand.position.y
    assert x in (-1.0, 30.0) or y in (-1.0, 26.0)
    # the capped loop's last iterates repeat with exactly this period
    earlier = [
        lstsq_oracle(rd, stations, replace(cfg.solver, max_iterations=cap - k), closed_form_step)[0]
        for k in range(1, period + 1)
    ]
    assert earlier[-1] == position
    assert all(p != position for p in earlier[:-1])


# run to the cap, semidynamic_cband's 165 pinned solves would bring its count
# to 35,010; each stops at its first repeated iterate, by iteration 31 at most
@pytest.mark.parametrize(
    "preset,steps", [("static_cband", 20_649), ("semidynamic_cband", 28_840)]
)
def test_gauss_newton_steps_per_batch(preset, steps, gn_steps):
    run_batch(get_preset(preset))
    assert gn_steps["count"] == steps


@st.composite
def biased_layouts(draw):
    """3-8 stations, at least 1 m apart and not all collinear, a reference,
    and range differences from a UE inside their bounding box with one
    station's range biased by 5-20 m."""
    stations = draw(station_layouts())
    xs = [s.position.x for s in stations]
    ys = [s.position.y for s in stations]
    ue = Position2D(draw(st.floats(min(xs), max(xs))), draw(st.floats(min(ys), max(ys))))
    ids = [s.id for s in stations]
    biased = draw(st.sampled_from(ids))
    bias = draw(st.floats(5.0, 20.0))
    ranges = {
        s.id: euclidean_distance(ue, s.position) + (bias if s.id == biased else 0.0)
        for s in stations
    }
    reference = draw(st.sampled_from(ids))
    entries = tuple((sid, ranges[sid] - ranges[reference]) for sid in ids if sid != reference)
    return RangeDifferenceSet(reference, entries), stations


@settings(max_examples=300)
@given(biased_layouts())
def test_solver_equals_capped_loop_on_biased_layouts(case):
    # same step arithmetic, so the early exit must not change a single bit
    rd, stations = case
    cand = solve_single_reference(rd, stations)
    position, converged, iterations = lstsq_oracle(rd, stations, step_fn=closed_form_step)
    assert cand.position == position
    assert (cand.converged, cand.iterations_used) == (converged, iterations)


# --- objective ------------------------------------------------------------------

def objective(p, rd, stations):
    """Sum of squared range-difference residuals at position p, in m^2."""
    residuals = residuals_at(p.x, p.y, reference_rows(rd, check_station_layout(stations)))
    return math.fsum(r * r for r in residuals)


def test_objective_zero_at_truth(stations, band):
    ue = Position2D(11.0, 7.0)
    rd = compute_tdoas(exact_measurements(ue, stations, band), 1)
    assert objective(ue, rd, stations) < 1e-18


def test_objective_zero_for_all_zero_entries_on_bisectors(band):
    stations = [
        BaseStation(1, Position2D(0, 5)),
        BaseStation(2, Position2D(3, 4)),
        BaseStation(3, Position2D(5, 0)),
    ]
    rd = compute_tdoas(exact_measurements(Position2D(0, 0), stations, band), 1)
    assert objective(Position2D(0, 0), rd, stations) < 1e-18


def test_objective_single_perturbed_residual(stations, band):
    ue = Position2D(11.0, 7.0)
    rd = compute_tdoas(exact_measurements(ue, stations, band), 1)
    entries = tuple(
        (sid, dd + (1.0 if sid == 3 else 0.0)) for sid, dd in rd.entries
    )
    perturbed = type(rd)(reference_id=rd.reference_id, entries=entries)
    assert objective(ue, perturbed, stations) == pytest.approx(1.0, abs=1e-9)


# --- single-reference solve -------------------------------------------------------

def test_center_ue_recovered_exactly(stations, band):
    ue = Position2D(14.5, 12.5)
    rd = compute_tdoas(exact_measurements(ue, stations, band), 1)
    cand = solve_single_reference(rd, stations)
    assert euclidean_distance(cand.position, ue) < 1e-6
    assert cand.converged


def test_solution_matches_grid_search_oracle(stations, band):
    ue = Position2D(5.0, 7.0)
    rd = compute_tdoas(exact_measurements(ue, stations, band), 1)
    cand = solve_single_reference(rd, stations)
    oracle, _ = grid_search_minimum(rd, stations)
    assert euclidean_distance(cand.position, oracle) < 2e-2


def test_minimizer_dominates_truth_under_bias(stations, band):
    ue = Position2D(9.0, 13.0)
    m = exact_measurements(ue, stations, band, biases={3: 10.0})
    rd = compute_tdoas(m, 1)  # reference clean
    cand = solve_single_reference(rd, stations)
    assert euclidean_distance(cand.position, ue) > 0.1
    assert objective(cand.position, rd, stations) <= objective(ue, rd, stations)


def test_explicit_initial_guess_is_used(stations, band):
    ue = Position2D(20.0, 5.0)
    rd = compute_tdoas(exact_measurements(ue, stations, band), 2)
    cand = solve_single_reference(
        rd, stations, SolverSettings(initial_guess=Position2D(19.0, 6.0))
    )
    assert euclidean_distance(cand.position, ue) < 1e-6


def test_solver_validates_settings():
    with pytest.raises(ValueError, match="max_iterations"):
        SolverSettings(max_iterations=0)
    with pytest.raises(ValueError, match="step_tolerance"):
        SolverSettings(step_tolerance_m=0.0)


# values that used to pass construction and break in the solve: a NaN margin
# turned the box clip off, and a fractional cap raised TypeError mid-solve
@pytest.mark.parametrize(
    "field,value",
    [
        ("max_iterations", 2.5),
        ("max_iterations", True),
        ("step_tolerance_m", math.inf),
        ("step_tolerance_m", math.nan),
        ("bounds_margin_m", math.nan),
        ("bounds_margin_m", math.inf),
        ("bounds_margin_m", -0.5),
    ],
)
def test_malformed_solver_settings_are_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SolverSettings(**{field: value})


def test_collinear_stations_raise(band):
    stations = [BaseStation(i, Position2D(float(i), float(i))) for i in range(1, 5)]
    with pytest.raises(GeometryError, match="collinear"):
        solve_all_references(
            exact_measurements(Position2D(1, 2), stations, band), stations
        )


# --- all-references solve ----------------------------------------------------------

def test_all_candidates_recover_truth_without_noise(stations, band):
    ue = Position2D(10.0, 10.0)
    m = exact_measurements(ue, stations, band)
    candidates = solve_all_references(m, stations)
    assert [c.reference_id for c in candidates] == [1, 2, 3, 4]
    for c in candidates:
        assert euclidean_distance(c.position, ue) < 1e-6
        assert c.converged


def test_biased_reference_has_largest_residual_norm(stations, band):
    # center-of-hall geometry; the distortion concentrates on the rotation
    # that uses the biased station as its reference
    ue = Position2D(14.5, 12.5)
    m = exact_measurements(ue, stations, band, biases={1: 10.0})
    candidates = solve_all_references(m, stations)
    norms = {c.reference_id: c.residual_norm_m for c in candidates}
    assert max(norms, key=norms.get) == 1


def test_three_station_minimum_yields_three_candidates(band):
    stations = [
        BaseStation(1, Position2D(0, 0)),
        BaseStation(2, Position2D(29, 0)),
        BaseStation(3, Position2D(14, 25)),
    ]
    m = exact_measurements(Position2D(12.0, 9.0), stations, band)
    candidates = solve_all_references(m, stations)
    assert len(candidates) == 3


# --- invariants ---------------------------------------------------------------------

def test_jacobian_matches_central_differences(stations, band):
    rng = np.random.default_rng(11)
    ue = Position2D(8.0, 14.0)
    rd = compute_tdoas(exact_measurements(ue, stations, band), 1)
    h = 1e-6
    for _ in range(100):
        p = Position2D(*rng.uniform([0.5, 0.5], [AOI_W - 0.5, AOI_H - 0.5]))
        _, jac = residual_vector_and_jacobian(p, rd, stations)
        fd = np.empty_like(jac)
        for axis in range(2):
            dp = [0.0, 0.0]
            dp[axis] = h
            r_plus, _ = residual_vector_and_jacobian(
                Position2D(p.x + dp[0], p.y + dp[1]), rd, stations
            )
            r_minus, _ = residual_vector_and_jacobian(
                Position2D(p.x - dp[0], p.y - dp[1]), rd, stations
            )
            fd[:, axis] = (r_plus - r_minus) / (2 * h)
        assert np.linalg.norm(fd - jac) / np.linalg.norm(jac) < 1e-5


def test_zero_noise_objective_below_1e_10(stations, band):
    rng = np.random.default_rng(12)
    for _ in range(20):
        ue = Position2D(*rng.uniform([1, 1], [AOI_W - 1, AOI_H - 1]))
        rd = compute_tdoas(exact_measurements(ue, stations, band), 1)
        cand = solve_single_reference(rd, stations)
        assert objective(cand.position, rd, stations) < 1e-10


SHIFT = st.floats(-200.0, 200.0)


@given(case=fixes(), shift=st.tuples(SHIFT, SHIFT))
@example(case=(corner_stations(), Position2D(6.0, 19.0), {}), shift=(137.25, -64.5))
def test_translation_equivariance(case, shift):
    stations, ue, biases = case
    band = cband_profile()
    moved_stations = [
        BaseStation(s.id, translated(s.position, *shift)) for s in stations
    ]
    m = exact_measurements(ue, stations, band, biases)
    m_shifted = exact_measurements(translated(ue, *shift), moved_stations, band, biases)
    for c, cs in zip(
        solve_all_references(m, stations),
        solve_all_references(m_shifted, moved_stations),
    ):
        assert cs.position.x - c.position.x == pytest.approx(shift[0], abs=1e-8)
        assert cs.position.y - c.position.y == pytest.approx(shift[1], abs=1e-8)

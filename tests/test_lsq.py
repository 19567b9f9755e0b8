"""Gauss-Newton range-difference solver against independent oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irlspos import (
    BaseStation,
    ConfigError,
    GeometryError,
    Position2D,
    SolverSettings,
    euclidean_distance,
)
from irlspos import lsq
from irlspos.geometry import check_station_layout
from irlspos.harness import emulate_trial_measurements, run_batch
from irlspos.lsq import _gauss_newton_step, solve_all_references, solve_single_reference
from irlspos.presets import PRESET_NAMES, cband_profile, corner_stations, get_preset
from irlspos.tdoa import compute_tdoas
from conftest import (
    AOI_H,
    AOI_W,
    deltas_by_id,
    exact_measurements,
    fixes,
    range_difference_set,
    residual_norm_m,
    station_layouts,
    translated,
)


def first_reference(m, stations):
    """The set compute_tdoas forms for the lowest station id."""
    return compute_tdoas(m, check_station_layout(stations))[0]


def grid_search_minimum(rd, stations, step=0.01, x_max=AOI_W, y_max=AOI_H):
    """Exhaustive objective evaluation over the area of interest."""
    xs = np.arange(0.0, x_max + step / 2, step)
    ys = np.arange(0.0, y_max + step / 2, step)
    X, Y = np.meshgrid(xs, ys)
    index = {s.id: s for s in stations}
    ref = index[rd.reference_id].position
    dist_e = np.hypot(X - ref.x, Y - ref.y)
    total = np.zeros_like(X)
    for sid, dd in deltas_by_id(rd, stations).items():
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
    deltas_of = deltas_by_id(rd, stations)
    coords = np.array([(index[sid].position.x, index[sid].position.y) for sid in deltas_of])
    deltas = np.array(list(deltas_of.values()))
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
    step = _gauss_newton_step(float(p[0]), float(p[1]), rd)
    return None if step is None else np.array(step)


def reference_step(p, rd, stations):
    """The closed-form step as first written: it builds the residual vector
    and the Jacobian on every step, whichever path then uses them. The
    solver must reproduce it bit for bit, the lstsq fallback included.
    Station coordinates come from the station list, by id."""
    index = {s.id: s.position for s in stations}
    rx, ry = index[rd.reference_id].x, index[rd.reference_id].y
    rows = [(index[sid].x, index[sid].y, dd) for sid, dd in deltas_by_id(rd, stations).items()]
    x, y = float(p[0]), float(p[1])
    ex, ey = x - rx, y - ry
    dist_e = math.hypot(ex, ey)
    if dist_e == 0.0:
        return None
    ux, uy = ex / dist_e, ey / dist_e
    a = b = c = gx = gy = 0.0
    residuals, jacobian = [], []
    for qx, qy, dd in rows:
        nx, ny = x - qx, y - qy
        dist_n = math.hypot(nx, ny)
        if dist_n == 0.0:
            return None
        r = dd - (dist_n - dist_e)
        jx = -(nx / dist_n - ux)
        jy = -(ny / dist_n - uy)
        a += jx * jx
        b += jx * jy
        c += jy * jy
        gx += jx * r
        gy += jy * r
        residuals.append(r)
        jacobian.append((jx, jy))
    det = a * c - b * b
    if det > lsq.ILL_CONDITIONED * (a + c) ** 2:
        return np.array([(b * gy - c * gx) / det, (b * gx - a * gy) / det])
    try:
        step, *_ = np.linalg.lstsq(np.array(jacobian), -np.array(residuals), rcond=None)
    except np.linalg.LinAlgError:
        return None
    return np.array([float(step[0]), float(step[1])])


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
    p = np.array([sum(xs) / len(sts), sum(ys) / len(sts)])
    station_coords = np.array([(s.position.x, s.position.y) for s in sts])
    converged = False
    iterations = 0
    for iterations in range(1, settings.max_iterations + 1):
        if np.any(np.hypot(*(p - station_coords).T) < 1e-12):
            p = p + np.array(lsq.NUDGE_DIRECTION) * settings.step_tolerance_m
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
    # well conditioned, so the closed-form step is the one under test. It
    # must match the lstsq loop to 1e-9 m and the loop on reference_step
    # bit for bit
    cfg = get_preset(preset).with_overrides(trials_per_poi=5)
    stations = sorted(cfg.stations, key=lambda s: s.id)
    layout = check_station_layout(stations)
    solves = 0
    for poi_index in range(len(cfg.pois)):
        for trial_index in range(cfg.trials_per_poi):
            m, _ = emulate_trial_measurements(cfg, poi_index, trial_index)
            lstsq_calls["on"] = True
            candidates = solve_all_references(m, stations, cfg.solver)
            lstsq_calls["on"] = False
            for c, rd in zip(candidates, compute_tdoas(m, layout), strict=True):
                assert c.range_differences == rd
                position, converged, iterations = lstsq_oracle(rd, stations, cfg.solver)
                assert euclidean_distance(c.position, position) < 1e-9
                assert (c.converged, c.iterations_used) == (converged, iterations)
                exact = lstsq_oracle(rd, stations, cfg.solver, reference_step)
                assert (c.position, c.converged, c.iterations_used) == exact
                solves += 1
    assert solves == len(cfg.pois) * 5 * len(stations)
    assert lstsq_calls["count"] == 0


# at (-0.5, 0) the unit vectors to stations 1 and 2 coincide, so the
# station-2 Jacobian row is zero and det(J^T J) = 0; at (-0.5, 1e-4) that row
# is nearly zero and det / trace^2 is 9e-9, and the step is ~5e4 m long
ILL_POSED_STATIONS = [
    BaseStation(1, Position2D(0.0, 0.0)),
    BaseStation(2, Position2D(10.0, 0.0)),
    BaseStation(3, Position2D(0.0, 10.0)),
]
ILL_POSED_RD = range_difference_set(ILL_POSED_STATIONS, 1, {2: 3.0, 3: 1.0})


@pytest.mark.parametrize(
    "start,expected",
    [
        ((-0.5, 0.0), (-4.2562461, 4.47437539)),
        ((-0.5, 1e-4), None),
    ],
)
def test_singular_or_ill_conditioned_step_falls_back_to_lstsq(
    start, expected, lstsq_calls
):
    # the fallback rebuilds its system only when taken, from the same
    # expressions: the step is bit for bit the one a loop that always built
    # it would take
    lstsq_calls["on"] = True
    step = closed_form_step(start, ILL_POSED_RD, ILL_POSED_STATIONS)
    lstsq_calls["on"] = False
    assert lstsq_calls["count"] == 1
    assert list(step) == list(reference_step(start, ILL_POSED_RD, ILL_POSED_STATIONS))
    if expected is not None:
        # the minimum-norm step on the rank-deficient Jacobian
        assert list(step) == pytest.approx(expected, rel=1e-8)
    else:
        assert math.hypot(*step) > 1e4


# three stations on the x axis and a fourth 1 mm off it: J^T J is
# ill-conditioned at the centroid start (8.75, 2.5e-4)
THIN_STATIONS = [
    BaseStation(1, Position2D(0.0, 0.0)),
    BaseStation(2, Position2D(10.0, 0.0)),
    BaseStation(3, Position2D(20.0, 0.0)),
    BaseStation(4, Position2D(5.0, 1e-3)),
]


@pytest.mark.parametrize("reference", [1, 2, 3, 4])
def test_thin_layout_solve_falls_back_to_lstsq(reference, lstsq_calls):
    ue = Position2D(12.0, 5e-4)
    ranges = {s.id: euclidean_distance(ue, s.position) for s in THIN_STATIONS}
    rd = range_difference_set(
        THIN_STATIONS,
        reference,
        {sid: r - ranges[reference] for sid, r in ranges.items() if sid != reference},
    )
    lstsq_calls["on"] = True
    cand = solve_single_reference(rd, check_station_layout(THIN_STATIONS))
    lstsq_calls["on"] = False
    assert lstsq_calls["count"] >= 1
    assert cand.converged
    assert euclidean_distance(cand.position, ue) < 1e-8
    exact = lstsq_oracle(rd, THIN_STATIONS, step_fn=reference_step)
    assert (cand.position, cand.converged, cand.iterations_used) == exact


# the four corners and a fifth station on their centroid, so every solve
# starts on a station and must be nudged off it
CENTRE_STATIONS = [*corner_stations(), BaseStation(5, Position2D(14.5, 12.5))]


def test_start_on_a_station_is_nudged(band):
    layout = check_station_layout(CENTRE_STATIONS)
    assert layout.centroid == (14.5, 12.5)
    for x in (2.0, 9.5, 19.5, 27.0):
        for y in (2.0, 7.0, 18.0, 23.0):
            ue = Position2D(x, y)
            m = exact_measurements(ue, CENTRE_STATIONS, band)
            for c in solve_all_references(m, layout):
                assert euclidean_distance(c.position, ue) < 1e-9
                rd = c.range_differences
                # the station scan the nudge replaced, step for step
                exact = lstsq_oracle(rd, CENTRE_STATIONS, step_fn=closed_form_step)
                assert (c.position, c.converged, c.iterations_used) == exact


def test_mirror_line_fix_left_of_the_start_is_recovered(band):
    # on the layout's mirror line y = 12.5 the iterates cannot leave the
    # line; a nudge along +x leads the centre reference to a stationary
    # point right of the start
    ue = Position2D(9.5, 12.5)
    m = exact_measurements(ue, CENTRE_STATIONS, band)
    for c in solve_all_references(m, CENTRE_STATIONS):
        assert euclidean_distance(c.position, ue) < 1e-9


@st.composite
def centred_halls(draw):
    """Four corner stations of an axis-aligned hall with sides 6-60 m and
    aspect ratio 2/3 to 3/2, a fifth station on their centroid, where the
    hall's two mirror lines cross and every solve starts, and a UE on one
    of the mirror lines, at least 0.5 m from the centre. Integer corners
    keep the centroid and the mirror symmetry exact in floats."""
    half_w = draw(st.integers(3, 30))
    half_h = draw(st.integers(math.ceil(half_w * 2 / 3), math.floor(half_w * 3 / 2)))
    x0, y0 = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    cx, cy = x0 + half_w, y0 + half_h
    corners = [(x0, y0), (cx + half_w, y0), (cx + half_w, cy + half_h), (x0, cy + half_h)]
    stations = [
        BaseStation(i + 1, Position2D(float(x), float(y)))
        for i, (x, y) in enumerate([*corners, (cx, cy)])
    ]
    t = draw(st.floats(0.02, 0.98))
    if draw(st.booleans()):
        ue = Position2D(x0 + t * 2 * half_w, float(cy))
    else:
        ue = Position2D(float(cx), y0 + t * 2 * half_h)
    assume(euclidean_distance(ue, stations[-1].position) >= 0.5)
    return stations, ue


@given(centred_halls())
def test_mirror_line_fixes_of_centred_halls_are_recovered(case):
    # a nudge along either axis keeps the iterates on one of the two mirror
    # lines; the off-axis nudge leaves both
    stations, ue = case
    layout = check_station_layout(stations)
    assert layout.centroid == (stations[-1].position.x, stations[-1].position.y)
    m = exact_measurements(ue, stations, cband_profile())
    for c in solve_all_references(m, layout):
        assert euclidean_distance(c.position, ue) < 1e-9


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
    layout = check_station_layout(stations)
    (rd,) = (r for r in compute_tdoas(m, layout) if r.reference_id == reference)
    cap = cfg.solver.max_iterations

    cand = solve_single_reference(rd, layout, cfg.solver)
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
    deltas = {sid: ranges[sid] - ranges[reference] for sid in ids if sid != reference}
    return range_difference_set(stations, reference, deltas), stations


@settings(max_examples=300)
@given(biased_layouts())
def test_solver_equals_capped_loop_on_biased_layouts(case):
    # same step arithmetic, so the early exit must not change a single bit
    rd, stations = case
    cand = solve_single_reference(rd, check_station_layout(stations))
    position, converged, iterations = lstsq_oracle(rd, stations, step_fn=closed_form_step)
    assert cand.position == position
    assert (cand.converged, cand.iterations_used) == (converged, iterations)


# --- objective ------------------------------------------------------------------

def objective(p, rd, stations):
    """Sum of squared range-difference residuals at position p, in m^2, with
    station coordinates from the station list."""
    index = {s.id: s.position for s in stations}
    dist_e = euclidean_distance(p, index[rd.reference_id])
    return math.fsum(
        (dd - (euclidean_distance(p, index[sid]) - dist_e)) ** 2
        for sid, dd in deltas_by_id(rd, stations).items()
    )


def test_objective_zero_at_truth(stations, band):
    ue = Position2D(11.0, 7.0)
    rd = first_reference(exact_measurements(ue, stations, band), stations)
    assert objective(ue, rd, stations) < 1e-18


def test_objective_zero_for_all_zero_entries_on_bisectors(band):
    stations = [
        BaseStation(1, Position2D(0, 5)),
        BaseStation(2, Position2D(3, 4)),
        BaseStation(3, Position2D(5, 0)),
    ]
    rd = first_reference(exact_measurements(Position2D(0, 0), stations, band), stations)
    assert objective(Position2D(0, 0), rd, stations) < 1e-18


def test_objective_single_perturbed_residual(stations, band):
    ue = Position2D(11.0, 7.0)
    rd = first_reference(exact_measurements(ue, stations, band), stations)
    deltas = deltas_by_id(rd, stations)
    deltas[3] += 1.0
    perturbed = range_difference_set(stations, rd.reference_id, deltas)
    assert objective(ue, perturbed, stations) == pytest.approx(1.0, abs=1e-9)


# --- single-reference solve -------------------------------------------------------

def test_center_ue_recovered_exactly(stations, band):
    ue = Position2D(14.5, 12.5)
    rd = first_reference(exact_measurements(ue, stations, band), stations)
    cand = solve_single_reference(rd, check_station_layout(stations))
    assert euclidean_distance(cand.position, ue) < 1e-6
    assert cand.converged


def test_solution_matches_grid_search_oracle(stations, band):
    ue = Position2D(5.0, 7.0)
    rd = first_reference(exact_measurements(ue, stations, band), stations)
    cand = solve_single_reference(rd, check_station_layout(stations))
    oracle, _ = grid_search_minimum(rd, stations)
    assert euclidean_distance(cand.position, oracle) < 2e-2


def test_minimizer_dominates_truth_under_bias(stations, band):
    ue = Position2D(9.0, 13.0)
    m = exact_measurements(ue, stations, band, biases={3: 10.0})
    rd = first_reference(m, stations)  # reference clean
    cand = solve_single_reference(rd, check_station_layout(stations))
    assert euclidean_distance(cand.position, ue) > 0.1
    assert objective(cand.position, rd, stations) <= objective(ue, rd, stations)


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


# a 1e300 m tolerance let the resolution rule admit ToAs near 3e299 s, whose
# Gauss-Newton sums overflowed: a scenario validated and then hung
@pytest.mark.parametrize("tolerance", [math.nextafter(1.0, 2.0), 2.0, 1e300])
def test_step_tolerance_above_one_meter_is_rejected(tolerance):
    with pytest.raises(ConfigError, match="step_tolerance_m must be > 0 and at most 1 m"):
        SolverSettings(step_tolerance_m=tolerance)


def test_step_tolerance_bound_keeps_admitted_times_under_2_24_s():
    # c * ulp(t) first exceeds 1 m at t = 2**24 s
    loosest = SolverSettings(step_tolerance_m=1.0)
    assert lsq._rounding_m(math.nextafter(2.0**24, 0.0), loosest) is None
    assert lsq._rounding_m(2.0**24, loosest) > 1.0


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
    assert [c.range_differences.reference_id for c in candidates] == [1, 2, 3, 4]
    for c in candidates:
        assert euclidean_distance(c.position, ue) < 1e-6
        assert c.converged


def test_biased_reference_has_largest_residual_norm(stations, band):
    # center-of-hall geometry; the distortion concentrates on the rotation
    # that uses the biased station as its reference
    ue = Position2D(14.5, 12.5)
    m = exact_measurements(ue, stations, band, biases={1: 10.0})
    candidates = solve_all_references(m, stations)
    norms = {c.range_differences.reference_id: residual_norm_m(c) for c in candidates}
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
    rd = first_reference(exact_measurements(ue, stations, band), stations)
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
        rd = first_reference(exact_measurements(ue, stations, band), stations)
        cand = solve_single_reference(rd, check_station_layout(stations))
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

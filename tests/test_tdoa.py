"""Range-difference formation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irlspos import (
    SPEED_OF_LIGHT_M_S,
    BaseStation,
    ConfigError,
    MeasurementSet,
    Position2D,
    euclidean_distance,
)
from irlspos.geometry import check_station_layout
from irlspos.tdoa import compute_tdoas
from conftest import deltas_by_id, exact_measurements, station_layouts

TRIANGLE = [
    BaseStation(1, Position2D(0.0, 0.0)),
    BaseStation(2, Position2D(10.0, 0.0)),
    BaseStation(3, Position2D(0.0, 10.0)),
]


def test_identical_arrivals_give_zero():
    m = MeasurementSet(epoch_id=0, samples=((1, 5e-8), (2, 5e-8), (3, 5e-8)))
    sets = compute_tdoas(m, check_station_layout(TRIANGLE))
    assert [rd.reference_id for rd in sets] == [1, 2, 3]
    for rd in sets:
        assert [dd for _, _, dd in rd.rows] == [0.0, 0.0]


def test_equidistant_stations_give_zero(band):
    stations = [
        BaseStation(1, Position2D(0, 5)),
        BaseStation(2, Position2D(3, 4)),
        BaseStation(3, Position2D(5, 0)),
    ]
    m = exact_measurements(Position2D(0, 0), stations, band)
    for rd in compute_tdoas(m, check_station_layout(stations)):
        for _, _, dd in rd.rows:
            assert dd == pytest.approx(0.0, abs=1e-9)


def test_schedule_offset_is_removed(band):
    # reference at (3,4), second station at (6,8): ranges 5 and 10 from the
    # origin, so the range difference is 5 m once the 10 ms stagger is gone
    stations = [
        BaseStation(1, Position2D(3, 4)),
        BaseStation(2, Position2D(6, 8)),
        BaseStation(3, Position2D(0, 5)),
    ]
    m = exact_measurements(
        Position2D(0, 0), stations, band, schedule_period_s=0.010
    )
    rd = compute_tdoas(m, check_station_layout(stations))[0]
    deltas = deltas_by_id(rd, stations)
    assert deltas[2] == pytest.approx(5.0, abs=1e-6)
    assert deltas[3] == pytest.approx(0.0, abs=1e-6)


def test_zero_noise_tdoas_match_prediction(stations, band):
    rng = np.random.default_rng(10)
    index = {s.id: s for s in stations}
    layout = check_station_layout(stations)
    for _ in range(20):
        ue = Position2D(*rng.uniform([1, 1], [28, 24]))
        m = exact_measurements(ue, stations, band)
        for rd in compute_tdoas(m, layout):
            for sid, dd in deltas_by_id(rd, stations).items():
                expected = euclidean_distance(ue, index[sid].position) - euclidean_distance(
                    ue, index[rd.reference_id].position
                )
                assert dd == pytest.approx(expected, abs=1e-12)


def test_zero_noise_tdoas_match_prediction_with_stagger(stations, band):
    # the 10 ms stagger dominates the ~1e-7 s flight times; cancelling it
    # costs ~1e-18 s of float resolution, i.e. sub-nanometer in range
    ue = Position2D(8.0, 17.0)
    index = {s.id: s for s in stations}
    m = exact_measurements(ue, stations, band, schedule_period_s=0.010)
    for rd in compute_tdoas(m, check_station_layout(stations)):
        for sid, dd in deltas_by_id(rd, stations).items():
            expected = euclidean_distance(ue, index[sid].position) - euclidean_distance(
                ue, index[rd.reference_id].position
            )
            assert dd == pytest.approx(expected, abs=1e-7)


def test_rows_exclude_reference_and_sort():
    # the measurement set sorts its samples once; the rows keep that order
    m = MeasurementSet(epoch_id=0, samples=((3, 3e-8), (1, 1e-8), (2, 2e-8)))
    rd = compute_tdoas(m, check_station_layout(TRIANGLE))[1]
    assert rd.reference_id == 2
    assert rd.reference == (10.0, 0.0)
    assert [(x, y) for x, y, _ in rd.rows] == [(0.0, 0.0), (0.0, 10.0)]


@given(
    stations=station_layouts(),
    flight_s=st.lists(st.floats(0.0, 2e-7), min_size=8, max_size=8),
    period_s=st.floats(0.0, 0.02),
)
def test_formation_over_drawn_layouts(stations, flight_s, period_s):
    # one set per reference, ascending; each row holds the coordinates of the
    # station it stands for and the schedule-corrected arrival difference
    samples = tuple(
        (s.id, (s.id - 1) * period_s + t) for s, t in zip(stations, flight_s)
    )
    m = MeasurementSet(epoch_id=0, samples=samples, schedule_period_s=period_s)
    sets = compute_tdoas(m, check_station_layout(stations))
    ids = sorted(s.id for s in stations)
    position = {s.id: s.position for s in stations}
    toas = dict(m.samples)
    assert [rd.reference_id for rd in sets] == ids
    delta = {}
    for rd in sets:
        e = rd.reference_id
        assert rd.reference == (position[e].x, position[e].y)
        others = [n for n in ids if n != e]
        assert len(rd.rows) == len(ids) - 1
        for n, (x, y, dd) in zip(others, rd.rows):
            assert (x, y) == (position[n].x, position[n].y)
            assert dd == SPEED_OF_LIGHT_M_S * ((toas[n] - toas[e]) - m.transmission_offset(n, e))
            delta[n, e] = dd
    for (n, e), dd in delta.items():
        assert dd == pytest.approx(-delta[e, n], abs=1e-9)


@pytest.mark.parametrize(
    "reference_id,entries",
    [(1, ((2.7, 1.0), (3, 2.0))), (1, ((True, 1.0), (3, 2.0))), (1.5, ((2, 1.0), (3, 2.0)))],
)
def test_non_integer_station_ids_rejected(reference_id, entries):
    # station ids reach range differences only through a measurement set,
    # which rejects them; 2.7 used to be stored as station 2
    with pytest.raises(ConfigError, match="station id must be an integer"):
        MeasurementSet(epoch_id=0, samples=((reference_id, 0.0), *entries))

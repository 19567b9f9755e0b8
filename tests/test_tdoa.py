"""Range-difference formation."""

import numpy as np
import pytest

from irlspos import (
    BaseStation,
    ConfigError,
    MeasurementSet,
    Position2D,
    euclidean_distance,
)
from irlspos.tdoa import compute_tdoas
from conftest import exact_measurements


def test_identical_arrivals_give_zero():
    m = MeasurementSet(epoch_id=0, samples=((1, 5e-8), (2, 5e-8), (3, 5e-8)))
    rd = compute_tdoas(m, 1)
    assert [sid for sid, _ in rd.entries] == [2, 3]
    for _, dd in rd.entries:
        assert dd == 0.0


def test_equidistant_stations_give_zero(band):
    stations = [
        BaseStation(1, Position2D(0, 5)),
        BaseStation(2, Position2D(3, 4)),
        BaseStation(3, Position2D(5, 0)),
    ]
    m = exact_measurements(Position2D(0, 0), stations, band)
    rd = compute_tdoas(m, 1)
    for _, dd in rd.entries:
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
    rd = compute_tdoas(m, 1)
    deltas = dict(rd.entries)
    assert deltas[2] == pytest.approx(5.0, abs=1e-6)
    assert deltas[3] == pytest.approx(0.0, abs=1e-6)


def test_zero_noise_tdoas_match_prediction(stations, band):
    rng = np.random.default_rng(10)
    index = {s.id: s for s in stations}
    for _ in range(20):
        ue = Position2D(*rng.uniform([1, 1], [28, 24]))
        m = exact_measurements(ue, stations, band)
        for ref in index:
            rd = compute_tdoas(m, ref)
            for sid, dd in rd.entries:
                expected = euclidean_distance(ue, index[sid].position) - euclidean_distance(
                    ue, index[ref].position
                )
                assert dd == pytest.approx(expected, abs=1e-12)


def test_zero_noise_tdoas_match_prediction_with_stagger(stations, band):
    # the 10 ms stagger dominates the ~1e-7 s flight times; cancelling it
    # costs ~1e-18 s of float resolution, i.e. sub-nanometer in range
    ue = Position2D(8.0, 17.0)
    index = {s.id: s for s in stations}
    m = exact_measurements(ue, stations, band, schedule_period_s=0.010)
    for ref in index:
        for sid, dd in compute_tdoas(m, ref).entries:
            expected = euclidean_distance(ue, index[sid].position) - euclidean_distance(
                ue, index[ref].position
            )
            assert dd == pytest.approx(expected, abs=1e-7)


def test_entries_exclude_reference_and_sort():
    # the measurement set sorts its samples once; the entries keep that order
    m = MeasurementSet(epoch_id=0, samples=((3, 3e-8), (1, 1e-8), (2, 2e-8)))
    rd = compute_tdoas(m, 2)
    assert rd.reference_id == 2
    assert [sid for sid, _ in rd.entries] == [1, 3]


@pytest.mark.parametrize(
    "reference_id,entries",
    [(1, ((2.7, 1.0), (3, 2.0))), (1, ((True, 1.0), (3, 2.0))), (1.5, ((2, 1.0), (3, 2.0)))],
)
def test_non_integer_station_ids_rejected(reference_id, entries):
    # station ids reach range differences only through a measurement set,
    # which rejects them; 2.7 used to be stored as station 2
    with pytest.raises(ConfigError, match="station id must be an integer"):
        MeasurementSet(epoch_id=0, samples=((reference_id, 0.0), *entries))

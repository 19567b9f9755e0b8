"""Distance, noise-free ToA model, and the station-layout check."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from irlspos import (
    SPEED_OF_LIGHT_M_S,
    BaseStation,
    ConfigError,
    GeometryError,
    Position2D,
    euclidean_distance,
    geometry,
    irls_position,
    run_batch,
)
from irlspos.geometry import check_station_layout
from irlspos.presets import get_preset
from conftest import exact_measurements, true_first_toa


def test_distance_identity():
    assert euclidean_distance(Position2D(0, 0), Position2D(0, 0)) == 0.0


def test_distance_3_4_5():
    assert euclidean_distance(Position2D(0, 0), Position2D(3, 4)) == 5.0


def test_distance_3_4_5_translated():
    assert euclidean_distance(Position2D(1, 1), Position2D(-2, 5)) == 5.0


def test_toa_3_4_5():
    bs = BaseStation(1, Position2D(3, 4))
    toa = true_first_toa(Position2D(0, 0), bs)
    assert toa == pytest.approx(5.0 / SPEED_OF_LIGHT_M_S, rel=1e-15)
    assert toa == pytest.approx(1.6678e-8, rel=1e-4)


def test_toa_colocated_is_zero():
    bs = BaseStation(1, Position2D(10, 10))
    assert true_first_toa(Position2D(10, 10), bs) == 0.0


def test_toa_aoi_corner():
    # direct evaluation of the propagation model at the far corner
    expected = math.sqrt(1466.0) / SPEED_OF_LIGHT_M_S
    bs = BaseStation(1, Position2D(29, 25))
    assert true_first_toa(Position2D(0, 0), bs) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(1.2771628643891133e-07, rel=1e-15)


def test_distance_symmetry_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = Position2D(*rng.uniform(-100, 100, 2))
        b = Position2D(*rng.uniform(-100, 100, 2))
        assert euclidean_distance(a, b) == euclidean_distance(b, a)


def test_triangle_inequality_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = (Position2D(*rng.uniform(-50, 50, 2)) for _ in range(3))
        assert euclidean_distance(a, c) <= (
            euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-12
        )


def test_toa_scales_linearly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ue = rng.uniform(-20, 20, 2)
        bs = rng.uniform(-20, 20, 2)
        toa = true_first_toa(Position2D(*ue), BaseStation(1, Position2D(*bs)))
        toa2 = true_first_toa(Position2D(*(2 * ue)), BaseStation(1, Position2D(*(2 * bs))))
        assert toa2 == pytest.approx(2 * toa, rel=1e-12)


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position2D(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Position2D(0.0, float("inf"))


# a coordinate set in code is checked like a scenario field: TypeError from
# math.isfinite used to escape for text, None and lists
@pytest.mark.parametrize("coordinate", ["x", "y"])
@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), "a", "1", None, [1.0], 10**400],
    ids=["nan", "inf", "text", "numeric-text", "none", "list", "huge-int"],
)
def test_position_rejects_malformed_coordinates(coordinate, value):
    with pytest.raises(ConfigError, match=f"coordinate {coordinate} must be a finite number"):
        Position2D(**{"x": 1.0, "y": 2.0, coordinate: value})


def test_layout_needs_three_stations():
    sts = [BaseStation(1, Position2D(0, 0)), BaseStation(2, Position2D(1, 0))]
    with pytest.raises(GeometryError, match="under-determined"):
        check_station_layout(sts)


def test_layout_rejects_duplicate_ids():
    sts = [
        BaseStation(1, Position2D(0, 0)),
        BaseStation(1, Position2D(1, 0)),
        BaseStation(2, Position2D(0, 1)),
    ]
    with pytest.raises(GeometryError, match="unique"):
        check_station_layout(sts)


def test_layout_rejects_collinear():
    sts = [BaseStation(i, Position2D(float(i), 2.0 * i)) for i in range(1, 5)]
    with pytest.raises(GeometryError, match="collinear"):
        check_station_layout(sts)


def test_layout_sorts_by_id(stations):
    shuffled = [stations[2], stations[0], stations[3], stations[1]]
    layout = check_station_layout(shuffled)
    assert layout.ids == (1, 2, 3, 4)
    assert layout.coords == ((0.0, 0.0), (29.0, 0.0), (29.0, 25.0), (0.0, 25.0))
    assert layout.box == (0.0, 0.0, 29.0, 25.0)
    assert layout.solve_box(1.0) == (-1.0, -1.0, 30.0, 26.0)
    assert check_station_layout(layout) is layout


def test_shared_layout_cannot_be_changed(stations):
    layout = check_station_layout(stations)
    coords = ((0.0, 0.0), (29.0, 0.0), (29.0, 25.0), (0.0, 25.0))
    for name in ("ids", "coords", "box", "centroid", "diagonal"):
        with pytest.raises(FrozenInstanceError):
            setattr(layout, name, ())
    stations.append(BaseStation(5, Position2D(9.0, 9.0)))
    assert layout.ids == (1, 2, 3, 4) and layout.coords == coords
    assert check_station_layout(stations[:4]) is layout
    stations[0] = BaseStation(9, Position2D(5.0, 5.0))
    assert layout.ids == (1, 2, 3, 4) and layout.coords == coords


@pytest.fixture
def collinearity_tests(monkeypatch):
    """Counts the collinearity tests, one per layout check, starting from an
    empty memo of checked layouts."""
    calls = {"count": 0}
    original = geometry._all_collinear

    def counting(stations):
        calls["count"] += 1
        return original(stations)

    monkeypatch.setattr(geometry, "_all_collinear", counting)
    geometry._checked_layouts.clear()
    return calls


def test_layout_is_checked_once_per_fix(stations, band, collinearity_tests):
    m = exact_measurements(Position2D(10.0, 10.0), stations, band)
    irls_position(m, stations)
    assert collinearity_tests["count"] == 1


def test_layout_is_checked_once_per_station_tuple(stations, band, collinearity_tests):
    m = exact_measurements(Position2D(10.0, 10.0), stations, band)
    first = irls_position(m, stations)
    # the same list again, as a tuple, and equal stations built anew
    rebuilt = [BaseStation(s.id, Position2D(s.position.x, s.position.y)) for s in stations]
    for same in (stations, tuple(stations), rebuilt):
        assert irls_position(m, same) == first
    assert collinearity_tests["count"] == 1
    # another order is another tuple, checked once more to an equal layout
    assert irls_position(m, stations[::-1]) == first
    assert collinearity_tests["count"] == 2


def test_failing_layout_check_is_repeated(collinearity_tests):
    sts = [BaseStation(i, Position2D(float(i), 2.0 * i)) for i in range(1, 5)]
    for count in (1, 2):
        with pytest.raises(GeometryError, match="collinear"):
            check_station_layout(sts)
        assert collinearity_tests["count"] == count


@pytest.mark.parametrize("trials", [1, 3])
def test_layout_is_checked_once_per_batch(trials, collinearity_tests):
    cfg = get_preset("semidynamic_cband").with_overrides(trials_per_poi=trials)
    # the config's own check filled the memo
    collinearity_tests["count"] = 0
    geometry._checked_layouts.clear()
    run_batch(cfg)
    assert collinearity_tests["count"] == 1

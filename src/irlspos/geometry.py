"""Planar geometry primitives, scalar readers and the checked station layout.

All solver math is strictly 2D. Distances are in meters, times in seconds.
``SPEED_OF_LIGHT_M_S`` is the single source of truth for every
time/distance conversion in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .errors import ConfigError, GeometryError

SPEED_OF_LIGHT_M_S = 299_792_458.0

# minimum stations for a 2D range-difference fix
MIN_STATIONS = 3

# distinct station tuples whose checked layout is kept for reuse
CHECKED_LAYOUTS = 8


@dataclass(frozen=True)
class Position2D:
    """A point in the horizontal plane, in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        try:
            if math.isfinite(self.x) and math.isfinite(self.y):
                return
        except (TypeError, OverflowError):
            pass
        name = "y" if _is_finite(self.x) else "x"
        raise ConfigError(f"coordinate {name} must be a finite number, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class BaseStation:
    """An anchor with a scenario-unique integer id and a fixed 2D position."""

    id: int
    position: Position2D

    def __post_init__(self) -> None:
        if not is_int(self.id):
            raise ConfigError(f"station id must be an integer, got {self.id!r}")


def euclidean_distance(a: Position2D, b: Position2D) -> float:
    """Straight-line distance between two points, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def _is_finite(value: object) -> bool:
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def is_int(value: object) -> bool:
    """True for an int that is not a bool: the rule for station ids and counts."""
    return isinstance(value, int) and not isinstance(value, bool)


# The scalar readers below are the one type rule for scenario and settings
# fields, whether a value comes from a YAML file or from code.


def as_number(value: Any, what: str) -> float:
    """A finite real scalar. Numeric strings count, since YAML reads an
    exponent without a decimal point, such as 1e-6, as a string."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(f"{what}: expected a finite number, got {value!r}")


def as_integer(value: Any, what: str) -> int:
    """An integer scalar; an integral float such as 50.0 counts, a fraction
    or a string does not."""
    if is_int(value):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{what}: expected an integer, got {value!r}")


def read_fields(obj: object, read: Callable[[Any, str], Any], *names: str) -> None:
    """Replace each named field of the frozen dataclass ``obj`` by what
    ``read`` returns for it, so the instance holds typed values."""
    for name in names:
        object.__setattr__(obj, name, read(getattr(obj, name), name))


@dataclass(frozen=True)
class StationLayout:
    """A checked layout: the station ``ids`` ascending, which is the
    canonical station order everywhere, and their ``(x, y)`` ``coords`` in
    that order, ``box`` = (min_x, min_y, max_x, max_y), the station
    ``centroid`` (x, y) and the box ``diagonal``. Only
    :func:`check_station_layout` builds one, so holding one means the check
    ran. A layout is shared by every caller that checks an equal station
    tuple, so nothing in it can be changed."""

    ids: tuple[int, ...]
    coords: tuple[tuple[float, float], ...]
    box: tuple[float, float, float, float]
    centroid: tuple[float, float]
    diagonal: float

    def solve_box(self, margin: float) -> tuple[float, float, float, float]:
        """(lo_x, lo_y, hi_x, hi_y): the box widened by ``margin`` meters."""
        min_x, min_y, max_x, max_y = self.box
        return min_x - margin, min_y - margin, max_x + margin, max_y + margin


def check_station_layout(
    stations: Iterable[BaseStation] | StationLayout,
) -> StationLayout:
    """Validate a station layout for positioning; a layout passes through.

    Raises GeometryError when there are fewer than ``MIN_STATIONS``
    stations, when ids repeat, or when all stations are collinear (a
    collinear layout leaves the fix ambiguous across the line of anchors).

    Stations and their positions are frozen, so the layout of a station
    tuple is kept, and an equal tuple, in the same order, gets the same
    layout without a second check. The last ``CHECKED_LAYOUTS`` distinct
    tuples are kept; a failing check keeps nothing.
    """
    if isinstance(stations, StationLayout):
        return stations
    key = tuple(stations)
    # the same station objects compare equal by identity, without a hash
    for checked, layout in _checked_layouts:
        if checked == key:
            return layout
    layout = _check(key)
    _checked_layouts.insert(0, (key, layout))
    del _checked_layouts[CHECKED_LAYOUTS:]
    return layout


# (station tuple, its layout), the latest first; threads that race on it at
# worst check an equal tuple twice
_checked_layouts: list[tuple[tuple[BaseStation, ...], StationLayout]] = []


def _check(stations: tuple[BaseStation, ...]) -> StationLayout:
    sts = sorted(stations, key=lambda s: s.id)
    if len(sts) < MIN_STATIONS:
        raise GeometryError(
            f"under-determined geometry: need at least {MIN_STATIONS} stations, got {len(sts)}"
        )
    ids = tuple(s.id for s in sts)
    if len(set(ids)) != len(ids):
        raise GeometryError(f"station ids must be unique, got {list(ids)}")
    if _all_collinear(sts):
        raise GeometryError("stations are collinear; 2D position is not solvable")
    xs = [s.position.x for s in sts]
    ys = [s.position.y for s in sts]
    min_x, min_y, max_x, max_y = min(xs), min(ys), max(xs), max(ys)
    return StationLayout(
        ids,
        tuple(zip(xs, ys)),
        (min_x, min_y, max_x, max_y),
        (sum(xs) / len(xs), sum(ys) / len(ys)),
        math.hypot(max_x - min_x, max_y - min_y),
    )


def _all_collinear(stations: Sequence[BaseStation]) -> bool:
    a = stations[0].position
    b = stations[1].position
    scale = max(euclidean_distance(a, s.position) for s in stations) or 1.0
    for s in stations[2:]:
        p = s.position
        cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
        if abs(cross) > 1e-9 * scale * scale:
            return False
    return True

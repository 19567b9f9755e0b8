"""Planar geometry primitives and the noise-free time-of-arrival model.

All solver math is strictly 2D. Distances are in meters, times in seconds.
``SPEED_OF_LIGHT_M_S`` is the single source of truth for every
time/distance conversion in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import GeometryError

SPEED_OF_LIGHT_M_S = 299_792_458.0

# minimum stations for a 2D range-difference fix
MIN_STATIONS = 3


@dataclass(frozen=True)
class Position2D:
    """A point in the horizontal plane, in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class BaseStation:
    """An anchor with a scenario-unique integer id and a fixed 2D position."""

    id: int
    position: Position2D

    def __post_init__(self) -> None:
        if not is_int(self.id):
            raise ValueError(f"station id must be an integer, got {self.id!r}")


def euclidean_distance(a: Position2D, b: Position2D) -> float:
    """Straight-line distance between two points, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def true_first_toa(ue: Position2D, bs: BaseStation) -> float:
    """Propagation time of the direct path from a station to the UE, in seconds."""
    return euclidean_distance(ue, bs.position) / SPEED_OF_LIGHT_M_S


def is_int(value: object) -> bool:
    """True for an int that is not a bool: the rule for station ids and counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def sorted_stations(stations: Iterable[BaseStation]) -> list[BaseStation]:
    """Stations in ascending id order; the canonical iteration order everywhere."""
    return sorted(stations, key=lambda s: s.id)


@dataclass(frozen=True)
class StationLayout:
    """A checked layout: ``stations`` by ascending id, ``positions`` by id in
    that order, ``box`` = (min_x, min_y, max_x, max_y). Only
    :func:`check_station_layout` builds one, so holding one means the check ran."""

    stations: tuple[BaseStation, ...]
    positions: Mapping[int, Position2D]
    box: tuple[float, float, float, float]

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
    """
    if isinstance(stations, StationLayout):
        return stations
    sts = tuple(sorted_stations(stations))
    if len(sts) < MIN_STATIONS:
        raise GeometryError(
            f"under-determined geometry: need at least {MIN_STATIONS} stations, got {len(sts)}"
        )
    positions = {s.id: s.position for s in sts}
    if len(positions) != len(sts):
        raise GeometryError(f"station ids must be unique, got {[s.id for s in sts]}")
    if _all_collinear(sts):
        raise GeometryError("stations are collinear; 2D position is not solvable")
    xs = [p.x for p in positions.values()]
    ys = [p.y for p in positions.values()]
    return StationLayout(sts, positions, (min(xs), min(ys), max(xs), max(ys)))


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

"""Planar geometry primitives and the noise-free time-of-arrival model.

All solver math is strictly 2D. Distances are in meters, times in seconds.
``SPEED_OF_LIGHT_M_S`` is the single source of truth for every
time/distance conversion in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        if not isinstance(self.id, int) or isinstance(self.id, bool):
            raise ValueError(f"station id must be an integer, got {self.id!r}")


def euclidean_distance(a: Position2D, b: Position2D) -> float:
    """Straight-line distance between two points, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def true_first_toa(ue: Position2D, bs: BaseStation) -> float:
    """Propagation time of the direct path from a station to the UE, in seconds."""
    return euclidean_distance(ue, bs.position) / SPEED_OF_LIGHT_M_S


def sorted_stations(stations: Iterable[BaseStation]) -> list[BaseStation]:
    """Stations in ascending id order; the canonical iteration order everywhere."""
    return sorted(stations, key=lambda s: s.id)


def check_station_layout(
    stations: Sequence[BaseStation], min_count: int = MIN_STATIONS
) -> list[BaseStation]:
    """Validate a station layout for positioning and return it sorted by id.

    Raises GeometryError when there are fewer than ``min_count`` stations,
    when ids repeat, or when all stations are collinear (a collinear layout
    leaves the fix ambiguous across the line of anchors).
    """
    sts = sorted_stations(stations)
    if len(sts) < min_count:
        raise GeometryError(
            f"under-determined geometry: need at least {min_count} stations, got {len(sts)}"
        )
    ids = [s.id for s in sts]
    if len(set(ids)) != len(ids):
        raise GeometryError(f"station ids must be unique, got {ids}")
    if _all_collinear(sts):
        raise GeometryError("stations are collinear; 2D position is not solvable")
    return sts


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


def station_bounding_box(
    stations: Sequence[BaseStation],
) -> tuple[float, float, float, float]:
    """(min_x, min_y, max_x, max_y) over the station positions."""
    xs = [s.position.x for s in stations]
    ys = [s.position.y for s in stations]
    return min(xs), min(ys), max(xs), max(ys)

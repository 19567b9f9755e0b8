"""Formation of reference-relative range differences from raw arrivals.

Range differences are kept SIGNED throughout: once the known transmit
stagger is removed, the sign of the arrival difference carries geometric
information that the squared-error objective needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import MeasurementSet
from .errors import GeometryError
from .geometry import MIN_STATIONS, SPEED_OF_LIGHT_M_S, is_int


@dataclass(frozen=True)
class RangeDifferenceSet:
    """Signed range differences of every station relative to one reference.

    ``entries`` holds ``(station_id, delta_d_m)`` for each non-reference
    station, ascending by id; exactly N-1 entries for an N-station epoch.
    """

    reference_id: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        for sid in (self.reference_id, *(sid for sid, _ in self.entries)):
            if not is_int(sid):
                raise ValueError(f"station id must be an integer, got {sid!r}")
        ordered = tuple(sorted((sid, float(dd)) for sid, dd in self.entries))
        object.__setattr__(self, "entries", ordered)
        ids = [sid for sid, _ in ordered]
        if self.reference_id in ids:
            raise ValueError(f"reference station {self.reference_id} must not appear in entries")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate station ids in range differences: {ids}")
        for sid, dd in ordered:
            if not math.isfinite(dd):
                raise ValueError(f"non-finite range difference for station {sid}")

    @property
    def station_ids(self) -> tuple[int, ...]:
        return tuple(sid for sid, _ in self.entries)


def compute_tdoas(m: MeasurementSet, reference_id: int) -> RangeDifferenceSet:
    """Range differences delta_d = c * ((toa_n - toa_e) - delta_ne).

    The transmit-schedule offset delta_ne is known exactly (synchronized
    stations) and cancels out of the arrival difference before scaling by
    the speed of light.
    """
    ids = m.station_ids
    if reference_id not in ids:
        raise ValueError(f"unknown reference station id {reference_id}; have {ids}")
    if len(ids) < MIN_STATIONS:
        raise GeometryError(
            f"need at least {MIN_STATIONS} stations for TDoA, got {len(ids)}"
        )
    toa_e = m.toa(reference_id)
    entries = []
    for sid in ids:
        if sid == reference_id:
            continue
        offset = m.transmission_offset(sid, reference_id)
        delta_d = SPEED_OF_LIGHT_M_S * ((m.toa(sid) - toa_e) - offset)
        entries.append((sid, delta_d))
    return RangeDifferenceSet(reference_id=reference_id, entries=tuple(entries))

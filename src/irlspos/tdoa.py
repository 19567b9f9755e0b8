"""Formation of reference-relative range differences from raw arrivals.

Range differences are kept SIGNED throughout: once the known transmit
stagger is removed, the sign of the arrival difference carries geometric
information that the squared-error objective needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import MeasurementSet
from .geometry import SPEED_OF_LIGHT_M_S


@dataclass(frozen=True)
class RangeDifferenceSet:
    """Signed range differences of every station relative to one reference.

    ``entries`` holds ``(station_id, delta_d_m)`` for each non-reference
    station, ascending by id; exactly N-1 entries for an N-station epoch.
    In the library only :func:`compute_tdoas` builds one, from a checked
    measurement set, so these hold without a check of their own.
    """

    reference_id: int
    entries: tuple[tuple[int, float], ...]


def compute_tdoas(m: MeasurementSet, reference_id: int) -> RangeDifferenceSet:
    """Range differences delta_d = c * ((toa_n - toa_e) - delta_ne).

    The transmit-schedule offset delta_ne is known exactly (synchronized
    stations) and cancels out of the arrival difference before scaling by
    the speed of light. The ToAs are read from one id -> ToA map, ascending
    by id as the checked measurement set holds them; ``reference_id`` must be
    one of its stations.
    """
    toas = dict(m.samples)
    toa_e = toas[reference_id]
    entries = []
    for sid, toa in toas.items():
        if sid == reference_id:
            continue
        offset = m.transmission_offset(sid, reference_id)
        delta_d = SPEED_OF_LIGHT_M_S * ((toa - toa_e) - offset)
        entries.append((sid, delta_d))
    return RangeDifferenceSet(reference_id=reference_id, entries=tuple(entries))

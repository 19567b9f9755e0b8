"""Formation of reference-relative range differences from raw arrivals.

One pass over an epoch forms every reference's set, each in the form the
solver and the reweighting loop read: the reference's coordinates, and one
row (x_n, y_n, delta_d_n) per other station. These are the rows of the
Taylor-series iteration of Foy (IEEE Trans. AES, 1976).

Range differences are kept SIGNED throughout: once the known transmit
stagger is removed, the sign of the arrival difference carries geometric
information that the squared-error objective needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import MeasurementSet
from .geometry import SPEED_OF_LIGHT_M_S, StationLayout


@dataclass(frozen=True)
class RangeDifferenceSet:
    """Signed range differences of every station relative to one reference.

    ``reference`` is the reference's (x_e, y_e); ``rows`` holds one
    (x_n, y_n, delta_d_n) per other station, ascending by id: exactly N-1
    rows for an N-station epoch. In the library only :func:`compute_tdoas`
    builds one, from a checked measurement set and layout, so these hold
    without a check of their own.
    """

    reference_id: int
    reference: tuple[float, float]
    rows: tuple[tuple[float, float, float], ...]


def compute_tdoas(m: MeasurementSet, layout: StationLayout) -> tuple[RangeDifferenceSet, ...]:
    """Every reference's set, ascending by reference id, with
    delta_d = c * ((toa_n - toa_e) - delta_ne).

    The transmit-schedule offset delta_ne = (n - e) * schedule period is
    known exactly (synchronized stations) and cancels out of the arrival
    difference before scaling by the speed of light. ``m`` must hold exactly
    the layout's stations; both ascend by id, so sample k belongs to the
    layout's k-th station.
    """
    c = SPEED_OF_LIGHT_M_S
    period = m.schedule_period_s
    samples = m.samples
    coords = layout.coords
    sets = []
    for (e, toa_e), reference in zip(samples, coords):
        rows = tuple([
            (x, y, c * ((toa_n - toa_e) - (n - e) * period))
            for (n, toa_n), (x, y) in zip(samples, coords)
            if n != e
        ])
        sets.append(RangeDifferenceSet(e, reference, rows))
    return tuple(sets)

"""Single-reference nonlinear least-squares position solver.

Gauss-Newton on the signed range-difference residuals with an analytic
Jacobian (the Taylor-series iteration of Foy, IEEE Trans. AES, 1976). The
unknown is a 2D point, so each step accumulates the five sums of J^T J and
J^T r in plain floats and solves J^T J s = -J^T r in closed form by
Cramer's rule; it keeps no residual vector or Jacobian. Where J^T J is
singular or ill-conditioned (its determinant is at most ``ILL_CONDITIONED``
times its squared trace, i.e. a condition number above about 1e6), the step
falls back to ``np.linalg.lstsq`` on J s = -r at the same iterate, whose
minimum-norm solution is well defined on a rank-deficient Jacobian. Only
then is that system built, from the same expressions, so the fallback step
is the one a loop that always built it would take.

Three guards keep candidates usable on outlier-contaminated epochs, where
the objective can lose its finite minimizer along a hyperbola asymptote:

* steps longer than the station bounding-box diagonal are halved;
* iterates are clamped to the bounding box expanded by a configurable
  margin (the solve region; UEs are assumed to live among the anchors);
* an iterate within ``NUDGE_RADIUS_M`` of a station (undefined Jacobian)
  is nudged by one step tolerance along the unit vector ``NUDGE_DIRECTION``,
  which is off both axes: on a mirror line of a layout the iterates cannot
  leave the line, so a nudge along an axis-parallel mirror line could lead
  the solve to a stationary point on it instead of the fix. The step itself
  reports a station: it computes the distance to every station anyway and
  returns None. The loop then nudges and retries once, and a second None
  ends the solve.

Once the clip has acted, a solve can end pinned to the box edge, where the
raw step never falls under the tolerance and the loop would run to its
iteration cap. One iteration maps the iterate (x, y) to the next through the
nudge, the step, the halving and the clip, and depends on nothing else. So
once an iterate repeats, every later one repeats with the same period, and
the iterate at the cap is known. The loop records iterates from the first
clip on and returns that iterate as soon as one repeats: the result equals,
bit for bit, the one the capped loop would return. A cycle it does not
notice only costs time.

Every solve starts from the station centroid, which lies inside the convex
hull for corner-mounted anchors and avoids the wrong hyperbola branch in
typical layouts. The start, the step cap (the box diagonal) and the box come
from the checked :class:`~irlspos.geometry.StationLayout`, which computes
them once per layout. The rows each step reads are those of one
:class:`~irlspos.tdoa.RangeDifferenceSet`, formed with every other
reference's in one pass over the epoch. Each candidate carries its set, so
the reweighting stage reads it instead of forming it again. An epoch is
checked once, at the fix's edge: its
:class:`~irlspos.channel.MeasurementSet` when it is built, and its station
ids against the layout and its ToAs against the step tolerance in
:func:`solve_all_references`. Range differences are formed below that edge
without further checks. A plain station list is checked there too, once
per distinct station tuple (:func:`~irlspos.geometry.check_station_layout`),
so a fix does only per-epoch work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .channel import MeasurementSet
from .errors import ConfigError
from .geometry import (
    SPEED_OF_LIGHT_M_S,
    BaseStation,
    Position2D,
    StationLayout,
    as_integer,
    as_number,
    check_station_layout,
    read_fields,
)
from .tdoa import RangeDifferenceSet, compute_tdoas

# det(J^T J) / trace(J^T J)^2 at or below which a step takes the lstsq path;
# it bounds the condition number of J^T J at about 1 / ILL_CONDITIONED
ILL_CONDITIONED = 1e-6

# an iterate closer than this to a station is nudged off it, in meters
NUDGE_RADIUS_M = 1e-12

# the unit vector it is nudged along, in step tolerances
NUDGE_DIRECTION = (0.8, 0.6)


@dataclass(frozen=True)
class SolverSettings:
    """Gauss-Newton controls. ``bounds_margin_m`` sets how far outside the
    station bounding box iterates may travel; every solve starts from the
    station centroid."""

    max_iterations: int = 50
    step_tolerance_m: float = 1e-6
    bounds_margin_m: float = 1.0

    def __post_init__(self) -> None:
        read_fields(self, as_integer, "max_iterations")
        read_fields(self, as_number, "step_tolerance_m", "bounds_margin_m")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if self.step_tolerance_m <= 0:
            raise ConfigError(f"step_tolerance_m must be > 0, got {self.step_tolerance_m!r}")
        if self.bounds_margin_m < 0:
            raise ConfigError(f"bounds_margin_m must be >= 0, got {self.bounds_margin_m!r}")


# the settings a solve without its own uses
DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class CandidateEstimate:
    """Position estimate obtained with one particular reference station,
    with the range differences it was solved from."""

    position: Position2D
    converged: bool
    iterations_used: int
    range_differences: RangeDifferenceSet

    @property
    def reference_id(self) -> int:
        return self.range_differences.reference_id


def _gauss_newton_step(x: float, y: float, rd: RangeDifferenceSet) -> tuple[float, float] | None:
    """The step s minimizing ||J s + r|| at p = (x, y).

    r_n = delta_d_n - (||p - q_n|| - ||p - q_e||) and the Jacobian row is
    dr_n/dp = -((p - q_n)/||p - q_n|| - (p - q_e)/||p - q_e||). Only the
    normal-equation sums are kept; the residuals and Jacobian are built only
    when the lstsq fallback is taken. None where p lies within
    ``NUDGE_RADIUS_M`` of a station (the Jacobian is undefined on one) or
    the lstsq fallback fails to converge.
    """
    hypot, radius = math.hypot, NUDGE_RADIUS_M
    rx, ry = rd.reference
    ex, ey = x - rx, y - ry
    dist_e = hypot(ex, ey)
    if dist_e < radius:
        return None
    ux, uy = ex / dist_e, ey / dist_e
    a = b = c = gx = gy = 0.0
    for qx, qy, dd in rd.rows:
        nx, ny = x - qx, y - qy
        dist_n = hypot(nx, ny)
        if dist_n < radius:
            return None
        r = dd - (dist_n - dist_e)
        jx = -(nx / dist_n - ux)
        jy = -(ny / dist_n - uy)
        a += jx * jx
        b += jx * jy
        c += jy * jy
        gx += jx * r
        gy += jy * r
    det = a * c - b * b
    if det > ILL_CONDITIONED * (a + c) ** 2:
        return (b * gy - c * gx) / det, (b * gx - a * gy) / det
    return _lstsq_step(x, y, rd)


def _lstsq_step(x: float, y: float, rd: RangeDifferenceSet) -> tuple[float, float] | None:
    """The minimum-norm lstsq step at p = (x, y), off every station, on the
    residuals and Jacobian of :func:`_gauss_newton_step`, rebuilt from the
    same expressions. None if lstsq fails to converge."""
    import numpy as np

    rx, ry = rd.reference
    ex, ey = x - rx, y - ry
    dist_e = math.hypot(ex, ey)
    ux, uy = ex / dist_e, ey / dist_e
    residuals, jacobian = [], []
    for qx, qy, dd in rd.rows:
        nx, ny = x - qx, y - qy
        dist_n = math.hypot(nx, ny)
        residuals.append(dd - (dist_n - dist_e))
        jacobian.append((-(nx / dist_n - ux), -(ny / dist_n - uy)))
    try:
        step, *_ = np.linalg.lstsq(np.array(jacobian), -np.array(residuals), rcond=None)
    except np.linalg.LinAlgError:
        return None
    return float(step[0]), float(step[1])


def solve_single_reference(
    rd: RangeDifferenceSet,
    layout: StationLayout,
    settings: SolverSettings | None = None,
) -> CandidateEstimate:
    """Minimize the squared residuals of one reference choice, starting at
    ``layout.centroid``.

    Returns the last iterate regardless of convergence; ``converged`` is
    True iff the raw Gauss-Newton step norm fell below the step tolerance
    within the iteration budget. A solve whose iterates cycle on the box
    edge stops at the first repeat and returns the iterate the loop would
    reach at ``max_iterations``; ``iterations_used`` then reads
    ``max_iterations``, the iterations that iterate stands for, not the
    steps taken.

    ``rd`` must come from :func:`~irlspos.tdoa.compute_tdoas` on an epoch
    over exactly the layout's stations, as :func:`solve_all_references`
    ensures; it is not checked again here.
    """
    if settings is None:
        settings = DEFAULT_SETTINGS
    hypot = math.hypot
    diag = layout.diagonal
    # layout.solve_box(margin), formed in place
    margin = settings.bounds_margin_m
    min_x, min_y, max_x, max_y = layout.box
    lo_x, lo_y, hi_x, hi_y = min_x - margin, min_y - margin, max_x + margin, max_y + margin
    tolerance = settings.step_tolerance_m
    x, y = layout.centroid

    converged = False
    iterations = 0
    cap = settings.max_iterations
    # once the clip has acted: each iterate since then, in order, with the
    # iteration that first produced it
    first_seen: dict[tuple[float, float], int] | None = None
    for iterations in range(1, cap + 1):
        step = _gauss_newton_step(x, y, rd)
        if step is None:
            # on a station, where the Jacobian is undefined: nudge off it once
            along_x, along_y = NUDGE_DIRECTION
            x += along_x * tolerance
            y += along_y * tolerance
            step = _gauss_newton_step(x, y, rd)
            if step is None:
                break
        step_x, step_y = step
        step_norm = norm = hypot(step_x, step_y)
        while norm > diag:
            step_x /= 2.0
            step_y /= 2.0
            norm = hypot(step_x, step_y)
        free_x, free_y = x + step_x, y + step_y
        x = lo_x if free_x < lo_x else hi_x if free_x > hi_x else free_x
        y = lo_y if free_y < lo_y else hi_y if free_y > hi_y else free_y
        if step_norm < tolerance:
            converged = True
            break
        if first_seen is None:
            if x == free_x and y == free_y:
                continue
            first_seen = {}
        first = first_seen.setdefault((x, y), iterations)
        if first < iterations:
            # iterate `first` repeats, so the iterates cycle from there on
            period = iterations - first
            x, y = list(first_seen)[len(first_seen) - period + (cap - first) % period]
            iterations = cap
            break

    return CandidateEstimate(Position2D(x, y), converged, iterations, rd)


def solve_all_references(
    m: MeasurementSet,
    stations: Sequence[BaseStation] | StationLayout,
    settings: SolverSettings | None = None,
) -> list[CandidateEstimate]:
    """One candidate per reference choice, ascending by reference id.

    Candidates that fail to converge are kept (flagged, not dropped); the
    downstream weighting stage decides how much they count. A measurement
    set whose station ids differ from the layout's raises ValueError naming
    both. An epoch whose ToAs are too large to resolve the fix raises
    ConfigError: a ToA is only known to one ulp, so when c * ulp(max |toa|)
    exceeds the step tolerance, a transmit stagger (or clock offset) has
    swamped the flight time, the rule ``ScenarioConfig`` applies to its
    schedule.
    """
    if settings is None:
        settings = DEFAULT_SETTINGS
    layout = check_station_layout(stations)
    # both ascend by id, the alignment compute_tdoas relies on
    if m.station_ids != layout.ids:
        raise ValueError(
            f"measurement set stations {m.station_ids} do not match layout {layout.ids}"
        )
    toa_max = max([abs(toa) for _, toa in m.samples])
    resolution_m = SPEED_OF_LIGHT_M_S * math.ulp(toa_max)
    if resolution_m > settings.step_tolerance_m:
        raise ConfigError(
            f"measurement set {m.epoch_id}: ToAs up to {toa_max!r} s resolve ranges "
            f"only to {resolution_m!r} m, more than step_tolerance_m="
            f"{settings.step_tolerance_m!r}; the transmit stagger (schedule_period_s="
            f"{m.schedule_period_s!r}) or clock offset swamps the flight time"
        )
    return [solve_single_reference(rd, layout, settings) for rd in compute_tdoas(m, layout)]

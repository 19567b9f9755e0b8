"""Single-reference nonlinear least-squares position solver.

Gauss-Newton on the signed range-difference residuals with an analytic
Jacobian (the Taylor-series iteration of Foy, IEEE Trans. AES, 1976). The
unknown is a 2D point, so each step solves the 2x2 normal equations
J^T J s = -J^T r in closed form by Cramer's rule, in plain floats. Where
J^T J is singular or ill-conditioned (its determinant is at most
``ILL_CONDITIONED`` times its squared trace, i.e. a condition number above
about 1e6), the step falls back to ``np.linalg.lstsq`` on J s = -r at the
same iterate, whose minimum-norm solution is well defined on a
rank-deficient Jacobian.

Three guards keep candidates usable on outlier-contaminated epochs, where
the objective can lose its finite minimizer along a hyperbola asymptote:

* steps longer than the station bounding-box diagonal are halved;
* iterates are clamped to the bounding box expanded by a configurable
  margin (the solve region; UEs are assumed to live among the anchors);
* an iterate landing exactly on a station (undefined Jacobian) is nudged
  by one step tolerance along +x.

Once the clip has acted, a solve can end pinned to the box edge, where the
raw step never falls under the tolerance and the loop would run to its
iteration cap. One iteration maps the iterate (x, y) to the next through the
nudge, the step, the halving and the clip, and depends on nothing else. So
once an iterate repeats, every later one repeats with the same period, and
the iterate at the cap is known. The loop records iterates from the first
clip on and returns that iterate as soon as one repeats: the result equals,
bit for bit, the one the capped loop would return. A cycle it does not
notice only costs time.

Each candidate carries the range differences it was solved from, so the
reweighting stage reuses them instead of forming them again. The box, its
diagonal, the centroid and the station coordinates come from the checked
:class:`~irlspos.geometry.StationLayout`, so a plain station list is checked once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import MeasurementSet
from .geometry import (
    BaseStation,
    Position2D,
    StationLayout,
    check_station_layout,
    is_int,
)
from .tdoa import RangeDifferenceSet, compute_tdoas

# det(J^T J) / trace(J^T J)^2 at or below which a step takes the lstsq path;
# it bounds the condition number of J^T J at about 1 / ILL_CONDITIONED
ILL_CONDITIONED = 1e-6

# ((x_e, y_e), ((x_n, y_n, delta_d_n), ...)): one reference's geometry
ReferenceRows = tuple[tuple[float, float], tuple[tuple[float, float, float], ...]]


@dataclass(frozen=True)
class SolverSettings:
    """Gauss-Newton controls.

    ``initial_guess`` of None starts from the station centroid, which lies
    inside the convex hull for corner-mounted anchors and avoids the wrong
    hyperbola branch in typical layouts. ``bounds_margin_m`` sets how far
    outside the station bounding box iterates may travel.
    """

    max_iterations: int = 50
    step_tolerance_m: float = 1e-6
    initial_guess: Position2D | None = None
    bounds_margin_m: float = 1.0

    def __post_init__(self) -> None:
        if not is_int(self.max_iterations) or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if not 0 < self.step_tolerance_m < math.inf:
            raise ValueError(f"step_tolerance_m must be in (0, inf), got {self.step_tolerance_m!r}")
        if not 0 <= self.bounds_margin_m < math.inf:
            raise ValueError(f"bounds_margin_m must be in [0, inf), got {self.bounds_margin_m!r}")


@dataclass(frozen=True)
class CandidateEstimate:
    """Position estimate obtained with one particular reference station,
    with the range differences it was solved from."""

    reference_id: int
    position: Position2D
    residual_norm_m: float
    converged: bool
    iterations_used: int
    range_differences: RangeDifferenceSet


def reference_rows(rd: RangeDifferenceSet, layout: StationLayout) -> ReferenceRows:
    """The reference's coordinates and (x_n, y_n, delta_d_n) per entry."""
    positions = layout.positions
    if rd.reference_id not in positions:
        raise ValueError(f"reference station {rd.reference_id} not in station list")
    missing = [sid for sid in rd.station_ids if sid not in positions]
    if missing:
        raise ValueError(f"range differences reference unknown stations {missing}")
    ref = positions[rd.reference_id]
    rows = tuple((positions[sid].x, positions[sid].y, dd) for sid, dd in rd.entries)
    return (ref.x, ref.y), rows


def residuals_at(x: float, y: float, geometry: ReferenceRows) -> list[float]:
    """Residuals r_n = delta_d_n - (||p - q_n|| - ||p - q_e||) at p = (x, y)."""
    (rx, ry), rows = geometry
    dist_e = math.hypot(x - rx, y - ry)
    return [dd - (math.hypot(x - qx, y - qy) - dist_e) for qx, qy, dd in rows]


def _gauss_newton_step(
    x: float, y: float, geometry: ReferenceRows
) -> tuple[float, float] | None:
    """The step s minimizing ||J s + r|| at p = (x, y).

    r_n = delta_d_n - (||p - q_n|| - ||p - q_e||) and the Jacobian row is
    dr_n/dp = -((p - q_n)/||p - q_n|| - (p - q_e)/||p - q_e||). None where
    p coincides with a station (the Jacobian is undefined) or the lstsq
    fallback fails to converge.
    """
    (rx, ry), rows = geometry
    ex, ey = x - rx, y - ry
    dist_e = math.hypot(ex, ey)
    if dist_e == 0.0:
        return None
    ux, uy = ex / dist_e, ey / dist_e
    a = b = c = gx = gy = 0.0
    residuals, jacobian = [], []
    for qx, qy, dd in rows:
        nx, ny = x - qx, y - qy
        dist_n = math.hypot(nx, ny)
        if dist_n == 0.0:
            return None
        r = dd - (dist_n - dist_e)
        jx = -(nx / dist_n - ux)
        jy = -(ny / dist_n - uy)
        a += jx * jx
        b += jx * jy
        c += jy * jy
        gx += jx * r
        gy += jy * r
        residuals.append(r)
        jacobian.append((jx, jy))
    det = a * c - b * b
    if det > ILL_CONDITIONED * (a + c) ** 2:
        return (b * gy - c * gx) / det, (b * gx - a * gy) / det
    try:
        step, *_ = np.linalg.lstsq(np.array(jacobian), -np.array(residuals), rcond=None)
    except np.linalg.LinAlgError:
        return None
    return float(step[0]), float(step[1])


def solve_single_reference(
    rd: RangeDifferenceSet,
    stations: Sequence[BaseStation] | StationLayout,
    settings: SolverSettings | None = None,
) -> CandidateEstimate:
    """Minimize the squared residuals of one reference choice.

    Returns the last iterate regardless of convergence; ``converged`` is
    True iff the raw Gauss-Newton step norm fell below the step tolerance
    within the iteration budget. A solve whose iterates cycle on the box
    edge stops at the first repeat and returns the iterate the loop would
    reach at ``max_iterations``; ``iterations_used`` then reads
    ``max_iterations``, the iterations that iterate stands for, not the
    steps taken.
    """
    settings = settings or SolverSettings()
    layout = check_station_layout(stations)
    geometry = reference_rows(rd, layout)
    positions = layout.positions.values()

    min_x, min_y, max_x, max_y = layout.box
    diag = math.hypot(max_x - min_x, max_y - min_y)
    lo_x, lo_y, hi_x, hi_y = layout.solve_box(settings.bounds_margin_m)
    tolerance = settings.step_tolerance_m

    if settings.initial_guess is not None:
        x, y = settings.initial_guess.x, settings.initial_guess.y
    else:
        x = sum(p.x for p in positions) / len(positions)
        y = sum(p.y for p in positions) / len(positions)

    converged = False
    iterations = 0
    cap = settings.max_iterations
    # once the clip has acted: each iterate since then, in order, with the
    # iteration that first produced it
    first_seen: dict[tuple[float, float], int] | None = None
    for iterations in range(1, cap + 1):
        # nudge off any station position, where the Jacobian is undefined
        for p in positions:
            if math.hypot(x - p.x, y - p.y) < 1e-12:
                x += tolerance
                break
        step = _gauss_newton_step(x, y, geometry)
        if step is None:
            break
        step_x, step_y = step
        step_norm = math.hypot(step_x, step_y)
        while math.hypot(step_x, step_y) > diag:
            step_x /= 2.0
            step_y /= 2.0
        free_x, free_y = x + step_x, y + step_y
        x = min(max(free_x, lo_x), hi_x)
        y = min(max(free_y, lo_y), hi_y)
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

    residuals = residuals_at(x, y, geometry)
    return CandidateEstimate(
        reference_id=rd.reference_id,
        position=Position2D(x, y),
        residual_norm_m=math.sqrt(math.fsum(r * r for r in residuals)),
        converged=converged,
        iterations_used=iterations,
        range_differences=rd,
    )


def solve_all_references(
    m: MeasurementSet,
    stations: Sequence[BaseStation] | StationLayout,
    settings: SolverSettings | None = None,
) -> list[CandidateEstimate]:
    """One candidate per reference choice, ascending by reference id.

    Candidates that fail to converge are kept (flagged, not dropped); the
    downstream weighting stage decides how much they count.
    """
    layout = check_station_layout(stations)
    if set(m.station_ids) != layout.positions.keys():
        raise ValueError(
            f"measurement set stations {m.station_ids} do not match "
            f"layout {tuple(layout.positions)}"
        )
    return [
        solve_single_reference(compute_tdoas(m, sid), layout, settings)
        for sid in layout.positions
    ]

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
reweighting stage reuses them instead of forming them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channel import MeasurementSet
from .geometry import (
    BaseStation,
    Position2D,
    check_station_layout,
    station_bounding_box,
)
from .tdoa import RangeDifferenceSet, compute_tdoas, station_index

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
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.step_tolerance_m > 0:
            raise ValueError(f"step_tolerance_m must be > 0, got {self.step_tolerance_m}")
        if self.bounds_margin_m < 0:
            raise ValueError(f"bounds_margin_m must be >= 0, got {self.bounds_margin_m}")


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


def reference_rows(
    rd: RangeDifferenceSet, index: Mapping[int, BaseStation]
) -> ReferenceRows:
    """The reference's coordinates and (x_n, y_n, delta_d_n) per entry."""
    if rd.reference_id not in index:
        raise ValueError(f"reference station {rd.reference_id} not in station list")
    missing = [sid for sid in rd.station_ids if sid not in index]
    if missing:
        raise ValueError(f"range differences reference unknown stations {missing}")
    ref = index[rd.reference_id].position
    rows = tuple(
        (index[sid].position.x, index[sid].position.y, dd) for sid, dd in rd.entries
    )
    return (ref.x, ref.y), rows


def residuals_at(x: float, y: float, geometry: ReferenceRows) -> list[float]:
    """Residuals r_n = delta_d_n - (||p - q_n|| - ||p - q_e||) at p = (x, y)."""
    (rx, ry), rows = geometry
    dist_e = math.hypot(x - rx, y - ry)
    return [dd - (math.hypot(x - qx, y - qy) - dist_e) for qx, qy, dd in rows]


def ls_objective(
    p: Position2D, rd: RangeDifferenceSet, stations: Sequence[BaseStation]
) -> float:
    """Sum of squared range-difference residuals at position p, in m^2."""
    residuals = residuals_at(p.x, p.y, reference_rows(rd, station_index(stations)))
    return math.fsum(r * r for r in residuals)


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
    stations: Sequence[BaseStation],
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
    sts = check_station_layout(stations)
    geometry = reference_rows(rd, station_index(sts))
    station_xy = [(s.position.x, s.position.y) for s in sts]

    min_x, min_y, max_x, max_y = station_bounding_box(sts)
    diag = math.hypot(max_x - min_x, max_y - min_y)
    margin = settings.bounds_margin_m
    lo_x, lo_y = min_x - margin, min_y - margin
    hi_x, hi_y = max_x + margin, max_y + margin
    tolerance = settings.step_tolerance_m

    if settings.initial_guess is not None:
        x, y = settings.initial_guess.x, settings.initial_guess.y
    else:
        x = sum(sx for sx, _ in station_xy) / len(sts)
        y = sum(sy for _, sy in station_xy) / len(sts)

    converged = False
    iterations = 0
    cap = settings.max_iterations
    # once the clip has acted: each iterate since then, in order, with the
    # iteration that first produced it
    first_seen: dict[tuple[float, float], int] | None = None
    for iterations in range(1, cap + 1):
        # nudge off any station position, where the Jacobian is undefined
        for sx, sy in station_xy:
            if math.hypot(x - sx, y - sy) < 1e-12:
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
    stations: Sequence[BaseStation],
    settings: SolverSettings | None = None,
) -> list[CandidateEstimate]:
    """One candidate per reference choice, ascending by reference id.

    Candidates that fail to converge are kept (flagged, not dropped); the
    downstream weighting stage decides how much they count.
    """
    sts = check_station_layout(stations)
    if set(m.station_ids) != {s.id for s in sts}:
        raise ValueError(
            f"measurement set stations {m.station_ids} do not match "
            f"layout {tuple(s.id for s in sts)}"
        )
    return [
        solve_single_reference(compute_tdoas(m, s.id), sts, settings) for s in sts
    ]

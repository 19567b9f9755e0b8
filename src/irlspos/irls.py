"""Reference-rotated robust positioning.

The estimator solves the range-difference problem once per reference
station, then fuses the candidate positions by a weighted average whose
weights are recomputed each iteration: every reference's uncertainty is the
mean absolute residual of the current fused estimate against that
reference's measured range differences, and the Andrews sine function maps
uncertainties to weights, hard-rejecting any reference whose uncertainty
exceeds ``u_max``. Candidates are solved once, before the loop; only the
weights and the fused position update per iteration.

Each epoch's range differences are formed once: every candidate carries the
set it was solved from, and the loop reads its reference's coordinates and
measured differences from those sets, resolved to plain coordinate tuples
before the first iteration. The station layout is checked once, on entry,
and the checked layout is what the candidate solves receive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .channel import MeasurementSet
from .geometry import (
    BaseStation,
    Position2D,
    StationLayout,
    check_station_layout,
    euclidean_distance,
    is_int,
)
from .lsq import (
    CandidateEstimate,
    ReferenceRows,
    SolverSettings,
    reference_rows,
    residuals_at,
    solve_all_references,
)

# not called here: perfbench/tracer.py looks it up on this module and
# reports a name missing here as a missing wrap point
from .tdoa import compute_tdoas  # noqa: F401


@dataclass(frozen=True)
class IrlsSettings:
    """Loop controls: rejection threshold, convergence threshold, budget."""

    u_max_m: float = 1.0
    epsilon_m: float = 1e-3
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.u_max_m < math.inf:
            raise ValueError(f"u_max_m must be in (0, inf), got {self.u_max_m!r}")
        if not self.epsilon_m > 0:
            raise ValueError(f"epsilon_m must be > 0, got {self.epsilon_m}")
        if not is_int(self.max_iterations) or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")


@dataclass(frozen=True)
class PositionEstimate:
    """Fused position with per-station normalized weights and loop metadata.

    ``weights`` maps each station id to the normalized weight of the
    candidate that used it as reference; the weights sum to 1 except in the
    degenerate all-rejected case, where they are all zero, ``degenerate`` is
    set, and the position is the last fused estimate before rejection.
    ``final_step_m`` is the last computed step between successive fused
    estimates (inf when the loop never completed a step). ``candidates``
    holds the per-reference solves, ascending by reference id.
    """

    position: Position2D
    weights: Mapping[int, float]
    iterations: int
    converged: bool
    final_step_m: float
    candidates: tuple[CandidateEstimate, ...]
    degenerate: bool = False

    def rejected_station_ids(self) -> tuple[int, ...]:
        return tuple(sid for sid, w in sorted(self.weights.items()) if w == 0.0)


def andrews_weight(u: float, u_max: float) -> float:
    """Andrews sine weight: redescending, 1 at u=0, hard zero beyond u_max.

    w(u) = (u_max / (u pi)) sin(u pi / u_max) for 0 < u <= u_max; the u = 0
    value is the analytic limit 1.
    """
    if not u_max > 0:
        raise ValueError(f"u_max must be > 0, got {u_max}")
    if u < 0 or not math.isfinite(u):
        raise ValueError(f"uncertainty must be finite and >= 0, got {u}")
    if u == 0.0:
        return 1.0
    if u > u_max:
        return 0.0
    return (u_max / (u * math.pi)) * math.sin(u * math.pi / u_max)


def _uncertainty(geometry: ReferenceRows, q_wa: Position2D) -> float:
    """Mean absolute range-difference residual of q_wa for one reference.

    Averages |delta_d_ne - (||q_wa - q_n|| - ||q_wa - q_e||)| over the N-1
    non-reference stations; zero means the fused estimate explains that
    reference's measurements exactly.
    """
    residuals = residuals_at(q_wa.x, q_wa.y, geometry)
    return math.fsum(abs(r) for r in residuals) / len(residuals)


def weighted_average(
    candidates: Sequence[CandidateEstimate], weights: Sequence[float]
) -> Position2D:
    """Convex combination of candidate positions; weights must be normalized."""
    if len(candidates) != len(weights):
        raise ValueError(
            f"{len(weights)} weights for {len(candidates)} candidates"
        )
    x = math.fsum(w * c.position.x for w, c in zip(weights, candidates))
    y = math.fsum(w * c.position.y for w, c in zip(weights, candidates))
    return Position2D(x, y)


def irls_position(
    m: MeasurementSet,
    stations: Sequence[BaseStation] | StationLayout,
    ls: SolverSettings | None = None,
    irls: IrlsSettings | None = None,
) -> PositionEstimate:
    """Run the full reweighting loop on one measurement epoch.

    Steps: solve one candidate per reference; fuse with equal weights; then
    iterate (uncertainty per reference at the current fused estimate,
    Andrews weights, normalize, new fused estimate, step size S) until S drops to the
    convergence threshold or the iteration budget runs out. At least one
    weighted iteration always executes. If every reference is rejected in
    the same iteration, the current fused estimate is returned unchanged
    with all-zero weights and ``degenerate`` set instead of dividing by
    zero during normalization.
    """
    irls = irls or IrlsSettings()
    layout = check_station_layout(stations)
    candidates = tuple(solve_all_references(m, layout, ls))
    geometries = [reference_rows(c.range_differences, layout) for c in candidates]

    n = len(candidates)
    q_wa = weighted_average(candidates, [1.0 / n] * n)
    step = math.inf
    converged = False
    iterations = 0
    weights = [1.0 / n] * n
    for iterations in range(1, irls.max_iterations + 1):
        raw = [andrews_weight(_uncertainty(g, q_wa), irls.u_max_m) for g in geometries]
        total = math.fsum(raw)
        if total == 0.0:
            return PositionEstimate(
                position=q_wa,
                weights={c.reference_id: 0.0 for c in candidates},
                iterations=iterations,
                converged=False,
                final_step_m=step,
                candidates=candidates,
                degenerate=True,
            )
        weights = [w / total for w in raw]
        q_next = weighted_average(candidates, weights)
        step = euclidean_distance(q_next, q_wa)
        q_wa = q_next
        if step <= irls.epsilon_m:
            converged = True
            break

    return PositionEstimate(
        position=q_wa,
        weights={c.reference_id: w for c, w in zip(candidates, weights)},
        iterations=iterations,
        converged=converged,
        final_step_m=step,
        candidates=candidates,
    )

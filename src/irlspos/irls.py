"""Reference-rotated robust positioning.

The estimator solves the range-difference problem once per reference
station, then fuses the candidate positions by a weighted average whose
weights are recomputed each iteration: every reference's uncertainty is the
mean absolute residual of the current fused estimate against that
reference's measured range differences, and the Andrews sine function maps
uncertainties to weights, hard-rejecting any reference whose uncertainty
exceeds ``u_max``. Candidates are solved once, before the loop; only the
weights and the fused position update per iteration.

Each epoch's range differences are formed once, in one pass: every
candidate carries the :class:`~irlspos.tdoa.RangeDifferenceSet` it was
solved from (its reference's coordinates, and each other station's
coordinates with its measured difference, as plain floats), and the loop
reads those sets. A plain station list is checked by
:func:`~irlspos.lsq.solve_all_references`, once per distinct station tuple;
it also matches the epoch against the layout and hands the layout to every
candidate solve. The fused estimate is read as plain floats between
iterations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .channel import MeasurementSet
from .errors import ConfigError
from .geometry import (
    BaseStation,
    Position2D,
    StationLayout,
    as_integer,
    as_number,
    read_fields,
)
from .lsq import CandidateEstimate, SolverSettings, solve_all_references

# distinct rejected sets that keep one shared tuple each; an N-station epoch
# has at most 2**N of them
SHARED_REJECTED_SETS = 256

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
        read_fields(self, as_number, "u_max_m", "epsilon_m")
        read_fields(self, as_integer, "max_iterations")
        if self.u_max_m <= 0:
            raise ConfigError(f"u_max_m must be > 0, got {self.u_max_m!r}")
        if self.epsilon_m <= 0:
            raise ConfigError(f"epsilon_m must be > 0, got {self.epsilon_m!r}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations!r}")


# the settings a fix without its own uses
DEFAULT_SETTINGS = IrlsSettings()


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
        """Ids whose weight is zero, ascending. Equal sets come back as one
        shared tuple, so a caller that keeps many estimates' sets holds each
        distinct set once."""
        return _shared_ids(tuple(sid for sid, w in sorted(self.weights.items()) if w == 0.0))


@functools.lru_cache(maxsize=SHARED_REJECTED_SETS)
def _shared_ids(ids: tuple[int, ...]) -> tuple[int, ...]:
    return ids


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


def weighted_average(
    candidates: Sequence[CandidateEstimate], weights: Sequence[float]
) -> Position2D:
    """Convex combination of candidate positions; weights must be normalized."""
    if len(candidates) != len(weights):
        raise ValueError(
            f"{len(weights)} weights for {len(candidates)} candidates"
        )
    x = math.fsum([w * c.position.x for w, c in zip(weights, candidates)])
    y = math.fsum([w * c.position.y for w, c in zip(weights, candidates)])
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

    Raises GeometryError for a station list that cannot support a fix
    (fewer than three stations, repeated ids, all collinear), ValueError
    for an epoch whose station ids differ from the layout's, and
    ConfigError for an epoch whose ToAs are too large to resolve it (see
    :func:`~irlspos.lsq.solve_all_references`).
    """
    if irls is None:
        irls = DEFAULT_SETTINGS
    candidates = tuple(solve_all_references(m, stations, ls))
    sets = [c.range_differences for c in candidates]
    ids = [rd.reference_id for rd in sets]
    hypot, fsum = math.hypot, math.fsum
    u_max, epsilon = irls.u_max_m, irls.epsilon_m

    n = len(candidates)
    weights = [1.0 / n] * n
    q_wa = weighted_average(candidates, weights)
    x, y = q_wa.x, q_wa.y
    step = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, irls.max_iterations + 1):
        raw = []
        for rd in sets:
            # the reference's uncertainty: the mean over its rows of
            # |delta_d_ne - (||q_wa - q_n|| - ||q_wa - q_e||)|
            rx, ry = rd.reference
            dist_e = hypot(x - rx, y - ry)
            misfits = [abs(dd - (hypot(x - qx, y - qy) - dist_e)) for qx, qy, dd in rd.rows]
            raw.append(andrews_weight(fsum(misfits) / len(misfits), u_max))
        total = fsum(raw)
        if total == 0.0:
            return PositionEstimate(
                q_wa, dict.fromkeys(ids, 0.0), iterations, False, step, candidates, True
            )
        weights = [w / total for w in raw]
        q_wa = weighted_average(candidates, weights)
        x_next, y_next = q_wa.x, q_wa.y
        step = hypot(x_next - x, y_next - y)
        x, y = x_next, y_next
        if step <= epsilon:
            converged = True
            break

    return PositionEstimate(
        q_wa, dict(zip(ids, weights)), iterations, converged, step, candidates
    )

"""Correctness gate: compare per-trial results against recorded references.

A trial's result is its LS error, its IRLS error, its IRLS rejected-station
set and its fused IRLS position. "Same" means every float within
``TOLERANCE_M`` and the rejected set identical. The reference files under
``reference/`` were recorded at the default ``--seed`` by
``record_reference.py``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

TOLERANCE_M = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIELDS = (
    "poi_index",
    "trial_index",
    "ls_error_m",
    "irls_error_m",
    "irls_x_m",
    "irls_y_m",
    "rejected_stations",
)


@dataclass(frozen=True)
class TrialResult:
    """What the gate compares for one (PoI, trial); None marks a value the
    producing path does not give (run_batch gives no fused position)."""

    ls_error_m: float | None = None
    irls_error_m: float | None = None
    irls_xy_m: tuple[float, float] | None = None
    rejected: tuple[int, ...] | None = None


def reference_path(preset: str) -> Path:
    return REFERENCE_DIR / f"{preset}.csv"


def _ids(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(";") if s)


def load_reference(preset: str) -> dict[tuple[int, int], TrialResult]:
    with reference_path(preset).open(newline="") as fh:
        return {
            (int(row["poi_index"]), int(row["trial_index"])): TrialResult(
                ls_error_m=float(row["ls_error_m"]),
                irls_error_m=float(row["irls_error_m"]),
                irls_xy_m=(float(row["irls_x_m"]), float(row["irls_y_m"])),
                rejected=_ids(row["rejected_stations"]),
            )
            for row in csv.DictReader(fh)
        }


def write_reference(preset: str, results: dict[tuple[int, int], TrialResult]) -> Path:
    path = reference_path(preset)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIELDS)
        for (poi, trial), r in sorted(results.items()):
            writer.writerow(
                (
                    poi,
                    trial,
                    repr(r.ls_error_m),
                    repr(r.irls_error_m),
                    repr(r.irls_xy_m[0]),
                    repr(r.irls_xy_m[1]),
                    ";".join(str(s) for s in r.rejected),
                )
            )
    return path


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= TOLERANCE_M


def mismatches(
    got: dict[tuple[int, int], TrialResult],
    want: dict[tuple[int, int], TrialResult],
) -> list[str]:
    """Human-readable differences between ``got`` and ``want``.

    Every key of ``got`` must be in ``want``; only the fields both sides
    carry are compared. An empty list means the results are the same.
    """
    out = []
    for key in sorted(got):
        if key not in want:
            out.append(f"{key}: no reference result")
            continue
        g, w = got[key], want[key]
        for name in ("ls_error_m", "irls_error_m"):
            gv, wv = getattr(g, name), getattr(w, name)
            if gv is not None and wv is not None and not _close(gv, wv):
                out.append(f"{key}: {name} {gv!r} != {wv!r}")
        if g.irls_xy_m is not None and w.irls_xy_m is not None:
            if not all(_close(a, b) for a, b in zip(g.irls_xy_m, w.irls_xy_m)):
                out.append(f"{key}: fused position {g.irls_xy_m} != {w.irls_xy_m}")
        if g.rejected is not None and w.rejected is not None and g.rejected != w.rejected:
            out.append(f"{key}: rejected stations {g.rejected} != {w.rejected}")
    return out

"""Spans and work counters around the calls into each irlspos layer.

The tracer replaces, at runtime, the module attributes through which the
layers call each other (``harness.compute_tdoas``, ``lsq.solve_single_reference``
and so on) with timing wrappers, and puts the originals back afterwards.
No file under ``src/irlspos`` changes. A wrap point whose module or
attribute no longer exists is skipped; a layer with no wrap point left is
reported as absent instead of as zero.

Each span records its name, start, end, parent span, the (PoI, trial) it
belongs to, the benchmark phase ("batch" or "fix") and the round. Counters
are read from the returned ``CandidateEstimate`` and ``PositionEstimate``.
Spans stay in memory until :meth:`Tracer.write` is called.
"""

from __future__ import annotations

import csv
import importlib
import os
import time
from collections import defaultdict
from pathlib import Path

# (module under irlspos, attribute, span name); the layer is the part of the
# span name before the first dot.
WRAP_POINTS = (
    ("harness", "run_batch", "harness.run_batch"),
    ("harness", "emulate_trial_measurements", "channel.emulate"),
    ("harness", "compute_tdoas", "tdoa.compute_tdoas"),
    ("harness", "solve_single_reference", "lsq.solve"),
    ("harness", "irls_position", "irls.position"),
    ("harness", "export_results", "harness.export"),
    ("lsq", "compute_tdoas", "tdoa.compute_tdoas"),
    ("lsq", "solve_single_reference", "lsq.solve"),
    ("irls", "irls_position", "irls.position"),
    ("irls", "solve_all_references", "irls.solve_all"),
    ("irls", "compute_tdoas", "tdoa.compute_tdoas"),
    ("config", "load_config", "config.load_config"),
)
LAYERS = ("channel", "tdoa", "lsq", "irls", "harness", "config")


def _solve_info(result):
    return (result.iterations_used, result.converged)


def _solve_all_info(result):
    return tuple((c.iterations_used, c.converged) for c in result)


def _position_info(result):
    return (result.iterations, result.degenerate)


def _export_info(result):
    return sum(os.path.getsize(p) for p in result)


INFO = {
    "lsq.solve": _solve_info,
    "irls.solve_all": _solve_all_info,
    "irls.position": _position_info,
    "harness.export": _export_info,
}

# index of each field in a span record
NAME, START, END, SPAN_ID, PARENT, TRIAL, PHASE, ROUND, INFO_FIELD = range(9)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.trial: tuple[int, int] | None = None
        # added to the trial index a batch call passes, to give the workload's
        self.trial_offset = 0
        self.phase = ""
        self.round = 0
        self.present: list[tuple[str, str, str]] = []
        self.missing: list[tuple[str, str, str]] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        for mod_name, attr, span in WRAP_POINTS:
            try:
                module = importlib.import_module(f"irlspos.{mod_name}")
            except ImportError:
                self.missing.append((mod_name, attr, span))
                continue
            if callable(getattr(module, attr, None)):
                self.present.append((mod_name, attr, span))
            else:
                self.missing.append((mod_name, attr, span))

    def absent_layers(self) -> list[str]:
        found = {span.split(".")[0] for _, _, span in self.present}
        return [layer for layer in LAYERS if layer not in found]

    def install(self) -> None:
        if self._originals:
            return
        for mod_name, attr, span in self.present:
            module = importlib.import_module(f"irlspos.{mod_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        info_of = INFO.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if name == "channel.emulate" and len(args) >= 3:
                self.trial = (args[1], args[2] + self.trial_offset)
            span_id = len(spans)
            record = [name, 0, 0, span_id, stack[-1] if stack else -1,
                      self.trial, self.phase, self.round, None]
            spans.append(record)
            stack.append(span_id)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if info_of is not None:
                try:
                    record[INFO_FIELD] = info_of(result)
                except (AttributeError, TypeError, OSError):
                    pass
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        """All spans as CSV, times in ns on the perf_counter clock."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ("name", "start_ns", "end_ns", "span_id", "parent_id",
                 "poi_index", "trial_index", "phase", "round")
            )
            for s in self.spans:
                poi, trial = s[TRIAL] if s[TRIAL] is not None else ("", "")
                writer.writerow((s[NAME], s[START], s[END], s[SPAN_ID],
                                 s[PARENT], poi, trial, s[PHASE], s[ROUND]))


def round_metrics(
    spans: list[list], round_index: int, trials: int, max_gn_iterations: int
) -> dict[str, float]:
    """Per-layer figures for one traced round (one batch pass, one fix sweep).

    Busy time is the summed duration of a layer's spans; self time is a
    span's duration minus the time its child spans cover.
    """
    mine = [s for s in spans if s[ROUND] == round_index]
    child_ns: dict[int, int] = defaultdict(int)
    for s in mine:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]

    def sel(phase, name):
        return [s for s in mine if s[PHASE] == phase and s[NAME] == name]

    def busy(spans_):
        return sum(s[END] - s[START] for s in spans_) / 1e9

    def self_s(spans_):
        return sum(s[END] - s[START] - child_ns[s[SPAN_ID]] for s in spans_) / 1e9

    out: dict[str, float] = {}
    emulate = sel("batch", "channel.emulate")
    tdoa = sel("batch", "tdoa.compute_tdoas")
    solves = sel("batch", "lsq.solve")
    positions = sel("batch", "irls.position")
    exports = sel("batch", "harness.export")
    out["channel.emulate.calls"] = len(emulate)
    out["channel.emulate.busy_s"] = busy(emulate)
    out["tdoa.compute_tdoas.calls_per_trial"] = len(tdoa) / trials
    out["tdoa.compute_tdoas.busy_s"] = busy(tdoa)

    solve_info = [s[INFO_FIELD] for s in solves if s[INFO_FIELD] is not None]
    out["lsq.solve.calls_per_trial"] = len(solves) / trials
    out["lsq.solve.busy_s"] = busy(solves)
    if solve_info:
        out["lsq.gn_iterations_per_solve"] = sum(i for i, _ in solve_info) / len(solve_info)
        out["lsq.nonconverged"] = sum(1 for _, ok in solve_info if not ok)
        out["lsq.converged_ratio"] = sum(1 for _, ok in solve_info if ok) / len(solve_info)

    candidates = [
        c for s in sel("batch", "irls.solve_all") if s[INFO_FIELD] for c in s[INFO_FIELD]
    ]
    if candidates:
        out["irls.candidates.gn_iterations"] = sum(i for i, _ in candidates)
        out["irls.candidates.capped"] = sum(
            1 for i, ok in candidates if not ok and i >= max_gn_iterations
        )
    out["irls.position.busy_s"] = busy(positions)
    out["irls.loop.self_s"] = self_s(positions)
    fix_info = [s[INFO_FIELD] for s in positions if s[INFO_FIELD] is not None]
    if fix_info:
        degenerate = sum(1 for _, d in fix_info if d)
        out["irls.iterations_per_fix"] = sum(i for i, _ in fix_info) / len(fix_info)
        out["irls.degenerate"] = degenerate
        out["irls.degenerate_share"] = degenerate / len(fix_info)

    out["harness.run_batch.self_s"] = self_s(sel("batch", "harness.run_batch"))
    out["harness.export.busy_s"] = busy(exports)
    out["harness.export.bytes"] = sum(s[INFO_FIELD] or 0 for s in exports)

    fix_positions = sel("fix", "irls.position")
    out["fix.irls.position.busy_s"] = busy(fix_positions)
    out["fix.irls.loop.self_s"] = self_s(fix_positions)
    out["fix.lsq.solve.busy_s"] = busy(sel("fix", "lsq.solve"))
    out["fix.tdoa.compute_tdoas.busy_s"] = busy(sel("fix", "tdoa.compute_tdoas"))
    return out

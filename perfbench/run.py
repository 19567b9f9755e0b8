"""irlspos benchmark: Monte-Carlo batch throughput and single-epoch fix latency.

Run from the repository root:

    python3 perfbench/run.py --workload batch_nlos --seed 1 --seconds 50 --trace 0

A workload is one bundled preset (see ``WORKLOADS``): its 23 PoIs x 50
trials = 1,150 trials, drawn from ``--seed`` as ``CHUNKS`` run_batch inputs
of 5 trials per PoI each (see ``chunk_configs``). Set-up, untimed:
``SETUP_REPEATS`` fresh interpreters each time ``import irlspos`` and
``load_config``; the 1,150 measurement epochs are emulated; a canary of
default-seed trials is checked against the recorded reference. Then rounds
repeat until ``--seconds`` have passed. A round is one batch pass (per
chunk, ``run_batch`` then ``export_results``, timed together) and one fix
sweep: ``irls_position`` on each epoch in turn, a closed loop with one
caller, each call timed on its own. A host probe is timed before each
chunk and each block of fixes, and every time is reported at the host's
reference speed (hostprobe.py, ``end_to_end_metrics``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` traced and untraced rounds alternate and
it carries the per-layer metrics (see tracer.py). Every pass and sweep must
give the same per-trial results, the sweep must agree with the batch, and at
the default seed everything must match ``reference/`` (gate.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 20240601
WORKLOADS = {"batch_static": "static_cband", "batch_nlos": "semidynamic_cband"}
SETUP_REPEATS = 5
# run_batch calls per batch pass; the preset's trials_per_poi must divide by it
CHUNKS = 10
# fixes timed after each host probe
FIX_BLOCK = 46
CANARY_TRIALS_PER_POI = 2
# per-layer figures that count work; they must repeat exactly between rounds
COUNTERS = (
    "channel.emulate.calls",
    "tdoa.compute_tdoas.calls_per_trial",
    "lsq.solve.calls_per_trial",
    "lsq.nonconverged",
    "irls.candidates.gn_iterations",
    "irls.candidates.capped",
    "irls.degenerate",
)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import irlspos
t1 = time.perf_counter()
from irlspos.config import load_config
t2 = time.perf_counter()
load_config(sys.argv[1])
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t3 - t2}))
"""

sys.path.insert(0, str(BENCH_DIR))
import gate  # noqa: E402
from gate import TrialResult  # noqa: E402
import hostprobe  # noqa: E402


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_caps() -> dict[str, str]:
    return {var: os.environ.get(var, str(nproc())) for var in THREAD_VARS}


def use_source_tree() -> None:
    """Import irlspos from this checkout, with native thread pools capped."""
    if not (SRC / "irlspos" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'irlspos'} not found; run from a full checkout")
    os.environ.update(thread_caps())
    sys.path.insert(0, str(SRC))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(preset: str) -> tuple[list[float], list[float]]:
    """(import seconds, load_config seconds) at the reference speed, one pair
    per fresh interpreter, each scaled by a host probe timed just before the
    interpreter starts. The wall-clock median is printed."""
    imports, loads, walls = [], [], []
    for _ in range(SETUP_REPEATS):
        scale = hostprobe.scale()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, preset],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC), **thread_caps()),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        figures = json.loads(done.stdout.strip().splitlines()[-1])
        imports.append(figures["import_s"] * scale)
        loads.append(figures["load_config_s"] * scale)
        walls.append(figures["import_s"] + figures["load_config_s"])
    print(f"setup wall-clock: median {statistics.median(walls):.6g} s")
    return imports, loads


def trial_keys(cfg) -> list[tuple[int, int]]:
    return [(p, t) for p in range(len(cfg.pois)) for t in range(cfg.trials_per_poi)]


def chunk_configs(cfg, seed: int, count: int = CHUNKS) -> list[tuple[int, object]]:
    """The first ``count`` of the workload's CHUNKS run_batch inputs, as
    (trial offset, config). Chunk c draws from root seed ``seed * CHUNKS + c``
    and holds trials_per_poi / CHUNKS trials per PoI; its trial t is the
    workload's trial ``offset + t``. A short call sees the host at one
    speed, which the probe timed just before it measures."""
    per, rest = divmod(cfg.trials_per_poi, CHUNKS)
    if rest:
        raise ValueError(f"{cfg.trials_per_poi} trials per PoI do not split into {CHUNKS}")
    return [
        (c * per, cfg.with_overrides(root_seed=seed * CHUNKS + c, trials_per_poi=per))
        for c in range(count)
    ]


def emulate_epochs(chunks) -> list[tuple[tuple[int, int], object]]:
    """Every trial's measurement set, keyed by its workload (PoI, trial)."""
    from irlspos import harness

    return [
        ((p, offset + t), harness.emulate_trial_measurements(part, p, t)[0])
        for offset, part in chunks
        for p, t in trial_keys(part)
    ]


def batch_results(batch, offset: int = 0) -> dict[tuple[int, int], TrialResult]:
    """Per-trial LS error, IRLS error and IRLS rejected set of a TrialBatch
    whose trial t is the workload's trial ``offset + t``."""
    ls, irls = {}, {}
    for rec in batch.per_trial:
        key = (rec.poi_index, offset + rec.trial_index)
        if rec.method == "LS":
            ls[key] = rec.error_2d_m
        else:
            irls[key] = rec
    return {
        key: TrialResult(
            ls_error_m=ls.get(key),
            irls_error_m=rec.error_2d_m,
            rejected=tuple(rec.rejected_stations),
        )
        for key, rec in irls.items()
    }


def fix_result(cfg, key: tuple[int, int], estimate) -> TrialResult:
    poi = cfg.pois[key[0]]
    x, y = estimate.position.x, estimate.position.y
    return TrialResult(
        irls_error_m=math.hypot(x - poi.x, y - poi.y),
        irls_xy_m=(x, y),
        rejected=tuple(estimate.rejected_station_ids()),
    )


class Failures:
    """Counts operations attempted and those that raised; prints the first
    traceback."""

    def __init__(self) -> None:
        self.attempted = 0
        self.count = 0

    def record(self, what: str, n: int = 1) -> None:
        if self.count == 0:
            print(f"first failure ({what}):", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        self.count += n


def batch_pass(chunks, out_dir: Path, failures: Failures, tracer=None, probe=False):
    """({chunk index: (wall seconds of run_batch + export_results, host probe
    scale)}, per-trial results) over the chunks in turn; the scale is 1
    unless ``probe``. A chunk that raises is left out of both and its trials
    count as failed."""
    from irlspos import harness

    walls, results = {}, {}
    for index, (offset, part) in enumerate(chunks):
        trials = len(part.pois) * part.trials_per_poi
        failures.attempted += trials
        if tracer is not None:
            tracer.trial_offset = offset
        scale = hostprobe.scale() if probe else 1.0
        try:
            t0 = time.perf_counter()
            batch = harness.run_batch(part)
            harness.export_results(batch, out_dir)
            walls[index] = (time.perf_counter() - t0, scale)
        except Exception:  # a failed chunk is counted, and the run goes on
            failures.record(f"batch chunk {index}", trials)
            continue
        results.update(batch_results(batch, offset))
    return walls, results


def fix_sweep(cfg, epochs, latencies: dict, failures: Failures, tracer=None, probe=False):
    """One closed-loop irls_position call per epoch; per-trial results. Each
    call's (latency seconds, host probe scale) goes into ``latencies`` under
    its trial key; if ``probe``, the probe is timed before every FIX_BLOCK
    calls, else the scale is 1."""
    from irlspos import irls

    position = irls.irls_position
    stations = sorted(cfg.stations, key=lambda s: s.id)
    clock = time.perf_counter
    results = {}
    scale = 1.0
    failures.attempted += len(epochs)
    for i, (key, mset) in enumerate(epochs):
        if probe and i % FIX_BLOCK == 0:
            scale = hostprobe.scale()
        if tracer is not None:
            tracer.trial = key
        try:
            t0 = clock()
            estimate = position(mset, stations, cfg.solver, cfg.irls)
            latencies[key] = (clock() - t0, scale)
        except Exception:  # a failed fix is counted, and the loop goes on
            failures.record(f"fix {key}")
            continue
        results[key] = fix_result(cfg, key, estimate)
    return results


def canary(preset: str, failures: Failures) -> list[str]:
    """Default-seed trials checked against the reference at any seed."""
    from irlspos.config import load_config

    _, first = chunk_configs(load_config(preset), DEFAULT_SEED, 1)[0]
    cfg = first.with_overrides(trials_per_poi=CANARY_TRIALS_PER_POI)
    chunks = [(0, cfg)]
    reference = gate.load_reference(preset)
    export_dir = OUT_DIR / f"canary_{os.getpid()}"
    _, batch = batch_pass(chunks, export_dir, failures)
    fixes = fix_sweep(cfg, emulate_epochs(chunks), {}, failures)
    shutil.rmtree(export_dir, ignore_errors=True)
    problems = gate.mismatches(batch, reference) + gate.mismatches(fixes, reference)
    if set(batch) != set(trial_keys(cfg)) or set(fixes) != set(trial_keys(cfg)):
        problems.append("canary results incomplete")
    return [f"canary {p}" for p in problems]


def consistency(cfg, seed, batches, sweeps, preset) -> list[str]:
    """Problems with the run's own results; empty when they are correct."""
    problems = []
    expected = set(trial_keys(cfg))
    for name, runs in (("batch pass", batches), ("fix sweep", sweeps)):
        if not runs:
            problems.append(f"no {name} completed")
            continue
        if set(runs[0]) != expected:
            problems.append(f"{name} covers {len(runs[0])} of {len(expected)} trials")
        if any(r != runs[0] for r in runs[1:]):
            problems.append(f"{name}es disagree with each other")
    if batches and sweeps:
        problems += [f"fix vs batch {p}" for p in gate.mismatches(sweeps[0], batches[0])]
    if seed == DEFAULT_SEED:
        reference = gate.load_reference(preset)
        for runs in (batches, sweeps):
            if runs:
                problems += [f"reference {p}" for p in gate.mismatches(runs[0], reference)]
    return problems


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(values), q))


def accuracy(batch: dict[tuple[int, int], TrialResult]) -> dict[str, float]:
    ls = [r.ls_error_m for r in batch.values()]
    irls = [r.irls_error_m for r in batch.values()]
    return {
        "irls_mean_error_m": statistics.fmean(irls),
        "irls_p90_error_m": percentile(irls, 90),
        "ls_mean_error_m": statistics.fmean(ls),
        "ls_p90_error_m": percentile(ls, 90),
    }


@dataclass
class Rounds:
    """What the timed rounds of one run produced."""

    batches: list = field(default_factory=list)
    sweeps: list = field(default_factory=list)
    pass_walls: list = field(default_factory=list)  # {chunk: (seconds, scale)}, one per pass
    latencies: list = field(default_factory=list)  # {trial key: (seconds, scale)}, one per sweep
    traced: list = field(default_factory=list)  # round indices
    traced_walls: list = field(default_factory=list)
    untraced_walls: list = field(default_factory=list)


def measure(cfg, chunks, epochs, seconds: float, failures: Failures, tracer=None) -> Rounds:
    """Repeat rounds until ``seconds`` pass; with a tracer, every other round
    is traced."""
    out = Rounds()
    export_dir = OUT_DIR / f"export_{os.getpid()}"
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.round, tracer.phase = index, "batch"
            tracer.install()
        gc.collect()
        start = time.perf_counter()
        walls, batch = batch_pass(
            chunks, export_dir, failures, tracer if traced else None, probe=True
        )
        if traced:
            tracer.phase = "fix"
        latencies = {}
        sweep = fix_sweep(
            cfg, epochs, latencies, failures, tracer if traced else None, probe=True
        )
        end = time.perf_counter()
        if traced:
            tracer.uninstall()
            out.traced.append(index)
        (out.traced_walls if traced else out.untraced_walls).append(end - start)
        if len(walls) == len(chunks):
            out.batches.append(batch)
        out.pass_walls.append(walls)
        out.sweeps.append(sweep)
        out.latencies.append(latencies)
        index += 1
        # stop before a round that would end past the deadline
        enough = out.untraced_walls and (tracer is None or out.traced_walls)
        if enough and time.perf_counter() + (end - start) > deadline:
            break
    shutil.rmtree(export_dir, ignore_errors=True)
    return out


def unit_medians(runs: list[dict], scaled: bool = True) -> dict:
    """Per key, the median over the runs of its seconds, each times its probe
    scale if ``scaled``."""
    values: dict = {}
    for r in runs:
        for key, (seconds, scale) in r.items():
            values.setdefault(key, []).append(seconds * scale if scaled else seconds)
    return {key: statistics.median(v) for key, v in values.items()}


def fix_scale(rounds: Rounds) -> float:
    """The median probe scale over the run's fixes: the run's host speed
    relative to the reference."""
    return statistics.median(f for r in rounds.latencies for _, f in r.values())


def timing_metrics(rounds: Rounds, trials: int, scaled: bool = True) -> dict[str, float]:
    """trials_per_s is the workload's trials over the summed per-chunk median
    times; the fix figures are taken over the 1,150 per-epoch median
    latencies, so fix_p99_ms (11 epochs beyond it) is the program's own tail,
    the epochs with capped or repeated solves.

    fix_p99_ms alone is scaled by the run's median probe scale rather than
    unit by unit. It is the 12th largest of 1,150 values, so it picks the
    epochs whose block probe happened to read slow, and the noise of the
    per-block scale, which a sum or a median averages out, pushes it up by
    a different amount in each run."""
    chunks = unit_medians(rounds.pass_walls, scaled)
    fixes = list(unit_medians(rounds.latencies, scaled).values())
    # a metric whose every operation failed is left out, not reported as 0
    metrics = {}
    if chunks:
        metrics["trials_per_s"] = trials / CHUNKS * len(chunks) / math.fsum(chunks.values())
    if fixes:
        metrics["fixes_per_s"] = len(fixes) / math.fsum(fixes)
        metrics["fix_p50_ms"] = 1e3 * percentile(fixes, 50)
        wall = list(unit_medians(rounds.latencies, scaled=False).values())
        run_scale = fix_scale(rounds) if scaled else 1.0
        metrics["fix_p99_ms"] = 1e3 * percentile(wall, 99) * run_scale
    return metrics


def end_to_end_metrics(rounds: Rounds, trials: int, setup_totals) -> dict[str, float]:
    """Times are at the host's reference speed: each chunk's and each fix's
    wall time times the scale of the host probe timed just before it (see
    hostprobe.py and timing_metrics). The wall-clock figures are printed
    next to them."""
    metrics = timing_metrics(rounds, trials)
    metrics["setup_s"] = statistics.median(setup_totals)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rounds.batches:
        metrics.update(accuracy(rounds.batches[0]))
    print(
        f"samples: {len(rounds.pass_walls)} batch passes of {trials} trials in "
        f"{CHUNKS} chunks, {sum(map(len, rounds.latencies))} fixes in "
        f"{len(rounds.latencies)} sweeps, {len(setup_totals)} fresh-interpreter set-ups"
    )
    if any(rounds.latencies):
        print(f"host speed / reference speed: median {fix_scale(rounds):.4g}")
    wall = timing_metrics(rounds, trials, scaled=False)
    print("wall-clock: " + ", ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    return metrics


def layer_metrics(rounds: Rounds, tracer, trials: int, max_gn: int, problems) -> dict:
    """Medians over traced rounds; layers the tracer found absent are left out."""
    from tracer import round_metrics

    per_round = [round_metrics(tracer.spans, r, trials, max_gn) for r in rounds.traced]
    metrics = {
        name: statistics.median(m[name] for m in per_round)
        for name in per_round[0]
        if all(name in m for m in per_round)
    }
    counters = [n for n in metrics if n in COUNTERS]
    repeat = all(m[n] == per_round[0][n] for m in per_round for n in counters)
    print(f"traced rounds: {len(per_round)}; work counters repeat exactly: {repeat}")
    if not repeat:
        problems.append("work counters differ between traced rounds")
    metrics["trace.overhead_s"] = statistics.median(rounds.traced_walls) - statistics.median(
        rounds.untraced_walls
    )
    absent = tracer.absent_layers()
    if tracer.missing:
        print(f"wrap points missing: {[f'{m}.{a}' for m, a, _ in tracer.missing]}")
    print(f"absent layers: {absent}")
    return {
        k: v for k, v in metrics.items() if k.removeprefix("fix.").split(".")[0] not in absent
    }


def run(args) -> int:
    from irlspos.config import load_config

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    preset = WORKLOADS[args.workload]
    print(f"environment: {json.dumps(environment())}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    failures = Failures()
    setup_imports, setup_loads = measure_setup(preset)
    setup_totals = [a + b for a, b in zip(setup_imports, setup_loads)]
    print(
        f"setup split: import_s={statistics.median(setup_imports):.6g} "
        f"load_config_s={statistics.median(setup_loads):.6g}"
    )
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.phase = "setup"
        tracer.install()
    cfg = load_config(preset)
    if tracer:
        tracer.uninstall()
    chunks = chunk_configs(cfg, args.seed)
    epochs = emulate_epochs(chunks)
    problems = canary(preset, failures)

    rounds = measure(cfg, chunks, epochs, args.seconds, failures, tracer)
    problems += consistency(cfg, args.seed, rounds.batches, rounds.sweeps, preset)
    if tracer:
        metrics = layer_metrics(
            rounds, tracer, len(epochs), cfg.solver.max_iterations, problems
        )
        metrics["setup.import_s"] = statistics.median(setup_imports)
        metrics["config.load_config.busy_s"] = statistics.median(setup_loads)
        span_path = OUT_DIR / f"spans_{args.workload}.csv"
        tracer.write(span_path)
        print(f"spans: {len(tracer.spans)} written to {span_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(rounds, len(epochs), setup_totals)

    print(f"loadavg_end: {os.getloadavg()}")
    print(
        f"fail_share = {failures.count / failures.attempted:.6g} share "
        f"({failures.count} of {failures.attempted} trials and fixes)"
    )
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(f"checks: {'pass' if not problems else f'{len(problems)} problems'}")

    reported = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name in metrics:
            reported[name] = {"value": metrics[name], "unit": unit}
            print(f"{name} = {metrics[name]:.6g} {unit}")
        else:
            print(f"{name}: not measured")
    result = {
        "correct": not problems,
        "attempted": failures.attempted,
        "failed": failures.count,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    use_source_tree()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

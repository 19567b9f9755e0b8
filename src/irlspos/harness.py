"""Monte-Carlo benchmark driver.

Each (PoI, trial) pair gets its own RNG streams split from the root seed by
a documented rule: ``SeedSequence(entropy=root_seed, spawn_key=(poi_index,
trial_index))`` spawns two children, the first driving link states and NLoS
bias draws, the second the ranging noise. Link/bias draws therefore depend
only on the root seed and trial coordinates, never on the band, so two
configs that differ only in band parameters see identical outliers.

Both methods consume the identical measurement set per trial: the robust
method rotates references and reweights, and LS is its candidate for the
lowest station id, the fixed-reference solve on the same range differences,
so each trial runs one solve per station.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .channel import LinkState, MeasurementSet, emulate_measurement_set
from .config import ScenarioConfig
from .geometry import check_station_layout, euclidean_distance, sorted_stations
from .irls import irls_position

# not called here: run_batch reaches both through irls_position, but
# perfbench/tracer.py looks them up on this module and reports a name
# missing here as a missing wrap point
from .lsq import solve_single_reference  # noqa: F401
from .tdoa import compute_tdoas  # noqa: F401

METHOD_LS = "LS"
METHOD_IRLS = "IRLS"
METHODS = (METHOD_LS, METHOD_IRLS)

# 90th-percentile rule: linear interpolation at fractional index (n-1)*q
P90_QUANTILE = 90.0


@dataclass(frozen=True)
class TrialRecord:
    poi_index: int
    trial_index: int
    method: str
    error_2d_m: float
    rejected_stations: tuple[int, ...] = ()


@dataclass(frozen=True)
class MethodSummary:
    n_trials: int
    mean_error_m: float
    p90_error_m: float


@dataclass
class TrialBatch:
    """All per-trial results of one run plus per-method summaries."""

    config_name: str
    root_seed: int
    per_trial: tuple[TrialRecord, ...]

    def errors(self, method: str) -> np.ndarray:
        return np.array(
            [t.error_2d_m for t in self.per_trial if t.method == method]
        )


def trial_rngs(
    root_seed: int, poi_index: int, trial_index: int
) -> tuple[np.random.Generator, np.random.Generator]:
    """(link/bias generator, noise generator) for one trial."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(poi_index, trial_index))
    link_ss, noise_ss = ss.spawn(2)
    return np.random.default_rng(link_ss), np.random.default_rng(noise_ss)


def draw_link_states(cfg: ScenarioConfig, rng: np.random.Generator) -> list[LinkState]:
    """Per-station Bernoulli NLoS flips and bias draws, ascending id order."""
    links = []
    for st in sorted_stations(cfg.stations):
        nlos = bool(rng.random() < cfg.nlos_probability)
        bias = cfg.bias_model.draw(rng) if nlos else 0.0
        links.append(
            LinkState(station_id=st.id, is_los=(bias == 0.0), nlos_bias_m=bias)
        )
    return links


def emulate_trial_measurements(
    cfg: ScenarioConfig, poi_index: int, trial_index: int
) -> tuple[MeasurementSet, list[LinkState]]:
    """The measurement set both methods consume for one (PoI, trial)."""
    link_rng, noise_rng = trial_rngs(cfg.root_seed, poi_index, trial_index)
    links = draw_link_states(cfg, link_rng)
    mset = emulate_measurement_set(
        cfg.pois[poi_index],
        cfg.stations,
        links,
        cfg.band,
        noise_rng,
        schedule_period_s=cfg.schedule_period_s,
        noise_std_m=cfg.noise_override_m,
        height_difference_m=cfg.height_difference_m,
        epoch_id=trial_index,
    )
    return mset, links


def run_batch(cfg: ScenarioConfig) -> TrialBatch:
    """Run every (PoI, trial) pair and record 2D errors for both methods.

    Solver failures surface as large errors on flagged candidates, never as
    batch aborts. Deterministic given the config and root seed.
    """
    layout = check_station_layout(cfg.stations)
    records: list[TrialRecord] = []
    for poi_index, poi in enumerate(cfg.pois):
        for trial_index in range(cfg.trials_per_poi):
            mset, _ = emulate_trial_measurements(cfg, poi_index, trial_index)
            estimate = irls_position(mset, layout, cfg.solver, cfg.irls)
            # candidates ascend by reference id: the first is fixed-reference LS
            ls_candidate = estimate.candidates[0]
            records.append(
                TrialRecord(
                    poi_index=poi_index,
                    trial_index=trial_index,
                    method=METHOD_LS,
                    error_2d_m=euclidean_distance(ls_candidate.position, poi),
                )
            )
            records.append(
                TrialRecord(
                    poi_index=poi_index,
                    trial_index=trial_index,
                    method=METHOD_IRLS,
                    error_2d_m=euclidean_distance(estimate.position, poi),
                    rejected_stations=estimate.rejected_station_ids(),
                )
            )
    return TrialBatch(
        config_name=cfg.name, root_seed=cfg.root_seed, per_trial=tuple(records)
    )


def summarize(batch: TrialBatch) -> dict[str, MethodSummary]:
    """Mean and 90th-percentile error per method."""
    if not batch.per_trial:
        raise ValueError("cannot summarize an empty batch")
    out = {}
    for method in METHODS:
        errors = batch.errors(method)
        if errors.size == 0:
            continue
        out[method] = MethodSummary(
            n_trials=int(errors.size),
            mean_error_m=float(errors.mean()),
            p90_error_m=float(np.percentile(errors, P90_QUANTILE)),
        )
    return out


def _fmt(x: float) -> str:
    return format(x, ".9g")


def export_results(batch: TrialBatch, out_dir: str | Path) -> list[Path]:
    """Write per-trial, summary, and per-method CDF files.

    Formats are pinned for byte determinism: floats carry 9 significant
    digits, rows follow the deterministic record order, rejected station
    ids are ';'-joined inside their CSV field.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    trials_path = out / "trials.csv"
    lines = ["poi_index,trial_index,method,error_2d_m,rejected_stations"]
    for t in batch.per_trial:
        rejected = ";".join(str(sid) for sid in t.rejected_stations)
        lines.append(
            f"{t.poi_index},{t.trial_index},{t.method},{_fmt(t.error_2d_m)},{rejected}"
        )
    trials_path.write_text("\n".join(lines) + "\n")
    written.append(trials_path)

    summary = summarize(batch)
    summary_path = out / "summary.txt"
    slines = [
        f"config: {batch.config_name}",
        f"root_seed: {batch.root_seed}",
        f"ls_reference: lowest station id",
    ]
    for method in METHODS:
        if method not in summary:
            continue
        s = summary[method]
        slines += [
            f"method: {method}",
            f"  trials: {s.n_trials}",
            f"  mean_error_m: {_fmt(s.mean_error_m)}",
            f"  p90_error_m: {_fmt(s.p90_error_m)}",
        ]
    summary_path.write_text("\n".join(slines) + "\n")
    written.append(summary_path)

    for method in METHODS:
        errors = np.sort(batch.errors(method))
        if errors.size == 0:
            continue
        cdf_path = out / f"cdf_{method.lower()}.csv"
        rows = ["error_m,cumulative_probability"]
        n = errors.size
        rows += [
            f"{_fmt(float(err))},{_fmt((i + 1) / n)}" for i, err in enumerate(errors)
        ]
        cdf_path.write_text("\n".join(rows) + "\n")
        written.append(cdf_path)
    return written

"""Monte-Carlo benchmark driver.

Each (PoI, trial) pair gets its own RNG streams split from the root seed by
a documented rule: two children of ``SeedSequence(entropy=root_seed,
spawn_key=(poi_index, trial_index))``, the first driving link states and
NLoS bias draws, the second the ranging noise. Child i is built directly as
``SeedSequence(entropy=root_seed, spawn_key=(poi_index, trial_index, i))``,
which is exactly the child ``spawn(2)`` returns, without the parent. Link/bias
draws therefore depend only on the root seed and trial coordinates, never on
the band, so two configs that differ only in band parameters see identical
outliers.

numpy's ``SeedSequence`` stays the definition, and :func:`trial_rngs` builds
one trial's generators with it. :func:`run_batch` takes its trials in blocks
of ``SEED_BLOCK_TRIALS`` and computes every child's PCG64 seed words for a
block in one array pass (:func:`block_trial_rngs`). The pass repeats
``SeedSequence``'s hash on uint32 lanes, one lane per child: the root
seed's words mixed into the 4-word pool, then the key words (poi, trial, i),
then ``generate_state(4, uint64)``. Each key word must fit in 32 bits, which
``ScenarioConfig`` checks. Each trial still gets two fresh generators of its
own, in the same states as ``trial_rngs`` gives.

Both methods consume the identical measurement set per trial: the robust
method rotates references and reweights, and LS is its candidate for the
lowest station id, the fixed-reference solve on the same range differences,
so each trial runs one solve per station.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channel import LinkState, MeasurementSet, arrival_samples
from .config import ScenarioConfig
from .geometry import check_station_layout, euclidean_distance
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

# trials whose generator seeds one array pass computes: the pass's arrays
# stay this small whatever the batch size
SEED_BLOCK_TRIALS = 1024

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


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
    """All per-trial results of one run, and two run diagnostics: the
    trials whose reweighting rejected every reference (``degenerate``) and
    the candidate solves, one per station per trial, that ended without
    meeting the step tolerance."""

    config_name: str
    root_seed: int
    per_trial: tuple[TrialRecord, ...]
    degenerate_trials: int = 0
    nonconverged_candidates: int = 0

    def errors(self, method: str) -> np.ndarray:
        return np.array(
            [t.error_2d_m for t in self.per_trial if t.method == method]
        )


def trial_rngs(
    root_seed: int, poi_index: int, trial_index: int
) -> tuple[np.random.Generator, np.random.Generator]:
    """(link/bias generator, noise generator) for one trial: the children
    ``spawn(2)`` would give of ``SeedSequence(root_seed, spawn_key=(poi_index,
    trial_index))``, built directly from their spawn keys."""
    link_ss = np.random.SeedSequence(root_seed, spawn_key=(poi_index, trial_index, 0))
    noise_ss = np.random.SeedSequence(root_seed, spawn_key=(poi_index, trial_index, 1))
    return np.random.default_rng(link_ss), np.random.default_rng(noise_ss)


def _hash_constants(start: int, mult: int, steps: int) -> np.ndarray:
    """The hash constant before each of ``steps`` hash steps and after the
    last, shaped to broadcast over (step, trial, child) lanes."""
    consts = [start]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None, None]


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One SeedSequence hash step per constant: xor with the constant, times
    the next one, then an xorshift; uint32 lanes wrap as the C code does."""
    hashed = (words ^ consts[:-1]) * consts[1:]
    return hashed ^ (hashed >> 16)


# generate_state(4, uint64) hashes pool words 0-3, 0-3 into 8 uint32 words
_STATE_CONSTS = _hash_constants(_INIT_B, _MULT_B, 8)
_STATE_SLOTS = np.arange(8) % 4


def _seed_words(root_seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(root_seed, spawn_key=(poi, trial, i)).generate_state(4,
    np.uint64)`` for each (poi, trial) row of the uint32 array ``keys`` and
    each child i in (0, 1): shape (len(keys), 2, 4)."""
    # with a spawn key, the root's words are zero-padded to the 4-word pool:
    # 16 hash steps fill and cross-mix it, and each word past the fourth takes
    # 4 more. SeedSequence(root_seed).pool is that prefix, since its pool
    # hashes a zero for each missing word.
    root_words = max(1, -(-root_seed.bit_length() // 32))
    prefix_steps = 16 + 4 * max(0, root_words - 4)
    consts = _hash_constants(
        _INIT_A * pow(_MULT_A, prefix_steps, 1 << 32) & _MASK32, _MULT_A, 12
    )
    pool = np.random.SeedSequence(root_seed).pool[:, None, None]
    # each key word is hashed once per pool word, with 4 successive constants
    key_words = (keys[:, :1], keys[:, 1:], np.arange(2, dtype=np.uint32))
    for k, word in enumerate(key_words):
        pool = pool * _MIX_MULT_L - _hash(word, consts[4 * k : 4 * k + 5]) * _MIX_MULT_R
        pool ^= pool >> 16
    state = np.moveaxis(_hash(pool[_STATE_SLOTS], _STATE_CONSTS), 0, -1)
    # as generate_state does: little-endian word pairs, read as uint64
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """A child's ``generate_state(4, uint64)`` words, computed in advance.
    It seeds one fresh PCG64, which asks for exactly those, so it returns
    them whatever it is asked."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def block_trial_rngs(
    root_seed: int, keys: Sequence[tuple[int, int]]
) -> Iterator[tuple[np.random.Generator, np.random.Generator]]:
    """For each (poi_index, trial_index) of ``keys``, in order, fresh
    generators in the states ``trial_rngs`` gives, seeded by one array pass.
    Every key must be below 2**32."""
    words = _seed_words(root_seed, np.array(keys, dtype=np.uint32).reshape(-1, 2))
    for link_words, noise_words in words:
        yield (
            np.random.default_rng(_SeedWords(link_words)),
            np.random.default_rng(_SeedWords(noise_words)),
        )


def draw_link_states(cfg: ScenarioConfig, rng: np.random.Generator) -> list[LinkState]:
    """Per-station Bernoulli NLoS flips and bias draws, ascending id order.
    A LoS link is the config's shared, frozen LoS state of its station."""
    ids, los_links = cfg.emulation[:2]
    links = []
    for sid, los in zip(ids, los_links):
        if rng.random() < cfg.nlos_probability:
            links.append(LinkState(sid, cfg.bias_model.draw(rng)))
        else:
            links.append(los)
    return links


def emulate_trial_measurements(
    cfg: ScenarioConfig,
    poi_index: int,
    trial_index: int,
    rngs: tuple[np.random.Generator, np.random.Generator] | None = None,
) -> tuple[MeasurementSet, list[LinkState]]:
    """The measurement set both methods consume for one (PoI, trial).
    ``rngs`` are the trial's fresh (link/bias, noise) generators, by default
    those of :func:`trial_rngs`. The epoch is what
    :func:`~irlspos.channel.emulate_measurement_set` makes from the same
    generators, built from the config's ``emulation`` constants."""
    if rngs is None:
        rngs = trial_rngs(cfg.root_seed, poi_index, trial_index)
    link_rng, noise_rng = rngs
    ids, _, staggers, sigma_m, ranges = cfg.emulation
    links = draw_link_states(cfg, link_rng)
    noise = noise_rng.normal(0.0, sigma_m, len(ids)).tolist()
    samples = arrival_samples(
        ids, staggers, ranges[poi_index], [ln.nlos_bias_m for ln in links], noise
    )
    return MeasurementSet(trial_index, samples, cfg.schedule_period_s), links


def run_batch(cfg: ScenarioConfig) -> TrialBatch:
    """Run every (PoI, trial) pair and record 2D errors for both methods.

    Solver failures surface as large errors on flagged candidates, never as
    batch aborts; the batch counts degenerate trials and non-converged
    candidates from the estimates it already holds. Deterministic given the
    config and root seed: trials run PoI by PoI, and each block of
    ``SEED_BLOCK_TRIALS`` of them is seeded in one pass.
    """
    layout = check_station_layout(cfg.stations)
    records: list[TrialRecord] = []
    degenerate = nonconverged = 0
    pairs = itertools.product(range(len(cfg.pois)), range(cfg.trials_per_poi))
    while block := list(itertools.islice(pairs, SEED_BLOCK_TRIALS)):
        for (poi_index, trial_index), rngs in zip(block, block_trial_rngs(cfg.root_seed, block)):
            poi = cfg.pois[poi_index]
            mset, _ = emulate_trial_measurements(cfg, poi_index, trial_index, rngs=rngs)
            estimate = irls_position(mset, layout, cfg.solver, cfg.irls)
            # candidates ascend by reference id: the first is fixed-reference LS
            ls_candidate = estimate.candidates[0]
            degenerate += estimate.degenerate
            nonconverged += sum(not c.converged for c in estimate.candidates)
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
        config_name=cfg.name,
        root_seed=cfg.root_seed,
        per_trial=tuple(records),
        degenerate_trials=degenerate,
        nonconverged_candidates=nonconverged,
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
        f"degenerate_trials: {batch.degenerate_trials}",
        f"nonconverged_candidates: {batch.nonconverged_candidates}",
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

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

numpy's ``SeedSequence`` stays the definition of those streams, and one
seeding builds them for a lone trial and for a batch alike:
:func:`block_trial_rngs` computes every child's PCG64 seed words for a list
of trials in one array pass. The pass repeats ``SeedSequence``'s hash on
uint32 lanes, one lane per child: the root seed's words mixed into the
4-word pool, then the key words (poi, trial, i), then
``generate_state(4, uint64)``. Each key word must fit in 32 bits, which
``ScenarioConfig`` checks. :func:`run_batch` seeds its trials in blocks of
``SEED_BLOCK_TRIALS``, and :func:`emulate_trial_measurements` seeds a lone
trial as a block of one. Either way a trial gets fresh generators of its
own, but only those whose draws can change its epoch: no link/bias
generator when ``nlos_probability`` is 0, since no draw can flip a link
(:func:`_draws_links`). A trial's NLoS biases are plain floats, 0.0 on a
LoS link.

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

from .channel import MeasurementSet, arrival_samples
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
    root_seed: int, keys: Sequence[tuple[int, int]], link: bool
) -> Iterator[tuple[np.random.Generator | None, np.random.Generator]]:
    """For each (poi_index, trial_index) of ``keys``, in order, the trial's
    fresh (link/bias, noise) generators, in the states the children of
    ``SeedSequence(root_seed, spawn_key=(poi_index, trial_index))`` give,
    seeded by one array pass. With ``link`` false the link/bias generator
    is not built and comes as None. Every key must be below 2**32."""
    words = _seed_words(root_seed, np.array(keys, dtype=np.uint32).reshape(-1, 2))
    for link_words, noise_words in words:
        yield (
            np.random.default_rng(_SeedWords(link_words)) if link else None,
            np.random.default_rng(_SeedWords(noise_words)),
        )


def _draws_links(cfg: ScenarioConfig) -> bool:
    """Whether a trial's link/bias draws can change its epoch: with
    ``nlos_probability`` 0 no ``random()`` in [0, 1) flips a link."""
    return cfg.nlos_probability > 0.0


def emulate_trial_measurements(
    cfg: ScenarioConfig,
    poi_index: int,
    trial_index: int,
    rngs: tuple[np.random.Generator | None, np.random.Generator] | None = None,
) -> tuple[MeasurementSet, list[float]]:
    """The measurement set both methods consume for one (PoI, trial), and
    each station's NLoS bias in meters, in ascending id order.

    ``rngs`` are the trial's fresh (link/bias, noise) generators, by default
    those :func:`block_trial_rngs` builds for it alone, as a batch would.
    Per station in id order, the link/bias generator draws one ``random()``
    and, when that falls below ``nlos_probability``, one bias; a LoS link's
    bias is 0.0. With ``nlos_probability`` 0 it draws nothing and may be
    None. The epoch is what :func:`~irlspos.channel.emulate_measurement_set`
    makes from the same noise generator, built from the config's
    ``emulation`` constants."""
    link = _draws_links(cfg)
    if rngs is None:
        rngs = next(block_trial_rngs(cfg.root_seed, [(poi_index, trial_index)], link))
    link_rng, noise_rng = rngs
    ids, staggers, sigma_m, ranges = cfg.emulation
    if link:
        p, draw = cfg.nlos_probability, cfg.bias_model.draw
        biases = [draw(link_rng) if link_rng.random() < p else 0.0 for _ in ids]
    else:
        biases = [0.0] * len(ids)
    noise = noise_rng.normal(0.0, sigma_m, len(ids)).tolist()
    samples = arrival_samples(ids, staggers, ranges[poi_index], biases, noise)
    return MeasurementSet(trial_index, samples, cfg.schedule_period_s), biases


def run_batch(cfg: ScenarioConfig) -> TrialBatch:
    """Run every (PoI, trial) pair and record 2D errors for both methods.

    Solver failures surface as large errors on flagged candidates, never as
    batch aborts; the batch counts degenerate trials and non-converged
    candidates from the estimates it already holds. Deterministic given the
    config and root seed: trials run PoI by PoI, and each block of
    ``SEED_BLOCK_TRIALS`` of them is seeded in one pass, building a link/bias
    generator only when its draws can change an epoch.
    """
    layout = check_station_layout(cfg.stations)
    link = _draws_links(cfg)
    records: list[TrialRecord] = []
    degenerate = nonconverged = 0
    pairs = itertools.product(range(len(cfg.pois)), range(cfg.trials_per_poi))
    while block := list(itertools.islice(pairs, SEED_BLOCK_TRIALS)):
        rngs_of = block_trial_rngs(cfg.root_seed, block, link)
        for (poi_index, trial_index), rngs in zip(block, rngs_of):
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


def _summaries(errors: dict[str, np.ndarray]) -> dict[str, MethodSummary]:
    """Mean and 90th-percentile error per method with any errors, from each
    method's errors in record order. A ValueError when no method has any."""
    if not any(column.size for column in errors.values()):
        raise ValueError("cannot summarize an empty batch")
    return {
        method: MethodSummary(
            n_trials=int(column.size),
            mean_error_m=float(column.mean()),
            p90_error_m=float(np.percentile(column, P90_QUANTILE)),
        )
        for method, column in errors.items()
        if column.size
    }


def summarize(batch: TrialBatch) -> dict[str, MethodSummary]:
    """Mean and 90th-percentile error per method."""
    return _summaries({method: batch.errors(method) for method in METHODS})


def export_results(batch: TrialBatch, out_dir: str | Path) -> list[Path]:
    """Write per-trial, summary, and per-method CDF files.

    Formats are pinned for byte determinism: floats carry 9 significant
    digits, rows follow the deterministic record order, rejected station
    ids are ';'-joined inside their CSV field. One pass over the records
    formats each error once, for its trials row and its CDF row. A batch
    with nothing to summarize raises before any file is written.
    """
    lines = ["poi_index,trial_index,method,error_2d_m,rejected_stations"]
    # per method: its errors and their texts, in record order
    columns: dict[str, tuple[list[float], list[str]]] = {method: ([], []) for method in METHODS}
    for t in batch.per_trial:
        text = f"{t.error_2d_m:.9g}"
        rejected = ";".join(map(str, t.rejected_stations))
        lines.append(f"{t.poi_index},{t.trial_index},{t.method},{text},{rejected}")
        if t.method in columns:
            errors, texts = columns[t.method]
            errors.append(t.error_2d_m)
            texts.append(text)
    arrays = {method: np.array(errors) for method, (errors, _) in columns.items()}
    summary = _summaries(arrays)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    trials_path = out / "trials.csv"
    trials_path.write_text("\n".join(lines) + "\n")
    written.append(trials_path)

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
            f"  mean_error_m: {s.mean_error_m:.9g}",
            f"  p90_error_m: {s.p90_error_m:.9g}",
        ]
    summary_path.write_text("\n".join(slines) + "\n")
    written.append(summary_path)

    # the probability column of each distinct method size, formatted once
    probabilities: dict[int, list[str]] = {}
    for method in METHODS:
        n = arrays[method].size
        if n == 0:
            continue
        if n not in probabilities:
            probabilities[n] = [f"{(k + 1) / n:.9g}" for k in range(n)]
        texts = columns[method][1]
        cdf_path = out / f"cdf_{method.lower()}.csv"
        rows = ["error_m,cumulative_probability"]
        # ascending error, NaN last, as np.sort orders them
        order = np.argsort(arrays[method], kind="stable").tolist()
        rows += [f"{texts[i]},{p}" for i, p in zip(order, probabilities[n])]
        cdf_path.write_text("\n".join(rows) + "\n")
        written.append(cdf_path)
    return written

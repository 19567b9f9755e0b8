"""Monte-Carlo driver: determinism, fairness, summaries, and exports."""

import hashlib
import multiprocessing
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from irlspos import (
    BaseStation,
    ConfigError,
    euclidean_distance,
    irls_position,
    run_batch,
    summarize,
)
from irlspos import harness
from irlspos.channel import LinkState, emulate_measurement_set
from irlspos.config import BiasModel
from irlspos.geometry import check_station_layout
from irlspos.harness import (
    METHOD_IRLS,
    METHOD_LS,
    METHODS,
    MethodSummary,
    TrialBatch,
    TrialRecord,
    block_trial_rngs,
    emulate_trial_measurements,
    export_results,
)
from irlspos.lsq import solve_single_reference
from irlspos.presets import PRESET_NAMES, corner_stations, get_preset, mmwave_profile
from irlspos.tdoa import compute_tdoas
from conftest import fingerprint, fixes


def small_config(**overrides):
    cfg = get_preset("static_cband").with_overrides(trials_per_poi=2)
    cfg = replace(cfg, pois=cfg.pois[:4])
    return replace(cfg, **overrides) if overrides else cfg


def spawned_rngs(root_seed, poi_index, trial_index):
    """A trial's (link/bias, noise) generators by numpy's definition: child i
    is ``SeedSequence(root_seed, spawn_key=(poi_index, trial_index, i))``."""
    return tuple(
        np.random.default_rng(
            np.random.SeedSequence(root_seed, spawn_key=(poi_index, trial_index, i))
        )
        for i in range(2)
    )


def lone_trial_rngs(root_seed, poi_index, trial_index):
    """The generators the library seeds for one trial on its own."""
    return next(block_trial_rngs(root_seed, [(poi_index, trial_index)], True))


def batch_from_errors(errors, method=METHOD_LS):
    records = tuple(
        TrialRecord(0, i, method, float(e)) for i, e in enumerate(errors)
    )
    return TrialBatch(config_name="test", root_seed=0, per_trial=records)


# --- summarize ---------------------------------------------------------------

def test_summary_of_one_through_ten():
    batch = batch_from_errors(range(1, 11))
    s = summarize(batch)[METHOD_LS]
    assert s.mean_error_m == pytest.approx(5.5)
    assert s.p90_error_m == pytest.approx(9.1)  # (n-1)*q fractional index rule


def test_summary_singleton():
    s = summarize(batch_from_errors([2.5]))[METHOD_LS]
    assert s.mean_error_m == s.p90_error_m == 2.5


def test_summary_constant():
    s = summarize(batch_from_errors([1.7] * 8))[METHOD_LS]
    assert s.mean_error_m == pytest.approx(1.7)
    assert s.p90_error_m == pytest.approx(1.7)


def test_summary_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        summarize(TrialBatch("x", 0, ()))


# --- determinism and fairness ---------------------------------------------------

def test_trial_rng_split_is_deterministic():
    a1, n1 = lone_trial_rngs(42, 3, 7)
    a2, n2 = lone_trial_rngs(42, 3, 7)
    assert a1.random(4).tolist() == a2.random(4).tolist()
    assert n1.random(4).tolist() == n2.random(4).tolist()
    b1, _ = lone_trial_rngs(42, 3, 8)
    assert a1.random(4).tolist() != b1.random(4).tolist()


@pytest.mark.parametrize("root_seed", [0, 1, 20240601, 2**64 - 1])
@pytest.mark.parametrize("key", [(0, 0), (3, 7), (22, 49)])
def test_trial_rngs_are_the_spawned_children(root_seed, key):
    # the documented rule: the two children spawn(2) gives of the trial's
    # SeedSequence, which a lone trial's block of one builds directly
    children = np.random.SeedSequence(root_seed, spawn_key=key).spawn(2)
    for rng, child in zip(lone_trial_rngs(root_seed, *key), children, strict=True):
        spawned = np.random.default_rng(child)
        assert rng.random(8).tolist() == spawned.random(8).tolist()
        assert rng.normal(0.0, 1.0, 4).tolist() == spawned.normal(0.0, 1.0, 4).tolist()


KEY_WORD = st.one_of(st.integers(0, 60), st.integers(0, 2**32 - 1))
KEY_BLOCKS = st.lists(st.tuples(KEY_WORD, KEY_WORD), min_size=1, max_size=6)


# 2**32 - 1 to 2**128 + 1 cross the boundaries of the root's words and of
# the 4-word pool, past which root words are mixed in after the pool
@given(root_seed=st.integers(0, 2**256 - 1), keys=KEY_BLOCKS)
@example(root_seed=2**32 - 1, keys=[(0, 0), (2**32 - 1, 2**32 - 1)])
@example(root_seed=2**32, keys=[(22, 49), (0, 2**32 - 1)])
@example(root_seed=2**96, keys=[(3, 7)])
@example(root_seed=2**128, keys=[(2**32 - 1, 0)])
@example(root_seed=2**128 + 1, keys=[(1, 1), (1, 2)])
def test_block_seeding_matches_seed_sequence(root_seed, keys):
    for (poi, trial), rngs in zip(keys, block_trial_rngs(root_seed, keys, True), strict=True):
        for i, rng in enumerate(rngs):
            oracle = np.random.default_rng(
                np.random.SeedSequence(root_seed, spawn_key=(poi, trial, i))
            )
            assert rng.bit_generator.state == oracle.bit_generator.state
            assert rng.random() == oracle.random()
            assert rng.normal() == oracle.normal()
            assert rng.exponential() == oracle.exponential()


def test_block_generators_are_fresh_per_trial():
    keys = [(0, 0), (0, 0), (0, 1)]
    rngs = [rng for pair in block_trial_rngs(5, keys, True) for rng in pair]
    assert len({id(rng) for rng in rngs}) == len({id(rng.bit_generator) for rng in rngs}) == 6
    first, repeat = rngs[0], rngs[2]
    assert first.random() == repeat.random()


# (nlos_probability, generators built per trial): a trial builds its
# link/bias generator only when its draws can change the epoch
GENERATOR_RULES = {"": (0.5, 2), "-all-los": (0.0, 1)}


@pytest.mark.parametrize(
    "block_trials,rule",
    [
        pytest.param(block_trials, rule, id=f"{block_trials}{suffix}")
        for block_trials in (1, 3, harness.SEED_BLOCK_TRIALS)
        for suffix, rule in GENERATOR_RULES.items()
    ],
)
def test_run_batch_emulates_the_trial_rngs_epochs(block_trials, rule, monkeypatch):
    # blocks of 3 cross PoI boundaries; the default size takes two blocks
    nlos_probability, generators = rule
    cfg = small_config(
        nlos_probability=nlos_probability,
        bias_model=BiasModel(kind="exponential", value_m=3.0),
        pois=get_preset("static_cband").pois[:2],
        trials_per_poi=max(4, block_trials // 2 + 1),
    )
    emulate = harness.emulate_trial_measurements
    seen = []
    built = []

    def recording(cfg, poi_index, trial_index, rngs=None):
        assert rngs is not None
        out = emulate(cfg, poi_index, trial_index, rngs=rngs)
        seen.append(((poi_index, trial_index), out))
        return out

    def counting(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    default_rng = np.random.default_rng
    monkeypatch.setattr(harness, "SEED_BLOCK_TRIALS", block_trials)
    monkeypatch.setattr(harness, "emulate_trial_measurements", recording)
    monkeypatch.setattr(np.random, "default_rng", counting)
    run_batch(cfg)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    keys = [(p, t) for p in range(len(cfg.pois)) for t in range(cfg.trials_per_poi)]
    assert [key for key, _ in seen] == keys
    assert len(built) == generators * len(keys)
    biased = [bias > 0 for _, (_, biases) in seen for bias in biases]
    assert any(biased) == (nlos_probability > 0)
    # against numpy's definition of the streams, and a lone trial's default
    for key, out in seen:
        assert out == emulate(cfg, *key, rngs=spawned_rngs(cfg.root_seed, *key))
        assert out == emulate(cfg, *key)


# an all-LoS epoch must not depend on whether the link stream is drawn: the
# oracle builds both of the trial's generators and makes one link draw per
# station, tested against p and thrown away
@given(fix=fixes(), root_seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 3))
def test_all_los_epochs_match_drawing_and_discarding_the_link_stream(fix, root_seed, trials):
    stations, ue, _ = fix
    cfg = replace(
        small_config(),
        stations=tuple(stations),
        pois=(ue,),
        root_seed=root_seed,
        trials_per_poi=trials,
    )
    assert cfg.nlos_probability == 0.0
    seen = []
    emulate = harness.emulate_trial_measurements

    def recording(cfg, poi_index, trial_index, rngs=None):
        out = emulate(cfg, poi_index, trial_index, rngs=rngs)
        seen.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "emulate_trial_measurements", recording)
        run_batch(cfg)
    assert len(seen) == trials
    los = [LinkState(s.id) for s in sorted(stations, key=lambda s: s.id)]
    for t, (mset, biases) in enumerate(seen):
        link_rng, noise_rng = spawned_rngs(root_seed, 0, t)
        assert not any(link_rng.random() < cfg.nlos_probability for _ in stations)
        expected = emulate_measurement_set(
            ue, stations, los, cfg.band, noise_rng,
            schedule_period_s=cfg.schedule_period_s, epoch_id=t,
        )
        assert biases == [0.0] * len(stations)
        assert fingerprint(mset) == fingerprint(expected)
        assert mset == expected


def test_emulation_draws_from_the_generators_it_is_given(monkeypatch):
    cfg = small_config(nlos_probability=0.5)
    given, given_biases = emulate_trial_measurements(cfg, 0, 0, rngs=spawned_rngs(cfg.root_seed, 0, 1))
    other, other_biases = emulate_trial_measurements(cfg, 0, 1)
    assert (given.samples, given_biases) == (other.samples, other_biases)
    assert given.samples != emulate_trial_measurements(cfg, 0, 0)[0].samples

    # without generators, a lone trial builds what its batch would: the
    # link/bias one only when its draws can change the epoch, and both in
    # the states of numpy's definition
    default_rng = np.random.default_rng
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    for preset in PRESET_NAMES:
        cfg = get_preset(preset)
        key = (len(cfg.pois) - 1, cfg.trials_per_poi - 1)
        built.clear()
        with monkeypatch.context() as mp:
            mp.setattr(np.random, "default_rng", counting)
            lone = emulate_trial_measurements(cfg, *key)
        assert len(built) == (2 if cfg.nlos_probability > 0 else 1), preset
        assert lone == emulate_trial_measurements(cfg, *key, rngs=spawned_rngs(cfg.root_seed, *key))


@pytest.mark.parametrize("trials", [2**32, 2**40])
def test_trial_counts_past_one_seed_word_are_rejected(trials):
    with pytest.raises(ConfigError, match="trials_per_poi"):
        small_config(trials_per_poi=trials)
    assert small_config(trials_per_poi=2**32 - 1).trials_per_poi == 2**32 - 1


def test_poi_counts_past_one_seed_word_are_rejected():
    class TooMany(tuple):
        def __len__(self):
            return 2**32

    with pytest.raises(ConfigError, match="pois"):
        small_config(pois=TooMany(small_config().pois))


def test_link_draws_are_band_independent():
    cband = small_config(nlos_probability=0.4)
    mmwave = replace(
        get_preset("static_mmwave").with_overrides(trials_per_poi=2),
        pois=cband.pois,
        nlos_probability=0.4,
    )
    for poi_index in range(2):
        for trial_index in range(2):
            _, biases_c = emulate_trial_measurements(cband, poi_index, trial_index)
            _, biases_m = emulate_trial_measurements(mmwave, poi_index, trial_index)
            assert biases_c == biases_m


def test_both_methods_consume_identical_measurements():
    cfg = small_config(nlos_probability=0.5)
    m1, _ = emulate_trial_measurements(cfg, 1, 0)
    m2, _ = emulate_trial_measurements(cfg, 1, 0)
    assert fingerprint(m1) == fingerprint(m2)

    # the batch errors must be reproducible from that single measurement set
    batch = run_batch(cfg)
    layout = check_station_layout(cfg.stations)
    poi = cfg.pois[1]
    ls = solve_single_reference(compute_tdoas(m1, layout)[0], layout, cfg.solver)
    est = irls_position(m1, layout, cfg.solver, cfg.irls)
    recorded = {
        (t.method): t
        for t in batch.per_trial
        if t.poi_index == 1 and t.trial_index == 0
    }
    assert recorded[METHOD_LS].error_2d_m == euclidean_distance(ls.position, poi)
    assert recorded[METHOD_IRLS].error_2d_m == euclidean_distance(est.position, poi)
    assert recorded[METHOD_IRLS].rejected_stations == est.rejected_station_ids()


def test_run_batch_deterministic():
    cfg = small_config(nlos_probability=0.3)
    assert run_batch(cfg).per_trial == run_batch(cfg).per_trial


def test_zero_noise_zero_bias_batch_is_exact():
    cfg = small_config(noise_override_m=0.0)
    batch = run_batch(cfg)
    for t in batch.per_trial:
        assert t.error_2d_m < 1e-6


def test_changing_seed_changes_results():
    cfg = small_config()
    b1 = run_batch(cfg)
    b2 = run_batch(cfg.with_overrides(root_seed=cfg.root_seed + 1))
    assert b1.per_trial != b2.per_trial


# --- exports -----------------------------------------------------------------------

def test_export_per_trial_line_count(tmp_path):
    cfg = small_config()
    batch = run_batch(cfg)
    export_results(batch, tmp_path)
    lines = (tmp_path / "trials.csv").read_text().splitlines()
    assert lines[0] == "poi_index,trial_index,method,error_2d_m,rejected_stations"
    assert len(lines) == 1 + len(batch.per_trial)


def test_export_cdf_properties(tmp_path):
    cfg = small_config(nlos_probability=0.3)
    export_results(run_batch(cfg), tmp_path)
    for name in ("cdf_ls.csv", "cdf_irls.csv"):
        rows = (tmp_path / name).read_text().splitlines()
        assert rows[0] == "error_m,cumulative_probability"
        errors, probs = zip(
            *[tuple(map(float, r.split(","))) for r in rows[1:]]
        )
        assert probs[-1] == 1.0
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        assert all(a <= b for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize(
    "records",
    [(), (TrialRecord(0, 0, "other", 1.0),)],
    ids=["no-records", "no-method-records"],
)
def test_export_with_nothing_to_summarize_writes_nothing(records, tmp_path):
    batch = TrialBatch("x", 0, records)
    out = tmp_path / "out"
    for d in (tmp_path, out):
        with pytest.raises(ValueError, match="empty"):
            export_results(batch, d)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match="empty"):
        summarize(batch)


def test_reexport_is_byte_identical(tmp_path):
    cfg = small_config(nlos_probability=0.3)
    batch = run_batch(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    export_results(batch, d1)
    export_results(batch, d2)
    for f in sorted(p.name for p in d1.iterdir()):
        assert (d1 / f).read_bytes() == (d2 / f).read_bytes(), f


def test_rejected_station_field_format(tmp_path):
    # a common bias on every link would cancel out of the differences, so
    # draw per-link exponential biases to force rejections
    cfg = small_config(
        nlos_probability=1.0, bias_model=BiasModel(kind="exponential", value_m=6.0)
    )
    batch = run_batch(cfg)
    export_results(batch, tmp_path)
    irls_rows = [
        r
        for r in (tmp_path / "trials.csv").read_text().splitlines()[1:]
        if r.split(",")[2] == METHOD_IRLS
    ]
    rejected_fields = [r.split(",")[4] for r in irls_rows]
    assert any(";" in f for f in rejected_fields)
    for f in rejected_fields:
        if f:
            assert all(part in {"1", "2", "3", "4"} for part in f.split(";"))


def test_summary_file_contents(tmp_path):
    cfg = small_config()
    batch = run_batch(cfg)
    export_results(batch, tmp_path)
    text = (tmp_path / "summary.txt").read_text()
    assert f"root_seed: {cfg.root_seed}" in text
    assert "method: LS" in text and "method: IRLS" in text
    assert "mean_error_m" in text and "p90_error_m" in text


# the corner stations under ids that are neither contiguous nor given in order
SHUFFLED_IDS = tuple(BaseStation(i, s.position) for i, s in zip((11, 2, 7, 5), corner_stations()))

# small configs that take the emulation branches no hashed preset takes
SMALL_CONFIGS = {
    "height-difference": dict(height_difference_m=2.5, nlos_probability=0.3),
    "noise-free": dict(noise_override_m=0.0, nlos_probability=0.3),
    "noise-override": dict(noise_override_m=0.05, nlos_probability=0.3),
    "fixed-bias": dict(nlos_probability=0.5, bias_model=BiasModel("fixed", 4.0)),
    "shuffled-ids": dict(stations=SHUFFLED_IDS, schedule_period_s=0.004, nlos_probability=0.3),
    "mmwave": dict(band=mmwave_profile(), nlos_probability=0.3),
}


def export_config(name):
    """A preset, or a small config of ``SMALL_CONFIGS``, by name."""
    return small_config(**SMALL_CONFIGS[name]) if name in SMALL_CONFIGS else get_preset(name)


# sha256 of every export at the config's default seed; any change to a draw,
# a solve, a weight or a format shows here
EXPORT_SHA256 = {
    "static_cband": {
        "trials.csv": "05372655d54ae32909d2b04f8211bcd223bc76c475f10ea001a917b6b4b7998c",
        "summary.txt": "a259a9234e9a04724377b5ab470bd29bdda63d4ae10988653ef486403929b016",
        "cdf_ls.csv": "2944162142a168b88ac1f7748093516d7928bdd25a5461e18e60da3a3e953970",
        "cdf_irls.csv": "3959ee160e0649743bc3dbbc7619f4787951969d5aa448f74104ba2cc7e04095",
    },
    "semidynamic_cband": {
        "trials.csv": "649e55a301840f7685b6007be4165ab2446d204840120147724cbbaaa281bfaa",
        "summary.txt": "6230a0e25a0ae1e43018e8c42582d7ca3b16ef7ff1d2419da2f2e4aebe7467c7",
        "cdf_ls.csv": "ec40b6f9257d3a4d5620ce51dd9ebb19315ef2e89c09765770549da603b82785",
        "cdf_irls.csv": "17a982db9b7337e331116fd4c4e802058eb3b9ad816ba04c29a50879ee7bd075",
    },
    "height-difference": {
        "trials.csv": "bed908a0b8a41073b75169c09d8d726a64e07e8fab3b0181b0d5a05eaead093b",
        "summary.txt": "ae7eae0c084d1f3a0dd8f288f25fee0aeb6f81b6ea88ab1844266bd50c492f47",
        "cdf_ls.csv": "e35f80001ea608e68823bde2037fee2dbc93ea108eb337f879cdffa01a6384cd",
        "cdf_irls.csv": "b7ddfa924d23f0f2eb52856d8e32957bcbbdab3b9399a3e5bc1697c6c1f72283",
    },
    "noise-free": {
        "trials.csv": "a058131f098f38bee273f0d75c16940c4183242b4788358e6dbdba74243762af",
        "summary.txt": "c8d181287232fcb4972ec3951cd753984d94e5e5ce0acf9a7b520d7d26f52320",
        "cdf_ls.csv": "9b55bc4d4392f72059368a225758cb6d07c936bdbe659e19d3b4de14028e4c67",
        "cdf_irls.csv": "fa3212f1cc9867b454c2fd9ce8827d78b93cdf2f9f92bfab37ef8e5dda3e9cfa",
    },
    "noise-override": {
        "trials.csv": "b59cb7f361baed501fa3134f538f518f71c48550c25ae210723f7a028f372aac",
        "summary.txt": "ad287ab8ee061125ddec84d6df325fbc0fc028ec3d3551f88877ee975cb55f27",
        "cdf_ls.csv": "6791fcfe02e669e3729da333de3c53575f5a36b6cfd5a9ca2a79b68eec10f60e",
        "cdf_irls.csv": "36c0005e7cd853536ed9b33ce795be235b18912af6cea7a8c0ead5b7ad725e18",
    },
    "fixed-bias": {
        "trials.csv": "b710bcca7241dcfd2b087383a6fee526dc823e15b33886854198d9de927753c6",
        "summary.txt": "c34f7210f17a63928c27210bb830f10c05054b66e083b9517514ca1e42578585",
        "cdf_ls.csv": "77581cbc68fc5a5102c6cc036a51b0c6b98ca162ba8fc2826f0e25175c5d92e3",
        "cdf_irls.csv": "d9141cdc111f7d2261167e93250b3adf5f6e46cdd884e85401e9a70cde90bd9d",
    },
    "shuffled-ids": {
        "trials.csv": "e563d9743418fdf5fdd3ed477ab5b326f7bcd8998eb7f20097ad7a2ca28703b7",
        "summary.txt": "8cf3e5649a0db82b133fc9e17b7dced0506f12b5c98f1f6b75bb3cbecddf9079",
        "cdf_ls.csv": "c855d84285ad9399e139ba7a3f2597300328c1c2059d9229950e35adb411b759",
        "cdf_irls.csv": "1c34ec9183b40289ff5d3e217288f7c532bdbfbc2d655956e9535a410f4870ad",
    },
    "mmwave": {
        "trials.csv": "70d4a61410b95c75664708970bb5117c84ea76092ece94ea711a08e26d38d23c",
        "summary.txt": "ffb2322ba58820aa201b9069cb99355c17d9508a7e46164517091eb005cc9c96",
        "cdf_ls.csv": "8f2363980d0086912f155f61e8ba63255aa75a538e8410fb9f72ef362896a54d",
        "cdf_irls.csv": "2f3595d521e1d425eb9c9ab3653e0365a5e4ae1ea4aa20d87f04e74f579c6b16",
    },
}


@pytest.mark.parametrize("preset", sorted(EXPORT_SHA256))
def test_default_seed_exports_are_pinned(preset, tmp_path):
    paths = export_results(run_batch(export_config(preset)), tmp_path)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert hashes == EXPORT_SHA256[preset]


# hand-built batches that take export branches no preset run takes
HAND_BUILT_BATCHES = {
    # no LS record: no LS summary section and no cdf_ls.csv
    "irls-only": TrialBatch(
        "irls-only",
        7,
        (
            TrialRecord(0, 0, METHOD_IRLS, 0.25),
            TrialRecord(0, 1, METHOD_IRLS, 1.5, (3,)),
            TrialRecord(1, 0, METHOD_IRLS, 0.125),
            TrialRecord(1, 1, METHOD_IRLS, 12.0625, (1, 2, 4)),
        ),
        degenerate_trials=1,
    ),
    # rejected sets of several ids, written in the order the record holds them
    "multi-id-rejected": TrialBatch(
        "multi-id-rejected",
        3,
        (
            TrialRecord(0, 0, METHOD_LS, 2.5),
            TrialRecord(0, 0, METHOD_IRLS, 0.75, (1, 3, 4)),
            TrialRecord(0, 1, METHOD_LS, 0.5),
            TrialRecord(0, 1, METHOD_IRLS, 0.625, (11, 2, 7, 5)),
            TrialRecord(1, 0, METHOD_LS, 4.0),
            TrialRecord(1, 0, METHOD_IRLS, 3.0, (2,)),
            TrialRecord(1, 1, METHOD_LS, 1.0),
            TrialRecord(1, 1, METHOD_IRLS, 9.0, (1, 2, 3, 4, 5, 6, 7, 8)),
        ),
        degenerate_trials=1,
        nonconverged_candidates=3,
    ),
    # equal errors, and errors that differ past the 9th digit, in both methods
    "tied-errors": TrialBatch(
        "tied-errors",
        0,
        tuple(
            TrialRecord(0, t, method, error)
            for t, pair in enumerate(
                [
                    (1.0, 1.0),
                    (0.5, 1.0000000001),
                    (1.0, 0.5),
                    (1.0000000001, 0.9999999999),
                    (0.5, 1.0),
                    (2.0, 0.0),
                    (0.0, 0.0),
                    (1.0, 2.0),
                ]
            )
            for method, error in zip(METHODS, pair)
        ),
    ),
    # PoI and trial indices with gaps, not in ascending order
    "sparse-trials": TrialBatch(
        "sparse-trials",
        2**64 - 1,
        (
            TrialRecord(3, 17, METHOD_LS, 0.3),
            TrialRecord(3, 17, METHOD_IRLS, 0.2),
            TrialRecord(0, 5, METHOD_LS, 1.7),
            TrialRecord(0, 5, METHOD_IRLS, 1.1, (4,)),
            TrialRecord(22, 2**32 - 1, METHOD_LS, 123456.789),
            TrialRecord(22, 2**32 - 1, METHOD_IRLS, 1e-12),
            TrialRecord(3, 2, METHOD_LS, 7.25),
            TrialRecord(3, 2, METHOD_IRLS, 6.5),
        ),
    ),
}

# recorded from the export that scanned the records once per file
HAND_BUILT_SHA256 = {
    "irls-only": {
        "trials.csv": "86d67006a694388107a75851c24a6102d7e5f8e231930bb28bb0afc9f0a47a9f",
        "summary.txt": "cf3b118a31f9853307ec79ecf6267ceb1245e99bb9f5da94382b4b7e3f3a4910",
        "cdf_irls.csv": "9499533969b1c20c9bb5b914a7c2e99453bde5305ffc9f3ecfc12a0022a92200",
    },
    "multi-id-rejected": {
        "trials.csv": "4332d9beb8cc16bbd713f2c655c249aec25aade832b6e73cd6a7e937e06ec8a0",
        "summary.txt": "aa82ad036a5a96c519d3f287a1491dc342e39150840dccf7e572b63e888a2427",
        "cdf_ls.csv": "39219b94ea3cebcb7920b650a0e6434b8b890d4c26710e049e591de19741e99a",
        "cdf_irls.csv": "ea3b35b9805eac389669823ec9f62365ddf7a5c2869de84423dca32b36f344df",
    },
    "tied-errors": {
        "trials.csv": "f633e05e67bb831d7bf19a6641c5e9d904a328faf3baf3d86e516f04b1a36cc9",
        "summary.txt": "e507798c68971e3f2afebcd79850bfd10fec1d99dda9e14b2e4ef991064b54c8",
        "cdf_ls.csv": "eab25b26aaf72918fb528784be1811cdde05ad7b03016a2cb1194956b1021426",
        "cdf_irls.csv": "72af9aec448aa517aea2c7206254a15a8582d3a0af87a517e8d5cbf5064ffdad",
    },
    "sparse-trials": {
        "trials.csv": "d9fa209ccb36cbb4ca42f83ea2a157949cb281313fefb35d2a0e5ed5c9fd3505",
        "summary.txt": "aebb638567fdc8397227afcb06e33e18d07edbde5b493a3a3671dd3771b06045",
        "cdf_ls.csv": "f322b5790dba815c2588e1ec1b01a7c84604828f07a5092a2f26df9d518a37dc",
        "cdf_irls.csv": "224937b4332dfc221357accc18184e16553cb498a05ff5748e318cbadb1ac419",
    },
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_BATCHES))
def test_hand_built_exports_are_pinned(name, tmp_path):
    paths = export_results(HAND_BUILT_BATCHES[name], tmp_path)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert hashes == HAND_BUILT_SHA256[name]


@pytest.mark.parametrize("name", sorted(HAND_BUILT_BATCHES))
def test_hand_built_summaries(name):
    # each method's errors, scanned on their own, in record order
    batch = HAND_BUILT_BATCHES[name]
    expected = {}
    for method in METHODS:
        errors = np.array([t.error_2d_m for t in batch.per_trial if t.method == method])
        if errors.size:
            expected[method] = MethodSummary(
                errors.size, float(np.mean(errors)), float(np.percentile(errors, 90.0))
            )
    assert summarize(batch) == expected
    assert list(summarize(batch)) == list(expected)


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_trial_emulation_is_the_channel_emulator(name):
    # one ToA formula: a trial's epoch is what emulate_measurement_set makes
    # from the trial's biases, as link states, and its noise generator
    cfg = export_config(name)
    ids = sorted(s.id for s in cfg.stations)
    for p in range(len(cfg.pois)):
        for t in range(cfg.trials_per_poi):
            mset, biases = emulate_trial_measurements(cfg, p, t)
            _, noise_rng = spawned_rngs(cfg.root_seed, p, t)
            expected = emulate_measurement_set(
                cfg.pois[p],
                cfg.stations,
                [LinkState(sid, bias) for sid, bias in zip(ids, biases, strict=True)],
                cfg.band,
                noise_rng,
                schedule_period_s=cfg.schedule_period_s,
                noise_std_m=cfg.noise_override_m,
                height_difference_m=cfg.height_difference_m,
                epoch_id=t,
            )
            assert fingerprint(mset) == fingerprint(expected)
            assert mset == expected


# semidynamic_cband at its default seed: 374 of its 1,150 trials reject every
# reference, and 165 of its 4,600 candidate solves end pinned to the box edge
@pytest.mark.parametrize(
    "preset,degenerate,nonconverged",
    [("static_cband", 0, 0), ("semidynamic_cband", 374, 165)],
)
def test_run_diagnostics_are_reported(preset, degenerate, nonconverged, tmp_path):
    batch = run_batch(get_preset(preset))
    assert (batch.degenerate_trials, batch.nonconverged_candidates) == (degenerate, nonconverged)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    export_results(batch, d1)
    export_results(batch, d2)
    for f in sorted(p.name for p in d1.iterdir()):
        assert (d1 / f).read_bytes() == (d2 / f).read_bytes(), f
    summary = (d1 / "summary.txt").read_text().splitlines()
    assert f"degenerate_trials: {degenerate}" in summary
    assert f"nonconverged_candidates: {nonconverged}" in summary
    header = (d1 / "trials.csv").read_text().splitlines()[0]
    assert header == "poi_index,trial_index,method,error_2d_m,rejected_stations"


def test_run_diagnostics_count_the_estimates():
    cfg = small_config(
        nlos_probability=1.0, bias_model=BiasModel(kind="exponential", value_m=6.0)
    )
    estimates = [
        irls_position(emulate_trial_measurements(cfg, p, t)[0], cfg.stations, cfg.solver, cfg.irls)
        for p in range(len(cfg.pois))
        for t in range(cfg.trials_per_poi)
    ]
    batch = run_batch(cfg)
    assert batch.degenerate_trials == sum(e.degenerate for e in estimates) > 0
    assert batch.nonconverged_candidates == sum(
        not c.converged for e in estimates for c in e.candidates
    )


# --- output contract ------------------------------------------------------------

# a caller such as perfbench/run.py prints its result as the last stdout line
# and counts on no worker outliving a call, so a batch, its export and a fix
# print nothing, warn nothing (a warning goes to stderr), and start no thread
# or process
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nlos_probability", [0.0, 0.3], ids=["all-los", "nlos"])
def test_batch_export_and_fix_write_nothing_and_leave_no_workers(
    nlos_probability, capfd, tmp_path
):
    threads = threading.active_count()
    children = multiprocessing.active_children()
    cfg = small_config(nlos_probability=nlos_probability)
    batch = run_batch(cfg)
    export_results(batch, tmp_path)
    mset, _ = emulate_trial_measurements(cfg, 0, 0)
    irls_position(mset, cfg.stations, cfg.solver, cfg.irls)
    assert capfd.readouterr() == ("", "")
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == children


# --- directional behavior (reduced-size; full scale in the acceptance suite) -----

def test_bandwidth_ordering_reduced():
    cband = small_config()
    mmwave = replace(
        get_preset("static_mmwave").with_overrides(trials_per_poi=2),
        pois=cband.pois,
    )
    s_c = summarize(run_batch(cband))
    s_m = summarize(run_batch(mmwave))
    for method in (METHOD_LS, METHOD_IRLS):
        assert s_m[method].mean_error_m <= s_c[method].mean_error_m

"""Andrews weighting, uncertainty factors, and the reweighting loop.

The loop is checked against a scripted oracle: an independent plain-Python
rerun of the published procedure (candidates once, equal-weight fuse,
then uncertainty -> Andrews -> normalize -> refuse until the step falls
under the threshold).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irlspos import (
    BaseStation,
    IrlsSettings,
    LinkState,
    Position2D,
    andrews_weight,
    emulate_measurement_set,
    euclidean_distance,
    irls_position,
    solve_all_references,
    weighted_average,
)
from irlspos.channel import MeasurementSet
from irlspos.geometry import check_station_layout
from irlspos.irls import _uncertainty
from irlspos.lsq import reference_rows
from irlspos.presets import cband_profile, corner_stations
from irlspos.tdoa import compute_tdoas
from conftest import AOI_H, AOI_W, exact_measurements, fixes


def scripted_oracle(m, stations, ls_settings=None, irls_settings=None):
    """Direct transcription of the reweighting procedure, kept free of the
    production loop's internals."""
    irls_settings = irls_settings or IrlsSettings()
    candidates = solve_all_references(m, stations, ls_settings)
    positions = [(c.position.x, c.position.y) for c in candidates]
    refs = [c.reference_id for c in candidates]
    rd = {e: compute_tdoas(m, e) for e in refs}
    index = {s.id: s for s in stations}
    n = len(refs)

    q = (sum(p[0] for p in positions) / n, sum(p[1] for p in positions) / n)
    weights = [1.0 / n] * n
    converged = False
    degenerate = False
    step = math.inf
    iterations = 0
    for iterations in range(1, irls_settings.max_iterations + 1):
        raw = []
        for e in refs:
            de = math.hypot(q[0] - index[e].position.x, q[1] - index[e].position.y)
            total = 0.0
            for sid, dd in rd[e].entries:
                dn = math.hypot(q[0] - index[sid].position.x, q[1] - index[sid].position.y)
                total += abs(dd - (dn - de))
            u = total / (n - 1)
            if u == 0:
                raw.append(1.0)
            elif u > irls_settings.u_max_m:
                raw.append(0.0)
            else:
                raw.append(
                    (irls_settings.u_max_m / (u * math.pi))
                    * math.sin(u * math.pi / irls_settings.u_max_m)
                )
        if sum(raw) == 0.0:
            degenerate = True
            weights = [0.0] * n
            break
        weights = [w / sum(raw) for w in raw]
        q_new = (
            sum(w * p[0] for w, p in zip(weights, positions)),
            sum(w * p[1] for w, p in zip(weights, positions)),
        )
        step = math.hypot(q_new[0] - q[0], q_new[1] - q[1])
        q = q_new
        if step <= irls_settings.epsilon_m:
            converged = True
            break
    return {
        "position": q,
        "weights": dict(zip(refs, weights)),
        "iterations": iterations,
        "converged": converged,
        "degenerate": degenerate,
    }


# --- Andrews weight ---------------------------------------------------------------

def test_andrews_at_zero():
    assert andrews_weight(0.0, 1.0) == 1.0


def test_andrews_at_cutoff():
    assert andrews_weight(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_andrews_at_half_cutoff():
    assert andrews_weight(0.5, 1.0) == pytest.approx(2.0 / math.pi, abs=1e-12)


def test_andrews_beyond_cutoff():
    assert andrews_weight(1.5, 1.0) == 0.0
    assert andrews_weight(100.0, 1.0) == 0.0


def test_andrews_rejects_negative():
    with pytest.raises(ValueError):
        andrews_weight(-1e-9, 1.0)


def test_andrews_continuity():
    for u in (0.0, 0.5, 1.0):
        w = andrews_weight(u, 1.0)
        for du in (1e-9, -1e-9):
            if u + du < 0:
                continue
            assert abs(andrews_weight(u + du, 1.0) - w) < 1e-6


def test_andrews_strictly_decreasing_inside_support():
    u = np.linspace(1e-9, 1.0, 1000)
    w = [andrews_weight(float(x), 1.0) for x in u]
    assert all(a > b for a, b in zip(w, w[1:]))


# --- uncertainty factor --------------------------------------------------------------

def uncertainty(reference_id, q_wa, m, stations):
    rd = compute_tdoas(m, reference_id)
    return _uncertainty(reference_rows(rd, check_station_layout(stations)), q_wa)


def test_uncertainty_zero_at_truth(stations, band):
    ue = Position2D(9.0, 12.0)
    m = exact_measurements(ue, stations, band)
    for s in stations:
        assert uncertainty(s.id, ue, m, stations) == pytest.approx(0.0, abs=1e-12)


def test_uncertainty_single_perturbed_entry(stations, band):
    # +b on one non-reference arrival shows up as b/(N-1)
    ue = Position2D(9.0, 12.0)
    m = exact_measurements(ue, stations, band)
    b = 2.4
    samples = tuple(
        (sid, toa + (b / 299792458.0 if sid == 3 else 0.0)) for sid, toa in m.samples
    )
    perturbed = MeasurementSet(epoch_id=0, samples=samples)
    assert uncertainty(1, ue, perturbed, stations) == pytest.approx(
        b / 3, rel=1e-9
    )


def test_uncertainty_biased_reference_sees_full_bias(stations, band):
    # the reference's own bias enters every difference of its rotation
    ue = Position2D(9.0, 12.0)
    m = exact_measurements(ue, stations, band, biases={1: 10.0})
    assert uncertainty(1, ue, m, stations) == pytest.approx(10.0, rel=1e-9)
    for sid in (2, 3, 4):
        assert uncertainty(sid, ue, m, stations) == pytest.approx(
            10.0 / 3, rel=1e-9
        )


# --- weighted average ------------------------------------------------------------------

def _cands_at(points):
    from irlspos.lsq import CandidateEstimate
    from irlspos.tdoa import RangeDifferenceSet

    return [
        CandidateEstimate(
            i + 1, Position2D(*p), 0.0, True, 1, RangeDifferenceSet(i + 1, ())
        )
        for i, p in enumerate(points)
    ]


def test_weighted_average_idempotent():
    cands = _cands_at([(3.0, 4.0)] * 4)
    assert weighted_average(cands, [0.25] * 4) == Position2D(3.0, 4.0)


def test_weighted_average_vertex():
    cands = _cands_at([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])
    assert weighted_average(cands, [1.0, 0.0, 0.0, 0.0]) == Position2D(1.0, 1.0)


def test_weighted_average_midpoint():
    cands = _cands_at([(0.0, 0.0), (2.0, 4.0)])
    assert weighted_average(cands, [0.5, 0.5]) == Position2D(1.0, 2.0)


def test_weighted_average_count_mismatch():
    with pytest.raises(ValueError, match="weights"):
        weighted_average(_cands_at([(0.0, 0.0)]), [0.5, 0.5])


# --- the loop -----------------------------------------------------------------------------

def test_zero_noise_converges_immediately(stations, band):
    ue = Position2D(10.0, 10.0)
    m = exact_measurements(ue, stations, band)
    est = irls_position(m, stations)
    assert euclidean_distance(est.position, ue) < 1e-6
    assert est.converged and est.iterations <= 2
    for w in est.weights.values():
        assert w == pytest.approx(0.25, abs=1e-12)


def test_huge_epsilon_stops_after_one_iteration(stations, band):
    ue = Position2D(16.0, 8.0)
    m = exact_measurements(ue, stations, band)
    est = irls_position(m, stations, irls=IrlsSettings(epsilon_m=1e9))
    assert est.iterations == 1
    assert est.converged
    # with exact data the first weighted pass reproduces the equal-weight fuse
    candidates = solve_all_references(m, stations)
    q0 = weighted_average(candidates, [0.25] * 4)
    assert euclidean_distance(est.position, q0) < 1e-12


def test_large_bias_degenerates_to_all_rejected(stations, band):
    # +10 m >> u_max=1 m contaminates every rotation's uncertainty, so the
    # hard cutoff rejects all references in the first weight update and the
    # equal-weight fuse is returned flagged
    ue = Position2D(10.0, 10.0)
    m = exact_measurements(ue, stations, band, biases={1: 10.0})
    est = irls_position(m, stations, irls=IrlsSettings(u_max_m=1.0))
    assert est.degenerate and not est.converged
    assert set(est.rejected_station_ids()) == {1, 2, 3, 4}
    assert all(w == 0.0 for w in est.weights.values())
    candidates = solve_all_references(m, stations)
    q0 = weighted_average(candidates, [0.25] * 4)
    assert euclidean_distance(est.position, q0) < 1e-12
    oracle = scripted_oracle(m, stations)
    assert oracle["degenerate"]
    assert euclidean_distance(est.position, Position2D(*oracle["position"])) < 1e-12


def test_moderate_bias_matches_scripted_oracle(stations, band):
    rng = np.random.default_rng(14)
    for trial in range(6):
        ue = Position2D(*rng.uniform([2, 2], [AOI_W - 2, AOI_H - 2]))
        biased = int(rng.integers(1, 5))
        bias = float(rng.uniform(0.5, 4.0))
        links = [
            LinkState(s.id, s.id != biased, bias if s.id == biased else 0.0)
            for s in sorted({s.id: s for s in stations}.values(), key=lambda s: s.id)
        ]
        m = emulate_measurement_set(
            ue, stations, links, band, rng_seed=trial, noise_std_m=1.5e-3
        )
        est = irls_position(m, stations)
        oracle = scripted_oracle(m, stations)
        assert euclidean_distance(est.position, Position2D(*oracle["position"])) < 1e-9
        assert est.iterations == oracle["iterations"]
        assert est.converged == oracle["converged"]
        assert est.degenerate == oracle["degenerate"]
        for sid, w in est.weights.items():
            assert w == pytest.approx(oracle["weights"][sid], abs=1e-9)


def test_outlier_rejection_hard_cutoff_many_stations(band):
    # with enough rotations to dilute the contamination, the biased
    # reference is hard-rejected while clean references keep weight:
    # bias 5 m >> u_max = 1 m, clean uncertainties ~ 5/11 m
    stations = [
        BaseStation(i + 1, Position2D(14.5 + 13.0 * math.cos(a), 12.5 + 11.0 * math.sin(a)))
        for i, a in enumerate(np.linspace(0, 2 * math.pi, 12, endpoint=False))
    ]
    ue = Position2D(13.0, 11.0)
    m = exact_measurements(ue, stations, band, biases={3: 5.0})
    est = irls_position(m, stations, irls=IrlsSettings(u_max_m=1.0))
    assert not est.degenerate
    assert est.weights[3] == 0.0
    assert 3 in est.rejected_station_ids()
    positive = [sid for sid, w in est.weights.items() if w > 0]
    assert len(positive) >= 5
    assert sum(est.weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_four_station_bias_at_5x_cutoff_still_zeroes_biased_weight(stations, band):
    # at desk scale (4 corner stations) the same bias level drives every
    # rotation's uncertainty past the cutoff; the weight-0 outcome holds
    # through the degenerate path
    ue = Position2D(10.0, 10.0)
    m = exact_measurements(ue, stations, band, biases={2: 5.0})
    est = irls_position(m, stations, irls=IrlsSettings(u_max_m=1.0))
    assert est.weights[2] == 0.0


def test_weights_sum_to_one_on_noisy_instances(stations, band):
    rng = np.random.default_rng(15)
    links = [LinkState(s.id, True, 0.0) for s in stations]
    for trial in range(10):
        ue = Position2D(*rng.uniform([2, 2], [AOI_W - 2, AOI_H - 2]))
        m = emulate_measurement_set(ue, stations, links, band, rng_seed=trial)
        est = irls_position(m, stations)
        assert sum(est.weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(w >= 0 for w in est.weights.values())


def test_iteration_budget_is_respected(stations, band):
    ue = Position2D(3.0, 21.0)
    m = exact_measurements(ue, stations, band, biases={2: 1.8})
    est = irls_position(
        m, stations, irls=IrlsSettings(epsilon_m=1e-15, max_iterations=7)
    )
    assert est.iterations <= 7


# a permutation of up to 8 items: ORDERS draws it, reorder applies it
ORDERS = st.permutations(range(8))
BIASES = st.floats(0.5, 5.0)
REVERSED = tuple(range(7, -1, -1))


def reorder(items, order):
    return [items[i] for i in order if i < len(items)]


@given(case=fixes(BIASES), order=ORDERS)
@example(case=(corner_stations(), Position2D(21.0, 6.0), {4: 2.0}), order=REVERSED)
def test_station_order_does_not_matter(case, order):
    stations, ue, biases = case
    m = exact_measurements(ue, stations, cband_profile(), biases)
    est1 = irls_position(m, stations)
    est2 = irls_position(m, reorder(stations, order))
    assert est1.position == est2.position  # bit-identical
    assert est1.weights == est2.weights


# drawn fixes are noise-free: with a biased range, new labels reorder the
# solver's sums, and a 1e-6 m step tolerance lets the stopping point move by
# up to ~5e-9 m; the biased example below stays within 1e-9
@given(case=fixes(), order=ORDERS)
# swap the labels of stations 1 and 2
@example(case=(corner_stations(), Position2D(21.0, 6.0), {4: 2.0}), order=(1, 0, 2, 3, 4, 5, 6, 7))
def test_relabeling_ids_permutes_weights(case, order):
    # same physics under new labels, so the weight map is permuted
    stations, ue, biases = case
    new_id = dict(zip((s.id for s in stations), reorder([s.id for s in stations], order)))
    relabeled = [BaseStation(new_id[s.id], s.position) for s in stations]
    band = cband_profile()
    m1 = exact_measurements(ue, stations, band, biases)
    m2 = exact_measurements(ue, relabeled, band, {new_id[k]: b for k, b in biases.items()})
    est1 = irls_position(m1, stations)
    est2 = irls_position(m2, relabeled)
    assert euclidean_distance(est1.position, est2.position) < 1e-9
    for sid, w in est1.weights.items():
        assert est2.weights[new_id[sid]] == pytest.approx(w, abs=1e-12)


# not a theorem: in about 0.2% of such fixes one reference's candidate ends on
# the solve-box edge and stays in the fused estimate; the drawn examples and
# these first three UEs of the former seeded sweep are all recovered
@settings(max_examples=100)
@given(case=fixes())
@example(case=(corner_stations(), Position2D(16.37367148862222, 10.837859491764455), {}))
@example(case=(corner_stations(), Position2D(3.134067112922687, 8.853909210463891), {}))
@example(case=(corner_stations(), Position2D(17.902253074659022, 1.0197200763850525), {}))
def test_outlier_free_consistency_100_positions(case):
    stations, ue, biases = case
    m = exact_measurements(ue, stations, cband_profile(), biases)
    est = irls_position(m, stations)
    assert euclidean_distance(est.position, ue) < 1e-6


def test_settings_validation():
    with pytest.raises(ValueError, match="u_max"):
        IrlsSettings(u_max_m=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        IrlsSettings(epsilon_m=-1.0)
    with pytest.raises(ValueError, match="max_iterations"):
        IrlsSettings(max_iterations=0)


# values that used to pass construction and break in the loop: an infinite
# cutoff gave NaN weights, and a fractional budget raised TypeError
@pytest.mark.parametrize(
    "field,value",
    [
        ("u_max_m", math.inf),
        ("u_max_m", math.nan),
        ("epsilon_m", math.nan),
        ("max_iterations", 2.5),
        ("max_iterations", True),
    ],
)
def test_malformed_irls_settings_are_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        IrlsSettings(**{field: value})

"""Shared fixtures: the canonical corner-station hall and band profiles,
plus helpers that only the tests need."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

import irlspos
from irlspos import (
    SPEED_OF_LIGHT_M_S,
    BaseStation,
    GeometryError,
    MeasurementSet,
    Position2D,
    euclidean_distance,
)
from irlspos.geometry import check_station_layout
from irlspos.presets import cband_profile, corner_stations
from irlspos.tdoa import RangeDifferenceSet

AOI_W = 29.0
AOI_H = 25.0

# every run draws the same examples and leaves no example database behind
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def stations():
    return list(corner_stations())


@pytest.fixture
def band():
    return cband_profile()


def emulate_epoch(
    ue,
    stations,
    band,
    rng,
    biases=None,
    *,
    schedule_period_s,
    noise_std_m,
    height_difference_m,
    epoch_id,
):
    """A hand-made epoch, written apart from the library's emulator: per
    station in id order, ToA = (id - min id) * period + (range + bias +
    noise) / c, where range is the 2D distance, taken through hypot with
    ``height_difference_m`` when that is not 0, ``biases`` maps station id
    to excess meters, and the noise is one draw of N values of std
    ``noise_std_m`` from ``np.random.default_rng(rng)``. ``band`` is not
    read: the caller passes the std."""
    biases = biases or {}
    ordered = sorted(stations, key=lambda s: s.id)
    noise = np.random.default_rng(rng).normal(0.0, noise_std_m, len(ordered)).tolist()
    first = ordered[0].id
    samples = []
    for s, noise_m in zip(ordered, noise):
        range_m = math.hypot(ue.x - s.position.x, ue.y - s.position.y)
        if height_difference_m != 0.0:
            range_m = math.hypot(range_m, height_difference_m)
        stagger = (s.id - first) * schedule_period_s
        toa = stagger + (range_m + biases.get(s.id, 0.0) + noise_m) / SPEED_OF_LIGHT_M_S
        samples.append((s.id, toa))
    return MeasurementSet(epoch_id, tuple(samples), schedule_period_s)


def exact_measurements(ue, stations, band, biases=None, schedule_period_s=0.0):
    """Noise-free measurement set; ``biases`` maps station id -> excess meters."""
    return emulate_epoch(
        ue,
        stations,
        band,
        0,
        biases,
        schedule_period_s=schedule_period_s,
        noise_std_m=0.0,
        height_difference_m=0.0,
        epoch_id=0,
    )


def true_first_toa(ue, bs):
    """Propagation time of the direct path from a station to the UE, in seconds."""
    return euclidean_distance(ue, bs.position) / SPEED_OF_LIGHT_M_S


def residuals_at(x, y, rd):
    """Residuals r_n = delta_d_n - (||p - q_n|| - ||p - q_e||) of a range
    difference set at p = (x, y)."""
    rx, ry = rd.reference
    dist_e = math.hypot(x - rx, y - ry)
    return [dd - (math.hypot(x - qx, y - qy) - dist_e) for qx, qy, dd in rd.rows]


def fuse(points, weights):
    """The weighted sum (fsum(w x), fsum(w y)) of ``(x, y)`` points, written
    apart from the library's loop; ``weights`` should sum to 1."""
    return (
        math.fsum([w * x for w, (x, _) in zip(weights, points)]),
        math.fsum([w * y for w, (_, y) in zip(weights, points)]),
    )


def residual_norm_m(candidate):
    """Euclidean norm of a candidate's range-difference residuals at its
    position."""
    p = candidate.position
    return math.sqrt(math.fsum(r * r for r in residuals_at(p.x, p.y, candidate.range_differences)))


def ring_stations(n):
    """``n`` stations on an ellipse around the hall's center, at the angles
    ``numpy.linspace(0, 2 pi, n, endpoint=False)`` gives."""
    step = 2 * math.pi / n
    return [
        BaseStation(
            i + 1, Position2D(14.5 + 13.0 * math.cos(i * step), 12.5 + 11.0 * math.sin(i * step))
        )
        for i in range(n)
    ]


COORD = st.floats(0.0, 40.0)


@st.composite
def station_layouts(draw):
    """3-8 stations with ids 1..N, at least 1 m apart and not all collinear."""
    points = draw(st.lists(st.tuples(COORD, COORD), min_size=3, max_size=8))
    stations = [BaseStation(i + 1, Position2D(x, y)) for i, (x, y) in enumerate(points)]
    assume(
        all(
            euclidean_distance(a.position, b.position) >= 1.0
            for i, a in enumerate(stations)
            for b in stations[i + 1 :]
        )
    )
    try:
        check_station_layout(stations)
    except GeometryError:
        assume(False)
    return stations


@st.composite
def fixes(draw, bias=st.just(0.0)):
    """(stations, UE, {station id: range bias}): a drawn layout, a UE that is
    a convex combination of its stations, and one station's range biased by
    a draw from ``bias``."""
    stations = draw(station_layouts())
    weights = draw(st.lists(st.integers(0, 100), min_size=len(stations), max_size=len(stations)))
    assume(sum(weights) > 0)
    ue = Position2D(
        math.fsum(w * s.position.x for w, s in zip(weights, stations)) / sum(weights),
        math.fsum(w * s.position.y for w, s in zip(weights, stations)) / sum(weights),
    )
    biased = draw(st.sampled_from([s.id for s in stations]))
    return stations, ue, {biased: draw(bias)}


def translated(p, dx, dy):
    return Position2D(p.x + dx, p.y + dy)


def range_difference_set(stations, reference_id, deltas):
    """A hand-made set: ``deltas`` maps each non-reference station id to its
    range difference, and coordinates come from ``stations``, as
    compute_tdoas lays them out (ascending id, reference skipped)."""
    index = {s.id: s.position for s in stations}
    ref = index[reference_id]
    rows = tuple(
        (index[sid].x, index[sid].y, deltas[sid]) for sid in sorted(index) if sid != reference_id
    )
    return RangeDifferenceSet(reference_id, (ref.x, ref.y), rows)


def deltas_by_id(rd, stations):
    """{station id: range difference} of a set: its rows ascend by station
    id with the reference skipped, so ids come from the station list and
    never from the rows' coordinates."""
    ids = sorted(s.id for s in stations if s.id != rd.reference_id)
    assert len(ids) == len(rd.rows)
    return {sid: dd for sid, (_, _, dd) in zip(ids, rd.rows)}


def toa(m, station_id):
    """The measured ToA of one station in a measurement set."""
    return dict(m.samples)[station_id]


def transmission_offsets(m):
    """Every pairwise transmit offset of a measurement set, keyed (n, e)."""
    ids = m.station_ids
    return {(n, e): (n - e) * m.schedule_period_s for n in ids for e in ids if n != e}


def fingerprint(m):
    """Content hash; identical measurement sets (bit for bit) share one."""
    text = "|".join(
        f"{sid}:{toa.hex()}" for sid, toa in m.samples
    ) + f"|{m.epoch_id}|{m.schedule_period_s.hex()}"
    return hashlib.sha256(text.encode()).hexdigest()


def fresh_interpreter(code):
    """The last stdout line of ``code`` run in a new interpreter that imports
    irlspos from the tree under test."""
    src = str(Path(irlspos.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def loaded_after(code, names=("numpy", "yaml", "scipy")):
    """Which of ``names`` are in ``sys.modules`` after ``code`` runs in a new
    interpreter, as the printed sorted list."""
    return fresh_interpreter(
        f"{code}\nimport sys\nprint(sorted(set({list(names)!r}) & set(sys.modules)))"
    )

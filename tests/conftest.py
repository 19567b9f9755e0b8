"""Shared fixtures: the canonical corner-station hall and band profiles,
plus helpers that only the tests need."""

import hashlib
import math

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from irlspos import (
    BaseStation,
    GeometryError,
    LinkState,
    Position2D,
    emulate_measurement_set,
    euclidean_distance,
)
from irlspos.geometry import check_station_layout
from irlspos.presets import cband_profile, corner_stations

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


def exact_measurements(ue, stations, band, biases=None, schedule_period_s=0.0):
    """Noise-free measurement set; ``biases`` maps station id -> excess meters."""
    biases = biases or {}
    links = [
        LinkState(s.id, is_los=(biases.get(s.id, 0.0) == 0.0), nlos_bias_m=biases.get(s.id, 0.0))
        for s in stations
    ]
    return emulate_measurement_set(
        ue,
        stations,
        links,
        band,
        rng_seed=0,
        schedule_period_s=schedule_period_s,
        noise_std_m=0.0,
    )


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


def transmission_offsets(m):
    """Every pairwise transmit offset of a measurement set, keyed (n, e)."""
    ids = m.station_ids
    return {(n, e): m.transmission_offset(n, e) for n in ids for e in ids if n != e}


def fingerprint(m):
    """Content hash; identical measurement sets (bit for bit) share one."""
    text = "|".join(
        f"{sid}:{toa.hex()}" for sid, toa in m.samples
    ) + f"|{m.epoch_id}|{m.schedule_period_s.hex()}"
    return hashlib.sha256(text.encode()).hexdigest()

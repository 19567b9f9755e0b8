"""Shared fixtures: the canonical corner-station hall and band profiles,
plus helpers that only the tests need."""

import hashlib

import pytest
from hypothesis import settings

from irlspos import LinkState, Position2D, emulate_measurement_set
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

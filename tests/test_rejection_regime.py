"""Where Andrews-sine reweighting rejects an outlier, measured without noise.

N anchors sit evenly on a circle of radius 15 m; station 1's range carries
an extra b meters; the UE is drawn uniformly within 10 m of the centre,
inside the anchors' convex hull for every N here, 40 epochs per (N, b) cell
from one seeded generator; ``u_max`` is the default 1 m. An epoch is
*isolated* when the estimate is not degenerate and station 1 is the only
reference with zero weight, and *degenerate* when every reference is
rejected.

Measured counts (isolated / degenerate, of 40):

    N \\ b      2 m       6 m       10 m
    4        0 / 0     0 / 39    0 / 40
    6       31 / 0     0 / 40    0 / 40
    8       39 / 0     0 / 40    0 / 40

Reweighting helps only for a bias of the order of ``u_max`` and with more
than four anchors. Four anchors give one redundant range, which detects a
fault but cannot say which station caused it. From 6 m on, the equal-weight
start is already pulled so far by the biased range that every reference's
mean residual exceeds ``u_max``; the loop then rejects all of them and
returns that equal-weight average unchanged. A larger outlier is thus
handled worse, and more anchors do not help.

Even an isolated epoch keeps part of the bias: every reference's candidate
is solved from all N ranges, the biased one included, so dropping the
biased reference's candidate leaves the others' share of the error. At
N = 8, b = 2 m the isolated epochs' mean error falls from 0.52 m at the
equal-weight start to 0.42 m, not to zero.
"""

import math

import numpy as np
import pytest

from irlspos import BaseStation, Position2D, irls_position
from conftest import exact_measurements

RADIUS_M = 15.0
UE_RADIUS_M = 10.0
EPOCHS = 40
BIASED_ID = 1


def circle_stations(n):
    return [
        BaseStation(
            i + 1,
            Position2D(
                RADIUS_M + RADIUS_M * math.cos(2 * math.pi * i / n),
                RADIUS_M + RADIUS_M * math.sin(2 * math.pi * i / n),
            ),
        )
        for i in range(n)
    ]


def ues_in_disc(seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(EPOCHS):
        r = UE_RADIUS_M * math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2 * math.pi)
        yield Position2D(RADIUS_M + r * math.cos(theta), RADIUS_M + r * math.sin(theta))


@pytest.mark.parametrize(
    "n,bias_m,isolated,degenerate",
    [
        (4, 2.0, 0, 0),
        (4, 6.0, 0, 39),
        (4, 10.0, 0, 40),
        (6, 2.0, 31, 0),
        (6, 6.0, 0, 40),
        (6, 10.0, 0, 40),
        (8, 2.0, 39, 0),
        (8, 6.0, 0, 40),
        (8, 10.0, 0, 40),
    ],
)
def test_isolation_window(n, bias_m, isolated, degenerate, band):
    stations = circle_stations(n)
    counts = {"isolated": 0, "degenerate": 0}
    for ue in ues_in_disc():
        m = exact_measurements(ue, stations, band, biases={BIASED_ID: bias_m})
        estimate = irls_position(m, stations)
        if estimate.degenerate:
            counts["degenerate"] += 1
        elif estimate.rejected_station_ids() == (BIASED_ID,):
            counts["isolated"] += 1
    assert counts == {"isolated": isolated, "degenerate": degenerate}

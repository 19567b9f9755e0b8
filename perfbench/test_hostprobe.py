"""The host probe turns a wall time into one at the reference speed.

    python3 -m pytest perfbench/test_hostprobe.py -q
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import hostprobe  # noqa: E402


def test_scale_is_positive_and_finite():
    scale = hostprobe.scale()
    assert math.isfinite(scale) and scale > 0


def test_slower_host_gives_smaller_scale(monkeypatch):
    work = hostprobe._work

    def stalled():
        time.sleep(4 * hostprobe.REFERENCE_S)
        return work()

    monkeypatch.setattr(hostprobe, "_work", stalled)
    # every call now takes at least five reference times
    assert hostprobe.scale() < 0.2

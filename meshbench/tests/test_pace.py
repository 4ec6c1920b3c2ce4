"""The pace sampler: slices run on the timer, stop with it, and scale times."""

from __future__ import annotations

import math
import signal
import time

import pace


def test_pacer_samples_until_stopped():
    pacer = pace.Pacer()
    pacer.start()
    until = time.monotonic() + 5 * pace.INTERVAL_S
    while time.monotonic() < until:
        sum(range(1000))
    pacer.stop()
    taken = len(pacer.slices)
    assert taken >= 2
    assert 0 < pacer.spent() < 5 * pace.INTERVAL_S
    assert min(pacer.slices) <= pacer.pace() <= max(pacer.slices)
    time.sleep(3 * pace.INTERVAL_S)
    assert len(pacer.slices) == taken
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_scaled_is_in_proportion_to_pace():
    assert pace.scaled(3.0, pace.REFERENCE_S) == 3.0
    assert math.isclose(pace.scaled(3.0, pace.REFERENCE_S / 2), 6.0)
    assert math.isclose(pace.scaled(3.0, pace.REFERENCE_S * 2), 1.5)
    assert pace.Pacer().pace() == pace.REFERENCE_S


def test_pace_leaves_out_interrupted_slices():
    pacer = pace.Pacer()
    pacer.slices = [0.002, 0.0018, 0.0022, 0.02]
    assert math.isclose(pacer.pace(), 0.002)

import gc

import pytest

import run
import yardstick


def test_times_read_as_if_at_the_reference_speed():
    # the routine ran at twice its reference time: the machine was
    # half as fast, so the program's times halve
    slow = [2 * yardstick.REFERENCE_MS] * 4
    assert yardstick.scale(slow) == pytest.approx(0.5)
    assert yardstick.scale([yardstick.REFERENCE_MS / 2]) == pytest.approx(2.0)


def test_routine_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert yardstick.timed() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        yardstick.timed()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_daemon_cpu_is_scaled_per_interval():
    ref = yardstick.REFERENCE_MS
    readings = [
        {"cpu_s": {"writer": 0.0, "reader": 0.0}, "yard_ms": [5 * ref]},
        # first interval at the reference speed
        {"cpu_s": {"writer": 1.0, "reader": 0.5}, "yard_ms": [ref, ref]},
        # second interval at half speed: the runs average 2x the reference
        {"cpu_s": {"writer": 3.0, "reader": 0.5}, "yard_ms": [ref, 3 * ref]},
        # too short for a run: the speed of the interval before
        {"cpu_s": {"writer": 3.2, "reader": 0.5}, "yard_ms": []},
    ]
    assert run._scaled_cpu(readings) == pytest.approx({"writer": 2.1, "reader": 0.5})

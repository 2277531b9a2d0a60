"""Calibration math, and the fallbacks when pinning or timers are missing."""

import os
import signal

import pytest

import calibrate


def test_calibrated_seconds_is_raw_at_the_reference_speed():
    ref = calibrate.SPIN_REF_S
    assert calibrate.calibrated_seconds(2.0, [ref, ref]) == pytest.approx(2.0)
    # A host twice as slow takes twice as long for the same work.
    assert calibrate.calibrated_seconds(2.0, [2 * ref]) == pytest.approx(1.0)
    # Half the unit at each speed: the work done is the mean of the rates.
    assert calibrate.calibrated_seconds(3.0, [ref, 2 * ref]) == pytest.approx(3.0 * 0.75)
    with pytest.raises(ValueError):
        calibrate.calibrated_seconds(1.0, [])


def test_measure_reports_raw_and_calibrated_and_returns_the_result():
    cal = calibrate.Calibrator(pin=False)
    result, unit = cal.measure(lambda: sum(range(200_000)))
    assert result == sum(range(200_000))
    assert unit.samples >= 2  # the two bracketing spins at least
    assert unit.raw_s > 0 and unit.cal_s > 0
    assert set(cal.host_metrics()) == {"host.spin_ms", "host.spin_spread"}


def test_sampling_restores_the_previous_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    calibrate.Calibrator(pin=False).measure(lambda: None)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pin_falls_back_when_affinity_is_unavailable(monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert calibrate.pin_to_one_cpu() is None
    cal = calibrate.Calibrator()
    assert cal.cpu is None
    _, unit = cal.measure(lambda: None)
    assert unit.samples >= 2


def test_pin_falls_back_when_the_kernel_refuses(monkeypatch):
    def refuse(pid, cpus):
        raise OSError("not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert calibrate.pin_to_one_cpu() is None


def test_measure_falls_back_to_bracketing_spins_without_interval_timers(monkeypatch):
    monkeypatch.delattr(signal, "setitimer")
    cal = calibrate.Calibrator(pin=False)
    _, unit = cal.measure(lambda: sum(range(500_000)))
    assert unit.samples == 2

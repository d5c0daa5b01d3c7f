"""The taint rule and the speed factor."""

import pytest

import hostspeed


@pytest.mark.parametrize(
    ("checks_ok", "stall_s", "tainted"),
    [
        (False, 0.200, True),  # failed and the host stalled for at least δ: re-run
        (False, 0.150, True),
        (False, 0.149, False),  # failed with a clean sentinel: a real failure
        (True, 0.500, False),  # a stall that broke nothing: keep the sample
        (True, 0.0, False),
    ],
)
def test_taint_needs_a_failed_check_and_a_stall_of_delta(checks_ok, stall_s, tainted):
    assert hostspeed.is_tainted(checks_ok, stall_s, delta_s=0.150) is tainted


def test_factor_is_nominal_over_mean_kernel_time():
    ticks = iter([0.0, 0.002, 0.002, 0.003])
    gauge = hostspeed.SpeedGauge(clock=lambda: next(ticks))
    gauge.tick()
    gauge.tick()
    assert gauge.ticks == 2
    assert gauge.cpu_s == pytest.approx(0.003)
    assert gauge.factor() == pytest.approx(hostspeed.NOMINAL_KERNEL_S * 2 / 0.003)


def test_a_gauge_that_never_ticked_has_no_factor():
    with pytest.raises(RuntimeError):
        hostspeed.SpeedGauge().factor()

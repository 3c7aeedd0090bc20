"""The speed probe's arithmetic and its place in a timed run."""

import child


def test_speed_is_the_mean_over_windows_of_reference_over_median():
    probe = child.SpeedProbe()
    ref = child.PROBE_REF_S
    # first window: half the reference speed, with one outlier; second: reference
    probe.samples = [(0.0, 2 * ref), (0.3, 2 * ref), (0.6, 50 * ref),
                     (1.0, ref), (1.5, ref)]
    assert abs(probe.speed() - 0.75) < 1e-12
    assert abs(probe.busy_s() - 56 * ref) < 1e-12


def test_probe_samples_while_running_and_stops():
    probe = child.SpeedProbe()
    probe.start()
    probe.stop()
    assert len(probe.samples) >= 1
    assert probe.speed() > 0
    assert not probe._thread.is_alive()

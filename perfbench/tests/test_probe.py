import time

import pytest

from child import SpeedProbe
from run import PROBE_REF_S, BenchError, normalized_walls


def _pass(*runs):
    commands = [{"label": "x", "seconds": s, "probe_n": n, "probe_s": t} for s, n, t in runs]
    return {"wall_s": sum(s for s, _, _ in runs), "commands": commands}


def test_a_pass_is_divided_by_the_mean_probe_time_inside_it_or_else_the_runs():
    passes = [
        _pass((2.0, 4, 0.004), (1.0, 0, 0.0)),  # pass mean 0.001
        _pass((0.02, 0, 0.0), (0.03, 0, 0.0)),  # no probe: run mean (0.004 + 0.012) / 8
        _pass((1.0, 2, 0.006), (3.0, 2, 0.006)),  # pass mean 0.003
    ]
    assert normalized_walls(passes) == pytest.approx([
        PROBE_REF_S * 3.0 / 0.001,
        PROBE_REF_S * 0.05 / 0.002,
        PROBE_REF_S * 4.0 / 0.003,
    ])


def test_a_run_that_never_saw_the_probe_is_an_error():
    with pytest.raises(BenchError):
        normalized_walls([_pass((0.01, 0, 0.0))])


def test_the_probe_samples_only_while_armed():
    probe = SpeedProbe()
    probe.arm()
    end = time.perf_counter() + 0.4
    while time.perf_counter() < end:
        sum(range(1000))
    probe.disarm()
    seen = len(probe.samples)
    assert seen >= 3 and all(0 < s < 0.1 for s in probe.samples)
    time.sleep(0.2)
    assert len(probe.samples) == seen

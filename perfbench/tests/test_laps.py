"""The lap timer and the fastest-laps throughput."""

import time

import pytest

from harness import Laps, fastest_laps_rate


def test_each_lap_is_timed_at_its_fastest_across_rounds():
    laps = [[0.3, 0.2, 0.5], [0.1, 0.4, 0.6], [0.2, 0.3, 0.4]]
    assert fastest_laps_rate([70, 70, 70], laps) == pytest.approx(70 / (0.1 + 0.2 + 0.4))


def test_one_lap_per_round_is_the_fastest_round():
    assert fastest_laps_rate([64] * 3, [[0.5], [0.25], [0.4]]) == pytest.approx(256.0)


@pytest.mark.parametrize(
    "items, laps",
    [([10, 11], [[0.1], [0.1]]), ([10, 10], [[0.1, 0.1], [0.2]])],
)
def test_rounds_of_unequal_work_are_refused(items, laps):
    with pytest.raises(ValueError, match="differ"):
        fastest_laps_rate(items, laps)


def test_untimed_checks_are_left_out_of_their_lap():
    laps = Laps()
    with laps.untimed():
        time.sleep(0.05)
    laps.lap()
    laps.lap()
    assert len(laps.times) == 2
    assert laps.times[0] < 0.04

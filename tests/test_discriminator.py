import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedabr.discriminator import ClientCondition, poll
from fedabr.traces import NetworkType, TransportMode, group_of

NT = NetworkType
TM = TransportMode


def cond(nt, tm):
    return ClientCondition("u1", nt, tm)


def oracle_poll(schedule, period, until):
    """The sample-by-sample scan that `poll` replaced, kept as its reference:
    at each sampling point k * period, the condition in effect is the last entry with
    time <= t (the first entry before the schedule starts), classified into
    its group; the timeline keeps the first sample and every change."""
    def condition_at(t):
        current = schedule[0][1]
        for when, c in schedule:
            if when > t:
                break
            current = c
        return current

    timeline = []
    prev_group = None
    k = 0
    while (t := k * period) <= until + 1e-9:
        c = condition_at(t)
        g = group_of(c.network_type, c.transport_mode)
        if g != prev_group:
            timeline.append((t, g))
        prev_group = g
        k += 1
    return timeline


def group_at_start(nt, tm):
    [(_, group)] = poll([(0.0, cond(nt, tm))], period=1.0, until=0.0)
    return group


class TestClassify:
    def test_examples(self):
        assert group_at_start(NT.THREE_G, TM.TRAIN) == 4
        assert group_at_start(NT.WIFI, TM.FOOT) == 9

    def test_delegates_to_group_of(self):
        for nt in NT:
            for tm in TM:
                assert group_at_start(nt, tm) == group_of(nt, tm)


class TestPoll:
    def test_constant_condition(self):
        schedule = [(0.0, cond(NT.FOUR_G, TM.CAR))]
        assert poll(schedule, period=5.0, until=100.0) == [(0.0, group_of(NT.FOUR_G, TM.CAR))]

    def test_single_switch(self):
        schedule = [(0.0, cond(NT.FOUR_G, TM.CAR)),
                    (10.0, cond(NT.WIFI, TM.CAR))]
        # The switch shows at the first sample point >= its time.
        assert poll(schedule, period=5.0, until=30.0) == [(0.0, 6), (10.0, 10)]

    def test_rapid_switches_within_period(self):
        # Departs and reverts between samples: invisible.
        schedule = [(0.0, cond(NT.FOUR_G, TM.CAR)),
                    (11.0, cond(NT.WIFI, TM.CAR)),
                    (13.0, cond(NT.FOUR_G, TM.CAR))]
        assert poll(schedule, period=10.0, until=40.0) == [(0.0, 6)]

    def test_event_count_bound(self):
        schedule = [(float(t), cond(NT.WIFI if t % 2 else NT.THREE_G, TM.FOOT))
                    for t in range(20)]
        timeline = poll(schedule, period=3.0, until=19.0)
        assert len(timeline) <= 7  # number of sampling points

    def test_bad_period(self):
        with pytest.raises(ValueError):
            poll([(0.0, cond(NT.WIFI, TM.CAR))], period=0.0, until=10.0)


WIFI, THREE_G = cond(NT.WIFI, TM.CAR), cond(NT.THREE_G, TM.FOOT)


@st.composite
def schedules(draw):
    """Sorted schedules of 1-8 entries: the first may start after t = 0, entries may lie
    before 0 and share a time, and with two conditions to pick from, changes that revert
    between two samples are common."""
    times = sorted(draw(st.lists(st.sampled_from([-5.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.5, 3.0,
                                                  7.25, 10.0, 30.0])
                                 | st.floats(-20.0, 60.0), min_size=1, max_size=8)))
    pool = draw(st.sampled_from([[WIFI, THREE_G], [cond(nt, tm) for nt in NT for tm in TM]]))
    return [(t, draw(st.sampled_from(pool))) for t in times]


@settings(max_examples=500, deadline=None)
@given(schedules(), st.sampled_from([0.1, 0.3, 0.7, 1.0, 2.5, 3.0, 10.0]) | st.floats(0.05, 20.0),
       st.floats(0.0, 80.0))
# A quotient's ceiling off by one: 0.30000000000000004 / 0.1 has ceiling 4, yet 3 * 0.1
# reaches it; 0.9 / 0.3 is 3.0, yet 3 * 0.3 < 0.9.
@example([(0.0, WIFI), (0.30000000000000004, THREE_G)], 0.1, 1.0)
@example([(0.0, WIFI), (0.9, THREE_G)], 0.3, 2.0)
@example([(-3.0, WIFI), (-1.0, THREE_G), (0.7, WIFI)], 0.7, 5.0)  # entries before 0
@example([(0.0, WIFI), (2.0, THREE_G), (2.0, WIFI), (2.0, THREE_G)], 0.3, 5.0)  # equal times
@example([(0.0, WIFI), (1.1, THREE_G), (1.2, WIFI), (3.5, THREE_G)], 0.7, 5.0)  # a revert
def test_matches_sample_by_sample_oracle(schedule, period, until):
    timeline = poll(schedule, period, until)
    assert timeline == oracle_poll(schedule, period, until)
    assert timeline[0][0] == 0.0
    assert all(a[1] != b[1] for a, b in zip(timeline, timeline[1:]))


def test_sample_times_do_not_drift():
    # 5000 steps of 1e-3 added one by one reach 5.000000000000004; sample 5000 is at 5.0.
    schedule = [(0.0, WIFI), (5.0, THREE_G)]
    assert poll(schedule, period=1e-3, until=10.0) == [(0.0, group_of(NT.WIFI, TM.CAR)),
                                                       (5.0, group_of(NT.THREE_G, TM.FOOT))]


def test_tiny_period_returns():
    """The work grows with the schedule's entries, not with until / period: a period too
    small to move a clock that adds it up still returns at once."""
    def too_slow(signum, frame):
        raise TimeoutError("poll did not return within a second")
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        timeline = poll([(0.0, WIFI), (10.0, THREE_G), (2000.0, WIFI)], period=1e-300,
                        until=1000.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    [(t0, g0), (t1, g1)] = timeline
    assert (t0, g0, g1) == (0.0, group_of(NT.WIFI, TM.CAR), group_of(NT.THREE_G, TM.FOOT))
    assert t1 == pytest.approx(10.0, rel=1e-15) and t1 >= 10.0

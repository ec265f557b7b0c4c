import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedabr.discriminator import ClientCondition, poll
from fedabr.traces import NetworkType, TransportMode, group_of

NT = NetworkType
TM = TransportMode


def cond(nt, tm):
    return ClientCondition("u1", nt, tm)


def oracle_poll(schedule, period, until):
    """The sample-by-sample scan that `poll` replaced, kept as its reference:
    at each sampling point, the condition in effect is the last entry with
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
    t = 0.0
    while t <= until + 1e-9:
        c = condition_at(t)
        g = group_of(c.network_type, c.transport_mode)
        if g != prev_group:
            timeline.append((t, g))
        prev_group = g
        t += period
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


@st.composite
def schedules(draw):
    """Sorted schedules of 1-8 entries; the first may start after t = 0 and
    entries may share a time."""
    times = sorted(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 7.25, 10.0, 30.0])
                                 | st.floats(0.0, 60.0), min_size=1, max_size=8)))
    return [(t, cond(draw(st.sampled_from(NT)), draw(st.sampled_from(TM)))) for t in times]


@settings(max_examples=300, deadline=None)
@given(schedules(), st.sampled_from([0.5, 1.0, 2.5, 3.0, 10.0]) | st.floats(0.1, 20.0),
       st.floats(0.0, 80.0))
def test_matches_sample_by_sample_oracle(schedule, period, until):
    timeline = poll(schedule, period, until)
    assert timeline == oracle_poll(schedule, period, until)
    assert timeline[0][0] == 0.0
    assert all(a[1] != b[1] for a, b in zip(timeline, timeline[1:]))

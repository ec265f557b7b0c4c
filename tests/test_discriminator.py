import pytest

from fedabr.discriminator import ClientCondition, classify, condition_at, poll
from fedabr.traces import NetworkType, TransportMode, group_of

NT = NetworkType
TM = TransportMode


def cond(nt, tm):
    return ClientCondition("u1", nt, tm)


class TestClassify:
    def test_examples(self):
        assert classify(cond(NT.THREE_G, TM.TRAIN)) == 4
        assert classify(cond(NT.WIFI, TM.FOOT)) == 9

    def test_delegates_to_group_of(self):
        for nt in NT:
            for tm in TM:
                assert classify(cond(nt, tm)) == group_of(nt, tm)


class TestPoll:
    def test_constant_condition(self):
        schedule = [(0.0, cond(NT.FOUR_G, TM.CAR))]
        assert poll(schedule, period=5.0, until=100.0) == []

    def test_single_switch(self):
        schedule = [(0.0, cond(NT.FOUR_G, TM.CAR)),
                    (10.0, cond(NT.WIFI, TM.CAR))]
        changes = poll(schedule, period=5.0, until=30.0)
        assert len(changes) == 1
        assert changes[0].at == 10.0  # first sample point >= the switch
        assert changes[0].from_group == 6 and changes[0].to_group == 10

    def test_rapid_switches_within_period(self):
        # Departs and reverts between samples: invisible.
        schedule = [(0.0, cond(NT.FOUR_G, TM.CAR)),
                    (11.0, cond(NT.WIFI, TM.CAR)),
                    (13.0, cond(NT.FOUR_G, TM.CAR))]
        assert poll(schedule, period=10.0, until=40.0) == []

    def test_event_count_bound(self):
        schedule = [(float(t), cond(NT.WIFI if t % 2 else NT.THREE_G, TM.FOOT))
                    for t in range(20)]
        changes = poll(schedule, period=3.0, until=19.0)
        assert len(changes) <= 7  # number of sampling points minus the first

    def test_empty_schedule(self):
        with pytest.raises(ValueError):
            poll([], period=5.0, until=10.0)

    def test_unsorted_schedule(self):
        schedule = [(5.0, cond(NT.WIFI, TM.CAR)), (1.0, cond(NT.FOUR_G, TM.CAR))]
        with pytest.raises(ValueError):
            poll(schedule, period=5.0, until=10.0)

    def test_bad_period(self):
        with pytest.raises(ValueError):
            poll([(0.0, cond(NT.WIFI, TM.CAR))], period=0.0, until=10.0)


def test_condition_at():
    schedule = [(0.0, cond(NT.THREE_G, TM.FOOT)), (10.0, cond(NT.WIFI, TM.TRAIN))]
    assert condition_at(schedule, 5.0).network_type is NT.THREE_G
    assert condition_at(schedule, 10.0).network_type is NT.WIFI

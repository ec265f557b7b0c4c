"""Periodic re-identification of a client's (network type, transport mode) group."""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .traces import NetworkType, TransportMode, group_of


@dataclass(frozen=True)
class ClientCondition:
    client: str
    network_type: NetworkType
    transport_mode: TransportMode


def poll(schedule: list[tuple[float, ClientCondition]], period: float,
         until: float) -> list[tuple[float, int]]:
    """The client's group timeline `[(t, group), ...]` from sampling the schedule
    at t = 0, period, 2*period, ... up to `until`: the t = 0 sample, then each
    sample whose group differs from the one before it. A sample reads the last
    entry with time <= t (the first entry before the schedule starts), so
    changes that revert between two samples are invisible.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    if not schedule:
        raise ValueError("empty schedule")
    times = [when for when, _ in schedule]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("schedule must be time-sorted")
    timeline: list[tuple[float, int]] = []
    t = 0.0
    while t <= until + 1e-9:
        _, cond = schedule[max(bisect.bisect_right(times, t) - 1, 0)]
        g = group_of(cond.network_type, cond.transport_mode)
        if not timeline or g != timeline[-1][1]:
            timeline.append((t, g))
        t += period
    return timeline

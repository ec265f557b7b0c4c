"""Periodic re-identification of a client's (network type, transport mode) group."""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

from .traces import NetworkType, TransportMode, group_of


@dataclass(frozen=True)
class ClientCondition:
    client: str
    network_type: NetworkType
    transport_mode: TransportMode


def poll(schedule: list[tuple[float, ClientCondition]], period: float,
         until: float) -> list[tuple[float, int]]:
    """The client's group timeline `[(t, group), ...]` from sampling the schedule (non-empty,
    in time order: `ClientSpec` checks the order) at t = 0, period, 2*period, ... up to
    `until`: the t = 0 sample, then each sample whose group differs from the one before it.
    A sample reads the last entry with time <= t (the first entry before the schedule
    starts), so changes that revert between two samples are invisible. Sample k is at
    `k * period`; from the entry a sample reads, the next sample visited is the first at or
    after the next entry, so the work grows with the schedule, not with `until / period`.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    times = [when for when, _ in schedule]
    end = until + 1e-9
    timeline: list[tuple[float, int]] = []
    k = 0.0
    while (t := k * period) <= end:
        i = max(bisect.bisect_right(times, t) - 1, 0)
        g = group_of(schedule[i][1].network_type, schedule[i][1].transport_mode)
        if not timeline or g != timeline[-1][1]:
            timeline.append((t, g))
        if i + 1 == len(times) or times[i + 1] > end:
            break
        k = _first_sample_at(times[i + 1], period)
    return timeline


def _first_sample_at(x: float, period: float) -> float:
    """The least sample index k with `k * period >= x > 0`, or inf if no float k reaches x.
    An index is a float holding an integer, so past 2**53 the next index is the next float."""
    k = float(math.ceil(min(x / period, sys.float_info.max)))  # may be off by one either way
    while k * period < x:
        k = max(k + 1.0, math.nextafter(k, math.inf))
    while (below := min(k - 1.0, math.nextafter(k, -math.inf))) * period >= x:
        k = below
    return k

"""Periodic re-identification of a client's (network type, transport mode) group."""

from __future__ import annotations

from dataclasses import dataclass

from .traces import NetworkType, TransportMode, group_of


@dataclass(frozen=True)
class ClientCondition:
    client: str
    network_type: NetworkType
    transport_mode: TransportMode


@dataclass(frozen=True)
class GroupChange:
    client: str
    from_group: int
    to_group: int
    at: float


def classify(condition: ClientCondition) -> int:
    return group_of(condition.network_type, condition.transport_mode)


def condition_at(schedule: list[tuple[float, ClientCondition]], t: float) -> ClientCondition:
    """Condition in effect at time t: the last scheduled entry with time <= t."""
    if not schedule:
        raise ValueError("empty schedule")
    current = schedule[0][1]
    for when, cond in schedule:
        if when > t:
            break
        current = cond
    return current


def poll(schedule: list[tuple[float, ClientCondition]], period: float,
         until: float) -> list[GroupChange]:
    """Sample the schedule at t = 0, period, 2*period, ... up to `until` and emit a
    GroupChange whenever the sampled group differs from the previously sampled one.

    Changes that revert between two sampling points are invisible.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    if not schedule:
        raise ValueError("empty schedule")
    if any(b[0] < a[0] for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be time-sorted")
    changes = []
    prev_group = None
    t = 0.0
    while t <= until + 1e-9:
        cond = condition_at(schedule, t)
        g = classify(cond)
        if prev_group is not None and g != prev_group:
            changes.append(GroupChange(cond.client, prev_group, g, t))
        prev_group = g
        t += period
    return changes

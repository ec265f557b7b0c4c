"""Deterministic discrete-time simulator of a real-time video session over a trace.

The link is a fluid queue: each step the chosen send bitrate either fits under
the trace capacity or builds backlog, backlog adds queueing delay, and a step
whose end-to-end delay exceeds the interactive deadline counts as stalled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .traces import Trace, bandwidth_at

DEFAULT_LADDER = (300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0)

_EPS_KBPS = 1.0  # capacity floor for the queue-delay division


class EnvError(ValueError):
    pass


@dataclass(frozen=True)
class EnvConfig:
    ladder: tuple[float, ...] = DEFAULT_LADDER
    step_s: float = 1.0
    base_rtt_ms: float = 50.0
    deadline_ms: float = 400.0
    history_len: int = 8
    w_bitrate: float = 1.0
    w_stall: float = 1.5
    w_delay: float = 0.5
    w_switch: float = 0.5
    episode_len: int = 300

    def __post_init__(self):
        if len(self.ladder) < 2 or any(b >= a for a, b in zip(self.ladder[1:], self.ladder)):
            raise EnvError("ladder must be strictly ascending with >= 2 entries")
        if min(self.step_s, self.base_rtt_ms, self.deadline_ms, self.history_len,
               self.episode_len) <= 0:
            raise EnvError("step, rtt, deadline, history_len, episode_len must be positive")
        if self.deadline_ms <= self.base_rtt_ms:
            raise EnvError("deadline must exceed base rtt")

    @property
    def max_rate(self) -> float:
        return self.ladder[-1]

    @property
    def state_dim(self) -> int:
        return 2 * self.history_len + 3

    @property
    def delay_norm_ms(self) -> float:
        return 4.0 * self.deadline_ms


@dataclass(frozen=True)
class StepOutcome:
    t: float
    action_kbps: float
    capacity_kbps: float
    achieved_kbps: float
    delay_ms: float
    stall_s: float
    reward: float


@dataclass(frozen=True)
class QoESummary:
    mean_bitrate_kbps: float
    stall_rate: float
    mean_delay_ms: float


def episode_qoe(outcomes: list[StepOutcome], step_s: float = 1.0) -> QoESummary:
    """Summarize an episode: mean achieved bitrate, stall-time fraction, mean delay."""
    if not outcomes:
        raise EnvError("empty outcome list")
    return QoESummary(
        mean_bitrate_kbps=float(np.mean([o.achieved_kbps for o in outcomes])),
        stall_rate=float(sum(o.stall_s for o in outcomes) / (len(outcomes) * step_s)),
        mean_delay_ms=float(np.mean([o.delay_ms for o in outcomes])),
    )


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


class StreamEnv:
    """Single-session environment. Stateful; create one per concurrent client."""

    def __init__(self, trace: Trace, config: EnvConfig = EnvConfig()):
        self.trace = trace
        self.config = config
        self._started = False

    def reset(self, start: float = 0.0) -> np.ndarray:
        cfg = self.config
        needed = start + cfg.episode_len * cfg.step_s
        self._end = self.trace.times.item(-1)
        if needed > self._end:
            raise EnvError(f"trace {self.trace.id!r} too short: episode needs "
                           f"{needed}s, trace ends at {self._end}s")
        self._t = start
        self._steps_left = cfg.episode_len
        self._backlog_kbit = 0.0
        self._queue_delay_ms = 0.0
        self._prev_bitrate = cfg.ladder[0]
        bw0 = bandwidth_at(self.trace, start)
        self._thr_hist = [_clamp01(bw0 / cfg.max_rate)] * cfg.history_len
        self._delay_hist = [_clamp01(cfg.base_rtt_ms / cfg.delay_norm_ms)] * cfg.history_len
        self._seek(start)
        self._started = True
        return self._state()

    def _seek(self, t: float) -> None:
        """Read the last sample at or before `t`: its loss, and its bandwidth as
        the capacity of the step that starts at `t`. `reset` has checked that
        every step start lies within the trace."""
        trace = self.trace
        i = int(trace.times.searchsorted(t, side="right")) - 1
        self._capacity = trace.bandwidth.item(i)
        loss = trace.loss
        self._loss = 0.0 if loss is None or math.isnan(loss[i]) else loss.item(i)

    def _state(self) -> np.ndarray:
        cfg = self.config
        return np.array(
            self._thr_hist + self._delay_hist + [
                _clamp01(self._prev_bitrate / cfg.max_rate),
                _clamp01(self._queue_delay_ms / cfg.delay_norm_ms),
                self._loss,
            ],
            dtype=float,
        )

    def step(self, action: int) -> tuple[np.ndarray, float, StepOutcome]:
        if not self._started:
            raise EnvError("call reset() before step()")
        cfg = self.config
        if not 0 <= action < len(cfg.ladder):
            raise EnvError(f"action index {action} out of range")
        if self._steps_left <= 0:
            raise EnvError("episode exhausted")

        bitrate = cfg.ladder[action]
        capacity = self._capacity
        old_backlog = self._backlog_kbit
        new_backlog = max(0.0, old_backlog + (bitrate - capacity) * cfg.step_s)
        drained = max(0.0, old_backlog - new_backlog)
        achieved = min(bitrate, capacity + drained / cfg.step_s)
        queue_delay_ms = 1000.0 * new_backlog / max(capacity, _EPS_KBPS)
        delay = cfg.base_rtt_ms + queue_delay_ms
        stall = cfg.step_s if delay > cfg.deadline_ms else 0.0
        reward = (cfg.w_bitrate * (bitrate / cfg.max_rate)
                  - cfg.w_stall * (stall / cfg.step_s)
                  - cfg.w_delay * (delay / cfg.deadline_ms)
                  - cfg.w_switch * abs(bitrate - self._prev_bitrate) / cfg.max_rate)

        outcome = StepOutcome(self._t, bitrate, capacity, achieved, delay, stall, reward)

        self._backlog_kbit = new_backlog
        self._queue_delay_ms = queue_delay_ms
        self._thr_hist = self._thr_hist[1:] + [_clamp01(achieved / cfg.max_rate)]
        self._delay_hist = self._delay_hist[1:] + [_clamp01(delay / cfg.delay_norm_ms)]
        self._prev_bitrate = bitrate
        self._t += cfg.step_s
        self._seek(min(self._t, self._end))
        self._steps_left -= 1
        return self._state(), reward, outcome

    @property
    def done(self) -> bool:
        return self._started and self._steps_left <= 0


OUTCOME_CSV_HEADER = "t,action_kbps,capacity_kbps,achieved_kbps,delay_ms,stall_s,reward"


def outcome_csv_row(o: StepOutcome) -> str:
    return ",".join(repr(v) for v in (o.t, o.action_kbps, o.capacity_kbps,
                                      o.achieved_kbps, o.delay_ms, o.stall_s, o.reward))

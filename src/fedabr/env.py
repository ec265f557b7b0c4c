"""Deterministic discrete-time simulator of a real-time video session over a trace.

The link is a fluid queue: each step the chosen send bitrate either fits under
the trace capacity or builds backlog, backlog adds queueing delay, and a step
whose end-to-end delay exceeds the interactive deadline counts as stalled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .traces import Trace, bandwidth_at, check_fields

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
        ladder = self.ladder
        check_fields(self, EnvError, (
                ("ladder", len(ladder) >= 2 and 0.0 < ladder[0] and ladder[-1] < np.inf
                 and all(a < b for a, b in zip(ladder, ladder[1:])),
                 "2 or more finite positive rates, strictly ascending"),
                ("step_s", 0.0 < self.step_s < np.inf, "finite and positive"),
                ("base_rtt_ms", 0.0 < self.base_rtt_ms < np.inf, "finite and positive"),
                ("deadline_ms", self.base_rtt_ms < self.deadline_ms < np.inf,
                 f"finite and above base_rtt_ms ({self.base_rtt_ms!r})"),
                ("history_len", self.history_len >= 1, ">= 1"),
                ("episode_len", self.episode_len >= 1, ">= 1"),
                *((w, -np.inf < getattr(self, w) < np.inf, "finite")
                  for w in ("w_bitrate", "w_stall", "w_delay", "w_switch"))))

    @property
    def max_rate(self) -> float:
        return self.ladder[-1]

    @property
    def state_dim(self) -> int:
        return 2 * self.history_len + 3

    @property
    def delay_norm_ms(self) -> float:
        return 4.0 * self.deadline_ms


class StepOutcome(NamedTuple):
    t: float
    action_kbps: float
    capacity_kbps: float
    achieved_kbps: float
    delay_ms: float
    stall_s: float
    reward: float


class StreamEnv:
    """Single-session environment. Stateful; create one per concurrent client."""

    def __init__(self, trace: Trace, config: EnvConfig = EnvConfig()):
        self.trace = trace
        self.config = config
        self._started = False

    def check_span(self, start: float = 0.0) -> None:
        """EnvError naming the trace unless it covers one episode from `start`."""
        first, end = self.trace.times.item(0), self.trace.times.item(-1)
        needed = start + self.config.episode_len * self.config.step_s
        if start < first:
            raise EnvError(f"trace {self.trace.id!r} starts at {first}s, after the episode "
                           f"start {start}s")
        if needed > end:
            raise EnvError(f"trace {self.trace.id!r} too short: episode needs "
                           f"{needed}s, trace ends at {end}s")

    def reset(self, start: float = 0.0) -> np.ndarray:
        self.check_span(start)
        cfg = self.config
        bw0 = bandwidth_at(self.trace, start)
        # Step j starts at times[j] (the sum rounds as `t += step_s`) and reads the
        # last sample at or before it: the step's capacity, and the loss in the state.
        times = np.cumsum(np.r_[start, np.full(cfg.episode_len, cfg.step_s)])
        idx = self.trace.times.searchsorted(times, side="right") - 1
        loss = self.trace.loss
        self._times = times.tolist()
        self._capacity = self.trace.bandwidth[idx].tolist()
        self._loss = ([0.0] * len(idx) if loss is None
                      else np.where(np.isnan(loss[idx]), 0.0, loss[idx]).tolist())
        self._max_rate, self._delay_norm = cfg.max_rate, cfg.delay_norm_ms
        self._j = 0
        self._backlog_kbit = 0.0
        self._queue_delay_ms = 0.0
        self._prev_bitrate = cfg.ladder[0]
        h = cfg.history_len  # the throughput history, then the delay history, oldest first
        self._hist = ([min(1.0, max(0.0, bw0 / self._max_rate))] * h
                      + [min(1.0, max(0.0, cfg.base_rtt_ms / self._delay_norm))] * h)
        self._started = True
        return self._state()

    # `step` and `_state` write each min(1.0, max(0.0, x)), max(0.0, x) and min(a, b)
    # as the comparisons the builtins make, which give the same float for every input
    # (-0.0 and NaN clamp to 0.0) without the calls, and read each config value once.
    def _state(self) -> np.ndarray:
        rate, delay = self._prev_bitrate / self._max_rate, self._queue_delay_ms / self._delay_norm
        return np.array(self._hist + [
            (rate if rate < 1.0 else 1.0) if rate > 0.0 else 0.0,
            (delay if delay < 1.0 else 1.0) if delay > 0.0 else 0.0,
            self._loss[self._j]], dtype=float)

    def step(self, action: int) -> tuple[np.ndarray, float, StepOutcome]:
        if not self._started:
            raise EnvError("call reset() before step()")
        cfg = self.config
        ladder = cfg.ladder
        if not 0 <= action < len(ladder):
            raise EnvError(f"action index {action} out of range")
        j = self._j
        if j >= cfg.episode_len:
            raise EnvError("episode exhausted")

        bitrate = ladder[action]
        capacity = self._capacity[j]
        max_rate, step_s, deadline_ms = self._max_rate, cfg.step_s, cfg.deadline_ms
        old_backlog = self._backlog_kbit
        new_backlog = b if (b := old_backlog + (bitrate - capacity) * step_s) > 0.0 else 0.0
        drained = d if (d := old_backlog - new_backlog) > 0.0 else 0.0
        achieved = a if (a := capacity + drained / step_s) < bitrate else bitrate
        queue_delay_ms = 1000.0 * new_backlog / (_EPS_KBPS if _EPS_KBPS > capacity else capacity)
        delay = cfg.base_rtt_ms + queue_delay_ms
        stall = step_s if delay > deadline_ms else 0.0
        reward = (cfg.w_bitrate * (bitrate / max_rate)
                  - cfg.w_stall * (stall / step_s)
                  - cfg.w_delay * (delay / deadline_ms)
                  - cfg.w_switch * abs(bitrate - self._prev_bitrate) / max_rate)

        outcome = StepOutcome(self._times[j], bitrate, capacity, achieved, delay, stall, reward)

        self._backlog_kbit = new_backlog
        self._queue_delay_ms = queue_delay_ms
        hist, h = self._hist, cfg.history_len
        del hist[0]  # each history drops its oldest entry and appends the new one
        hist.insert(h - 1, (r if r < 1.0 else 1.0) if (r := achieved / max_rate) > 0.0 else 0.0)
        del hist[h]
        hist.append((f if f < 1.0 else 1.0) if (f := delay / self._delay_norm) > 0.0 else 0.0)
        self._prev_bitrate = bitrate
        self._j = j + 1
        return self._state(), reward, outcome

    @property
    def steps_left(self) -> int:
        """Steps before the episode ends; 0 before the first `reset`."""
        return self.config.episode_len - self._j if self._started else 0

    @property
    def done(self) -> bool:
        return self._started and self._j >= self.config.episode_len

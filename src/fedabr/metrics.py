"""Convergence detection and training-efficiency / QoE reporting."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class QoESummary:
    """Mean achieved bitrate, fraction of time stalled, mean delay: of a session or a mean."""
    mean_bitrate_kbps: float
    stall_rate: float
    mean_delay_ms: float


QOE_METRICS = tuple(f.name for f in fields(QoESummary))


@dataclass(frozen=True)
class ConvergenceRule:
    window: int = 20     # trailing-mean smoothing window, epochs
    epsilon: float = 0.05  # fraction of the floor-to-plateau span left unreached
    sustain: int = 10    # consecutive epochs the threshold must hold

    def __post_init__(self):
        if self.window < 1 or self.sustain < 1:
            raise MetricError("window and sustain must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise MetricError("epsilon must be in (0, 1)")


def smooth(rewards: list[float], window: int) -> np.ndarray:
    """Trailing mean of `window` epochs; entry i covers raw epochs [i, i+window)."""
    r = np.asarray(rewards, dtype=float)
    c = np.concatenate(([0.0], np.cumsum(r)))
    return (c[window:] - c[:-window]) / window


def convergence_epoch(rewards: list[float], rule: ConvergenceRule = ConvergenceRule()) -> int | None:
    """First 1-based epoch at which the smoothed reward sustainably reaches its
    plateau band, or None if the threshold is never held for `sustain` epochs.

    Threshold = floor + (1 - epsilon) * (plateau - floor), with plateau the mean
    of the final 20% of the smoothed series and floor its minimum.
    """
    if len(rewards) < rule.window + rule.sustain:
        raise MetricError(f"series too short: need >= {rule.window + rule.sustain} epochs")
    sm = smooth(rewards, rule.window)
    tail = max(1, int(np.ceil(0.2 * len(sm))))
    plateau = float(np.mean(sm[-tail:]))
    floor = float(np.min(sm))
    threshold = floor + (1.0 - rule.epsilon) * (plateau - floor)
    above = sm >= threshold
    run = 0
    for i, ok in enumerate(above):
        run = run + 1 if ok else 0
        if run >= rule.sustain:
            start = i - rule.sustain + 1
            return start + rule.window  # 1-based raw epoch of the streak start
    return None


def efficiency_gain(t_base: float, t_new: float) -> float:
    """Fractional reduction in convergence time: (t_base - t_new) / t_base."""
    if t_base <= 0 or t_new <= 0:
        raise MetricError("convergence times must be positive")
    return (t_base - t_new) / t_base


def speedup_percent(t_base: float, t_new: float) -> float:
    """Relative speedup in percent: 100 * (t_base - t_new) / t_new."""
    if t_base <= 0 or t_new <= 0:
        raise MetricError("convergence times must be positive")
    return 100.0 * (t_base - t_new) / t_new


def qoe_report(summaries: dict[str, QoESummary], anchor: str) -> list[dict]:
    """The records of the report's `qoe.csv`, one per scheme in scheme order, keyed by its
    header: `scheme`, each metric over the anchor scheme's, and `flags`, which names, as
    `{metric}=abs_diff` joined by `;`, the metrics reported as a difference because the
    anchor's value is zero."""
    if anchor not in summaries:
        raise MetricError(f"anchor scheme {anchor!r} not among runs")
    ref = summaries[anchor]
    zero = [m for m in QOE_METRICS if getattr(ref, m) == 0.0]

    def relative(s: QoESummary, m: str) -> float:
        return getattr(s, m) - getattr(ref, m) if m in zero else getattr(s, m) / getattr(ref, m)
    return [{"scheme": scheme, **{m: relative(summaries[scheme], m) for m in QOE_METRICS},
             "flags": ";".join(f"{m}=abs_diff" for m in zero)}
            for scheme in sorted(summaries)]

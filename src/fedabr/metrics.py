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
    """Normalize each scheme's QoE metrics by the anchor scheme's values.

    If an anchor metric is zero the absolute difference is reported instead and
    the row is flagged.
    """
    if anchor not in summaries:
        raise MetricError(f"anchor scheme {anchor!r} not among runs")
    ref = summaries[anchor]
    rows = []
    for scheme in sorted(summaries):
        s = summaries[scheme]
        row = {"scheme": scheme}
        for metric in QOE_METRICS:
            val = getattr(s, metric)
            ref_val = getattr(ref, metric)
            if ref_val == 0.0:
                row[metric] = val - ref_val
                row[f"{metric}_flag"] = "abs_diff"
            else:
                row[metric] = val / ref_val
                row[f"{metric}_flag"] = ""
        rows.append(row)
    return rows

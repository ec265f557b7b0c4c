import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedabr.metrics import (QOE_METRICS, ConvergenceRule, MetricError, QoESummary,
                            convergence_epoch, efficiency_gain, qoe_report, smooth,
                            speedup_percent)


def brute_force_convergence(rewards, rule):
    """Direct evaluation of the convergence definition, written independently."""
    sm = [sum(rewards[i:i + rule.window]) / rule.window
          for i in range(len(rewards) - rule.window + 1)]
    tail_n = max(1, int(np.ceil(0.2 * len(sm))))
    plateau = sum(sm[-tail_n:]) / tail_n
    floor = min(sm)
    threshold = floor + (1 - rule.epsilon) * (plateau - floor)
    for start in range(len(sm) - rule.sustain + 1):
        if all(sm[start + j] >= threshold for j in range(rule.sustain)):
            return start + rule.window
    return None


class TestConvergence:
    def test_constant_series(self):
        rule = ConvergenceRule(window=20, epsilon=0.05, sustain=10)
        assert convergence_epoch([1.0] * 100, rule) == 20

    def test_linear_series_hand_computed(self):
        rule = ConvergenceRule(window=20, epsilon=0.05, sustain=10)
        rewards = list(np.arange(100, dtype=float))
        # Smoothed value at 1-based epoch e (e >= 20) is e - 10.5; plateau is the
        # mean of the last 17 smoothed values (epochs 84..100) = 81.5, floor 9.5.
        # Threshold = 9.5 + 0.95 * 72 = 77.9, first reached at e = 89 (88.5 >= 77.9
        # fails; 89 - 10.5 = 78.5 passes) and holds to the end.
        assert convergence_epoch(rewards, rule) == 89
        assert convergence_epoch(rewards, rule) == brute_force_convergence(rewards, rule)

    def test_decreasing_series_vs_oracle(self):
        rule = ConvergenceRule(window=10, epsilon=0.05, sustain=5)
        rewards = list(100.0 - np.arange(60))
        assert convergence_epoch(rewards, rule) == brute_force_convergence(rewards, rule)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_series_vs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rewards = list(rng.normal(size=60).cumsum())
        rule = ConvergenceRule(window=8, epsilon=0.1, sustain=4)
        assert convergence_epoch(rewards, rule) == brute_force_convergence(rewards, rule)

    def test_too_short(self):
        with pytest.raises(MetricError):
            convergence_epoch([1.0] * 25, ConvergenceRule(window=20, sustain=10))

    def test_smooth_window(self):
        assert np.allclose(smooth([1, 2, 3, 4], 2), [1.5, 2.5, 3.5])


class TestEfficiency:
    def test_transfer_gain_matches_reported(self):
        t_scratch = np.mean([2.54, 2.65, 2.57])
        t_transfer = np.mean([1.56, 1.28, 1.51])
        assert efficiency_gain(t_scratch, t_transfer) == pytest.approx(0.439, abs=0.002)

    def test_federated_gain_matches_reported(self):
        t_transfer = np.mean([1.56, 1.28, 1.51])
        t_full = np.mean([0.80, 0.53, 0.60])
        assert efficiency_gain(t_transfer, t_full) == pytest.approx(0.556, abs=0.002)

    def test_overall_speedup_matches_reported(self):
        t_scratch = np.mean([2.54, 2.65, 2.57])
        t_full = np.mean([0.80, 0.53, 0.60])
        assert speedup_percent(t_scratch, t_full) == pytest.approx(302.1, abs=1.0)

    def test_trivial_values(self):
        assert efficiency_gain(2.0, 2.0) == 0.0
        assert speedup_percent(2.0, 1.0) == 100.0
        assert speedup_percent(2.0, 2.0) == 0.0

    def test_non_positive(self):
        with pytest.raises(MetricError):
            efficiency_gain(0.0, 1.0)
        with pytest.raises(MetricError):
            speedup_percent(1.0, -2.0)

    @settings(max_examples=50, deadline=None)
    @given(t_base=st.floats(0.01, 100), t_new=st.floats(0.01, 100))
    def test_speedup_gain_relation(self, t_base, t_new):
        gain = efficiency_gain(t_base, t_new)
        assert speedup_percent(t_base, t_new) == pytest.approx(
            100 * gain / (1 - gain) if gain != 1 else np.inf, rel=1e-9)


class TestQoeReport:
    def test_metric_names_are_the_summary_fields_in_order(self):
        # The column order of every qoe.csv.
        assert QOE_METRICS == ("mean_bitrate_kbps", "stall_rate", "mean_delay_ms")

    def test_anchor_vs_itself(self):
        s = {"anchor": QoESummary(1000.0, 0.1, 80.0)}
        rows = qoe_report(s, "anchor")
        assert rows[0]["mean_bitrate_kbps"] == 1.0
        assert rows[0]["stall_rate"] == 1.0
        assert rows[0]["mean_delay_ms"] == 1.0

    def test_double_bitrate(self):
        s = {"a": QoESummary(1000.0, 0.1, 80.0), "b": QoESummary(2000.0, 0.1, 80.0)}
        rows = {r["scheme"]: r for r in qoe_report(s, "a")}
        assert rows["b"]["mean_bitrate_kbps"] == 2.0

    def test_zero_anchor_metric_flagged(self):
        s = {"a": QoESummary(1000.0, 0.0, 80.0), "b": QoESummary(1000.0, 0.05, 80.0)}
        rows = {r["scheme"]: r for r in qoe_report(s, "a")}
        assert rows["b"]["stall_rate"] == pytest.approx(0.05)
        assert rows["b"]["flags"] == "stall_rate=abs_diff"

    @pytest.mark.parametrize("anchor", [
        QoESummary(1000.0, 0.1, 80.0), QoESummary(1000.0, 0.0, 80.0),
        QoESummary(0.0, 0.0, 80.0), QoESummary(0.0, 0.0, 0.0)])
    def test_row_keys_are_the_report_header(self, anchor):
        s = {"b": QoESummary(500.0, 0.05, 60.0), "a": anchor, "c": QoESummary(1.0, 1.0, 1.0)}
        rows = qoe_report(s, "a")
        assert [row["scheme"] for row in rows] == ["a", "b", "c"]
        for row in rows:
            assert list(row) == ["scheme", *QOE_METRICS, "flags"]

    def test_unknown_anchor(self):
        with pytest.raises(MetricError):
            qoe_report({"a": QoESummary(1, 1, 1)}, "missing")

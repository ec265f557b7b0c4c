"""The benchmark's contract: every workload runs, passes its checks and records
every span it expects, so a renamed or deleted traced function fails here.
Timings are not asserted."""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_workload(workload, trace):
    """One second of `workload` at seed 0; its result, checked to be correct with no
    failed operation."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    return result


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["fed_multigroup", "xfer_longtrace", "cli_pipeline"])
def test_traced_workload_is_correct(workload):
    run_workload(workload, "1")


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["fed_multigroup", "xfer_longtrace", "cli_pipeline"])
def test_untraced_workload_is_correct(workload):
    """The run that measures the end-to-end metrics, the only one that samples the host's
    speed, reports every metric `BENCHMARK.json` declares, finite."""
    metrics = run_workload(workload, "0")["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert len(declared) == 5
    for name in (m["name"] for m in declared):
        assert math.isfinite(metrics[name]["value"]), name


def _perfbench_module(name, monkeypatch):
    """A module of `perfbench/`, run from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_pinned_span_names_resolve(monkeypatch):
    """Every span target of the tracer resolves to a callable, walked as the tracer
    walks it, and every span a workload expects is one the tracer records. The slow
    traced runs above check that the spans record calls."""
    spans = _perfbench_module("tracer", monkeypatch).SPANS
    for name, (module_name, attr) in spans.items():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = owner.get(part) if isinstance(owner, dict) else getattr(owner, part, None)
            assert owner is not None, f"span {name}: {module_name}.{attr} does not resolve"
        assert callable(owner), f"span {name}: {module_name}.{attr} is not callable"
    workloads = _perfbench_module("workloads", monkeypatch)
    expected = {s for w in workloads.WORKLOADS.values() for s in w.expected_spans}
    assert set(workloads.COMMON_SPANS) <= expected
    assert sorted(expected - spans.keys()) == []

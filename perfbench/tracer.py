"""Span recorder for the traced run.

Wraps public fedabr functions and methods, records one span per call and
derives per-layer statistics. A function is patched at every binding that a
loaded ``fedabr`` module holds (``fedabr.env.bandwidth_at`` as well as
``fedabr.traces.bandwidth_at``), found by object identity, so a module that
imports a name with ``from .x import y`` is covered without being listed.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# Span name -> (module, attribute). "Class.method" patches the class; "cli.*"
# patches the callback of a click command of ``fedabr.cli.main``.
SPANS = {
    "traces.bandwidth_at": ("fedabr.traces", "bandwidth_at"),
    "traces.parse_trace": ("fedabr.traces", "parse_trace"),
    "traces.load_manifest": ("fedabr.traces", "load_manifest"),
    "traces.synthesize_trace": ("fedabr.traces", "synthesize_trace"),
    "env.step": ("fedabr.env", "StreamEnv.step"),
    "env.reset": ("fedabr.env", "StreamEnv.reset"),
    "net.forward": ("fedabr.net", "forward"),
    "net.a3c_gradients": ("fedabr.net", "a3c_gradients"),
    "net.apply_update": ("fedabr.net", "apply_update"),
    "net.zero_frozen": ("fedabr.net", "zero_frozen"),
    "net.save_checkpoint": ("fedabr.net", "save_checkpoint"),
    "net.load_checkpoint": ("fedabr.net", "load_checkpoint"),
    "pretrain.collect_rollout": ("fedabr.pretrain", "collect_rollout"),
    "pretrain.offline_train": ("fedabr.pretrain", "offline_train"),
    "federation.submit": ("fedabr.federation", "Coordinator.submit"),
    "federation.aggregate_round": ("fedabr.federation", "Coordinator.aggregate_round"),
    "federation.personalize": ("fedabr.federation", "personalize"),
    "federation.fetch": ("fedabr.federation", "Coordinator.fetch"),
    "federation.migrate": ("fedabr.federation", "Coordinator.migrate"),
    "discriminator.poll": ("fedabr.discriminator", "poll"),
    "schemes.run_scheme": ("fedabr.schemes", "run_scheme"),
    "schemes.evaluate_greedy": ("fedabr.schemes", "evaluate_greedy"),
    "metrics.convergence_epoch": ("fedabr.metrics", "convergence_epoch"),
    "metrics.qoe_report": ("fedabr.metrics", "qoe_report"),
    "config.load_config": ("fedabr.config", "load_config"),
}
CLI_COMMANDS = ("split", "pretrain", "run", "report")
for _cmd in CLI_COMMANDS:
    SPANS[f"cli.{_cmd}"] = ("fedabr.cli", f"main.commands.{_cmd}.callback")


def _payload_bytes(_coordinator, update) -> int:
    g = update.gradients
    return sum(a.nbytes for a in g.weights) + sum(a.nbytes for a in g.biases)


class Stat:
    __slots__ = ("calls", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations: list[float] = []


class Tracer:
    """Collects spans while ``patched()`` is active; stats accumulate across uses."""

    def __init__(self):
        self.stats = {name: Stat() for name in SPANS}
        self.submit_bytes = 0
        self._open: list[float] = []  # child time of every open span, innermost last

    def counts(self) -> dict[str, int]:
        return {name: s.calls for name, s in self.stats.items()}

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        open_spans = self._open
        clock = time.perf_counter
        tracer = self
        is_submit = name == "federation.submit"

        def traced(*args, **kwargs):
            if is_submit:
                tracer.submit_bytes += _payload_bytes(*args, **kwargs)
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                stat.calls += 1
                stat.self_s += dur - child
                stat.durations.append(dur)

        return traced

    @contextmanager
    def patched(self):
        """Install every wrapper; restore the original bindings on exit."""
        modules = {m: importlib.import_module(m) for m, _ in SPANS.values()}
        undo = []
        try:
            for name, (module_name, attr) in SPANS.items():
                owner = modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = owner[part] if isinstance(owner, dict) else getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original)
                if path:
                    setattr(owner, leaf, wrapper)
                    undo.append((owner, leaf, original))
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "fedabr" and not mod_name.startswith("fedabr."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

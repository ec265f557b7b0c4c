"""Bandwidth trace corpus: parsing, labeling, splitting, synthesis."""

from __future__ import annotations

import enum
import io
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml


class NetworkType(enum.Enum):
    THREE_G = "3g"
    FOUR_G = "4g"
    WIFI = "wifi"


class TransportMode(enum.Enum):
    FOOT = "foot"
    CAR = "car"
    FERRY = "ferry"
    TRAIN = "train"


# Column-major over (network type, transport mode): 3g/foot=1 ... wifi/train=12.
_NETWORK_ORDER = [NetworkType.THREE_G, NetworkType.FOUR_G, NetworkType.WIFI]
_TRANSPORT_ORDER = [TransportMode.FOOT, TransportMode.CAR, TransportMode.FERRY, TransportMode.TRAIN]

N_GROUPS = len(_NETWORK_ORDER) * len(_TRANSPORT_ORDER)


def group_of(nt: NetworkType, tm: TransportMode) -> int:
    """Map a (network type, transport mode) pair to its group id in [1, 12]."""
    return 4 * _NETWORK_ORDER.index(nt) + _TRANSPORT_ORDER.index(tm) + 1


class TraceError(ValueError):
    """Malformed or invalid trace data."""


@dataclass(frozen=True, slots=True)
class TraceSample:
    t: float            # seconds
    bandwidth: float    # kbps
    rtt: float | None = None    # ms
    loss: float | None = None   # fraction in [0, 1]


@dataclass(frozen=True)
class Trace:
    id: str
    samples: tuple[TraceSample, ...]
    network_type: NetworkType
    transport_mode: TransportMode

    def __post_init__(self):
        if len(self.samples) < 2:
            raise TraceError(f"trace {self.id!r}: needs at least 2 samples")
        # Each check is written so that it holds, which NaN never does.
        inf = float("inf")
        prev = -inf
        for s in self.samples:
            if not (0 <= s.t < inf and s.t > prev):
                raise TraceError(f"trace {self.id!r}: timestamps must be finite, non-negative "
                                 f"and strictly increasing (got {s.t} after {prev})")
            if not 0 <= s.bandwidth < inf:
                raise TraceError(f"trace {self.id!r}: bandwidth {s.bandwidth} at t={s.t} "
                                 "is negative or not finite")
            if s.rtt is not None and not 0 <= s.rtt < inf:
                raise TraceError(f"trace {self.id!r}: rtt {s.rtt} at t={s.t} "
                                 "is negative or not finite")
            if s.loss is not None and not 0.0 <= s.loss <= 1.0:
                raise TraceError(f"trace {self.id!r}: loss outside [0,1] at t={s.t}")
            prev = s.t

    @cached_property
    def times(self) -> np.ndarray:
        """Sample timestamps as one float64 array, built on first use."""
        return np.array([s.t for s in self.samples], dtype=float)

    @property
    def duration(self) -> float:
        return self.samples[-1].t - self.samples[0].t

    @property
    def group(self) -> int:
        return group_of(self.network_type, self.transport_mode)


def parse_trace(text: str, trace_id: str, network_type: NetworkType,
                transport_mode: TransportMode) -> Trace:
    """Parse the trace CSV format: `t_seconds,bandwidth_kbps[,rtt_ms[,loss_rate]]`.

    Lines starting with `#` are ignored. Raises TraceError on malformed rows,
    non-monotone timestamps, or an empty file.
    """
    samples = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if not 2 <= len(parts) <= 4:
            raise TraceError(f"line {lineno}: expected 2-4 columns, got {len(parts)}")
        try:
            t = float(parts[0])
            bw = float(parts[1])
            rtt = float(parts[2]) if len(parts) > 2 and parts[2] != "" else None
            loss = float(parts[3]) if len(parts) > 3 and parts[3] != "" else None
        except ValueError as e:
            raise TraceError(f"line {lineno}: {e}") from None
        samples.append(TraceSample(t, bw, rtt, loss))
    if not samples:
        raise TraceError("empty trace file")
    return Trace(trace_id, tuple(samples), network_type, transport_mode)


def serialize_trace(trace: Trace) -> str:
    """Inverse of parse_trace (labels travel in the manifest, not the CSV)."""
    lines = []
    for s in trace.samples:
        cols = [repr(s.t), repr(s.bandwidth)]
        if s.rtt is not None or s.loss is not None:
            cols.append("" if s.rtt is None else repr(s.rtt))
        if s.loss is not None:
            cols.append(repr(s.loss))
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def bandwidth_at(trace: Trace, t: float) -> float:
    """Piecewise-constant bandwidth: value of the last sample with timestamp <= t."""
    first, last = trace.samples[0].t, trace.samples[-1].t
    if t < first or t > last:
        raise TraceError(f"t={t} outside trace range [{first}, {last}]")
    return trace.samples[int(trace.times.searchsorted(t, side="right")) - 1].bandwidth


@dataclass(frozen=True)
class CorpusSplit:
    pretrain: frozenset[str]
    finetune: frozenset[str]
    test: frozenset[str]


def split_corpus(corpus: list[Trace], seed: int) -> CorpusSplit:
    """Shuffle and partition a corpus 20% test / 64% pretrain / 16% finetune.

    Rounding: test = round(0.2*N) with minimum 1; pretrain = round(0.8*remaining)
    with minimum 1; finetune takes the rest.
    """
    if len(corpus) < 5:
        raise TraceError(f"corpus too small to split ({len(corpus)} < 5)")
    ids = sorted(t.id for t in corpus)
    if len(set(ids)) != len(ids):
        raise TraceError("duplicate trace ids in corpus")
    rng = np.random.default_rng(seed)
    rng.shuffle(ids)
    n = len(ids)
    n_test = max(1, int(0.2 * n + 0.5))
    remaining = n - n_test
    n_pretrain = max(1, int(0.8 * remaining + 0.5))
    test = ids[:n_test]
    pretrain = ids[n_test:n_test + n_pretrain]
    finetune = ids[n_test + n_pretrain:]
    return CorpusSplit(frozenset(pretrain), frozenset(finetune), frozenset(test))


@dataclass(frozen=True)
class SynthFamily:
    """Parameters for a synthetic bandwidth trace generator (1 Hz sampling)."""
    mean_kbps: float
    amplitude_kbps: float = 0.0
    period_s: float = 60.0
    noise_std_kbps: float = 0.0
    duration_s: float = 300.0
    wave: str = "sine"  # "sine" | "square"

    def __post_init__(self):
        if self.mean_kbps <= 0:
            raise TraceError("mean_kbps must be positive")
        if self.duration_s <= 0:
            raise TraceError("duration_s must be positive")
        if self.period_s <= 0:
            raise TraceError("period_s must be positive")
        if self.wave not in ("sine", "square"):
            raise TraceError(f"unknown wave {self.wave!r}")


def synthesize_trace(family: SynthFamily, trace_id: str, network_type: NetworkType,
                     transport_mode: TransportMode, seed: int) -> Trace:
    """Generate `bandwidth = max(0, mean + amplitude*wave + gaussian noise)` at 1 Hz."""
    rng = np.random.default_rng(seed)
    n = int(family.duration_s) + 1
    t = np.arange(n, dtype=float)
    phase = 2 * np.pi * t / family.period_s
    wave = np.sin(phase) if family.wave == "sine" else np.sign(np.sin(phase))
    bw = family.mean_kbps + family.amplitude_kbps * wave
    if family.noise_std_kbps > 0:
        bw = bw + rng.normal(0.0, family.noise_std_kbps, size=n)
    bw = np.maximum(bw, 0.0)
    samples = tuple(TraceSample(float(ti), float(bi)) for ti, bi in zip(t, bw))
    return Trace(trace_id, samples, network_type, transport_mode)


_NETWORK_LABELS = {"3g": NetworkType.THREE_G, "4g": NetworkType.FOUR_G, "wifi": NetworkType.WIFI}
_TRANSPORT_LABELS = {m.value: m for m in TransportMode}


def parse_network_type(label: str) -> NetworkType:
    try:
        return _NETWORK_LABELS[label.lower()]
    except KeyError:
        raise TraceError(f"unknown network type {label!r}") from None


def parse_transport_mode(label: str) -> TransportMode:
    label = label.lower()
    if label == "bus":
        # Group table has no bus column; treat it as car.
        warnings.warn("transport mode 'bus' mapped to 'car'", stacklevel=2)
        return TransportMode.CAR
    try:
        return _TRANSPORT_LABELS[label]
    except KeyError:
        raise TraceError(f"unknown transport mode {label!r}") from None


def load_manifest(path: str | Path) -> list[Trace]:
    """Load a YAML manifest of `{id, path, network_type, transport_mode}` records.

    Trace CSV paths are resolved relative to the manifest file.
    """
    path = Path(path)
    try:
        with open(path) as f:
            records = yaml.safe_load(f)
    except OSError as e:
        raise TraceError(f"cannot read manifest {path}: {e.strerror}") from None
    if not isinstance(records, list):
        raise TraceError("manifest must be a list of records")
    keys = ("id", "path", "network_type", "transport_mode")
    traces = []
    for rec in records:
        if not (isinstance(rec, dict) and all(key in rec for key in keys)):
            raise TraceError(f"{path}: manifest record must be a mapping with keys "
                             f"{', '.join(keys)}: {rec!r}")
        nt = parse_network_type(str(rec["network_type"]))
        tm = parse_transport_mode(str(rec["transport_mode"]))
        try:
            text = (path.parent / rec["path"]).read_text()
        except OSError as e:
            raise TraceError(f"{path}: record {rec['id']!r}: cannot read "
                             f"{e.filename}: {e.strerror}") from None
        traces.append(parse_trace(text, str(rec["id"]), nt, tm))
    return traces


def write_manifest(traces: list[Trace], directory: str | Path) -> Path:
    """Write traces as CSV files plus a manifest.yaml into `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    for tr in traces:
        fname = f"{tr.id}.csv"
        (directory / fname).write_text(serialize_trace(tr))
        records.append({
            "id": tr.id,
            "path": fname,
            "network_type": tr.network_type.value,
            "transport_mode": tr.transport_mode.value,
        })
    manifest = directory / "manifest.yaml"
    with open(manifest, "w") as f:
        yaml.safe_dump(records, f, sort_keys=False)
    return manifest

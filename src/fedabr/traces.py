"""Bandwidth trace corpus: parsing, labeling, splitting, synthesis."""

from __future__ import annotations

import enum
import io
import math
import sys
import warnings
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# libyaml's loader and dumper when PyYAML is built with them: the same documents, and for
# the dumper the same bytes, several times faster.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class NetworkType(enum.Enum):
    THREE_G = "3g"
    FOUR_G = "4g"
    WIFI = "wifi"


class TransportMode(enum.Enum):
    FOOT = "foot"
    CAR = "car"
    FERRY = "ferry"
    TRAIN = "train"


def group_of(nt: NetworkType, tm: TransportMode) -> int:
    """The pair's group id, in enum order, transport fastest: 3g/foot=1 ... wifi/train=12."""
    return 4 * list(NetworkType).index(nt) + list(TransportMode).index(tm) + 1


class TraceError(ValueError):
    """Malformed or invalid trace data."""


@dataclass(frozen=True, slots=True)
class TraceSample:
    t: float            # seconds
    bandwidth: float    # kbps
    rtt: float | None = None    # ms
    loss: float | None = None   # fraction in [0, 1]


# Each value column, the largest value it accepts and its rule in words. NaN
# fails every comparison, so a missing rtt or loss is let through on its own.
_VALUE_RULES = (("bandwidth", sys.float_info.max, "finite and non-negative"),
                ("rtt", sys.float_info.max, "finite and non-negative"),
                ("loss", 1.0, "in [0, 1]"))
_COLUMNS = ("times", "bandwidth", "rtt", "loss")


def _first_false(ok: np.ndarray) -> int | None:
    return None if ok.all() else int(ok.argmin())


@dataclass(frozen=True, eq=False)
class Trace:
    """A bandwidth trace as read-only float64 columns, one entry per sample.

    `rtt` and `loss` are None when the trace has no such column; within a
    column, NaN marks a sample that leaves the field empty. A column with no
    value at all is stored as None.
    """
    id: str
    times: np.ndarray       # seconds, strictly increasing
    bandwidth: np.ndarray   # kbps
    network_type: NetworkType
    transport_mode: TransportMode
    rtt: np.ndarray | None = None    # ms
    loss: np.ndarray | None = None   # fraction in [0, 1]

    def __post_init__(self):
        for name in _COLUMNS:
            col = getattr(self, name)
            if col is None:
                continue
            col = np.ascontiguousarray(col, dtype=np.float64).view()
            col.flags.writeable = False
            if name in ("rtt", "loss") and np.isnan(col).all():
                col = None
            object.__setattr__(self, name, col)
        t = self.times
        if t.ndim != 1 or len(t) < 2:
            raise TraceError(f"trace {self.id!r}: needs at least 2 samples")
        # Each check is written so that it holds, which NaN never does.
        ok = np.isfinite(t) & (t >= 0)
        ok[1:] &= t[1:] > t[:-1]
        if (i := _first_false(ok)) is not None:
            prev = t[i - 1] if i else -math.inf
            raise TraceError(f"trace {self.id!r}: timestamps must be finite, non-negative "
                             f"and strictly increasing (got {t[i]} after {prev})")
        for name, upper, rule in _VALUE_RULES:
            col = getattr(self, name)
            if col is None:
                continue
            if col.shape != t.shape:
                raise TraceError(f"trace {self.id!r}: {len(col)} {name} values "
                                 f"for {len(t)} timestamps")
            ok = (col >= 0) & (col <= upper)
            if name != "bandwidth":
                ok |= np.isnan(col)
            if (i := _first_false(ok)) is not None:
                raise TraceError(f"trace {self.id!r}: {name} {col[i]} at t={t[i]} "
                                 f"is not {rule}")

    @property
    def samples(self) -> tuple[TraceSample, ...]:
        """The trace as rows, built anew on each call; a missing rtt or loss is None."""
        n = len(self.times)
        optional = ([None] * n if col is None else
                    [None if math.isnan(v) else v for v in col.tolist()]
                    for col in (self.rtt, self.loss))
        return tuple(map(TraceSample, self.times.tolist(), self.bandwidth.tolist(), *optional))

    @property
    def group(self) -> int:
        return group_of(self.network_type, self.transport_mode)


def parse_trace(text: str, trace_id: str, network_type: NetworkType,
                transport_mode: TransportMode) -> Trace:
    """Parse the trace CSV format: `t_seconds,bandwidth_kbps[,rtt_ms[,loss_rate]]`.

    Lines starting with `#` and blank lines are ignored; rtt and loss may be
    left empty. Raises TraceError on malformed rows, non-finite values,
    non-monotone timestamps, or an empty file.
    """
    columns = _parse_uniform(text)
    if columns is None:
        columns = _parse_lines(text)
    return Trace(trace_id, network_type=network_type, transport_mode=transport_mode,
                 **columns)


def _parse_uniform(text: str) -> dict[str, np.ndarray] | None:
    """Columns of a file whose lines are all data rows with the same 2-4
    fields, in one call to numpy's reader; None if any line is not such a
    row, or a field is empty, not a number or not finite."""
    if not text.strip():
        return None  # loadtxt warns on a file without data
    try:
        values = np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if not (2 <= values.shape[1] <= 4 and np.isfinite(values).all()):
        return None
    return dict(zip(_COLUMNS, values.T))


def _parse_lines(text: str) -> dict[str, np.ndarray]:
    """Columns of any file, read line by line; errors name the line."""
    rows = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if not 2 <= len(parts) <= 4:
            raise TraceError(f"line {lineno}: expected 2-4 columns, got {len(parts)}")
        row = [math.nan] * 4
        for col, field in enumerate(parts):
            if col >= 2 and field == "":
                continue  # missing rtt or loss
            try:
                row[col] = float(field)
            except ValueError as e:
                raise TraceError(f"line {lineno}: {e}") from None
            if not math.isfinite(row[col]):
                raise TraceError(f"line {lineno}: {_COLUMNS[col]} {field!r} is not finite")
        rows.append(row)
    if not rows:
        raise TraceError("empty trace file")
    return dict(zip(_COLUMNS, np.array(rows).T))


def serialize_trace(trace: Trace) -> str:
    """Inverse of parse_trace (labels travel in the manifest, not the CSV)."""
    fields = [list(map(repr, trace.times.tolist())), list(map(repr, trace.bandwidth.tolist()))]
    optional = [trace.rtt, trace.loss]
    while optional and optional[-1] is None:
        optional.pop()
    for col in optional:
        fields.append([""] * len(trace.times) if col is None else
                      ["" if math.isnan(v) else repr(v) for v in col.tolist()])
    rows = map(",".join, zip(*fields))
    if optional:
        # A row ends at its last value: trailing empty fields are left out.
        rows = (row.rstrip(",") for row in rows)
    return "\n".join(rows) + "\n"


def bandwidth_at(trace: Trace, t: float) -> float:
    """Piecewise-constant bandwidth: value of the last sample with timestamp <= t."""
    first, last = trace.times[0], trace.times[-1]
    if t < first or t > last:
        raise TraceError(f"t={t} outside trace range [{first}, {last}]")
    return trace.bandwidth.item(int(trace.times.searchsorted(t, side="right")) - 1)


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
        check_fields(self, TraceError, (
            ("mean_kbps", 0 < self.mean_kbps < np.inf, "finite and positive"),
            ("amplitude_kbps", abs(self.amplitude_kbps) < np.inf, "finite"),
            ("period_s", 0 < self.period_s < np.inf, "finite and positive"),
            ("noise_std_kbps", 0 <= self.noise_std_kbps < np.inf, "finite and >= 0"),
            ("duration_s", 0 < self.duration_s < np.inf, "finite and positive"),
            ("wave", self.wave in ("sine", "square"), "'sine' or 'square'")))


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
    return Trace(trace_id, t, np.maximum(bw, 0.0), network_type, transport_mode)


def parse_network_type(label: str) -> NetworkType:
    try:
        return NetworkType(str(label).lower())
    except ValueError:
        raise TraceError(f"unknown network type {label!r}") from None


def parse_transport_mode(label: str) -> TransportMode:
    label = str(label).lower()
    if label == "bus":
        # Group table has no bus column; treat it as car.
        warnings.warn("transport mode 'bus' mapped to 'car'", stacklevel=2)
        return TransportMode.CAR
    try:
        return TransportMode(label)
    except ValueError:
        raise TraceError(f"unknown transport mode {label!r}") from None


def load_yaml(path: Path, what: str, error: type[Exception]):
    """The document of a UTF-8 YAML file; `error`, naming the file, if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as f:
            return yaml.load(f, Loader=YAML_LOADER)
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e.strerror}") from None
    # ValueError: bytes that are not UTF-8, or an integer literal over the interpreter's
    # digit limit for int(str); on one line: YAML's message spans several
    except (yaml.YAMLError, ValueError) as e:
        raise error(f"cannot parse {what} {path}: {' '.join(str(e).split())}") from None


def check_fields(obj, error: type[Exception], checks) -> None:
    """`error`, "{name} must be {rule}, got {value!r}", for the first (name, ok, rule) in
    `checks` that fails; each `ok` is written so that it holds, which NaN never does."""
    for name, ok, rule in checks:
        if not ok:
            raise error(f"{name} must be {rule}, got {getattr(obj, name)!r}")


class Corpus(Mapping[str, Trace]):
    """A manifest's traces by id; a CSV is parsed and kept when its id is first indexed."""

    def __init__(self, manifest: Path, records: dict[str, tuple]):
        self._manifest, self._records, self._traces = manifest, records, {}

    def __getitem__(self, tid: str) -> Trace:
        if tid not in self._traces:
            csv, nt, tm = self._records[tid]
            try:
                self._traces[tid] = parse_trace(csv.read_text(encoding="utf-8"), tid, nt, tm)
            except (OSError, TraceError, UnicodeDecodeError) as e:
                raise TraceError(f"{self._manifest}: record {tid!r}: {csv}: {e}") from None
        return self._traces[tid]

    def __contains__(self, tid) -> bool:
        return tid in self._records

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


def load_manifest(path: str | Path) -> Corpus:
    """Load a YAML manifest of `{id, path, network_type, transport_mode}` records.

    CSV paths, relative to the manifest file, must exist; each is parsed when first used.
    """
    path = Path(path)
    records = load_yaml(path, "manifest", TraceError)
    if not isinstance(records, list):
        raise TraceError("manifest must be a list of records")
    keys = ("id", "path", "network_type", "transport_mode")
    entries = {}
    for rec in records:
        if not (isinstance(rec, dict) and all(key in rec for key in keys)):
            raise TraceError(f"{path}: manifest record must be a mapping with keys "
                             f"{', '.join(keys)}: {rec!r}")
        tid = str(rec["id"])
        if tid in entries:
            raise TraceError(f"{path}: duplicate trace id {rec['id']!r}")
        if not isinstance(rec["path"], str):
            raise TraceError(f"{path}: record {rec['id']!r}: path must be a string, "
                             f"got {rec['path']!r}")
        entries[tid] = (path.parent / rec["path"], parse_network_type(str(rec["network_type"])),
                        parse_transport_mode(str(rec["transport_mode"])))
        try:
            entries[tid][0].stat()
        except OSError as e:
            raise TraceError(f"{path}: record {rec['id']!r}: cannot read "
                             f"{e.filename}: {e.strerror}") from None
    return Corpus(path, entries)


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
        yaml.dump(records, f, Dumper=YAML_DUMPER, sort_keys=False)
    return manifest

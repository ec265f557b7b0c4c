import io
import re

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedabr import traces as traces_module
from fedabr.traces import (YAML_DUMPER, NetworkType, SynthFamily, Trace, TraceError,
                           TraceSample, TransportMode, bandwidth_at, group_of, load_manifest,
                           parse_label, parse_trace, serialize_trace,
                           split_corpus, synthesize_trace, write_manifest)
from tests.conftest import constant_trace

NT = NetworkType
TM = TransportMode
COLUMNS = ("times", "bandwidth", "rtt", "loss")


def oracle_parse(text: str, trace_id: str = "t") -> list[TraceSample]:
    """The per-line parser and the per-sample checks of `Trace` that the
    columnar code replaced, kept verbatim as the reference (the checks read
    `samples` and `trace_id` for `self.samples` and `self.id`). Returns the
    accepted rows."""
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

    if len(samples) < 2:
        raise TraceError(f"trace {trace_id!r}: needs at least 2 samples")
    # Each check is written so that it holds, which NaN never does.
    inf = float("inf")
    prev = -inf
    for s in samples:
        if not (0 <= s.t < inf and s.t > prev):
            raise TraceError(f"trace {trace_id!r}: timestamps must be finite, non-negative "
                             f"and strictly increasing (got {s.t} after {prev})")
        if not 0 <= s.bandwidth < inf:
            raise TraceError(f"trace {trace_id!r}: bandwidth {s.bandwidth} at t={s.t} "
                             "is negative or not finite")
        if s.rtt is not None and not 0 <= s.rtt < inf:
            raise TraceError(f"trace {trace_id!r}: rtt {s.rtt} at t={s.t} "
                             "is negative or not finite")
        if s.loss is not None and not 0.0 <= s.loss <= 1.0:
            raise TraceError(f"trace {trace_id!r}: loss outside [0,1] at t={s.t}")
        prev = s.t
    return samples


def oracle_columns(samples: list[TraceSample]) -> dict[str, bytes | None]:
    """The raw bytes of each column the rows make; None for an absent column."""
    columns = {}
    for name, field in zip(COLUMNS, ("t", "bandwidth", "rtt", "loss")):
        values = [getattr(s, field) for s in samples]
        columns[name] = (None if all(v is None for v in values) else
                         np.array([np.nan if v is None else v for v in values]).tobytes())
    return columns


def column_bytes(trace: Trace) -> dict[str, bytes | None]:
    return {name: None if getattr(trace, name) is None else getattr(trace, name).tobytes()
            for name in COLUMNS}


def same_traces(a: list[Trace], b: list[Trace]) -> bool:
    """Pairwise the same id, labels and column bits (so NaN, a missing value, in
    the same places, and -0.0 apart from 0.0)."""
    return len(a) == len(b) and all(
        (x.id, x.network_type, x.transport_mode, column_bytes(x))
        == (y.id, y.network_type, y.transport_mode, column_bytes(y)) for x, y in zip(a, b))


# Numbers that a valid row never has, or writes in an odd way; and fields
# that are no number at all.
ODD_NUMBERS = ["nan", "NaN", "-nan", "inf", "-inf", "1e400", "-1.5", "1.5", "-0.0", "1_0", " 5 "]
BAD_FIELDS = ["x", "", " ", "1e", "0x1", "é", "\ud800", "1\u20282"]
ODD_LINES = ["# t,bandwidth,rtt,loss", "#", "", "   ", "7", "1,2,3,4,5", ",", "1,,", "a,b"]
FAULTS = ("odd lines", "time steps", "ragged rows", "empty rtt", "odd numbers", "bad fields")


@st.composite
def trace_files(draw):
    """Trace CSV text. Each file draws up to two kinds of fault, and each row
    has one of them with chance 1/3: comment, blank and bad lines, times that
    stand still or go back, ragged rows, empty rtt fields, odd numbers such as
    `nan`, `inf` and `1e400`, and fields that are no number.
    A file with no kind of fault has rows of one width with valid values."""
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=2))
    width = draw(st.integers(2, 4))

    def fault(kind):
        return kind in faults and draw(st.integers(0, 2)) == 0

    lines = []
    t = draw(st.floats(0.0, 10.0))
    for _ in range(draw(st.integers(0, 12))):
        if fault("odd lines"):
            lines.append(draw(st.sampled_from(ODD_LINES)))
            continue
        t += draw(st.sampled_from([0.0, -1.0] if fault("time steps") else [1.0, 0.25, 1e-3]))
        values = [t, draw(st.floats(0.0, 5000.0)), draw(st.floats(0.0, 500.0)),
                  draw(st.floats(0.0, 1.0))]
        fields = [repr(v) for v in values[:draw(st.integers(2, 4)) if fault("ragged rows")
                                          else width]]
        if len(fields) > 2 and fault("empty rtt"):
            fields[2] = ""
        for kind, choices in (("odd numbers", ODD_NUMBERS), ("bad fields", BAD_FIELDS)):
            if fault(kind):
                fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(choices))
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def oracle_serialize(samples: list[TraceSample]) -> str:
    """The row-by-row writer that `serialize_trace` replaced, kept verbatim."""
    lines = []
    for s in samples:
        cols = [repr(s.t), repr(s.bandwidth)]
        if s.rtt is not None or s.loss is not None:
            cols.append("" if s.rtt is None else repr(s.rtt))
        if s.loss is not None:
            cols.append(repr(s.loss))
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


@st.composite
def column_traces(draw):
    """A valid trace built from columns, with optional rtt and loss columns
    that leave a random share of their fields empty (NaN)."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = draw(st.floats(0.0, 100.0)) + np.cumsum(rng.uniform(1e-3, 5.0, size=n))
    bandwidth = rng.uniform(0.0, 5000.0, size=n)
    if draw(st.booleans()):
        bandwidth = np.round(bandwidth)
    optional = {}
    for name, top in (("rtt", 500.0), ("loss", 1.0)):
        if draw(st.booleans()):
            col = rng.uniform(0.0, top, size=n)
            col[rng.random(n) < draw(st.floats(0.0, 1.0))] = np.nan
            optional[name] = col
    return Trace("rt", times, bandwidth, NT.WIFI, TM.FOOT, **optional)


class TestParseTrace:
    def test_basic(self):
        tr = parse_trace("0.0,1500\n1.0,800\n", "t", NT.FOUR_G, TM.CAR)
        assert [s.bandwidth for s in tr.samples] == [1500, 800]
        assert tr.network_type is NT.FOUR_G

    def test_negative_bandwidth(self):
        with pytest.raises(TraceError):
            parse_trace("0.0,1500\n0.5,-3\n", "t", NT.FOUR_G, TM.CAR)

    def test_non_monotone(self):
        with pytest.raises(TraceError):
            parse_trace("0.0,1\n0.0,2\n", "t", NT.FOUR_G, TM.CAR)

    def test_empty(self):
        with pytest.raises(TraceError):
            parse_trace("# only a comment\n", "t", NT.FOUR_G, TM.CAR)

    @pytest.mark.parametrize("text", [
        "0,1500\n1,nan\n", "0,1500\n1,inf\n", "0,1500\n1,-inf\n",
        "0,1500\nnan,800\n", "0,1500\ninf,800\n", "nan,1500\n1,800\n",
        "0,1500,20\n1,800,nan\n", "0,1500,20\n1,800,inf\n",
        "0,1500,20,0.1\n1,800,20,nan\n",
    ])
    def test_non_finite_rejected(self, text):
        with pytest.raises(TraceError):
            parse_trace(text, "t", NT.FOUR_G, TM.CAR)

    @pytest.mark.parametrize("literal", ["nan", "-nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("header", ["", "# t,bandwidth,rtt,loss\n"],
                             ids=["uniform", "with-comment"])
    def test_non_finite_rejected_in_every_column(self, literal, column, header):
        rows = [["0", "1500", "20", "0.1"], ["1", "800", "30", "0.2"]]
        rows[1][column] = literal
        with pytest.raises(TraceError):
            parse_trace(header + "".join(",".join(r) + "\n" for r in rows),
                        "t", NT.FOUR_G, TM.CAR)

    def test_comments_and_optional_columns(self):
        tr = parse_trace("# header\n0,100,20,0.01\n1,200\n", "t", NT.WIFI, TM.FOOT)
        assert tr.samples[0].rtt == 20 and tr.samples[0].loss == 0.01
        assert tr.samples[1].rtt is None

    def test_empty_fields_become_nan(self):
        tr = parse_trace("0,100,,0.5\n1,200,30\n2,300\n", "t", NT.WIFI, TM.FOOT)
        assert np.array_equal(tr.rtt, [np.nan, 30, np.nan], equal_nan=True)
        assert np.array_equal(tr.loss, [0.5, np.nan, np.nan], equal_nan=True)

    @pytest.mark.parametrize("text", ["0,1,\n1,2,\n", "0,1\n1,2\n"])
    def test_absent_columns_are_none(self, text):
        tr = parse_trace(text, "t", NT.WIFI, TM.FOOT)
        assert tr.rtt is None and tr.loss is None

    def test_error_names_line(self):
        with pytest.raises(TraceError, match="line 3"):
            parse_trace("# h\n0,1\n1,inf\n", "t", NT.WIFI, TM.FOOT)

    @settings(max_examples=400, deadline=None)
    @given(trace_files())
    def test_matches_per_line_oracle(self, text):
        try:
            expected = oracle_columns(oracle_parse(text))
        except TraceError:
            expected = None
        try:
            got = column_bytes(parse_trace(text, "t", NT.WIFI, TM.FOOT))
        except TraceError:
            got = None
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(column_traces())
    def test_serialize_roundtrip(self, trace):
        text = serialize_trace(trace)
        assert text == oracle_serialize(trace.samples)
        back = parse_trace(text, trace.id, trace.network_type, trace.transport_mode)
        assert same_traces([back], [trace])
        assert serialize_trace(back) == text

    def test_roundtrip_with_generator(self):
        fam = SynthFamily(mean_kbps=900, amplitude_kbps=200, noise_std_kbps=50,
                          duration_s=300)
        tr = synthesize_trace(fam, "synth", NT.THREE_G, TM.TRAIN, seed=5)
        assert tr.times[-1] - tr.times[0] == 300
        back = parse_trace(serialize_trace(tr), tr.id, tr.network_type, tr.transport_mode)
        assert same_traces([back], [tr])


class TestTraceColumns:
    def test_columns_are_read_only_float64(self):
        tr = Trace("c", [0, 1, 2], [5, 6, 7], NT.WIFI, TM.FOOT, loss=[0.1, np.nan, 0.2])
        for col in (tr.times, tr.bandwidth, tr.loss):
            assert col.dtype == np.float64 and not col.flags.writeable
        with pytest.raises(ValueError):
            tr.bandwidth[0] = 1.0

    def test_all_missing_column_is_none(self):
        tr = Trace("c", [0, 1], [5, 6], NT.WIFI, TM.FOOT, rtt=[np.nan, np.nan])
        assert tr.rtt is None

    def test_samples_view(self):
        tr = Trace("c", [0, 1], [5, 6], NT.WIFI, TM.FOOT, rtt=[20, np.nan])
        assert tr.samples == (TraceSample(0.0, 5.0, 20.0, None), TraceSample(1.0, 6.0, None, None))

    @pytest.mark.parametrize("columns, message", [
        (dict(times=[0, 1, 1], bandwidth=[1, 2, 3]), r"got 1\.0 after 1\.0"),
        (dict(times=[0, 1, 2, 3], bandwidth=[1, -1, -2, 1]), r"bandwidth -1\.0 at t=1\.0"),
        (dict(times=[0, 1, 2], bandwidth=[1, 2, 3], rtt=[1, 2, np.inf]), r"rtt inf at t=2\.0"),
        (dict(times=[0, 1, 2], bandwidth=[1, 2, 3], loss=[np.nan, 1.5, 2]), r"loss 1\.5 at t=1\.0"),
        (dict(times=[0, 1, 2], bandwidth=[1, 2]), "2 bandwidth values for 3 timestamps"),
    ])
    def test_check_names_first_offending_t(self, columns, message):
        with pytest.raises(TraceError, match=message):
            Trace("c", network_type=NT.WIFI, transport_mode=TM.FOOT, **columns)

    def test_equality(self):
        """`same_traces`, the test oracle for whole traces."""
        def make(**kw):
            args = dict(times=[0, 1], bandwidth=[5, 6], rtt=[20, np.nan])
            args.update(kw)
            return Trace("c", network_type=NT.WIFI, transport_mode=TM.FOOT, **args)

        assert same_traces([make()], [make()])
        assert not same_traces([make()], [make(rtt=[np.nan, 20])])
        assert not same_traces([make()], [make(rtt=None)])
        assert not same_traces([make()], [make(bandwidth=[5, 6.000000000000001])])
        assert not same_traces([make(bandwidth=[0.0, 1])], [make(bandwidth=[-0.0, 1])])
        assert not same_traces([make()], [Trace("d", [0, 1], [5, 6], NT.WIFI, TM.FOOT,
                                                rtt=[20, np.nan])])
        assert not same_traces([make()], [make(), make()])


class TestBandwidthAt:
    def test_piecewise_constant(self):
        tr = parse_trace("0,1500\n1,800\n", "t", NT.FOUR_G, TM.CAR)
        assert bandwidth_at(tr, 0.5) == 1500

    def test_boundary_takes_newer(self):
        tr = parse_trace("0,1500\n1,800\n", "t", NT.FOUR_G, TM.CAR)
        assert bandwidth_at(tr, 1.0) == 800

    def test_out_of_range(self):
        tr = parse_trace("0,1500\n1,800\n", "t", NT.FOUR_G, TM.CAR)
        with pytest.raises(TraceError):
            bandwidth_at(tr, 1.5)

    def test_against_linear_scan(self, noisy_trace):
        rng = np.random.default_rng(1)
        last_t = noisy_trace.samples[-1].t
        for t in rng.uniform(0, last_t, size=1000):
            expected = None
            for s in noisy_trace.samples:
                if s.t <= t:
                    expected = s.bandwidth
            assert bandwidth_at(noisy_trace, t) == expected


class TestGroupOf:
    # Complete 12-entry classification table.
    TABLE = {
        (NT.THREE_G, TM.FOOT): 1, (NT.THREE_G, TM.CAR): 2,
        (NT.THREE_G, TM.FERRY): 3, (NT.THREE_G, TM.TRAIN): 4,
        (NT.FOUR_G, TM.FOOT): 5, (NT.FOUR_G, TM.CAR): 6,
        (NT.FOUR_G, TM.FERRY): 7, (NT.FOUR_G, TM.TRAIN): 8,
        (NT.WIFI, TM.FOOT): 9, (NT.WIFI, TM.CAR): 10,
        (NT.WIFI, TM.FERRY): 11, (NT.WIFI, TM.TRAIN): 12,
    }

    def test_table(self):
        for (nt, tm), gid in self.TABLE.items():
            assert group_of(nt, tm) == gid

    def test_bijection(self):
        groups = {group_of(nt, tm) for nt in NT for tm in TM}
        assert groups == set(range(1, 13))


class TestSplitCorpus:
    def _corpus(self, n):
        return [constant_trace(trace_id=f"t{i}") for i in range(n)]

    def test_counts_100(self):
        split = split_corpus(self._corpus(100), seed=3)
        assert (len(split.test), len(split.pretrain), len(split.finetune)) == (20, 64, 16)

    def test_counts_5(self):
        split = split_corpus(self._corpus(5), seed=3)
        assert (len(split.test), len(split.pretrain), len(split.finetune)) == (1, 3, 1)

    def test_deterministic(self):
        corpus = self._corpus(30)
        assert split_corpus(corpus, seed=9) == split_corpus(corpus, seed=9)

    def test_too_small(self):
        with pytest.raises(TraceError):
            split_corpus(self._corpus(4), seed=0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=5, max_value=120), seed=st.integers(0, 1000))
    def test_partition_property(self, n, seed):
        corpus = self._corpus(n)
        split = split_corpus(corpus, seed)
        all_ids = {t.id for t in corpus}
        assert split.pretrain | split.finetune | split.test == all_ids
        assert not (split.pretrain & split.finetune)
        assert not (split.pretrain & split.test)
        assert not (split.finetune & split.test)


class TestSynthesize:
    def test_constant_family(self):
        fam = SynthFamily(mean_kbps=1000, amplitude_kbps=0, noise_std_kbps=0, duration_s=10)
        tr = synthesize_trace(fam, "c", NT.WIFI, TM.FOOT, seed=0)
        assert all(s.bandwidth == 1000 for s in tr.samples)
        assert len(tr.samples) == 11

    def test_sine_bounds(self):
        fam = SynthFamily(mean_kbps=1000, amplitude_kbps=500, noise_std_kbps=0,
                          duration_s=100, period_s=30)
        tr = synthesize_trace(fam, "s", NT.WIFI, TM.FOOT, seed=0)
        bws = [s.bandwidth for s in tr.samples]
        assert min(bws) >= 500 and max(bws) <= 1500

    def test_noisy_mean(self):
        fam = SynthFamily(mean_kbps=2000, amplitude_kbps=0, noise_std_kbps=400,
                          duration_s=1000)
        tr = synthesize_trace(fam, "n", NT.WIFI, TM.FOOT, seed=11)
        mean = np.mean([s.bandwidth for s in tr.samples])
        assert abs(mean - 2000) / 2000 < 0.05

    def test_deterministic(self):
        fam = SynthFamily(mean_kbps=1000, noise_std_kbps=100, duration_s=50)
        a = synthesize_trace(fam, "x", NT.WIFI, TM.FOOT, seed=4)
        b = synthesize_trace(fam, "x", NT.WIFI, TM.FOOT, seed=4)
        assert same_traces([a], [b])

    def test_invalid_parameters(self):
        with pytest.raises(TraceError):
            SynthFamily(mean_kbps=0)
        with pytest.raises(TraceError):
            SynthFamily(mean_kbps=100, duration_s=-1)

    @pytest.mark.parametrize("field, value, rule", [
        ("mean_kbps", 0.0, "finite and positive"),
        ("mean_kbps", float("nan"), "finite and positive"),
        ("mean_kbps", float("inf"), "finite and positive"),
        ("amplitude_kbps", float("nan"), "finite"),
        ("amplitude_kbps", float("-inf"), "finite"),
        ("period_s", float("nan"), "finite and positive"),
        ("period_s", -5.0, "finite and positive"),
        ("noise_std_kbps", float("nan"), "finite and >= 0"),
        ("noise_std_kbps", -1.0, "finite and >= 0"),
        ("duration_s", float("inf"), "finite and positive"),
        ("duration_s", float("nan"), "finite and positive"),
        ("wave", "triangle", "'sine' or 'square'"),
    ])
    def test_every_field_checked(self, field, value, rule):
        """A bad field is named when the family is made, not later by the trace it makes."""
        with pytest.raises(TraceError, match=re.escape(f"{field} must be {rule}, got {value!r}")):
            SynthFamily(**{"mean_kbps": 1000.0, field: value})


class TestManifest:
    def test_roundtrip(self, tmp_path, noisy_trace):
        traces = [noisy_trace, constant_trace(trace_id="c1", nt=NT.THREE_G, tm=TM.FERRY)]
        manifest = write_manifest(traces, tmp_path)
        loaded = list(load_manifest(manifest).values())
        assert same_traces(loaded, traces)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E)),
                              st.sampled_from(NT), st.sampled_from(TM)), min_size=1, max_size=6))
    @example([(i, NT.FOUR_G, TM.CAR) for i in
              ("a: b", "x:", "#c", "d #e", "'f", '"g', "h'i\"j", "-", "-k", "- l", "42", "007",
               "1e5", "0x1F", "12:30", "null", "yes", "~", "", " m", "n ", "n" * 90)])
    def test_dumpers_write_the_same_bytes(self, rows):
        """The manifest dumper (libyaml's, where PyYAML has it) writes the bytes of PyYAML's
        Python dumper for printable-ASCII ids, and both read back as the records."""
        records = [{"id": tid, "path": f"{tid}.csv", "network_type": nt.value,
                    "transport_mode": tm.value} for tid, nt, tm in rows]
        text = yaml.dump(records, Dumper=YAML_DUMPER, sort_keys=False)
        assert text == yaml.dump(records, Dumper=yaml.SafeDumper, sort_keys=False)
        assert yaml.load(text, Loader=traces_module.YAML_LOADER) == records
        assert yaml.safe_load(text) == records

    def test_bus_is_rejected(self, tmp_path):
        """`bus` is outside the 3 x 4 group table, like any label that is not an enum value."""
        manifest = write_manifest([constant_trace(trace_id="b")], tmp_path)
        manifest.write_text(manifest.read_text().replace("car", "bus"))
        with pytest.raises(TraceError, match=re.escape("unknown transport mode 'bus'") + "$"):
            load_manifest(manifest)

    @pytest.mark.parametrize("kind, label, message", [
        (NT, "5g", "unknown network type '5g'"), (NT, 5, "unknown network type 5"),
        (TM, "x", "unknown transport mode 'x'"), (TM, "Bus", "unknown transport mode 'Bus'")])
    def test_unknown_label(self, kind, label, message):
        with pytest.raises(TraceError, match=re.escape(message) + "$"):
            parse_label(kind, label)

    @pytest.mark.parametrize("kind", [NT, TM])
    def test_labels_in_any_case(self, kind):
        for member in kind:
            assert parse_label(kind, member.value.upper()) is member

    @pytest.mark.parametrize("record", ["- 5", "- idpathnetwork_typetransport_mode",
                                        "- {id: a, path: a.csv}"])
    def test_bad_record(self, tmp_path, record):
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(record + "\n")
        with pytest.raises(TraceError, match="manifest.yaml"):
            load_manifest(manifest)

    @pytest.mark.parametrize("value", ["5", "null", "[x]", "{a: b}", "true"])
    def test_non_string_path(self, tmp_path, value):
        manifest = write_manifest([constant_trace(trace_id="a")], tmp_path)
        manifest.write_text(manifest.read_text().replace("path: a.csv", f"path: {value}"))
        with pytest.raises(TraceError, match=rf"^{re.escape(str(manifest))}: record 'a': "
                                             "path must be a string, got "):
            load_manifest(manifest)

    def test_missing_csv(self, tmp_path):
        manifest = write_manifest([constant_trace(trace_id="gone")], tmp_path)
        (tmp_path / "gone.csv").unlink()
        with pytest.raises(TraceError, match="'gone'.*gone.csv"):
            load_manifest(manifest)

    def test_duplicate_id(self, tmp_path):
        manifest = write_manifest([constant_trace(trace_id="a"), constant_trace(trace_id="b")],
                                  tmp_path)
        manifest.write_text(manifest.read_text().replace("id: b", "id: a"))
        with pytest.raises(TraceError, match="duplicate trace id 'a'"):
            load_manifest(manifest)

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
    def test_libyaml_and_python_loaders_agree(self, tmp_path, noisy_trace, monkeypatch):
        assert traces_module.YAML_LOADER is yaml.CSafeLoader
        traces = [noisy_trace, constant_trace(trace_id="007", nt=NT.WIFI, tm=TM.TRAIN),
                  constant_trace(trace_id="yes: no", nt=NT.THREE_G, tm=TM.FOOT)]
        manifest = write_manifest(traces, tmp_path)
        loaded = []
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            monkeypatch.setattr(traces_module, "YAML_LOADER", loader)
            loaded.append(list(load_manifest(manifest).values()))
        assert same_traces(loaded[0], traces) and same_traces(loaded[1], traces)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(TraceError, match="nowhere.yaml"):
            load_manifest(tmp_path / "nowhere.yaml")

    def test_parse_transport_unknown(self):
        with pytest.raises(TraceError):
            parse_label(TransportMode, "submarine")

    @pytest.mark.parametrize("text, error", [
        ("0,1000\n1,abc\n", "line 2: could not convert string to float: 'abc'"),
        ("# only a comment\n", "empty trace file"),
        ("0,1000\n", "trace 'b': needs at least 2 samples"),
        ("0,1000\n1,-5\n", "trace 'b': bandwidth -5.0 at t=1.0 is not finite and non-negative"),
    ])
    def test_csv_error_names_file(self, tmp_path, text, error):
        traces = [constant_trace(trace_id="a"), constant_trace(trace_id="b")]
        manifest = write_manifest(traces, tmp_path)
        (tmp_path / "b.csv").write_text(text)
        corpus = load_manifest(manifest)
        assert same_traces([corpus["a"]], traces[:1])
        with pytest.raises(TraceError) as info:
            corpus["b"]
        assert str(info.value) == f"{manifest}: record 'b': {tmp_path / 'b.csv'}: {error}"

    @pytest.mark.parametrize("data", [b"\xff\xfe0,1000\n1,1000\n", b"0,1000\n1,10\xe900\n"])
    def test_csv_not_utf8(self, tmp_path, data):
        manifest = write_manifest([constant_trace(trace_id="a")], tmp_path)
        (tmp_path / "a.csv").write_bytes(data)
        with pytest.raises(TraceError, match=rf"^{re.escape(str(manifest))}: record 'a': "
                                             rf"{re.escape(str(tmp_path / 'a.csv'))}: "
                                             "'utf-8' codec can't decode byte"):
            load_manifest(manifest)["a"]


class TestLazyManifest:
    """`load_manifest` checks every record at once, and parses a CSV only
    when its trace is first indexed."""

    @pytest.fixture
    def corpus(self, tmp_path, noisy_trace):
        traces = [noisy_trace, constant_trace(trace_id="c1", nt=NT.THREE_G, tm=TM.FERRY),
                  constant_trace(trace_id="c2", nt=NT.WIFI, tm=TM.TRAIN)]
        return traces, write_manifest(traces, tmp_path)

    def test_len_in_and_iteration_parse_nothing(self, corpus, parsed_ids):
        _, manifest = corpus
        loaded = load_manifest(manifest)
        assert len(loaded) == 3
        assert "c1" in loaded and "c9" not in loaded and 5 not in loaded
        assert list(loaded) == ["noisy", "c1", "c2"]
        assert list(loaded.keys()) == ["noisy", "c1", "c2"]
        assert parsed_ids == []

    def test_each_trace_parsed_once(self, corpus, parsed_ids):
        _, manifest = corpus
        loaded = load_manifest(manifest)
        first = loaded["c1"]
        assert loaded["c1"] is first and loaded.get("c1") is first
        assert parsed_ids == ["c1"]
        assert loaded.get("c9") is None
        with pytest.raises(KeyError):
            loaded["c9"]
        assert parsed_ids == ["c1"]

    def test_same_traces_as_eager_parse(self, corpus, parsed_ids):
        traces, manifest = corpus
        loaded = dict(load_manifest(manifest))
        assert sorted(parsed_ids) == sorted(t.id for t in traces)
        eager = [parse_trace((manifest.parent / f"{t.id}.csv").read_text(), t.id,
                             t.network_type, t.transport_mode) for t in traces]
        assert list(loaded) == [t.id for t in traces]
        assert same_traces(list(loaded.values()), eager) and same_traces(eager, traces)

    def test_read_only(self, corpus):
        loaded = load_manifest(corpus[1])
        with pytest.raises(TypeError):
            loaded["c1"] = loaded["c2"]

    def test_records_checked_before_any_parse(self, corpus, parsed_ids):
        _, manifest = corpus
        (manifest.parent / "c1.csv").write_text("not,a,trace,at,all\n")
        (manifest.parent / "c2.csv").unlink()
        with pytest.raises(TraceError, match="'c2'.*c2.csv"):
            load_manifest(manifest)
        assert parsed_ids == []

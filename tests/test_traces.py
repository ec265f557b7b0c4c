import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedabr.traces import (NetworkType, SynthFamily, TraceError, TransportMode,
                           bandwidth_at, group_of, load_manifest, parse_trace,
                           parse_transport_mode, serialize_trace, split_corpus,
                           synthesize_trace, write_manifest)
from tests.conftest import constant_trace

NT = NetworkType
TM = TransportMode


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

    def test_comments_and_optional_columns(self):
        tr = parse_trace("# header\n0,100,20,0.01\n1,200\n", "t", NT.WIFI, TM.FOOT)
        assert tr.samples[0].rtt == 20 and tr.samples[0].loss == 0.01
        assert tr.samples[1].rtt is None

    def test_roundtrip_with_generator(self):
        fam = SynthFamily(mean_kbps=900, amplitude_kbps=200, noise_std_kbps=50,
                          duration_s=300)
        tr = synthesize_trace(fam, "synth", NT.THREE_G, TM.TRAIN, seed=5)
        assert tr.duration == 300
        back = parse_trace(serialize_trace(tr), tr.id, tr.network_type, tr.transport_mode)
        assert back == tr


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
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(TraceError):
            SynthFamily(mean_kbps=0)
        with pytest.raises(TraceError):
            SynthFamily(mean_kbps=100, duration_s=-1)


class TestManifest:
    def test_roundtrip(self, tmp_path, noisy_trace):
        traces = [noisy_trace, constant_trace(trace_id="c1", nt=NT.THREE_G, tm=TM.FERRY)]
        manifest = write_manifest(traces, tmp_path)
        loaded = load_manifest(manifest)
        assert loaded == traces

    def test_bus_maps_to_car(self, tmp_path):
        write_manifest([constant_trace(trace_id="b")], tmp_path)
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(manifest.read_text().replace("car", "bus"))
        with pytest.warns(UserWarning, match="bus"):
            loaded = load_manifest(manifest)
        assert loaded[0].transport_mode is TM.CAR

    @pytest.mark.parametrize("record", ["- 5", "- idpathnetwork_typetransport_mode",
                                        "- {id: a, path: a.csv}"])
    def test_bad_record(self, tmp_path, record):
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(record + "\n")
        with pytest.raises(TraceError, match="manifest.yaml"):
            load_manifest(manifest)

    def test_missing_csv(self, tmp_path):
        manifest = write_manifest([constant_trace(trace_id="gone")], tmp_path)
        (tmp_path / "gone.csv").unlink()
        with pytest.raises(TraceError, match="'gone'.*gone.csv"):
            load_manifest(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(TraceError, match="nowhere.yaml"):
            load_manifest(tmp_path / "nowhere.yaml")

    def test_parse_transport_unknown(self):
        with pytest.raises(TraceError):
            parse_transport_mode("submarine")

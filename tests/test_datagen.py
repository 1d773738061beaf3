"""Corpus synthesis, pairing rules, oracle labels, manifest round trips."""

import json
import signal

import numpy as np
import pytest

from cdpam import datagen
from cdpam.audio import rms
from cdpam.datagen import (CorpusEntry, JudgmentRecord, build_common_area_sets,
                           build_mono_series, build_mos_set, build_retrieval_set,
                           make_contrastive_batch, oracle_jnd, oracle_triplets, read_jsonl,
                           synth_corpus, write_jsonl)
from cdpam.errors import CapacityError, ContractError, DataError
from cdpam.perturb import FAMILIES, magnitude

SR = 4000
CLIP = 4000


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(40, 4, seed=0, sample_rate=SR, clip_samples=CLIP)


class TestSynthCorpus:
    def test_counts_and_speakers(self, corpus):
        assert len(corpus) == 40
        assert len({u.speaker_id for u in corpus}) == 4
        assert len({u.id for u in corpus}) == 40

    def test_deterministic(self):
        a = synth_corpus(4, 2, seed=9, sample_rate=SR, clip_samples=CLIP)
        b = synth_corpus(4, 2, seed=9, sample_rate=SR, clip_samples=CLIP)
        for ua, ub in zip(a, b):
            assert np.array_equal(ua.clean.samples, ub.clean.samples)

    def test_rms_within_band(self, corpus):
        for utt in corpus:
            assert 0.02 <= rms(utt.clean) <= 0.5

    def test_canonical_shape(self, corpus):
        for utt in corpus:
            assert len(utt.clean) == CLIP
            assert utt.clean.sample_rate == SR

    def test_wav_directory_source(self, corpus, tmp_path):
        from cdpam.audio import write_wav
        for utt in corpus[:3]:
            write_wav(utt.clean, tmp_path / f"{utt.id}.wav")
        loaded = synth_corpus(3, 2, seed=0, sample_rate=SR, clip_samples=CLIP,
                              from_dir=tmp_path)
        assert len(loaded) == 3
        assert all(len(u.clean) == CLIP for u in loaded)


@pytest.fixture
def applied(monkeypatch, corpus):
    """Per pair, the (spec, utterance id) of each perturbation make_contrastive_batch applies."""
    calls = []
    real = datagen.apply
    ids = {id(utt.clean): utt.id for utt in corpus}

    def recording_apply(spec, clean):
        out = real(spec, clean)
        calls.append((spec, ids[id(clean)], out))
        return out

    monkeypatch.setattr(datagen, "apply", recording_apply)
    return calls


def _views(pairs, calls):
    """(spec, utterance id) of view i and view j per pair, checked against the pair's waves."""
    assert len(calls) == 2 * len(pairs)
    views = []
    for pair, call_i, call_j in zip(pairs, calls[0::2], calls[1::2]):
        assert pair.wave_i is call_i[2] and pair.wave_j is call_j[2]
        views.append((call_i[:2], call_j[:2]))
    return views


class TestContrastivePairs:
    def test_acoustic_mode_shares_spec(self, corpus, applied):
        pairs = make_contrastive_batch(corpus, "acoustic", batch_size=8, seed=1)
        assert len(pairs) == 8
        seen = set()
        for (spec_i, utt_i), (spec_j, utt_j) in _views(pairs, applied):
            assert spec_i == spec_j
            assert utt_i != utt_j
            seen.update((utt_i, utt_j))
        assert len(seen) == 16  # all distinct across the batch

    def test_content_mode_shares_utterance(self, corpus, applied):
        pairs = make_contrastive_batch(corpus, "content", batch_size=8, seed=2)
        for (spec_i, utt_i), (spec_j, utt_j) in _views(pairs, applied):
            assert utt_i == utt_j
            assert spec_i != spec_j

    def test_batch_of_16_has_32_waveforms(self, corpus):
        pairs = make_contrastive_batch(corpus, "acoustic", batch_size=16, seed=3)
        waves = [w for pair in pairs for w in (pair.wave_i, pair.wave_j)]
        assert len(waves) == 32

    def test_capacity_error(self, corpus):
        with pytest.raises(CapacityError):
            make_contrastive_batch(corpus[:10], "acoustic", batch_size=8, seed=0)

    def test_deterministic(self, corpus):
        a = make_contrastive_batch(corpus, "content", batch_size=4, seed=11)
        b = make_contrastive_batch(corpus, "content", batch_size=4, seed=11)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.wave_i.samples, pb.wave_i.samples)
            assert np.array_equal(pa.wave_j.samples, pb.wave_j.samples)


class TestOracleJnd:
    def test_zero_magnitude_is_same(self, corpus):
        records = oracle_jnd(corpus, 50, threshold=0.15, noise_sigma=0.0, seed=0)
        for record in records:
            mag = magnitude(record.spec_a)
            assert record.label == ("different" if mag > 0.15 else "same")

    def test_label_balance(self, corpus):
        records = oracle_jnd(corpus, 400, seed=1)
        different = sum(1 for r in records if r.label == "different")
        assert 0.3 <= different / len(records) <= 0.7

    def test_threshold_crossing_rate(self, corpus):
        # at magnitude == threshold the flip noise makes labels a coin toss
        from cdpam.datagen import DEFAULT_JND_SIGMA
        rng = np.random.default_rng(2)
        flips = [rng.normal(0.0, DEFAULT_JND_SIGMA) > 0.0 for _ in range(1000)]
        assert 0.45 <= np.mean(flips) <= 0.55

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_at_least_one_pair(self, corpus, n):
        with pytest.raises(ContractError, match="need at least one jnd pair"):
            oracle_jnd(corpus, n)

    def test_determinism(self, corpus):
        a = oracle_jnd(corpus, 10, seed=5)
        b = oracle_jnd(corpus, 10, seed=5)
        assert a == b


class TestOracleTriplets:
    def test_preferred_is_smaller_magnitude(self, corpus):
        for record in oracle_triplets(corpus, 60, seed=3):
            mag_a = magnitude(record.spec_a)
            mag_b = magnitude(record.spec_b)
            assert record.label == ("A" if mag_a < mag_b else "B")

    def test_eval_split_gap(self, corpus):
        for record in oracle_triplets(corpus, 40, seed=4, min_magnitude_gap=0.2):
            assert abs(magnitude(record.spec_a) - magnitude(record.spec_b)) >= 0.2

    def test_distinct_comparison_clips(self, corpus):
        for record in oracle_triplets(corpus, 10, seed=5):
            assert record.spec_a != record.spec_b

    def test_determinism(self, corpus):
        a = oracle_triplets(corpus, 12, seed=6)
        b = oracle_triplets(corpus, 12, seed=6)
        assert a == b

    @pytest.mark.parametrize("gap", [1.0, 1.5, -0.1, 0.999])
    def test_unreachable_gap_rejected(self, corpus, gap):
        # magnitudes lie in [0, 1], so no pair reaches a gap of 1, and about one draw in
        # a million reaches 0.999: unchecked, the draw loop runs on, and the alarm fails
        # the test instead of hanging the suite
        def expire(signum, frame):
            raise TimeoutError("oracle_triplets is still drawing")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            with pytest.raises(CapacityError if 0 < gap < 1 else ContractError,
                               match="min_magnitude_gap"):
                oracle_triplets(corpus, 4, seed=6, min_magnitude_gap=gap)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


# records of each type the JSONL manifests hold, made from the test corpus
RECORD_SETS = {
    "jnd_pair": lambda corpus: oracle_jnd(corpus, 8, seed=7),
    "triplet": lambda corpus: oracle_triplets(corpus, 8, seed=8),
    "mono": lambda corpus: build_mono_series(corpus, ("noise", "eq"), n_levels=3, n_contents=2),
    "common_area": lambda corpus: build_common_area_sets(corpus, n_pairs=4, seed=1),
    "retrieval": lambda corpus: build_retrieval_set(corpus, n_groups=2, group_size=4, seed=2,
                                                    families=FAMILIES),
    "mos": lambda corpus: build_mos_set(corpus, n_conditions=2, clips_per_cell=1, seed=3),
    "corpus": lambda corpus: [CorpusEntry(u.id, u.speaker_id, f"corpus/{u.id}.wav")
                              for u in corpus[:4]],
}


class TestManifests:
    @pytest.mark.parametrize("kind", sorted(RECORD_SETS))
    def test_round_trip_lossless(self, corpus, tmp_path, kind):
        records = RECORD_SETS[kind](corpus)
        path, again = tmp_path / "records.jsonl", tmp_path / "again.jsonl"
        write_jsonl(records, path)
        back = read_jsonl(path, type(records[0]))
        assert back == records
        write_jsonl(back, again)
        assert again.read_bytes() == path.read_bytes()
        assert "null" not in path.read_text()  # a None field is left out, not written

    @pytest.mark.parametrize("extra", [
        {"label_source": "oracle"},
        {"paths": {"ref": "corpus/utt0000.wav", "a": "jnd_clips/00000_a.wav"}},
        {"a_id": "utt0000#jnd00000", "b_id": "utt0000#t00000b"},
    ], ids=["label_source", "paths", "a_id-b_id"])
    def test_older_manifest_with_extra_keys_loads(self, corpus, tmp_path, extra):
        record = oracle_jnd(corpus, 1, seed=7)[0]
        path = tmp_path / "jnd.jsonl"
        write_jsonl([record], path)
        row = json.loads(path.read_text())
        assert not set(extra) & set(row)
        path.write_text(json.dumps({**row, **extra}) + "\n")
        assert read_jsonl(path, JudgmentRecord) == [record]

    @pytest.mark.parametrize("field,value", [
        ("reverb_rt60_s", True), ("noise_snr_db", True), ("pop_rate", True),
        ("eq_gains_db", [float("nan")] * 8)])
    def test_bad_spec_value_names_file_and_line(self, corpus, tmp_path, field, value):
        path = tmp_path / "jnd.jsonl"
        write_jsonl(oracle_jnd(corpus, 2, seed=7), path)
        first, second = path.read_text().splitlines()
        row = json.loads(second)
        row["spec_a"][field] = value
        path.write_text(f"{first}\n{json.dumps(row)}\n")
        with pytest.raises(DataError, match=f"jnd.jsonl line 2: {field} "):
            read_jsonl(path, JudgmentRecord)

    def test_record_validation(self):
        from cdpam.perturb import PerturbSpec
        spec = PerturbSpec(noise_snr_db=10.0, seed=0)
        with pytest.raises(ContractError):
            JudgmentRecord(kind="jnd_pair", ref_id="u", spec_a=spec, label="A")
        with pytest.raises(ContractError):
            JudgmentRecord(kind="triplet", ref_id="u", spec_a=spec, label="A")


class TestEvalSets:
    def test_mono_series_structure(self, corpus):
        items = build_mono_series(corpus, ("noise", "reverb"), n_levels=4, n_contents=3, seed=0)
        families = {item.family for item in items}
        assert families == {"noise", "reverb", "combined"}
        noise_items = [i for i in items if i.family == "noise"]
        assert len(noise_items) == 12
        by_level = {}
        for item in noise_items:
            by_level.setdefault(item.level, []).append(magnitude(item.spec))
        levels = sorted(by_level)
        means = [np.mean(by_level[level]) for level in levels]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_common_area_groups(self, corpus):
        pairs = build_common_area_sets(corpus, n_pairs=20, seed=1)
        same = [p for p in pairs if p.group == "same"]
        diff = [p for p in pairs if p.group == "diff"]
        assert len(same) == len(diff) == 20
        for p in same:
            assert p.spec_a == p.spec_b
            assert p.utt_a != p.utt_b
        assert any(p.spec_a != p.spec_b for p in diff)

    def test_retrieval_groups(self, corpus):
        items = build_retrieval_set(corpus, n_groups=5, group_size=8, seed=2)
        assert len(items) == 40
        for group_id in range(5):
            specs = {i.spec for i in items if i.group_id == group_id}
            assert len(specs) == 1

    def test_mos_cells_filled(self, corpus):
        rows = build_mos_set(corpus, n_conditions=4, clips_per_cell=2, seed=3)
        speakers = {u.speaker_id for u in corpus}
        cells = {(r.speaker_id, r.condition_id) for r in rows}
        assert cells == {(s, c) for s in speakers for c in range(4)}
        for row in rows:
            assert 1.0 <= row.rating <= 5.0

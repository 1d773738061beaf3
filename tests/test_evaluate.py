"""Metric math against brute-force oracles, plus runner integration checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdpam.errors import ContractError, DataError, DegenerateInputError
from cdpam.evaluate import (average_ranks, common_area, mos_correlation, precision_at_k,
                            spearman, svg_histogram, two_afc_from_distances)


def spearman_bruteforce(xs, ys):
    """Independent oracle: O(n^2) average ranks, then the Pearson formula."""
    def ranks(values):
        out = []
        for v in values:
            less = sum(1 for u in values if u < v)
            equal = sum(1 for u in values if u == v)
            out.append(less + (equal + 1) / 2.0)
        return out

    rx = ranks(list(xs))
    ry = ranks(list(ys))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5


class TestSpearman:
    def test_monotone_is_one(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert spearman(xs, [np.exp(x) for x in xs]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_tie_example_matches_oracle(self):
        xs = [1.0, 2.0, 2.0, 3.0]
        ys = [1.0, 3.0, 2.0, 4.0]
        assert spearman(xs, ys) == pytest.approx(spearman_bruteforce(xs, ys), abs=1e-12)

    def test_random_with_ties_matches_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(2, 51))
            xs = rng.integers(0, 8, size=n).astype(float)  # many ties
            ys = rng.integers(0, 8, size=n).astype(float)
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                continue
            assert spearman(xs, ys) == pytest.approx(spearman_bruteforce(xs, ys), abs=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            spearman([1, 2], [1, 2, 3])

    def test_average_ranks_ties(self):
        assert np.array_equal(average_ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])


class TestMosCorrelation:
    def test_single_speaker_monotone(self):
        magnitudes = np.linspace(0.1, 0.9, 6)
        distances = magnitudes * 2.0          # metric tracks magnitude
        ratings = 5.0 - 4.0 * magnitudes      # rating anti-tracks it
        rho = mos_correlation(distances, ratings, [0] * 6, list(range(6)))
        assert rho == pytest.approx(1.0)

    def test_two_speakers_same_structure(self):
        magnitudes = np.linspace(0.1, 0.9, 5)
        d = np.concatenate([magnitudes, magnitudes])
        r = np.concatenate([5 - 4 * magnitudes, 5 - 4 * magnitudes])
        speakers = [0] * 5 + [1] * 5
        conditions = list(range(5)) * 2
        single = mos_correlation(d[:5], r[:5], speakers[:5], conditions[:5])
        double = mos_correlation(d, r, speakers, conditions)
        assert double == pytest.approx(single)

    def test_empty_cell_rejected(self):
        with pytest.raises(DataError):
            mos_correlation([1.0, 2.0, 3.0], [1, 2, 3], [0, 0, 1], [0, 1, 0])

    def test_cell_averaging(self):
        # two clips in one cell average before ranking
        d = [1.0, 3.0, 5.0, 7.0]
        r = [4.0, 4.0, 2.0, 2.0]
        rho = mos_correlation(d, r, [0, 0, 0, 0], [0, 0, 1, 1])
        assert rho == pytest.approx(1.0)  # cells: (2, 4) and (6, 2)


class TestTwoAfc:
    def test_oracle_distances_score_one(self):
        d_a = [0.1, 0.5, 0.2]
        d_b = [0.4, 0.2, 0.9]
        labels = ["A", "B", "A"]
        assert two_afc_from_distances(d_a, d_b, labels) == 1.0

    def test_label_other_than_a_or_b_is_a_contract_error(self):
        with pytest.raises(ContractError, match="got 'C'"):
            two_afc_from_distances([0.1], [0.2], ["C"])

    def test_ties_score_half(self):
        assert two_afc_from_distances([0.3], [0.3], ["A"]) == 0.5

    def test_constant_model_near_chance(self):
        rng = np.random.default_rng(1)
        labels = [rng.choice(["A", "B"]) for _ in range(400)]
        assert two_afc_from_distances(np.ones(400), np.ones(400), labels) == 0.5

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        d_a = rng.uniform(size=20)
        d_b = rng.uniform(size=20)
        labels = [rng.choice(["A", "B"]) for _ in range(20)]
        base = two_afc_from_distances(d_a, d_b, labels)
        perm = rng.permutation(20)
        shuffled = two_afc_from_distances(d_a[perm], d_b[perm], [labels[i] for i in perm])
        assert shuffled == pytest.approx(base)


class TestCommonArea:
    def test_identical_distributions(self):
        values = np.random.default_rng(3).normal(size=500)
        assert common_area(values, values.copy()) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert common_area([0.0, 0.1, 0.2], [5.0, 5.1, 5.2]) == 0.0

    def test_known_discrete_histograms(self):
        # each group has half its mass in the bin holding 1.0, and the other half in the
        # first of the 50 bins or in the last -> overlap 0.5
        a = np.concatenate([np.full(10, 0.1), np.full(10, 1.0)])
        b = np.concatenate([np.full(10, 1.0), np.full(10, 1.9)])
        assert common_area(a, b) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 1, 300)
        b = rng.normal(0.7, 1.2, 240)
        assert common_area(a, b) == pytest.approx(common_area(b, a))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=50)
        b = rng.normal(0.5, 1.0, size=60)
        base = common_area(a, b)
        assert common_area(rng.permutation(a), rng.permutation(b)) == pytest.approx(base)

    def test_degenerate_point_mass(self):
        assert common_area([1.0, 1.0], [1.0]) == 1.0


class TestPrecisionAtK:
    def test_separated_clusters_score_one(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(10, 8)) * 0.01 + np.array([10.0] + [0.0] * 7)
        b = rng.normal(size=(10, 8)) * 0.01 + np.array([0.0] * 7 + [10.0])
        emb = np.concatenate([a, b])
        labels = [0] * 10 + [1] * 10
        assert precision_at_k(emb, labels, k=5) == 1.0

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(6)
        emb = rng.normal(size=(400, 16))
        labels = np.repeat(np.arange(10), 40)
        rng.shuffle(labels)
        assert abs(precision_at_k(emb, labels, k=10) - 0.1) < 0.05

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        emb = rng.normal(size=(30, 8))
        labels = np.repeat(np.arange(3), 10)
        base = precision_at_k(emb, labels, k=4)
        assert precision_at_k(emb * 137.0, labels, k=4) == pytest.approx(base)

    def test_small_class_rejected(self):
        with pytest.raises(DataError):
            precision_at_k(np.random.default_rng(8).normal(size=(5, 4)), [0, 0, 0, 0, 1], k=2)

    def test_needs_k_plus_one(self):
        with pytest.raises(DataError):
            precision_at_k(np.ones((3, 2)) + np.arange(6).reshape(3, 2), [0, 0, 1], k=3)

    @pytest.mark.parametrize("k", [0, -1, True])
    def test_k_below_one_rejected(self, k):
        emb = np.random.default_rng(9).normal(size=(6, 4))
        with pytest.raises(ContractError, match=f"^k must be an integer >= 1, got {k}$"):
            precision_at_k(emb, [0, 0, 0, 1, 1, 1], k=k)


@pytest.fixture(scope="module")
def tiny_eval():
    from cdpam.datagen import (build_common_area_sets, build_mono_series, build_mos_set,
                               build_retrieval_set, oracle_triplets, synth_corpus)
    from cdpam.model import PerceptualModel, tiny_config

    cfg = tiny_config()
    corpus = synth_corpus(24, 4, seed=2, sample_rate=cfg.sample_rate,
                          clip_samples=cfg.clip_samples)
    model = PerceptualModel.initialize(cfg, seed=0)
    datasets = {
        "two_afc": oracle_triplets(corpus, 12, seed=1, min_magnitude_gap=0.2),
        "monotonicity": build_mono_series(corpus, ("noise",), n_levels=3, n_contents=2, seed=2),
        "common_area": build_common_area_sets(corpus, n_pairs=10, seed=3),
        "precision_at_k": build_retrieval_set(corpus, n_groups=3, group_size=6, seed=4),
        "mos_correlation": build_mos_set(corpus, n_conditions=3, clips_per_cell=2, seed=5),
    }
    return model, corpus, datasets


def uncached_runs(model, corpus, datasets, embed_waves):
    """Each runner alone, every clip rendered and passed to `embed_waves` afresh:
    metric -> its report."""
    from cdpam.datagen import corpus_by_id
    from cdpam.evaluate import (run_common_area, run_monotonicity, run_mos_correlation,
                                run_precision_at_k, run_two_afc)
    from cdpam.perturb import apply

    by_id = corpus_by_id(corpus)

    def embed(keys):
        return embed_waves([by_id[utt].clean if spec is None else apply(spec, by_id[utt].clean)
                            for utt, spec in keys])

    return {
        "two_afc": run_two_afc(model, embed, datasets["two_afc"]),
        "common_area": run_common_area(model, embed, datasets["common_area"]),
        "monotonicity": run_monotonicity(model, embed, datasets["monotonicity"]),
        "precision_at_k": run_precision_at_k(model, embed, datasets["precision_at_k"], k=3),
        "mos_correlation": run_mos_correlation(model, embed, datasets["mos_correlation"]),
    }


class TestEvalCache:
    def test_full_eval_equals_uncached_runners(self, tiny_eval):
        from cdpam.evaluate import run_full_eval

        model, corpus, datasets = tiny_eval
        reports = {r.metric: r for r in run_full_eval(model, corpus, datasets, k=3)}
        for metric, report in uncached_runs(model, corpus, datasets, model.embed_waves).items():
            assert report.metric == metric
            assert reports[metric] == report, metric
        assert reports["precision_at_k"].config == {"k": 3}
        assert [row["group"] for row in reports["common_area"].breakdown] == ["diff", "same"]

    def test_each_distinct_clip_embedded_once(self, tiny_eval, monkeypatch):
        from cdpam.evaluate import run_full_eval

        model, corpus, datasets = tiny_eval
        real = model.embed_waves

        def recorder(log):
            def embed(waves):
                log.extend(w.samples.tobytes() + str(w.sample_rate).encode() for w in waves)
                return real(waves)
            return embed

        requested, embedded = [], []
        uncached_runs(model, corpus, datasets, recorder(requested))
        monkeypatch.setattr(model, "embed_waves", recorder(embedded))
        run_full_eval(model, corpus, datasets, k=3)
        assert len(requested) > len(set(requested))  # the eval sets do repeat clips
        assert sorted(embedded) == sorted(set(requested))

    def test_key_is_utterance_and_spec(self, tiny_eval, monkeypatch):
        from cdpam import evaluate

        model, corpus, datasets = tiny_eval
        spec = datasets["mos_correlation"][0].spec
        a, b = corpus[0].id, corpus[1].id
        renders, batches = [], []
        real_apply, real_embed = evaluate.apply, model.embed_waves
        monkeypatch.setattr(evaluate, "apply",
                            lambda s, w: renders.append(s) or real_apply(s, w))
        monkeypatch.setattr(model, "embed_waves",
                            lambda ws: batches.append(len(ws)) or real_embed(ws))
        embed = evaluate.clip_embedder(model, corpus)
        keys = [(a, spec), (a, None), (a, spec), (b, spec)]
        rows = embed(keys)
        assert renders == [spec, spec] and batches == [3]
        assert np.array_equal(rows[0], rows[2])
        assert np.array_equal(rows[0], real_embed([real_apply(spec, corpus[0].clean)])[0])
        assert np.array_equal(rows[1], real_embed([corpus[0].clean])[0])
        assert np.array_equal(embed(keys[::-1]), rows[::-1])
        assert renders == [spec, spec] and batches == [3]
        with pytest.raises(DataError, match="utterance 'nope' is not in the corpus"):
            embed([(a, None), ("nope", spec)])
        assert embed([]).shape == (0, model.config.encoder.acoustic_dim)

    def test_embeds_at_most_one_embed_batch_per_call(self, tiny_eval, monkeypatch, embed_slices):
        from cdpam import evaluate
        from cdpam.model import EMBED_BATCH

        model, corpus, datasets = tiny_eval
        specs = [None, *dict.fromkeys(row.spec for row in datasets["mos_correlation"])]
        keys = [(utt.id, spec) for spec in specs for utt in corpus]
        assert len(set(keys)) == len(keys) > EMBED_BATCH
        sizes, real = [], model.embed_waves
        monkeypatch.setattr(model, "embed_waves",
                            lambda waves: sizes.append(len(waves)) or real(waves))
        rows = evaluate.clip_embedder(model, corpus)(keys)
        assert sizes == embed_slices(len(keys))
        # the bytes of one call over every rendered clip
        by_id = {utt.id: utt.clean for utt in corpus}
        waves = [by_id[utt] if spec is None else evaluate.apply(spec, by_id[utt])
                 for utt, spec in keys]
        assert rows.tobytes() == real(waves).tobytes()

    @pytest.mark.parametrize("runner,dataset", [
        ("run_two_afc", "two-AFC"), ("run_common_area", "common-area"),
        ("run_monotonicity", "monotonicity"), ("run_precision_at_k", "retrieval"),
        ("run_mos_correlation", "MOS")])
    def test_empty_set_names_its_dataset(self, tiny_eval, runner, dataset):
        from cdpam import evaluate

        model, corpus, _ = tiny_eval
        with pytest.raises(DataError, match=dataset):
            getattr(evaluate, runner)(model, evaluate.clip_embedder(model, corpus), [])


class TestReportsAndRunners:
    def test_svg_histogram_deterministic(self, tmp_path):
        rng = np.random.default_rng(9)
        groups = {"same": rng.normal(size=100), "diff": rng.normal(1, 1, 80)}
        svg_histogram(groups, tmp_path / "a.svg")
        svg_histogram(groups, tmp_path / "b.svg")
        a = (tmp_path / "a.svg").read_bytes()
        assert a == (tmp_path / "b.svg").read_bytes()
        assert a.startswith(b"<svg")

    def test_full_eval_on_tiny_model(self, tiny_eval, tmp_path):
        from cdpam.evaluate import run_full_eval, write_reports_csv, write_reports_json

        model, corpus, datasets = tiny_eval
        reports = run_full_eval(model, corpus, datasets, k=3,
                                histogram_path=tmp_path / "hist.svg")
        names = {r.metric for r in reports}
        assert names == {"two_afc", "common_area", "monotonicity", "precision_at_k",
                         "mos_correlation"}
        for report in reports:
            assert np.isfinite(report.value)
            assert report.n > 0
        write_reports_json(reports, tmp_path / "r.json")
        write_reports_csv(reports, tmp_path / "r.csv")
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "hist.svg").exists()

    def test_failed_metric_leaves_the_histogram(self, tiny_eval, tmp_path):
        # the histogram is drawn only once every requested metric has returned
        from cdpam.evaluate import run_full_eval

        model, corpus, datasets = tiny_eval
        hist = tmp_path / "hist.svg"
        hist.write_bytes(b"<svg>old</svg>\n")
        with pytest.raises(DataError, match="the MOS set is empty"):
            run_full_eval(model, corpus, {**datasets, "mos_correlation": []}, k=3, histogram_path=hist)
        assert hist.read_bytes() == b"<svg>old</svg>\n"

    def test_each_metric_is_one_eval_set_and_one_runner(self):
        # EVAL_SETS' order is ALL_METRICS', so reports.csv's row order
        from cdpam import evaluate

        assert tuple(evaluate.EVAL_SETS) == evaluate.ALL_METRICS == (
            "two_afc", "common_area", "monotonicity", "precision_at_k", "mos_correlation")
        for metric in evaluate.ALL_METRICS:
            assert callable(getattr(evaluate, f"run_{metric}")), metric

    def test_metric_subset_filter(self):
        from cdpam.datagen import oracle_triplets, synth_corpus
        from cdpam.evaluate import run_full_eval
        from cdpam.model import PerceptualModel, tiny_config

        cfg = tiny_config()
        corpus = synth_corpus(8, 2, seed=3, sample_rate=cfg.sample_rate,
                              clip_samples=cfg.clip_samples)
        model = PerceptualModel.initialize(cfg, seed=0)
        datasets = {"two_afc": oracle_triplets(corpus, 6, seed=1)}
        reports = run_full_eval(model, corpus, datasets, metrics=("two_afc",))
        assert [r.metric for r in reports] == ["two_afc"]

    def test_unknown_metric_rejected(self, tiny_eval, monkeypatch):
        # before any metric runs: no clip of the known metric is embedded
        from cdpam.evaluate import run_full_eval

        model, corpus, datasets = tiny_eval
        calls = []
        monkeypatch.setattr(model, "embed_waves", calls.append)
        with pytest.raises(ContractError, match="unknown metric 'pesq'"):
            run_full_eval(model, corpus, datasets, metrics=("two_afc", "pesq"))
        assert calls == []

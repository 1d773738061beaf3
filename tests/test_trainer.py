"""Training stages: augmentation, ordering, freezing, determinism, learning."""

import numpy as np
import pytest

from cdpam import losses, tensor as T, trainer
from cdpam.audio import Waveform, rms
from cdpam.datagen import oracle_jnd, oracle_triplets, synth_corpus
from cdpam.errors import ContractError, DataError, NumericError, TrainingError
from cdpam.model import EMBED_BATCH, PerceptualModel, tiny_config
from cdpam.trainer import (TrainConfig, _augment, finetune_triplet, pretrain_contrastive,
                           save_loss_log, train_jnd)

CFG = tiny_config()


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(40, 4, seed=1, sample_rate=CFG.sample_rate,
                        clip_samples=CFG.clip_samples)


@pytest.fixture(scope="module")
def pretrained(corpus):
    config = TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=7)
    model, rows = pretrain_contrastive(corpus, config, CFG)
    return model, rows


class TestDefaults:
    def test_reference_hyperparameters(self):
        # each stage's tag, epoch stream key and reference epoch count, which epochs=None trains
        assert trainer._STAGES == {"pretrain": ("pretrained", 21, 250), "jnd": ("jnd", 22, 250),
                                   "finetune": ("finetuned", 23, 100)}
        config = TrainConfig()
        assert config.epochs is None
        assert config.lr == 1e-4
        assert config.batch_size == 16
        assert config.margin == 0.1
        assert config.tau == 0.5

    def test_epochs_none_runs_the_reference_count(self, corpus, monkeypatch):
        monkeypatch.setitem(trainer._STAGES, "pretrain", ("pretrained", 21, 2))
        config = TrainConfig(batch_size=4, seed=7)
        _, rows = pretrain_contrastive(corpus, config, CFG)
        assert len(rows) == 2
        assert config.epochs is None  # resolved where the stage runs, not in the config

    @pytest.mark.parametrize("name,value", [
        ("epochs", 0), ("epochs", "2"), ("epochs", 2.0), ("epochs", True),
        ("batch_size", 0), ("batch_size", -4), ("batch_size", "16"),
        ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")), ("lr", "x"),
        pytest.param("lr", 10 ** 400, id="lr-huge"), ("tau", -1.0), ("tau", 0.0),
        ("margin", float("nan")), ("margin", float("inf")), ("seed", -1), ("augment", 1),
    ])
    def test_invalid_values_rejected_naming_the_field(self, name, value):
        with pytest.raises(ContractError, match=f"^{name} must be "):
            TrainConfig(**{name: value})

    def test_integral_numpy_values_accepted(self):
        config = TrainConfig(epochs=np.int64(2), batch_size=np.int64(4),
                             lr=np.float64(1e-3))
        assert config.epochs == 2 and config.batch_size == 4


class TestAugment:
    def test_deterministic(self):
        w = Waveform(np.random.default_rng(0).normal(size=CFG.clip_samples) * 0.1,
                     CFG.sample_rate)
        a = _augment(w, np.random.default_rng(5))
        b = _augment(w, np.random.default_rng(5))
        assert np.array_equal(a.samples, b.samples)

    def test_shift_is_quarter_second(self):
        w = Waveform(np.ones(CFG.clip_samples) * 0.5, CFG.sample_rate)
        silence = int(round(0.25 * CFG.sample_rate))
        prepended = 0
        for seed in range(40):
            out = _augment(w, np.random.default_rng(seed))
            assert len(out) == len(w)
            head, tail = out.samples[:silence], out.samples[-silence:]
            assert np.all(head == 0.0) or np.all(tail == 0.0)
            prepended += int(np.all(head == 0.0))
        assert 10 <= prepended <= 30  # both branches exercised

    def test_gain_within_minus20_to_0(self):
        w = Waveform(np.ones(CFG.clip_samples), CFG.sample_rate)
        for seed in range(30):
            out = _augment(w, np.random.default_rng(seed))
            peak = np.max(np.abs(out.samples))
            assert 0.1 - 1e-9 <= peak <= 1.0 + 1e-9


class TestPretrain:
    def test_bookkeeping(self, pretrained):
        model, rows = pretrained
        assert model.stage == "pretrained"
        assert len(rows) == 3
        assert all(np.isfinite(row["loss"]) for row in rows)

    def test_deterministic(self, corpus, pretrained):
        model, _ = pretrained
        config = TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=7)
        again, _ = pretrain_contrastive(corpus, config, CFG)
        for name in model.params:
            assert np.array_equal(model.params[name].data, again.params[name].data)
        for name in model.state:
            assert np.array_equal(model.state[name], again.state[name])

    def test_loss_decreases_over_training(self, corpus):
        config = TrainConfig(epochs=12, batch_size=4, lr=3e-3, seed=3,
                             families=("noise",), augment=False)
        _, rows = pretrain_contrastive(corpus, config, CFG)
        assert rows[-1]["loss"] < rows[0]["loss"]



class TestTrainJnd:
    def test_requires_pretrained(self, corpus):
        fresh = PerceptualModel.initialize(CFG, seed=0)
        records = oracle_jnd(corpus, 8, seed=0)
        with pytest.raises(ContractError,
                           match="^the jnd stage needs a 'pretrained' checkpoint, got 'init'$"):
            train_jnd(fresh, corpus, records, TrainConfig(epochs=1))

    def test_rejects_triplet_records(self, corpus, pretrained):
        model, _ = pretrained
        with pytest.raises(ContractError, match="^expected jnd_pair records, got 'triplet'$"):
            train_jnd(model, corpus, oracle_triplets(corpus, 4, seed=0),
                      TrainConfig(epochs=1))

    def test_encoder_bit_identical_when_frozen(self, corpus, pretrained):
        model, _ = pretrained
        records = oracle_jnd(corpus, 16, seed=2)
        config = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=1)
        trained, rows = train_jnd(model, corpus, records, config)
        assert trained.stage == "jnd"
        assert len(rows) == 2
        for name, t in model.params.items():
            if name.startswith("enc."):
                assert np.array_equal(trained.params[name].data, t.data)
        for name, arr in model.state.items():
            assert np.array_equal(trained.state[name], arr)
        # loss-net and classifier did move
        assert any(not np.array_equal(trained.params[n].data, model.params[n].data)
                   for n in model.params if n.startswith(("lossnet.", "clf.")))

    def test_deterministic(self, corpus, pretrained):
        model, _ = pretrained
        records = oracle_jnd(corpus, 16, seed=2)
        config = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=1)
        a, _ = train_jnd(model, corpus, records, config)
        b, _ = train_jnd(model, corpus, records, config)
        assert all(np.array_equal(a.params[n].data, b.params[n].data) for n in a.params)

    def test_learns_above_chance(self, corpus, pretrained):
        model, _ = pretrained
        records = oracle_jnd(corpus, 48, threshold=0.3, noise_sigma=0.0, seed=4)
        config = TrainConfig(epochs=30, batch_size=16, lr=5e-3, seed=2,
                             augment=False)
        trained, _ = train_jnd(model, corpus, records, config)
        from cdpam.perturb import apply
        from cdpam.datagen import corpus_by_id
        by_id = corpus_by_id(corpus)
        correct = 0
        for record in records:
            clean = by_id[record.ref_id].clean
            p = trained.judge(trained.distance(clean, apply(record.spec_a, clean)))
            correct += (p > 0.5) == (record.label == "different")
        assert correct / len(records) > 0.5



class TestEmbedSlices:
    @pytest.mark.parametrize("stage", ["jnd", "finetune"])
    def test_at_most_one_embed_batch_per_call_and_the_same_bytes(self, corpus, pretrained,
                                                                 monkeypatch, stage,
                                                                 embed_slices):
        model, _ = pretrained
        n, epochs = EMBED_BATCH + 6, 2  # more items than one slice
        if stage == "jnd":
            records, columns, train = oracle_jnd(corpus, n, seed=11), 2, train_jnd
        else:
            model, _ = train_jnd(model, corpus, oracle_jnd(corpus, 8, seed=12),
                                 TrainConfig(epochs=1, batch_size=8, seed=1))
            records, columns, train = oracle_triplets(corpus, n, seed=13), 3, finetune_triplet
        config = TrainConfig(epochs=epochs, batch_size=16, lr=1e-3, seed=3)
        sizes = []
        real = PerceptualModel.embed_waves
        monkeypatch.setattr(PerceptualModel, "embed_waves",
                            lambda self, waves: sizes.append(len(waves)) or real(self, waves))
        sliced, _ = train(model, corpus, records, config)
        assert sizes == embed_slices(n) * (columns * epochs)
        monkeypatch.setattr("cdpam.model.EMBED_BATCH", n)  # each column in one call
        del sizes[:]
        whole, _ = train(model, corpus, records, config)
        assert sizes == [n] * (columns * epochs)
        for name, t in whole.params.items():
            assert sliced.params[name].data.tobytes() == t.data.tobytes(), name


class TestFinetune:
    def test_requires_jnd_stage(self, corpus, pretrained):
        model, _ = pretrained
        records = oracle_triplets(corpus, 8, seed=0)
        with pytest.raises(ContractError,
                           match="^the finetune stage needs a 'jnd' checkpoint, got 'pretrained'$"):
            finetune_triplet(model, corpus, records, TrainConfig(epochs=1))

    def test_rejects_jnd_pairs(self, corpus, pretrained):
        model, _ = pretrained
        jnd_model, _ = train_jnd(model, corpus, oracle_jnd(corpus, 8, seed=2),
                                 TrainConfig(epochs=1, batch_size=8, seed=1))
        with pytest.raises(ContractError, match="^expected triplet records, got 'jnd_pair'$"):
            finetune_triplet(jnd_model, corpus, oracle_jnd(corpus, 4, seed=0),
                             TrainConfig(epochs=1))

    def test_margin_default_and_stage_tag(self, corpus, pretrained):
        model, _ = pretrained
        jnd_model, _ = train_jnd(model, corpus, oracle_jnd(corpus, 16, seed=2),
                                 TrainConfig(epochs=1, batch_size=8, seed=1))
        config = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=4)
        assert config.margin == 0.1
        tuned, rows = finetune_triplet(jnd_model, corpus, oracle_triplets(corpus, 12, seed=5),
                                       config)
        assert tuned.stage == "finetuned"
        assert len(rows) == 2
        # encoder and classifier untouched; loss-net moved
        for name in tuned.params:
            if name.startswith(("enc.", "clf.")):
                assert np.array_equal(tuned.params[name].data, jnd_model.params[name].data)

    def test_ranking_improves_on_training_triplets(self, corpus, pretrained):
        model, _ = pretrained
        jnd_model, _ = train_jnd(model, corpus, oracle_jnd(corpus, 32, seed=6),
                                 TrainConfig(epochs=10, batch_size=16, lr=3e-3,
                                             seed=1))
        records = oracle_triplets(corpus, 32, seed=7, min_magnitude_gap=0.3)
        from cdpam.evaluate import clip_embedder, run_two_afc
        before = run_two_afc(jnd_model, clip_embedder(jnd_model, corpus), records).value
        config = TrainConfig(epochs=20, batch_size=16, lr=5e-3, seed=5,
                             augment=False)
        tuned, _ = finetune_triplet(jnd_model, corpus, records, config)
        after = run_two_afc(tuned, clip_embedder(tuned, corpus), records).value
        assert after >= before


class TestOneConfig:
    def test_one_config_trains_all_three_stages(self, corpus, tmp_path):
        # a config names no stage: the stage is the function it is passed to
        config = TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=7)
        model, pre_rows = pretrain_contrastive(corpus, config, CFG)
        model, jnd_rows = train_jnd(model, corpus, oracle_jnd(corpus, 8, seed=2), config)
        model, tune_rows = finetune_triplet(model, corpus, oracle_triplets(corpus, 8, seed=0),
                                            config)
        assert model.stage == "finetuned"
        logged = []
        for name, rows in (("pretrain", pre_rows), ("jnd", jnd_rows), ("finetune", tune_rows)):
            save_loss_log(rows, tmp_path / f"{name}_log.csv")
            lines = (tmp_path / f"{name}_log.csv").read_text().splitlines()
            logged.append([line.split(",")[1] for line in lines[1:]])
        assert logged == [["pretrain"], ["jnd"], ["finetune"]]


class TestDivergence:
    """A NaN loss aborts its stage with a TrainingError naming the stage and the epoch."""

    @pytest.mark.parametrize("stage,loss", [("pretrain", "nt_xent"), ("jnd", "bce"),
                                            ("finetune", "margin_rank")])
    def test_nan_at_epoch_1(self, corpus, pretrained, monkeypatch, stage, loss):
        model, _ = pretrained
        if stage == "finetune":
            model, _ = train_jnd(model, corpus, oracle_jnd(corpus, 8, seed=2),
                                 TrainConfig(epochs=1, batch_size=8, seed=1))
        finished = []  # one entry per completed epoch, from the progress callback
        real = getattr(losses, loss)

        def nan_after_epoch_0(*args, **kwargs):
            out = real(*args, **kwargs)
            return T.mul(out, T.Tensor(np.nan)) if finished else out

        monkeypatch.setattr(losses, loss, nan_after_epoch_0)
        config = TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=7)
        with pytest.raises(TrainingError, match=f"{stage} stage diverged at epoch 1") as err:
            if stage == "pretrain":
                pretrain_contrastive(corpus, config, CFG, progress=finished.append)
            elif stage == "jnd":
                train_jnd(model, corpus, oracle_jnd(corpus, 8, seed=2), config,
                          progress=finished.append)
            else:
                finetune_triplet(model, corpus, oracle_triplets(corpus, 8, seed=0), config,
                                 progress=finished.append)
        assert err.value.epoch == 1
        assert isinstance(err.value.__cause__, NumericError)
        assert [row["epoch"] for row in finished] == [0]


class TestEmptyRecordSets:
    """An empty record set stops its stage before the first epoch."""

    @pytest.mark.parametrize("stage,needs,name", [("jnd", "pretrained", "jnd"),
                                                  ("finetune", "jnd", "triplet")])
    def test_raises_data_error_before_any_epoch(self, corpus, pretrained, stage, needs, name):
        model = pretrained[0].clone()
        model.stage = needs
        train = train_jnd if stage == "jnd" else finetune_triplet
        finished = []
        with pytest.raises(DataError, match=f"the {name} record set is empty"):
            train(model, corpus, [], TrainConfig(epochs=2),
                  progress=finished.append)
        assert finished == []

"""Training stages: augmentation, ordering, freezing, determinism, learning."""

import numpy as np
import pytest

from cdpam import losses, tensor as T
from cdpam.audio import Waveform, rms
from cdpam.datagen import oracle_jnd, oracle_triplets, synth_corpus
from cdpam.errors import ContractError, DataError, NumericError, TrainingError
from cdpam.model import PerceptualModel, tiny_config
from cdpam.trainer import (EPOCH_DEFAULTS, TrainConfig, _augment, finetune_triplet,
                           pretrain_contrastive, train_jnd)

CFG = tiny_config()


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(40, 4, seed=1, sample_rate=CFG.sample_rate,
                        clip_samples=CFG.clip_samples)


@pytest.fixture(scope="module")
def pretrained(corpus):
    config = TrainConfig(stage="pretrain", epochs=3, batch_size=4, lr=1e-3, seed=7)
    model, rows = pretrain_contrastive(corpus, config, CFG)
    return model, rows


class TestDefaults:
    def test_reference_hyperparameters(self):
        assert EPOCH_DEFAULTS == {"pretrain": 250, "jnd": 250, "finetune": 100}
        config = TrainConfig(stage="finetune")
        assert config.epochs == 100
        assert config.lr == 1e-4
        assert config.batch_size == 16
        assert config.margin == 0.1
        assert config.tau == 0.5

    def test_unknown_stage_rejected(self):
        with pytest.raises(ContractError):
            TrainConfig(stage="warmup")

    @pytest.mark.parametrize("name,value", [
        ("epochs", 0), ("epochs", "2"), ("epochs", 2.0), ("epochs", True),
        ("batch_size", 0), ("batch_size", -4), ("batch_size", "16"),
        ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")), ("lr", "x"),
    ])
    def test_invalid_values_rejected_naming_the_field(self, name, value):
        with pytest.raises(ContractError, match=name):
            TrainConfig(stage="jnd", **{name: value})

    def test_integral_numpy_values_accepted(self):
        config = TrainConfig(stage="jnd", epochs=np.int64(2), batch_size=np.int64(4),
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
        config = TrainConfig(stage="pretrain", epochs=3, batch_size=4, lr=1e-3, seed=7)
        again, _ = pretrain_contrastive(corpus, config, CFG)
        for name in model.params:
            assert np.array_equal(model.params[name].data, again.params[name].data)
        for name in model.state:
            assert np.array_equal(model.state[name], again.state[name])

    def test_loss_decreases_over_training(self, corpus):
        config = TrainConfig(stage="pretrain", epochs=12, batch_size=4, lr=3e-3, seed=3,
                             families=("noise",), augment=False)
        _, rows = pretrain_contrastive(corpus, config, CFG)
        assert rows[-1]["loss"] < rows[0]["loss"]

    def test_wrong_stage_config(self, corpus):
        with pytest.raises(ContractError):
            pretrain_contrastive(corpus, TrainConfig(stage="jnd", epochs=1), CFG)


class TestTrainJnd:
    def test_requires_pretrained(self, corpus):
        fresh = PerceptualModel.initialize(CFG, seed=0)
        records = oracle_jnd(corpus, 8, seed=0)
        with pytest.raises(ContractError):
            train_jnd(fresh, corpus, records, TrainConfig(stage="jnd", epochs=1))

    def test_encoder_bit_identical_when_frozen(self, corpus, pretrained):
        model, _ = pretrained
        records = oracle_jnd(corpus, 16, seed=2)
        config = TrainConfig(stage="jnd", epochs=2, batch_size=8, lr=1e-3, seed=1)
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
        config = TrainConfig(stage="jnd", epochs=2, batch_size=8, lr=1e-3, seed=1)
        a, _ = train_jnd(model, corpus, records, config)
        b, _ = train_jnd(model, corpus, records, config)
        assert all(np.array_equal(a.params[n].data, b.params[n].data) for n in a.params)

    def test_learns_above_chance(self, corpus, pretrained):
        model, _ = pretrained
        records = oracle_jnd(corpus, 48, threshold=0.3, noise_sigma=0.0, seed=4)
        config = TrainConfig(stage="jnd", epochs=30, batch_size=16, lr=5e-3, seed=2,
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



class TestFinetune:
    def test_requires_jnd_stage(self, corpus, pretrained):
        model, _ = pretrained
        records = oracle_triplets(corpus, 8, seed=0)
        with pytest.raises(ContractError):
            finetune_triplet(model, corpus, records, TrainConfig(stage="finetune", epochs=1))

    def test_margin_default_and_stage_tag(self, corpus, pretrained):
        model, _ = pretrained
        jnd_model, _ = train_jnd(model, corpus, oracle_jnd(corpus, 16, seed=2),
                                 TrainConfig(stage="jnd", epochs=1, batch_size=8, seed=1))
        config = TrainConfig(stage="finetune", epochs=2, batch_size=8, lr=1e-3, seed=4)
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
                                 TrainConfig(stage="jnd", epochs=10, batch_size=16, lr=3e-3,
                                             seed=1))
        records = oracle_triplets(corpus, 32, seed=7, min_magnitude_gap=0.3)
        from cdpam.evaluate import clip_embedder, run_two_afc
        before, _ = run_two_afc(jnd_model, clip_embedder(jnd_model, corpus), records)
        config = TrainConfig(stage="finetune", epochs=20, batch_size=16, lr=5e-3, seed=5,
                             augment=False)
        tuned, _ = finetune_triplet(jnd_model, corpus, records, config)
        after, _ = run_two_afc(tuned, clip_embedder(tuned, corpus), records)
        assert after >= before


class TestDivergence:
    """A NaN loss aborts its stage with a TrainingError naming the stage and the epoch."""

    @pytest.mark.parametrize("stage,loss", [("pretrain", "nt_xent"), ("jnd", "bce"),
                                            ("finetune", "margin_rank")])
    def test_nan_at_epoch_1(self, corpus, pretrained, monkeypatch, stage, loss):
        model, _ = pretrained
        if stage == "finetune":
            model, _ = train_jnd(model, corpus, oracle_jnd(corpus, 8, seed=2),
                                 TrainConfig(stage="jnd", epochs=1, batch_size=8, seed=1))
        finished = []  # one entry per completed epoch, from the progress callback
        real = getattr(losses, loss)

        def nan_after_epoch_0(*args, **kwargs):
            out = real(*args, **kwargs)
            return T.mul(out, T.Tensor(np.nan)) if finished else out

        monkeypatch.setattr(losses, loss, nan_after_epoch_0)
        config = TrainConfig(stage=stage, epochs=3, batch_size=4, lr=1e-3, seed=7,
                             batches_per_mode=1)
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
            train(model, corpus, [], TrainConfig(stage=stage, epochs=2),
                  progress=finished.append)
        assert finished == []

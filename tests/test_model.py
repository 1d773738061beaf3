"""Encoder shape contracts, distance properties, checkpoint format."""

import json
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdpam import losses, tensor as T
from cdpam.audio import Waveform
from cdpam.errors import CdpamError, ContractError, FormatError, ShapeError, VersionError
from cdpam.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, EMBED_BATCH, LEAKY_SLOPE,
                         EncoderConfig, ModelConfig, PerceptualModel, default_config, desk_config,
                         load_checkpoint, save_checkpoint, tiny_config)
from cdpam.tensor import Tensor

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def tiny_model():
    return PerceptualModel.initialize(tiny_config(), seed=3)


class TestConfigs:
    def test_default_matches_reference_architecture(self):
        cfg = default_config()
        assert cfg.encoder.n_layers == 16
        assert cfg.encoder.kernel == 15
        assert cfg.encoder.embedding_dim == 1024
        assert cfg.encoder.acoustic_dim == cfg.encoder.content_dim == 512
        assert cfg.projection_dim == 256
        assert cfg.lossnet_widths == (512, 256, 128, 64)

    def test_invariants_enforced(self):
        with pytest.raises(ContractError):
            EncoderConfig(stride2_layers=(1, 2, 3))  # not exactly 4
        with pytest.raises(ContractError):
            EncoderConfig(block_channels=(4, 8, 16, 30), acoustic_dim=16, content_dim=16)
        with pytest.raises(ContractError):
            EncoderConfig(acoustic_dim=100, content_dim=100)

    def test_round_trips_through_dict(self):
        for cfg in (default_config(), desk_config(), tiny_config()):
            assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field,value", [
        ("block_channels", ()), ("block_channels", (4, 8, 0, 16)), ("stride2_layers", [1, 2]),
        ("n_layers", 0), ("kernel", 3.0), ("kernel", True), ("acoustic_dim", -4),
    ])
    def test_encoder_fields_must_be_positive_integers(self, field, value):
        with pytest.raises(ContractError, match=f"model.encoder.{field} must be"):
            EncoderConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("projection_dim", 0), ("lossnet_widths", ()), ("sample_rate", "16000"),
        ("clip_samples", 1.6e4),
    ])
    def test_model_fields_must_be_positive_integers(self, field, value):
        with pytest.raises(ContractError, match=f"model.{field} must be"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("edit,named", [
        (lambda d: d.update(foo=1), "unknown config key 'model.foo'"),
        (lambda d: d.pop("classifier_hidden"), "missing config key 'model.classifier_hidden'"),
        (lambda d: d["encoder"].update(bar=2), "unknown config key 'model.encoder.bar'"),
        (lambda d: d["encoder"].pop("kernel"), "missing config key 'model.encoder.kernel'"),
        (lambda d: d.update(encoder=[16]), "config key 'model.encoder' must be an object"),
        (lambda d: d.update(lossnet_widths=8), "model.lossnet_widths must be a non-empty"),
    ])
    def test_from_dict_names_the_bad_key(self, edit, named):
        d = tiny_config().to_dict()
        edit(d)
        with pytest.raises(ContractError, match=named):
            ModelConfig.from_dict(d)


def encoder_op_calls(monkeypatch, train):
    """The calls of conv1d, batch_norm1d and leaky_relu, in order, of one tiny-model encode."""
    model = PerceptualModel.initialize(tiny_config(), seed=8)
    calls = []

    def counting(op):
        real = getattr(T, op)

        def wrapper(*args, **kwargs):
            calls.append(op)
            return real(*args, **kwargs)

        return wrapper

    for op in ("conv1d", "batch_norm1d", "leaky_relu"):
        monkeypatch.setattr(T, op, counting(op))
    model.encode(Tensor(np.random.default_rng(9).normal(size=(2, 1, model.config.clip_samples))),
                 train=train)
    return calls


class TestEncode:
    def test_embedding_split(self, tiny_model):
        cfg = tiny_model.config
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, cfg.clip_samples)) * 0.1)
        acoustic, content = tiny_model.encode(x)
        assert acoustic.shape == (2, cfg.encoder.acoustic_dim)
        assert content.shape == (2, cfg.encoder.content_dim)

    def test_identical_inputs_identical_embeddings(self, tiny_model):
        cfg = tiny_model.config
        clip = np.random.default_rng(1).normal(size=(1, 1, cfg.clip_samples)) * 0.1
        batch = Tensor(np.concatenate([clip, clip], axis=0))
        acoustic, _ = tiny_model.encode(batch, train=False)
        assert np.array_equal(acoustic.data[0], acoustic.data[1])

    def test_indivisible_length_rejected(self, tiny_model):
        with pytest.raises(ShapeError):
            tiny_model.encode(Tensor(np.zeros((1, 1, tiny_model.config.clip_samples + 1))))

    def test_projection_dim(self, tiny_model):
        cfg = tiny_model.config
        x = Tensor(np.random.default_rng(2).normal(size=(3, cfg.encoder.acoustic_dim)))
        for head in ("acoustic", "content"):
            assert tiny_model.project(x, head).shape == (3, cfg.projection_dim)

    def test_prepool_extent_is_length_over_16(self):
        # run the tiny encoder manually and inspect the pre-pool activation
        model = PerceptualModel.initialize(tiny_config(), seed=0)
        from cdpam import tensor as T
        enc = model.config.encoder
        h = Tensor(np.random.default_rng(3).normal(size=(1, 1, 320)) * 0.1)
        for layer in range(1, enc.n_layers + 1):
            stride = 2 if layer in enc.stride2_layers else 1
            h = T.conv1d(h, model.params[f"enc.conv{layer}.w"], stride=stride)
        assert h.shape[2] == 320 // 16

    def test_training_layer_is_conv1d_then_batch_norm1d(self, monkeypatch):
        # the leaky ReLU is batch_norm1d's epilogue, as it is conv1d's at inference
        calls = encoder_op_calls(monkeypatch, train=True)
        assert calls == ["conv1d", "batch_norm1d"] * tiny_config().encoder.n_layers

    def test_training_drops_every_batch_norm_output(self, monkeypatch):
        # backward rebuilds each layer's output from its conv output, item by item; layer
        # 16's goes once the pool has read it.  Of the conv outputs only layer 1's goes: it
        # is rebuilt from x
        model = PerceptualModel.initialize(desk_config(), seed=0)
        model.set_trainable(("enc.",))
        outputs = {"conv1d": [], "batch_norm1d": []}

        def recording(op):
            def wrapped(*args, **kwargs):
                out = op(*args, **kwargs)
                outputs[op.__name__].append(weakref.ref(out.data))
                return out
            return wrapped

        monkeypatch.setattr(T, "conv1d", recording(T.conv1d))
        monkeypatch.setattr(T, "batch_norm1d", recording(T.batch_norm1d))
        x = Tensor(np.random.default_rng(5).normal(0.0, 0.1,
                                                        size=(2, 1, model.config.clip_samples)))
        acoustic, _ = model.encode(x, train=True)
        assert model.config.encoder.n_layers == 16
        assert [ref() is None for ref in outputs["batch_norm1d"]] == [True] * 16
        assert [ref() is None for ref in outputs["conv1d"]] == [True] + [False] * 15


def with_random_batch_norm(config, seed):
    """A fresh model whose BatchNorm parameters and running statistics are all non-trivial."""
    model = PerceptualModel.initialize(config, seed=seed)
    rng = np.random.default_rng(seed)
    for layer in range(1, config.encoder.n_layers + 1):
        c = config.encoder.channel_of(layer)
        model.state[f"enc.bn{layer}.running_mean"][...] = rng.normal(0.0, 0.5, c)
        model.state[f"enc.bn{layer}.running_var"][...] = rng.uniform(0.3, 3.0, c)
        model.params[f"enc.bn{layer}.gamma"].data = rng.normal(1.0, 0.3, c)
        model.params[f"enc.bn{layer}.beta"].data = rng.normal(0.0, 0.3, c)
    return model


def separate_ops_encode(model, x):
    """Reference inference encoder: per layer conv1d, then BatchNorm on the running
    statistics and the leaky ReLU in plain numpy, independent of the fold."""
    enc = model.config.encoder
    h = x
    for layer in range(1, enc.n_layers + 1):
        h = T.conv1d(Tensor(h), model.params[f"enc.conv{layer}.w"],
                     stride=2 if layer in enc.stride2_layers else 1).data
        gamma, beta = (model.params[f"enc.bn{layer}.{name}"].data[None, :, None]
                       for name in ("gamma", "beta"))
        mean, var = (model.state[f"enc.bn{layer}.running_{name}"][None, :, None]
                     for name in ("mean", "var"))
        h = gamma * (h - mean) / np.sqrt(var + 1e-5) + beta
        h = np.where(h > 0.0, h, LEAKY_SLOPE * h)
    return h.mean(axis=2)


class TestFusedInference:
    @pytest.mark.parametrize("make_config", [tiny_config, desk_config])
    def test_matches_separate_ops(self, make_config):
        model = with_random_batch_norm(make_config(), seed=4)
        x = np.random.default_rng(5).normal(size=(3, 1, model.config.clip_samples)) * 0.1
        acoustic, content = model.encode(Tensor(x), train=False)
        fused = np.concatenate([acoustic.data, content.data], axis=1)
        ref = separate_ops_encode(model, x)
        assert np.max(np.abs(fused - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gradients_match_finite_differences(self):
        model = with_random_batch_norm(tiny_config(), seed=6)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 1, 32))
        enc = model.config.encoder
        probes = (Tensor(rng.normal(size=(2, enc.acoustic_dim))),
                  Tensor(rng.normal(size=(2, enc.content_dim))))

        def loss(xt):
            halves = model.encode(xt, train=False)
            return T.add(*(T.sum_(T.mul(half, probe)) for half, probe in zip(halves, probes)))

        xt = Tensor(x.copy(), requires_grad=True)
        loss(xt).backward()
        flat, grad = x.reshape(-1), xt.grad.reshape(-1)
        h = 1e-6
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            f_plus = loss(Tensor(x)).item()
            flat[i] = keep - h
            f_minus = loss(Tensor(x)).item()
            flat[i] = keep
            numeric = (f_plus - f_minus) / (2.0 * h)
            assert abs(numeric - grad[i]) <= 1e-4 * max(abs(numeric), abs(grad[i]), 1e-6), \
                f"x[{i}]: numeric {numeric} vs autodiff {grad[i]}"

    def test_one_conv1d_call_per_layer(self, monkeypatch):
        calls = encoder_op_calls(monkeypatch, train=False)
        assert calls == ["conv1d"] * tiny_config().encoder.n_layers

    def test_creates_only_layer_pool_and_split_tensors(self, monkeypatch):
        # the BatchNorm fold is numpy: no tensor op builds a graph for the encoder weights
        model = PerceptualModel.initialize(tiny_config(), seed=8)
        model.set_trainable(("enc.",))
        ops = []
        real = T._make

        def recording(data, parents, vjps, op, pre=None):
            ops.append(op)
            return real(data, parents, vjps, op, pre=pre)

        monkeypatch.setattr(T, "_make", recording)
        x = Tensor(np.random.default_rng(9).normal(size=(2, 1, model.config.clip_samples)),
                   requires_grad=True)
        model.encode(x, train=False)
        n_layers = model.config.encoder.n_layers
        assert ops == ["conv1d"] * n_layers + ["global_avg_pool", "narrow", "narrow"]

    def test_input_gradient_builds_taps_in_forward_only(self, monkeypatch):
        # the folded weights are constants, so backward needs dx, which takes no im2col
        model = PerceptualModel.initialize(tiny_config(), seed=8)
        calls = []
        real = T._columns

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(T, "_columns", counting)
        x = Tensor(np.random.default_rng(9).normal(size=(2, 1, model.config.clip_samples)),
                   requires_grad=True)
        T.sum_(model.encode(x, train=False)[0]).backward()
        assert len(calls) == model.config.encoder.n_layers
        assert x.grad is not None

    def test_embed_no_waves(self, tiny_model):
        assert tiny_model.embed_waves([]).shape == (0, tiny_model.config.encoder.acoustic_dim)


def random_clips(config, seed, n=2):
    rng = np.random.default_rng(seed)
    return [Waveform(rng.normal(size=config.clip_samples) * 0.1, config.sample_rate)
            for _ in range(n)]


def pretraining_step(model, seed, between=None):
    """One contrastive step: a training encode, backward, then Adam on what is trainable.
    `between`, if given, runs after backward and before the Adam step."""
    x = model.waves_to_tensor(random_clips(model.config, seed, n=4))
    acoustic, _ = model.encode(x, train=True)
    z = model.project(acoustic, "acoustic")
    losses.nt_xent(z).backward()
    if between is not None:
        between()
    T.adam_step(model.params, {}, lr=1e-2)


def rebuilt(model):
    """A fresh model, with no fold computed yet, from model's current params and state."""
    return PerceptualModel(model.config, {n: t.data.copy() for n, t in model.params.items()},
                           model.state, stage=model.stage, seed=model.seed)


class TestFoldCache:
    """encode(train=False) keeps the BatchNorm fold while the encoder is frozen; a fold
    kept across a change to the encoder would give a stale distance."""

    @pytest.mark.parametrize("trainable", [("enc.", "proj."), ("proj.",)])
    def test_pretraining_step_refolds(self, trainable):
        # ("proj.",): a frozen encoder whose running statistics the training encode moves
        model = with_random_batch_norm(tiny_config(), seed=21)
        model.set_trainable(trainable)
        ref, per = random_clips(model.config, 22)
        before = model.distance(ref, per)
        pretraining_step(model, 23)
        after = model.distance(ref, per)
        assert after != before
        assert after == rebuilt(model).distance(ref, per)

    def test_distance_between_backward_and_adam_step(self):
        model = with_random_batch_norm(tiny_config(), seed=24)
        model.set_trainable(("enc.", "proj."))
        ref, per = random_clips(model.config, 25)
        model.distance(ref, per)
        pretraining_step(model, 26, between=lambda: model.distance(ref, per))
        assert model.distance(ref, per) == rebuilt(model).distance(ref, per)

    def test_clone_keeps_its_own_distance(self):
        model = with_random_batch_norm(tiny_config(), seed=27)
        ref, per = random_clips(model.config, 28)
        before = model.distance(ref, per)
        twin = model.clone()
        assert twin.distance(ref, per) == before
        model.set_trainable(("enc.", "proj."))
        pretraining_step(model, 29)
        model.set_trainable(())
        assert twin.distance(ref, per) == before
        assert model.distance(ref, per) == rebuilt(model).distance(ref, per) != before

    def test_set_trainable_drops_the_fold_after_an_outside_write(self):
        model = with_random_batch_norm(tiny_config(), seed=30)
        ref, per = random_clips(model.config, 31)
        before = model.distance(ref, per)
        model.state["enc.bn2.running_var"] *= 4.0
        model.set_trainable(())
        after = model.distance(ref, per)
        assert after != before
        assert after == rebuilt(model).distance(ref, per)


class TestKeyedEmbedder:
    """keyed_embedder: rows by key, each key rendered once, one EMBED_BATCH slice per call."""

    @pytest.fixture
    def recorded(self, tiny_model, monkeypatch):
        """(clips, renders, sizes): keys index clips; renders and embed_waves sizes are logged."""
        clips = random_clips(tiny_model.config, seed=21, n=EMBED_BATCH + 16)
        renders, sizes, real = [], [], tiny_model.embed_waves
        monkeypatch.setattr(tiny_model, "embed_waves",
                            lambda waves: sizes.append(len(waves)) or real(waves))
        return clips, renders, sizes

    def embedder(self, model, clips, renders):
        return model.keyed_embedder(lambda key: renders.append(key) or clips[key])

    def test_rows_in_key_order_with_repeats_deduplicated(self, tiny_model, recorded):
        clips, renders, sizes = recorded
        rows = self.embedder(tiny_model, clips, renders)([2, 0, 2, 1])
        assert renders == [2, 0, 1] and sizes == [3]
        assert rows.tobytes() == tiny_model.embed_waves([clips[k] for k in (2, 0, 2, 1)]).tobytes()

    def test_each_unseen_key_rendered_once(self, tiny_model, recorded):
        clips, renders, _ = recorded
        embed = self.embedder(tiny_model, clips, renders)
        first = embed([3, 1])
        assert renders == [3, 1]
        embed([1, 4, 3, 5, 4])
        assert renders == [3, 1, 4, 5]
        assert np.array_equal(embed([3, 1]), first)
        assert renders == [3, 1, 4, 5]

    def test_at_most_one_embed_batch_per_call_and_the_bytes_of_one_call(self, tiny_model,
                                                                         recorded, embed_slices):
        clips, renders, sizes = recorded
        embed = self.embedder(tiny_model, clips, renders)
        keys = list(range(len(clips)))[::-1]
        embed(keys[:10])
        rows = embed(keys)
        assert sizes == embed_slices(10) + embed_slices(len(clips) - 10)
        assert sorted(renders) == sorted(keys)
        # other slices than one embed_waves call over every rendered clip, the same bytes
        assert rows.tobytes() == tiny_model.embed_waves([clips[k] for k in keys]).tobytes()

    def test_no_keys(self, tiny_model, recorded):
        clips, renders, sizes = recorded
        rows = self.embedder(tiny_model, clips, renders)([])
        assert rows.shape == (0, tiny_model.config.encoder.acoustic_dim)
        assert renders == [] and sizes == []


def test_desk_embeddings_keep_their_bytes_at_any_slice_size(monkeypatch):
    # each encoder layer runs one GEMM per clip, so EMBED_BATCH is free to change
    model = with_random_batch_norm(desk_config(), seed=40)
    clips = random_clips(model.config, seed=41, n=41)
    keys = [5, *range(len(clips)), 5, 0]
    rows = {}
    for size in (1, 7, 16, 64):
        monkeypatch.setattr("cdpam.model.EMBED_BATCH", size)
        rows[size] = (model.embed_waves(clips), model.keyed_embedder(clips.__getitem__)(keys))
    one_clip = rows[1][0]
    for size, (whole, keyed) in rows.items():
        assert whole.tobytes() == one_clip.tobytes(), size
        assert keyed.tobytes() == one_clip[keys].tobytes(), size


# Run in a fresh interpreter, whose BLAS pool the environment sizes: the largest relative
# gap between distance() on each desk-config pair and the eval runners' scoring, which
# embeds all the pairs at once (more than EMBED_BATCH of them) and runs the loss network
_AGREEMENT_CODE = """
import numpy as np
from cdpam.audio import Waveform
from cdpam.datagen import synth_corpus
from cdpam.model import PerceptualModel, desk_config
from cdpam.tensor import Tensor

model = PerceptualModel.initialize(desk_config(), seed=3)
cfg = model.config
refs = [u.clean for u in synth_corpus(70, 4, seed=8, sample_rate=cfg.sample_rate,
                                      clip_samples=cfg.clip_samples)]
rng = np.random.default_rng(9)
pers = [Waveform(w.samples + rng.normal(scale=rng.uniform(1e-3, 0.1), size=len(w)),
                 w.sample_rate) for w in refs]
single = np.array([model.distance(a, b) for a, b in zip(refs, pers)])
batched = model.distance_from_embeddings(Tensor(model.embed_waves(refs)),
                                         Tensor(model.embed_waves(pers))).data
print(float(np.max(np.abs(batched - single) / single)))
"""


class TestDistance:
    def test_zero_for_identical(self, tiny_model):
        from cdpam.datagen import synth_corpus
        cfg = tiny_model.config
        utt = synth_corpus(1, 1, seed=5, sample_rate=cfg.sample_rate,
                           clip_samples=cfg.clip_samples)[0]
        assert tiny_model.distance(utt.clean, utt.clean) == 0.0

    def test_symmetric_and_nonnegative(self, tiny_model):
        from cdpam.datagen import synth_corpus
        cfg = tiny_model.config
        corpus = synth_corpus(4, 2, seed=6, sample_rate=cfg.sample_rate,
                              clip_samples=cfg.clip_samples)
        for a in corpus[:2]:
            for b in corpus[2:]:
                d_ab = tiny_model.distance(a.clean, b.clean)
                d_ba = tiny_model.distance(b.clean, a.clean)
                assert d_ab >= 0.0
                assert abs(d_ab - d_ba) < 1e-12

    def test_judge_in_unit_interval(self, tiny_model):
        for d in (0.0, 0.1, 1.0, 10.0, 1e6):
            assert 0.0 < tiny_model.judge(d) < 1.0

    def test_judge_rejects_negative(self, tiny_model):
        with pytest.raises(ContractError):
            tiny_model.judge(-0.5)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_agrees_with_eval_scoring(self, threads):
        src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
        pools = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"),
                              threads)
        done = subprocess.run([sys.executable, "-c", _AGREEMENT_CODE], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src, **pools))
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) <= 1e-12


def _split(blob: bytes) -> tuple:
    """A checkpoint's decoded JSON header and its tensor payload bytes."""
    (header_len,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12:12 + header_len]), blob[12 + header_len:]


def _join(blob: bytes, header, payload: bytes) -> bytes:
    encoded = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(encoded)) + encoded + payload


def _node_paths(node, prefix=()) -> list:
    """The key path of every node of a JSON value, the root included."""
    paths = [prefix]
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        paths += _node_paths(child, prefix + (key,))
    return paths


def _replace_at(header, path: tuple, value):
    if not path:
        return value
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return header


def _overflowing_shape(header) -> None:
    """Loss-network widths, and a first directory entry of matching shape, whose element
    count overflows int64."""
    header["config"]["lossnet_widths"] = [2 ** 32, 2 ** 32, 16, 8]
    entry = next(e for e in header["tensors"] if e["name"] == "lossnet.fc2.w")
    entry["shape"] = [2 ** 32, 2 ** 32]
    header["tensors"].remove(entry)
    header["tensors"].insert(0, entry)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=5)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A tiny model's checkpoint bytes plus a scratch path for mutated copies."""
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(PerceptualModel.initialize(tiny_config(), seed=3), path)
    return path.read_bytes(), path


class TestCheckpointFuzz:
    """Every way a checkpoint file can be wrong surfaces as a package error."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_mutated_header_values(self, saved_checkpoint, data):
        blob, path = saved_checkpoint
        header, payload = _split(blob)
        everywhere = _node_paths(header)
        outside_directory = [p for p in everywhere if p[:1] != ("tensors",)]
        where = data.draw(st.sampled_from(outside_directory) | st.sampled_from(everywhere))
        header = _replace_at(header, where, data.draw(_JSON_VALUES))
        path.write_bytes(_join(blob, header, payload))
        try:
            load_checkpoint(path)
        except CdpamError:
            pass

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_truncated_or_padded_payload(self, saved_checkpoint, data):
        blob, path = saved_checkpoint
        if data.draw(st.booleans()):
            mutated = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            mutated = blob + data.draw(st.binary(min_size=1, max_size=32))
        path.write_bytes(mutated)
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model, path)
        loaded = load_checkpoint(path)
        assert loaded.stage == tiny_model.stage
        assert loaded.seed == tiny_model.seed
        assert loaded.config == tiny_model.config
        for name, t in tiny_model.params.items():
            assert np.array_equal(loaded.params[name].data, t.data)
        for name, arr in tiny_model.state.items():
            assert np.array_equal(loaded.state[name], arr)

    def test_truncated_file_is_format_error(self, tiny_model, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(tiny_model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_wrong_magic_is_format_error(self, tmp_path):
        path = tmp_path / "w.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_wrong_version_is_version_error(self, tiny_model, tmp_path):
        path = tmp_path / "v.ckpt"
        save_checkpoint(tiny_model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_trailing_garbage_is_format_error(self, tiny_model, tmp_path):
        path = tmp_path / "g.ckpt"
        save_checkpoint(tiny_model, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,name,problem", [
        (lambda t: t.pop("enc.bn4.running_var"), "enc.bn4.running_var", "is nothing, expected"),
        (lambda t: t.update({"enc.bogus": [{"name": "enc.bogus", "kind": "param", "shape": [2]},
                                            np.zeros(2)]}), "enc.bogus", "expected nothing"),
        (lambda t: t["enc.bn1.running_mean"][0].update(kind="buffer"),
         "enc.bn1.running_mean", "kind"),
        (lambda t: t.update({"lossnet.fc1.b": [{"name": "lossnet.fc1.b", "kind": "param",
                                                "shape": [3]}, np.zeros(3)]}),
         "lossnet.fc1.b", "shape"),
        (lambda t: t["lossnet.fc2.w"][1].__setitem__((0, 0), np.nan), "lossnet.fc2.w",
         "non-finite"),
    ], ids=["missing", "extra", "wrong-kind", "wrong-shape", "non-finite"])
    def test_bad_tensor_is_named(self, tiny_model, tmp_path, rewrite_checkpoint, edit, name,
                                 problem):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(tiny_model, path)
        rewrite_checkpoint(path, edit)
        with pytest.raises(FormatError, match=problem) as err:
            load_checkpoint(path)
        assert repr(name) in str(err.value)

    def test_rewrite_without_edit_still_loads(self, tiny_model, tmp_path, rewrite_checkpoint):
        path = tmp_path / "same.ckpt"
        save_checkpoint(tiny_model, path)
        blob = path.read_bytes()
        rewrite_checkpoint(path, lambda t: None)
        assert path.read_bytes() == blob

    @pytest.mark.parametrize("edit,problem", [
        (lambda h: h["config"]["encoder"].update(block_channels=[]), "block_channels"),
        (lambda h: h["config"].update(sample_rate=0), "sample_rate"),
        (lambda h: h["config"].pop("clip_samples"), "clip_samples"),
        (lambda h: h.update(stage="warmup"), "unknown stage"),
        (lambda h: h.update(seed=float("inf")), "corrupt checkpoint header"),
        (lambda h: h["config"]["encoder"].update(kernel=10 ** 400 + 1),
         "corrupt checkpoint header"),
        (lambda h: h["config"]["encoder"].update(n_layers=4 * 10 ** 12),
         "tensors listed for"),
        (lambda h: h["tensors"][0].update(shape=[float("inf")]), "tensor directory entry 0 is"),
        (_overflowing_shape, "tensor directory entry 0 is"),
        (lambda h: h.update(seed="7"), r"corrupt checkpoint header \(seed must be an integer "
                                       r">= 0, got '7'\)"),
        (lambda h: h.update(seed=-1), r"corrupt checkpoint header \(seed must be an integer "
                                      r">= 0, got -1\)"),
        (lambda h: h["tensors"][0].update(shape=[str(n) for n in h["tensors"][0]["shape"]]),
         "tensor directory entry 0 is"),
    ], ids=["empty-blocks", "zero-rate", "missing-key", "stage", "inf-seed", "huge-kernel",
            "huge-depth", "inf-shape", "overflowing-shape", "string-seed", "negative-seed",
            "string-shape"])
    def test_bad_header_is_format_error_naming_the_file(self, tiny_model, tmp_path, edit,
                                                       problem):
        path = tmp_path / "header.ckpt"
        save_checkpoint(tiny_model, path)
        blob = path.read_bytes()
        header, payload = _split(blob)
        edit(header)
        path.write_bytes(_join(blob, header, payload))
        with pytest.raises(FormatError, match=problem) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_deeply_nested_header_is_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / "deep.ckpt"
        header = b"[" * 100_000 + b"]" * 100_000  # past the parser's recursion limit
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header))
                         + header)
        with pytest.raises(FormatError, match="corrupt checkpoint header") as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_reordered_directory_is_format_error_naming_the_file(self, tiny_model, tmp_path,
                                                                 rewrite_checkpoint):
        # every tensor, each with its own payload, but not in the order save writes them
        def reverse(tensors):
            items = list(tensors.items())[::-1]
            tensors.clear()
            tensors.update(items)

        path = tmp_path / "reordered.ckpt"
        save_checkpoint(tiny_model, path)
        rewrite_checkpoint(path, reverse)
        with pytest.raises(FormatError, match="tensor directory entry 0 is") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
        assert "'enc.bn4.running_var'" in str(err.value)

    @pytest.mark.parametrize("edit,name", [
        (lambda params, state: params.pop("clf.fc2.b"), "clf.fc2.b"),
        (lambda params, state: state.pop("enc.bn2.running_mean"), "enc.bn2.running_mean"),
        (lambda params, state: params.update({"lossnet.fc1.w": np.zeros((3, 3))}),
         "lossnet.fc1.w"),
    ], ids=["missing-param", "missing-state", "wrong-shape"])
    def test_save_of_a_model_without_a_tensor_names_it(self, tiny_model, tmp_path, edit, name):
        params = {n: t.data for n, t in tiny_model.params.items()}
        state = dict(tiny_model.state)
        edit(params, state)
        path = tmp_path / "lacking.ckpt"
        with pytest.raises(ContractError, match=repr(name)):
            save_checkpoint(PerceptualModel(tiny_config(), params, state), path)
        assert not path.exists()

    def test_checkpoint_of_the_earlier_writer_loads_bit_exactly(self, tmp_path):
        # data/tiny_seed3.ckpt is PerceptualModel.initialize(tiny_config(), seed=3) as saved
        # by the writer that listed the model's own tensors; saving what loads from it
        # writes the same bytes, so every tensor loaded bit for bit
        golden = DATA / "tiny_seed3.ckpt"
        model = load_checkpoint(golden)
        assert (model.config, model.stage, model.seed) == (tiny_config(), "init", 3)
        save_checkpoint(model, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == golden.read_bytes()

    def test_stage_vocabulary(self):
        with pytest.raises(ContractError):
            PerceptualModel(tiny_config(), {}, {}, stage="warmup")

"""The metric networks and their checkpoint format.

The audio encoder is a 16-layer 1-D CNN (15-tap kernels, stride 2 at the end
of each 4-layer block, batch norm + leaky ReLU per layer) followed by global
average pooling.  At inference each layer's batch norm is folded into its
conv, once per frozen model state, so a layer is a single conv1d pass.  The
embedding splits into an *acoustic* half, which feeds the loss network, and a
*content* half; each half gets its own projection head during contrastive
pretraining and the heads are discarded afterwards.

The loss network is a 4-layer MLP over the acoustic embedding.  The
perceptual distance between two clips is the sum over its four hidden layers
of the mean absolute difference of activations, making it a symmetric
pseudometric that is exactly zero for identical inputs.  A small 1-16-1
classifier squashes that distance into a probability that a listener would
call the pair different.

Checkpoints are a single binary file: magic ``CDPM``, a u32 format version,
a u32 byte length followed by a JSON header (config echo, training stage,
seed, tensor directory), then the raw little-endian float64 tensor payloads
in directory order.  Round trips are bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .audio import Waveform, fix_length, resample
from .errors import ContractError, FormatError, ShapeError, VersionError
from .tensor import Tensor

CHECKPOINT_MAGIC = b"CDPM"
CHECKPOINT_VERSION = 1
STAGES = ("init", "pretrained", "jnd", "finetuned")
LEAKY_SLOPE = 0.2
EMBED_BATCH = 64  # clips per inference encode in embed_waves


def _check_positive_ints(config, where: str) -> None:
    """Each int field of a config must hold a positive integer, and each tuple field a
    non-empty tuple of them; errors name the field under the dotted key path `where`."""
    def positive(v) -> bool:
        return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v > 0

    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(field.default, tuple):
            ok = isinstance(value, tuple) and len(value) > 0 and all(map(positive, value))
            what = "a non-empty tuple of positive integers"
        elif isinstance(field.default, int):
            ok, what = positive(value), "a positive integer"
        else:
            continue
        if not ok:
            raise ContractError(f"{where}.{field.name} must be {what}, got {value!r}")


def _check_keys(d, cls, where: str) -> None:
    """`d` must be an object holding exactly the fields of dataclass `cls`."""
    if not isinstance(d, dict):
        raise ContractError(f"config key {where!r} must be an object, got {d!r}")
    names = [field.name for field in dataclasses.fields(cls)]
    unknown = [key for key in d if key not in names]
    if unknown:
        raise ContractError(f"unknown config key {where + '.' + str(unknown[0])!r}")
    missing = [name for name in names if name not in d]
    if missing:
        raise ContractError(f"missing config key {where + '.' + missing[0]!r}")


@dataclass(frozen=True)
class EncoderConfig:
    """Shape of the convolutional audio encoder.

    Layers are grouped into equal blocks; each block uses one channel width
    and the stride-2 layers (exactly four of them, so the temporal extent
    shrinks 16x) default to the last layer of each block.
    """

    n_layers: int = 16
    kernel: int = 15
    stride2_layers: tuple = (4, 8, 12, 16)
    block_channels: tuple = (128, 256, 512, 1024)
    acoustic_dim: int = 512
    content_dim: int = 512

    def __post_init__(self):
        _check_positive_ints(self, "model.encoder")
        if self.kernel % 2 == 0:
            raise ContractError("encoder kernel must be odd")
        if self.n_layers % len(self.block_channels) != 0:
            raise ContractError("n_layers must divide evenly into channel blocks")
        if len(set(self.stride2_layers)) != 4:
            raise ContractError("exactly 4 distinct stride-2 layers are required")
        if not all(1 <= i <= self.n_layers for i in self.stride2_layers):
            raise ContractError("stride2_layers out of range")
        if self.block_channels[-1] != self.embedding_dim:
            raise ContractError("final channel count must equal the embedding dimension")
        if self.acoustic_dim + self.content_dim != self.embedding_dim:
            raise ContractError("acoustic_dim + content_dim must equal embedding_dim")

    @property
    def embedding_dim(self) -> int:
        return self.acoustic_dim + self.content_dim

    @property
    def downsample_factor(self) -> int:
        return 16

    def channel_of(self, layer: int) -> int:
        per_block = self.n_layers // len(self.block_channels)
        return self.block_channels[(layer - 1) // per_block]


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig = EncoderConfig()
    projection_dim: int = 256
    lossnet_widths: tuple = (512, 256, 128, 64)
    classifier_hidden: int = 16
    sample_rate: int = 16000
    clip_samples: int = 40000

    def __post_init__(self):
        _check_positive_ints(self, "model")
        if len(self.lossnet_widths) != 4:
            raise ContractError("the loss network has exactly 4 hidden transforms")
        if self.clip_samples % self.encoder.downsample_factor != 0:
            raise ContractError("clip_samples must be divisible by the encoder downsample factor")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["encoder"]["stride2_layers"] = list(self.encoder.stride2_layers)
        d["encoder"]["block_channels"] = list(self.encoder.block_channels)
        d["lossnet_widths"] = list(self.lossnet_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of to_dict; every field must be present, and no other key."""
        _check_keys(d, cls, "model")
        _check_keys(d["encoder"], EncoderConfig, "model.encoder")

        def tuples(fields: dict) -> dict:
            return {k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()}

        rest = tuples({k: v for k, v in d.items() if k != "encoder"})
        return cls(encoder=EncoderConfig(**tuples(d["encoder"])), **rest)


def default_config() -> ModelConfig:
    """Full-size configuration: 1024-dim embedding over 16 kHz, 2.5 s clips."""
    return ModelConfig()


def desk_config() -> ModelConfig:
    """Small configuration sized for minutes-scale CPU training runs.

    Same 16-layer / 4-stride topology, but thin channels, 8 kHz audio and
    1 s clips; downsampling happens in the first four layers so most of the
    depth operates on short sequences.
    """
    enc = EncoderConfig(
        n_layers=16,
        kernel=15,
        stride2_layers=(1, 2, 3, 4),
        block_channels=(4, 8, 16, 32),
        acoustic_dim=16,
        content_dim=16,
    )
    return ModelConfig(encoder=enc, projection_dim=8, lossnet_widths=(32, 32, 16, 8),
                       sample_rate=8000, clip_samples=8000)


def tiny_config() -> ModelConfig:
    """Minimal configuration for fast unit tests."""
    enc = EncoderConfig(
        n_layers=4,
        kernel=3,
        stride2_layers=(1, 2, 3, 4),
        block_channels=(2, 4, 4, 8),
        acoustic_dim=4,
        content_dim=4,
    )
    return ModelConfig(encoder=enc, projection_dim=4, lossnet_widths=(8, 8, 4, 4),
                       sample_rate=1600, clip_samples=1600)


class _TensorSpec(NamedTuple):
    kind: str    # "param" (trained) or "state" (BatchNorm running statistics)
    shape: tuple
    std: float   # He-style normal draw with this std; 0.0 means a constant fill
    fill: float = 0.0


def _tensor_layout(config: ModelConfig) -> dict[str, _TensorSpec]:
    """Every tensor a model of this config holds, in the order weights are drawn."""
    enc = config.encoder
    layout: dict[str, _TensorSpec] = {}
    c_in = 1
    for layer in range(1, enc.n_layers + 1):
        c_out = enc.channel_of(layer)
        layout[f"enc.conv{layer}.w"] = _TensorSpec("param", (c_out, c_in, enc.kernel),
                                                   np.sqrt(2.0 / (c_in * enc.kernel)))
        layout[f"enc.bn{layer}.gamma"] = _TensorSpec("param", (c_out,), 0.0, 1.0)
        layout[f"enc.bn{layer}.beta"] = _TensorSpec("param", (c_out,), 0.0)
        layout[f"enc.bn{layer}.running_mean"] = _TensorSpec("state", (c_out,), 0.0)
        layout[f"enc.bn{layer}.running_var"] = _TensorSpec("state", (c_out,), 0.0, 1.0)
        c_in = c_out

    def dense(prefix: str, d_out: int, d_in: int, std: float) -> None:
        layout[f"{prefix}.w"] = _TensorSpec("param", (d_out, d_in), std)
        layout[f"{prefix}.b"] = _TensorSpec("param", (d_out,), 0.0)

    for head, dim in (("acoustic", enc.acoustic_dim), ("content", enc.content_dim)):
        dense(f"proj.{head}.fc1", dim, dim, np.sqrt(2.0 / dim))
        dense(f"proj.{head}.fc2", config.projection_dim, dim, np.sqrt(2.0 / dim))

    widths = (enc.acoustic_dim,) + tuple(config.lossnet_widths)
    for i in range(4):
        dense(f"lossnet.fc{i + 1}", widths[i + 1], widths[i], np.sqrt(2.0 / widths[i]))

    h = config.classifier_hidden
    dense("clf.fc1", h, 1, 1.0)
    dense("clf.fc2", 1, h, np.sqrt(2.0 / h))
    return layout


def _init_params(config: ModelConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    params: dict[str, np.ndarray] = {}
    state: dict[str, np.ndarray] = {}
    for name, spec in _tensor_layout(config).items():
        arr = (rng.normal(0.0, spec.std, size=spec.shape) if spec.std
               else np.full(spec.shape, spec.fill))
        (params if spec.kind == "param" else state)[name] = arr
    return params, state


class PerceptualModel:
    """Parameter container plus the forward passes of all four networks."""

    def __init__(self, config: ModelConfig, params: dict, state: dict, stage: str = "init",
                 seed: int = 0):
        if stage not in STAGES:
            raise ContractError(f"unknown stage {stage!r}")
        self.config = config
        self.params = {name: arr if isinstance(arr, Tensor) else Tensor(arr)
                       for name, arr in params.items()}
        self.state = {name: np.asarray(arr, dtype=np.float64).copy() for name, arr in state.items()}
        self.stage = stage
        self.seed = int(seed)
        self._folds = None  # each encoder layer's folded (w, b) while the encoder is frozen

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0) -> "PerceptualModel":
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xC0,)))
        params, state = _init_params(config, rng)
        return cls(config, params, state, stage="init", seed=seed)

    # -- parameter bookkeeping ------------------------------------------------

    def set_trainable(self, prefixes: tuple) -> None:
        """Mark parameters trainable iff their name starts with one of `prefixes`."""
        for name, t in self.params.items():
            t.requires_grad = name.startswith(prefixes)
            t.grad = None
        self._folds = None

    def clone(self) -> "PerceptualModel":
        return PerceptualModel(self.config,
                               {n: t.data.copy() for n, t in self.params.items()},
                               self.state, stage=self.stage, seed=self.seed)

    # -- forward passes ---------------------------------------------------------

    def encode(self, x: Tensor, train: bool = False) -> tuple[Tensor, Tensor]:
        """Run the CNN; returns the (acoustic, content) embedding halves.

        Training runs two ops per layer: conv1d, then batch_norm1d on batch
        statistics with the leaky ReLU as its epilogue.  Once the next conv
        has read a layer's output it is released, and backward rebuilds it
        from the conv output, so each layer's graph keeps one full-size
        array; the last layer's output feeds the pool and stays.  Inference
        runs each layer as one ``T.conv1d`` with the leaky ReLU as its
        epilogue, on the layer's BatchNorm folded into its conv
        (``T.fold_batch_norm``); the folded weights are constants, so
        gradients reach ``x`` only.

        The fold is computed once per frozen model state and kept on the
        model: one more copy of the conv weights, 0.57 MB at ``desk_config``
        and 584 MB at ``default_config``.  ``encode(train=True)``, the only
        pass that moves the running statistics, and ``set_trainable`` drop
        it; while an encoder parameter requires a gradient, so that
        ``adam_step`` may move it, every call folds afresh.  A write to an
        encoder parameter's ``.data`` or to ``state`` in place, from outside
        the package, after the first inference call is not seen: call
        ``set_trainable`` after it to drop the fold.
        """
        if x.data.ndim != 3 or x.shape[1] != 1:
            raise ShapeError("encoder input must be [batch, 1, len]")
        enc = self.config.encoder
        if x.shape[2] % enc.downsample_factor != 0:
            raise ShapeError(
                f"input length {x.shape[2]} not divisible by {enc.downsample_factor}")
        if train:
            self._folds = None  # this pass moves the running statistics
        else:
            folds = self._folded_layers()
        h = x
        for layer in range(1, enc.n_layers + 1):
            stride = 2 if layer in enc.stride2_layers else 1
            if train:
                w, *bn = self._layer_tensors(layer)
                h, consumed = T.conv1d(h, w, stride=stride), h
                T.release(consumed)  # the previous layer's output; backward rebuilds it
                h = T.batch_norm1d(h, *bn, train=True, slope=LEAKY_SLOPE)
            else:
                h = T.conv1d(h, *folds[layer - 1], stride=stride, slope=LEAKY_SLOPE)
        pooled = T.global_avg_pool(h)
        acoustic = T.narrow(pooled, 1, 0, enc.acoustic_dim)
        content = T.narrow(pooled, 1, enc.acoustic_dim, enc.content_dim)
        return acoustic, content

    def _layer_tensors(self, layer: int) -> tuple:
        """Encoder layer `layer`'s conv weight, gamma, beta, running mean and running variance."""
        return (self.params[f"enc.conv{layer}.w"], self.params[f"enc.bn{layer}.gamma"],
                self.params[f"enc.bn{layer}.beta"], self.state[f"enc.bn{layer}.running_mean"],
                self.state[f"enc.bn{layer}.running_var"])

    def _folded_layers(self) -> list:
        """Each encoder layer's (w, b) with its BatchNorm folded in; kept while no encoder
        parameter requires a gradient (see encode)."""
        frozen = not any(t.requires_grad for name, t in self.params.items()
                         if name.startswith("enc."))
        if frozen and self._folds is not None:
            return self._folds
        folds = [T.fold_batch_norm(*self._layer_tensors(layer))
                 for layer in range(1, self.config.encoder.n_layers + 1)]
        self._folds = folds if frozen else None
        return folds

    def project(self, half: Tensor, head: str) -> Tensor:
        """Projection head used only during contrastive pretraining."""
        if head not in ("acoustic", "content"):
            raise ContractError(f"unknown projection head {head!r}")
        h = T.leaky_relu(T.linear(half, self.params[f"proj.{head}.fc1.w"],
                                  self.params[f"proj.{head}.fc1.b"]), LEAKY_SLOPE)
        return T.linear(h, self.params[f"proj.{head}.fc2.w"], self.params[f"proj.{head}.fc2.b"])

    def lossnet_features(self, acoustic: Tensor) -> list:
        """The four post-activation hidden layers of the loss network."""
        feats = []
        h = acoustic
        for i in range(1, 5):
            h = T.leaky_relu(T.linear(h, self.params[f"lossnet.fc{i}.w"],
                                      self.params[f"lossnet.fc{i}.b"]), LEAKY_SLOPE)
            feats.append(h)
        return feats

    def distance_from_embeddings(self, emb_ref: Tensor, emb_per: Tensor) -> Tensor:
        """Per-row perceptual distance: layerwise mean |feature difference|, summed."""
        feats_ref = self.lossnet_features(emb_ref)
        feats_per = self.lossnet_features(emb_per)
        total = None
        for fr, fp in zip(feats_ref, feats_per):
            layer_term = T.mean_(T.absolute(T.sub(fr, fp)), axis=1)
            total = layer_term if total is None else T.add(total, layer_term)
        return total

    def judge_from_distance(self, d: Tensor) -> Tensor:
        """Probability in (0, 1) that a pair at distance d is heard as different.

        The sigmoid saturates to exactly 0/1 in double precision for extreme
        inputs, so the output is nudged back into the open interval.
        """
        if d.data.ndim != 2 or d.shape[1] != 1:
            raise ShapeError("judge expects distances shaped [batch, 1]")
        h = T.leaky_relu(T.linear(d, self.params["clf.fc1.w"], self.params["clf.fc1.b"]),
                         LEAKY_SLOPE)
        p = T.sigmoid(T.linear(h, self.params["clf.fc2.w"], self.params["clf.fc2.b"]))
        return T.clamp(p, 1e-12, 1.0 - 1e-12)

    # -- waveform-level API -------------------------------------------------------

    def conform(self, w: Waveform) -> Waveform:
        """Resample/pad/trim a waveform to the model's input contract."""
        if w.sample_rate != self.config.sample_rate:
            w = resample(w, self.config.sample_rate)
        return fix_length(w, self.config.clip_samples)

    def waves_to_tensor(self, waves) -> Tensor:
        batch = np.stack([self.conform(w).samples for w in waves])
        return Tensor(batch[:, None, :])

    def embed_waves(self, waves) -> np.ndarray:
        """Inference-mode acoustic embeddings for a list of waveforms, EMBED_BATCH at a time."""
        chunks = [np.empty((0, self.config.encoder.acoustic_dim))]
        for start in range(0, len(waves), EMBED_BATCH):
            x = self.waves_to_tensor(waves[start:start + EMBED_BATCH])
            acoustic, _ = self.encode(x, train=False)
            chunks.append(acoustic.data)
        return np.concatenate(chunks, axis=0)

    def distance(self, ref: Waveform, per: Waveform) -> float:
        """Perceptual distance between two clips (inference mode)."""
        x = self.waves_to_tensor([ref, per])
        acoustic, _ = self.encode(x, train=False)
        d = self.distance_from_embeddings(T.narrow(acoustic, 0, 0, 1),
                                          T.narrow(acoustic, 0, 1, 1))
        return float(d.data[0])

    def judge(self, d: float) -> float:
        if not np.isfinite(d) or d < 0.0:
            raise ContractError(f"judge expects a non-negative distance, got {d}")
        p = self.judge_from_distance(Tensor(np.array([[float(d)]])))
        return float(p.data[0, 0])


# -- checkpoint I/O ---------------------------------------------------------------

def save_checkpoint(model: PerceptualModel, path) -> None:
    """Write the model atomically in the CDPM container format."""
    names = sorted(model.params) + sorted(model.state)
    kinds = ["param"] * len(model.params) + ["state"] * len(model.state)
    arrays = [model.params[n].data if k == "param" else model.state[n]
              for n, k in zip(names, kinds)]
    directory = [{"name": n, "kind": k, "shape": list(a.shape)}
                 for n, k, a in zip(names, kinds, arrays)]
    header = json.dumps({
        "config": model.config.to_dict(),
        "stage": model.stage,
        "seed": model.seed,
        "tensors": directory,
    }, sort_keys=True).encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path) -> PerceptualModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a CDPM checkpoint")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
    (header_len,) = struct.unpack_from("<I", blob, 8)
    if 12 + header_len > len(blob):
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        directory = list(header["tensors"])
        stage = header["stage"]
        seed = int(header["seed"])
        if stage not in STAGES:
            raise FormatError(f"{path}: unknown stage {stage!r}")
        # every encoder layer holds 5 tensors, which bounds the layout built next
        if 5 * config.encoder.n_layers > len(directory):
            raise FormatError(f"{path}: {len(directory)} tensors listed for "
                              f"{config.encoder.n_layers} encoder layers")
        layout = _tensor_layout(config)
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        # ContractError is a ValueError: a config the model rejects is a corrupt header
        raise FormatError(f"{path}: corrupt checkpoint header ({err})") from err

    offset = 12 + header_len
    params: dict[str, np.ndarray] = {}
    state: dict[str, np.ndarray] = {}
    for entry in directory:
        try:
            name, kind, shape = str(entry["name"]), entry["kind"], tuple(int(n) for n in entry["shape"])
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise FormatError(f"{path}: corrupt tensor directory entry ({err})") from err
        spec = layout.get(name)
        if spec is None:
            raise FormatError(f"{path}: unexpected tensor {name!r}")
        if name in params or name in state:
            raise FormatError(f"{path}: duplicate tensor {name!r}")
        if kind != spec.kind:
            raise FormatError(f"{path}: tensor {name!r} has kind {kind!r}, expected {spec.kind!r}")
        if shape != spec.shape:
            raise FormatError(f"{path}: tensor {name!r} has shape {list(shape)}, "
                              f"expected {list(spec.shape)}")
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(blob):
            raise FormatError(f"{path}: truncated tensor payload for {name!r}")
        arr = np.frombuffer(blob[offset:offset + nbytes], dtype="<f8").astype(np.float64).reshape(shape)
        offset += nbytes
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
        (params if kind == "param" else state)[name] = arr
    if offset != len(blob):
        raise FormatError(f"{path}: trailing bytes after tensor payloads")
    missing = [name for name in layout if name not in params and name not in state]
    if missing:
        raise FormatError(f"{path}: missing tensor {missing[0]!r}"
                          + (f" and {len(missing) - 1} more" if len(missing) > 1 else ""))
    return PerceptualModel(config, params, state, stage=stage, seed=seed)

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
seed, and the tensor directory, which is the config's: its params, then its
state, each in sorted order), then the raw little-endian float64 tensor
payloads in directory order.  Round trips are bit-exact, and a file whose
directory is any other is rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .audio import Waveform, fix_length, replacing, resample
from .errors import ContractError, FormatError, ShapeError, VersionError, check_value
from .perturb import stream
from .tensor import Tensor

CHECKPOINT_MAGIC = b"CDPM"
CHECKPOINT_VERSION = 1
STAGES = ("init", "pretrained", "jnd", "finetuned")
LEAKY_SLOPE = 0.2
# Clips per inference encode in embed_waves and keyed_embedder.  No embedding depends on it:
# each encoder layer runs one GEMM per clip.  What it sets is the size of a slice's arrays
# (up to 128 kB per clip and layer at desk_config, 41 MB at default_config), and so whether
# glibc hands them back to the OS between slices and faults them in again: its trim
# threshold is twice the largest mapped block freed so far.  A fresh process, such as one
# CLI stage, has freed nothing larger than its own slices and trims from 8 clips up; a
# process that trained first trims at 32 and 64.  embed_waves of 192 desk clips, one BLAS
# thread, median of 21 calls in 3 processes (the training step: 32 clips, with backward):
#
#   clips per slice                    1      4      8     16     32     64
#   fresh process   faults per call    0    874  25488  31866  16215   9283
#                   ms per clip     2.43   2.25   2.44   2.44   2.32   2.36
#   after training  faults per call    0      0      0      0  13215   5772
#                   ms per clip     2.58   2.35   2.32   2.25   2.33   2.29
#
# With trimming switched off (a diagnostic only) every size from 4 up ties at 2.2-2.4 ms
# and 1 pays for its per-slice overhead, so the faults set the time: 4 is the largest size
# that stays under 1k faults per call in both processes.
EMBED_BATCH = 4


def _check_fields(config, where: str) -> None:
    """Each int field of a config must hold a positive integer, and each tuple field a
    non-empty tuple of them; errors name the field under the dotted key path `where`."""
    for field in dataclasses.fields(config):
        value, name = getattr(config, field.name), f"{where}.{field.name}"
        if isinstance(field.default, tuple):
            if not (isinstance(value, tuple) and value):
                raise ContractError(f"{name} must be a non-empty tuple of positive integers, "
                                    f"got {value!r}")
            for v in value:
                check_value(f"each of {name}", v, "int", lo=1)
        elif isinstance(field.default, int):
            check_value(name, value, "int", lo=1)


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
        _check_fields(self, "model.encoder")
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
        _check_fields(self, "model")
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


def _directory(config: ModelConfig) -> list[dict]:
    """A checkpoint's tensor directory for `config`: its params, then its state, each
    sorted by name."""
    layout = _tensor_layout(config)
    return [{"kind": kind, "name": name, "shape": list(layout[name].shape)}
            for kind in ("param", "state")
            for name in sorted(n for n, spec in layout.items() if spec.kind == kind)]


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
        self.params = {name: Tensor(arr) for name, arr in params.items()}
        self.state = {name: np.asarray(arr, dtype=np.float64).copy() for name, arr in state.items()}
        self.stage = stage
        self.seed = int(check_value("seed", seed, "int", lo=0))
        self._folds = None  # each encoder layer's folded (w, b) while the encoder is frozen

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0) -> "PerceptualModel":
        params, state = _init_params(config, stream(seed, 0xC0))
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
        statistics with the leaky ReLU as its epilogue.  Once the next conv,
        or for the last layer the pool, has read a layer's output it is
        released, and backward rebuilds it one item at a time from the conv
        output, so each layer's graph keeps one full-size array, its conv
        output, until its batch norm's backward releases that too.  Layer 1
        keeps none: its conv output is released once its batch norm has read
        it, and backward rebuilds it from ``x`` once, inside layer 2's weight
        gradient, where layer 1's output is rebuilt from it item by item.
        Inference runs each layer as one ``T.conv1d`` with the leaky ReLU as
        its epilogue, on the layer's BatchNorm folded into its conv
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
                conv = T.conv1d(h, w, stride=stride)
                T.release(h)  # the previous layer's output; backward rebuilds it
                h = T.batch_norm1d(conv, *bn, train=True, slope=LEAKY_SLOPE)
                if layer == 1:  # rebuilt from x, which the graph keeps; a deeper rebuild
                    T.release(conv)  # would first rebuild the released layer below it
            else:
                h = T.conv1d(h, *folds[layer - 1], stride=stride, slope=LEAKY_SLOPE)
        pooled = T.global_avg_pool(h)
        if train:  # the pool's backward reads only h's shape
            T.release(h)
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
            raise ShapeError(f"judge_from_distance needs [batch, 1] distances, got {d.shape}")
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
        """Inference-mode acoustic embeddings for a list of waveforms, EMBED_BATCH at a time;
        clips rendered on demand go through :meth:`keyed_embedder`, which holds one slice."""
        chunks = [np.empty((0, self.config.encoder.acoustic_dim))]
        for start in range(0, len(waves), EMBED_BATCH):
            x = self.waves_to_tensor(waves[start:start + EMBED_BATCH])
            acoustic, _ = self.encode(x, train=False)
            chunks.append(acoustic.data)
        return np.concatenate(chunks, axis=0)

    def keyed_embedder(self, render):
        """``embed(keys)``: embedding rows, in key order, of clips named by hashable keys.

        Each call renders only the keys it has not seen, in first-seen order,
        as ``render(key)``, and hands them to :meth:`embed_waves` one
        EMBED_BATCH slice at a time, so at most one slice of rendered clips is
        alive.  Rows do not depend on batch composition; they are cached by key.
        """
        rows: dict = {}

        def embed(keys) -> np.ndarray:
            fresh = list(dict.fromkeys(key for key in keys if key not in rows))
            for start in range(0, len(fresh), EMBED_BATCH):
                chunk = fresh[start:start + EMBED_BATCH]
                rows.update(zip(chunk, self.embed_waves([render(key) for key in chunk])))
            return np.array([rows[key] for key in keys]).reshape(len(keys),
                                                                 self.config.encoder.acoustic_dim)

        return embed

    def distance(self, ref: Waveform, per: Waveform) -> float:
        """Perceptual distance between two clips (inference mode)."""
        x = self.waves_to_tensor([ref, per])
        acoustic, _ = self.encode(x, train=False)
        d = self.distance_from_embeddings(T.narrow(acoustic, 0, 0, 1),
                                          T.narrow(acoustic, 0, 1, 1))
        return float(d.data[0])

    def judge(self, d: float) -> float:
        check_value("d", d, "number", lo=0)
        p = self.judge_from_distance(Tensor(np.array([[float(d)]])))
        return float(p.data[0, 0])


# -- checkpoint I/O ---------------------------------------------------------------

def save_checkpoint(model: PerceptualModel, path) -> None:
    """Write the model in the CDPM container format, through :func:`audio.replacing`; a
    model without a tensor of its config's directory raises ContractError naming it."""
    directory = _directory(model.config)
    held = {"param": {n: t.data for n, t in model.params.items()}, "state": model.state}
    arrays = [held[entry["kind"]].get(entry["name"]) for entry in directory]
    for entry, arr in zip(directory, arrays):
        if arr is None or list(arr.shape) != entry["shape"]:
            raise ContractError(f"the model holds no {entry['kind']} {entry['name']!r} "
                                f"of shape {entry['shape']}")
    header = json.dumps({
        "config": model.config.to_dict(),
        "stage": model.stage,
        "seed": model.seed,
        "tensors": directory,
    }, sort_keys=True).encode("utf-8")
    with replacing(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> PerceptualModel:
    """Read a CDPM checkpoint; a malformed file, or one whose tensor directory is not its
    config's, raises FormatError naming it."""
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
        listed = list(header["tensors"])
        stage = header["stage"]
        seed = check_value("seed", header["seed"], "int", lo=0)
        if stage not in STAGES:
            raise FormatError(f"{path}: unknown stage {stage!r}")
        # every encoder layer holds 5 tensors, which bounds the directory built next
        if 5 * config.encoder.n_layers > len(listed):
            raise FormatError(f"{path}: {len(listed)} tensors listed for "
                              f"{config.encoder.n_layers} encoder layers")
        directory = _directory(config)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as err:
        # ContractError is a ValueError: a config the model rejects is a corrupt header, and
        # so is one nested past the recursion limit
        raise FormatError(f"{path}: corrupt checkpoint header ({err})") from err
    if listed != directory:
        i = next((i for i, (got, want) in enumerate(zip(listed, directory)) if got != want),
                 min(len(listed), len(directory)))
        got = repr(listed[i]) if i < len(listed) else "nothing"
        want = repr(directory[i]) if i < len(directory) else "nothing"
        raise FormatError(f"{path}: tensor directory entry {i} is {got}, expected {want}")

    offset = 12 + header_len
    payload = 8 * sum(math.prod(entry["shape"]) for entry in directory)
    if len(blob) - offset != payload:
        raise FormatError(f"{path}: {len(blob) - offset} payload bytes, expected {payload}")
    params: dict[str, np.ndarray] = {}
    state: dict[str, np.ndarray] = {}
    for entry in directory:
        name, shape = entry["name"], tuple(entry["shape"])
        nbytes = math.prod(shape) * 8
        arr = np.frombuffer(blob[offset:offset + nbytes], dtype="<f8").astype(np.float64).reshape(shape)
        offset += nbytes
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
        (params if entry["kind"] == "param" else state)[name] = arr
    return PerceptualModel(config, params, state, stage=stage, seed=seed)

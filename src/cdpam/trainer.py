"""The three training stages and their orchestration.

Stage a (pretrain): contrastive learning on the encoder, alternating
acoustic-mode and content-mode batches; each embedding half has its own
projection head and the NT-Xent loss is taken over the projected half that
matches the batch mode.  Adam keeps its state per parameter, so a head
steps, and counts steps, only on the batches of its own mode.

Stage b (jnd): the loss network and judgment classifier are fit with binary
cross-entropy against oracle same/different labels.  The encoder is frozen,
so each epoch encodes the (augmented) clips once in inference mode and the
cheap loss-network optimization runs over cached embeddings.

Stage c (finetune): margin ranking on triplet comparisons, loss network
only, encoder still frozen.

Each stage hands `_run_epochs` a generator of minibatch losses; backward,
the Adam step and the epoch mean happen there and nowhere else.

Stages must run in order; checkpoints carry a stage tag that is checked on
entry.  All randomness (batch composition, augmentation, perturbation draws)
derives from the config seed, so identical configs give byte-identical
checkpoints.
"""

from __future__ import annotations

import csv
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from . import losses, tensor as T
from .audio import Waveform, apply_gain_db
from .datagen import corpus_by_id, make_contrastive_batch
from .errors import ContractError, DataError, NumericError, TrainingError
from .model import ModelConfig, PerceptualModel
from .perturb import apply
from .tensor import Tensor, adam_step

EPOCH_DEFAULTS = {"pretrain": 250, "jnd": 250, "finetune": 100}
SHIFT_SECONDS = 0.25
GAIN_RANGE_DB = (-20.0, 0.0)


@dataclass
class TrainConfig:
    """Hyperparameters for one training stage.

    Defaults follow the reference recipe (batch 16, Adam at 1e-4, 250/250/100
    epochs, temperature 0.5, margin 0.1); desk-scale runs override epochs,
    learning rate and dataset sizes.
    """

    stage: str = "pretrain"
    epochs: int | None = None
    batch_size: int = 16
    lr: float = 1e-4
    tau: float = 0.5
    margin: float = 0.1
    seed: int = 0
    augment: bool = True
    families: tuple = ("noise", "reverb")
    batches_per_mode: int | None = None

    def __post_init__(self):
        if self.stage not in EPOCH_DEFAULTS:
            raise ContractError(f"unknown stage {self.stage!r}")
        if self.epochs is None:
            self.epochs = EPOCH_DEFAULTS[self.stage]
        counts = [("epochs", self.epochs), ("batch_size", self.batch_size)]
        if self.batches_per_mode is not None:  # None: scale with the corpus
            counts.append(("batches_per_mode", self.batches_per_mode))
        for name, value in counts:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ContractError(f"{name} must be an integer >= 1, got {value!r}")
        if (isinstance(self.lr, bool) or not isinstance(self.lr, numbers.Real)
                or not (np.isfinite(self.lr) and self.lr > 0)):
            raise ContractError(f"lr must be a finite number > 0, got {self.lr!r}")


# -- online augmentation ----------------------------------------------------------


def _augment(w: Waveform, rng: np.random.Generator) -> Waveform:
    """Random 0.25 s silence shift (head or tail) plus a gain in [-20, 0] dB."""
    silence = int(round(SHIFT_SECONDS * w.sample_rate))
    n = len(w)
    samples = np.zeros(n)
    if rng.random() < 0.5:
        keep = max(0, n - silence)
        samples[silence:] = w.samples[:keep]  # content shifted right, head silent
    else:
        samples[:max(0, n - silence)] = w.samples[silence:]  # shifted left, tail silent
    gain_db = rng.uniform(*GAIN_RANGE_DB)
    return apply_gain_db(Waveform(samples, w.sample_rate), gain_db)


def _maybe_augment(waves, rng, enabled: bool):
    return [_augment(w, rng) for w in waves] if enabled else list(waves)


# -- shared helpers ----------------------------------------------------------------


def save_loss_log(rows, path) -> None:
    tmp = str(path) + ".tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "stage", "loss", "wall_ms"])
        for row in rows:
            writer.writerow([row["epoch"], row["stage"], f"{row['loss']:.10g}",
                             f"{row['wall_ms']:.1f}"])
    os.replace(tmp, path)


def _check_entry(config: TrainConfig, stage: str, model=None, needs: str | None = None) -> None:
    """The config must be for `stage`; a given model must carry the stage tag `needs`."""
    if config.stage != stage:
        raise ContractError(f"config stage is {config.stage!r}, expected {stage!r}")
    if model is not None and model.stage != needs:
        raise ContractError(f"the {stage} stage needs a {needs!r} checkpoint, got {model.stage!r}")


def _run_epochs(model: PerceptualModel, config: TrainConfig, spawn: int, done_tag: str,
                epoch_losses, progress) -> tuple:
    """Run config.epochs epochs of `epoch_losses(rng)`; return (model, loss rows).

    The one training step: each loss the generator yields is backpropagated
    and followed by one Adam step before the generator resumes, and an epoch
    logs its minibatch mean.  Epoch e draws from SeedSequence(seed,
    spawn_key=(spawn, e)).  A non-finite value anywhere in an epoch aborts
    training with that epoch's index.  At the end the model is tagged
    `done_tag` and every parameter is frozen.
    """
    moments: dict = {}
    rows = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(spawn, epoch)))
        batch_losses = []
        try:
            for loss in epoch_losses(rng):
                loss.backward()
                adam_step(model.params, moments, config.lr)
                batch_losses.append(loss.item())
        except NumericError as err:
            raise TrainingError(f"{config.stage} stage diverged at epoch {epoch}: {err}",
                                epoch=epoch) from err
        rows.append({"epoch": epoch, "stage": config.stage, "loss": float(np.mean(batch_losses)),
                     "wall_ms": (time.perf_counter() - t0) * 1000.0})
        if progress:
            progress(rows[-1])
    model.stage = done_tag
    model.set_trainable(())
    return model, rows


# -- stage a: contrastive pretraining ------------------------------------------------


def pretrain_contrastive(corpus, config: TrainConfig, model_config: ModelConfig,
                         progress=None) -> tuple:
    """Train the encoder (plus both projection heads) with NT-Xent batches.

    Returns (model tagged "pretrained", per-epoch loss rows).  Acoustic and
    content batches alternate; each mode covers the corpus batches_per_mode
    times per epoch.  NaN losses abort with the epoch index.
    """
    _check_entry(config, "pretrain")
    model = PerceptualModel.initialize(model_config, seed=config.seed)
    model.set_trainable(("enc.", "proj."))
    per_mode = config.batches_per_mode or max(1, len(corpus) // (4 * config.batch_size))
    # the pretraining set is fixed up front; only augmentation varies per epoch
    seeder = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(20,)))
    batches = [(mode, make_contrastive_batch(corpus, mode, config.batch_size,
                                             seed=int(seeder.integers(0, 2 ** 63)),
                                             families=config.families))
               for mode in ["acoustic", "content"] * per_mode]

    def epoch_losses(rng):
        for mode, pairs in batches:
            waves = _maybe_augment([p.wave_i for p in pairs], rng, config.augment) \
                + _maybe_augment([p.wave_j for p in pairs], rng, config.augment)
            x = model.waves_to_tensor(waves)
            acoustic, content = model.encode(x, train=True)
            half = acoustic if mode == "acoustic" else content
            z = model.project(half, mode)
            n = len(pairs)
            yield losses.nt_xent(T.narrow(z, 0, 0, n), T.narrow(z, 0, n, n), tau=config.tau)

    return _run_epochs(model, config, 21, "pretrained", epoch_losses, progress)


# -- stages b and c: loss network on a frozen encoder ------------------------------------


def _clip_items(corpus, records, kind: str, positive: str) -> list:
    """(clips, target) per record: the clean reference, then each compared clip
    regenerated from its spec; target is 1.0 when the label is `positive`."""
    by_id = corpus_by_id(corpus)
    items = []
    for record in records:
        if record.kind != kind:
            raise ContractError(f"expected {kind} records, got {record.kind!r}")
        clean = by_id[record.ref_id].clean
        specs = (record.spec_a,) if record.spec_b is None else (record.spec_a, record.spec_b)
        items.append(((clean, *(apply(spec, clean) for spec in specs)),
                      1.0 if record.label == positive else 0.0))
    return items


def _frozen_encoder_epochs(model: PerceptualModel, corpus, records, config: TrainConfig,
                           kind: str, positive: str, spawn: int, done_tag: str, batch_loss,
                           progress) -> tuple:
    """Fit the trainable parameters on frozen-encoder embeddings of the `kind` records' clips.

    Each epoch permutes the items, augments each clip column (reference first)
    with the epoch generator, embeds each column once in inference mode, and
    yields `batch_loss(embs, targets)` per minibatch.
    """
    items = _clip_items(corpus, records, kind, positive)
    if not items:
        raise DataError(f"the {kind.split('_')[0]} record set is empty")
    columns = list(zip(*(clips for clips, _ in items)))
    targets = np.array([target for _, target in items])

    def epoch_losses(rng):
        order = rng.permutation(len(items))
        embs = [model.embed_waves(_maybe_augment([column[i] for i in order], rng, config.augment))
                for column in columns]
        for start in range(0, len(items), config.batch_size):
            batch = slice(start, start + config.batch_size)
            yield batch_loss([Tensor(e[batch]) for e in embs], targets[order[batch]])

    return _run_epochs(model, config, spawn, done_tag, epoch_losses, progress)


def train_jnd(model: PerceptualModel, corpus, records, config: TrainConfig,
              progress=None) -> tuple:
    """Fit the loss network + classifier on oracle same/different pairs with BCE."""
    _check_entry(config, "jnd", model, needs="pretrained")
    model = model.clone()
    model.set_trainable(("lossnet.", "clf."))

    def batch_loss(embs, labels):
        e_ref, e_per = embs
        d = model.distance_from_embeddings(e_ref, e_per)
        p = model.judge_from_distance(T.reshape(d, (len(labels), 1)))
        return losses.bce(p, labels.reshape(-1, 1))

    return _frozen_encoder_epochs(model, corpus, records, config, "jnd_pair", "different", 22,
                                  "jnd", batch_loss, progress)


def finetune_triplet(model: PerceptualModel, corpus, records, config: TrainConfig,
                     progress=None) -> tuple:
    """Fine-tune the loss network with margin ranking on triplet comparisons."""
    _check_entry(config, "finetune", model, needs="jnd")
    model = model.clone()
    model.set_trainable(("lossnet.",))

    def batch_loss(embs, prefer_a):
        e_ref, e_a, e_b = embs
        d_a = model.distance_from_embeddings(e_ref, e_a)
        d_b = model.distance_from_embeddings(e_ref, e_b)
        mask = Tensor(prefer_a)
        one = Tensor(np.ones(len(prefer_a)))
        d_pref = T.add(T.mul(d_a, mask), T.mul(d_b, T.sub(one, mask)))
        d_other = T.add(T.mul(d_b, mask), T.mul(d_a, T.sub(one, mask)))
        return T.mean_(losses.margin_rank(d_pref, d_other, margin=config.margin))

    return _frozen_encoder_epochs(model, corpus, records, config, "triplet", "A", 23,
                                  "finetuned", batch_loss, progress)

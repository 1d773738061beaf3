"""The three training stages and their orchestration.

Stage a (pretrain): contrastive learning on the encoder, alternating
acoustic-mode and content-mode batches; each embedding half has its own
projection head and the NT-Xent loss is taken over the projected half that
matches the batch mode.  Adam keeps its state per parameter, so a head
steps, and counts steps, only on the batches of its own mode.

Stage b (jnd): the loss network and judgment classifier are fit with binary
cross-entropy against oracle same/different labels.  The encoder is frozen,
so each epoch embeds the (augmented) clips once in inference mode through the
model's keyed embedder, and the cheap loss-network optimization runs over
those embeddings.

Stage c (finetune): margin ranking on triplet comparisons, loss network
only, encoder still frozen.

Each stage hands `_run_epochs` a generator of minibatch losses; backward,
the Adam step and the epoch mean happen there and nowhere else.

A stage is named once, by the function that runs it, and `_STAGES` holds
what else it fixes: the tag it writes on its model (:func:`stage_tag`, after
which the CLI names the stage's checkpoint), its epoch stream and its
reference epoch count.  One TrainConfig serves any stage.  Stages must run
in order: a stage's input model must carry the tag the stage before it
writes.  All randomness (batch composition, augmentation, perturbation
draws) derives from the config seed, so identical configs give
byte-identical checkpoints.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from . import losses, tensor as T
from .audio import Waveform, apply_gain_db, replacing
from .datagen import corpus_by_id, make_contrastive_batch
from .errors import ContractError, DataError, NumericError, TrainingError, check_value
from .model import ModelConfig, PerceptualModel
from .perturb import DEFAULT_FAMILIES, apply, stream
from .tensor import Tensor, adam_step

# the stages in run order, by the name their loss logs and errors use: the tag a stage writes
# on its model, which the next stage needs on its input; its epoch stream key (perturb.stream);
# and the reference recipe's epoch count, which TrainConfig(epochs=None) trains
_STAGES = {"pretrain": ("pretrained", 21, 250),
           "jnd": ("jnd", 22, 250),
           "finetune": ("finetuned", 23, 100)}
SHIFT_SECONDS = 0.25
GAIN_RANGE_DB = (-20.0, 0.0)


def stage_tag(stage: str) -> str:
    """The tag that `stage` writes on the model it trains, which the next stage needs."""
    return _STAGES[stage][0]


@dataclass
class TrainConfig:
    """Hyperparameters for a training stage, whichever stage function it is passed to.

    Defaults follow the reference recipe (batch 16, Adam at 1e-4, temperature
    0.5, margin 0.1, and with ``epochs=None`` the stage's reference epoch
    count); desk-scale runs override epochs, learning rate and dataset sizes.
    """

    epochs: int | None = None
    batch_size: int = 16
    lr: float = 1e-4
    tau: float = 0.5
    margin: float = 0.1
    seed: int = 0
    augment: bool = True
    families: tuple = DEFAULT_FAMILIES

    def __post_init__(self):
        if self.epochs is not None:
            check_value("epochs", self.epochs, "int", lo=1)
        check_value("batch_size", self.batch_size, "int", lo=1)
        check_value("lr", self.lr, "number", lo=0, ends="(]")
        check_value("tau", self.tau, "number", lo=0, ends="(]")
        check_value("margin", self.margin, "number")
        check_value("seed", self.seed, "int", lo=0)
        check_value("augment", self.augment, "bool")


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


# -- shared helpers ----------------------------------------------------------------


def save_loss_log(rows, path) -> None:
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "stage", "loss", "wall_ms"])
        for row in rows:
            writer.writerow([row["epoch"], row["stage"], f"{row['loss']:.10g}",
                             f"{row['wall_ms']:.1f}"])


def _run_epochs(model: PerceptualModel, config: TrainConfig, stage: str, epoch_losses,
                progress) -> tuple:
    """Run the `stage` epochs of `epoch_losses(rng)`; return (model, loss rows).

    The one training step: each loss the generator yields is backpropagated
    and followed by one Adam step before the generator resumes, and an epoch
    logs its minibatch mean.  Epoch e draws from the stage's stream,
    ``stream(seed, key, e)`` (:func:`perturb.stream`).  config.epochs epochs
    run, or the stage's reference count if it is None.  A non-finite value
    anywhere in an epoch aborts training with that epoch's index.  At the end
    the model carries the stage's tag and every parameter is frozen.
    """
    done_tag, key, reference_epochs = _STAGES[stage]
    moments: dict = {}
    rows = []
    for epoch in range(reference_epochs if config.epochs is None else config.epochs):
        t0 = time.perf_counter()
        rng = stream(config.seed, key, epoch)
        batch_losses = []
        try:
            for loss in epoch_losses(rng):
                loss.backward()
                adam_step(model.params, moments, config.lr)
                batch_losses.append(loss.item())
        except NumericError as err:
            raise TrainingError(f"{stage} stage diverged at epoch {epoch}: {err}",
                                epoch=epoch) from err
        rows.append({"epoch": epoch, "stage": stage, "loss": float(np.mean(batch_losses)),
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

    Returns (the pretrained model, per-epoch loss rows).  Acoustic and
    content batches alternate, one of each per 4 * batch_size clips (at least
    one) per epoch.  NaN losses abort with the epoch index.  The batch set
    is built before the first epoch, and the corpus is dropped then: a
    caller that holds no other reference to it frees it for training.
    """
    model = PerceptualModel.initialize(model_config, seed=config.seed)
    model.set_trainable(("enc.", "proj."))
    per_mode = max(1, len(corpus) // (4 * config.batch_size))
    # the pretraining set is fixed up front; only augmentation varies per epoch
    seeder = stream(config.seed, 20)
    batches = [(mode, make_contrastive_batch(corpus, mode, config.batch_size,
                                             seed=int(seeder.integers(0, 2 ** 63)),
                                             families=config.families))
               for mode in ["acoustic", "content"] * per_mode]
    del corpus

    def epoch_losses(rng):
        for mode, waves in batches:
            x = model.waves_to_tensor([_augment(w, rng) for w in waves] if config.augment
                                      else waves)
            acoustic, content = model.encode(x, train=True)
            z = model.project(acoustic if mode == "acoustic" else content, mode)
            yield losses.nt_xent(z, tau=config.tau)

    return _run_epochs(model, config, "pretrain", epoch_losses, progress)


# -- stages b and c: loss network on a frozen encoder ------------------------------------


def _frozen_encoder_epochs(model: PerceptualModel, corpus, records, config: TrainConfig,
                           stage: str, kind: str, positive: str, batch_loss, progress) -> tuple:
    """Fit the trainable parameters on frozen-encoder embeddings of the `kind` records' clips.

    `model` must carry the tag that the stage before `stage` writes.  The clip
    columns are built once: the clean references, then each compared clip
    regenerated from its spec; a record's target is 1.0 when its label is
    `positive`.  Each epoch permutes the records and embeds each
    column through a keyed embedder whose keys are record indices and whose
    render augments the clip with the epoch generator; then it yields
    `batch_loss(embs, targets)` per minibatch.
    """
    stages = list(_STAGES)
    needs = stage_tag(stages[stages.index(stage) - 1])
    if model.stage != needs:
        raise ContractError(f"the {stage} stage needs a {needs!r} checkpoint, got {model.stage!r}")
    for record in records:
        if record.kind != kind:
            raise ContractError(f"expected {kind} records, got {record.kind!r}")
    if not records:
        raise DataError(f"the {kind.split('_')[0]} record set is empty")
    by_id = corpus_by_id(corpus)
    refs = [by_id[record.ref_id].clean for record in records]
    fields = ("spec_a",) if kind == "jnd_pair" else ("spec_a", "spec_b")
    columns = [refs, *([apply(getattr(record, field), ref) for record, ref in zip(records, refs)]
                       for field in fields)]
    targets = np.array([1.0 if record.label == positive else 0.0 for record in records])

    def epoch_losses(rng):
        order = rng.permutation(len(records))
        augment = (lambda w: _augment(w, rng)) if config.augment else (lambda w: w)
        embs = [model.keyed_embedder(lambda i, column=column: augment(column[i]))(order)
                for column in columns]
        for start in range(0, len(records), config.batch_size):
            batch = slice(start, start + config.batch_size)
            yield batch_loss([Tensor(e[batch]) for e in embs], targets[order[batch]])

    return _run_epochs(model, config, stage, epoch_losses, progress)


def train_jnd(model: PerceptualModel, corpus, records, config: TrainConfig,
              progress=None) -> tuple:
    """Fit the loss network + classifier on oracle same/different pairs with BCE."""
    model = model.clone()
    model.set_trainable(("lossnet.", "clf."))

    def batch_loss(embs, labels):
        e_ref, e_per = embs
        d = model.distance_from_embeddings(e_ref, e_per)
        p = model.judge_from_distance(T.reshape(d, (len(labels), 1)))
        return losses.bce(p, labels.reshape(-1, 1))

    return _frozen_encoder_epochs(model, corpus, records, config, "jnd", "jnd_pair", "different",
                                  batch_loss, progress)


def finetune_triplet(model: PerceptualModel, corpus, records, config: TrainConfig,
                     progress=None) -> tuple:
    """Fine-tune the loss network with margin ranking on triplet comparisons."""
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

    return _frozen_encoder_epochs(model, corpus, records, config, "finetune", "triplet", "A",
                                  batch_loss, progress)

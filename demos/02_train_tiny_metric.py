"""End-to-end training at toy scale, in well under a minute.

Walks the three stages on a 1-second / 1.6 kHz toy model: contrastive
pretraining of the encoder, JND training of the loss network against the
oracle annotator, then triplet fine-tuning.  Afterwards it shows what the
metric learned: distances from a clean clip to increasingly strong noise.

Run:  python demos/02_train_tiny_metric.py
"""

import numpy as np

from cdpam.datagen import oracle_jnd, oracle_triplets, synth_corpus
from cdpam.model import tiny_config
from cdpam.perturb import apply, spec_with_severity
from cdpam.trainer import TrainConfig, finetune_triplet, pretrain_contrastive, train_jnd

config = tiny_config()
corpus = synth_corpus(48, 4, seed=0, sample_rate=config.sample_rate,
                      clip_samples=config.clip_samples)
print(f"corpus: {len(corpus)} utterances, {corpus[0].clean.duration:.1f}s each\n")

print("stage a: contrastive pretraining")
pretrain_cfg = TrainConfig(stage="pretrain", epochs=15, batch_size=8, lr=3e-3, seed=0,
                           augment=False, families=("noise",))
model, rows = pretrain_contrastive(corpus, pretrain_cfg, config)
print(f"  nt-xent loss: {rows[0]['loss']:.3f} -> {rows[-1]['loss']:.3f}\n")

print("stage b: JND training of the loss network")
jnd_records = oracle_jnd(corpus, 64, seed=1, families=("noise",))
jnd_cfg = TrainConfig(stage="jnd", epochs=25, batch_size=16, lr=5e-3, seed=0,
                      families=("noise",))
model, rows = train_jnd(model, corpus, jnd_records, jnd_cfg)
print(f"  bce loss: {rows[0]['loss']:.3f} -> {rows[-1]['loss']:.3f}\n")

print("stage c: triplet fine-tuning")
triplets = oracle_triplets(corpus, 48, seed=2, families=("noise",))
tune_cfg = TrainConfig(stage="finetune", epochs=15, batch_size=16, lr=3e-3, seed=0,
                       families=("noise",))
model, rows = finetune_triplet(model, corpus, triplets, tune_cfg)
print(f"  margin-rank loss: {rows[0]['loss']:.3f} -> {rows[-1]['loss']:.3f}\n")

print("distance from clean to noise at increasing severity (should rise):")
probe = corpus[0].clean
rng = np.random.default_rng(9)
for severity in (0.1, 0.3, 0.5, 0.7, 0.9):
    spec = spec_with_severity(("noise",), severity, rng, max_families=1)
    d = model.distance(probe, apply(spec, probe))
    bar = "#" * int(120 * d)
    print(f"  severity {severity:.1f}: d = {d:.4f} {bar}")

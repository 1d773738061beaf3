"""The evaluation suite on a freshly trained toy metric.

Builds held-out evaluation datasets (triplets with a magnitude gap, severity
ladders, same/different perturbation-record pair groups, retrieval groups,
and a synthetic MOS table), runs all five metrics, and writes the reports
plus an overlap histogram SVG to ./demo_out/eval/.

Run:  python demos/03_evaluation_suite.py
"""

import os

from cdpam.datagen import (build_common_area_sets, build_mono_series, build_mos_set,
                           build_retrieval_set, oracle_jnd, oracle_triplets, synth_corpus)
from cdpam.evaluate import run_full_eval, write_reports_csv, write_reports_json
from cdpam.model import tiny_config
from cdpam.trainer import TrainConfig, finetune_triplet, pretrain_contrastive, train_jnd

OUT = os.path.join("demo_out", "eval")
os.makedirs(OUT, exist_ok=True)
config = tiny_config()
families = ("noise",)

print("training a toy metric (three stages)...")
corpus = synth_corpus(48, 4, seed=0, sample_rate=config.sample_rate,
                      clip_samples=config.clip_samples)
model, _ = pretrain_contrastive(
    corpus, TrainConfig(epochs=15, batch_size=8, lr=3e-3, seed=0, augment=False,
                        families=families), config)
model, _ = train_jnd(
    model, corpus, oracle_jnd(corpus, 64, seed=1, families=families),
    TrainConfig(epochs=25, batch_size=16, lr=5e-3, seed=0, families=families))
model, _ = finetune_triplet(
    model, corpus, oracle_triplets(corpus, 48, seed=2, families=families),
    TrainConfig(epochs=15, batch_size=16, lr=3e-3, seed=0, families=families))

print("building held-out evaluation datasets...")
held_out = synth_corpus(24, 4, seed=100, sample_rate=config.sample_rate,
                        clip_samples=config.clip_samples, id_prefix="ev")
datasets = {
    "two_afc": oracle_triplets(held_out, 40, seed=3, families=families,
                               min_magnitude_gap=0.2),
    "monotonicity": build_mono_series(held_out, families, n_levels=4, n_contents=4, seed=4),
    "common_area": build_common_area_sets(held_out, n_pairs=40, seed=5, families=families),
    "precision_at_k": build_retrieval_set(held_out, n_groups=4, group_size=10, seed=6,
                                          families=families),
    "mos_correlation": build_mos_set(held_out, n_conditions=5, clips_per_cell=2, seed=7,
                                     families=families),
}

reports = run_full_eval(model, held_out, datasets, k=3,
                        config_echo={"demo": "toy"},
                        histogram_path=os.path.join(OUT, "common_area_hist.svg"))
write_reports_json(reports, os.path.join(OUT, "reports.json"))
write_reports_csv(reports, os.path.join(OUT, "reports.csv"))

print()
for report in reports:
    print(f"  {report.metric:<16} {report.value:>7.3f}  (n={report.n})")
    for row in report.breakdown:
        print(f"      {row}")
print(f"\nreports and histogram written under {OUT}/")

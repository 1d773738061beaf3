"""The benchmark's tracer wraps package functions by name; every name must still exist.

A refactor that renames or drops a traced function fails here, in Tier-1,
instead of only in a traced benchmark run.
"""

import importlib.util
import os
from collections import Counter

import numpy as np
import pytest

from cdpam import cli, datagen, evaluate, model, perturb, tensor, trainer
from cdpam.audio import Waveform

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_wraps_and_restores_every_hook():
    tracer_module = load_tracer()
    hooks = [(cli, "cmd_synth_data"), (datagen, "oracle_jnd"), (evaluate, "run_two_afc"),
             (perturb, "apply"), (datagen, "apply"), (trainer, "apply"), (evaluate, "apply"),
             (model.PerceptualModel, "encode"), (tensor, "conv1d")]
    originals = [getattr(owner, attr) for owner, attr in hooks]
    tracer = tracer_module.Tracer()
    with tracer_module.traced(tracer):
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(hooks, originals))
        spec = perturb.PerturbSpec(noise_snr_db=20.0, seed=1)
        trainer.apply(spec, Waveform(np.full(400, 0.1), 4000))
    assert [span[0] for span in tracer.spans] == ["perturb.apply"]
    assert [getattr(owner, attr) for owner, attr in hooks] == originals


def trace_stage(stage):
    """The tracer of one epoch of `stage` on a tiny model and corpus."""
    from cdpam.datagen import oracle_jnd, oracle_triplets, synth_corpus
    from cdpam.model import PerceptualModel, tiny_config

    tracer_module = load_tracer()
    cfg = tiny_config()
    corpus = synth_corpus(16, 2, seed=1, sample_rate=cfg.sample_rate,
                          clip_samples=cfg.clip_samples)
    config = trainer.TrainConfig(epochs=1, batch_size=4)
    model = PerceptualModel.initialize(cfg, seed=0)
    model.stage = {"pretrain": "init", "jnd": "pretrained", "finetune": "jnd"}[stage]
    jnd_records, triplets = oracle_jnd(corpus, 10, seed=2), oracle_triplets(corpus, 10, seed=2)
    tracer = tracer_module.Tracer()
    with tracer_module.traced(tracer):
        if stage == "pretrain":
            trainer.pretrain_contrastive(corpus, config, cfg)
        elif stage == "jnd":
            trainer.train_jnd(model, corpus, jnd_records, config)
        else:
            trainer.finetune_triplet(model, corpus, triplets, config)
    return tracer


def count_stage_spans(stage):
    # tensor.adam_step_ms divides the Adam spans by the backward spans: one step
    # updates the encoder and the batch's projection head together, and a
    # frozen-encoder stage steps once per minibatch, the last one short
    return Counter(span[0] for span in trace_stage(stage).spans)


def test_pretraining_takes_one_adam_step_per_backward():
    names = count_stage_spans("pretrain")
    assert names["tensor.backward"] == 2
    assert names["tensor.adam_step"] == names["tensor.backward"]


@pytest.mark.parametrize("stage", ["jnd", "finetune"])
def test_frozen_encoder_stage_takes_one_adam_step_per_backward(stage):
    names = count_stage_spans(stage)
    assert names["tensor.backward"] == 3
    assert names["tensor.adam_step"] == names["tensor.backward"]


def test_every_training_layer_is_traced():
    # the per-layer metrics tensor.Lnn.fwd_ms and bwd_ms key on the encoder ops the
    # tracer wraps by name: a fusion that hides one of them from it fails here
    from cdpam.model import tiny_config

    tracer = trace_stage("pretrain")
    spans = tracer.spans
    n_layers = tiny_config().encoder.n_layers
    encodes = [i for i, span in enumerate(spans) if span[0] == "model.encode"]
    assert encodes
    for e in encodes:
        assert spans[e][4]["train"]
        children = [(span[0], span[4]["layer"]) for span in spans if span[3] == e]
        layers = list(range(1, n_layers + 1))
        for op in ("tensor.conv1d", "tensor.batch_norm1d"):
            assert sorted(layer for name, layer in children if name == op) == layers, children
        assert sorted(layer for enc, layer in tracer.bwd if enc == e) == layers


def test_full_eval_traces_every_runner(tmp_path):
    # perfbench's evaluate.<metric>_ms reads these spans: run_full_eval must call the
    # runners through their evaluate attributes, where the tracer wraps them
    from cdpam.datagen import (build_common_area_sets, build_mono_series, build_mos_set,
                               build_retrieval_set, oracle_triplets, synth_corpus)
    from cdpam.model import PerceptualModel, tiny_config

    tracer_module = load_tracer()
    cfg = tiny_config()
    corpus = synth_corpus(12, 2, seed=2, sample_rate=cfg.sample_rate,
                          clip_samples=cfg.clip_samples)
    datasets = {
        "two_afc": oracle_triplets(corpus, 4, seed=1),
        "monotonicity": build_mono_series(corpus, ("noise",), n_levels=3, n_contents=2, seed=2),
        "common_area": build_common_area_sets(corpus, n_pairs=3, seed=3),
        "precision_at_k": build_retrieval_set(corpus, n_groups=2, group_size=3, seed=4),
        "mos_correlation": build_mos_set(corpus, n_conditions=3, clips_per_cell=1, seed=5),
    }
    model = PerceptualModel.initialize(cfg, seed=0)
    tracer = tracer_module.Tracer()
    with tracer_module.traced(tracer):
        evaluate.run_full_eval(model, corpus, datasets, k=2,
                               histogram_path=tmp_path / "hist.svg")
    runs = Counter(span[0] for span in tracer.spans if span[0].startswith("evaluate.run_"))
    assert runs == {f"evaluate.run_{metric}": 1 for metric in evaluate.ALL_METRICS}

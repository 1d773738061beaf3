"""The benchmark's tracer wraps package functions by name; every name must still exist.

A refactor that renames or drops a traced function fails here, in Tier-1,
instead of only in a traced benchmark run.
"""

import importlib.util
import os

import numpy as np

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

"""Tour of the perturbation families.

Synthesizes one speech-like utterance, applies each perturbation family at a
mild and a severe setting, writes everything to ./demo_out/perturbations/ so
you can listen, and prints the oracle magnitude of each condition.

Run:  python demos/01_perturbation_tour.py
"""

import os

from cdpam.audio import write_wav
from cdpam.datagen import synth_corpus
from cdpam.perturb import apply, magnitude, spec_with_severity

import numpy as np

OUT = os.path.join("demo_out", "perturbations")
os.makedirs(OUT, exist_ok=True)

utterance = synth_corpus(n=1, n_speakers=1, seed=7)[0]
write_wav(utterance.clean, os.path.join(OUT, "clean.wav"))
print(f"clean utterance: {utterance.clean.duration:.2f}s at "
      f"{utterance.clean.sample_rate} Hz -> {OUT}/clean.wav\n")

rng = np.random.default_rng(0)
print(f"{'condition':<24} {'magnitude':>9}")
for family in ("noise", "reverb", "eq", "compression", "dropouts", "pops"):
    for label, severity in (("mild", 0.2), ("severe", 0.85)):
        spec = spec_with_severity((family,), severity, rng, max_families=1)
        degraded = apply(spec, utterance.clean)
        name = f"{family}_{label}"
        write_wav(degraded, os.path.join(OUT, f"{name}.wav"))
        print(f"{name:<24} {magnitude(spec):>9.3f}")

# a compound condition: everything the training pipeline uses, at once
compound = spec_with_severity(("noise", "reverb"), 0.6, rng, max_families=2)
write_wav(apply(compound, utterance.clean), os.path.join(OUT, "compound.wav"))
print(f"\n{'compound (noise+reverb)':<24} {magnitude(compound):>9.3f}")
print(f"\nall clips written under {OUT}/")

"""The one value check for a scalar from outside (errors.check_value): its rules and its
messages."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdpam
from cdpam import tensor as T
from cdpam.audio import Waveform, apply_gain_db, fix_length, resample
from cdpam.datagen import (build_common_area_sets, build_mono_series, build_mos_set,
                           build_retrieval_set, make_contrastive_batch, oracle_jnd,
                           oracle_triplets, synth_corpus)
from cdpam.errors import ContractError, check_value
from cdpam.losses import margin_rank, nt_xent
from cdpam.model import PerceptualModel, tiny_config
from cdpam.perturb import (apply_noise, apply_reverb, reverb_impulse_response, sample_spec,
                           spec_with_severity)
from cdpam.tensor import Tensor

KINDS = ("bool", "int", "number", "str")
# the values around the float limit, where an int stops being a finite number
FLOAT_EDGES = [sys.float_info.max, -sys.float_info.max, int(sys.float_info.max),
               int(sys.float_info.max) + 1, -int(sys.float_info.max) - 1, 2 ** 1024, 10 ** 400]
# ints beyond the 4300 digits Python turns into a decimal string
HUGE_INTS = [10 ** 4300, 10 ** 5000, -10 ** 5000]
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 16000, 2 ** 16000),
                         st.floats(), st.text(max_size=8),
                         st.sampled_from(FLOAT_EDGES + HUGE_INTS))
# (lo, hi, ends), as the package's callers pass them, and each open upper end
BOUNDS = st.sampled_from([(None, None, "[]"), (0, None, "[]"), (1, None, "[]"),
                          (0, None, "(]"), (0.0, 40.0, "[]"), (4, 8, "[]"),
                          (0.0, 2.0, "(]"), (None, 12.0, "[]"), (0, 1, "()"), (0, 1, "[)"),
                          (None, 1, "[)"), (-1.5, 0.5, "()")])


def reference(value, kind, lo, hi, ends) -> bool:
    """The rules of check_value, spelled out for the JSON scalar types."""
    if kind in ("bool", "str"):
        return type(value) is {"bool": bool, "str": str}[kind]
    if type(value) not in ((int,) if kind == "int" else (int, float)):
        return False
    if isinstance(value, float) and math.isnan(value) or abs(value) > sys.float_info.max:
        return False
    above_lo = lo is None or (value > lo if ends[0] == "(" else value >= lo)
    below_hi = hi is None or (value < hi if ends[1] == ")" else value <= hi)
    return above_lo and below_hi


class TestRules:
    @settings(max_examples=500, deadline=None)
    @given(value=JSON_SCALARS, kind=st.sampled_from(KINDS), bounds=BOUNDS)
    def test_accepts_exactly_what_the_rules_allow(self, value, kind, bounds):
        lo, hi, ends = bounds
        if reference(value, kind, lo, hi, ends):
            assert check_value("key", value, kind, lo, hi, ends) is value
        else:  # a TypeError or an OverflowError escapes pytest.raises and fails the test
            with pytest.raises(ContractError) as err:
                check_value("key", value, kind, lo, hi, ends)
            assert str(err.value).startswith("key must be ")
            try:
                shown = repr(value)
            except ValueError:
                shown = f"an integer of {value.bit_length()} bits"
            assert str(err.value).endswith(f", got {shown}")

    @pytest.mark.parametrize("args,message", [
        (("seed", -1, "int", 0), "seed must be an integer >= 0, got -1"),
        (("k", True, "int", 1), "k must be an integer >= 1, got True"),
        (("lr", 0.0, "number", 0, None, "(]"), "lr must be a finite number > 0, got 0.0"),
        (("rt60", 2.5, "number", 0.0, 2.0, "(]"),
         "rt60 must be a finite number in (0.0, 2.0], got 2.5"),
        (("threshold", 1.0, "number", 0, 1, "()"),
         "threshold must be a finite number in (0, 1), got 1.0"),
        (("gap", 1.0, "number", 0, 1, "[)"), "gap must be a finite number in [0, 1), got 1.0"),
        (("gap", 1, "number", None, 1, "[)"), "gap must be a finite number < 1, got 1"),
        (("bits", 9, "int", 4, 8), "bits must be an integer in [4, 8], got 9"),
        (("gain", 13.0, "number", None, 12.0), "gain must be a finite number <= 12.0, got 13.0"),
        (("rating", 10 ** 400, "number"), f"rating must be a finite number, got {10 ** 400}"),
        (("lr", 10 ** 5000, "number", 0, None, "(]"),
         "lr must be a finite number > 0, got an integer of 16610 bits"),
        (("augment", 1, "bool"), "augment must be true or false, got 1"),
        (("out", None, "str"), "out must be a string, got None"),
    ], ids=["below-lo", "bool-int", "open-lo", "above-hi", "open-both", "open-hi", "open-hi-only",
            "int-range", "hi-only", "huge-int", "undecimal-int", "int-bool", "none-str"])
    def test_message_names_the_key_the_rule_and_the_value(self, args, message):
        with pytest.raises(ContractError) as err:
            check_value(*args)
        assert str(err.value) == message

    def test_numpy_scalars_of_the_kind_pass_and_numpy_bools_do_not(self):
        assert check_value("n", np.int64(3), "int", lo=1) == 3
        assert check_value("x", np.float64(0.5), "number", 0.0, 1.0) == 0.5
        for kind in ("bool", "int", "number"):
            with pytest.raises(ContractError):
                check_value("flag", np.bool_(True), kind)

    def test_only_errors_spells_out_the_rule(self):
        src = Path(cdpam.__file__).parent
        for path in sorted(src.glob("*.py")):
            if path.name != "errors.py":
                text = path.read_text(encoding="utf-8")
                for spelling in ("numbers.", "math.isfinite", "sys.float_info"):
                    assert spelling not in text, f"{path.name} spells out {spelling}"



@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(29)
    return {"wave": Waveform(rng.uniform(-0.5, 0.5, 400), 4000),
            "corpus": synth_corpus(4, 2, sample_rate=4000, clip_samples=400),
            "model": PerceptualModel.initialize(tiny_config(), seed=3),
            "z": Tensor(rng.normal(size=(4, 3))), "d": Tensor(np.ones(2)),
            "x": Tensor(rng.normal(size=(2, 3, 8))), "w": Tensor(rng.normal(size=(4, 3, 3)))}


def _below(bound):
    return math.nextafter(bound, -math.inf)


def _above(bound):
    return math.nextafter(bound, math.inf)


# each scalar argument of a public function: the name its message starts with, a call
# that passes the value in its place, and the nearest value past its bound (an infinity
# where the bound is the float range)
PUBLIC_ARGUMENTS = {
    "fix_length": ("n", lambda e, v: fix_length(e["wave"], v), 0),
    "apply_gain_db": ("gain_db", lambda e, v: apply_gain_db(e["wave"], v), math.inf),
    "resample": ("target_rate", lambda e, v: resample(e["wave"], v), 0),
    "synth_corpus.n": ("n", lambda e, v: synth_corpus(v, 1, clip_samples=400), 0),
    "synth_corpus.n_speakers": ("n_speakers", lambda e, v: synth_corpus(1, v, clip_samples=400),
                                0),
    "oracle_jnd.n_pairs": ("n_pairs", lambda e, v: oracle_jnd(e["corpus"], v), 0),
    "oracle_jnd.threshold": ("threshold", lambda e, v: oracle_jnd(e["corpus"], 2, threshold=v),
                             1.0),
    "oracle_jnd.noise_sigma": ("noise_sigma",
                               lambda e, v: oracle_jnd(e["corpus"], 2, noise_sigma=v), _below(0.0)),
    "oracle_triplets.n": ("n", lambda e, v: oracle_triplets(e["corpus"], v), 0),
    "oracle_triplets.min_magnitude_gap": (
        "min_magnitude_gap", lambda e, v: oracle_triplets(e["corpus"], 2, min_magnitude_gap=v),
        1.0),
    "build_mono_series.n_levels": ("n_levels",
                                   lambda e, v: build_mono_series(e["corpus"], n_levels=v), 2),
    "build_mono_series.n_contents": (
        "n_contents", lambda e, v: build_mono_series(e["corpus"], n_contents=v), 1),
    "build_common_area_sets": ("n_pairs", lambda e, v: build_common_area_sets(e["corpus"], v),
                               0),
    "build_retrieval_set.n_groups": (
        "n_groups", lambda e, v: build_retrieval_set(e["corpus"], n_groups=v, group_size=2), 1),
    "build_retrieval_set.group_size": (
        "group_size", lambda e, v: build_retrieval_set(e["corpus"], n_groups=2, group_size=v), 1),
    "build_mos_set.n_conditions": ("n_conditions",
                                   lambda e, v: build_mos_set(e["corpus"], n_conditions=v), 1),
    "build_mos_set.clips_per_cell": (
        "clips_per_cell", lambda e, v: build_mos_set(e["corpus"], clips_per_cell=v), 0),
    "nt_xent": ("tau", lambda e, v: nt_xent(e["z"], v), 0.0),
    "margin_rank": ("margin", lambda e, v: margin_rank(e["d"], e["d"], v), math.inf),
    "PerceptualModel": ("seed", lambda e, v: PerceptualModel(tiny_config(), {}, {}, seed=v), -1),
    "PerceptualModel.initialize": ("seed",
                                   lambda e, v: PerceptualModel.initialize(tiny_config(), v), -1),
    "judge": ("d", lambda e, v: e["model"].judge(v), _below(0.0)),
    "leaky_relu": ("leaky_relu slope", lambda e, v: T.leaky_relu(e["x"], v), _above(1.0)),
    "conv1d": ("conv1d slope", lambda e, v: T.conv1d(e["x"], e["w"], slope=v), _below(0.0)),
    "batch_norm1d": ("batch_norm1d slope", lambda e, v: T.batch_norm1d(
        e["x"], Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3), True,
        slope=v), _above(1.0)),
    "spec_with_severity": ("max_families", lambda e, v: spec_with_severity(
        ("noise", "reverb"), 0.5, np.random.default_rng(0), max_families=v), 0),
    "apply_noise": ("snr_db", lambda e, v: apply_noise(e["wave"], v), _above(40.0)),
    # each seed is a SeedSequence entropy, an integer >= 0, and each rate and size >= 1
    "sample_spec": ("seed", lambda e, v: sample_spec(v), -1),
    "apply_noise.seed": ("seed", lambda e, v: apply_noise(e["wave"], 10.0, seed=v), -1),
    "apply_reverb": ("seed", lambda e, v: apply_reverb(e["wave"], 0.3, seed=v), -1),
    "reverb_impulse_response.sample_rate": (
        "sample_rate", lambda e, v: reverb_impulse_response(0.3, v), 0),
    "reverb_impulse_response.seed": (
        "seed", lambda e, v: reverb_impulse_response(0.3, 100, seed=v), -1),
    "synth_corpus.seed": ("seed", lambda e, v: synth_corpus(1, 1, seed=v, clip_samples=400),
                          -1),
    "synth_corpus.sample_rate": (
        "sample_rate", lambda e, v: synth_corpus(1, 1, sample_rate=v, clip_samples=400), 0),
    "synth_corpus.clip_samples": ("clip_samples",
                                  lambda e, v: synth_corpus(1, 1, clip_samples=v), 0),
    "make_contrastive_batch.batch_size": (
        "batch_size", lambda e, v: make_contrastive_batch(e["corpus"], "content", v), 0),
    "make_contrastive_batch.seed": (
        "seed", lambda e, v: make_contrastive_batch(e["corpus"], "content", 1, seed=v), -1),
    "oracle_jnd.seed": ("seed", lambda e, v: oracle_jnd(e["corpus"], 2, seed=v), -1),
    "oracle_triplets.seed": ("seed", lambda e, v: oracle_triplets(e["corpus"], 2, seed=v), -1),
    "build_mono_series.seed": ("seed", lambda e, v: build_mono_series(e["corpus"], seed=v), -1),
    "build_common_area_sets.seed": (
        "seed", lambda e, v: build_common_area_sets(e["corpus"], 2, seed=v), -1),
    "build_retrieval_set.seed": ("seed", lambda e, v: build_retrieval_set(
        e["corpus"], n_groups=2, group_size=2, seed=v), -1),
    "build_mos_set.seed": ("seed", lambda e, v: build_mos_set(e["corpus"], seed=v), -1),
}


class TestPublicFunctions:
    @pytest.mark.parametrize("bad", ["bool", "str", "nan", "past"])
    @pytest.mark.parametrize("function", PUBLIC_ARGUMENTS)
    def test_bad_scalar_is_a_contract_error_naming_the_parameter(self, inputs, function, bad):
        where, call, past = PUBLIC_ARGUMENTS[function]
        value = {"bool": True, "str": "3", "nan": math.nan, "past": past}[bad]
        with pytest.raises(ContractError) as err:  # a TypeError escapes and fails the test
            call(inputs, value)
        assert str(err.value).startswith(f"{where} must be ")

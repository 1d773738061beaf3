"""Synthetic corpora, contrastive pairing, and oracle-labeled judgments.

The corpus generator produces speech-like clips (a harmonic source with
speaker-specific pitch and vibrato, shaped by time-varying formant
resonances, with silence gaps) so no external audio is needed.  A directory
of user WAVs can substitute for it.

Two pairing rules feed contrastive pretraining: *acoustic* pairs share one
perturbation record across two different utterances, *content* pairs apply
two independent records to one utterance.

Human annotation is replaced by an oracle that thresholds the perturbation
magnitude: near-threshold pairs labelled same/different stand in for a JND
dataset, and triplets preferring the smaller-magnitude perturbation stand in
for two-alternative comparisons across the full severity range.  Specs at a
target severity and their magnitudes come from :mod:`cdpam.perturb`, the one
module that knows what a family's parameter means.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .audio import CANONICAL_RATE, CANONICAL_SAMPLES, Waveform, fix_length, read_wav, resample
from .errors import CapacityError, ContractError, DataError
from .perturb import (DEFAULT_FAMILIES, PerturbSpec, apply, magnitude, sample_spec,
                      spec_with_severity)

DEFAULT_JND_THRESHOLD = 0.15
DEFAULT_JND_SIGMA = 0.03
MOS_RATING_NOISE = 0.1  # std of the synthetic listener noise added to each MOS rating
# draws per triplet before oracle_triplets gives up on reaching min_magnitude_gap
MAX_TRIPLET_DRAWS = 10_000


@dataclass(frozen=True)
class Utterance:
    """One synthetic (or imported) clean clip."""

    id: str
    clean: Waveform
    speaker_id: int


@dataclass(frozen=True)
class JudgmentRecord:
    """A labeled JND pair or triplet; the supervision unit for training.

    ``ref_id`` names the clean utterance.  A compared clip exists only as its
    spec: ``perturb.apply(record.spec_a, clean)`` regenerates it bit-exactly,
    so no perturbed audio is stored.
    """

    kind: str
    ref_id: str
    spec_a: PerturbSpec
    label: str
    spec_b: PerturbSpec | None = None

    def __post_init__(self):
        if self.kind == "jnd_pair":
            if self.label not in ("same", "different"):
                raise ContractError(f"jnd label must be same/different, got {self.label!r}")
            if self.spec_b is not None:
                raise ContractError("jnd pairs have a single comparison clip")
        elif self.kind == "triplet":
            if self.label not in ("A", "B"):
                raise ContractError(f"triplet label must be A or B, got {self.label!r}")
            if self.spec_b is None:
                raise ContractError("triplets need two comparison clips")
        else:
            raise ContractError(f"unknown record kind {self.kind!r}")


# -- JSONL records ----------------------------------------------------------------


def write_jsonl(items, path) -> None:
    """Write record dataclasses to `path`, one sorted-key JSON line each, replacing it atomically.

    A None field is left out, and a PerturbSpec field is stored as such an object of its own.
    """
    def row(item) -> dict:
        return {f.name: row(value) if isinstance(value, PerturbSpec) else value
                for f in fields(item) if (value := getattr(item, f.name)) is not None}

    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(json.dumps(row(item), sort_keys=True))
            fh.write("\n")
    os.replace(tmp, path)


# the JSON value a record field holds, by its annotation; a PerturbSpec field checks itself
_JSON_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
               "float": ((int, float), "a finite number")}


def _check_type(name: str, annotation: str, value) -> None:
    kind, what = _JSON_TYPES.get(annotation, (None, None))
    if kind and (isinstance(value, bool) or not isinstance(value, kind)
                 or isinstance(value, float) and not math.isfinite(value)):
        raise DataError(f"key {name!r} must be {what}, got {value!r}")


def read_jsonl(path, cls) -> list:
    """The `cls` records in a JSONL file; keys that are not fields of `cls` are ignored.

    A line that is not a JSON object, lacks a field that has no default, holds
    a value of the wrong JSON type for its field's annotation (str, an int
    that is not a bool, a finite number) or a value `cls` rejects raises
    DataError naming the file and line.
    """
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise DataError(f"expected a JSON object, got {line.strip()[:40]!r}")
                kwargs = {}
                for f in fields(cls):
                    if f.name in row:
                        value = row[f.name]
                        _check_type(f.name, f.type, value)  # f.type is a str
                        if "PerturbSpec" in f.type and value is not None:
                            value = PerturbSpec(**value)
                        kwargs[f.name] = value
                    elif f.default is MISSING:
                        raise DataError(f"missing key {f.name!r}")
                items.append(cls(**kwargs))
            except (TypeError, ValueError) as err:  # DataError and ContractError among them
                raise DataError(f"{path} line {number}: {err}") from err
    return items


# -- corpus synthesis -----------------------------------------------------------


def _speaker_params(seed: int, speaker_id: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, speaker_id)))
    n_formants = int(rng.integers(2, 4))
    formants = [float(rng.uniform(*band)) for band in
                ((280.0, 750.0), (900.0, 2100.0), (2300.0, 3200.0))][:n_formants]
    return {
        "f0_base": float(rng.uniform(80.0, 250.0)),
        "vibrato_hz": float(rng.uniform(4.5, 6.5)),
        "vibrato_depth": float(rng.uniform(0.01, 0.03)),
        "formants": formants,
        "bandwidths": [float(rng.uniform(80.0, 150.0)) for _ in formants],
    }


def _anchored_track(rng, n, n_anchors, lo, hi):
    anchors = rng.uniform(lo, hi, size=n_anchors)
    return np.interp(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n_anchors), anchors)


def _synth_utterance(spk: dict, rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    t = np.arange(n) / sr
    # pitch contour: slow anchored drift (+-2 semitones) plus vibrato
    drift = _anchored_track(rng, n, 6, -2.0, 2.0)
    f0 = spk["f0_base"] * 2.0 ** (drift / 12.0)
    f0 *= 1.0 + spk["vibrato_depth"] * np.sin(2.0 * np.pi * spk["vibrato_hz"] * t)
    base_phase = 2.0 * np.pi * np.cumsum(f0) / sr

    formant_tracks = [f * (1.0 + _anchored_track(rng, n, 5, -0.18, 0.18))
                      for f in spk["formants"]]

    f_max = 0.45 * sr
    n_harm = max(3, int(f_max / float(np.max(f0))))
    out = np.zeros(n)
    for k in range(1, n_harm + 1):
        freq_k = k * f0
        amp = np.zeros(n)
        for track, bw in zip(formant_tracks, spk["bandwidths"]):
            amp += 1.0 / (1.0 + ((freq_k - track) / bw) ** 2)
        amp *= 1.0 / k
        amp[freq_k > f_max] = 0.0
        out += amp * np.sin(k * base_phase + rng.uniform(0.0, 2.0 * np.pi))

    # syllable-like energy contour with silence gaps and raised-cosine edges
    envelope = np.zeros(n)
    n_segments = int(rng.integers(2, 5))
    edges = np.sort(rng.uniform(0.02, 0.98, size=2 * n_segments))
    fade = max(1, int(0.03 * sr))
    ramp = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, fade))
    for a, b in zip(edges[0::2], edges[1::2]):
        i, j = int(a * n), int(b * n)
        if j - i < 2 * fade + 1:
            continue
        envelope[i:j] = 1.0
        envelope[i:i + fade] = np.minimum(envelope[i:i + fade], ramp)
        envelope[j - fade:j] = np.minimum(envelope[j - fade:j], ramp[::-1])
    if not envelope.any():
        envelope[:] = 1.0
    out *= envelope

    out += 10.0 ** (-35.0 / 20.0) * rng.standard_normal(n)  # breath-noise floor

    target_rms = rng.uniform(0.05, 0.2)
    out *= target_rms / np.sqrt(np.mean(np.square(out)))
    peak = np.max(np.abs(out))
    if peak > 0.95:
        out *= 0.95 / peak
    return out


def synth_corpus(n: int, n_speakers: int, seed: int = 0,
                 sample_rate: int = CANONICAL_RATE, clip_samples: int = CANONICAL_SAMPLES,
                 id_prefix: str = "utt", from_dir=None) -> list:
    """Generate n seeded utterances across n_speakers synthetic voices.

    With ``from_dir``, WAV files from that directory are conditioned to the
    target format and used instead (speakers assigned round-robin).
    """
    if n < 1 or n_speakers < 1:
        raise ContractError("corpus needs at least one utterance and one speaker")
    if from_dir is not None:
        names = sorted(f for f in os.listdir(from_dir) if f.lower().endswith(".wav"))
        if not names:
            raise CapacityError(f"{from_dir} holds no WAV files")
        corpus = []
        for i, name in enumerate(names[:n]):
            w = read_wav(os.path.join(from_dir, name))
            w = fix_length(resample(w, sample_rate), clip_samples)
            corpus.append(Utterance(id=f"{id_prefix}{i:04d}", clean=w, speaker_id=i % n_speakers))
        return corpus

    speakers = [_speaker_params(seed, s) for s in range(n_speakers)]
    corpus = []
    for i in range(n):
        speaker_id = i % n_speakers
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, i)))
        samples = _synth_utterance(speakers[speaker_id], rng, clip_samples, sample_rate)
        corpus.append(Utterance(id=f"{id_prefix}{i:04d}", clean=Waveform(samples, sample_rate),
                                speaker_id=speaker_id))
    return corpus


@dataclass(frozen=True)
class CorpusEntry:
    """One line of a corpus manifest; ``path`` is the clean WAV, relative to the manifest's
    directory."""

    id: str
    speaker_id: int
    path: str


class _CorpusIndex(dict):
    def __missing__(self, utt_id):
        raise DataError(f"utterance {utt_id!r} is not in the corpus")


def corpus_by_id(corpus) -> dict:
    """Utterances by id; looking up an id the corpus lacks raises DataError naming it."""
    return _CorpusIndex((utt.id, utt) for utt in corpus)


# -- contrastive pairing ---------------------------------------------------------


@dataclass(frozen=True)
class ContrastivePair:
    wave_i: Waveform
    wave_j: Waveform


def make_contrastive_batch(corpus, mode: str, batch_size: int = 16, seed: int = 0,
                           families=DEFAULT_FAMILIES) -> list:
    """Build one batch of positive pairs under the requested pairing rule.

    acoustic mode: two different utterances share one perturbation record.
    content mode: one utterance is perturbed with two independent records.
    """
    if mode not in ("acoustic", "content"):
        raise ContractError(f"unknown contrastive mode {mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    needed = 2 * batch_size if mode == "acoustic" else batch_size
    if len(corpus) < needed:
        raise CapacityError(
            f"{mode} batches of {batch_size} need {needed} distinct utterances, "
            f"corpus has {len(corpus)}")
    picks = rng.choice(len(corpus), size=needed, replace=False)
    pairs = []
    for b in range(batch_size):
        if mode == "acoustic":
            u1, u2 = corpus[picks[2 * b]], corpus[picks[2 * b + 1]]
            spec = sample_spec(int(rng.integers(0, 2 ** 63)), families)
            pairs.append(ContrastivePair(apply(spec, u1.clean), apply(spec, u2.clean)))
        else:
            utt = corpus[picks[b]]
            spec_1 = sample_spec(int(rng.integers(0, 2 ** 63)), families)
            spec_2 = sample_spec(int(rng.integers(0, 2 ** 63)), families)
            pairs.append(ContrastivePair(apply(spec_1, utt.clean), apply(spec_2, utt.clean)))
    return pairs


# -- oracle annotators -----------------------------------------------------------


def oracle_jnd(corpus, n_pairs: int, threshold: float = DEFAULT_JND_THRESHOLD,
               noise_sigma: float = DEFAULT_JND_SIGMA, seed: int = 0,
               families=DEFAULT_FAMILIES) -> list:
    """Near-threshold clean/perturbed pairs labelled by the magnitude oracle.

    Magnitudes are drawn uniformly over [0, 2*threshold] (capped at 1) so the
    labels come out roughly balanced; a pair is "different" when
    magnitude + N(0, noise_sigma) exceeds the threshold.
    """
    if n_pairs < 1:
        raise ContractError("need at least one jnd pair")
    if not 0.0 < threshold < 1.0:
        raise ContractError("threshold must lie in (0, 1)")
    if not noise_sigma >= 0.0:
        raise ContractError(f"noise_sigma must be >= 0, got {noise_sigma!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4,)))
    records = []
    for _ in range(n_pairs):
        utt = corpus[int(rng.integers(0, len(corpus)))]
        target = rng.uniform(0.0, min(1.0, 2.0 * threshold))
        spec = spec_with_severity(families, target, rng)
        noisy_magnitude = magnitude(spec) + (rng.normal(0.0, noise_sigma) if noise_sigma > 0 else 0.0)
        label = "different" if noisy_magnitude > threshold else "same"
        records.append(JudgmentRecord(kind="jnd_pair", ref_id=utt.id, spec_a=spec, label=label))
    return records


def oracle_triplets(corpus, n: int, seed: int = 0, families=DEFAULT_FAMILIES,
                    min_magnitude_gap: float = 0.0) -> list:
    """Triplets (clean reference, two perturbations); the smaller magnitude wins.

    Magnitudes are sampled uniformly over [0, 1] so the set spans small to
    far-beyond-threshold perturbations; eval splits pass a minimum magnitude
    gap to keep the labels unambiguous.  A triplet whose pair misses the gap
    is drawn again, at most MAX_TRIPLET_DRAWS times before CapacityError.
    """
    if n < 1:
        raise ContractError("need at least one triplet")
    if not 0.0 <= min_magnitude_gap < 1.0:  # magnitudes lie in [0, 1]
        raise ContractError(f"min_magnitude_gap must be in [0, 1), got {min_magnitude_gap!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(5,)))
    records = []
    for _ in range(n):
        utt = corpus[int(rng.integers(0, len(corpus)))]
        for _ in range(MAX_TRIPLET_DRAWS):
            t_a, t_b = rng.uniform(0.0, 1.0, size=2)
            spec_a = spec_with_severity(families, t_a, rng)
            spec_b = spec_with_severity(families, t_b, rng)
            mag_a, mag_b = magnitude(spec_a), magnitude(spec_b)
            if abs(mag_a - mag_b) >= max(min_magnitude_gap, 1e-9):
                break
        else:
            raise CapacityError(f"no pair of perturbations reached min_magnitude_gap "
                                f"{min_magnitude_gap!r} in {MAX_TRIPLET_DRAWS} draws")
        records.append(JudgmentRecord(kind="triplet", ref_id=utt.id, spec_a=spec_a, spec_b=spec_b,
                                      label="A" if mag_a < mag_b else "B"))
    return records


# -- evaluation datasets ----------------------------------------------------------


@dataclass(frozen=True)
class MonoSeriesItem:
    utt_id: str
    family: str  # one family name, or "combined"
    level: int
    spec: PerturbSpec


@dataclass(frozen=True)
class GroupedPair:
    utt_a: str
    utt_b: str
    spec_a: PerturbSpec
    spec_b: PerturbSpec
    group: str  # "same" or "diff"


@dataclass(frozen=True)
class RetrievalItem:
    utt_id: str
    group_id: int
    spec: PerturbSpec


@dataclass(frozen=True)
class MosRow:
    speaker_id: int
    condition_id: int
    utt_id: str
    spec: PerturbSpec
    rating: float


# the eval sets `cdpam synth-data` writes under eval/: dataset key -> (file name, record type)
EVAL_SETS = {"triplets": ("triplets.jsonl", JudgmentRecord),
             "mono_items": ("mono.jsonl", MonoSeriesItem),
             "grouped_pairs": ("common_area.jsonl", GroupedPair),
             "retrieval_items": ("retrieval.jsonl", RetrievalItem),
             "mos_rows": ("mos.jsonl", MosRow)}


def build_mono_series(corpus, families=DEFAULT_FAMILIES, n_levels: int = 6,
                      n_contents: int = 8, seed: int = 0) -> list:
    """Per-content series at increasing severities, per family plus combined."""
    if n_levels < 3 or n_contents < 2:
        raise ContractError("monotonicity needs >= 3 levels and >= 2 content items")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(6,)))
    severities = np.linspace(0.15, 0.9, n_levels)
    contents = [corpus[int(i)] for i in
                rng.choice(len(corpus), size=min(n_contents, len(corpus)), replace=False)]
    items = []
    series = [(fam, (fam,)) for fam in families]
    if len(families) > 1:
        series.append(("combined", tuple(families)))
    for fam_name, fam_pool in series:
        for utt in contents:
            for level, severity_target in enumerate(severities):
                spec = spec_with_severity(fam_pool, float(severity_target), rng,
                                          max_families=len(fam_pool))
                items.append(MonoSeriesItem(utt.id, fam_name, level, spec))
    return items


def build_common_area_sets(corpus, n_pairs: int = 150, seed: int = 0,
                           families=DEFAULT_FAMILIES) -> list:
    """Two groups of cross-content pairs: shared perturbation record vs independent ones."""
    if len(corpus) < 2:
        raise CapacityError("common-area pairs need at least 2 utterances")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    pairs = []
    for group in ("same", "diff"):
        for _ in range(n_pairs):
            ia, ib = rng.choice(len(corpus), size=2, replace=False)
            spec_a = sample_spec(int(rng.integers(0, 2 ** 63)), families)
            spec_b = spec_a if group == "same" else sample_spec(int(rng.integers(0, 2 ** 63)),
                                                                families)
            pairs.append(GroupedPair(corpus[int(ia)].id, corpus[int(ib)].id,
                                     spec_a, spec_b, group))
    return pairs


def build_retrieval_set(corpus, n_groups: int = 10, group_size: int = 20, seed: int = 0,
                        families=DEFAULT_FAMILIES) -> list:
    """n_groups perturbation records, each applied to group_size different utterances."""
    if len(corpus) < group_size:
        raise CapacityError("retrieval groups need group_size distinct utterances")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(8,)))
    items = []
    for group_id in range(n_groups):
        spec = sample_spec(int(rng.integers(0, 2 ** 63)), families)
        picks = rng.choice(len(corpus), size=group_size, replace=False)
        for i in picks:
            items.append(RetrievalItem(corpus[int(i)].id, group_id, spec))
    return items


def build_mos_set(corpus, n_conditions: int = 10, clips_per_cell: int = 3, seed: int = 0,
                  families=DEFAULT_FAMILIES) -> list:
    """Synthetic MOS table: rating = 5 - 4*magnitude + noise, clipped to [1, 5]."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
    speakers = sorted({utt.speaker_id for utt in corpus})
    by_speaker = {s: [u for u in corpus if u.speaker_id == s] for s in speakers}
    conditions = [sample_spec(int(rng.integers(0, 2 ** 63)), families)
                  for _ in range(n_conditions)]
    rows = []
    for condition_id, spec in enumerate(conditions):
        for speaker in speakers:
            pool = by_speaker[speaker]
            for _ in range(clips_per_cell):
                utt = pool[int(rng.integers(0, len(pool)))]
                rating = float(np.clip(5.0 - 4.0 * magnitude(spec)
                                       + rng.normal(0.0, MOS_RATING_NOISE), 1.0, 5.0))
                rows.append(MosRow(speaker, condition_id, utt.id, spec, rating))
    return rows

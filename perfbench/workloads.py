"""The benchmark workloads: input generation, measured loop, output checks.

:func:`run_session` runs one workload: the training pipeline through the
CLI, with a closed-loop stream of ``distance`` calls in slices between its
commands.  It checks what the program returned and fills a :class:`Result`.
Inputs come only from the workload seed; the package is
driven through its public functions (``cdpam.cli.main``,
``PerceptualModel``, ``datagen``, ``perturb``) and never modified.  See
README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time

import numpy as np

from cdpam import datagen, perturb
from cdpam.audio import Waveform
from cdpam.errors import CdpamError
from cdpam.model import (LEAKY_SLOPE, PerceptualModel, default_config, desk_config,
                         load_checkpoint, save_checkpoint)
from cdpam.tensor import Tensor

import tracer as tr

SAMPLE_RATE = 8000  # desk_config(): 1 s clips at 8 kHz
CLIP_SAMPLES = 8000
FAMILIES = ("noise", "reverb")  # the desk pipeline's default families
BASE_UTTERANCES = 64

# Both workloads are one user session: train the metric through the CLI
# pipeline and call distance() in a closed loop, in slices between the
# pipeline's commands.  They differ in proportion.  desk-train trains on the
# desk datasets, with the eval sets halved, and streams for 0.3 of
# --seconds; distance-stream trains on the smallest datasets the eval runners
# accept, three times, and streams for all of --seconds.  "data" names the
# overrides of cdpam.cli's desk defaults, in DATA below.
WORKLOADS = {"desk-train": {"data": "half_eval", "pipelines": 1, "stream_share": 0.3},
             "distance-stream": {"data": "small", "pipelines": 3, "stream_share": 1.0}}

# the pipeline trains at one fixed seed: its quality metrics differ between
# training seeds by more than any bound a regression check could use
DESK_SEED = 0
DESK_EPOCHS = {"pretrain": 1, "jnd": 2, "finetune": 2}
# desk-train's eval sets: half of each desk default, so that a full round of
# runs fits the benchmark's time limit when the machine runs slow
HALF_EVAL_DATA = {"eval": {"n_triplets": 100, "mono_contents": 4, "common_area_pairs": 75,
                           "retrieval_groups": 5, "mos_conditions": 5}}
# distance-stream's datasets, and every workload's under --smoke: the least
# the eval runners accept
SMALL_DATA = {"n_utterances": 32, "n_eval_utterances": 8, "n_jnd_pairs": 16, "n_triplets": 16,
              "eval": {"n_triplets": 16, "mono_levels": 3, "mono_contents": 2,
                       "common_area_pairs": 16, "retrieval_groups": 3,
                       "retrieval_group_size": 4, "mos_conditions": 3,
                       "mos_clips_per_cell": 1}}
STAGES = (("synth-data", "synth_s"), ("pretrain", "pretrain_s"), ("train-jnd", "train_jnd_s"),
          ("finetune", "finetune_s"), ("eval", "eval_s"))
# train-jnd and finetune run again after eval, and synth-data twice more, so
# their metrics are medians of samples taken up to a minute apart: single
# samples of these 2- to 6-second stages caught the machine's fast or slow
# phase and split in two
RERUNS = STAGES[2:4] + STAGES[:1] * 2
DATA = {"half_eval": HALF_EVAL_DATA, "small": SMALL_DATA}
CHECKPOINTS = (("pretrained.ckpt", "pretrained"), ("jnd.ckpt", "jnd"),
               ("finetuned.ckpt", "finetuned"))
QUALITY = {"two_afc": "two_afc", "common_area": "common_area", "monotonicity": "monotonicity",
           "precision_at_k": "precision_at_k", "mos_correlation": "mos_rho"}
HASHED = ("finetuned.ckpt", "reports.json")

# the stream: distinct pairs per streamed second; calls stop early if used up
STREAM_PAIRS_PER_SECOND = 150
PROPERTY_SAMPLE_EVERY = 50
AGREEMENT_BATCH = 64  # pairs of the stream re-scored at once, the eval runners' way

# tolerances of the output checks; float64 BLAS may reorder sums between batch
# shapes, which moves a distance by a few ulps, never by 1e-9 relative
IDENTITY_ATOL = 1e-12
SYMMETRY_RTOL = 1e-12
AGREEMENT_RTOL = 1e-9


class Result:
    """Counts, metric values and the run record of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.metrics: dict = {}
        self.record: dict = {}

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed check makes it a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _finite_nonneg(d: float) -> bool:
    return math.isfinite(d) and d >= 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- inputs ---------------------------------------------------------------------------


def _variants(base: list, rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct clips: each a random circular shift and gain of a base utterance."""
    out = np.empty((n, CLIP_SAMPLES), dtype=np.float32)
    for i in range(n):
        samples = base[i % len(base)].clean.samples
        gain = 10.0 ** (rng.uniform(-6.0, 0.0) / 20.0)
        out[i] = np.roll(samples, int(rng.integers(1, CLIP_SAMPLES))) * gain
    return out


def _degrade(clips: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = np.empty_like(clips)
    for i, clip in enumerate(clips):
        spec = perturb.sample_spec(int(rng.integers(0, 2 ** 63)), FAMILIES)
        out[i] = perturb.apply(spec, Waveform(clip, SAMPLE_RATE)).samples
    return out


def _base(seed: int) -> tuple:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xBE,)))
    corpus = datagen.synth_corpus(BASE_UTTERANCES, 8, seed=seed, sample_rate=SAMPLE_RATE,
                                  clip_samples=CLIP_SAMPLES, id_prefix="bench")
    return corpus, rng


def repeat_share(clips) -> float:
    """Share of clips (1-D arrays) that repeat an earlier clip byte for byte."""
    digests = [hashlib.blake2b(clip.tobytes(), digest_size=16).digest() for clip in clips]
    return 1.0 - len(set(digests)) / len(digests)


def stream_inputs(seed: int, seconds: float) -> tuple:
    """(refs, degraded) float32 arrays of distinct 1 s clips, enough to stream `seconds`."""
    corpus, rng = _base(seed)
    refs = _variants(corpus, rng, max(1, int(STREAM_PAIRS_PER_SECOND * seconds)))
    return refs, _degrade(refs, rng)


def make_checkpoint(seed: int, path: str) -> None:
    """Untrained desk model for the stream: inference cost does not depend on the values."""
    save_checkpoint(PerceptualModel.initialize(desk_config(), seed), path)


def _wave(samples) -> Waveform:
    return Waveform(samples, SAMPLE_RATE)


def _warmup_pair() -> tuple:
    t = np.arange(CLIP_SAMPLES) / SAMPLE_RATE
    return _wave(0.5 * np.sin(2 * np.pi * 220.0 * t)), _wave(0.4 * np.sin(2 * np.pi * 330.0 * t))


def ready(path: str):
    """Everything set-up covers: imports, checkpoint load and one warm-up call.

    The pipeline's modules are imported too, since every workload trains.
    Returns the warmed-up model.
    """
    from cdpam import cli, evaluate, trainer  # noqa: F401  (import cost is set-up)

    model = load_checkpoint(path)
    model.distance(*_warmup_pair())
    return model


# -- the stream ------------------------------------------------------------------------


class _Stream:
    """Closed loop, one caller: the next distance() starts when the last returns.

    It runs in slices between pipeline commands, so its latency samples span
    the whole run.  Pairs are used in order, each once; `distances` maps a
    pair index to its distance.
    """

    def __init__(self, model, refs, degs, result: Result, distances: dict, start: int = 0):
        self.model, self.refs, self.degs = model, refs, degs
        self.result, self.distances = result, distances
        self.next = start
        self.latencies: list = []

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while self.next < len(self.refs) and time.perf_counter() < deadline:
            i = self.next
            ref, per = _wave(self.refs[i]), _wave(self.degs[i])
            t0 = time.perf_counter()
            try:
                d = self.model.distance(ref, per)
            except CdpamError as err:
                self.result.check(False, f"distance call {i}: {err}")
            else:
                self.latencies.append(time.perf_counter() - t0)
                self.distances[i] = d
                self.result.check(_finite_nonneg(d), f"distance {i} = {d}")
            self.next += 1


def _pseudometric_checks(model, refs, degs, count: int, result: Result) -> None:
    for i in range(0, count, PROPERTY_SAMPLE_EVERY):
        a, b = _wave(refs[i]), _wave(degs[i])
        try:
            d_aa, d_ab, d_ba = model.distance(a, a), model.distance(a, b), model.distance(b, a)
        except CdpamError as err:
            result.check(False, f"pseudometric check on pair {i}: {err}")
            continue
        result.check(abs(d_aa) <= IDENTITY_ATOL, f"d(x, x) = {d_aa} for pair {i}")
        result.check(abs(d_ab - d_ba) <= SYMMETRY_RTOL * max(abs(d_ab), 1.0),
                     f"d(a, b) = {d_ab} but d(b, a) = {d_ba} for pair {i}")


def _latency_metrics(latencies: list) -> dict:
    ms = np.asarray(latencies) * 1e3
    return {"distance_mean_ms": float(ms.mean()), "distance_p90_ms": float(np.percentile(ms, 90))}


def _percentiles(latencies: list) -> dict:
    """p50 and p99 with the sample count: recorded, not bounded (see README.md)."""
    ms = np.asarray(latencies) * 1e3
    return {f"distance_p{q}_ms": {"value": float(np.percentile(ms, q)), "unit": "ms",
                                  "samples": len(latencies)} for q in (50, 99)}


def _score(model, ref_waves, deg_waves) -> np.ndarray:
    """The eval runners' scoring path: two embed_waves calls, then the loss network."""
    e_ref = model.embed_waves(ref_waves)
    e_deg = model.embed_waves(deg_waves)
    return model.distance_from_embeddings(Tensor(e_ref), Tensor(e_deg)).data.copy()


def _agreement_checks(model, refs, degs, distances: dict, result: Result) -> None:
    """Batched scoring of AGREEMENT_BATCH streamed pairs must match their distance()."""
    picked = sorted(distances)[::max(1, len(distances) // AGREEMENT_BATCH)][:AGREEMENT_BATCH]
    try:
        batched = _score(model, [_wave(refs[i]) for i in picked], [_wave(degs[i]) for i in picked])
    except CdpamError as err:
        result.check(False, f"batched scoring: {err}")
        return
    for i, d in zip(picked, batched):
        result.check(abs(d - distances[i]) <= AGREEMENT_RTOL * max(abs(distances[i]), 1e-12),
                     f"pair {i}: batched distance {d} but distance() gave {distances[i]}")


def _overhead(slow: float, fast: float) -> float:
    return (slow / fast - 1.0) * 100.0


# -- the pipeline ----------------------------------------------------------------------


def desk_run_config(workload: str, smoke: bool) -> dict:
    data = DATA["small" if smoke else WORKLOADS[workload]["data"]]
    return {"train": {"epochs": dict(DESK_EPOCHS)}, "data": data}


def _pipeline(cfg_path: str, out: str, result: Result, repeat: bool, between) -> dict:
    """synth-data, pretrain, train-jnd, finetune, eval through cdpam.cli.main.

    With `repeat`, RERUNS follow and each stage reports the median of its
    times.  The reruns rewrite the same checkpoints, byte for byte.
    `between()` runs after each command, outside its timing.
    """
    from cdpam import cli

    shutil.rmtree(out, ignore_errors=True)
    finetuned = os.path.join(out, "finetuned.ckpt")
    samples: dict = {}
    first_hash = None
    for i, (command, metric) in enumerate(STAGES + (RERUNS if repeat else ())):
        if i == len(STAGES) and os.path.exists(finetuned):
            first_hash = _sha256(finetuned)
        argv = [command, "--config", cfg_path, "--out", out, "--seed", str(DESK_SEED)]
        if command in ("pretrain", "train-jnd", "finetune"):
            argv.append("--quiet")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        samples.setdefault(metric, []).append(time.perf_counter() - t0)
        result.check(code == 0, f"{command} exited with {code}")
        between()
    if first_hash is not None:
        result.check(_sha256(finetuned) == first_hash, "rerun stages changed finetuned.ckpt")
    times = {metric: statistics.median(values) for metric, values in samples.items()}
    times["pipeline_s"] = sum(times.values())
    return times


def _desk_outputs(out: str, result: Result) -> tuple:
    """Check the checkpoints and reports; return (quality metrics, output hashes)."""
    for name, stage in CHECKPOINTS:
        path = os.path.join(out, name)
        try:
            found = load_checkpoint(path).stage
        except (CdpamError, OSError) as err:
            found = f"unreadable ({err})"
        result.check(found == stage, f"{name}: stage {found!r}, expected {stage!r}")
    quality = {}
    try:
        with open(os.path.join(out, "reports.json"), encoding="utf-8") as fh:
            reports = json.load(fh)
    except (OSError, ValueError) as err:
        reports = {}
        result.check(False, f"reports.json unreadable: {err}")
    for key, metric in QUALITY.items():
        value = reports.get(key, {}).get("value")
        if result.check(isinstance(value, (int, float)) and math.isfinite(value),
                        f"reports.json {key} = {value!r}"):
            quality[metric] = float(value)
    hashes = {name: _sha256(os.path.join(out, name)) for name in HASHED
              if os.path.exists(os.path.join(out, name))}
    return quality, hashes


def _check_determinism(hashes: dict, key: str, record_path: str, result: Result) -> None:
    """Compare with earlier runs at this source tree, seed, threads and config."""
    try:
        with open(record_path, encoding="utf-8") as fh:
            seen = json.load(fh)
    except FileNotFoundError:
        seen = {}
    earlier = seen.setdefault(key, hashes)
    result.check(earlier == hashes,
                 f"desk-train outputs differ from an earlier run at {key}: {earlier} vs {hashes}")
    tmp = record_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, record_path)


def _load(path: str):
    """load_checkpoint through the module, so that a traced phase sees the call."""
    from cdpam import model

    return model.load_checkpoint(path)


def run_session(workload: str, cfg_path: str, ckpt: str, inputs, seconds: float, work: str,
                record_key: str, record_path: str, result: Result, smoke: bool = False,
                tracer=None) -> None:
    """Pipelines with the stream in slices between their commands; fills `result`.

    Untraced, the workload's pipelines run with their reruns and report the
    median of each stage.  Every pipeline's output hashes go through the
    determinism record, so pipelines of one run must also agree with each
    other.  With a tracer, one pipeline and half the stream run untraced and
    the same again traced, and the per-layer metrics come from the second.
    """
    spec = WORKLOADS[workload]
    out = os.path.join(work, "desk")
    refs, degs = inputs
    repeat = tracer is None and not smoke
    pipelines = spec["pipelines"] if repeat else 1
    commands = pipelines * (len(STAGES) + (len(RERUNS) if repeat else 0))
    slice_s = seconds * spec["stream_share"] * (0.5 if tracer else 1.0) / commands
    distances: dict = {}
    stream = _Stream(ready(ckpt), refs, degs, result, distances)

    runs = []
    for _ in range(pipelines):
        runs.append(_pipeline(cfg_path, out, result, repeat, lambda: stream.run(slice_s)))
        quality, hashes = _desk_outputs(out, result)
        _check_determinism(hashes, record_key, record_path, result)
    stage_s = {metric: statistics.median(t[metric] for t in runs) for metric in runs[0]}
    latency = _latency_metrics(stream.latencies)

    frozen = stage_s["train_jnd_s"] + stage_s["finetune_s"]
    result.record.update({
        "pipelines": len(runs), "stage_s": stage_s, "hashes": hashes, "quality": quality,
        "desk_seed": DESK_SEED, "epochs": DESK_EPOCHS,
        "frozen_share_of_training": frozen / (frozen + stage_s["pretrain_s"]),
        "input_repeat_share": repeat_share([*refs, *degs]), "samples": len(stream.latencies),
        "latency": _percentiles(stream.latencies)})
    if tracer is None:
        result.metrics.update(stage_s)
        result.metrics.update(quality)
        result.metrics.update(latency)
    else:
        with tr.traced(tracer):
            stream = _Stream(_load(ckpt), refs, degs, result, distances, start=stream.next)
            traced_s = _pipeline(cfg_path, out, result, False, lambda: stream.run(slice_s))
        _, traced_hashes = _desk_outputs(out, result)
        result.check(traced_hashes == hashes, "tracing changed the pipeline outputs")
        traced = _latency_metrics(stream.latencies)
        result.record.update({"traced_stage_s": traced_s,
                              "traced_samples": len(stream.latencies),
                              "traced_latency": traced, "untraced_latency": latency})
        result.metrics["trace.pipeline_s.overhead_pct"] = _overhead(traced_s["pipeline_s"],
                                                                    stage_s["pipeline_s"])
        result.metrics["trace.distance_mean_ms.overhead_pct"] = _overhead(
            traced["distance_mean_ms"], latency["distance_mean_ms"])
    result.record["pairs_used"] = stream.next
    result.record["pool_exhausted"] = stream.next == len(refs)
    _pseudometric_checks(stream.model, refs, degs, stream.next, result)
    _agreement_checks(stream.model, refs, degs, distances, result)
    if tracer is None:
        result.metrics["peak_rss_mb"] = _peak_rss_mb()


# -- spot check of one full-size layer -------------------------------------------------


def spot_default(repeats: int = 3) -> dict:
    """Layer 5 of default_config() (128 -> 256 channels, 15 taps) at batch 1, 2048 steps."""
    from cdpam import tensor as T

    enc = default_config().encoder
    cin, cout, k = enc.channel_of(4), enc.channel_of(5), enc.kernel
    rng = np.random.default_rng(5)
    fwd, bwd = [], []
    for _ in range(repeats):
        x = Tensor(rng.normal(size=(1, cin, 2048)), requires_grad=True)
        w = Tensor(rng.normal(0.0, math.sqrt(2.0 / (cin * k)), size=(cout, cin, k)),
                   requires_grad=True)
        gamma = Tensor(np.ones(cout), requires_grad=True)
        beta = Tensor(np.zeros(cout), requires_grad=True)
        t0 = time.perf_counter()
        h = T.leaky_relu(T.batch_norm1d(T.conv1d(x, w), gamma, beta, np.zeros(cout),
                                        np.ones(cout), train=True), LEAKY_SLOPE)
        t1 = time.perf_counter()
        T.sum_(h).backward()
        t2 = time.perf_counter()
        fwd.append((t1 - t0) * 1e3)
        bwd.append((t2 - t1) * 1e3)
    return {"tensor.spot_default.fwd_ms": statistics.median(fwd),
            "tensor.spot_default.bwd_ms": statistics.median(bwd)}

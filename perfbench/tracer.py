"""Spans around the public functions of each cdpam module, for the traced run.

The benchmark never edits the package: :func:`traced` replaces module and
class attributes with timing wrappers for the duration of a ``with`` block
and restores the originals afterwards.  Functions that other modules import
by name (``perturb.apply``, ``tensor.adam_step``) are replaced in every
module that holds them, or calls through those names would go untraced.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` lists;
:func:`summarize` turns them into the per-layer metrics and
:meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict

# cli stage functions, keyed by the stage name used in metric names
CLI_STAGES = {"cmd_synth_data": "synth", "cmd_pretrain": "pretrain",
              "cmd_train_jnd": "train_jnd", "cmd_finetune": "finetune", "cmd_eval": "eval"}
EVAL_RUNNERS = {"run_two_afc": "two_afc", "run_common_area": "common_area",
                "run_monotonicity": "monotonicity", "run_precision_at_k": "precision_at_k",
                "run_mos_correlation": "mos_correlation"}
TRAIN_STAGES = {"pretrain_contrastive": "pretrain", "train_jnd": "jnd",
                "finetune_triplet": "finetune"}
DATAGEN_GROUPS = {"synth_corpus": "synth_corpus", "oracle_jnd": "oracle",
                  "oracle_triplets": "oracle", "build_mono_series": "eval_sets",
                  "build_common_area_sets": "eval_sets", "build_retrieval_set": "eval_sets",
                  "build_mos_set": "eval_sets"}
ENCODER_OPS = ("conv1d", "batch_norm1d", "leaky_relu")


def clip_digest(w) -> bytes:
    return hashlib.blake2b(w.samples.tobytes(), digest_size=16,
                           key=str(w.sample_rate).encode()).digest()


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.tensors_created = 0
        self.encode_span = None  # index of the open PerceptualModel.encode span
        self.layer = 0  # encoder layer of the last conv1d inside that span
        self.bwd: defaultdict = defaultdict(float)  # (encode span, layer) -> backward seconds
        self._seen: set = set()

    def open(self, name: str, **attrs) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count_repeats(self, waves) -> int:
        """Number of clips in `waves` whose content was embedded earlier in this phase."""
        repeats = 0
        for w in waves:
            digest = clip_digest(w)
            repeats += digest in self._seen
            self._seen.add(digest)
        return repeats

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ms": (start - t0) * 1e3,
                                     "dur_ms": (end - start) * 1e3, "parent": parent,
                                     **attrs}))
                fh.write("\n")
        os.replace(tmp, path)


# -- wrappers -----------------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn, attrs=None, result_attrs=None):
    """Wrap `fn` in a span; `attrs(args, kwargs)` and `result_attrs(out, args)` add fields."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name, **(attrs(args, kwargs) if attrs else {}))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if result_attrs:
            tracer.spans[index][4].update(result_attrs(out, args))
        return out

    return wrapper


def _timed_backward(tracer: Tracer, out, key) -> None:
    fn = out._backward_fn
    if fn is None:
        return

    def backward(g):
        t0 = time.perf_counter()
        fn(g)
        tracer.bwd[key] += time.perf_counter() - t0

    out._backward_fn = backward


def _encoder_op(tracer: Tracer, op: str, fn):
    """conv1d / batch_norm1d / leaky_relu: a span per call inside encode, else untouched."""

    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        if tracer.encode_span is None:
            return fn(x, *args, **kwargs)
        attrs = {}
        if op == "conv1d":  # each encoder layer starts with its conv
            tracer.layer += 1
            w = args[0] if args else kwargs["w"]
            stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
            batch, cin, length = x.shape
            cout, _, k = w.shape
            attrs["mflop"] = 2.0 * batch * cout * cin * k * (length // stride) / 1e6
        attrs["layer"] = tracer.layer
        index = tracer.open(f"tensor.{op}", **attrs)
        try:
            out = fn(x, *args, **kwargs)
        finally:
            tracer.close(index)
        _timed_backward(tracer, out, (tracer.encode_span, attrs["layer"]))
        return out

    return wrapper


def _encode(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, x, train=False):
        outer = (tracer.encode_span, tracer.layer)
        index = tracer.open("model.encode", batch=int(x.shape[0]), train=bool(train))
        tracer.encode_span, tracer.layer = index, 0
        try:
            return fn(self, x, train=train)
        finally:
            tracer.close(index)
            tracer.encode_span, tracer.layer = outer

    return wrapper


def _distance(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, ref, per):
        repeats = tracer.count_repeats([ref, per])
        before = tracer.tensors_created
        index = tracer.open("model.distance", clips=2, repeats=repeats)
        try:
            return fn(self, ref, per)
        finally:
            tracer.close(index)
            tracer.spans[index][4]["tensors"] = tracer.tensors_created - before

    return wrapper


def _patches(tracer: Tracer) -> list:
    """(owner, attribute, replacement) for every traced entry point."""
    from cdpam import audio, cli, datagen, evaluate, losses, model, perturb, tensor, trainer

    patches = []

    def span(owners, attr, name, **kw):
        owners = owners if isinstance(owners, tuple) else (owners,)
        wrapped = _span(tracer, name, getattr(owners[0], attr), **kw)
        patches.extend((owner, attr, wrapped) for owner in owners)

    for attr, stage in CLI_STAGES.items():
        span(cli, attr, f"cli.{stage}")
    for attr in DATAGEN_GROUPS:
        span(datagen, attr, f"datagen.{attr}")
    span((perturb, trainer, evaluate, datagen), "apply", "perturb.apply")
    span(audio, "write_wav", "audio.write_wav",
         result_attrs=lambda out, args: {"bytes": os.path.getsize(args[1])})
    span(audio, "read_wav", "audio.read_wav")
    for attr in TRAIN_STAGES:
        span(trainer, attr, f"trainer.{attr}",
             result_attrs=lambda out, args: {"epoch_ms": [row["wall_ms"] for row in out[1]]})
    span((tensor, trainer), "adam_step", "tensor.adam_step")
    for attr in ("nt_xent", "bce", "margin_rank"):
        span(losses, attr, f"losses.{attr}")
    for attr in EVAL_RUNNERS:
        span(evaluate, attr, f"evaluate.{attr}")
    span(model, "save_checkpoint", "model.save_checkpoint")
    span(model, "load_checkpoint", "model.load_checkpoint")

    cls = model.PerceptualModel
    patches.append((cls, "encode", _encode(tracer, cls.encode)))
    patches.append((cls, "distance", _distance(tracer, cls.distance)))
    span(cls, "waves_to_tensor", "model.waves_to_tensor")
    span(cls, "distance_from_embeddings", "model.distance_from_embeddings")
    span(cls, "embed_waves", "model.embed_waves",
         attrs=lambda args, kwargs: {"clips": len(args[1]),
                                     "repeats": tracer.count_repeats(args[1])})
    for op in ENCODER_OPS:
        patches.append((tensor, op, _encoder_op(tracer, op, getattr(tensor, op))))

    span(tensor.Tensor, "backward", "tensor.backward")
    init = tensor.Tensor.__init__

    @functools.wraps(init)
    def counting_init(self, *args, **kwargs):
        tracer.tensors_created += 1
        init(self, *args, **kwargs)

    patches.append((tensor.Tensor, "__init__", counting_init))
    return patches


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every traced entry point through `tracer` inside the block."""
    patches = _patches(tracer)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# -- per-layer metrics ----------------------------------------------------------------


def _dur_ms(span) -> float:
    return (span[2] - span[1]) * 1e3


def _median(values):
    return statistics.median(values) if values else None


def summarize(tracer: Tracer) -> dict:
    """Per-layer metric values (name -> number) from the recorded spans.

    Only layers the phase exercised get a value; callers drop the ``None``s.
    """
    spans = tracer.spans
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)

    def under(i, name):
        """Nearest ancestor of span i called `name`, or None."""
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] == name:
                return parent
            parent = spans[parent][3]
        return None

    def durations(name, within=None):
        return [_dur_ms(spans[i]) for i in by_name[name]
                if within is None or under(i, within) is not None]

    out: dict = {}

    # tensor: encoder layers, keyed by call order inside each encode span
    encodes = by_name["model.encode"]
    fwd = defaultdict(lambda: defaultdict(float))  # encode span -> layer -> ms
    mflop = {}
    for op in ENCODER_OPS:
        for i in by_name[f"tensor.{op}"]:
            enc, layer = spans[i][3], spans[i][4]["layer"]
            fwd[enc][layer] += _dur_ms(spans[i])
            if op == "conv1d":
                mflop[(spans[enc][4]["batch"], layer)] = spans[i][4]["mflop"]
    busy = defaultdict(float)  # encode batch -> encode ms at that batch
    for e in encodes:
        busy[spans[e][4]["batch"]] += _dur_ms(spans[e])
    if busy:  # the batch the phase spent most encode time at
        fwd_batch = max(busy, key=busy.get)
        out["tensor.fwd_batch"] = fwd_batch
        at_batch = [e for e in encodes if spans[e][4]["batch"] == fwd_batch]
        for layer in sorted({l for e in at_batch for l in fwd[e]}):
            out[f"tensor.L{layer:02d}.fwd_ms"] = _median([fwd[e][layer] for e in at_batch])
            out[f"tensor.L{layer:02d}.mflop"] = mflop[(fwd_batch, layer)]
    bwd_batches = Counter(spans[e][4]["batch"] for e in {enc for enc, _ in tracer.bwd})
    if bwd_batches:
        bwd_batch = max(bwd_batches, key=lambda b: (bwd_batches[b], b))
        out["tensor.bwd_batch"] = bwd_batch
        per_layer = defaultdict(list)
        for (enc, layer), seconds in tracer.bwd.items():
            if spans[enc][4]["batch"] == bwd_batch:
                per_layer[layer].append(seconds * 1e3)
        for layer, values in sorted(per_layer.items()):
            out[f"tensor.L{layer:02d}.bwd_ms"] = _median(values)
    steps = durations("tensor.backward", within="cli.pretrain")
    if steps:
        out["tensor.backward_ms"] = _median(steps)
        out["tensor.adam_step_ms"] = sum(durations("tensor.adam_step", "cli.pretrain")) / len(steps)
    distances = by_name["model.distance"]
    if distances:
        out["tensor.ops_per_distance"] = (sum(spans[i][4]["tensors"] for i in distances)
                                          / len(distances))

    # model
    out["model.encode_train_ms"] = _median([_dur_ms(spans[e]) for e in encodes
                                            if spans[e][4]["train"]])
    embeds = by_name["model.embed_waves"]
    clips = sum(spans[i][4]["clips"] for i in embeds)
    if clips:
        out["model.embed_waves_ms"] = sum(_dur_ms(spans[i]) for i in embeds) / clips
    embedded = embeds + distances
    clips += 2 * len(distances)
    if clips:
        out["model.embed_waves.clips"] = clips
        out["model.embed_waves.repeat_share"] = sum(spans[i][4]["repeats"]
                                                    for i in embedded) / clips
    for name in ("waves_to_tensor", "distance_from_embeddings", "load_checkpoint",
                 "save_checkpoint"):
        out[f"model.{name}_ms"] = _median(durations(f"model.{name}"))

    # trainer
    for attr, stage in TRAIN_STAGES.items():
        for i in by_name[f"trainer.{attr}"]:
            out[f"trainer.{stage}.epoch_ms"] = _median(spans[i][4]["epoch_ms"])
            if stage == "pretrain":
                continue
            inside = [e for e in encodes if under(e, f"trainer.{attr}") == i]
            out[f"trainer.{stage}.clips_encoded"] = sum(spans[e][4]["batch"] for e in inside)
            out[f"trainer.{stage}.encode_share"] = (sum(_dur_ms(spans[e]) for e in inside)
                                                    / _dur_ms(spans[i]))

    # losses
    for attr in ("nt_xent", "bce", "margin_rank"):
        out[f"losses.{attr}_ms"] = _median(durations(f"losses.{attr}"))

    # evaluate
    for attr, metric in EVAL_RUNNERS.items():
        out[f"evaluate.{metric}_ms"] = _median(durations(f"evaluate.{attr}"))
    eval_embeds = [i for i in embeds if under(i, "cli.eval") is not None]
    eval_clips = sum(spans[i][4]["clips"] for i in eval_embeds)
    if eval_clips:
        out["evaluate.clips_embedded"] = eval_clips
        out["evaluate.repeat_share"] = sum(spans[i][4]["repeats"] for i in eval_embeds) / eval_clips

    # perturb
    applies = durations("perturb.apply")
    if applies:
        out["perturb.apply.calls"] = len(applies)
        out["perturb.apply_ms"] = _median(applies)

    # datagen: totals per traced phase
    groups = defaultdict(list)
    for attr, group in DATAGEN_GROUPS.items():
        groups[group].extend(durations(f"datagen.{attr}"))
    for group, values in groups.items():
        if values:
            out[f"datagen.{group}_ms"] = sum(values)

    # audio
    writes = by_name["audio.write_wav"]
    if writes:
        out["audio.write_wav_ms"] = _median([_dur_ms(spans[i]) for i in writes])
        out["audio.write_wav_mb"] = sum(spans[i][4]["bytes"] for i in writes) / 1e6
    out["audio.read_wav_ms"] = _median(durations("audio.read_wav"))

    # cli: stage time not covered by a child span
    for stage in CLI_STAGES.values():
        for i in by_name[f"cli.{stage}"]:
            out[f"cli.{stage}.self_ms"] = _dur_ms(spans[i]) - sum(_dur_ms(spans[c])
                                                                  for c in children[i])
    return {name: value for name, value in out.items() if value is not None}

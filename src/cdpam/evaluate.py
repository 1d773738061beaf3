"""Evaluation suite: rank correlation, 2AFC accuracy, distribution overlap,
monotonicity, and top-K retrieval precision.

The pure metric functions operate on plain arrays so they can be tested
against brute-force oracles; the ``run_*`` wrappers drive a trained model
over the evaluation datasets produced by :mod:`cdpam.datagen`, and each
returns its machine-readable :class:`EvalReport`.  An eval clip is named
only by its ``(utt_id, spec)`` key: :func:`clip_embedder` is the model's
keyed embedder with that key's render, ``apply(spec, clean)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .audio import replacing, write_json
from .datagen import (GroupedPair, JudgmentRecord, MonoSeriesItem, MosRow, RetrievalItem,
                      corpus_by_id)
from .errors import ContractError, DataError, DegenerateInputError, check_value
from .perturb import apply

DEFAULT_BINS = 50


# -- pure metric math ---------------------------------------------------------------


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties assigned their group average; NaNs tie with each other, last."""
    _, group, counts = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True,
                                 return_counts=True)
    # a tie group ending at 1-based position `end` holds ranks end - count + 1 .. end
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[group]


def spearman(xs, ys) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ContractError("spearman needs two equal-length series of length >= 2")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateInputError("spearman is undefined for a constant series")
    rx = average_ranks(x)
    ry = average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def mos_correlation(distances, ratings, speaker_ids, condition_ids) -> float:
    """Spearman correlation after per-(speaker, condition) averaging.

    Distances anti-correlate with quality, so the sign convention is
    spearman(-mean distance, mean rating): +1 means perfect agreement.
    Every (speaker, condition) cell must be populated.
    """
    d = np.asarray(distances, dtype=np.float64)
    r = np.asarray(ratings, dtype=np.float64)
    speakers = list(speaker_ids)
    conditions = list(condition_ids)
    if not (d.size == r.size == len(speakers) == len(conditions)):
        raise ContractError("mos_correlation inputs must be parallel")
    cells: dict = {}
    for dist, rating, spk, cond in zip(d, r, speakers, conditions):
        cells.setdefault((spk, cond), []).append((dist, rating))
    speaker_set = sorted({s for s, _ in cells})
    condition_set = sorted({c for _, c in cells})
    missing = [(s, c) for s in speaker_set for c in condition_set if (s, c) not in cells]
    if missing:
        raise DataError(f"empty (speaker, condition) cells: {missing[:5]}")
    mean_d = []
    mean_r = []
    for key in sorted(cells):
        pairs = np.array(cells[key])
        mean_d.append(pairs[:, 0].mean())
        mean_r.append(pairs[:, 1].mean())
    return spearman(-np.asarray(mean_d), mean_r)


def two_afc_from_distances(d_a, d_b, labels) -> float:
    """Fraction of triplets where the smaller distance matches the label; ties score 0.5."""
    d_a = np.asarray(d_a, dtype=np.float64)
    d_b = np.asarray(d_b, dtype=np.float64)
    if d_a.size == 0 or d_a.size != d_b.size or d_a.size != len(labels):
        raise ContractError("two_afc needs parallel non-empty distance/label arrays")
    score = 0.0
    for da, db, label in zip(d_a, d_b, labels):
        if label not in ("A", "B"):
            raise ContractError(f"a two_afc label must be 'A' or 'B', got {label!r}")
        if da == db:
            score += 0.5
        elif (da < db) == (label == "A"):
            score += 1.0
    return score / d_a.size


def _binned(groups: dict) -> dict:
    """Each group's normalized histogram in DEFAULT_BINS bins over the pooled range; a pool
    of one value spans [value, value + 1], so that it falls in bin 0."""
    groups = {name: np.asarray(v, dtype=np.float64) for name, v in groups.items()}
    values = np.concatenate(list(groups.values()))
    lo, hi = float(values.min()), float(values.max())
    edges = np.linspace(lo, hi if hi > lo else lo + 1.0, DEFAULT_BINS + 1)
    return {name: np.histogram(v, bins=edges)[0] / v.size for name, v in groups.items()}


def common_area(group_same, group_diff) -> float:
    """Overlap of the two groups' normalized histograms (:func:`_binned`)."""
    if np.size(group_same) == 0 or np.size(group_diff) == 0:
        raise ContractError("common_area needs two non-empty groups")
    same, diff = _binned({"same": group_same, "diff": group_diff}).values()
    return float(np.minimum(same, diff).sum())


def precision_at_k(embeddings, labels, k: int) -> float:
    """Mean precision of the k nearest neighbours by cosine distance.

    Neighbours are ranked by ascending cosine distance of the embeddings with
    ties broken by item index; the query itself is excluded.
    """
    check_value("k", k, "int", lo=1)
    emb = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if emb.ndim != 2 or emb.shape[0] != y.size:
        raise ContractError("precision_at_k needs [n, d] embeddings with parallel labels")
    n = emb.shape[0]
    if n < k + 1:
        raise DataError(f"need at least k+1={k + 1} items, got {n}")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2 or counts.min() < 2:
        raise DataError("need >= 2 classes with >= 2 members each")
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateInputError("zero embedding vector")
    unit = emb / norms
    distance = 1.0 - unit @ unit.T
    hits = 0.0
    for i in range(n):
        order = np.argsort(distance[i], kind="stable")
        top = [j for j in order if j != i][:k]
        hits += float(np.sum(y[top] == y[i])) / k
    return hits / n


# -- model-driven runners --------------------------------------------------------------


def clip_embedder(model, corpus):
    """``model.keyed_embedder`` over eval clips named by their ``(utt_id, spec)`` key.

    A key renders as ``apply(spec, clean)``, and ``spec=None`` names the clean
    clip.  A key whose utterance the corpus lacks raises DataError naming it.
    """
    by_id = corpus_by_id(corpus)

    def render(key):
        utt, spec = key
        return by_id[utt].clean if spec is None else apply(spec, by_id[utt].clean)

    return model.keyed_embedder(render)


def _distances(model, embed, keys_x, keys_y) -> np.ndarray:
    from .tensor import Tensor
    return model.distance_from_embeddings(Tensor(embed(keys_x)), Tensor(embed(keys_y))).data.copy()


def _require(records, dataset: str) -> None:
    if not records:
        raise DataError(f"the {dataset} set is empty")


def run_two_afc(model, embed, records) -> EvalReport:
    _require(records, "two-AFC triplet")
    refs = [(r.ref_id, None) for r in records]
    d_a = _distances(model, embed, refs, [(r.ref_id, r.spec_a) for r in records])
    d_b = _distances(model, embed, refs, [(r.ref_id, r.spec_b) for r in records])
    return EvalReport("two_afc", two_afc_from_distances(d_a, d_b, [r.label for r in records]),
                      len(records))


def _common_area_groups(model, embed, pairs) -> dict:
    """{"same": distances, "diff": distances} over the common-area pairs."""
    _require(pairs, "common-area")
    if not {"same", "diff"} <= {p.group for p in pairs}:
        raise DataError("the common-area set needs both 'same' and 'diff' pairs")
    d = _distances(model, embed, [(p.utt_a, p.spec_a) for p in pairs],
                   [(p.utt_b, p.spec_b) for p in pairs])
    return {group: np.array([di for di, p in zip(d, pairs) if p.group == group])
            for group in ("diff", "same")}


def run_common_area(model, embed, pairs) -> EvalReport:
    groups = _common_area_groups(model, embed, pairs)
    return EvalReport("common_area", common_area(groups["same"], groups["diff"]), len(pairs),
                      breakdown=[{"group": g, "mean_distance": float(v.mean())}
                                 for g, v in groups.items()])


def run_monotonicity(model, embed, items) -> EvalReport:
    """Mean over families of the pooled Spearman(distance-to-clean, level), and each rho."""
    _require(items, "monotonicity series")
    distances = _distances(model, embed, [(item.utt_id, None) for item in items],
                           [(item.utt_id, item.spec) for item in items])
    breakdown = []
    for family in sorted({item.family for item in items}):
        index = [i for i, item in enumerate(items) if item.family == family]
        breakdown.append({"family": family,
                          "rho": spearman(distances[index], [items[i].level for i in index])})
    return EvalReport("monotonicity", float(np.mean([row["rho"] for row in breakdown])),
                      len(items), breakdown=breakdown)


def run_precision_at_k(model, embed, items, k: int = 5) -> EvalReport:
    _require(items, "retrieval")
    emb = embed([(item.utt_id, item.spec) for item in items])
    labels = np.array([item.group_id for item in items])
    return EvalReport("precision_at_k", precision_at_k(emb, labels, k), len(items), {"k": k})


def run_mos_correlation(model, embed, rows) -> EvalReport:
    _require(rows, "MOS")
    distances = _distances(model, embed, [(row.utt_id, None) for row in rows],
                           [(row.utt_id, row.spec) for row in rows])
    return EvalReport("mos_correlation", mos_correlation(
        distances, [row.rating for row in rows], [row.speaker_id for row in rows],
        [row.condition_id for row in rows]), len(rows))


# -- reports ------------------------------------------------------------------------------


@dataclass
class EvalReport:
    metric: str
    value: float
    n: int
    config: dict = field(default_factory=dict)
    breakdown: list = field(default_factory=list)


def write_reports_json(reports, path) -> None:
    write_json({report.metric: dataclasses.asdict(report) for report in reports}, path)


def write_reports_csv(reports, path) -> None:
    with replacing(path) as fh:
        fh.write("metric,value,n\n")
        for report in reports:
            fh.write(f"{report.metric},{report.value:.10g},{report.n}\n")


def svg_histogram(groups: dict, path) -> None:
    """Overlaid normalized histograms as a dependency-free, deterministic SVG."""
    n_bins, width, height = DEFAULT_BINS, 640, 240
    colors = ("#4878cf", "#d65f5f", "#6acc65")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    hists = _binned(groups)
    peak = max(h.max() for h in hists.values()) or 1.0
    bar_w = width / n_bins
    for color, (name, hist) in zip(colors, sorted(hists.items())):
        for i, p in enumerate(hist):
            if p == 0:
                continue
            bar_h = (height - 20) * p / peak
            parts.append(f'<rect x="{i * bar_w:.2f}" y="{height - bar_h:.2f}" '
                         f'width="{bar_w:.2f}" height="{bar_h:.2f}" fill="{color}" '
                         f'fill-opacity="0.5"><title>{name}</title></rect>')
    parts.append("</svg>")
    with replacing(path) as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


# each metric's eval set, in report order: the file under eval/ and the record type that
# run_<metric> scores
EVAL_SETS = {"two_afc": ("triplets.jsonl", JudgmentRecord),
             "common_area": ("common_area.jsonl", GroupedPair),
             "monotonicity": ("mono.jsonl", MonoSeriesItem),
             "precision_at_k": ("retrieval.jsonl", RetrievalItem),
             "mos_correlation": ("mos.jsonl", MosRow)}
ALL_METRICS = tuple(EVAL_SETS)


def run_full_eval(model, corpus, datasets: dict, metrics=ALL_METRICS, k: int = 5,
                  config_echo: dict | None = None, histogram_path=None) -> list:
    """Run the requested metrics over pre-built evaluation datasets.

    `datasets` maps each metric to its eval set's record list (see
    :data:`EVAL_SETS`), whose clips are ``(utt_id, spec)`` keys into
    `corpus`.  Returns each runner's EvalReport, `config_echo` merged under
    its config.  An unknown or repeated metric name raises ContractError
    before any metric runs.  The runners share one :func:`clip_embedder`, so
    a clip that several datasets hold is rendered and embedded once per call.
    The histogram is drawn only once every requested metric has returned.
    """
    for i, metric in enumerate(metrics):
        if metric not in ALL_METRICS:
            raise ContractError(f"unknown metric {metric!r}")
        if metric in metrics[:i]:
            raise ContractError(f"metric {metric!r} is requested twice")
    embed = clip_embedder(model, corpus)
    options = {"precision_at_k": {"k": k}}
    reports = []
    for metric in metrics:
        # looked up per call, so that a wrapped run_* attribute is the one run
        report = globals()[f"run_{metric}"](model, embed, datasets[metric],
                                            **options.get(metric, {}))
        report.config = {**(config_echo or {}), **report.config}
        reports.append(report)
    if histogram_path is not None and "common_area" in metrics:
        # the embeddings are cached: this recomputes the distances, and embeds nothing
        svg_histogram(_common_area_groups(model, embed, datasets["common_area"]), histogram_path)
    return reports

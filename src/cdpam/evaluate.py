"""Evaluation suite: rank correlation, 2AFC accuracy, distribution overlap,
monotonicity, and top-K retrieval precision.

The pure metric functions operate on plain arrays so they can be tested
against brute-force oracles; the ``run_*`` wrappers drive a trained model
over the evaluation datasets produced by :mod:`cdpam.datagen` and emit
machine-readable :class:`EvalReport` records.  An eval clip is named only by
its ``(utt_id, spec)`` key: :func:`clip_embedder` renders a key as
``apply(spec, clean)`` the first time it is asked for and caches its
embedding row.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .datagen import corpus_by_id
from .errors import ContractError, DataError, DegenerateInputError
from .perturb import apply

DEFAULT_BINS = 50


# -- pure metric math ---------------------------------------------------------------


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties assigned their group average."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    sorted_v = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


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
        if da == db:
            score += 0.5
        elif (da < db) == (label == "A"):
            score += 1.0
    return score / d_a.size


def common_area(group_same, group_diff, n_bins: int = DEFAULT_BINS) -> float:
    """Overlap of the two groups' normalized histograms over their pooled range."""
    a = np.asarray(group_same, dtype=np.float64)
    b = np.asarray(group_diff, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ContractError("common_area needs two non-empty groups")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        return 1.0
    edges = np.linspace(lo, hi, n_bins + 1)
    pa, _ = np.histogram(a, bins=edges)
    pb, _ = np.histogram(b, bins=edges)
    return float(np.minimum(pa / a.size, pb / b.size).sum())


def precision_at_k(embeddings, labels, k: int) -> float:
    """Mean precision of the k nearest neighbours by cosine distance.

    Neighbours are ranked by ascending cosine distance of the embeddings with
    ties broken by item index; the query itself is excluded.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
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
    """``model.embed_waves`` over eval clips named by their ``(utt_id, spec)`` key.

    ``spec=None`` names the clean clip.  Rows are cached by key, so the cache
    holds keys and embedding rows, never samples.  Each call renders only the
    keys it has not seen before, as ``apply(spec, clean)``, and embeds them in
    one batch; embeddings do not depend on batch composition.  A key whose
    utterance the corpus lacks raises DataError naming it.
    """
    by_id = corpus_by_id(corpus)
    rows: dict = {}

    def embed(keys) -> np.ndarray:
        fresh = list(dict.fromkeys(key for key in keys if key not in rows))
        if fresh:
            waves = [by_id[utt].clean if spec is None else apply(spec, by_id[utt].clean)
                     for utt, spec in fresh]
            rows.update(zip(fresh, model.embed_waves(waves)))
        return np.array([rows[key] for key in keys]).reshape(len(keys),
                                                             model.config.encoder.acoustic_dim)

    return embed


def _distances(model, embed, keys_x, keys_y) -> np.ndarray:
    from .tensor import Tensor
    return model.distance_from_embeddings(Tensor(embed(keys_x)), Tensor(embed(keys_y))).data.copy()


def _require(records, dataset: str) -> None:
    if not records:
        raise DataError(f"the {dataset} set is empty")


def run_two_afc(model, embed, triplets) -> tuple:
    _require(triplets, "two-AFC triplet")
    refs = [(t.ref_id, None) for t in triplets]
    d_a = _distances(model, embed, refs, [(t.ref_id, t.spec_a) for t in triplets])
    d_b = _distances(model, embed, refs, [(t.ref_id, t.spec_b) for t in triplets])
    return two_afc_from_distances(d_a, d_b, [t.label for t in triplets]), len(triplets)


def run_common_area(model, embed, grouped_pairs) -> tuple:
    _require(grouped_pairs, "common-area")
    if not {"same", "diff"} <= {p.group for p in grouped_pairs}:
        raise DataError("the common-area set needs both 'same' and 'diff' pairs")
    d = _distances(model, embed, [(p.utt_a, p.spec_a) for p in grouped_pairs],
                   [(p.utt_b, p.spec_b) for p in grouped_pairs])
    same = np.array([di for di, p in zip(d, grouped_pairs) if p.group == "same"])
    diff = np.array([di for di, p in zip(d, grouped_pairs) if p.group == "diff"])
    return common_area(same, diff), {"same": same, "diff": diff}


def run_monotonicity(model, embed, items) -> tuple:
    """Pooled Spearman(distance-to-clean, level) per family series.

    Returns (mean rho over series, {family: rho}).
    """
    _require(items, "monotonicity series")
    distances = _distances(model, embed, [(item.utt_id, None) for item in items],
                           [(item.utt_id, item.spec) for item in items])
    per_family: dict = {}
    for family in sorted({item.family for item in items}):
        index = [i for i, item in enumerate(items) if item.family == family]
        levels = [items[i].level for i in index]
        per_family[family] = spearman(distances[index], levels)
    return float(np.mean(list(per_family.values()))), per_family


def run_precision_at_k(model, embed, retrieval_items, k: int = 5) -> tuple:
    _require(retrieval_items, "retrieval")
    emb = embed([(item.utt_id, item.spec) for item in retrieval_items])
    labels = np.array([item.group_id for item in retrieval_items])
    return precision_at_k(emb, labels, k), len(retrieval_items)


def run_mos_correlation(model, embed, mos_rows) -> tuple:
    _require(mos_rows, "MOS")
    distances = _distances(model, embed, [(row.utt_id, None) for row in mos_rows],
                           [(row.utt_id, row.spec) for row in mos_rows])
    rho = mos_correlation(distances,
                          [row.rating for row in mos_rows],
                          [row.speaker_id for row in mos_rows],
                          [row.condition_id for row in mos_rows])
    return rho, len(mos_rows)


# -- reports ------------------------------------------------------------------------------


@dataclass
class EvalReport:
    metric: str
    value: float
    n: int
    config: dict = field(default_factory=dict)
    breakdown: list = field(default_factory=list)


def write_reports_json(reports, path) -> None:
    payload = {report.metric: dataclasses.asdict(report) for report in reports}
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def write_reports_csv(reports, path) -> None:
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("metric,value,n\n")
        for report in reports:
            fh.write(f"{report.metric},{report.value:.10g},{report.n}\n")
    os.replace(tmp, path)


def svg_histogram(groups: dict, path) -> None:
    """Overlaid normalized histograms as a dependency-free, deterministic SVG."""
    n_bins, width, height = DEFAULT_BINS, 640, 240
    values = np.concatenate([np.asarray(v, dtype=np.float64) for v in groups.values()])
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, n_bins + 1)
    colors = ("#4878cf", "#d65f5f", "#6acc65")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    hists = {name: np.histogram(np.asarray(v, dtype=np.float64), bins=edges)[0] / len(v)
             for name, v in groups.items()}
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
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
    os.replace(tmp, path)


ALL_METRICS = ("two_afc", "common_area", "monotonicity", "precision_at_k", "mos_correlation")


def run_full_eval(model, corpus, datasets: dict, metrics=ALL_METRICS, k: int = 5,
                  config_echo: dict | None = None, histogram_path=None) -> list:
    """Run the requested metrics over pre-built evaluation datasets.

    `datasets` maps dataset keys (see :data:`cdpam.datagen.EVAL_SETS`) to
    their record lists, whose clips are ``(utt_id, spec)`` keys into
    `corpus`.  Returns one EvalReport per metric.  An unknown or repeated
    metric name raises ContractError before any metric runs.  The runners
    share one :func:`clip_embedder`, so a clip that several datasets hold is
    rendered and embedded once per call.
    """
    for i, metric in enumerate(metrics):
        if metric not in ALL_METRICS:
            raise ContractError(f"unknown metric {metric!r}")
        if metric in metrics[:i]:
            raise ContractError(f"metric {metric!r} is requested twice")
    echo = config_echo or {}
    embed = clip_embedder(model, corpus)
    reports = []
    for metric in metrics:
        if metric == "two_afc":
            value, n = run_two_afc(model, embed, datasets["triplets"])
            reports.append(EvalReport("two_afc", value, n, echo))
        elif metric == "common_area":
            value, groups = run_common_area(model, embed, datasets["grouped_pairs"])
            if histogram_path is not None:
                svg_histogram(groups, histogram_path)
            reports.append(EvalReport("common_area", value, len(datasets["grouped_pairs"]), echo,
                                      breakdown=[{"group": g, "mean_distance": float(v.mean())}
                                                 for g, v in sorted(groups.items())]))
        elif metric == "monotonicity":
            value, per_family = run_monotonicity(model, embed, datasets["mono_items"])
            reports.append(EvalReport("monotonicity", value, len(datasets["mono_items"]), echo,
                                      breakdown=[{"family": f, "rho": r}
                                                 for f, r in sorted(per_family.items())]))
        elif metric == "precision_at_k":
            value, n = run_precision_at_k(model, embed, datasets["retrieval_items"], k=k)
            reports.append(EvalReport("precision_at_k", value, n, {**echo, "k": k}))
        elif metric == "mos_correlation":
            value, n = run_mos_correlation(model, embed, datasets["mos_rows"])
            reports.append(EvalReport("mos_correlation", value, n, echo))
    return reports

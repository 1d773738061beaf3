"""Training objectives: NT-Xent, binary cross-entropy, margin ranking.

All three return scalar (or per-pair) Tensors wired into the autodiff graph,
so gradients flow to whatever produced their inputs.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError, check_value
from .tensor import Tensor

BCE_CLAMP = 1e-7


def nt_xent(z: Tensor, tau: float = 0.5) -> Tensor:
    """Normalized temperature-scaled cross-entropy over one batch of pairs.

    z stacks the 2N projected views: rows k and N + k form a positive pair.
    Every one of the 2N vectors acts as an anchor whose softmax (over cosine
    similarity / tau) ranges over the other 2N-1 vectors; the loss is the
    mean anchor cross-entropy with the partner as the positive class.
    """
    check_value("tau", tau, "number", lo=0, ends="(]")
    if z.data.ndim != 2 or z.shape[0] % 2:
        raise ShapeError(f"nt_xent expects a [2N, d] stack of views, got {z.shape}")
    two_n = z.shape[0]
    n = two_n // 2
    if n < 2:
        raise ContractError("nt_xent needs at least 2 pairs so negatives exist")

    zn = T.normalize_rows(z)
    sims = T.mul(T.matmul(zn, T.transpose2d(zn)), Tensor(1.0 / tau))

    # drop each anchor's own similarity from its softmax support
    diag_penalty = Tensor(np.where(np.eye(two_n, dtype=bool), -1e30, 0.0))
    logits = T.add(sims, diag_penalty)

    shift = Tensor(logits.data.max(axis=1, keepdims=True))  # constant shift, exact for gradients
    lse = T.add(T.log(T.sum_(T.exp(T.sub(logits, shift)), axis=1, keepdims=True)), shift)

    partner = np.zeros((two_n, two_n))
    partner[np.arange(n), np.arange(n) + n] = 1.0
    partner[np.arange(n) + n, np.arange(n)] = 1.0
    positives = T.sum_(T.mul(logits, Tensor(partner)), axis=1, keepdims=True)

    return T.mean_(T.sub(lse, positives))


def bce(p: Tensor, label) -> Tensor:
    """Binary cross-entropy with probabilities clamped to [1e-7, 1 - 1e-7].

    `label` may be a scalar or an array matching p; the result is the mean
    over elements.
    """
    y = np.asarray(label, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ContractError("bce labels must be 0 or 1")
    p_safe = T.clamp(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    y_t = Tensor(np.broadcast_to(y, p_safe.shape).copy())
    one = Tensor(np.ones_like(p_safe.data))
    term = T.add(T.mul(y_t, T.log(p_safe)),
                 T.mul(T.sub(one, y_t), T.log(T.sub(one, p_safe))))
    return T.mean_(T.mul(term, Tensor(-1.0)))


def margin_rank(d_pref: Tensor, d_other: Tensor, margin: float = 0.1) -> Tensor:
    """max(0, d_pref - d_other + margin), elementwise.

    d_pref is the distance of the recording the annotator judged closer to
    the reference, so the loss is zero once it beats d_other by the margin.
    """
    if np.any(d_pref.data < 0.0) or np.any(d_other.data < 0.0):
        raise ContractError("distances must be non-negative")
    check_value("margin", margin, "number")
    return T.leaky_relu(T.add(T.sub(d_pref, d_other), Tensor(margin)), 0.0)

"""Dense float64 tensors with recorded-operation reverse-mode differentiation.

A Tensor wraps a numpy array and, when gradients are requested, remembers the
operation that produced it.  Every op computes its forward value and hands
:func:`_make` one vector-Jacobian product (VJP) per input: a function from the
output's gradient to that input's gradient.  Of the ops, only ``_make`` reads
``requires_grad`` or accumulates: its one backward closure calls the VJP of
each input that requires a gradient, in input order, and adds the result
into that input's ``.grad``.  Calling ``backward()`` on a scalar root
runs these closures in reverse topological order, so fan-out sums naturally.
An input's first gradient adopts a C-ordered VJP result that nothing else
holds, in place, instead of copying it (see :func:`_make`); every gradient
is C-ordered, whatever the layout of its tensor's data.

``backward()`` frees the graph as it walks it, as PyTorch does by default:
after a node's closure has run, the node drops its gradient, closure and
parent edges, so each activation and interior gradient is freed once nothing
upstream needs it, and only the leaves keep a ``.grad``.  A training step
therefore holds one graph at a time, and an encoder layer keeps at most one
full-size array of it for backward, its conv output (see the epilogues
below).  Beyond what the graph keeps, an encoder layer's backward holds one
output gradient and one new full-size array at a time, conv1d's input
gradient, and per-item buffers: BatchNorm builds its input's gradient in
its output's gradient.  Each graph gets one
backward: a second one through a released node raises
:class:`ContractError` instead of leaving the leaves without gradients.

Every operation validates that its output is finite (NaN/Inf raises
:class:`NumericError`), which is what lets training abort on divergence
instead of silently continuing.

conv1d is an im2col feeding BLAS, one batch item at a time, which matters
because everything here runs on the CPU in double precision.  Each item is
padded in one reused (Cin, L + 2*pad) row, which one read-only strided view
(:func:`_taps`, made once per call) shows as (Cin, K, Lout) taps whose rows
are contiguous in time, and copied into one reused (Cin*K, Lout) column
buffer; its (Cout, Cin*K) @ (Cin*K, Lout) product is written straight
into the item's slice of the (batch, Cout, Lout) output, so there is no
transposing copy and no output transpose.  Beyond its output, a conv holds
one item's columns and one padded item.  The weight and input VJPs walk the
items separately: dW fills the column buffer and accumulates g_b @ col_b^T,
and dX writes w^T @ g_b into the middle of one reused, zero-margined
(Cin, K, Lout + 2(K-1)) buffer.  A read-only skewed view of that buffer
(:func:`_skewed_taps`, one per output parity) puts every tap that lands on
one input position in one column, so a single np.add.reduce per item and
parity sums the taps straight onto the unpadded input (the col2im step), in
tap order, and dX needs no im2col of the input, no loop over the taps and
no padded copy.

conv1d also takes the layer's epilogue: its bias and, with ``slope``, a
leaky ReLU are applied to each item's output in place right after its GEMM,
while it is still in cache, and the result is checked for finite
values once.  With :func:`fold_batch_norm` an inference-mode encoder layer
(conv, BatchNorm, leaky ReLU) is one pass over its output instead of three.
The fold is plain numpy arithmetic on the layer's parameters, so the folded
weight and bias are constants: in inference mode gradients reach the input
waveform only, which is all that using the metric as a loss needs.  The
model computes each fold once per frozen model state and keeps it until a
training pass or ``set_trainable`` drops it (``PerceptualModel.encode``).
In training, batch_norm1d takes the leaky ReLU as its epilogue, in place, and
its backward rebuilds x-hat from its input and the per-channel statistics.

batch_norm1d walks the batch one item at a time too, forward and backward,
so that each pass over an item finds it in cache: a desk layer's whole
(32, C, L) batch is up to 4 MB, larger than a 2 MB L2, while an item is at
most 128 KB.  Its statistics and its backward's five per-channel sums add
each item's ``axis=1`` sums in item order (:func:`_item_order_sum`).  That
is the order in which numpy's ``sum``, ``mean`` and ``var`` over axes (0, 2)
add them: each (item, channel) row's pairwise sum goes into its channel's
total, item after item, and a Tier-1 test holds numpy to it.  Its per-item
steps are the whole-batch expression's, on per-channel vectors spread to one
item's shape (:func:`_spread`), so every output, gradient and running
statistic keeps its bits.  Its backward is two sweeps over the items: one
takes every sum, the other builds the input's gradient.

Every leaky ReLU, fused or not, has one derivative rule: with a slope in
[0, 1] the output is positive exactly where the input was, so the op's
``pre`` (:func:`_unleak`) reads the mask from the output (In-Place Activated
BatchNorm, Rota Bulo et al. 2018), and :func:`_make` applies it once, to the
output's gradient, before the VJPs.  :func:`_leaky` and :func:`_unleak` walk
a 3-D array's items, so neither builds a full-size temporary.

batch_norm1d's output also carries a rebuild function, the forward's own
elementwise expression, whole or on one item, so the encoder calls
:func:`release` on it once the next conv, or the pool, has read it
(recomputation for memory, Chen et al. 2016).  A conv1d output that
requires a gradient carries one too, the forward re-run on its input, which
its VJPs hold already; an inference output carries none, because a rebuild
would keep its input alive.  A released tensor reads like any other, by one
rule: ``.data`` rebuilds it whole, bit for bit, and keeps it; :func:`_items`
rebuilds it one item at a time and keeps nothing; ``.shape`` never rebuilds.
Backward reads a released output through :func:`_items`: the next conv's
weight gradient rebuilds each item and drops it, and batch_norm1d keeps each
item's leaky-ReLU mask, a bool array, for its own backward.  So a released
BatchNorm output is rebuilt once, one item at a time, and never whole; the
last layer's, which the pool reads no values of, is rebuilt for its mask
alone.  batch_norm1d reads its input whole and releases it once its backward
has built the input's gradient, so a later reader rebuilds it.  The encoder
also releases layer 1's conv output once that layer's BatchNorm has read it;
backward rebuilds it from the waveform once.  So layer 1's graph keeps no
full-size array, and each deeper layer keeps its conv output until its
BatchNorm's backward.

:func:`adam_step` updates the parameter tensors in place and keeps its step
count and moments per parameter name, so a parameter that a loss did not
reach neither moves nor counts that step.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import ContractError, DegenerateInputError, NumericError, ShapeError, check_value

_BN_EPS = 1e-5  # BatchNorm variance epsilon; batch_norm1d and fold_batch_norm must agree
_BN_MOMENTUM = 0.1  # weight of each training batch's statistics in the running ones
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by {op}")


_RELEASED = "backward() through a graph that an earlier backward() released; each graph gets one"


def _released(g):
    """The backward closure of a node whose graph a backward() has already walked."""
    raise ContractError(_RELEASED)


class Tensor:
    """N-dimensional float64 value participating in the autodiff graph."""

    __slots__ = ("_data", "shape", "grad", "requires_grad", "_parents", "_backward_fn", "_rebuild")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward_fn=None, _op="tensor"):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, _op)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._rebuild = None  # a function that recomputes `data` bit for bit, if the op gave one

    @property
    def data(self) -> np.ndarray:
        """The values; if :func:`release` dropped them, rebuilt once, bit for bit, and kept."""
        if self._data is None:
            self.data = self._rebuild()
        return self._data

    @data.setter
    def data(self, arr: np.ndarray) -> None:
        self._data = arr
        self.shape = arr.shape

    @property
    def size(self):
        return math.prod(self.shape)

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def _accumulate(self, g: np.ndarray, adopt: bool = False) -> None:
        """Add g into ``.grad``; with `adopt`, g is an array that nothing else holds.

        The first gradient is 0.0 + g, bit for bit, and C-ordered: an adopted
        C-ordered g becomes ``.grad`` in place, and any other g is copied.
        """
        if self.grad is not None:
            self.grad += g
        elif adopt and g.flags.c_contiguous:
            self.grad = np.add(g, 0.0, out=g)
        else:
            self.grad = np.add(g, 0.0, out=np.empty(self.shape))

    def backward(self) -> None:
        """Reverse-mode pass from a scalar root; gradients sum over fan-out.

        Interior nodes are popped off the topological order and released once
        their closure has run; leaves keep their ``.grad`` for :func:`adam_step`.
        """
        if self.size != 1:
            raise ContractError(f"backward() requires a scalar root, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward_fn is _released:
                raise ContractError(_RELEASED)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward_fn is None:  # a leaf keeps its .grad for adam_step
                continue
            node._backward_fn(node.grad)
            # gradient first, then closure, then the node and its activation: under glibc
            # the desk pretrain stage took fewer minor page faults in this order than with
            # the activation first when the two were measured
            node.grad, node._backward_fn, node._parents = None, _released, ()
            del node

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def release(t: Tensor) -> None:
    """Drop t's data if its op gave it a rebuild function; a no-op on any other tensor.

    Call it once every forward reader has consumed t.  A later read of
    ``.data`` rebuilds the whole array, bit for bit, and keeps it on t;
    :func:`_items` rebuilds one item at a time and keeps nothing; ``.shape``,
    ``.size`` and gradient accumulation never rebuild.
    """
    if t._rebuild is not None:
        t._data = None


def _items(t: Tensor):
    """t's data, or, if :func:`release` dropped it, an iterator over its items rebuilt one
    at a time and kept nowhere; either one iterates over t's items in order."""
    if t._data is None:
        return map(t._rebuild, range(t.shape[0]))
    return t._data


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _make(data, parents, vjps, op, pre=None):
    """The output tensor of `op`, and the one place that routes gradients to its parents.

    `vjps[i](g)` returns the gradient for `parents[i]` given the output's
    gradient `g`.  The backward closure calls it only for a parent that
    requires a gradient and accumulates in parent order, so a tensor that is
    two parents of one op, as in ``mul(z, z)``, gets its first parent's term
    first.  `pre`, if given, maps `g` once, before any VJP sees it; `g` is
    the output's own gradient array, so `pre` may overwrite it, and so may
    the last VJP that runs.

    A VJP returns a new array, a view, or `g`; never an array that it, or
    anything else, keeps.  A parent adopts a new array as its gradient
    instead of copying it (:meth:`Tensor._accumulate`), and `g` too when the
    last VJP that runs returns it: the node drops `g` once its closure ends.
    A view or broadcast, and `g` from an earlier VJP, are copied.
    """
    if not any(p.requires_grad for p in parents):
        return Tensor(data, _op=op)

    def backward(g):
        if pre is not None:
            g = pre(g)
        live = [i for i, p in enumerate(parents) if p.requires_grad]
        for i in live:
            r = vjps[i](g)
            # g itself only from the last VJP: an earlier one's parent would be handed the
            # array that the later VJPs still read
            parents[i]._accumulate(r, type(r) is np.ndarray and r.base is None
                                   and (r is not g or i == live[-1]))

    return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward_fn=backward, _op=op)


# -- elementwise ops --------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data + b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data - b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data * b.data, (a, b),
                 (lambda g: _unbroadcast(g * b.data, a.shape),
                  lambda g: _unbroadcast(g * a.data, b.shape)), "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = a.data / b.data
    return _make(out_data, (a, b),
                 (lambda g: _unbroadcast(g / b.data, a.shape),
                  lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
                 "div")


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(x.data)
    return _make(out_data, (x,), (lambda g: g * out_data,), "exp")


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(x.data)
    return _make(out_data, (x,), (lambda g: g / x.data,), "log")


def sqrt(x: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        out_data = np.sqrt(x.data)
    return _make(out_data, (x,), (lambda g: g * 0.5 / out_data,), "sqrt")


def absolute(x: Tensor) -> Tensor:
    return _make(np.abs(x.data), (x,), (lambda g: g * np.sign(x.data),), "abs")


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    return _make(np.clip(x.data, lo, hi), (x,),
                 (lambda g: g * ((x.data >= lo) & (x.data <= hi)),), "clamp")


def _leaky(x: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, slope*x), a 3-D x one item at a time, so its temporary slope*x is one item."""
    # max(x, slope*x) equals where(x > 0, x, slope*x) bit for bit when 0 <= slope <= 1
    if x.ndim < 3:
        return np.maximum(x, slope * x, out=out)
    out = np.empty_like(x) if out is None else out
    for xb, ob in zip(x, out):
        np.maximum(xb, slope * xb, out=ob)
    return out


def _unleak(g: np.ndarray, y, slope: float) -> np.ndarray:
    """g times the derivative of the leaky ReLU whose output is y, in place; returns g.

    A 3-D g goes one item at a time, so its mask is one item, and y may be
    any iterable of the output's items, such as :func:`_items` of a released
    output, or of their ``y > 0`` bool masks, which are used as they are.
    """
    # max(y > 0, slope) is exactly 1.0 or exactly slope: the select form's bits, branch-free
    for gb, yb in zip(g, y) if g.ndim == 3 else [(g, y)]:
        mask = yb if yb.dtype == bool else yb > 0.0
        np.multiply(gb, np.maximum(mask, slope, dtype=np.float64), out=gb)
    return g


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    check_value("leaky_relu slope", slope, "number", 0, 1)
    y = _leaky(x.data, slope)
    return _make(y, (x,), (lambda g: g,), "leaky_relu", pre=lambda g: _unleak(g, y, slope))


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))  # 1/(1+e) for d >= 0 and e/(1+e) below, so exp never overflows
    out_data = np.where(d >= 0.0, 1.0, e) / (1.0 + e)
    return _make(out_data, (x,), (lambda g: g * out_data * (1.0 - out_data),), "sigmoid")


# -- reductions and shape ops ------------------------------------------------

def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x.shape)  # _accumulate makes the one owned copy

    return _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), (vjp,), "sum")


def mean_(x: Tensor, axis=None) -> Tensor:
    """The mean over one int axis, or over every element when axis is None."""
    count = x.size if axis is None else x.shape[axis]
    return mul(sum_(x, axis=axis), Tensor(1.0 / count))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def vjp(g):
        gx = np.zeros(x.shape)
        gx[index] = g
        return gx

    return _make(x.data[index], (x,), (vjp,), "narrow")


def reshape(x: Tensor, shape) -> Tensor:
    return _make(x.data.reshape(shape), (x,), (lambda g: g.reshape(x.shape),), "reshape")


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError("transpose2d expects a 2-D tensor")
    return _make(x.data.T.copy(), (x,), (lambda g: g.T,), "transpose")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-D tensors")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    return _make(a.data @ b.data, (a, b),
                 (lambda g: g @ b.data.T, lambda g: a.data.T @ g), "matmul")


# -- neural-network layers ----------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[batch, d_in] @ w[d_out, d_in]^T + b."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear shape mismatch x{x.shape} w{w.shape}")
    return _make(x.data @ w.data.T + b.data, (x, w, b),
                 (lambda g: g @ w.data, lambda g: g.T @ x.data, lambda g: g.sum(axis=0)),
                 "linear")


def _taps(xp: np.ndarray, k: int, stride: int, out_len: int) -> np.ndarray:
    """The read-only (Cin, K, Lout) view taps[c, j, t] = xp[c, j + stride*t] of a padded row.

    One strided view of xp's memory, so a write to xp shows in it.
    """
    row, step = xp.strides
    taps = np.ndarray((xp.shape[0], k, out_len), xp.dtype, xp, strides=(row, step, step * stride))
    taps.flags.writeable = False
    return taps


def _columns(items, cin: int, length: int, k: int, stride: int):
    """Each (Cin, L) item's im2col columns: yields (b, col), col a (Cin*K, Lout) buffer.

    col[c*K+j, t] = xp[c,j+stride*t], xp being item b zero-padded by (k-1)//2
    on both ends.  Every item is padded in one reused row whose ends stay
    zero and copied into one reused column buffer, so the batch is never
    padded whole.  `items` is any iterable of items: a (B, Cin, L) array, or
    :func:`_items` of a released tensor, whose items are rebuilt one at a time.
    """
    pad, out_len = (k - 1) // 2, length // stride
    xp = np.zeros((cin, length + 2 * pad))
    taps = _taps(xp, k, stride, out_len)
    col = np.empty((cin, k, out_len))
    cols = col.reshape(cin * k, out_len)
    for b, item in enumerate(items):
        xp[:, pad:pad + length] = item
        np.copyto(col, taps)
        yield b, cols


def _conv1d_forward(x: np.ndarray, w: np.ndarray, stride: int,
                    bias: np.ndarray | None, slope: float | None) -> np.ndarray:
    batch, cin, length = x.shape
    cout, _, k = w.shape
    w2 = w.reshape(cout, cin * k)
    out = np.empty((batch, cout, length // stride))
    for b, col in _columns(x, cin, length, k, stride):
        item = out[b]
        np.matmul(w2, col, out=item)
        # the epilogue runs while the GEMM's output is still in cache
        if bias is not None:
            item += bias[:, None]
        if slope is not None:
            _leaky(item, slope, out=item)
    return out


def _skewed_taps(buf: np.ndarray, stride: int, width: int) -> list:
    """Read-only views of a (Cin, K, Lout + 2(K-1)) tap buffer, one per output parity r.

    buf[c, j, K-1+t] holds tap j of output step t, the rest of the row is a zero
    margin.  View r is (Cin, taps, positions) with [c, i, q] = buf[c, r + stride*i,
    K-1 + q - i]: tap r + stride*i of the output step that lands on padded input
    position r + stride*q, or a zero where no step does.
    """
    cin, k, _ = buf.shape
    row, tap, step = buf.strides
    views = []
    for r in range(stride):
        shape = (cin, len(range(r, k, stride)), len(range(r, width, stride)))
        view = np.ndarray(shape, buf.dtype, buf, offset=r * tap + (k - 1) * step,
                          strides=(row, stride * tap - step, step))
        view.flags.writeable = False
        views.append(view)
    return views


def _conv1d_dx(g: np.ndarray, w: np.ndarray, stride: int, length: int) -> np.ndarray:
    """Input gradient: w^T @ g_b per item, its taps summed onto the input by one reduction.

    Each item's product fills the middle of one zero-margined tap buffer, and
    np.add.reduce over the taps of each :func:`_skewed_taps` view, cut to the
    positions inside the padding, writes one parity of the item's (Cin, L)
    row, so no padded row is ever built.  It adds the taps in tap order,
    starting from 0.0: the same additions as adding each tap's strided row
    onto a zeroed padded row, so every position, its sign of zero included,
    keeps its bits.  The positions, the view's smallest stride, are numpy's
    inner loop, so the taps are never summed pairwise.
    """
    batch, cout, out_len = g.shape
    _, cin, k = w.shape
    pad = (k - 1) // 2
    w2 = w.reshape(cout, cin * k)
    dx = np.empty((batch, cin, length))  # the parities' reductions write every position
    buf = np.zeros((cin, k, out_len + 2 * (k - 1)))
    cols = buf[:, :, k - 1:k - 1 + out_len].reshape(cin * k, out_len)
    sums = []  # (first input position, taps of the positions s, s + stride, ...)
    for r, taps in enumerate(_skewed_taps(buf, stride, length + 2 * pad)):
        s = (r - pad) % stride  # padded position r + stride*q is input position r + stride*q - pad
        q = (s + pad - r) // stride
        sums.append((s, taps[:, :, q:q + len(range(s, length, stride))]))
    for b in range(batch):
        np.matmul(w2.T, g[b], out=cols)
        for s, taps in sums:
            np.add.reduce(taps, axis=1, out=dx[b, :, s::stride])
    return dx


def _conv1d_dw(g: np.ndarray, x, w_shape: tuple, stride: int) -> np.ndarray:
    """Weight gradient: the sum over items of g_b @ col_b^T, col_b the im2col of x's item b.

    x is any iterable of the input's items (see :func:`_columns`).
    """
    cout, cin, k = w_shape
    dw2 = np.zeros((cout, cin * k))
    for b, col in _columns(x, cin, g.shape[2] * stride, k, stride):
        dw2 += g[b] @ col.T
    return dw2.reshape(w_shape)


def conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride: int = 1,
           slope: float | None = None) -> Tensor:
    """Cross-correlation with "same" framing: out[b,o,t] = sum x[b,c,t*stride+j-pad] w[o,c,j].

    Requires an odd kernel, stride 1 or 2, and a length divisible by the
    stride; output length is len/stride.  With ``slope`` the output passes
    through ``leaky_relu(., slope)`` in the same pass, bit for bit.

    An output that requires a gradient may be dropped with :func:`release`:
    its rebuild runs the forward again on x, w and bias, whole or on one
    item, so they must not change before backward.  The weight gradient
    reads a released x one item at a time.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError("conv1d expects x[batch, ch, len] and w[out, ch, k]")
    batch, cin, length = x.shape
    cout, cin_w, k = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv1d channel mismatch: x has {cin}, w expects {cin_w}")
    if k % 2 == 0:
        raise ShapeError(f"conv1d kernel must be odd, got {k}")
    if stride not in (1, 2):
        raise ShapeError(f"conv1d stride must be 1 or 2, got {stride}")
    if length % stride != 0:
        raise ShapeError(f"conv1d length {length} not divisible by stride {stride}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv1d bias must have shape ({cout},)")
    if slope is not None:
        check_value("conv1d slope", slope, "number", 0, 1)

    def output(b=None):  # the forward, and the rebuild of a released output or of its item b
        xs = x.data if b is None else x.data[b:b + 1]
        y = _conv1d_forward(xs, w.data, stride, None if bias is None else bias.data, slope)
        return y if b is None else y[0]

    parents = (x, w) if bias is None else (x, w, bias)
    vjps = (lambda g: _conv1d_dx(g, w.data, stride, length),
            lambda g: _conv1d_dw(g, _items(x), w.shape, stride),
            lambda g: g.sum(axis=(0, 2)))
    # `pre` reads the output through `out`, a cycle that backward breaks when it drops it
    out = _make(output(), parents, vjps[:len(parents)], "conv1d",
                pre=None if slope is None else lambda g: _unleak(g, _items(out), slope))
    if out.requires_grad:  # the VJPs hold x and w already; here the rebuild keeps nothing alive
        out._rebuild = output
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the temporal axis of x[batch, ch, len] -> [batch, ch]."""
    if x.data.ndim != 3:
        raise ShapeError("global_avg_pool expects x[batch, ch, len]")
    length = x.shape[2]
    return _make(x.data.mean(axis=2), (x,),
                 (lambda g: np.broadcast_to(g[:, :, None] / length, x.shape),),
                 "global_avg_pool")


def _item_order_sum(parts) -> np.ndarray:
    """The sum of the arrays `parts` yields, added in the order it yields them.

    Each part may be a buffer that the iterator reuses: it is read before the
    next one is made.  With one part per item of a (B, C, L) batch, each the
    item's ``axis=1`` sums, this equals numpy's ``sum(axis=(0, 2))`` of the
    batch bit for bit: that reduction adds each (item, channel) row's pairwise
    sum into its channel's total, item after item (tests/test_tensor.py holds
    numpy to it).
    """
    parts = iter(parts)
    total = next(parts).copy()
    for part in parts:
        total += part
    return total


def _spread(length: int, *vectors) -> list:
    """Each per-channel vector repeated along time: a contiguous (C, length) plane.

    An item's elementwise step with a plane has the bits of the same step with
    the vector as a (C, 1) column broadcast over the item, and numpy runs it
    faster than the broadcast.
    """
    return [np.repeat(v[:, None], length, axis=1) for v in vectors]


def batch_norm1d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 train: bool, slope: float | None = None) -> Tensor:
    """Per-channel batch norm over (batch, time) for x[batch, ch, len], in training mode.

    The batch statistics normalize the batch and update the running
    statistics in place (biased variance, momentum 0.1); inference folds the
    running statistics into the conv instead (:func:`fold_batch_norm`).  With
    ``slope`` the output passes through ``leaky_relu(., slope)`` in place, bit
    for bit, as in :func:`conv1d`.

    Forward and backward walk the batch one (ch, len) item at a time, as
    conv1d does, so each pass over an item finds it in cache, and no
    temporary is larger than one item.  The mean, the variance and
    backward's per-channel sums add up each item's ``axis=1`` sums in item
    order (:func:`_item_order_sum`), which is bit for bit what numpy's
    ``mean``, ``var`` and ``sum`` over axes (0, 2) compute.  Each item's
    elementwise steps are the ones the whole-batch expression takes, with the
    per-channel vectors spread to one item's shape (:func:`_spread`).  So the
    output, the gradients and the running statistics keep their bits.

    The output may be dropped with :func:`release`: its rebuild runs the
    forward's expression again on x, the batch statistics, gamma and beta,
    whole or on one item, so gamma and beta must not change before backward.
    The graph then keeps per-channel vectors and x, which may itself be
    released (a conv output is), since every read of x goes through its
    rebuild.  Backward makes two sweeps over the items.  The first is the
    op's ``pre``.  It applies the leaky ReLU's mask to the output's gradient g,
    taking the mask from the bool masks that backward's first reader kept as
    it rebuilt a released output's items in order, or else from the output's
    items.  Then, item by item, it turns g into x-hat's gradient and takes the
    five per-channel sums the gradients need.  gamma's and beta's VJPs return
    two of them.  x's VJP is the second sweep: it builds dx in g, which
    becomes x's gradient, and releases x, so a later reader rebuilds it.
    """
    if not train:
        raise ContractError("batch_norm1d normalizes on batch statistics only; inference "
                            "folds the running statistics into the conv with fold_batch_norm")
    if x.data.ndim != 3:
        raise ShapeError("batch_norm1d expects x[batch, ch, len]")
    batch, ch, length = x.shape
    if gamma.shape != (ch,) or beta.shape != (ch,):
        raise ShapeError("batch_norm1d gamma/beta must be per-channel vectors")
    n = batch * length
    if n == 0:
        raise ShapeError(f"batch_norm1d needs batch statistics, got an empty batch {x.shape}")
    if slope is not None:
        check_value("batch_norm1d slope", slope, "number", 0, 1)
    # numpy reduces a one-channel batch as one (1, B*L) row, so the walk takes it as one item
    span = n if ch == 1 else length

    def walk(a):  # a C-ordered (B, C, L) array as the items the walk takes
        return a.reshape(-1, ch, span)

    xs = walk(x.data)
    mu = _item_order_sum(xb.sum(axis=1) for xb in xs) / n
    y = np.empty(x.shape)

    def squares(mu_):  # each item's squared deviations; the deviations go into y
        sq = np.empty((ch, span))
        for xb, yb in zip(xs, walk(y)):
            np.subtract(xb, mu_, out=yb)
            yield np.multiply(yb, yb, out=sq).sum(axis=1)

    var = _item_order_sum(squares(*_spread(span, mu))) / n
    running_mean *= 1.0 - _BN_MOMENTUM
    running_mean += _BN_MOMENTUM * mu
    running_var *= 1.0 - _BN_MOMENTUM
    running_var += _BN_MOMENTUM * var
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)

    def finish(y, inv_std_, gamma_, beta_):  # x - mu in y becomes the output, in place
        y *= inv_std_
        y *= gamma_
        y += beta_
        if slope is not None:
            _leaky(y, slope, out=y)
        return y

    planes = _spread(span, inv_std, gamma.data, beta.data)
    for yb in walk(y):
        finish(yb, *planes)
    del planes
    masks = []  # y > 0 of each item, kept as backward's first reader rebuilds them in order

    def rebuild(b=None):  # the output, or its item b, again
        # a released x is rebuilt whole even for one item: backward reads it whole anyway
        y = finish((x.data if b is None else x.data[b]) - mu[:, None], inv_std[:, None],
                   gamma.data[:, None], beta.data[:, None])
        if slope is not None and b == len(masks):
            masks.append(y > 0.0)
        return y

    sums = []  # from the first sweep: dgamma, dbeta, and the sums of x - mu, dxhat, (x - mu)*dxhat

    def sweep(g):  # `pre`: g becomes x-hat's gradient, dxhat, and every sum is taken on the way
        if slope is not None:  # the masks of backward's first reader, or the output's items
            _unleak(g, masks if len(masks) == batch else _items(out), slope)

        def parts():
            mu_, inv_std_, gamma_ = _spread(span, mu, inv_std, gamma.data)
            c, t, part = np.empty((ch, span)), np.empty((ch, span)), np.empty((5, ch))
            for gb, xb in zip(walk(g), walk(x.data)):
                np.add.reduce(gb, axis=1, out=part[1])
                np.subtract(xb, mu_, out=c)
                np.add.reduce(c, axis=1, out=part[2])
                np.multiply(c, inv_std_, out=t)  # x-hat
                t *= gb
                np.add.reduce(t, axis=1, out=part[0])
                gb *= gamma_
                np.add.reduce(gb, axis=1, out=part[3])
                c *= gb
                np.add.reduce(c, axis=1, out=part[4])
                yield part

        sums[:] = _item_order_sum(parts())
        masks.clear()
        return g

    def dx(g):
        # dxhat * inv_std + dvar * 2 * centered / n + dmu / n, summed left to right as
        # written, item by item in g, which holds dxhat, and in one item's buffer
        _, _, c_sum, dxhat_sum, c_dxhat = sums
        dvar = c_dxhat * (-0.5) * inv_std ** 3
        dmu = -dxhat_sum * inv_std + dvar * (-2.0 / n) * c_sum
        mu_, inv_std_, dvar2, dmu_n = _spread(span, mu, inv_std, dvar * 2.0, dmu / n)
        c = np.empty((ch, span))
        for gb, xb in zip(walk(g), walk(x.data)):
            gb *= inv_std_
            np.subtract(xb, mu_, out=c)
            c *= dvar2
            c /= n
            gb += c
            gb += dmu_n
        release(x)  # the last read of x in this backward; a later reader rebuilds it
        return g

    # `pre` reads the output through `out`, a cycle that backward breaks when it drops it
    out = _make(y, (gamma, beta, x), (lambda g: sums[0], lambda g: sums[1], dx),
                "batch_norm1d", pre=sweep)
    out._rebuild = rebuild
    return out


def fold_batch_norm(w: Tensor, gamma: Tensor, beta: Tensor,
                    running_mean: np.ndarray, running_var: np.ndarray) -> tuple[Tensor, Tensor]:
    """Weight and bias of one conv1d that computes conv1d(x, w) then inference batch_norm1d.

    With scale = gamma / sqrt(running_var + eps), eps being batch_norm1d's
    (_BN_EPS), the folded weight is w * scale per output channel and the
    folded bias is beta - running_mean * scale (Jacob et al. 2018).  Both are
    computed in numpy and returned as constant tensors: a conv1d on them
    passes gradients to its input only, never to w, gamma or beta.
    """
    scale = gamma.data * (1.0 / np.sqrt(running_var + _BN_EPS))
    return Tensor(w.data * scale.reshape(-1, 1, 1)), Tensor(beta.data - running_mean * scale)


def normalize_rows(z: Tensor) -> Tensor:
    """Scale each row of z[batch, d] to unit L2 norm; raises on zero rows."""
    norms_sq = sum_(mul(z, z), axis=1, keepdims=True)
    if np.any(norms_sq.data <= 0.0):
        raise DegenerateInputError("cannot normalize a zero row")
    return div(z, sqrt(norms_sq))


# -- Adam ---------------------------------------------------------------------

def adam_step(params: Mapping[str, Tensor], moments: dict, lr: float) -> None:
    """One bias-corrected Adam update, in place, of each parameter that holds a gradient.

    `moments` maps a parameter name to its (step count, first moment, second
    moment).  A parameter without a gradient keeps its value and its moments,
    so each one's bias correction counts only the steps whose loss reached it.
    Gradients are cleared afterwards.
    """
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        t, m, v = moments.get(name, (0, 0.0, 0.0))
        t += 1
        m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * g
        v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * g * g
        m_hat = m / (1.0 - _ADAM_BETA1 ** t)
        v_hat = v / (1.0 - _ADAM_BETA2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        moments[name] = (t, m, v)
        p.grad = None

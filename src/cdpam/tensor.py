"""Dense float64 tensors with recorded-operation reverse-mode differentiation.

A Tensor wraps a numpy array and, when gradients are requested, remembers the
operation that produced it.  Every op computes its forward value and hands
:func:`_make` one vector-Jacobian product (VJP) per input: a function from the
output's gradient to that input's gradient.  Of the ops, only ``_make`` reads
``requires_grad`` or accumulates: its one backward closure calls the VJP of
each input that requires a gradient, in input order, and adds the result
into that input's ``.grad``.  Calling ``backward()`` on a scalar root
runs these closures in reverse topological order, so fan-out sums naturally.

``backward()`` frees the graph as it walks it, as PyTorch does by default:
after a node's closure has run, the node drops its gradient, closure and
parent edges, so each activation and interior gradient is freed once nothing
upstream needs it, and only the leaves keep a ``.grad``.  A training step
therefore holds one graph at a time, and an encoder layer keeps one
full-size array of it for backward, its conv output (see the epilogues
below).  Each graph gets one backward: a second one through a released node
raises :class:`ContractError` instead of leaving the leaves without gradients.

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
and dX writes w^T @ g_b into one reused (Cin, K, Lout) buffer and scatters
it back onto the padded input with K strided adds, so dX needs no im2col of
the input.

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
its backward rebuilds x-hat from its input and the per-channel statistics
(In-Place Activated BatchNorm, Rota Bulo et al. 2018).  Its output also
carries a rebuild function, the forward's own expression, so the encoder
calls :func:`release` on it once the next conv has read it, and the first
backward VJP that reads it, the next conv's weight gradient, recomputes it
bit for bit (recomputation for memory, Chen et al. 2016): a layer's graph
keeps only the conv output.

:func:`adam_step` updates the parameter tensors in place and keeps its step
count and moments per parameter name, so a parameter that a loss did not
reach neither moves nor counts that step.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import ContractError, DegenerateInputError, NumericError, ShapeError

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


class _Dropped:
    """The data of a tensor that :func:`release` dropped: its shape stays, its values go."""

    __slots__ = ("shape",)

    def __init__(self, shape: tuple):
        self.shape = shape


class Tensor:
    """N-dimensional float64 value participating in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_rebuild")

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
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # one pass, no zero fill, the layout of zeros_like; bit-equal to 0.0 + g.  A
            # released tensor's gradient arrives before its rebuild; its data was C-ordered
            like = np.empty(self.shape) if type(self.data) is _Dropped else np.empty_like(self.data)
            self.grad = np.add(g, 0.0, out=like)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode pass from a scalar root; gradients sum over fan-out.

        Interior nodes are popped off the topological order and released once
        their closure has run; leaves keep their ``.grad`` for :func:`adam_step`.
        """
        if self.data.size != 1:
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
            # the desk pretrain stage takes about 230k minor page faults in this order and
            # 262k with the activation first (141k when the graph was kept whole)
            node.grad, node._backward_fn, node._parents = None, _released, ()
            del node

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def release(t: Tensor) -> None:
    """Drop t's data if its op gave it a rebuild function; a no-op on any other tensor.

    Call it once every forward reader has consumed t.  The first backward
    VJP that reads t rebuilds the data, bit for bit, and keeps it on t for
    the later readers; ``.shape`` and gradient accumulation work without it.
    """
    if t._rebuild is not None:
        t.data = _Dropped(t.shape)


def _value(t: Tensor) -> np.ndarray:
    """t's data, rebuilt once if :func:`release` dropped it."""
    if type(t.data) is _Dropped:
        t.data = t._rebuild()
    return t.data


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _make(data, parents, vjps, op):
    """The output tensor of `op`, and the one place that routes gradients to its parents.

    `vjps[i](g)` returns the gradient for `parents[i]` given the output's
    gradient `g`.  The backward closure calls it only for a parent that
    requires a gradient and accumulates in parent order, so a tensor that is
    two parents of one op, as in ``mul(z, z)``, gets its first parent's term
    first.
    """
    if not any(p.requires_grad for p in parents):
        return Tensor(data, _op=op)

    def backward(g):
        for parent, vjp in zip(parents, vjps):
            if parent.requires_grad:
                parent._accumulate(vjp(g))

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
                  lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape)), "div")


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
    # max(x, slope*x) equals where(x > 0, x, slope*x) bit for bit when slope <= 1
    pick = np.maximum if slope <= 1.0 else np.minimum
    return pick(x, slope * x, out=out)


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    return _make(_leaky(x.data, slope), (x,),
                 (lambda g: np.where(x.data > 0.0, g, slope * g),), "leaky_relu")


def relu(x: Tensor) -> Tensor:
    return leaky_relu(x, slope=0.0)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out_data = np.where(d >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                        np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    return _make(out_data, (x,), (lambda g: g * out_data * (1.0 - out_data),), "sigmoid")


# -- reductions and shape ops ------------------------------------------------

def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x.shape)  # _accumulate makes the one owned copy

    return _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), (vjp,), "sum")


def mean_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= x.shape[ax]
    return mul(sum_(x, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


def concat0(parts: list[Tensor]) -> Tensor:
    out_data = np.concatenate([p.data for p in parts], axis=0)
    ends = np.cumsum([p.shape[0] for p in parts])
    # each lambda binds its own rows as defaults, not the loop's last ones
    vjps = [lambda g, lo=end - p.shape[0], hi=end: g[lo:hi] for p, end in zip(parts, ends)]
    return _make(out_data, tuple(parts), vjps, "concat")


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def vjp(g):
        gx = np.zeros_like(x.data)
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
    return _make(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g),
                 "matmul")


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


def _columns(x: np.ndarray, k: int, stride: int):
    """Each batch item's im2col columns: yields (b, col), col a (Cin*K, Lout) buffer.

    col[c*K+j, t] = xp[b,c,j+stride*t], xp being x zero-padded by (k-1)//2
    on both ends.  Every item is padded in one reused row whose ends stay
    zero and copied into one reused column buffer, so x is never padded whole.
    """
    batch, cin, length = x.shape
    pad, out_len = (k - 1) // 2, length // stride
    xp = np.zeros((cin, length + 2 * pad))
    taps = _taps(xp, k, stride, out_len)
    col = np.empty((cin, k, out_len))
    cols = col.reshape(cin * k, out_len)
    for b in range(batch):
        xp[:, pad:pad + length] = x[b]
        np.copyto(col, taps)
        yield b, cols


def _conv1d_forward(x: np.ndarray, w: np.ndarray, stride: int,
                    bias: np.ndarray | None, slope: float | None) -> np.ndarray:
    batch, cin, length = x.shape
    cout, _, k = w.shape
    w2 = w.reshape(cout, cin * k)
    out = np.empty((batch, cout, length // stride))
    for b, col in _columns(x, k, stride):
        item = out[b]
        np.matmul(w2, col, out=item)
        # the epilogue runs while the GEMM's output is still in cache
        if bias is not None:
            item += bias[:, None]
        if slope is not None:
            _leaky(item, slope, out=item)
    return out


def _conv1d_dx(g: np.ndarray, w: np.ndarray, stride: int, length: int) -> np.ndarray:
    """Input gradient: w^T @ g_b per item, scattered onto the padded input by K strided adds."""
    batch, cout, out_len = g.shape
    _, cin, k = w.shape
    pad = (k - 1) // 2
    w2 = w.reshape(cout, cin * k)
    dxp = np.zeros((batch, cin, length + 2 * pad))
    col = np.empty((cin, k, out_len))
    cols = col.reshape(cin * k, out_len)
    for b in range(batch):
        np.matmul(w2.T, g[b], out=cols)
        for j in range(k):
            dxp[b, :, j:j + stride * (out_len - 1) + 1:stride] += col[:, j]
    return dxp[:, :, pad:pad + length]


def _conv1d_dw(g: np.ndarray, x: np.ndarray, w_shape: tuple, stride: int) -> np.ndarray:
    """Weight gradient: the sum over items of g_b @ col_b^T, col_b the item's im2col."""
    dw2 = np.zeros((w_shape[0], w_shape[1] * w_shape[2]))
    for b, col in _columns(x, w_shape[2], stride):
        dw2 += g[b] @ col.T
    return dw2.reshape(w_shape)


def conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride: int = 1,
           slope: float | None = None) -> Tensor:
    """Cross-correlation with "same" framing: out[b,o,t] = sum x[b,c,t*stride+j-pad] w[o,c,j].

    Requires an odd kernel, stride 1 or 2, and a length divisible by the
    stride; output length is len/stride.  With ``slope`` the output passes
    through ``leaky_relu(., slope)`` in the same pass, bit for bit; the slope
    must be non-negative, so the output is positive exactly where its input
    was and backward takes its mask from the output.
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
    if slope is not None and not slope >= 0.0:
        raise ContractError(f"conv1d slope must be non-negative, got {slope}")

    out_data = _conv1d_forward(x.data, w.data, stride, None if bias is None else bias.data, slope)

    def pre(g):  # gradient before the epilogue; in the encoder a slope means only dx runs
        return g if slope is None else np.where(out_data > 0.0, g, slope * g)

    parents = (x, w) if bias is None else (x, w, bias)
    vjps = (lambda g: _conv1d_dx(pre(g), w.data, stride, length),
            lambda g: _conv1d_dw(pre(g), _value(x), w.shape, stride),  # rebuilds a released x
            lambda g: pre(g).sum(axis=(0, 2)))
    return _make(out_data, parents, vjps[:len(parents)], "conv1d")


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the temporal axis of x[batch, ch, len] -> [batch, ch]."""
    if x.data.ndim != 3:
        raise ShapeError("global_avg_pool expects x[batch, ch, len]")
    length = x.shape[2]
    return _make(x.data.mean(axis=2), (x,),
                 (lambda g: np.broadcast_to(g[:, :, None] / length, x.shape),),
                 "global_avg_pool")


def batch_norm1d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 train: bool, slope: float | None = None) -> Tensor:
    """Per-channel batch norm over (batch, time) for x[batch, ch, len], in training mode.

    The batch statistics normalize the batch and update the running
    statistics in place (biased variance, momentum 0.1); inference folds the
    running statistics into the conv instead (:func:`fold_batch_norm`).  With
    ``slope`` the output passes through ``leaky_relu(., slope)`` in place, bit
    for bit, as in :func:`conv1d`.

    The output may be dropped with :func:`release`: its rebuild runs the
    forward's expression again on x, the batch statistics, gamma and beta, so
    gamma and beta must not change before backward.  The graph then keeps x
    and per-channel vectors.  Backward masks the output's gradient in place
    and builds at most two more full-size temporaries.
    """
    if not train:
        raise ContractError("batch_norm1d normalizes on batch statistics only; inference "
                            "folds the running statistics into the conv with fold_batch_norm")
    if x.data.ndim != 3:
        raise ShapeError("batch_norm1d expects x[batch, ch, len]")
    ch = x.shape[1]
    if gamma.shape != (ch,) or beta.shape != (ch,):
        raise ShapeError("batch_norm1d gamma/beta must be per-channel vectors")
    if slope is not None and not slope >= 0.0:
        raise ContractError(f"batch_norm1d slope must be non-negative, got {slope}")

    mu = x.data.mean(axis=(0, 2))
    var = x.data.var(axis=(0, 2))
    running_mean *= 1.0 - _BN_MOMENTUM
    running_mean += _BN_MOMENTUM * mu
    running_var *= 1.0 - _BN_MOMENTUM
    running_var += _BN_MOMENTUM * var
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)

    def centered():
        return x.data - mu[None, :, None]

    def normalized():  # x-hat; gamma's VJP rebuilds it, so the graph keeps no x-hat
        xhat = centered()
        xhat *= inv_std[None, :, None]
        return xhat

    def output():  # the forward, and the rebuild of an output that release() dropped
        y = normalized()
        y *= gamma.data[None, :, None]
        y += beta.data[None, :, None]
        if slope is not None:
            _leaky(y, slope, out=y)
        return y

    masked = [None]  # the gradient array that pre() has masked in place

    def pre(g):
        # the gradient before the epilogue, masked in place once per backward call: g is
        # the output node's own array.  Reading the output through `out` makes a cycle,
        # which backward breaks when it drops this closure
        if slope is not None and masked[0] is not g:
            np.multiply(g, slope, out=g, where=_value(out) <= 0.0)
            masked[0] = g
        return g

    def dx(g):
        # dxhat * inv_std + dvar * 2 * centered / n + dmu / n, summed left to right as
        # written, built in place in dxhat and centered, so only those two full-size
        # temporaries are ever alive: dvar's product goes into centered's buffer, and
        # centered is then rebuilt with the forward's expression
        dxhat = pre(g) * gamma.data[None, :, None]
        n = x.shape[0] * x.shape[2]
        c = centered()
        c_sum = c.sum(axis=(0, 2))
        c *= dxhat
        dvar = c.sum(axis=(0, 2)) * (-0.5) * inv_std ** 3
        dmu = -dxhat.sum(axis=(0, 2)) * inv_std + dvar * (-2.0 / n) * c_sum
        np.subtract(x.data, mu[None, :, None], out=c)
        dxhat *= inv_std[None, :, None]
        c *= dvar[None, :, None] * 2.0
        c /= n
        dxhat += c
        dxhat += dmu[None, :, None] / n
        return dxhat

    def dgamma(g):
        xhat = normalized()
        xhat *= pre(g)
        return xhat.sum(axis=(0, 2))

    out = _make(output(), (x, gamma, beta), (dx, dgamma, lambda g: pre(g).sum(axis=(0, 2))),
                "batch_norm1d")
    out._rebuild = output
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

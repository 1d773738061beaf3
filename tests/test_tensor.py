"""Autodiff engine: op semantics, gradient checks, Adam."""

import gc
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from cdpam import losses, tensor as T
from cdpam.errors import ContractError, NumericError, ShapeError
from cdpam.model import PerceptualModel, desk_config, tiny_config
from cdpam.tensor import Tensor, adam_step


def finite_difference_check(build, arrays, h=1e-5, tol=1e-4):
    """Central finite differences against autodiff for every input element.

    `build` maps a list of Tensors to a scalar Tensor.  The comparison uses a
    relative error against max(|numeric|, |analytic|, 1e-6).
    """
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    build(tensors).backward()
    grads = [t.grad.copy() for t in tensors]
    for idx, base in enumerate(arrays):
        flat = base.reshape(-1)
        grad_flat = grads[idx].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            f_plus = build([Tensor(a) for a in arrays]).item()
            flat[i] = keep - h
            f_minus = build([Tensor(a) for a in arrays]).item()
            flat[i] = keep
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(numeric), abs(grad_flat[i]), 1e-6)
            rel = abs(numeric - grad_flat[i]) / denom
            assert rel <= tol, f"input {idx} element {i}: numeric {numeric} vs autodiff {grad_flat[i]}"


def linear_probe(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


def away_from_kinks(x, margin=0.05):
    return np.where(np.abs(x) < margin, x + 2 * margin, x)


class TestBasics:
    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            Tensor(np.array([1.0, np.inf]))

    def test_log_of_zero_raises(self):
        with pytest.raises(NumericError):
            T.log(Tensor(np.array([0.0])))

    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ContractError):
            t.backward()

    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        T.sum_(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        T.sum_(T.mul(x, x)).backward()
        assert np.allclose(x.grad, [6.0])

    def test_fanout_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x + 1
        y.backward()
        assert np.allclose(x.grad, [5.0])

    def test_broadcast_add_unbroadcasts_grad(self):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        T.sum_(T.add(x, b)).backward()
        assert np.array_equal(b.grad, np.full(4, 3.0))


class TestGraphRelease:
    def test_interior_nodes_are_released(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = T.exp(x)
        loss = T.sum_(hidden)
        loss.backward()
        for node in (hidden, loss):
            assert node.grad is None and node._parents == ()
        assert np.array_equal(x.grad, np.exp([1.0, 2.0]))

    def test_second_backward_of_one_root_raises(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        loss = T.sum_(T.mul(x, x))
        loss.backward()
        with pytest.raises(ContractError, match="earlier backward"):
            loss.backward()
        assert np.array_equal(x.grad, [6.0])  # the first pass's gradient is untouched

    def test_second_root_through_a_released_subgraph_raises(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        shared = T.mul(x, x)
        first, second = T.sum_(shared), T.sum_(T.add(shared, x))
        first.backward()
        with pytest.raises(ContractError, match="earlier backward"):
            second.backward()

    def test_training_step_frees_its_graph(self, monkeypatch):
        # one desk-config pretraining step at 2 pairs
        step = traced_pretraining_step(monkeypatch, n=2)
        before, forward, peak, after = step["before"], step["forward"], step["peak"], step["after"]
        leaf_grads = step["leaf_grads"]
        assert leaf_grads > 0
        # besides the leaf gradients only the embeddings, z, the loss and small Python
        # objects survive (25 KB); the slack is below the smallest encoder activation
        # (64,000 bytes at this batch), so any activation left alive fails the check
        assert after - before <= leaf_grads + 48 * 1024, (after - before, leaf_grads)
        # a layer keeps one full-size array for backward, its conv output, and layer 1 keeps
        # none; every BatchNorm + leaky ReLU output is released once the next conv or the
        # pool has read it and is rebuilt item by item in backward.  That is 4.03 MB here,
        # and one more array kept (64,000 to 512,000 bytes) exceeds the ceiling: the
        # projection head, the loss and the per-channel statistics take about 100 KB
        assert forward <= step["kept"] + 128 * 1024, (forward, step["kept"])
        # backward adds an output gradient and one temporary the size of layer 16 (512,000
        # bytes here) and, at this batch, one item's im2col columns of layer 16's weight
        # gradient (1.92 MB), which outweigh them
        bound = step["kept"] + 2 * step["layer"] + step["columns"] + leaf_grads + 128 * 1024
        assert peak - before <= bound, (peak - before, bound)
        assert len(step["activations"]) == 16
        assert all(ref() is None for ref in step["activations"])

    def test_backward_peak_is_kept_conv_outputs_and_two_arrays(self, monkeypatch):
        # the desk batch, 16 pairs: backward holds the conv outputs the forward kept (32.3
        # MB), an output gradient and one full-size temporary the size of layer 16 (4.1 MB
        # each), and the leaf gradients; 40.6 MB in all.  Copying each new gradient and
        # rebuilding released outputs whole took 8 MB more
        step = traced_pretraining_step(monkeypatch, n=16)
        bound = step["kept"] + 2 * step["layer"] + step["leaf_grads"] + 128 * 1024
        assert step["peak"] - step["before"] <= bound, (step["peak"] - step["before"], bound)


def traced_pretraining_step(monkeypatch, n):
    """One desk-config pretraining step at `n` pairs, traced by tracemalloc, which sees
    numpy's buffers; gc is off so that only reference counts free memory.

    Returns the traced bytes before the forward, held after it, the backward's peak and
    after it, with the bytes of the conv outputs the forward keeps, of layer 16's output,
    of one item's im2col columns of layer 16's weight gradient and of the leaf gradients.
    """
    cfg = desk_config()
    model = PerceptualModel.initialize(cfg, seed=0)
    model.set_trainable(("enc.", "proj."))
    x = Tensor(np.random.default_rng(0).normal(0.0, 0.1, size=(2 * n, 1, cfg.clip_samples)))
    activations, sizes = [], []
    conv1d = T.conv1d

    def recording_conv1d(*args, **kwargs):
        out = conv1d(*args, **kwargs)
        activations.append(weakref.ref(out.data))
        sizes.append(out.data.nbytes)
        return out

    monkeypatch.setattr(T, "conv1d", recording_conv1d)
    was_tracing, gc_was_enabled = tracemalloc.is_tracing(), gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        acoustic, content = model.encode(x, train=True)
        z = model.project(acoustic, "acoustic")
        loss = losses.nt_xent(z, tau=0.5)
        forward = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        loss.backward()  # the step still holds loss, z and the embeddings, as the trainer does
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()
    leaf_grads = sum(p.grad.nbytes for p in model.params.values() if p.grad is not None)
    kept = sum(sizes[1:])  # layer 1's conv output is released and rebuilt from x
    cout, cin, k = model.params[f"enc.conv{cfg.encoder.n_layers}.w"].shape
    columns = cin * k * sizes[-1] // (2 * n * cout)
    return {"before": before, "forward": forward, "peak": peak, "after": after, "kept": kept,
            "layer": sizes[-1], "columns": columns, "leaf_grads": leaf_grads,
            "activations": activations}


def adoption_case(case, ts):
    """The output of one gradient-adoption case on the leaves `ts`."""
    if case == "add_zz":
        return T.add(ts[0], ts[0])
    if case == "mul_zz":
        return T.mul(ts[0], ts[0])
    if case == "two_readers":  # z is read by exp and by leaky_relu, whose VJP returns its g
        return T.add(T.exp(ts[0]), T.leaky_relu(ts[0], 0.2))
    if case == "leaky_relu":
        return T.leaky_relu(ts[0], 0.2)
    if case == "conv1d":  # the input requires a gradient
        return T.conv1d(ts[0], ts[1], ts[2], stride=2, slope=0.2)
    # batch_norm1d builds its input's gradient in its own output gradient
    return T.batch_norm1d(T.conv1d(ts[0], ts[1], stride=2), ts[2], ts[3], np.zeros(4),
                          np.ones(4), True, slope=0.2)


ADOPTION_SHAPES = {"add_zz": [(3, 4)], "mul_zz": [(3, 4)], "two_readers": [(3, 4)],
                   "leaky_relu": [(3, 4)], "conv1d": [(2, 3, 8), (4, 3, 5), (4,)],
                   "batch_norm1d": [(2, 3, 8), (4, 3, 5), (4,), (4,)]}


class TestGradientAdoption:
    """A parent adopts a VJP result nothing else holds as its gradient, and no bit moves."""

    @staticmethod
    def run(case, monkeypatch, adopt):
        rng = np.random.default_rng(70)
        arrays = [rng.normal(1.0, 0.5, size=shape) for shape in ADOPTION_SHAPES[case]]
        arrays[0] = away_from_kinks(arrays[0])
        accumulate, make = T.Tensor._accumulate, T._make
        tensors = []

        def checked_make(data, parents, vjps, op, pre=None):
            out = make(data, parents, vjps, op, pre=pre)
            fn = out._backward_fn

            def backward(g):
                fn(g)
                # out drops g once its closure ends; no other two tensors share memory
                held = [t for t in tensors if t is not out]
                grads = [t.grad for t in held if t.grad is not None]
                datas = [t.data for t in held if type(t.data) is np.ndarray]
                for i, grad in enumerate(grads):
                    assert not any(np.shares_memory(grad, other) for other in grads[i + 1:])
                    assert not any(np.shares_memory(grad, data) for data in datas)

            if out.requires_grad:
                out._backward_fn = backward
            tensors.append(out)
            return out

        monkeypatch.setattr(T, "_make", checked_make)
        if not adopt:
            monkeypatch.setattr(T.Tensor, "_accumulate",
                                lambda self, g, adopt=False: accumulate(self, g))
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        tensors.extend(ts)
        out = adoption_case(case, ts)
        T.sum_(T.mul(out, linear_probe(out.shape, 71))).backward()
        monkeypatch.undo()
        return [t.grad for t in ts]

    @pytest.mark.parametrize("case", list(ADOPTION_SHAPES))
    def test_gradients_bit_equal_to_copies_and_never_shared(self, monkeypatch, case):
        adopted = self.run(case, monkeypatch, adopt=True)
        copied = self.run(case, monkeypatch, adopt=False)
        assert [g.tobytes() for g in adopted] == [g.tobytes() for g in copied]
        for i, grad in enumerate(adopted):
            assert not any(np.shares_memory(grad, other) for other in adopted[i + 1:])

    def test_output_gradient_adopted_from_the_last_vjp_only(self):
        # ops whose VJPs hand back the output gradient itself: two parents never share it,
        # and a parent handed it early never changes what a later VJP reads
        rng = np.random.default_rng(74)
        a, b, z, y = (Tensor(rng.normal(size=3), requires_grad=True) for _ in range(4))
        g = rng.normal(size=3)
        T._make(a.data + b.data, (a, b), (lambda g: g, lambda g: g), "add")._backward_fn(g.copy())
        assert not np.shares_memory(a.grad, b.grad)
        assert a.grad.tobytes() == b.grad.tobytes() == (g + 0.0).tobytes()
        out = T._make(z.data, (z, z, y), (lambda g: g, lambda g: 3.0 * g, lambda g: 5.0 * g), "op")
        out._backward_fn(g.copy())
        assert z.grad.tobytes() == (g + 3.0 * g).tobytes()
        assert y.grad.tobytes() == (5.0 * g).tobytes()

    def test_fortran_ordered_leaf_gets_the_gradient_of_a_c_ordered_one(self):
        # matmul's VJP returns a new C-ordered array: a leaf adopts it, whatever the
        # layout of the leaf's data, and its values are 0.0 + g either way
        rng = np.random.default_rng(75)
        a, x = rng.normal(size=(2, 3)), rng.normal(size=(3, 4))
        grads = []
        for data in (np.asfortranarray(x), x):
            leaf = Tensor(data, requires_grad=True)
            T.sum_(T.matmul(Tensor(a), leaf)).backward()
            grads.append(leaf.grad)
        assert grads[0].flags.c_contiguous
        assert grads[0].tobytes() == grads[1].tobytes() == (a.T @ np.ones((2, 4))).tobytes()

    def test_conv_and_batch_norm_input_gradients_are_adopted(self, monkeypatch):
        # conv1d's input gradient is the array _conv1d_dx returned, and batch_norm1d's
        # input gradient is its own output gradient's buffer
        dx, grads = [], {}
        conv1d_dx = T._conv1d_dx

        def recording_dx(*args):
            dx.append(conv1d_dx(*args))
            return dx[-1]

        def recording(name, t):
            fn = t._backward_fn

            def backward(g):
                grads[name] = g
                fn(g)

            t._backward_fn = backward

        monkeypatch.setattr(T, "_conv1d_dx", recording_dx)
        rng = np.random.default_rng(72)
        x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        conv = T.conv1d(x, Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True))
        out = T.batch_norm1d(conv, *(Tensor(rng.normal(1.0, 0.3, size=4), requires_grad=True)
                                     for _ in range(2)), np.zeros(4), np.ones(4), True, slope=0.2)
        recording("conv", conv)
        recording("batch_norm", out)
        T.sum_(T.mul(out, linear_probe(out.shape, 73))).backward()
        assert grads["conv"] is grads["batch_norm"]
        [result] = dx
        assert x.grad is result


class TestConv1d:
    def test_spec_example(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        w = Tensor(np.array([[[1.0, 0.0, -1.0]]]))
        out = T.conv1d(x, w, stride=1)
        assert np.array_equal(out.data, [[[-2.0, -2.0, 2.0]]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 10))
        w = np.zeros((3, 3, 5))
        for c in range(3):
            w[c, c, 2] = 1.0
        out = T.conv1d(Tensor(x), Tensor(w), stride=1)
        assert np.allclose(out.data, x)

    def test_stride_2_halves_length(self):
        out = T.conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((4, 2, 3))), stride=2)
        assert out.shape == (1, 4, 4)

    def test_matches_numpy_convolve_with_flipped_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=12)
        w = rng.normal(size=7)
        mine = T.conv1d(Tensor(x[None, None, :]), Tensor(w[None, None, :]), stride=1)
        reference = np.convolve(x, w[::-1], mode="same")
        assert np.allclose(mine.data.ravel(), reference)

    def test_bias_added_per_channel(self):
        out = T.conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((2, 1, 3))),
                       bias=Tensor(np.array([1.0, -2.0])), stride=1)
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((4, 3, 3))))
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((4, 2, 4))))  # even kernel
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.zeros((1, 2, 7))), Tensor(np.zeros((4, 2, 3))), stride=2)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients(self, stride):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 8))
        w = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(4,))
        probe = linear_probe((2, 4, 8 // stride), 7)

        def build(ts):
            return T.sum_(T.mul(T.conv1d(ts[0], ts[1], ts[2], stride=stride), probe))

        finite_difference_check(build, [x, w, b])


def per_tap_conv(x, w, stride):
    """Reference conv1d: sum over taps j of w[:, :, j] @ xp[:, :, j::stride]."""
    batch, cin, length = x.shape
    k = w.shape[2]
    pad = (k - 1) // 2
    out_len = length // stride
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    return sum(np.einsum("oc,bct->bot", w[:, :, j], xp[:, :, j:j + stride * out_len:stride])
               for j in range(k))


def strided_add_conv1d_dx(g, w, stride, length):
    """Reference input gradient: w^T @ g_b per item, added onto a zeroed padded row tap by tap."""
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


def desk_conv_shapes():
    """(Cin, Cout, k, stride, input length) of each desk encoder conv, in layer order."""
    cfg = desk_config()
    enc, params = cfg.encoder, PerceptualModel.initialize(cfg, seed=0).params
    length, shapes = cfg.clip_samples, []
    for layer in range(1, enc.n_layers + 1):
        cout, cin, k = params[f"enc.conv{layer}.w"].shape
        stride = 2 if layer in enc.stride2_layers else 1
        shapes.append((cin, cout, k, stride, length))
        length //= stride
    return shapes


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestConv1dInputGradient:
    """_conv1d_dx keeps the bytes of the tap-by-tap strided adds it replaced."""

    @pytest.mark.parametrize("layer", range(1, 17))
    def test_bit_equal_at_desk_layers(self, layer):
        cin, cout, k, stride, length = desk_conv_shapes()[layer - 1]
        rng = np.random.default_rng(50 + layer)
        g = rng.normal(size=(3, cout, length // stride))
        w = rng.normal(size=(cout, cin, k))
        assert_same_bits(T._conv1d_dx(g, w, stride, length),
                         strided_add_conv1d_dx(g, w, stride, length))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 15])
    @pytest.mark.parametrize("out_len", [1, 9])  # 1: the shortest legal input, stride samples
    def test_bit_equal_at_edge_shapes(self, stride, k, out_len):
        rng = np.random.default_rng(k * 10 + stride + out_len)
        g = rng.normal(size=(2, 4, out_len))
        w = rng.normal(size=(4, 3, k))
        assert_same_bits(T._conv1d_dx(g, w, stride, stride * out_len),
                         strided_add_conv1d_dx(g, w, stride, stride * out_len))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_zero_gradient_gives_positive_zeros(self, stride):
        g = np.zeros((2, 4, 9))
        w = np.random.default_rng(60).normal(size=(4, 3, 15))
        dx = T._conv1d_dx(g, w, stride, stride * 9)
        assert_same_bits(dx, strided_add_conv1d_dx(g, w, stride, stride * 9))
        assert not np.signbit(dx).any()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_skewed_views_are_read_only_views(self, stride):
        buf = np.zeros((2, 5, 3 + 2 * 4))
        views = T._skewed_taps(buf, stride, stride * 3 + 4)
        assert len(views) == stride
        for view in views:
            assert not view.flags.writeable
            assert np.shares_memory(view, buf)


class TestConv1dItemWalk:
    @pytest.mark.parametrize("batch,cin,cout,k,length,stride", [
        (7, 3, 4, 5, 16, 1),
        (7, 3, 4, 5, 16, 2),
        (5, 1, 4, 15, 64, 2),     # Cin = 1
        (5, 1, 3, 15, 64, 1),
        (3, 2, 2, 3, 10, 1),
        (3, 4, 4, 15, 4000, 2),
    ])
    def test_forward_matches_per_tap_reference(self, batch, cin, cout, k, length, stride):
        rng = np.random.default_rng(batch * 100 + cin * 10 + stride)
        x = rng.normal(size=(batch, cin, length))
        w = rng.normal(size=(cout, cin, k))
        out = T.conv1d(Tensor(x), Tensor(w), stride=stride).data
        ref = per_tap_conv(x, w, stride)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_over_several_items(self, stride):
        batch, cin, cout, k, length = 3, 2, 3, 5, 8
        rng = np.random.default_rng(20 + stride)
        x = rng.normal(size=(batch, cin, length))
        w = rng.normal(size=(cout, cin, k))
        b = rng.normal(size=(cout,))
        probe = linear_probe((batch, cout, length // stride), 21)

        def build(ts):
            return T.sum_(T.mul(T.conv1d(ts[0], ts[1], ts[2], stride=stride), probe))

        finite_difference_check(build, [x, w, b])

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 15])
    @pytest.mark.parametrize("out_len", [1, 9])  # 1: the shortest legal input, stride samples
    def test_tap_view_matches_sliding_windows(self, stride, k, out_len):
        cin, pad = 3, (k - 1) // 2
        xp = np.random.default_rng(k * 10 + stride).normal(size=(cin, stride * out_len + 2 * pad))
        taps = T._taps(xp, k, stride, out_len)
        ref = sliding_window_view(xp, stride * (out_len - 1) + 1, axis=1)[:, :k, ::stride]
        assert taps.shape == (cin, k, out_len)
        assert np.array_equal(taps, ref)
        assert not taps.flags.writeable
        with pytest.raises(ValueError):
            taps[0, 0, 0] = 1.0
        xp[:, pad] = 7.0  # a view of the padded row, not a copy of it
        assert np.array_equal(taps, ref)

    def test_working_memory_is_one_item(self):
        # desk layer 13 at batch 4: 32 -> 32 channels, 15 taps, 500 steps.  Beyond its
        # output, the forward and the weight gradient each hold one item's im2col columns
        # (1.92 MB) and one padded item (132 KB), plus an item-sized temporary: the leaky
        # epilogue's slope * x, or the weight gradient's g_b @ col_b^T.  Beyond its output,
        # the input gradient holds one item's margined tap buffer (2.03 MB)
        batch, ch, k, length = 4, 32, 15, 500
        rng = np.random.default_rng(40)
        x, g = rng.normal(size=(2, batch, ch, length))
        w, b = rng.normal(size=(ch, ch, k)), rng.normal(size=ch)
        bound = 8 * (ch * k * length + ch * (length + k - 1) + ch * length) + 32 * 1024
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            extra = []
            for run in (lambda: T.conv1d(Tensor(x), Tensor(w), Tensor(b), slope=0.2).data,
                        lambda: T._conv1d_dw(g, x, w.shape, 1),
                        lambda: T._conv1d_dx(g, w, 1, length)):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = run()
                owner = result if result.base is None else result.base  # dW is a reshaped view
                extra.append(tracemalloc.get_traced_memory()[1] - before - owner.nbytes)
                del result, owner
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert max(extra) <= bound, (extra, bound)


class TestConv1dEpilogue:
    @pytest.mark.parametrize("slope", [0.0, 0.2])
    @pytest.mark.parametrize("length", [None, 240])  # None: the 16-sample input; a longer signal
    def test_bit_equal_to_separate_leaky_relu(self, slope, length):
        rng = np.random.default_rng(30)
        x = Tensor(rng.normal(size=(5, 3, length or 16)))
        w = Tensor(rng.normal(size=(4, 3, 5)))
        b = Tensor(rng.normal(size=(4,)))
        fused = T.conv1d(x, w, b, stride=2, slope=slope)
        separate = T.leaky_relu(T.conv1d(x, w, b, stride=2), slope)
        assert fused.data.tobytes() == separate.data.tobytes()

    @pytest.mark.parametrize("slope", [0.0, 0.2])
    def test_gradients_over_several_items(self, slope):
        batch, cin, cout, k, length = 3, 2, 3, 5, 8
        rng = np.random.default_rng(31)
        x = rng.normal(size=(batch, cin, length))
        w = rng.normal(size=(cout, cin, k))
        b = rng.normal(size=(cout,))
        probe = linear_probe((batch, cout, length), 32)

        def build(ts):
            return T.sum_(T.mul(T.conv1d(ts[0], ts[1], ts[2], slope=slope), probe))

        finite_difference_check(build, [x, w, b])

    def test_negative_slope_rejected(self):
        with pytest.raises(ContractError):
            T.conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 3))), slope=-0.1)


class TestBatchNormEpilogue:
    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_bit_equal_to_separate_leaky_relu(self, slope):
        rng = np.random.default_rng(36)
        x, g = rng.normal(1.0, 2.0, size=(3, 4, 10)), rng.normal(size=(3, 4, 10))
        gamma, beta = rng.normal(1.0, 0.3, size=4), rng.normal(size=4)

        def run(fused):
            ts = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
            rm, rv = np.full(4, 0.5), np.full(4, 2.0)
            if fused:
                out = T.batch_norm1d(*ts, rm, rv, True, slope=slope)
            else:
                out = T.leaky_relu(T.batch_norm1d(*ts, rm, rv, True), slope)
            data = out.data.tobytes()
            T.sum_(T.mul(out, Tensor(g))).backward()
            return [data, rm.tobytes(), rv.tobytes()] + [t.grad.tobytes() for t in ts]

        assert run(fused=True) == run(fused=False)

    @pytest.mark.parametrize("slope", [0.0, 0.2])
    def test_gradients(self, slope):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(3, 2, 6))
        gamma, beta = rng.normal(1.0, 0.2, size=2), rng.normal(size=2)
        probe = linear_probe((3, 2, 6), 38)

        def build(ts):
            out = T.batch_norm1d(*ts, np.zeros(2), np.ones(2), True, slope=slope)
            return T.sum_(T.mul(out, probe))

        finite_difference_check(build, [x, gamma, beta])

    def test_negative_slope_rejected(self):
        with pytest.raises(ContractError):
            T.batch_norm1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                           np.zeros(1), np.ones(1), True, slope=-0.1)

    @pytest.mark.parametrize("shape", [(0, 2, 4), (3, 2, 0)])
    def test_empty_batch_rejected(self, shape):
        # no statistics to normalize on; the running statistics are left as they were
        rm, rv = np.zeros(2), np.ones(2)
        with pytest.raises(ShapeError, match="empty batch"):
            T.batch_norm1d(Tensor(np.zeros(shape)), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           rm, rv, True)
        assert rm.tolist() == [0.0, 0.0] and rv.tolist() == [1.0, 1.0]


def whole_batch_norm(x, gamma, beta, g, slope, running_mean, running_var):
    """Training batch norm on the whole (B, C, L) batch at once, in numpy: the output, the
    running statistics updated in place, and the x, gamma and beta gradients for output
    gradient g, each as the first gradient a leaf holds (0.0 + value)."""
    n = x.shape[0] * x.shape[2]
    mu, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
    running_mean *= 0.9
    running_mean += 0.1 * mu
    running_var *= 0.9
    running_var += 0.1 * var
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    centered = x - mu[:, None]
    xhat = centered * inv_std[:, None]
    y = xhat * gamma[:, None] + beta[:, None]
    if slope is not None:
        y = np.where(y > 0.0, y, slope * y)
        g = np.where(y > 0.0, g, slope * g)
    dxhat = g * gamma[:, None]
    dvar = (centered * dxhat).sum(axis=(0, 2)) * (-0.5) * inv_std ** 3
    dmu = -dxhat.sum(axis=(0, 2)) * inv_std + dvar * (-2.0 / n) * centered.sum(axis=(0, 2))
    dx = dxhat * inv_std[:, None] + centered * (dvar[:, None] * 2.0) / n + dmu[:, None] / n
    return y, [dx + 0.0, (xhat * g).sum(axis=(0, 2)) + 0.0, g.sum(axis=(0, 2)) + 0.0]


def assert_batch_norm_bit_equal_to_whole_batch(x, gamma, beta, g, slope, release):
    """batch_norm1d's output, running statistics and gradients against whole_batch_norm's,
    byte for byte; with `release` the output is released and backward rebuilds its items."""
    ch = x.shape[1]
    stats = [np.linspace(-1.0, 1.0, ch), np.linspace(0.5, 2.0, ch)]
    ref_stats = [s.copy() for s in stats]
    ref_y, ref_grads = whole_batch_norm(x, gamma, beta, g, slope, *ref_stats)
    ts = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
    out = T.batch_norm1d(*ts, *stats, True, slope=slope)
    assert out.data.tobytes() == ref_y.tobytes()
    assert [s.tobytes() for s in stats] == [s.tobytes() for s in ref_stats]
    if release:
        T.release(out)
        assert list(map(np.ndarray.tobytes, T._items(out))) == [yb.tobytes() for yb in ref_y]
    out._backward_fn(g.copy())
    assert [t.grad.tobytes() for t in ts] == [r.tobytes() for r in ref_grads]


class TestBatchNormItemWalk:
    """batch_norm1d walks the batch one item at a time and keeps the whole-batch bytes."""

    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 8), ch=st.integers(1, 1024), length=st.integers(1, 600),
           spread=st.integers(0, 150), seed=st.integers(0, 2 ** 32 - 1))
    @example(batch=1, ch=1, length=1, spread=0, seed=0)
    @example(batch=1, ch=1024, length=1, spread=150, seed=1)
    @example(batch=8, ch=1024, length=32, spread=150, seed=2)
    @example(batch=3, ch=2, length=600, spread=150, seed=3)
    @example(batch=5, ch=1, length=200, spread=5, seed=4)
    def test_item_order_sums_equal_numpy(self, batch, ch, length, spread, seed):
        # numpy's sum, mean and var over axes (0, 2) add each item's axis=1 sums in item
        # order, and take a one-channel batch as one row; a numpy that reduces in another
        # order fails here, not in a checkpoint hash
        rng = np.random.default_rng(seed)
        length = max(1, min(length, 2 ** 17 // (batch * ch)))
        shape = (batch, ch, length)
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-spread, spread, size=shape)
        x[rng.random(shape) < 0.05] = -0.0
        n = batch * length
        items = x.reshape(1, 1, n) if ch == 1 else x
        sums = T._item_order_sum(xb.sum(axis=1) for xb in items)
        assert sums.tobytes() == x.sum(axis=(0, 2)).tobytes()
        mean = sums / n
        assert mean.tobytes() == x.mean(axis=(0, 2)).tobytes()
        squares = T._item_order_sum(((xb - mean[:, None]) * (xb - mean[:, None])).sum(axis=1)
                                    for xb in items)
        assert (squares / n).tobytes() == x.var(axis=(0, 2)).tobytes()

    @pytest.mark.parametrize("release", [False, True])
    def test_desk_layers_bit_equal_to_whole_batch(self, release):
        rng = np.random.default_rng(45)
        for cin, cout, k, stride, length in desk_conv_shapes():
            x = rng.normal(0.3, 2.0, size=(3, cout, length // stride))
            gamma, beta = rng.normal(1.0, 0.3, size=cout), rng.normal(size=cout)
            assert_batch_norm_bit_equal_to_whole_batch(x, gamma, beta, rng.normal(size=x.shape),
                                                       0.2, release)

    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 5), ch=st.integers(1, 40), length=st.integers(1, 300),
           slope=st.sampled_from([None, 0.0, 0.2, 1.0]), scale=st.integers(-100, 100),
           release=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(batch=3, ch=1, length=7, slope=0.2, scale=0, release=True, seed=5)
    @example(batch=4, ch=3, length=1, slope=None, scale=0, release=False, seed=6)
    def test_random_shapes_bit_equal_to_whole_batch(self, batch, ch, length, slope, scale,
                                                    release, seed):
        rng = np.random.default_rng(seed)
        shape = (batch, ch, length)
        x = (rng.normal(size=shape) + rng.normal(size=(ch, 1))) * 10.0 ** scale
        gamma, beta = rng.normal(1.0, 0.3, size=ch), rng.normal(size=ch)
        assert_batch_norm_bit_equal_to_whole_batch(x, gamma, beta, rng.normal(size=shape),
                                                   slope, release and slope is not None)


def leaky_inputs(op, rng):
    """Inputs of `op` whose leaky-ReLU output holds exact zeros at every slope."""
    if op == "leaky_relu":
        return [np.concatenate([[-0.0, 0.0, 5e-324, -5e-324], rng.normal(size=60)])]
    if op == "conv1d":  # item 0 is all zeros, and there is no bias: its output is +0.0
        x = rng.normal(size=(3, 2, 10))
        x[0] = 0.0
        return [x, rng.normal(size=(4, 2, 3))]
    gamma, beta = rng.normal(1.0, 0.3, size=3), rng.normal(size=3)
    gamma[0] = beta[0] = 0.0  # channel 0's output is +0.0
    return [rng.normal(size=(3, 3, 8)), gamma, beta]


def leaky_op(op, ts, slope):
    """`op` on `ts` with a leaky ReLU of `slope`, or without one when slope is None."""
    if op == "leaky_relu":
        return T.reshape(ts[0], ts[0].shape) if slope is None else T.leaky_relu(ts[0], slope)
    if op == "conv1d":
        return T.conv1d(*ts, slope=slope)
    return T.batch_norm1d(*ts, np.zeros(3), np.ones(3), True, slope=slope)


class TestLeakyDerivative:
    """leaky_relu, conv1d(slope=) and batch_norm1d(slope=) share one derivative, _unleak."""

    @pytest.mark.parametrize("slope", [-0.1, 1.5])
    @pytest.mark.parametrize("op", ["leaky_relu", "conv1d", "batch_norm1d"])
    def test_slope_outside_unit_interval_rejected(self, op, slope):
        ts = [Tensor(a) for a in leaky_inputs(op, np.random.default_rng(28))]
        with pytest.raises(ContractError,
                           match=rf"^{op} slope must be a finite number in \[0, 1\], got {slope}$"):
            leaky_op(op, ts, slope)

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("op", ["leaky_relu", "conv1d", "batch_norm1d"])
    def test_gradients_bit_equal_to_select_form(self, monkeypatch, op, slope):
        # the output gradient holds +0.0 and -0.0 on both sides of the mask; the VJPs must
        # see where(y > 0, g, slope * g), and the inputs get what the op without the leaky
        # ReLU gives for that gradient
        rng = np.random.default_rng(29)
        arrays = leaky_inputs(op, rng)
        seen = []
        unleak = T._unleak

        def spy(g, y, s):
            before = g.copy()
            out = unleak(g, y, s)
            seen.append((before, y.copy(), out.copy()))
            return out

        monkeypatch.setattr(T, "_unleak", spy)
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = leaky_op(op, ts, slope)
        g = rng.normal(size=out.shape)
        g.reshape(-1)[4::3], g.reshape(-1)[5::3] = -0.0, 0.0  # leaky_relu's zero inputs keep g
        out._backward_fn(g.copy())
        [(before, y, after)] = seen
        positive = y > 0.0
        assert (y == 0.0).any()
        for side in (positive, ~positive):
            zeros = np.signbit(before[side][before[side] == 0.0])
            assert zeros.any() and not zeros.all()
        select = np.where(positive, before, slope * before)
        assert after.tobytes() == select.tobytes()
        refs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        leaky_op(op, refs, None)._backward_fn(select.copy())
        assert [t.grad.tobytes() for t in ts] == [t.grad.tobytes() for t in refs]

    def test_one_unleak_per_fused_node_in_a_pretraining_step(self, monkeypatch):
        # a tiny-model pretraining step: every BatchNorm and the projection head's leaky
        # ReLU carry a pre, and backward applies each exactly once
        model = PerceptualModel.initialize(tiny_config(), seed=5)
        model.set_trainable(("enc.", "proj."))
        fused, calls = [], []
        make, unleak = T._make, T._unleak

        def recording_make(data, parents, vjps, op, pre=None):
            if pre is not None:
                fused.append(op)
            return make(data, parents, vjps, op, pre=pre)

        def counting_unleak(g, y, slope):
            calls.append(slope)
            return unleak(g, y, slope)

        monkeypatch.setattr(T, "_make", recording_make)
        monkeypatch.setattr(T, "_unleak", counting_unleak)
        n = 2
        x = Tensor(np.random.default_rng(6).normal(0.0, 0.1,
                                                   size=(2 * n, 1, model.config.clip_samples)))
        acoustic, _ = model.encode(x, train=True)
        z = model.project(acoustic, "acoustic")
        loss = losses.nt_xent(z, tau=0.5)
        assert calls == []
        loss.backward()
        n_layers = model.config.encoder.n_layers
        assert fused == ["batch_norm1d"] * n_layers + ["leaky_relu"]
        assert calls == [0.2] * len(fused)


def batch_norm_inputs(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(1.0, 2.0, size=(3, 4, 10))
    return x, rng.normal(1.0, 0.3, size=4), rng.normal(size=4), rng.normal(size=(5, 4, 3))


class TestRelease:
    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_rebuilt_output_bit_equal_to_forward(self, slope):
        x, gamma, beta, _ = batch_norm_inputs(40)
        out = T.batch_norm1d(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta),
                             np.zeros(4), np.ones(4), True, slope=slope)
        forward = out.data.tobytes()
        T.release(out)
        assert out.shape == x.shape
        assert out.data.tobytes() == forward

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_gradients_bit_equal_with_and_without_release(self, slope):
        # the next conv consumes the output, then release() drops it, as encode does
        x, gamma, beta, w = batch_norm_inputs(41)
        probe = linear_probe((3, 5, 10), 42)

        def grads(release):
            ts = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta, w)]
            h = T.batch_norm1d(*ts[:3], np.zeros(4), np.ones(4), True, slope=slope)
            out = T.conv1d(h, ts[3])
            if release:
                T.release(h)
            T.sum_(T.mul(out, probe)).backward()
            return [t.grad.tobytes() for t in ts]

        assert grads(release=True) == grads(release=False)

    def test_released_layers_are_rebuilt_item_by_item(self, monkeypatch):
        model = PerceptualModel.initialize(tiny_config(), seed=3)
        model.set_trainable(("enc.",))
        counts = {"conv1d": [], "batch_norm1d": []}  # per layer: [whole rebuilds, item rebuilds]

        def counting(op):
            def wrapped(*args, **kwargs):
                out = op(*args, **kwargs)
                rebuild, tally = out._rebuild, counts[op.__name__]
                layer = len(tally)
                tally.append([0, 0])

                def counted(b=None):
                    tally[layer][b is not None] += 1
                    return rebuild(b)

                out._rebuild = counted
                return out
            return wrapped

        monkeypatch.setattr(T, "conv1d", counting(T.conv1d))
        monkeypatch.setattr(T, "batch_norm1d", counting(T.batch_norm1d))
        batch = 2
        x = Tensor(np.random.default_rng(4).normal(0.0, 0.1,
                                                        size=(batch, 1, model.config.clip_samples)))
        T.sum_(model.encode(x, train=True)[0]).backward()
        n_layers = model.config.encoder.n_layers
        # no layer output is rebuilt whole, and each item once: for the next conv's weight
        # gradient, which keeps the item's leaky-ReLU mask for the layer's own backward, or,
        # for the last layer, whose pool reads no values, for that mask
        assert counts["batch_norm1d"] == [[0, batch]] * n_layers
        # of the conv outputs, only layer 1's is released: it is rebuilt whole from the
        # input, once, for its batch norm, which reads it whole in backward
        assert counts["conv1d"] == [[1, 0]] + [[0, 0]] * (n_layers - 1)

    def test_release_of_other_tensors_is_a_no_op(self):
        # a leaf, and a conv output that needs no gradient, hold no rebuild
        x, _, _, w = batch_norm_inputs(43)
        leaf = Tensor(x, requires_grad=True)
        conv = T.conv1d(Tensor(x), Tensor(w), slope=0.2)
        assert conv._rebuild is None
        for t in (leaf, conv):
            data = t.data
            T.release(t)
            assert t.data is data

    @pytest.mark.parametrize("stride,slope", [(1, None), (2, None), (1, 0.2), (2, 0.0)])
    def test_released_conv_output_rebuilt_bit_for_bit(self, stride, slope):
        # BatchNorm reads the conv output, then release() drops it, as encode does at layer 1
        x, _, _, w = batch_norm_inputs(44)
        bias, gamma, beta = np.random.default_rng(45).normal(1.0, 0.3, size=(3, 5))
        probe = linear_probe((3, 5, 10 // stride), 46)

        def run(release):
            ts = [Tensor(a.copy(), requires_grad=True) for a in (x, w, bias, gamma, beta)]
            conv = T.conv1d(*ts[:3], stride=stride, slope=slope)
            forward = conv.data.tobytes()
            out = T.batch_norm1d(conv, *ts[3:], np.zeros(5), np.ones(5), True, slope=0.2)
            if release:
                T.release(conv)
                assert conv._data is None and conv.shape == (3, 5, 10 // stride)
                assert conv.data.tobytes() == forward
                T.release(conv)  # dropped again, so backward rebuilds it
            T.sum_(T.mul(out, probe)).backward()
            return forward, [t.grad.tobytes() for t in ts]

        assert run(release=True) == run(release=False)

    @pytest.mark.parametrize("read", ["data", "sum", "mul"])
    def test_output_released_by_backward_reads_as_its_forward(self, read):
        # batch_norm1d's backward releases its conv input; a read after backward() rebuilds
        # it whole, once, while its shape and size need no rebuild
        x, _, _, w = batch_norm_inputs(47)
        conv = T.conv1d(Tensor(x, requires_grad=True), Tensor(w))
        forward = conv.data.copy()
        rebuild, rebuilds = conv._rebuild, []
        conv._rebuild = lambda b=None: rebuilds.append(b) or rebuild(b)
        out = T.batch_norm1d(conv, *(Tensor(a) for a in np.ones((2, 5))), np.zeros(5),
                             np.ones(5), True)
        T.sum_(T.mul(out, linear_probe(out.shape, 48))).backward()
        assert conv._data is None
        assert conv.shape == forward.shape and conv.size == forward.size and rebuilds == []
        value = {"data": lambda: conv.data, "sum": lambda: T.sum_(conv).data,
                 "mul": lambda: T.mul(conv, Tensor(1.0)).data}[read]()
        expected = forward.sum() if read == "sum" else forward
        assert value.tobytes() == expected.tobytes() and rebuilds == [None]


def released_layer(stride, conv_slope, bn_slope, seed):
    """A conv1d on a leaf that requires a gradient, then batch_norm1d on it; channel 0 of the
    batch norm has gamma 0 and beta -0.0, so its output holds +0.0 and -0.0.  Returns the
    conv and batch-norm outputs and their forward bytes, both released afterwards."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4, 12))
    x[0] = 0.0  # the conv output of item 0 is all zeros
    conv = T.conv1d(Tensor(x, requires_grad=True), Tensor(rng.normal(size=(5, 4, 3))),
                    stride=stride, slope=conv_slope)
    gamma, beta = rng.normal(1.0, 0.3, size=5), rng.normal(size=5)
    gamma[0], beta[0] = 0.0, -0.0
    out = T.batch_norm1d(conv, Tensor(gamma), Tensor(beta), np.zeros(5), np.ones(5), True,
                         slope=bn_slope)
    forward = conv.data.copy(), out.data.copy()
    T.release(out)
    T.release(conv)
    return conv, out, forward


class TestReleasedItems:
    """A released output read one item at a time has the bits of its forward."""

    @pytest.mark.parametrize("bn_slope", [None, 0.0, 0.2, 1.0])
    @pytest.mark.parametrize("stride,conv_slope", [(1, None), (2, None), (2, 0.0), (1, 0.2)])
    def test_items_bit_equal_to_whole_rebuild(self, stride, conv_slope, bn_slope):
        conv, out, (conv_data, out_data) = released_layer(stride, conv_slope, bn_slope, 80)
        for t, data in ((conv, conv_data), (out, out_data)):
            items = np.stack(list(T._items(t)))  # each item rebuilt alone, from rebuilt items
            assert t._data is None
            assert items.tobytes() == data.tobytes()
        assert out.data.tobytes() == out_data.tobytes()  # and whole, kept

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_item_masks_equal_one_whole_mask(self, slope):
        # the conv output holds zeros (item 0) and, through the leaky ReLU at slope 0, -0.0;
        # the batch norm's output holds both zeros in channel 0
        conv, out, (conv_data, out_data) = released_layer(2, 0.0, slope, 81)
        for data in (conv_data, out_data):
            zeros = np.signbit(data[data == 0.0])
            assert zeros.any() and not zeros.all()
        g = np.random.default_rng(82).normal(size=out.shape)
        g.reshape(-1)[::7] = -0.0
        per_item = T._unleak(g.copy(), T._items(out), slope)
        whole = T._unleak(g.copy().reshape(-1), out_data.reshape(-1), slope).reshape(g.shape)
        assert per_item.tobytes() == whole.tobytes()
        assert whole.tobytes() == np.where(out_data > 0.0, g, slope * g).tobytes()

    @pytest.mark.parametrize("reader", ["mul", "div", "log", "absolute", "clamp"])
    @pytest.mark.parametrize("first", ["batch_norm", "reader"])
    def test_input_released_by_batch_norm_backward_is_rebuilt_for_other_readers(
            self, monkeypatch, first, reader):
        # batch_norm1d's backward releases its input; another op whose VJP reads that input
        # rebuilds it.  div and log read a positive conv output, the others one of both signs
        positive = reader in ("div", "log")
        rng = np.random.default_rng(83)
        x = rng.uniform(0.5, 1.5, size=(2, 3, 8)) if positive else rng.normal(size=(2, 3, 8))
        w = rng.uniform(0.1, 1.0, size=(4, 3, 5)) if positive else rng.normal(size=(4, 3, 5))
        gamma, beta = rng.normal(1.0, 0.3, size=4), rng.normal(size=4)
        p, q = linear_probe((2, 4, 8), 84), linear_probe((2, 4, 8), 85)
        read = {"mul": lambda c: T.mul(c, c), "div": lambda c: T.div(q, c), "log": T.log,
                "absolute": T.absolute, "clamp": lambda c: T.clamp(c, -0.5, 0.5)}[reader]

        def grads():
            ts = [Tensor(a.copy(), requires_grad=True) for a in (x, w, gamma, beta)]
            conv = T.conv1d(*ts[:2])
            terms = [T.sum_(T.mul(T.batch_norm1d(conv, *ts[2:], np.zeros(4), np.ones(4), True,
                                                 slope=0.2), p)),
                     T.sum_(T.mul(read(conv), q))]
            T.add(*(terms if first == "batch_norm" else terms[::-1])).backward()
            return [t.grad.tobytes() for t in ts]

        released = grads()
        monkeypatch.setattr(T, "release", lambda t: None)
        assert released == grads()


class TestFoldBatchNorm:
    def test_matches_conv_then_inference_batch_norm(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(3, 2, 12)))
        w = Tensor(rng.normal(size=(4, 2, 5)))
        gamma, beta = rng.normal(1.0, 0.3, size=4), rng.normal(size=4)
        rm, rv = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        wf, bf = T.fold_batch_norm(w, Tensor(gamma), Tensor(beta), rm, rv)
        folded = T.conv1d(x, wf, bf, stride=2).data
        h = T.conv1d(x, w, stride=2).data
        # BatchNorm on running statistics in plain numpy, independent of the fold
        ref = (gamma[None, :, None] * (h - rm[None, :, None]) / np.sqrt(rv[None, :, None] + 1e-5)
               + beta[None, :, None])
        assert np.max(np.abs(folded - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gradients(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(2, 2, 8))
        w = rng.normal(size=(3, 2, 3))
        gamma, beta = rng.normal(1.0, 0.3, size=3), rng.normal(size=3)
        rm, rv = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        probe = linear_probe((2, 3, 8), 35)
        wf, bf = T.fold_batch_norm(*(Tensor(a, requires_grad=True) for a in (w, gamma, beta)),
                                   rm, rv)
        assert not wf.requires_grad and not bf.requires_grad  # the fold is a constant

        finite_difference_check(lambda ts: T.sum_(T.mul(T.conv1d(ts[0], wf, bf, slope=0.2), probe)),
                                [x])


class TestLayers:
    def test_leaky_relu_values(self):
        out = T.leaky_relu(Tensor(np.array([-1.0, 2.0])), 0.2)
        assert np.allclose(out.data, [-0.2, 2.0])

    def test_global_avg_pool_constant(self):
        out = T.global_avg_pool(Tensor(np.full((2, 3, 5), 0.7)))
        assert np.allclose(out.data, 0.7)

    def test_linear_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        out = T.linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, x)

    def test_linear_gradients(self):
        rng = np.random.default_rng(3)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5,))
        probe = linear_probe((3, 5), 8)
        finite_difference_check(lambda ts: T.sum_(T.mul(T.linear(*ts), probe)), [x, w, b])

    def test_batch_norm_train_normalizes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(3.0, 2.0, size=(4, 2, 16))
        rm, rv = np.zeros(2), np.ones(2)
        out = T.batch_norm1d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, True)
        assert np.allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-12)
        assert np.allclose(out.data.var(axis=(0, 2)), 1.0, atol=1e-3)
        assert np.allclose(rm, 0.1 * x.mean(axis=(0, 2)))

    def test_batch_norm_inference_mode_is_rejected(self):
        # inference folds the running statistics into the conv instead
        rm, rv = np.array([5.0]), np.array([4.0])
        with pytest.raises(ContractError, match="fold_batch_norm"):
            T.batch_norm1d(Tensor(np.full((2, 1, 4), 5.0)), Tensor(np.ones(1)),
                           Tensor(np.zeros(1)), rm, rv, False)
        assert rm[0] == 5.0 and rv[0] == 4.0

    def test_batch_norm_gradients_train_mode(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2, 6))
        gamma = rng.normal(1.0, 0.2, size=(2,))
        beta = rng.normal(size=(2,))
        probe = linear_probe((3, 2, 6), 9)

        def build(ts):
            rm, rv = np.zeros(2), np.ones(2)
            return T.sum_(T.mul(T.batch_norm1d(ts[0], ts[1], ts[2], rm, rv, True), probe))

        finite_difference_check(build, [x, gamma, beta])

    def test_batch_norm_train_input_gradient_bit_equal_to_textbook_form(self):
        rng = np.random.default_rng(26)
        x = rng.normal(1.0, 2.0, size=(3, 4, 10))
        gamma, g = rng.normal(1.0, 0.3, size=4), rng.normal(size=x.shape)
        t = Tensor(x, requires_grad=True)
        out = T.batch_norm1d(t, Tensor(gamma), Tensor(np.zeros(4)), np.zeros(4), np.ones(4), True)
        T.sum_(T.mul(out, Tensor(g))).backward()
        n = 3 * 10
        mu, inv_std = x.mean(axis=(0, 2)), 1.0 / np.sqrt(x.var(axis=(0, 2)) + 1e-5)
        dxhat = g * gamma[None, :, None]
        centered = x - mu[None, :, None]
        dvar = (dxhat * centered).sum(axis=(0, 2)) * (-0.5) * inv_std ** 3
        dmu = -dxhat.sum(axis=(0, 2)) * inv_std + dvar * (-2.0 / n) * centered.sum(axis=(0, 2))
        ref = (dxhat * inv_std[None, :, None] + dvar[None, :, None] * 2.0 * centered / n
               + dmu[None, :, None] / n)
        assert t.grad.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_leaky_relu_bit_equal_to_select_form(self, slope):
        rng = np.random.default_rng(25)
        x = np.concatenate([[-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300],
                            rng.normal(size=200)])
        g = rng.normal(size=x.shape)
        t = Tensor(x, requires_grad=True)
        out = T.leaky_relu(t, slope)
        T.sum_(T.mul(out, Tensor(g))).backward()
        assert out.data.tobytes() == np.where(x > 0.0, x, slope * x).tobytes()
        # gradients accumulate into zeros, as the select form's did
        assert t.grad.tobytes() == (np.zeros_like(x) + g * np.where(x > 0.0, 1.0, slope)).tobytes()

    def test_sigmoid_range_and_grad(self):
        x = np.linspace(-4, 4, 9)
        out = T.sigmoid(Tensor(x))
        assert np.all((out.data > 0) & (out.data < 1))
        probe = linear_probe((9,), 10)
        finite_difference_check(lambda ts: T.sum_(T.mul(T.sigmoid(ts[0]), probe)), [x.copy()])


class TestElementwiseGradients:
    @pytest.mark.parametrize("name,fn,positive", [
        ("exp", T.exp, False),
        ("log", T.log, True),
        ("sqrt", T.sqrt, True),
        ("abs", T.absolute, False),
        ("leaky_relu", lambda t: T.leaky_relu(t, 0.2), False),
        ("leaky_relu_slope_0", lambda t: T.leaky_relu(t, 0.0), False),
        ("sigmoid", T.sigmoid, False),
    ])
    def test_unary_ops(self, name, fn, positive):
        rng = np.random.default_rng(zlib.crc32(name.encode()))  # the same in every process
        x = rng.normal(size=(3, 4))
        x = np.abs(x) + 0.5 if positive else away_from_kinks(x)
        probe = linear_probe((3, 4), 11)
        finite_difference_check(lambda ts: T.sum_(T.mul(fn(ts[0]), probe)), [x])

    def test_binary_ops(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3)) + 3.0  # keep divisor away from zero
        probe = linear_probe((2, 3), 13)
        for fn in (T.add, T.sub, T.mul, T.div):
            finite_difference_check(lambda ts, f=fn: T.sum_(T.mul(f(ts[0], ts[1]), probe)), [a, b])

    @pytest.mark.parametrize("fn", [T.sub, T.mul, T.div], ids=["sub", "mul", "div"])
    @pytest.mark.parametrize("b_shape", [(1, 3), ()], ids=["row", "scalar"])
    def test_binary_ops_unbroadcast(self, fn, b_shape):
        rng = np.random.default_rng(40)
        a = rng.normal(size=(2, 3))
        b = np.array(rng.normal(size=b_shape) + 3.0)  # a 0-d array, and away from zero
        probe = linear_probe((2, 3), 41)
        finite_difference_check(lambda ts: T.sum_(T.mul(fn(ts[0], ts[1]), probe)), [a, b])
        finite_difference_check(lambda ts: T.sum_(T.mul(fn(ts[1], ts[0]), probe)),
                                [a + 3.0, b])

    def test_sum_over_axis(self):
        x = np.random.default_rng(42).normal(size=(2, 3, 4))
        probe = linear_probe((2, 4), 43)
        finite_difference_check(lambda ts: T.sum_(T.mul(T.sum_(ts[0], axis=1), probe)), [x])

    def test_mean_over_one_axis(self):
        x = np.random.default_rng(44).normal(size=(2, 3, 4))
        probe = linear_probe((2, 4), 45)
        finite_difference_check(lambda ts: T.sum_(T.mul(T.mean_(ts[0], axis=1), probe)), [x])

    def test_global_avg_pool(self):
        x = np.random.default_rng(46).normal(size=(2, 3, 5))
        probe = linear_probe((2, 3), 47)
        finite_difference_check(lambda ts: T.sum_(T.mul(T.global_avg_pool(ts[0]), probe)), [x])

    def test_skips_parent_without_gradient(self):
        rng = np.random.default_rng(48)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        mid = Tensor(rng.normal(size=(2, 3)))
        c = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        g = rng.normal(size=(2, 3))
        T.sum_(T.mul(T.add(T.mul(a, mid), c), Tensor(g))).backward()
        assert np.array_equal(a.grad, g * mid.data) and np.array_equal(c.grad, g)
        assert mid.grad is None

    def test_matmul_and_transpose(self):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        probe = linear_probe((2, 3), 15)
        finite_difference_check(
            lambda ts: T.sum_(T.mul(T.transpose2d(T.matmul(ts[0], ts[1])), probe)), [a, b])

    def test_narrow_reshape(self):
        x = np.random.default_rng(16).normal(size=(5, 4))
        probe = linear_probe((2, 6), 17)

        def build(ts):
            # two overlapping row slices of one tensor sum their gradients in its middle rows
            rows = T.add(T.narrow(ts[0], 0, 0, 4), T.narrow(ts[0], 0, 1, 4))   # (4, 4)
            sliced = T.narrow(rows, 1, 1, 3)                                    # (4, 3)
            return T.sum_(T.mul(T.reshape(sliced, (2, 6)), probe))

        finite_difference_check(build, [x])

    def test_clamp_blocks_outside(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        T.sum_(T.clamp(x, 0.0, 1.0)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def _param(values, grad) -> Tensor:
    p = Tensor(np.array(values, dtype=float), requires_grad=True)
    p.grad = np.array(grad, dtype=float)
    return p


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = _param([1.0, 2.0], grad=[0.0, 0.0])
        moments = {}
        adam_step({"w": p}, moments, 0.1)
        assert np.array_equal(p.data, [1.0, 2.0])
        assert moments["w"][0] == 1

    def test_first_step_moves_by_lr_sign(self):
        g = np.array([0.3, -2.0, 1e-3])
        p = _param([1.0, -1.0, 0.5], grad=g)
        adam_step({"w": p}, {}, 1e-3)
        move = np.array([1.0, -1.0, 0.5]) - p.data
        assert np.allclose(move, 1e-3 * np.sign(g), atol=1e-6)

    def test_deterministic(self):
        a, b = _param([0.2], grad=[0.7]), _param([0.2], grad=[0.7])
        moments_a, moments_b = {}, {}
        adam_step({"w": a}, moments_a, 0.01)
        adam_step({"w": b}, moments_b, 0.01)
        assert np.array_equal(a.data, b.data)
        assert moments_a["w"][0] == moments_b["w"][0] == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step({"w": _param([0.0, 0.0], grad=[0.0, 0.0, 0.0])}, {}, 1e-4)

    def test_two_steps_match_reference(self):
        # closed-form reference for two Adam updates on a scalar
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        p, g1, g2 = 1.0, 0.4, -0.2
        m = (1 - b1) * g1
        v = (1 - b2) * g1 ** 2
        p1 = p - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        m2 = b1 * m + (1 - b1) * g2
        v2 = b2 * v + (1 - b2) * g2 ** 2
        p2 = p1 - lr * (m2 / (1 - b1 ** 2)) / (np.sqrt(v2 / (1 - b2 ** 2)) + eps)

        w = _param([p], grad=[g1])
        moments = {}
        adam_step({"w": w}, moments, lr)
        w.grad = np.array([g2])
        adam_step({"w": w}, moments, lr)
        assert w.data[0] == pytest.approx(p2, rel=1e-12)

    def test_parameter_without_gradient_keeps_value_and_step_count(self):
        # a head the loss did not reach neither moves nor counts the step
        stepped, idle = _param([1.0], grad=[0.5]), _param([2.0], grad=[0.5])
        moments = {}
        adam_step({"a": stepped, "b": idle}, moments, 0.1)
        idle_value, idle_moments = idle.data.copy(), moments["b"]
        stepped.grad = np.array([0.5])
        adam_step({"a": stepped, "b": idle}, moments, 0.1)
        assert np.array_equal(idle.data, idle_value) and moments["b"] is idle_moments
        assert moments["a"][0] == 2 and moments["b"][0] == 1
        assert stepped.data[0] == pytest.approx(0.8, abs=1e-6)

    def test_gradients_cleared_after_step(self):
        params = {"a": _param([1.0, 2.0], grad=[0.1, -0.1]), "b": _param([3.0], grad=[1.0])}
        adam_step(params, {}, 1e-3)
        assert all(p.grad is None for p in params.values())

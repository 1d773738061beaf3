"""Autodiff engine: op semantics, gradient checks, Adam."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
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
        # one desk-config pretraining step at 2 pairs, traced by tracemalloc, which sees
        # numpy's buffers; gc is off so that only reference counts free memory
        cfg = desk_config()
        model = PerceptualModel.initialize(cfg, seed=0)
        model.set_trainable(("enc.", "proj."))
        n = 2
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
            loss = losses.nt_xent(T.narrow(z, 0, 0, n), T.narrow(z, 0, n, n), tau=0.5)
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
        assert leaf_grads > 0
        # besides the leaf gradients only the embeddings, z, the loss and small Python
        # objects survive (25 KB); the slack is below the smallest encoder activation
        # (64,000 bytes at this batch), so any activation left alive fails the check
        assert after - before <= leaf_grads + 48 * 1024, (after - before, leaf_grads)
        # a layer keeps one full-size array for backward, its conv output; the BatchNorm +
        # leaky ReLU output is released once the next conv has read it and is rebuilt in
        # backward, so only layer 16's, which feeds the pool, stays (4.54 MB per array set
        # here, 512,000 bytes for the largest layer and for layer 16's output); a second
        # array kept per layer exceeds both ceilings
        layer_set, largest = sum(sizes), max(sizes)
        # the projection head, the loss and the per-channel statistics take about 100 KB
        kept = layer_set + sizes[-1] + 128 * 1024
        assert forward <= kept, (forward, layer_set)
        # backward adds one layer's temporaries to that.  In units of the largest layer, the
        # most at this batch of 4 (6.5) is in layer 16's weight gradient: the conv's output
        # gradient, its released input's gradient and rebuilt data (3), one item's padded
        # input and GEMM product (0.5) and one item's im2col columns (3.75 at 15 taps),
        # less layer 16's output, which BatchNorm 16's backward has freed (1)
        assert peak - before <= kept + 8 * largest, (peak - before, layer_set)
        assert len(activations) == cfg.encoder.n_layers
        assert all(ref() is None for ref in activations)


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
        # epilogue's slope * x, or the weight gradient's g_b @ col_b^T
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
                        lambda: T._conv1d_dw(g, x, w.shape, 1)):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = run()
                extra.append(tracemalloc.get_traced_memory()[1] - before - result.nbytes)
                del result
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert max(extra) <= bound, (extra, bound)


class TestConv1dEpilogue:
    @pytest.mark.parametrize("slope", [0.0, 0.2, 3.0])
    @pytest.mark.parametrize("length", [None, 240])  # None: the 16-sample input; a longer signal
    def test_bit_equal_to_separate_leaky_relu(self, slope, length):
        rng = np.random.default_rng(30)
        x = Tensor(rng.normal(size=(5, 3, length or 16)))
        w = Tensor(rng.normal(size=(4, 3, 5)))
        b = Tensor(rng.normal(size=(4,)))
        fused = T.conv1d(x, w, b, stride=2, slope=slope)
        separate = T.leaky_relu(T.conv1d(x, w, b, stride=2), slope)
        assert fused.data.tobytes() == separate.data.tobytes()

    @pytest.mark.parametrize("slope", [0.0, 0.2, 3.0])
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
    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 3.0])
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

    @pytest.mark.parametrize("slope", [0.0, 0.2, 3.0])
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


def batch_norm_inputs(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(1.0, 2.0, size=(3, 4, 10))
    return x, rng.normal(1.0, 0.3, size=4), rng.normal(size=4), rng.normal(size=(5, 4, 3))


class TestRelease:
    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 3.0])
    def test_rebuilt_output_bit_equal_to_forward(self, slope):
        x, gamma, beta, _ = batch_norm_inputs(40)
        out = T.batch_norm1d(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta),
                             np.zeros(4), np.ones(4), True, slope=slope)
        forward = out.data.tobytes()
        T.release(out)
        assert out.shape == x.shape
        assert T._value(out).tobytes() == forward

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 3.0])
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

    def test_rebuild_runs_once_per_released_layer(self, monkeypatch):
        model = PerceptualModel.initialize(tiny_config(), seed=3)
        model.set_trainable(("enc.",))
        counts = []
        batch_norm1d = T.batch_norm1d

        def counting_batch_norm1d(*args, **kwargs):
            out = batch_norm1d(*args, **kwargs)
            rebuild, layer = out._rebuild, len(counts)
            counts.append(0)

            def counted():
                counts[layer] += 1
                return rebuild()

            out._rebuild = counted
            return out

        monkeypatch.setattr(T, "batch_norm1d", counting_batch_norm1d)
        x = Tensor(np.random.default_rng(4).normal(0.0, 0.1,
                                                        size=(2, 1, model.config.clip_samples)))
        T.sum_(model.encode(x, train=True)[0]).backward()
        # the last layer's output feeds the pool and is never released
        assert counts == [1] * (model.config.encoder.n_layers - 1) + [0]

    def test_release_of_other_tensors_is_a_no_op(self):
        x, _, _, w = batch_norm_inputs(43)
        leaf = Tensor(x, requires_grad=True)
        conv = T.conv1d(leaf, Tensor(w))
        for t in (leaf, conv):
            data = t.data
            T.release(t)
            assert t.data is data


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

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 3.0])
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
        ("relu", T.relu, False),
        ("sigmoid", T.sigmoid, False),
    ])
    def test_unary_ops(self, name, fn, positive):
        rng = np.random.default_rng(hash(name) % 2 ** 31)
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

    def test_mean_over_tuple_axis(self):
        x = np.random.default_rng(44).normal(size=(2, 3, 4))
        probe = linear_probe((3,), 45)
        finite_difference_check(lambda ts: T.sum_(T.mul(T.mean_(ts[0], axis=(0, 2)), probe)), [x])

    def test_global_avg_pool(self):
        x = np.random.default_rng(46).normal(size=(2, 3, 5))
        probe = linear_probe((2, 3), 47)
        finite_difference_check(lambda ts: T.sum_(T.mul(T.global_avg_pool(ts[0]), probe)), [x])

    def test_concat_skips_part_without_gradient(self):
        rng = np.random.default_rng(48)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        mid = Tensor(rng.normal(size=(1, 3)))
        c = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        g = rng.normal(size=(6, 3))
        T.sum_(T.mul(T.concat0([a, mid, c]), Tensor(g))).backward()
        assert np.array_equal(a.grad, g[:2]) and np.array_equal(c.grad, g[3:])
        assert mid.grad is None

    def test_matmul_and_transpose(self):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        probe = linear_probe((2, 3), 15)
        finite_difference_check(
            lambda ts: T.sum_(T.mul(T.transpose2d(T.matmul(ts[0], ts[1])), probe)), [a, b])

    def test_concat_narrow_reshape(self):
        rng = np.random.default_rng(16)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        probe = linear_probe((2, 6), 17)

        def build(ts):
            cat = T.concat0([ts[0], ts[1]])               # (6, 3)
            sliced = T.narrow(cat, 0, 1, 4)               # (4, 3)
            return T.sum_(T.mul(T.reshape(sliced, (2, 6)), probe))

        finite_difference_check(build, [a, b])

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

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wmhseg import diff_core
from wmhseg.architectures import Network, build_resunet, he_init
from wmhseg.diff_core import (
    Graph,
    Parameter,
    add_backward,
    add_forward,
    concat_backward,
    concat_forward,
    conv2d_backward,
    conv2d_forward,
    grad_check,
    maxpool2_backward,
    maxpool2_forward,
    relu_backward,
    relu_forward,
    sigmoid_backward,
    sigmoid_forward,
    upconv2_forward,
)


def fd_report(kind, x, r, *params):
    """grad_check of a one-node graph under the loss sum(y * r), on every
    element of the input and of the (weight, bias) params."""
    g = Graph()
    g.add(kind, (0,), *(Parameter(n, v) for n, v in zip(("w", "b"), params)))
    return grad_check(g, x, lambda y: (float(np.sum(y * r)), r))


class TestConv2d:
    def test_direct_sum_example(self):
        # single pixel 2, kernel center 3 -> 6
        x = np.array([[[[2.0]]]])
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 3.0
        y, _ = conv2d_forward(x, w, np.zeros(1))
        assert y.item() == 6.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 7))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        y, _ = conv2d_forward(x, w, np.zeros(3))
        assert np.array_equal(y, x)

    def test_bias_added(self):
        x = np.zeros((1, 1, 2, 2))
        w = np.zeros((2, 1, 1, 1))
        y, _ = conv2d_forward(x, w, np.array([1.5, -2.0]))
        assert np.array_equal(y[0, 0], np.full((2, 2), 1.5))
        assert np.array_equal(y[0, 1], np.full((2, 2), -2.0))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_unsupported_kernel(self):
        with pytest.raises(ValueError):
            conv2d_forward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 5)), np.zeros(1))

    @pytest.mark.parametrize("k", [1, 3])
    def test_gradients_match_finite_differences(self, k):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4, 5))
        w = rng.normal(size=(2, 3, k, k))
        b = rng.normal(size=2)
        r = rng.normal(size=(2, 2, 4, 5))  # fixed projection for scalar loss
        report = fd_report(f"conv{k}x{k}", x, r, w, b)
        assert [c.name for c in report.checks] == ["w", "b", "input"]
        assert report.passed

    @pytest.mark.parametrize("k", [1, 3])
    def test_columns_written_into_a_matching_buffer(self, k):
        rng = np.random.default_rng(4)
        x, w, b = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, k, k)), rng.normal(size=2)
        want, want_cols = conv2d_forward(x, w, b)
        buf = np.full_like(want_cols, np.nan)  # every element must be overwritten
        got, cols = conv2d_forward(x, w, b, cols=buf)
        assert np.shares_memory(cols, buf)
        assert np.array_equal(got, want) and np.array_equal(cols, want_cols)
        wider = np.empty((want_cols.shape[0], want_cols.shape[1] + 1))
        for other in (wider, buf.astype(np.float32)):
            got, cols = conv2d_forward(x, w, b, cols=other)
            assert not np.shares_memory(cols, other)
            assert np.array_equal(got, want)

    def test_backward_never_calls_forward(self, monkeypatch):
        # the traced conv forward time and flops must count forward work only
        rng = np.random.default_rng(3)
        x, w = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 3, 3))
        r = rng.normal(size=(2, 2, 4, 5))
        _, cache = conv2d_forward(x, w, np.zeros(2))
        expected = conv2d_backward(r, w, cache)

        def forbidden(*args):
            raise AssertionError("conv2d_backward called conv2d_forward")

        monkeypatch.setattr(diff_core, "conv2d_forward", forbidden)
        for got, want in zip(diff_core.conv2d_backward(r, w, cache), expected):
            assert np.array_equal(got, want)


class TestRelu:
    def test_values(self):
        y, _ = relu_forward(np.array([-1.0, 2.0]))
        assert y.tolist() == [0.0, 2.0]

    def test_gradient_definition(self):
        y, cache = relu_forward(np.array([-1.0, 2.0, 0.0]))
        g = relu_backward(np.ones(3), cache)
        # subgradient 0 at exactly 0
        assert g.tolist() == [0.0, 1.0, 0.0]

    def test_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 3, 3))
        x[np.abs(x) < 0.1] = 0.5  # keep clear of the kink
        assert fd_report("relu", x, rng.normal(size=x.shape)).passed


class TestMaxpool2:
    def test_window_max(self):
        y, _ = maxpool2_forward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert y.item() == 4.0

    def test_constant_input(self):
        y, _ = maxpool2_forward(np.full((1, 2, 4, 4), 3.25))
        assert np.array_equal(y, np.full((1, 2, 2, 2), 3.25))

    def test_backward_routes_to_argmax(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        _, cache = maxpool2_forward(x)
        g = maxpool2_backward(np.array([[[[5.0]]]]), cache)
        assert g.tolist() == [[[[0.0, 0.0], [0.0, 5.0]]]]

    def test_tie_breaks_first_in_row_major_scan(self):
        x = np.zeros((1, 1, 2, 2))
        _, cache = maxpool2_forward(x)
        g = maxpool2_backward(np.array([[[[1.0]]]]), cache)
        assert g.tolist() == [[[[1.0, 0.0], [0.0, 0.0]]]]

    @pytest.mark.parametrize("tied", [
        s for s in itertools.product((False, True), repeat=4) if any(s)])
    def test_every_set_of_tied_maxima_routes_to_the_first(self, tied):
        # every window of x holds the maximum 2.5 at the `tied` positions,
        # in row-major window order, and -1.0 elsewhere
        vals = np.where(tied, 2.5, -1.0).reshape(2, 2)
        x = np.tile(vals, (2, 3, 2, 2))  # (2, 3, 4, 4): four windows a plane
        y, cache = maxpool2_forward(x)
        assert np.array_equal(y, np.full((2, 3, 2, 2), 2.5))
        g = np.random.default_rng(5).normal(size=y.shape)
        dx = maxpool2_backward(g, cache)
        first = tied.index(True)
        want = np.zeros((2, 3, 2, 2, 4))
        want[..., first] = g
        want = want.reshape(2, 3, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
        assert np.array_equal(dx, want)

    def test_signed_zero_ties_keep_the_first_zero(self):
        # -0.0 == 0.0, so each window's value is the first zero, sign bit
        # included, and the gradient goes to it; every placement of -0.0,
        # 0.0 and a smaller value over the four positions is tried
        for signs in itertools.product((None, -0.0, 0.0), repeat=4):
            if all(v is None for v in signs):
                continue
            x = np.array([-1.0 if v is None else v for v in signs]).reshape(1, 1, 2, 2)
            y, cache = maxpool2_forward(x)
            first = next(i for i, v in enumerate(signs) if v is not None)
            assert y.item() == 0.0
            assert np.signbit(y.item()) == np.signbit(signs[first]), signs
            dx = maxpool2_backward(np.array([[[[3.0]]]]), cache)
            assert dx.ravel().tolist() == [3.0 * (i == first) for i in range(4)], signs

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            maxpool2_forward(np.zeros((1, 1, 3, 4)))

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 4, 6))
        assert fd_report("maxpool2", x, rng.normal(size=(2, 2, 2, 3))).passed


class TestUpconv2:
    def test_stride2_transpose_definition(self):
        x = np.array([[[[1.0]]]])
        w = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        y, _ = upconv2_forward(x, w, np.zeros(1))
        assert y[0, 0].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_zero_input_bias_only(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 2, 2, 2))
        b = np.array([1.0, -1.0])
        y, _ = upconv2_forward(np.zeros((1, 3, 4, 4)), w, b)
        assert np.array_equal(y[0, 0], np.full((8, 8), 1.0))
        assert np.array_equal(y[0, 1], np.full((8, 8), -1.0))

    def test_doubles_spatial_dims(self):
        y, _ = upconv2_forward(
            np.zeros((2, 3, 5, 7)), np.zeros((3, 4, 2, 2)), np.zeros(4)
        )
        assert y.shape == (2, 4, 10, 14)

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 3, 4))
        w = rng.normal(size=(3, 2, 2, 2))
        b = rng.normal(size=2)
        r = rng.normal(size=(2, 2, 6, 8))
        assert fd_report("upconv2", x, r, w, b).passed


class TestConcatAdd:
    def test_concat_channel_sum_and_order(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(1, 2, 3, 3))
        b = rng.normal(size=(1, 3, 3, 3))
        y, _ = concat_forward(a, b)
        assert y.shape == (1, 5, 3, 3)
        assert np.array_equal(y[:, :2], a)
        assert np.array_equal(y[:, 2:], b)

    def test_concat_backward_splits_exactly(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 2, 2, 2))
        b = rng.normal(size=(2, 4, 2, 2))
        _, cache = concat_forward(a, b)
        g = rng.normal(size=(2, 6, 2, 2))
        ga, gb = concat_backward(g, cache)
        assert np.array_equal(ga, g[:, :2])
        assert np.array_equal(gb, g[:, 2:])

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ValueError):
            concat_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)))

    def test_add_identity_and_commutativity(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 3, 4, 4))
        b = rng.normal(size=(2, 3, 4, 4))
        assert np.array_equal(add_forward(a, np.zeros_like(a))[0], a)
        assert np.array_equal(add_forward(a, b)[0], add_forward(b, a)[0])

    def test_add_backward_passes_through(self):
        g = np.random.default_rng(9).normal(size=(1, 2, 2, 2))
        ga, gb = add_backward(g, None)
        assert np.array_equal(ga, g) and np.array_equal(gb, g)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            add_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 2, 2, 2)))


class TestSigmoid:
    def test_values(self):
        y, _ = sigmoid_forward(np.array([0.0]))
        assert y.item() == 0.5
        y, _ = sigmoid_forward(np.array([30.0]))
        assert abs(y.item() - 1.0) <= 1e-9

    def test_extreme_negative_is_stable(self):
        y, _ = sigmoid_forward(np.array([-800.0]))
        assert y.item() == 0.0 or y.item() > 0  # no overflow warnings/NaN
        assert np.isfinite(y).all()

    def test_derivative_at_zero(self):
        _, cache = sigmoid_forward(np.array([0.0]))
        g = sigmoid_backward(np.ones(1), cache)
        assert g.item() == 0.25

    def test_finite_differences(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 1, 3, 3))
        assert fd_report("sigmoid", x, rng.normal(size=x.shape)).passed


class TestGraph:
    def test_rejects_forward_references(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add("relu", (5,))

    def test_rejects_unknown_kind(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add("softmax", (0,))

    def test_forward_deterministic(self):
        rng = np.random.default_rng(11)
        g = Graph()
        w = Parameter("w", rng.normal(size=(2, 1, 3, 3)))
        b = Parameter("b", rng.normal(size=2))
        c = g.add("conv3x3", (0,), w, b)
        g.add("sigmoid", (c,))
        x = rng.normal(size=(1, 1, 4, 4))
        y1 = g.forward(x)
        y2 = g.forward(x)
        assert np.array_equal(y1, y2)

    def test_shared_input_fanout_accumulates(self):
        # y = x + x: dL/dx must be 2g
        g = Graph()
        g.add("add", (0, 0))
        x = np.ones((1, 1, 2, 2))
        g.forward(x, keep_cache=True)
        dx = g.backward(np.full((1, 1, 2, 2), 3.0))
        assert np.array_equal(dx, np.full((1, 1, 2, 2), 6.0))

    def test_backward_after_inference_forward_raises(self):
        # an inference forward keeps no caches and drops the training ones
        g = Graph()
        g.add("relu", (0,))
        x = np.ones((1, 1, 2, 2))
        g.forward(x, keep_cache=True)
        g.forward(-x)
        with pytest.raises(RuntimeError):
            g.backward(np.ones((1, 1, 2, 2)))

    @pytest.mark.parametrize("keep_cache", [False, True])
    def test_forward_drops_each_activation_after_its_last_consumer(self, keep_cache):
        g = Graph()
        for i in range(10):
            g.add("relu", (i,))
        x = np.ones((1, 1, 64, 64))
        tracemalloc.start()
        try:
            g.forward(x, keep_cache=keep_cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # at most the current input, output and masks; not all ten outputs
        assert peak < 4 * x.nbytes

    def test_ops_resolved_by_module_name_at_call_time(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x.shape)
            return relu_forward(x)

        monkeypatch.setattr(diff_core, "relu_forward", counted)
        g = Graph()
        g.add("relu", (0,))
        g.forward(np.ones((1, 1, 2, 2)))
        assert calls == [(1, 1, 2, 2)]


class TestColumnBuffers:
    SPEC = build_resunet(base_width=2, depth=2)

    def net(self, like=None):
        net = Network(self.SPEC)
        he_init(net.graph, 21)
        if like is not None:
            for p, q in zip(net.parameters(), like.parameters()):
                p.value[...] = q.value
        return net

    @staticmethod
    def training_step(net, groups):
        """Forward and backward each (input, logit gradient) group into
        zeroed gradients, as `train` does; returns the gradients."""
        net.zero_grad()
        for x, dz in groups:
            net.forward(x, train=True)
            net.backward_from_logits(dz)
        return [p.grad.copy() for p in net.parameters()]

    def test_reused_columns_give_the_gradients_of_fresh_graphs(self):
        rng = np.random.default_rng(22)
        net = self.net()
        for _step in range(3):
            # rotated rectangles: the second group's columns have the first's
            # shapes, so it writes into the buffers the first group filled
            groups = [(rng.normal(size=(2, 2, *hw)), rng.normal(size=(2, 1, *hw)))
                      for hw in ((64, 48), (48, 64))]
            want = [np.zeros_like(p.value) for p in net.parameters()]
            for group in groups:
                for acc, g in zip(want, self.training_step(self.net(like=net), [group])):
                    acc += g
            got = self.training_step(net, groups)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            for p in net.parameters():  # the next step runs other weights
                p.value += 0.01 * rng.normal(size=p.value.shape)
            net.forward(rng.normal(size=(1, 2, 32, 16)))  # inference between steps

    def test_same_shape_steps_share_column_memory(self, monkeypatch):
        rng = np.random.default_rng(23)
        net = self.net()
        convs = [n for n in net.graph.nodes if n.kind == "conv3x3"]
        pointwise = [n for n in net.graph.nodes if n.kind == "conv1x1"]
        shared = []  # per 1x1 forward: do its columns share its input's memory?
        real = diff_core.conv2d_forward

        def spy(x, w, b, **kwargs):
            out, cols = real(x, w, b, **kwargs)
            if w.shape[2] == 1:
                shared.append(np.shares_memory(cols, x))
            return out, cols

        monkeypatch.setattr(diff_core, "conv2d_forward", spy)

        def step():
            self.training_step(net, [(rng.normal(size=(2, 2, 16, 16)),
                                      rng.normal(size=(2, 1, 16, 16)))])

        step()
        first = [n.cols for n in convs]
        saved = [c.copy() for c in first]
        net.forward(rng.normal(size=(2, 2, 16, 16)))  # inference: same shapes
        assert all(np.array_equal(n.cols, c) for n, c in zip(convs, saved))
        step()
        assert all(np.shares_memory(n.cols, c) for n, c in zip(convs, first))
        # a 1x1 conv's columns are its input, so it keeps no buffer
        assert all(n.cols is None for n in pointwise)
        assert len(shared) == 3 * len(pointwise) and all(shared)
        net.graph.release_column_buffers()
        assert all(n.cols is None for n in net.graph.nodes)


class TestGradCheck:
    def test_single_conv_plus_loss(self):
        rng = np.random.default_rng(12)
        g = Graph()
        g.add(
            "conv3x3",
            (0,),
            Parameter("w", rng.normal(size=(2, 3, 3, 3))),
            Parameter("b", rng.normal(size=2)),
        )
        report = grad_check(g, rng.normal(size=(1, 3, 5, 5)))
        assert report.passed
        assert report.max_rel_error <= 1e-4

    def test_zero_parameter_graph_checks_only_the_input(self):
        g = Graph()
        g.add("relu", (0,))
        x = np.random.default_rng(13).normal(size=(1, 1, 2, 2))
        before = x.copy()
        report = grad_check(g, x)
        assert report.passed
        assert [(c.name, c.checked_elements) for c in report.checks] == [("input", 4)]
        assert np.array_equal(x, before)

    def test_input_check_catches_misrouted_maxpool_gradient(self, monkeypatch):
        # route each window's gradient to the mirrored position 3 - argmax
        routed = diff_core.maxpool2_backward
        monkeypatch.setattr(diff_core, "maxpool2_backward",
                            lambda g, cache: routed(g, (3 - cache[0], cache[1])))
        g = Graph()
        g.add("maxpool2", (0,))
        report = grad_check(g, np.random.default_rng(15).normal(size=(1, 2, 4, 4)))
        assert [c.name for c in report.checks] == ["input"]
        assert not report.passed


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(1, 2),
    channels=st.integers(1, 3),
    h=st.integers(1, 4),
    w=st.integers(1, 4),
    k=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**31),
)
def test_property_operator_gradients_on_random_shapes(batch, channels, h, w, k, seed):
    """Backward matches central differences on randomized shapes, and the
    conv's three gradients are exact adjoints of its linear parts."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, channels, h, w))
    out_c = int(rng.integers(1, 4))
    wk = rng.normal(size=(out_c, channels, k, k))
    bk = rng.normal(size=out_c)
    r = rng.normal(size=(batch, out_c, h, w))
    assert fd_report(f"conv{k}x{k}", x, r, wk, bk).passed

    y, cache = conv2d_forward(x, wk, bk)
    dx, dw, db = conv2d_backward(r, wk, cache)

    # <conv(x, w), g> = <x, dx> = <w, dw> and <db, b> = <g, b>, each to
    # 1e-12 of the sum of the absolute products
    b4 = bk.reshape(1, -1, 1, 1)
    scale = np.sum(conv2d_forward(np.abs(x), np.abs(wk), np.zeros(out_c))[0] * np.abs(r))
    lin = np.sum((y - b4) * r)
    assert abs(np.sum(x * dx) - lin) <= 1e-12 * scale
    assert abs(np.sum(wk * dw) - lin) <= 1e-12 * scale
    assert abs(np.sum(db * bk) - np.sum(r * b4)) <= 1e-12 * np.sum(np.abs(r * b4))

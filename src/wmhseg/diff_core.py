"""Minimal differentiable-operator engine.

Every operator ships a hand-written forward and exact backward pass; there
is no general autodiff. Tensors are numpy arrays of shape (batch,
channels, height, width), and the executor stores them channel-major:
every activation and gradient is the .transpose(1, 0, 2, 3) view of a
C-contiguous (C, B, H, W) array, so each GEMM reads and writes its
(C, B*H*W) matrices in place. The ops accept any layout; only their speed
depends on it. Graphs are flat lists of OpNodes whose inputs reference
earlier nodes only, so construction order is the topological order and
the reverse order drives backpropagation.

Convolutions use zero "same" padding so every stage preserves spatial
dims; each is one GEMM against its (inC*k*k, B*H*W) im2col columns, and
its input gradient is the convolution of the upstream gradient with the
flipped, channel-transposed kernel. A 1x1 conv's columns are its input
reshaped, with no copy. Max-pool tie-breaking is first occurrence in
row-major window scan. Forward passes are deterministic: identical inputs
and parameters produce bit-identical outputs, and the layout changes no
product and no order of summation. A forward keeps each activation only
until its last consumer has run.

Column buffers: a training forward (keep_cache=True) writes each 3x3 conv
node's im2col columns into the array that the same node's columns used in
the previous training forward, whenever its shape and dtype match, and
allocates a new one otherwise. When that array was last filled from an
input of the same shape, its zero border strips are not written again.
The node keeps that array as `OpNode.cols` between steps, so training
does not allocate and free tens of MB of columns every step;
`Graph.release_column_buffers` drops them, and `training.train` calls it
when training ends. An inference forward allocates its own columns and
never writes into those buffers. Backward has finished with the columns
by the time the next training forward overwrites them.

Input gradient: `Graph.backward(..., input_grad=False)`, the training
path, computes no dL/d(input); the convs that read the input node run no
dx im2col or GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Parameter:
    """A learnable tensor with a gradient buffer of identical shape."""

    name: str
    value: np.ndarray
    grad: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value)
        if self.value.dtype not in (np.float32, np.float64):
            self.value = self.value.astype(np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        if self.grad.shape != self.value.shape:
            raise ValueError(
                f"{self.name}: grad shape {self.grad.shape} != value {self.value.shape}"
            )

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def _check4(x: np.ndarray, who: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"{who}: expected (batch, channels, h, w), got {x.shape}")
    return x


# ---------------------------------------------------------------------------
# conv2d (k in {1, 3}, zero padding (k-1)/2, stride 1)


def _im2col(x: np.ndarray, k: int, out: np.ndarray | None = None,
            zeroed: bool = False) -> np.ndarray:
    """(B, C, H, W) -> (C*k*k, B*H*W) with zero 'same' padding: one column
    per output pixel of the whole batch. Each tap copies its in-bounds
    window straight from the input and zeroes only the strips that fall
    outside it, so no padded copy is made. The columns are written into
    `out` when its shape and dtype match, keeping its strips if `zeroed`.
    Without `out`, k = 1 returns `_channel_rows(x)`."""
    if k == 1 and out is None:
        return _channel_rows(x)
    b, c, h, w = x.shape
    pad = (k - 1) // 2
    xt = x.transpose(1, 0, 2, 3)
    if out is not None and out.shape == (c * k * k, b * h * w) and out.dtype == x.dtype:
        cols = out.reshape(c, k, k, b, h, w)
    else:
        cols = np.empty((c, k, k, b, h, w), dtype=x.dtype)
        zeroed = False
    for di in range(k):
        i0, i1 = max(pad - di, 0), min(h + pad - di, h)  # output rows inside
        for dj in range(k):
            j0, j1 = max(pad - dj, 0), min(w + pad - dj, w)
            tap = cols[:, di, dj]
            tap[:, :, i0:i1, j0:j1] = xt[:, :, i0 + di - pad : i1 + di - pad,
                                         j0 + dj - pad : j1 + dj - pad]
            if not zeroed:
                tap[:, :, :i0] = tap[:, :, i1:] = 0
                tap[..., :j0] = tap[..., j1:] = 0
    return cols.reshape(c * k * k, b * h * w)


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                   cols: np.ndarray | None = None, zeroed: bool = False):
    """Same-padded stride-1 convolution, kernel (outC, inC, k, k), k in {1, 3}.

    Returns (out, cache); out is stored channel-major and the cache is the
    (inC*k*k, B*H*W) column matrix. It is written into `cols` when that
    buffer's shape and dtype match (see `_im2col` for `zeroed`).
    """
    x = _check4(x, "conv2d")
    out_c, in_c, k, k2 = w.shape
    if k != k2 or k not in (1, 3):
        raise ValueError(f"unsupported kernel size {k}x{k2}")
    if x.shape[1] != in_c:
        raise ValueError(f"channel mismatch: input {x.shape[1]}, kernel {in_c}")
    batch, _, h, wd = x.shape
    cols = _im2col(x, k, cols, zeroed)
    out = w.reshape(out_c, -1) @ cols
    out += b.reshape(out_c, 1)
    return out.reshape(out_c, batch, h, wd).transpose(1, 0, 2, 3), cols


def conv2d_backward(g: np.ndarray, w: np.ndarray, cache, need_dx: bool = True):
    """Returns (dx, dw, db) for the upstream gradient g. dw is one GEMM of g
    against the cached columns; dx (None unless need_dx) is the convolution
    of g with the flipped, channel-transposed kernel w[:, :, ::-1, ::-1]."""
    out_c, in_c, k, _ = w.shape
    batch, _, h, wd = g.shape
    gm = _channel_rows(g)
    db = gm.sum(axis=1)
    # the products and their order of gm @ cache.T, in the faster orientation
    dw = (cache @ gm.T).T.reshape(w.shape)
    if not need_dx:
        return None, dw, db
    wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(in_c, -1)
    dx = (wf @ _im2col(g, k)).reshape(in_c, batch, h, wd)
    return dx.transpose(1, 0, 2, 3), dw, db


def relu_forward(x: np.ndarray):
    x = np.asarray(x)
    out = np.maximum(x, 0.0)
    return out, (x > 0.0)


def relu_backward(g: np.ndarray, cache) -> np.ndarray:
    return g * cache


def maxpool2_forward(x: np.ndarray):
    """2x2 max pooling, stride 2. Spatial dims must be even."""
    x = _check4(x, "maxpool2")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    # the window's taps in row-major order; a tie (-0.0 == 0.0 included)
    # keeps the earlier tap, so value and index are the first maximal tap's
    v0, v1, v2, v3 = (x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1))
    first, third = v0 >= v1, v2 >= v3
    upper, lower = np.where(first, v0, v1), np.where(third, v2, v3)
    top = upper >= lower
    arg = np.where(top, ~first, ~third + np.int8(2))  # int8 in 0..3
    return np.where(top, upper, lower), (arg, x.shape)


def maxpool2_backward(g: np.ndarray, cache) -> np.ndarray:
    arg, x_shape = cache
    b, c, h, w = x_shape
    dx = np.zeros((c, b, h, w), dtype=g.dtype).transpose(1, 0, 2, 3)
    for tap, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        np.copyto(dx[:, :, i::2, j::2], g, where=arg == tap)
    return dx


def upconv2_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Transposed convolution, kernel (inC, outC, 2, 2), stride 2.

    Output windows do not overlap, so each output pixel sees exactly one
    input pixel: out[n, o, 2i+di, 2j+dj] = sum_c x[n, c, i, j] w[c, o, di, dj] + b[o].
    """
    x = _check4(x, "upconv2")
    in_c, out_c, kh, kw = w.shape
    if (kh, kw) != (2, 2):
        raise ValueError(f"upconv2 expects a 2x2 kernel, got {kh}x{kw}")
    if x.shape[1] != in_c:
        raise ValueError(f"channel mismatch: input {x.shape[1]}, kernel {in_c}")
    batch, _, h, wd = x.shape
    # one GEMM: (O*4, C) @ (C, B*H*W), then spread the 2x2 taps spatially
    t = w.reshape(in_c, out_c * 4).T @ _channel_rows(x)
    t = t.reshape(out_c, 2, 2, batch, h, wd)
    out = np.empty((out_c, batch, h, 2, wd, 2), dtype=t.dtype)
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        np.add(t[:, di, dj], b.reshape(out_c, 1, 1, 1), out=out[:, :, :, di, :, dj])
    return out.reshape(out_c, batch, 2 * h, 2 * wd).transpose(1, 0, 2, 3), (x, w.shape)


def _channel_rows(x: np.ndarray) -> np.ndarray:
    """(B, C, H, W) -> (C, B*H*W), no copy when x is stored channel-major."""
    return x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)


def upconv2_backward(g: np.ndarray, w: np.ndarray, cache):
    x, w_shape = cache
    batch, in_c, h, wd = x.shape
    out_c = w_shape[1]
    db = _channel_rows(g).sum(axis=1)
    # (O*4, B*H*W): row o*4 + di*2 + dj holds tap (di, dj) of output channel o
    taps = g.reshape(batch, out_c, h, 2, wd, 2).transpose(1, 3, 5, 0, 2, 4)
    taps = taps.reshape(out_c * 4, -1)
    dw = (_channel_rows(x) @ taps.T).reshape(w_shape)
    dx = (w.reshape(in_c, out_c * 4) @ taps).reshape(in_c, batch, h, wd)
    return dx.transpose(1, 0, 2, 3), dw, db


def concat_forward(a: np.ndarray, b: np.ndarray):
    a, b = _check4(a, "concat"), _check4(b, "concat")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(f"concat batch/spatial mismatch: {a.shape} vs {b.shape}")
    out = np.concatenate([a.transpose(1, 0, 2, 3), b.transpose(1, 0, 2, 3)])
    return out.transpose(1, 0, 2, 3), a.shape[1]


def concat_backward(g: np.ndarray, cache):
    c_a = cache
    return g[:, :c_a], g[:, c_a:]


def add_forward(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return a + b, None


def add_backward(g: np.ndarray, cache):
    return g, g


def sigmoid_forward(x: np.ndarray):
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out, out


def sigmoid_backward(g: np.ndarray, cache) -> np.ndarray:
    y = cache
    return g * y * (1.0 - y)


# ---------------------------------------------------------------------------
# Graph


def _conv_forward(ins: list, n: OpNode, train: bool):
    """A training forward of a 3x3 conv writes the columns into the node's
    buffer from its previous training forward and keeps them there for
    the next; a 1x1 conv's columns are its input, so it keeps none."""
    x, w = ins[0], n.weight.value
    if not train or w.shape[2] == 1:
        return conv2d_forward(x, w, n.bias.value)
    out, n.cols = conv2d_forward(x, w, n.bias.value, cols=n.cols,
                                 zeroed=n.cols_from == x.shape)
    n.cols_from = x.shape
    return out, n.cols


# One entry per op kind: (forward, backward). forward(inputs, node, train)
# returns (out, cache); train is True in a training forward.
# backward(g, node, cache) returns one gradient per input, followed by
# (dw, db) for ops with parameters; a conv's takes False as a fourth
# argument to skip its input gradient (None). The entries look the op
# functions up by module name at call time, so rebinding
# `diff_core.conv2d_forward` and the others (e.g. to time them) takes
# effect in the executor.
_CONV = (
    _conv_forward,
    lambda g, n, c, need_dx=True: conv2d_backward(g, n.weight.value, c, need_dx),
)
OPS: dict[str, tuple[Callable, Callable]] = {
    "conv3x3": _CONV,
    "conv1x1": _CONV,
    "relu": (
        lambda ins, n, train: relu_forward(ins[0]),
        lambda g, n, c: (relu_backward(g, c),),
    ),
    "maxpool2": (
        lambda ins, n, train: maxpool2_forward(ins[0]),
        lambda g, n, c: (maxpool2_backward(g, c),),
    ),
    "upconv2": (
        lambda ins, n, train: upconv2_forward(ins[0], n.weight.value, n.bias.value),
        lambda g, n, c: upconv2_backward(g, n.weight.value, c),
    ),
    "concat": (
        lambda ins, n, train: concat_forward(ins[0], ins[1]),
        lambda g, n, c: concat_backward(g, c),
    ),
    "add": (
        lambda ins, n, train: add_forward(ins[0], ins[1]),
        lambda g, n, c: add_backward(g, c),
    ),
    "sigmoid": (
        lambda ins, n, train: sigmoid_forward(ins[0]),
        lambda g, n, c: (sigmoid_backward(g, c),),
    ),
}


@dataclass
class OpNode:
    """One operator application; inputs reference earlier node indices."""

    kind: str
    inputs: tuple[int, ...] = ()
    weight: Parameter | None = None
    bias: Parameter | None = None
    # 3x3 conv nodes: the im2col columns of the last training forward,
    # which the next training forward writes into, and the shape of the
    # input they were filled from (see the module docstring)
    cols: np.ndarray | None = field(default=None, repr=False)
    cols_from: tuple[int, ...] | None = None


class Graph:
    """A flat acyclic operator graph with node 0 as the input."""

    def __init__(self) -> None:
        self.nodes: list[OpNode] = [OpNode(kind="input")]
        self._x: np.ndarray | None = None
        self._caches: list | None = None
        self._last_use: dict[int, int] = {}  # node -> its last consumer

    def add(
        self,
        kind: str,
        inputs: tuple[int, ...],
        weight: Parameter | None = None,
        bias: Parameter | None = None,
    ) -> int:
        if kind not in OPS:
            raise ValueError(f"unknown op kind {kind!r}")
        idx = len(self.nodes)
        for i in inputs:
            if not 0 <= i < idx:
                raise ValueError(f"node {idx} input {i} is not an earlier node")
        self.nodes.append(OpNode(kind=kind, inputs=inputs, weight=weight, bias=bias))
        self._last_use.update((i, idx) for i in inputs)
        return idx

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for n in self.nodes:
            if n.weight is not None:
                params.append(n.weight)
            if n.bias is not None:
                params.append(n.bias)
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def release_column_buffers(self) -> None:
        """Drop the column buffers kept between training forwards."""
        for n in self.nodes:
            n.cols = n.cols_from = None

    def forward(self, x: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        """Run every node in order. Each activation is dropped once its
        last consumer has run. keep_cache=True keeps the per-op caches
        for backward; otherwise each cache is dropped as soon as its op
        returns, and those of an earlier forward are released too. A
        training forward writes each 3x3 conv's columns into that node's
        buffer from the previous training forward; an inference forward
        leaves those buffers as they are."""
        self._x = self._caches = None
        # the input is stored channel-major, as every activation is
        x = np.ascontiguousarray(np.asarray(x).transpose(1, 0, 2, 3))
        x = x.transpose(1, 0, 2, 3)
        acts: list[np.ndarray | None] = [x]
        caches: list = [None]
        for idx, n in enumerate(self.nodes[1:], 1):
            out, cache = OPS[n.kind][0]([acts[i] for i in n.inputs], n, keep_cache)
            acts.append(out)
            for i in n.inputs:
                if self._last_use[i] == idx:
                    acts[i] = None
            if keep_cache:
                caches.append(cache)
            del cache
        if keep_cache:
            self._x, self._caches = x, caches
        return acts[-1]

    def backward(self, g_out: np.ndarray, at: int | None = None,
                 input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate from node `at` (default: output node).

        Accumulates into Parameter.grad and returns dL/d(input), or None
        with input_grad=False (see the module docstring). Requires the last
        forward to be forward(..., keep_cache=True).
        """
        if self._caches is None:
            raise RuntimeError("backward requires a forward(keep_cache=True) first")
        caches = self._caches
        if at is None:
            at = len(self.nodes) - 1
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[at] = np.asarray(g_out)
        for idx in range(at, 0, -1):
            g = grads[idx]
            if g is None:
                continue
            n = self.nodes[idx]
            args = (g, n, caches[idx])
            if not input_grad and n.inputs == (0,) and n.kind in ("conv3x3", "conv1x1"):
                args += (False,)
            in_grads = OPS[n.kind][1](*args)
            if n.weight is not None:
                *in_grads, dw, db = in_grads
                n.weight.grad += dw
                n.bias.grad += db
            for i, gi in zip(n.inputs, in_grads):
                if gi is not None:
                    # no gradient is written in place, so views need no copy
                    grads[i] = gi if grads[i] is None else grads[i] + gi
            grads[idx] = None
        if not input_grad:
            return None
        out = grads[0]
        return out if out is not None else np.zeros_like(self._x)


# ---------------------------------------------------------------------------
# Finite-difference self-check


@dataclass
class ParamCheck:
    name: str
    max_rel_error: float
    checked_elements: int
    passed: bool


# central differences at GRAD_CHECK_STEP, and the largest relative error
# a gradient element may show
GRAD_CHECK_STEP = 1e-5
GRAD_CHECK_TOLERANCE = 1e-4


@dataclass
class GradCheckReport:
    checks: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((c.max_rel_error for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def grad_check(
    graph: Graph,
    x: np.ndarray,
    loss_fn: Callable[[np.ndarray], tuple[float, np.ndarray]] | None = None,
) -> GradCheckReport:
    """Compare the analytic gradients of every parameter and of the input
    against central differences, on every element.

    loss_fn maps the graph output to (scalar loss, dloss/doutput); the
    default is 0.5*sum(y^2). There is one check per parameter, then one
    named "input" for dL/d(input); it perturbs a float64 copy of x, so the
    caller's array is left as it was. Relative error uses a per-tensor
    scale floor (1% of the largest gradient magnitude) so near-zero
    entries are judged against the tensor's own scale rather than blowing
    up.

    Central differences can straddle a relu/maxpool kink when some
    pre-activation sits within the step of its switching point, so
    elements that fail at GRAD_CHECK_STEP are retried at 1/8 and 1/64 of
    it: a kink leaves the shrinking interval (its distance is fixed for a
    fixed input), while a genuine backward-pass bug keeps failing at every
    step.
    """
    if loss_fn is None:
        loss_fn = lambda y: (0.5 * float(np.sum(y * y)), y)
    x = np.array(x, dtype=np.float64, order="C")

    graph.zero_grad()
    out = graph.forward(x, keep_cache=True)
    _, g_out = loss_fn(out)
    dx = graph.backward(g_out)

    report = GradCheckReport()
    params = [(p.name, p.grad, p.value) for p in graph.parameters()]
    for name, grad, value in [*params, ("input", dx, x)]:
        a, flat = grad.ravel(), value.ravel()
        scale_floor = max(1e-2 * float(np.max(np.abs(a), initial=0.0)), 1e-8)

        def rel_error(i: int) -> float:
            orig = flat[i]
            for h in (GRAD_CHECK_STEP, GRAD_CHECK_STEP / 8, GRAD_CHECK_STEP / 64):
                flat[i] = orig + h
                lp, _ = loss_fn(graph.forward(x))
                flat[i] = orig - h
                lm, _ = loss_fn(graph.forward(x))
                flat[i] = orig
                numeric = (lp - lm) / (2.0 * h)
                r = abs(a[i] - numeric) / max(abs(a[i]), abs(numeric), scale_floor)
                if r <= GRAD_CHECK_TOLERANCE:
                    break
            return r

        # np.max keeps a NaN error, so a NaN gradient fails
        rel = float(np.max([rel_error(i) for i in range(a.size)], initial=0.0))
        report.checks.append(ParamCheck(name, rel, a.size, rel <= GRAD_CHECK_TOLERANCE))
    return report

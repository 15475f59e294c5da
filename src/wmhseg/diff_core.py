"""Minimal differentiable-operator engine.

Every operator ships a hand-written forward and exact backward pass; there
is no general autodiff. Tensors are plain numpy arrays of shape
(batch, channels, height, width). Graphs are flat lists of OpNodes whose
inputs reference earlier nodes only, so construction order is the
topological order and the reverse order drives backpropagation.

Convolutions use zero "same" padding so every stage preserves spatial
dims; each is one GEMM against its (inC*k*k, B*H*W) im2col columns, and
its input gradient is the convolution of the upstream gradient with the
flipped, channel-transposed kernel. Max-pool tie-breaking is first
occurrence in row-major window scan. Forward passes are deterministic:
identical inputs and parameters produce bit-identical outputs.
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


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(B, C, H, W) -> (C*k*k, B*H*W) with zero 'same' padding: one column
    per output pixel of the whole batch. Each tap copies its in-bounds
    window straight from the input and zeroes only the strips that fall
    outside it, so no padded copy is made (k = 1 is one plain copy)."""
    b, c, h, w = x.shape
    pad = (k - 1) // 2
    xt = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, k, k, b, h, w), dtype=x.dtype)
    for di in range(k):
        i0, i1 = max(pad - di, 0), min(h + pad - di, h)  # output rows inside
        for dj in range(k):
            j0, j1 = max(pad - dj, 0), min(w + pad - dj, w)
            tap = cols[:, di, dj]
            tap[:, :, i0:i1, j0:j1] = xt[:, :, i0 + di - pad : i1 + di - pad,
                                         j0 + dj - pad : j1 + dj - pad]
            tap[:, :, :i0] = tap[:, :, i1:] = 0
            tap[..., :j0] = tap[..., j1:] = 0
    return cols.reshape(c * k * k, b * h * w)


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Same-padded stride-1 convolution, kernel (outC, inC, k, k), k in {1, 3}.

    Returns (out, cache); the cache is the (inC*k*k, B*H*W) column matrix.
    """
    x = _check4(x, "conv2d")
    out_c, in_c, k, k2 = w.shape
    if k != k2 or k not in (1, 3):
        raise ValueError(f"unsupported kernel size {k}x{k2}")
    if x.shape[1] != in_c:
        raise ValueError(f"channel mismatch: input {x.shape[1]}, kernel {in_c}")
    batch, _, h, wd = x.shape
    cols = _im2col(x, k)
    out = w.reshape(out_c, -1) @ cols + b.reshape(out_c, 1)
    out = out.reshape(out_c, batch, h, wd)
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3)), cols


def conv2d_backward(g: np.ndarray, w: np.ndarray, cache):
    """Returns (dx, dw, db) for the upstream gradient g. dw is one GEMM of g
    against the cached columns; dx is the convolution of g with the flipped,
    channel-transposed kernel w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)."""
    out_c, in_c, k, _ = w.shape
    batch, _, h, wd = g.shape
    gm = g.transpose(1, 0, 2, 3).reshape(out_c, -1)
    db = gm.sum(axis=1)
    dw = (gm @ cache.T).reshape(w.shape)
    wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(in_c, -1)
    dx = (wf @ _im2col(g, k)).reshape(in_c, batch, h, wd)
    return np.ascontiguousarray(dx.transpose(1, 0, 2, 3)), dw, db


def relu_forward(x: np.ndarray):
    x = np.asarray(x)
    out = np.maximum(x, 0.0)
    return out, (x > 0.0)


def relu_backward(g: np.ndarray, cache) -> np.ndarray:
    return g * cache


def maxpool2_forward(x: np.ndarray):
    """2x2 max pooling, stride 2. Spatial dims must be even."""
    x = _check4(x, "maxpool2")
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    win = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(b, c, h // 2, w // 2, 4)
    # argmax returns the first maximal index: row-major within the window.
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return out, (arg, x.shape)


def maxpool2_backward(g: np.ndarray, cache) -> np.ndarray:
    arg, x_shape = cache
    b, c, h, w = x_shape
    flat = np.zeros((b, c, h // 2, w // 2, 4), dtype=g.dtype)
    np.put_along_axis(flat, arg[..., None], g[..., None], axis=-1)
    return (
        flat.reshape(b, c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, h, w)
    )


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
    # one GEMM: (B*H*W, C) @ (C, O*4), then spread the 2x2 taps spatially
    xt = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(-1, in_c)
    t = xt @ w.reshape(in_c, out_c * 4)
    t = t.reshape(batch, h, wd, out_c, 2, 2).transpose(0, 3, 1, 4, 2, 5)
    out = t.reshape(batch, out_c, 2 * h, 2 * wd) + b.reshape(1, out_c, 1, 1)
    return out, (x, w.shape)


def _upconv2_g_matrix(g: np.ndarray, out_c: int) -> np.ndarray:
    """Rearrange (B, O, 2H, 2W) gradients to (B*H*W, O*4) tap order."""
    batch, _, h2, w2 = g.shape
    g6 = g.reshape(batch, out_c, h2 // 2, 2, w2 // 2, 2)
    gt = g6.transpose(0, 2, 4, 1, 3, 5)  # (B, H, W, O, 2, 2)
    return np.ascontiguousarray(gt).reshape(-1, out_c * 4)


def upconv2_backward(g: np.ndarray, w: np.ndarray, cache):
    x, w_shape = cache
    batch, in_c, h, wd = x.shape
    out_c = w_shape[1]
    db = g.sum(axis=(0, 2, 3))
    gm = _upconv2_g_matrix(g, out_c)  # (B*H*W, O*4)
    xt = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(-1, in_c)
    dw = (xt.T @ gm).reshape(w_shape)
    dx = (gm @ w.reshape(in_c, out_c * 4).T).reshape(batch, h, wd, in_c)
    return np.ascontiguousarray(dx.transpose(0, 3, 1, 2)), dw, db


def concat_forward(a: np.ndarray, b: np.ndarray):
    a, b = _check4(a, "concat"), _check4(b, "concat")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(f"concat batch/spatial mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1), a.shape[1]


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


# One entry per op kind: (forward, backward). forward(inputs, node) returns
# (out, cache); backward(g, node, cache) returns one gradient per input,
# followed by (dw, db) for ops with parameters. The entries look the op
# functions up by module name at call time, so rebinding
# `diff_core.conv2d_forward` and the others (e.g. to time them) takes
# effect in the executor.
_CONV = (
    lambda ins, n: conv2d_forward(ins[0], n.weight.value, n.bias.value),
    lambda g, n, c: conv2d_backward(g, n.weight.value, c),
)
OPS: dict[str, tuple[Callable, Callable]] = {
    "conv3x3": _CONV,
    "conv1x1": _CONV,
    "relu": (
        lambda ins, n: relu_forward(ins[0]),
        lambda g, n, c: (relu_backward(g, c),),
    ),
    "maxpool2": (
        lambda ins, n: maxpool2_forward(ins[0]),
        lambda g, n, c: (maxpool2_backward(g, c),),
    ),
    "upconv2": (
        lambda ins, n: upconv2_forward(ins[0], n.weight.value, n.bias.value),
        lambda g, n, c: upconv2_backward(g, n.weight.value, c),
    ),
    "concat": (
        lambda ins, n: concat_forward(ins[0], ins[1]),
        lambda g, n, c: concat_backward(g, c),
    ),
    "add": (
        lambda ins, n: add_forward(ins[0], ins[1]),
        lambda g, n, c: add_backward(g, c),
    ),
    "sigmoid": (
        lambda ins, n: sigmoid_forward(ins[0]),
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


class Graph:
    """A flat acyclic operator graph with node 0 as the input."""

    def __init__(self) -> None:
        self.nodes: list[OpNode] = [OpNode(kind="input")]
        self._x: np.ndarray | None = None
        self._caches: list | None = None

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

    def forward(self, x: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        """Run every node in order. keep_cache=True keeps the per-op caches
        for backward; otherwise each cache is dropped as soon as its op
        returns, and those of an earlier forward are released too."""
        self._x = self._caches = None
        acts: list[np.ndarray] = [np.asarray(x)]
        caches: list = [None]
        for n in self.nodes[1:]:
            out, cache = OPS[n.kind][0]([acts[i] for i in n.inputs], n)
            acts.append(out)
            if keep_cache:
                caches.append(cache)
            del cache
        if keep_cache:
            self._x, self._caches = acts[0], caches
        return acts[-1]

    def backward(self, g_out: np.ndarray, at: int | None = None) -> np.ndarray:
        """Backpropagate from node `at` (default: output node).

        Accumulates into Parameter.grad and returns dL/d(input). Requires
        the last forward to be forward(..., keep_cache=True).
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
            in_grads = OPS[n.kind][1](g, n, caches[idx])
            if n.weight is not None:
                *in_grads, dw, db = in_grads
                n.weight.grad += dw
                n.bias.grad += db
            for i, gi in zip(n.inputs, in_grads):
                _accumulate(grads, i, gi)
            grads[idx] = None
        out = grads[0]
        return out if out is not None else np.zeros_like(self._x)


def _accumulate(grads: list, idx: int, g: np.ndarray) -> None:
    if grads[idx] is None:
        grads[idx] = g.copy() if g.base is not None else g
    else:
        grads[idx] = grads[idx] + g


# ---------------------------------------------------------------------------
# Finite-difference self-check


@dataclass
class ParamCheck:
    name: str
    max_rel_error: float
    checked_elements: int
    passed: bool


@dataclass
class GradCheckReport:
    checks: list[ParamCheck] = field(default_factory=list)
    tolerance: float = 1e-4

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
    tolerance: float = 1e-4,
    step: float = 1e-5,
    max_elements: int = 256,
    seed: int = 0,
) -> GradCheckReport:
    """Compare the analytic gradients of every parameter and of the input
    against central differences.

    loss_fn maps the graph output to (scalar loss, dloss/doutput); the
    default is 0.5*sum(y^2). There is one check per parameter, then one
    named "input" for dL/d(input); it perturbs a float64 copy of x, so the
    caller's array is left as it was. Tensors larger than max_elements are
    subsampled with a seeded RNG. Relative error uses a per-tensor scale
    floor (1% of the largest gradient magnitude) so near-zero entries are
    judged against the tensor's own scale rather than blowing up.

    Central differences can straddle a relu/maxpool kink when some
    pre-activation sits within `step` of its switching point, so elements
    that fail at the base step are retried at step/8 and step/64: a kink
    leaves the shrinking interval (its distance is fixed for a fixed
    input), while a genuine backward-pass bug keeps failing at every step.
    """
    if loss_fn is None:
        loss_fn = lambda y: (0.5 * float(np.sum(y * y)), y)
    rng = np.random.default_rng(seed)
    x = np.array(x, dtype=np.float64, order="C")

    graph.zero_grad()
    out = graph.forward(x, keep_cache=True)
    _, g_out = loss_fn(out)
    dx = graph.backward(g_out)

    report = GradCheckReport(tolerance=tolerance)
    params = [(p.name, p.grad, p.value) for p in graph.parameters()]
    for name, grad, value in [*params, ("input", dx, x)]:
        analytic = grad.ravel()
        n = analytic.size
        if n == 0:
            report.checks.append(ParamCheck(name, 0.0, 0, True))
            continue
        if n <= max_elements:
            indices = np.arange(n)
        else:
            indices = rng.choice(n, size=max_elements, replace=False)
            indices.sort()
        flat = value.ravel()

        def central_diff(i: int, h: float) -> float:
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_fn(graph.forward(x))
            flat[i] = orig - h
            lm, _ = loss_fn(graph.forward(x))
            flat[i] = orig
            return (lp - lm) / (2.0 * h)

        a = analytic[indices]
        scale_floor = max(1e-2 * float(np.max(np.abs(analytic))), 1e-8)

        def rel_of(j: int, numeric_j: float) -> float:
            denom = max(abs(a[j]), abs(numeric_j), scale_floor)
            return abs(a[j] - numeric_j) / denom

        rels = np.empty(indices.size)
        for j, i in enumerate(indices):
            r = rel_of(j, central_diff(i, step))
            for shrink in (8.0, 64.0):
                if r <= tolerance:
                    break
                r = rel_of(j, central_diff(i, step / shrink))
            rels[j] = r
        rel = float(np.max(rels)) if indices.size else 0.0
        report.checks.append(
            ParamCheck(name, rel, int(indices.size), rel <= tolerance)
        )
    return report

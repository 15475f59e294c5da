"""Network topologies: the residual U-Net for lesion segmentation and the
trimmed (one-fewer-pooling) plain U-Net for white matter masking.

Both share the same encoder/decoder frame: `depth` encoder stages each
followed by 2x2 max pooling, a bottleneck stage, and a decoder of
upconv -> concat(skip) -> stage, ending in a 1x1 conv + sigmoid head.
Stage s carries base_width * 2^s channels. Residual stages compute
skip(x) + conv3x3(relu(conv3x3(x))) with a 1x1 projection on the skip
path; plain stages are the classic double conv3x3/relu. One block builder
wires both.

Building and initializing are separate steps. `Network(spec, dtype)`
builds the graph with every parameter zero and draws no random numbers;
`he_init(graph, seed)` then draws the weights in one pass over the graph
(biases stay zero), or `checkpoint.load_checkpoint` reads them from a file.
`training.train` builds its networks in float32 and, after `he_init`,
zeroes the last conv of every residual branch (`*.conv2.w`); `he_init`
itself draws every weight. The float64 default serves gradient checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diff_core import Graph, Parameter

BLOCK_KINDS = ("residual", "plain")


@dataclass(frozen=True)
class ResidualBlockSpec:
    """One Eq.-style residual unit: residual path conv3x3-relu-conv3x3,
    skip path 1x1 projection (or identity when channels match and
    projection is not forced), optional relu after the addition."""

    in_channels: int
    out_channels: int
    projection: bool = True
    post_add_relu: bool = True

    def __post_init__(self) -> None:
        if not self.projection and self.in_channels != self.out_channels:
            raise ValueError(
                "identity skip requires matching channels "
                f"({self.in_channels} != {self.out_channels})"
            )


@dataclass(frozen=True)
class NetworkSpec:
    in_channels: int
    base_width: int
    depth: int
    block_kind: str = "residual"

    def __post_init__(self) -> None:
        if self.base_width < 1 or self.depth < 1 or self.in_channels < 1:
            raise ValueError(f"invalid network sizes: {self}")
        if self.block_kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.block_kind!r}")

    def stage_channels(self) -> list[int]:
        return [self.base_width * 2**s for s in range(self.depth)]

    def bottleneck_channels(self) -> int:
        return self.base_width * 2**self.depth


def build_resunet(
    in_channels: int = 2, base_width: int = 64, depth: int = 4
) -> NetworkSpec:
    """The lesion-segmentation network: residual stages, 2-channel input."""
    return NetworkSpec(in_channels, base_width, depth, "residual")


def build_trimmed_unet(
    in_channels: int = 1, base_width: int = 64, depth: int = 3
) -> NetworkSpec:
    """The white-matter network: plain double-conv stages, one fewer
    pooling stage than the 4-deep original."""
    return NetworkSpec(in_channels, base_width, depth, "plain")


def _param_node(
    graph: Graph, kind: str, at: int, prefix: str, shape: tuple[int, ...], dtype
) -> int:
    """Append a `kind` node on `at` with a zero `{prefix}.w` of `shape` and
    a zero `{prefix}.b` over its output channels; returns the node."""
    n_out = shape[1] if kind == "upconv2" else shape[0]
    w = Parameter(f"{prefix}.w", np.zeros(shape, dtype))
    b = Parameter(f"{prefix}.b", np.zeros(n_out, dtype))
    return graph.add(kind, (at,), w, b)


def _append_block(
    graph: Graph,
    at: int,
    blk: ResidualBlockSpec,
    prefix: str,
    dtype,
    residual: bool = True,
) -> int:
    """Wire conv3x3-relu-conv3x3 from node `at`. A residual block adds the
    skip (1x1 projection or identity) to it; a relu follows when
    `blk.post_add_relu` is set. Returns the output node."""
    ci, co = blk.in_channels, blk.out_channels
    out = _param_node(graph, "conv3x3", at, f"{prefix}.conv1", (co, ci, 3, 3), dtype)
    out = graph.add("relu", (out,))
    out = _param_node(graph, "conv3x3", out, f"{prefix}.conv2", (co, co, 3, 3), dtype)
    if residual:
        skip = at
        if blk.projection:
            skip = _param_node(
                graph, "conv1x1", at, f"{prefix}.skip", (co, ci, 1, 1), dtype
            )
        out = graph.add("add", (out, skip))
    if blk.post_add_relu:
        out = graph.add("relu", (out,))
    return out


def residual_block_graph(blk: ResidualBlockSpec) -> Graph:
    """A standalone single-block graph with zero parameters, mainly for
    unit-level checks."""
    g = Graph()
    _append_block(g, 0, blk, "block", np.float64)
    return g


def he_init(graph: Graph, seed: int) -> None:
    """Fill every weight of `graph` from N(0, 2/fan_in) (He et al., 2015),
    one draw per weight in node order from one generator. fan_in is
    in-channels x kernel area for conv3x3/conv1x1 and in-channels for
    upconv2 (kernel stored (in, out, 2, 2)). Biases are left as they are."""
    rng = np.random.default_rng(seed)
    for node in graph.nodes:
        if node.weight is None:
            continue
        w = node.weight.value
        fan_in = w.shape[0] if node.kind == "upconv2" else w.size // w.shape[0]
        w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape)


class Network:
    """A NetworkSpec built into a graph, ready to run.

    Every parameter starts at zero in `dtype`; `he_init(net.graph, seed)`
    draws the weights, `load_checkpoint` reads them from a file.

    Inputs whose spatial dims are not divisible by 2^depth are
    reflect-padded on the bottom/right and the output is cropped back;
    this path is inference-only (training requires divisible dims so the
    cached backward sees the true geometry).
    """

    def __init__(self, spec: NetworkSpec, dtype=np.float64):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        self.graph = g = Graph()
        dt = self.dtype
        residual = spec.block_kind == "residual"
        channels = spec.stage_channels()

        def stage(at: int, ci: int, co: int, prefix: str) -> int:
            return _append_block(g, at, ResidualBlockSpec(ci, co), prefix, dt, residual)

        cur, cur_c = 0, spec.in_channels
        enc_outs: list[int] = []
        for s, co in enumerate(channels):
            cur = stage(cur, cur_c, co, f"enc{s}")
            enc_outs.append(cur)
            cur = g.add("maxpool2", (cur,))
            cur_c = co

        cur = stage(cur, cur_c, spec.bottleneck_channels(), "bottleneck")
        cur_c = spec.bottleneck_channels()

        for s in reversed(range(spec.depth)):
            co = channels[s]
            up = _param_node(g, "upconv2", cur, f"dec{s}.up", (cur_c, co, 2, 2), dt)
            cur = stage(g.add("concat", (up, enc_outs[s])), 2 * co, co, f"dec{s}")
            cur_c = co

        self.head_logits_index = _param_node(
            g, "conv1x1", cur, "head", (1, cur_c, 1, 1), dt
        )
        g.add("sigmoid", (self.head_logits_index,))

    def parameters(self) -> list[Parameter]:
        return self.graph.parameters()

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4:
            raise ValueError(f"expected (batch, channels, h, w), got {x.shape}")
        if x.shape[1] != self.spec.in_channels:
            raise ValueError(
                f"expected {self.spec.in_channels} input channels, got {x.shape[1]}"
            )
        m = 2**self.spec.depth
        h, w = x.shape[2], x.shape[3]
        ph, pw = (-h) % m, (-w) % m
        if ph or pw:
            if train:
                raise ValueError(
                    f"training requires spatial dims divisible by {m}, got {h}x{w}"
                )
            if ph >= h or pw >= w:
                raise ValueError(f"input {h}x{w} too small to pad to a multiple of {m}")
            x = np.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
        y = self.graph.forward(x, keep_cache=train)
        return y[:, :, :h, :w]

    def backward_from_logits(self, dz: np.ndarray) -> None:
        """Backpropagate a gradient w.r.t. the pre-sigmoid head output into
        the parameter gradients, bit-equal to `graph.backward(dz,
        at=head_logits_index)` for a `dz` in the network dtype. `dz` is cast
        to that dtype first, as `forward` casts its input, so a float64
        loss gradient does not promote a float32 backward to float64.
        Training reads no input gradient, so the convs on the network input
        run no dx im2col or GEMM."""
        dz = np.asarray(dz, dtype=self.dtype)
        self.graph.backward(dz, at=self.head_logits_index, input_grad=False)

    def zero_grad(self) -> None:
        self.graph.zero_grad()

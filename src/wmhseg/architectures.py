"""Network topologies: the residual U-Net for lesion segmentation and the
trimmed (one-fewer-pooling) plain U-Net for white matter masking.

Both share the same encoder/decoder frame: `depth` encoder stages each
followed by 2x2 max pooling, a bottleneck stage, and a decoder of
upconv -> concat(skip) -> stage, ending in a 1x1 conv + sigmoid head.
Stage s carries base_width * 2^s channels. Residual stages compute
skip(x) + conv3x3(relu(conv3x3(x))) with a 1x1 projection on the skip
path; plain stages are the classic double conv3x3/relu.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

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
    out_channels: int = 1
    post_add_relu: bool = True

    def __post_init__(self) -> None:
        if self.base_width < 1 or self.depth < 1 or self.in_channels < 1:
            raise ValueError(f"invalid network sizes: {self}")
        if self.block_kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.block_kind!r}")

    def stage_channels(self) -> list[int]:
        return [self.base_width * 2**s for s in range(self.depth)]

    def bottleneck_channels(self) -> int:
        return self.base_width * 2**self.depth

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "NetworkSpec":
        return NetworkSpec(**d)


def build_resunet(
    in_channels: int = 2, base_width: int = 64, depth: int = 4
) -> NetworkSpec:
    """The lesion-segmentation network: residual stages, 2-channel input."""
    return NetworkSpec(
        in_channels=in_channels,
        base_width=base_width,
        depth=depth,
        block_kind="residual",
    )


def build_trimmed_unet(
    in_channels: int = 1, base_width: int = 64, depth: int = 3
) -> NetworkSpec:
    """The white-matter network: plain double-conv stages, one fewer
    pooling stage than the 4-deep original."""
    return NetworkSpec(
        in_channels=in_channels,
        base_width=base_width,
        depth=depth,
        block_kind="plain",
    )


def _he_conv(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def _append_residual_block(
    graph: Graph,
    at: int,
    blk: ResidualBlockSpec,
    prefix: str,
    rng: np.random.Generator,
) -> int:
    """Wire one residual block starting from node `at`; returns output node."""
    ci, co = blk.in_channels, blk.out_channels
    w1 = Parameter(f"{prefix}.conv1.w", _he_conv(rng, (co, ci, 3, 3), ci * 9))
    b1 = Parameter(f"{prefix}.conv1.b", np.zeros(co))
    w2 = Parameter(f"{prefix}.conv2.w", _he_conv(rng, (co, co, 3, 3), co * 9))
    b2 = Parameter(f"{prefix}.conv2.b", np.zeros(co))
    c1 = graph.add("conv3x3", (at,), w1, b1)
    r1 = graph.add("relu", (c1,))
    c2 = graph.add("conv3x3", (r1,), w2, b2)
    if blk.projection:
        wp = Parameter(f"{prefix}.skip.w", _he_conv(rng, (co, ci, 1, 1), ci))
        bp = Parameter(f"{prefix}.skip.b", np.zeros(co))
        skip = graph.add("conv1x1", (at,), wp, bp)
    else:
        skip = at
    out = graph.add("add", (c2, skip))
    if blk.post_add_relu:
        out = graph.add("relu", (out,))
    return out


def _append_plain_block(
    graph: Graph, at: int, ci: int, co: int, prefix: str, rng: np.random.Generator
) -> int:
    """Classic U-Net double conv: conv3x3-relu-conv3x3-relu."""
    w1 = Parameter(f"{prefix}.conv1.w", _he_conv(rng, (co, ci, 3, 3), ci * 9))
    b1 = Parameter(f"{prefix}.conv1.b", np.zeros(co))
    w2 = Parameter(f"{prefix}.conv2.w", _he_conv(rng, (co, co, 3, 3), co * 9))
    b2 = Parameter(f"{prefix}.conv2.b", np.zeros(co))
    c1 = graph.add("conv3x3", (at,), w1, b1)
    r1 = graph.add("relu", (c1,))
    c2 = graph.add("conv3x3", (r1,), w2, b2)
    return graph.add("relu", (c2,))


def residual_block_graph(blk: ResidualBlockSpec, seed: int = 0) -> Graph:
    """A standalone single-block graph, mainly for unit-level checks."""
    g = Graph()
    _append_residual_block(g, 0, blk, "block", np.random.default_rng(seed))
    return g


class Network:
    """A NetworkSpec instantiated with parameters, ready to run.

    Inputs whose spatial dims are not divisible by 2^depth are
    reflect-padded on the bottom/right and the output is cropped back;
    this path is inference-only (training requires divisible dims so the
    cached backward sees the true geometry).
    """

    def __init__(self, spec: NetworkSpec, seed: int = 0, dtype=np.float64):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        self.graph = Graph()
        self.head_logits_index = -1
        self._build(np.random.default_rng(seed))
        if self.dtype != np.float64:
            for p in self.parameters():
                p.value = p.value.astype(self.dtype)
                p.grad = p.grad.astype(self.dtype)

    def _build(self, rng: np.random.Generator) -> None:
        spec, g = self.spec, self.graph
        channels = spec.stage_channels()
        cur = 0
        cur_c = spec.in_channels
        enc_outs: list[int] = []

        def stage(at: int, ci: int, co: int, prefix: str) -> int:
            if spec.block_kind == "residual":
                blk = ResidualBlockSpec(
                    ci, co, projection=True, post_add_relu=spec.post_add_relu
                )
                return _append_residual_block(g, at, blk, prefix, rng)
            return _append_plain_block(g, at, ci, co, prefix, rng)

        for s, co in enumerate(channels):
            cur = stage(cur, cur_c, co, f"enc{s}")
            enc_outs.append(cur)
            cur = g.add("maxpool2", (cur,))
            cur_c = co

        bott_c = spec.bottleneck_channels()
        cur = stage(cur, cur_c, bott_c, "bottleneck")
        cur_c = bott_c

        for s in reversed(range(spec.depth)):
            co = channels[s]
            wu = Parameter(f"dec{s}.up.w", _he_conv(rng, (cur_c, co, 2, 2), cur_c))
            bu = Parameter(f"dec{s}.up.b", np.zeros(co))
            up = g.add("upconv2", (cur,), wu, bu)
            cat = g.add("concat", (up, enc_outs[s]))
            cur = stage(cat, 2 * co, co, f"dec{s}")
            cur_c = co

        wh = Parameter(
            "head.w", _he_conv(rng, (spec.out_channels, cur_c, 1, 1), cur_c)
        )
        bh = Parameter("head.b", np.zeros(spec.out_channels))
        self.head_logits_index = g.add("conv1x1", (cur,), wh, bh)
        g.add("sigmoid", (self.head_logits_index,))

    def parameters(self) -> list[Parameter]:
        return self.graph.parameters()

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.parameters())

    def load_param_dict(self, values: dict[str, np.ndarray]) -> None:
        own = {p.name: p for p in self.parameters()}
        if set(own) != set(values):
            missing = set(own) ^ set(values)
            raise ValueError(f"parameter name mismatch: {sorted(missing)}")
        for name, arr in values.items():
            p = own[name]
            if p.value.shape != arr.shape:
                raise ValueError(
                    f"{name}: shape {arr.shape} != expected {p.value.shape}"
                )
            p.value[...] = arr

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

    def backward_from_logits(self, dz: np.ndarray) -> np.ndarray:
        """Backpropagate a gradient w.r.t. the pre-sigmoid head output."""
        return self.graph.backward(dz, at=self.head_logits_index)

    def zero_grad(self) -> None:
        self.graph.zero_grad()

import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from wmhseg.architectures import (
    Network,
    NetworkSpec,
    ResidualBlockSpec,
    build_resunet,
    build_trimmed_unet,
    he_init,
    residual_block_graph,
)
from wmhseg import architectures, diff_core
from wmhseg.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from wmhseg.diff_core import grad_check
from wmhseg.training import SGD, weighted_bce


def he_network(spec: NetworkSpec, seed: int, dtype=np.float64) -> Network:
    net = Network(spec, dtype)
    he_init(net.graph, seed)
    return net


def closed_form_parameter_count(spec: NetworkSpec) -> int:
    """Analytic enumeration of every conv kernel and bias in the topology."""

    def conv(co, ci, k):
        return co * ci * k * k + co

    def stage(ci, co):
        n = conv(co, ci, 3) + conv(co, co, 3)
        if spec.block_kind == "residual":
            n += conv(co, ci, 1)  # projection skip
        return n

    channels = spec.stage_channels()
    total = 0
    ci = spec.in_channels
    for co in channels:
        total += stage(ci, co)
        ci = co
    bott = spec.bottleneck_channels()
    total += stage(ci, bott)
    ci = bott
    for co in reversed(channels):
        total += ci * co * 4 + co  # upconv
        total += stage(2 * co, co)
        ci = co
    total += conv(1, channels[0], 1)  # head
    return total


class TestBuilders:
    def test_resunet_defaults(self):
        spec = build_resunet()
        assert spec.in_channels == 2
        assert spec.depth == 4
        assert spec.block_kind == "residual"

    def test_channel_sequence_width64(self):
        spec = build_resunet(base_width=64, depth=4)
        assert spec.stage_channels() == [64, 128, 256, 512]
        assert spec.bottleneck_channels() == 1024

    def test_trimmed_unet_downsampling_factor(self):
        spec = build_trimmed_unet()
        assert spec.in_channels == 1
        assert spec.depth == 3  # one fewer pooling stage: total factor 8
        assert 2**spec.depth == 8
        assert spec.block_kind == "plain"

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_resunet(base_width=0)
        with pytest.raises(ValueError):
            build_trimmed_unet(depth=0)

    def test_channel_doubling_property(self):
        spec = build_resunet(base_width=3, depth=5)
        for s, c in enumerate(spec.stage_channels()):
            assert c == 3 * 2**s

    def test_parameter_count_closed_form(self):
        for spec in (
            build_resunet(base_width=2, depth=2),
            build_resunet(base_width=4, depth=3),
            build_trimmed_unet(base_width=2, depth=2),
        ):
            params = Network(spec).parameters()
            assert sum(p.value.size for p in params) == closed_form_parameter_count(spec)

    def test_spec_round_trips_through_dict(self):
        spec = build_resunet(base_width=8, depth=3)
        assert NetworkSpec(**asdict(spec)) == spec

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_network_is_built_with_zero_parameters(self, dtype):
        for spec in (build_resunet(base_width=2, depth=2),
                     build_trimmed_unet(base_width=2, depth=3)):
            params = Network(spec, dtype).parameters()
            assert all(p.value.dtype == dtype for p in params)
            assert all(not p.value.any() for p in params)

    def test_he_init_draws_weights_and_keeps_biases_zero(self):
        net = he_network(build_resunet(base_width=2, depth=2), 0)
        for node in net.graph.nodes:
            if node.weight is not None:
                assert np.all(node.weight.value != 0)
                assert not node.bias.value.any()

    # sha256 of save_checkpoint bytes after he_init(net.graph, 1234). A change
    # to the init order, fan-in rule or scheme must update these on purpose.
    @pytest.mark.parametrize("builder,depth,dtype,digest", [
        (build_resunet, 4, np.float64,
         "9ea02da09b6cefc7288a4e3624b4eac83a3dd497eadb424776bd16701dabb8e3"),
        (build_resunet, 4, np.float32,
         "e811b4a5ea757cce7ef708f630879dc697c6f7ab34288132e4383a5e366bf26a"),
        (build_trimmed_unet, 3, np.float64,
         "0b39c595920b47191f87381fdaee30a786faecd2eea4f07fb53b6e00f8b56383"),
        (build_trimmed_unet, 3, np.float32,
         "5cb826378f7a8df0037fc5e516080efcb5adfc25cad3ec45d8aeb30b9e278f5d"),
    ], ids=["resunet-w4d4-float64", "resunet-w4d4-float32",
            "trimmed-w4d3-float64", "trimmed-w4d3-float32"])
    def test_he_init_checkpoint_digest(self, tmp_path, builder, depth, dtype, digest):
        net = he_network(builder(base_width=4, depth=depth), 1234, dtype)
        save_checkpoint(tmp_path / "he.ckpt", net)
        assert hashlib.sha256((tmp_path / "he.ckpt").read_bytes()).hexdigest() == digest


class TestTrainingStepDigest:
    """Two SGD steps of a w4/d2 network, each over one batch-2 16x16 group
    and one batch-2 16x32 group (as `train` groups rotated rectangles),
    then one inference forward on a 13x14 plane (the reflect-pad path).
    The digests pin every bit of the trained parameters and of that
    output, so a change to how the executor lays out or schedules its work
    must leave the arithmetic as it was."""

    @staticmethod
    def steps(builder):
        spec = builder(base_width=4, depth=2)
        net = he_network(spec, 41)
        opt = SGD(net.parameters(), 0.05, 0.9)
        rng = np.random.default_rng(42)
        for _step in range(2):
            for hw in ((16, 16), (16, 32)):
                x = rng.normal(size=(2, spec.in_channels, *hw))
                y = (rng.random((2, *hw)) < 0.3).astype(np.uint8)
                _, dz = weighted_bce(net.forward(x, train=True)[:, 0], y, 0.7)
                net.backward_from_logits(dz[:, None])
            opt.step()
        return net, rng

    @pytest.mark.parametrize("builder, params_digest, output_digest", [
        (build_resunet,
         "61a051611d7a26a2ed615f75d271ff5dc73b4ec12871f6e3345896e9bf36f0fc",
         "5b8f1c882145db1ad0eb31553b3883d8d91d9e0274ad9bf7ab02f18b8431d598"),
        (build_trimmed_unet,
         "16020f5290965c897679de50c2935da0eb39e31c2b8c312eea6041aa3c09ebd0",
         "42e94c69e791b140fdff7e6b28a98615d76cba4b44f5c84580fa61528372fc39"),
    ], ids=["resunet-w4d2", "trimmed-w4d2"])
    def test_two_steps_and_a_padded_inference_are_pinned(
        self, builder, params_digest, output_digest
    ):
        net, rng = self.steps(builder)
        h = hashlib.sha256()
        for p in net.parameters():
            h.update(p.value.tobytes())
        assert h.hexdigest() == params_digest
        y = net.forward(rng.normal(size=(1, net.spec.in_channels, 13, 14)))
        assert y.shape == (1, 1, 13, 14)
        assert hashlib.sha256(y.tobytes()).hexdigest() == output_digest

    @pytest.mark.parametrize("builder", [build_resunet, build_trimmed_unet])
    def test_training_backward_gives_the_gradients_of_a_full_backward(self, builder):
        net, rng = self.steps(builder)
        x = rng.normal(size=(2, net.spec.in_channels, 16, 32))
        dz = rng.normal(size=(2, 1, 16, 32))
        grads = []
        for backward in (net.backward_from_logits,
                         lambda g: net.graph.backward(g, at=net.head_logits_index)):
            net.zero_grad()
            net.forward(x, train=True)
            backward(dz)
            grads.append([p.grad.copy() for p in net.parameters()])
        for a, b in zip(*grads):
            assert a.tobytes() == b.tobytes()

    def test_training_backward_runs_no_dx_for_the_convs_on_the_input(self, monkeypatch):
        net = he_network(build_resunet(base_width=4, depth=2), 43)
        x = np.random.default_rng(44).normal(size=(2, 2, 16, 16))
        needs = []
        real = diff_core.conv2d_backward

        def spy(g, w, cache, need_dx=True):
            needs.append(need_dx)
            return real(g, w, cache, need_dx)

        monkeypatch.setattr(diff_core, "conv2d_backward", spy)
        net.forward(x, train=True)
        assert net.backward_from_logits(np.ones((2, 1, 16, 16))) is None
        # backward visits the convs last to first; enc0.conv1 and its 1x1
        # projection read the input
        convs = [n for n in net.graph.nodes if n.kind.startswith("conv")][::-1]
        assert sum(n.inputs == (0,) for n in convs) == 2
        assert needs == [n.inputs != (0,) for n in convs]
        needs.clear()
        net.forward(x, train=True)
        dx = net.graph.backward(np.ones((2, 1, 16, 16)), at=net.head_logits_index)
        assert dx.shape == x.shape and needs == [True] * len(convs)


class TestResidualBlock:
    def test_identity_skip_requires_matching_channels(self):
        with pytest.raises(ValueError):
            ResidualBlockSpec(2, 4, projection=False)

    def test_zero_residual_identity_bit_exact(self):
        # zero residual path + identity skip + no post-add relu: out == x
        blk = ResidualBlockSpec(3, 3, projection=False, post_add_relu=False)
        g = residual_block_graph(blk)  # built with every parameter zero
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        out = g.forward(x)
        assert np.array_equal(out, x)

    def test_zero_residual_equals_projection(self):
        blk = ResidualBlockSpec(2, 4, projection=True, post_add_relu=False)
        g = residual_block_graph(blk)
        he_init(g, 2)
        params = {p.name: p for p in g.parameters()}
        for name in ("block.conv1.w", "block.conv1.b", "block.conv2.w", "block.conv2.b"):
            params[name].value[...] = 0.0
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 6, 6))
        out = g.forward(x)
        from wmhseg.diff_core import conv2d_forward

        proj, _ = conv2d_forward(
            x, params["block.skip.w"].value, params["block.skip.b"].value
        )
        assert np.max(np.abs(out - proj)) <= 1e-12

    def test_projection_maps_channels(self):
        blk = ResidualBlockSpec(2, 4)
        g = residual_block_graph(blk)
        out = g.forward(np.zeros((1, 2, 4, 4)))
        assert out.shape == (1, 4, 4, 4)

    def test_gradients_through_block(self):
        blk = ResidualBlockSpec(2, 3)
        g = residual_block_graph(blk)
        he_init(g, 5)
        report = grad_check(g, np.random.default_rng(6).normal(size=(1, 2, 4, 4)))
        assert report.passed and report.max_rel_error <= 1e-4


class TestNetworkForward:
    def test_output_shape_and_range(self):
        net = he_network(build_resunet(base_width=2, depth=2), 0)
        rng = np.random.default_rng(7)
        out = net.forward(rng.normal(size=(2, 2, 16, 16)))
        assert out.shape == (2, 1, 16, 16)
        assert (out > 0).all() and (out < 1).all()

    def test_zero_input_exactly_half(self):
        # zero biases at init: conv stacks of zeros stay zero, sigmoid(0)=0.5
        for spec in (build_resunet(base_width=2, depth=2),
                     build_trimmed_unet(base_width=2, depth=2)):
            net = he_network(spec, 1)
            out = net.forward(np.zeros((1, spec.in_channels, 8, 8)))
            assert np.array_equal(out, np.full((1, 1, 8, 8), 0.5))

    def test_batch_determinism_identical_slices(self):
        net = he_network(build_resunet(base_width=2, depth=2), 2)
        x = np.random.default_rng(8).normal(size=(1, 2, 16, 16))
        out = net.forward(np.concatenate([x, x]))
        assert np.array_equal(out[0], out[1])

    def test_same_seed_same_parameters(self):
        a = he_network(build_resunet(base_width=2, depth=2), 3)
        b = he_network(build_resunet(base_width=2, depth=2), 3)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.value, pb.value)

    def test_padding_rule_restores_dims(self):
        # 12 is not divisible by 8: reflect-pad then crop back
        net = he_network(build_trimmed_unet(base_width=2, depth=3), 4)
        out = net.forward(np.random.default_rng(9).normal(size=(1, 1, 12, 12)))
        assert out.shape == (1, 1, 12, 12)

    def test_training_rejects_nondivisible_dims(self):
        net = he_network(build_trimmed_unet(base_width=2, depth=3), 5)
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 1, 12, 12)), train=True)

    def test_wrong_channel_count_rejected(self):
        net = he_network(build_resunet(base_width=2, depth=2), 6)
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 3, 16, 16)))

    def test_plain_block_kind_is_standard_unet(self):
        spec = NetworkSpec(in_channels=2, base_width=2, depth=2, block_kind="plain")
        net = he_network(spec, 7)
        # no projection parameters anywhere
        assert not any("skip" in p.name for p in net.parameters())
        out = net.forward(np.random.default_rng(10).normal(size=(1, 2, 8, 8)))
        assert out.shape == (1, 1, 8, 8)

    def test_encoder_residual_identity_through_stages(self):
        # zeroing residual paths with identity skips makes each encoder
        # stage an identity map (checked block-by-block at the block level,
        # network-level with matching channels)
        blk = ResidualBlockSpec(4, 4, projection=False, post_add_relu=False)
        g = residual_block_graph(blk)  # built with every parameter zero
        x = np.random.default_rng(12).normal(size=(1, 4, 8, 8))
        assert np.array_equal(g.forward(x), x)


def _rewrite_index(raw: bytes, edit) -> bytes:
    n = struct.unpack_from("<I", raw, 12)[0]
    index = json.loads(raw[16 : 16 + n])
    edit(index)
    blob = json.dumps(index, sort_keys=True, separators=(",", ":")).encode()
    return raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + n :]


def _first_entry_float32(index: dict) -> None:
    index["params"][0]["dtype"] = "<f4"


MALFORMED = {
    "magic-only": (lambda raw: MAGIC, "truncated checkpoint header"),
    "unknown-spec-key": (
        lambda raw: _rewrite_index(raw, lambda i: i["spec"].update(bogus=1)),
        "spec",
    ),
    # the index a checkpoint written before the spec lost its two fields carries
    "old-spec-keys": (
        lambda raw: _rewrite_index(
            raw, lambda i: i["spec"].update(out_channels=1, post_add_relu=True)),
        "spec",
    ),
    "entry-dtype-differs-from-index": (
        lambda raw: _rewrite_index(raw, _first_entry_float32),
        "index differs",
    ),
    "trailing-bytes": (lambda raw: raw + b"\0" * 8, "trailing bytes"),
    # 200 bytes end inside the JSON index, and a 0xff byte is not UTF-8
    "index-cut-short": (lambda raw: raw[:200], "bad.ckpt: malformed checkpoint index"),
    "index-not-utf8": (lambda raw: raw[:20] + b"\xff" + raw[21:],
                       "bad.ckpt: malformed checkpoint index"),
}


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = he_network(build_resunet(base_width=2, depth=2), 8)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net)
        back = load_checkpoint(path)
        assert back.spec == net.spec
        for pa, pb in zip(net.parameters(), back.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.value, pb.value)

    def test_rebuilt_network_predicts_identically(self, tmp_path):
        net = he_network(build_trimmed_unet(base_width=2, depth=2), 9)
        x = np.random.default_rng(13).normal(size=(1, 1, 8, 8))
        expected = net.forward(x)
        save_checkpoint(tmp_path / "n.ckpt", net)
        back = load_checkpoint(tmp_path / "n.ckpt")
        assert np.array_equal(back.forward(x), expected)

    def test_write_is_byte_deterministic(self, tmp_path):
        net = he_network(build_resunet(base_width=2, depth=2), 10)
        save_checkpoint(tmp_path / "a.ckpt", net)
        save_checkpoint(tmp_path / "b.ckpt", net)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_not_a_checkpoint_rejected(self, tmp_path):
        (tmp_path / "x.ckpt").write_bytes(b"garbage!")
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "x.ckpt")

    def test_float32_round_trip(self, tmp_path):
        net = he_network(build_resunet(base_width=2, depth=2), 11, np.float32)
        save_checkpoint(tmp_path / "f32.ckpt", net)
        back = load_checkpoint(tmp_path / "f32.ckpt")
        assert back.dtype == np.float32
        for pa, pb in zip(net.parameters(), back.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        net = he_network(build_resunet(base_width=2, depth=2), 12)
        save_checkpoint(tmp_path / "n.ckpt", net)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(architectures.np.random, "default_rng", no_rng)
        back = load_checkpoint(tmp_path / "n.ckpt")
        for pa, pb in zip(net.parameters(), back.parameters()):
            assert np.array_equal(pa.value, pb.value)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_checkpoint_raises_value_error(self, tmp_path, case):
        make, message = MALFORMED[case]
        net = he_network(build_resunet(base_width=2, depth=2), 13)
        save_checkpoint(tmp_path / "ok.ckpt", net)
        (tmp_path / "bad.ckpt").write_bytes(make((tmp_path / "ok.ckpt").read_bytes()))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(tmp_path / "bad.ckpt")

import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wmhseg
from wmhseg import diff_core, training
from wmhseg.architectures import Network, build_resunet, build_trimmed_unet, he_init
from wmhseg.checkpoint import load_checkpoint, save_checkpoint
from wmhseg.diff_core import Parameter
from wmhseg.training import (
    SGD,
    SPIKE_FACTOR,
    TRAIN_DTYPE,
    TrainConfig,
    TrainingCase,
    apply_dihedral,
    augment,
    axial_planes,
    compute_beta,
    normalize_to_mask,
    predict_probabilities,
    split_cases,
    train,
    weighted_bce,
)
from wmhseg.volume_io import BinaryMask3D, Volume3D


class TestComputeBeta:
    def test_direct_count(self):
        plane = np.zeros((25, 40))  # 1000 pixels
        plane.ravel()[:25] = 1  # 975 background
        assert compute_beta([plane]) == 0.975

    def test_all_background(self):
        assert compute_beta([np.zeros((10, 10))]) == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            compute_beta([])

    def test_order_invariant(self):
        rng = np.random.default_rng(0)
        planes = [(rng.random((8, 8)) < 0.3).astype(np.uint8) for _ in range(6)]
        assert compute_beta(planes) == compute_beta(list(reversed(planes)))


class TestWeightedBce:
    def test_single_foreground_pixel_frozen_value(self):
        yhat = np.array([[0.5]])
        y = np.array([[1]])
        loss, _ = weighted_bce(yhat, y, 0.9)
        assert abs(loss - (-0.9 * math.log(0.5))) <= 1e-12
        assert abs(loss - 0.6238324625039508) <= 1e-12

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        beta = 0.7
        for _ in range(20):
            n = int(rng.integers(1, 1025))
            yhat = rng.uniform(0.001, 0.999, size=n)
            y = (rng.random(n) < 0.3).astype(np.uint8)
            loss, _ = weighted_bce(yhat, y, beta)
            direct = 0.0
            for i in range(n):
                if y[i]:
                    direct -= 0.7 * math.log(yhat[i])
                else:
                    direct -= 0.3 * math.log(1.0 - yhat[i])
            assert abs(loss - direct) <= 1e-10

    def test_perfect_prediction_near_zero(self):
        beta = 0.9
        y = np.array([1, 0, 1, 0], dtype=np.uint8)
        yhat = np.where(y == 1, 1.0 - 1e-7, 1e-7)
        loss, _ = weighted_bce(yhat, y, beta)
        assert loss <= -4 * math.log(1 - 1e-7) + 1e-12

    def test_gradient_closed_form(self):
        beta = 0.8
        yhat = np.array([0.3, 0.6])
        y = np.array([1, 0])
        _, dz = weighted_bce(yhat, y, beta)
        assert abs(dz[0] - 0.8 * (0.3 - 1.0)) <= 1e-15
        assert abs(dz[1] - 0.2 * 0.6) <= 1e-15

    def test_gradient_vs_finite_differences_through_sigmoid(self):
        from wmhseg.diff_core import sigmoid_forward

        rng = np.random.default_rng(2)
        z = rng.normal(size=(5, 5))
        y = (rng.random((5, 5)) < 0.4).astype(np.uint8)
        beta = 0.9

        yhat, _ = sigmoid_forward(z)
        _, dz = weighted_bce(yhat, y, beta)
        h = 1e-6
        numeric = np.zeros_like(z)
        for idx in np.ndindex(z.shape):
            orig = z[idx]
            z[idx] = orig + h
            lp, _ = weighted_bce(sigmoid_forward(z)[0], y, beta)
            z[idx] = orig - h
            lm, _ = weighted_bce(sigmoid_forward(z)[0], y, beta)
            z[idx] = orig
            numeric[idx] = (lp - lm) / (2 * h)
        denom = max(np.abs(numeric).max(), np.abs(dz).max())
        assert np.abs(dz - numeric).max() / denom <= 1e-4

    def test_linearity_over_disjoint_pixel_sets(self):
        rng = np.random.default_rng(3)
        beta = 0.6
        yhat = rng.uniform(0.01, 0.99, size=40)
        y = (rng.random(40) < 0.5).astype(np.uint8)
        whole, _ = weighted_bce(yhat, y, beta)
        left, _ = weighted_bce(yhat[:17], y[:17], beta)
        right, _ = weighted_bce(yhat[17:], y[17:], beta)
        assert abs(whole - (left + right)) <= 1e-10

    def test_minimized_at_truth_brute_force(self):
        # grid search over per-pixel yhat on tiny instances
        beta = 0.7
        rng = np.random.default_rng(4)
        grid = np.linspace(0.01, 0.99, 25)
        for _ in range(5):
            n = int(rng.integers(1, 7))
            y = (rng.random(n) < 0.5).astype(np.uint8)
            best = np.empty(n)
            for i in range(n):
                losses = [
                    weighted_bce(np.array([v]), y[i : i + 1], beta)[0] for v in grid
                ]
                best[i] = grid[int(np.argmin(losses))]
            target = np.where(y == 1, grid[-1], grid[0])
            assert np.array_equal(best, target)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_bce(np.zeros((2, 2)), np.zeros((3, 3)), 0.5)


class TestNormalizeToMask:
    def _volume(self):
        data = np.linspace(10.0, 20.0, 27).reshape(3, 3, 3)
        return Volume3D(data=data, spacing=(1, 1, 1))

    def test_endpoints(self):
        v = self._volume()
        m = BinaryMask3D(data=np.ones((3, 3, 3), np.uint8), spacing=(1, 1, 1))
        out = normalize_to_mask(v, m)
        assert out.data.min() == 0.0
        assert out.data.max() == 1.0

    def test_outside_mask_clamped(self):
        data = np.zeros((4, 1, 1))
        data[:, 0, 0] = [0.0, 10.0, 20.0, 35.0]
        v = Volume3D(data=data, spacing=(1, 1, 1))
        mask = np.zeros((4, 1, 1), np.uint8)
        mask[1] = mask[2] = 1  # window is [10, 20]
        out = normalize_to_mask(v, BinaryMask3D(data=mask, spacing=(1, 1, 1)))
        assert out.data[0, 0, 0] == 0.0  # below window
        assert out.data[3, 0, 0] == 1.0  # above window, clamped
        assert out.data[1, 0, 0] == 0.0
        assert out.data[2, 0, 0] == 1.0

    def test_constant_window_rejected(self):
        v = Volume3D(data=np.full((2, 2, 2), 5.0), spacing=(1, 1, 1))
        m = BinaryMask3D(data=np.ones((2, 2, 2), np.uint8), spacing=(1, 1, 1))
        with pytest.raises(ValueError, match="degenerate"):
            normalize_to_mask(v, m)

    def test_empty_mask_rejected(self):
        v = self._volume()
        m = BinaryMask3D(data=np.zeros((3, 3, 3), np.uint8), spacing=(1, 1, 1))
        with pytest.raises(ValueError, match="empty"):
            normalize_to_mask(v, m)


class TestAugment:
    def test_identity_element(self):
        rng = np.random.default_rng(5)
        img = rng.normal(size=(2, 4, 4))
        assert np.array_equal(apply_dihedral(img, 0), img)

    def test_rotation_four_times_is_identity(self):
        rng = np.random.default_rng(6)
        img = rng.normal(size=(3, 5))
        out = img
        for _ in range(4):
            out = apply_dihedral(out, 1)
        assert np.array_equal(out, img)

    def test_flip_twice_is_identity(self):
        rng = np.random.default_rng(7)
        img = rng.normal(size=(4, 6))
        assert np.array_equal(apply_dihedral(apply_dihedral(img, 4), 4), img)

    def test_label_and_image_move_together(self):
        img = np.zeros((1, 4, 4))
        lab = np.zeros((4, 4), dtype=np.uint8)
        img[0, 1, 2] = 7.0
        lab[1, 2] = 1
        for e in range(8):
            ai = apply_dihedral(img, e)
            al = apply_dihedral(lab, e)
            assert ai[0][al == 1] == 7.0

    def test_preserves_foreground_count(self):
        rng = np.random.default_rng(8)
        lab = (rng.random((6, 4)) < 0.4).astype(np.uint8)
        for e in range(8):
            assert apply_dihedral(lab, e).sum() == lab.sum()

    def test_rectangles_transpose_on_quarter_turns(self):
        lab = np.zeros((2, 6), dtype=np.uint8)
        assert apply_dihedral(lab, 1).shape == (6, 2)
        assert apply_dihedral(lab, 2).shape == (2, 6)

    def test_draw_uses_rng(self):
        rng = np.random.default_rng(9)
        img = np.zeros((1, 4, 4))
        lab = np.zeros((4, 4), dtype=np.uint8)
        seen = {int(rng.integers(8)) for _ in range(64)}
        assert seen == set(range(8))  # uniform support over the group
        augment(img, lab, np.random.default_rng(0))  # smoke


class TestSgd:
    def test_single_step_no_momentum(self):
        p = Parameter("w", np.array([1.0]))
        p.grad[...] = 0.5
        SGD([p], learning_rate=0.1, momentum=0.0).step()
        assert p.value.item() == pytest.approx(0.95, abs=1e-15)

    def test_zero_gradient_no_change(self):
        p = Parameter("w", np.array([2.0]))
        opt = SGD([p], 0.1, 0.9)
        opt.step()
        assert p.value.item() == 2.0

    def test_two_momentum_steps_hand_iterated(self):
        p = Parameter("w", np.array([1.0]))
        opt = SGD([p], learning_rate=0.1, momentum=0.9)
        p.grad[...] = 1.0
        opt.step()
        assert p.value.item() == pytest.approx(0.9, abs=1e-15)  # v=1, step 0.1
        p.grad[...] = 1.0
        opt.step()
        assert p.value.item() == pytest.approx(0.71, abs=1e-15)  # v=1.9, step 0.19

    def test_grad_cleared_after_step(self):
        p = Parameter("w", np.array([1.0]))
        p.grad[...] = 3.0
        SGD([p], 0.1, 0.0).step()
        assert p.grad.item() == 0.0

    def test_quadratic_descent_matches_closed_form(self):
        # loss 0.5*w^2: w_{k+1} = (1 - lr) w_k without momentum
        p = Parameter("w", np.array([4.0]))
        opt = SGD([p], 0.25, 0.0)
        w = 4.0
        for _ in range(10):
            p.grad[...] = p.value
            opt.step()
            w *= 0.75
            assert p.value.item() == pytest.approx(w, rel=1e-15)

    def test_grad_norm_independent_of_blas_threads(self):
        # a BLAS dot product splits its sum across threads, so its last
        # bits depend on the thread count; the norm must not
        script = (
            "import numpy as np\n"
            "from wmhseg.diff_core import Parameter\n"
            "from wmhseg.training import SGD\n"
            "p = Parameter('w', np.zeros(1_000_000))\n"
            "p.grad[...] = np.random.default_rng(3).normal(size=p.grad.shape)\n"
            "opt = SGD([p], 0.1, 0.9)\n"
            "opt.step()\n"
            "print(repr(opt.grad_norms[0]))\n"
        )
        src = str(Path(wmhseg.__file__).resolve().parents[1])
        norms = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True, timeout=120)
            norms.append(run.stdout.strip())
        assert norms[0] == norms[1]


class TestSpikeClipping:
    def test_spike_rescaled_to_median_bound_hand_computed(self):
        assert SPIKE_FACTOR == 10.0
        p = Parameter("w", np.array([1.0, 2.0]))
        opt = SGD([p], learning_rate=0.1, momentum=0.9)
        w, v = np.array([1.0, 2.0]), np.zeros(2)
        # norms 0.5, 3, 2: each within 10x the median of the earlier ones
        for g in ([0.3, 0.4], [3.0, 0.0], [1.2, 1.6]):
            p.grad[...] = g
            opt.step()
            v = 0.9 * v + g
            w = w - 0.1 * v
        assert np.allclose(p.value, w, rtol=0, atol=1e-14)
        # norm 50 against the bound 10 * median(0.5, 3, 2) = 20: g scaled by 0.4
        p.grad[...] = [30.0, 40.0]
        opt.step()
        v = 0.9 * v + [12.0, 16.0]
        assert np.allclose(opt.velocities[0], v, rtol=0, atol=1e-13)
        assert np.allclose(p.value, w - 0.1 * v, rtol=0, atol=1e-13)
        assert opt.grad_norms == pytest.approx([0.5, 3.0, 2.0, 50.0], abs=1e-15)
        assert p.grad.tolist() == [0.0, 0.0]

    def test_default_optimizer_clips_spikes(self):
        p = Parameter("w", np.array([0.0]))
        opt = SGD([p], learning_rate=1.0, momentum=0.0)
        p.grad[...] = 1.0
        opt.step()
        p.grad[...] = 1e6
        opt.step()
        assert p.value.item() == pytest.approx(-1.0 - SPIKE_FACTOR, abs=1e-12)

    def test_below_bound_bit_identical_to_plain_momentum(self):
        rng = np.random.default_rng(21)
        shapes = [(3, 2, 3, 3), (3,), (4, 3, 1, 1)]
        init = [rng.normal(size=s) for s in shapes]
        params = [Parameter(f"p{i}", a.copy()) for i, a in enumerate(init)]
        ref_w = [a.copy() for a in init]
        ref_v = [np.zeros_like(a) for a in init]
        opt = SGD(params, 0.05, 0.9)
        for k in range(30):
            # norms wander within a factor of 4: never a spike at factor 10
            grads = [rng.normal(size=s) * (1.0 + 3.0 * (k % 2)) for s in shapes]
            for p, g in zip(params, grads):
                p.grad[...] = g
            opt.step()
            for w, v, g in zip(ref_w, ref_v, grads):  # plain momentum update
                v *= 0.9
                v += g
                w -= 0.05 * v
        norms = opt.grad_norms
        assert all(n <= SPIKE_FACTOR * np.median(norms[:i]) for i, n in enumerate(norms) if i)
        for p, w in zip(params, ref_w):
            assert np.array_equal(p.value, w)

    def test_first_step_and_zero_median_never_clipped(self):
        p = Parameter("w", np.array([0.0]))
        opt = SGD([p], learning_rate=1.0, momentum=0.0)
        p.grad[...] = 1e6  # no earlier norms to compare against
        opt.step()
        assert p.value.item() == -1e6
        q = Parameter("w", np.array([0.0]))
        opt = SGD([q], learning_rate=1.0, momentum=0.0)
        opt.step()  # zero gradient: median 0 gives no usable bound
        q.grad[...] = 5.0
        opt.step()
        assert q.value.item() == -5.0

    def test_train_records_one_raw_norm_per_iteration(self):
        spec = build_trimmed_unet(base_width=2, depth=2)
        cfg = TrainConfig(epochs=3, seed=14, batch_size=2)
        _, hist = train(spec, tiny_cases(), cfg)
        assert len(hist.grad_norms) == hist.iterations
        assert all(np.isfinite(n) and n > 0 for n in hist.grad_norms)
        assert asdict(hist)["grad_norms"] == hist.grad_norms


def tiny_cases(n=3, dims=(8, 8, 4), seed=0):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        labels = np.zeros(dims, dtype=np.uint8)
        labels[2:5, 2:5, :] = 1
        images = rng.normal(size=dims) * 0.1 + labels * 1.0
        cases.append(TrainingCase(case_id=f"c{i}", images=axial_planes(images),
                                  labels=axial_planes(labels)[:, 0]))
    return cases


class TestAxialPlanes:
    def test_contiguous_planes_in_channel_order(self):
        rng = np.random.default_rng(1)
        t1, flair = rng.random((8, 6, 4)), rng.random((8, 6, 4))
        planes = axial_planes(t1, flair)
        assert planes.shape == (4, 2, 8, 6) and planes.flags.c_contiguous
        for z in range(4):
            assert np.array_equal(planes[z, 0], t1[:, :, z])
            assert np.array_equal(planes[z, 1], flair[:, :, z])
        labels = axial_planes(t1 > 0.5)[:, 0]
        assert labels.dtype == bool and labels.flags.c_contiguous


class TestTrainingCase:
    def test_planes_kept_without_copy(self):
        images = np.zeros((4, 2, 8, 6), dtype=TRAIN_DTYPE)
        labels = np.zeros((4, 8, 6), dtype=np.uint8)
        case = TrainingCase(case_id="c", images=images, labels=labels)
        assert case.images is images and case.labels is labels

    def test_images_cast_once_to_the_training_dtype(self):
        images = np.random.default_rng(2).random((4, 2, 8, 6))
        case = TrainingCase(case_id="c", images=images, labels=np.zeros((4, 8, 6)))
        assert case.images.dtype == TRAIN_DTYPE and case.images.flags.c_contiguous
        assert np.array_equal(case.images, images.astype(TRAIN_DTYPE))

    @pytest.mark.parametrize("images, labels", [
        (np.zeros((4, 1, 8, 6)), np.zeros((3, 8, 6))),  # plane count
        (np.zeros((4, 1, 8, 6)), np.zeros((4, 6, 8))),  # in-plane grid
        (np.zeros((4, 8, 6)), np.zeros((4, 8, 6))),  # images not 4-D
    ])
    def test_disagreeing_shapes_rejected(self, images, labels):
        with pytest.raises(ValueError):
            TrainingCase(case_id="c", images=images, labels=labels)

    def test_window_shape_must_match_labels(self):
        with pytest.raises(ValueError, match="window"):
            TrainingCase(case_id="c", images=np.zeros((4, 1, 8, 6)),
                         labels=np.zeros((4, 8, 6)), window=np.ones((4, 6, 8)))


class TestSplit:
    def test_case_level_split(self):
        rng = np.random.default_rng(10)
        train_idx, val_idx = split_cases(10, 0.15, rng)
        assert len(val_idx) == 2  # round(1.5) -> 2
        assert sorted(train_idx + val_idx) == list(range(10))

    def test_at_least_one_val_case(self):
        rng = np.random.default_rng(11)
        train_idx, val_idx = split_cases(3, 0.05, rng)
        assert len(val_idx) == 1

    def test_empty_training_split_rejected(self):
        with pytest.raises(ValueError, match="empty training split"):
            split_cases(1, 0.15, np.random.default_rng(12))

    def test_deterministic_given_seed(self):
        a = split_cases(20, 0.2, np.random.default_rng(13))
        b = split_cases(20, 0.2, np.random.default_rng(13))
        assert a == b


class TestTrain:
    def test_bit_identical_history_same_seed(self):
        spec = build_trimmed_unet(base_width=2, depth=2)
        cfg = TrainConfig(epochs=2, seed=5, batch_size=2)
        cases = tiny_cases()
        _, h1 = train(spec, cases, cfg)
        _, h2 = train(spec, cases, cfg)
        assert h1.losses == h2.losses
        assert h1.val_dice == h2.val_dice

    def test_checkpoint_parameters_bit_identical(self):
        spec = build_trimmed_unet(base_width=2, depth=2)
        cfg = TrainConfig(epochs=1, seed=6, batch_size=2)
        cases = tiny_cases()
        net1, _ = train(spec, cases, cfg)
        net2, _ = train(spec, cases, cfg)
        for p1, p2 in zip(net1.parameters(), net2.parameters()):
            assert np.array_equal(p1.value, p2.value)

    def test_trained_network_keeps_no_column_buffers(self):
        spec = build_trimmed_unet(base_width=2, depth=2)
        net, _ = train(spec, tiny_cases(), TrainConfig(epochs=1, seed=8, batch_size=2))
        assert all(n.cols is None for n in net.graph.nodes)

    def test_beta_computed_from_training_split(self):
        spec = build_trimmed_unet(base_width=2, depth=2)
        cfg = TrainConfig(epochs=1, seed=7, batch_size=2)
        _, hist = train(spec, tiny_cases(), cfg)
        assert 0.0 < hist.beta < 1.0
        labels_fraction = 1.0 - 9 / 64  # 3x3 square per 8x8 slice
        assert hist.beta == pytest.approx(labels_fraction, abs=1e-12)

    def test_default_epochs_is_four(self):
        assert TrainConfig().epochs == 4

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(build_trimmed_unet(base_width=2, depth=2), [],
                  TrainConfig())

    @pytest.mark.parametrize("bad", [dict(batch_size=0), dict(batch_size=-2),
                                     dict(max_iterations=0), dict(max_iterations=-1)])
    def test_configs_that_train_no_iteration_rejected(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_max_iterations_cap(self):
        spec = build_trimmed_unet(base_width=2, depth=2)
        cfg = TrainConfig(epochs=50, seed=9, batch_size=2, max_iterations=5)
        _, hist = train(spec, tiny_cases(), cfg)
        assert hist.iterations == 5
        assert len(hist.losses) == 5

    def test_losses_finite_and_histories_populated(self):
        spec = build_trimmed_unet(base_width=2, depth=2)
        cfg = TrainConfig(epochs=2, seed=10, batch_size=4)
        _, hist = train(spec, tiny_cases(), cfg)
        assert all(np.isfinite(v) for v in hist.losses)
        assert len(hist.val_dice) == 2
        assert hist.val_dice_confined == []  # no case has a window
        assert hist.train_case_ids and hist.val_case_ids

    def test_confined_validation_dice_scores_the_windowed_output(self):
        spec = build_trimmed_unet(base_width=2, depth=2)
        cfg = TrainConfig(epochs=2, seed=10, batch_size=4)
        whole = [replace(c, window=np.ones_like(c.labels)) for c in tiny_cases()]
        none = [replace(c, window=np.zeros_like(c.labels)) for c in tiny_cases()]
        _, hist_whole = train(spec, whole, cfg)
        _, hist_none = train(spec, none, cfg)
        assert hist_whole.val_dice_confined == hist_whole.val_dice
        assert hist_none.val_dice == hist_whole.val_dice
        assert hist_none.val_dice_confined == [0.0, 0.0]  # an empty window leaves no lesion

    def test_overfit_single_case_dice(self):
        # 2 cases: split leaves 1 train case = 8 axial slices; the network
        # should overfit it well within 500 iterations
        rng = np.random.default_rng(12)
        dims = (16, 16, 8)
        cases = []
        for i in range(2):
            labels = np.zeros(dims, dtype=np.uint8)
            labels[4:12, 4:12, :] = 1
            images = labels * 1.0 + rng.normal(size=dims) * 0.05
            cases.append(TrainingCase(case_id=f"c{i}", images=axial_planes(images),
                                      labels=axial_planes(labels)[:, 0]))
        spec = build_trimmed_unet(base_width=4, depth=2)
        cfg = TrainConfig(epochs=100, seed=13, batch_size=4, max_iterations=500)
        net, hist = train(spec, cases, cfg)
        train_case = cases[[c.case_id for c in cases].index(hist.train_case_ids[0])]
        probs = predict_probabilities(net, train_case.images)
        pred = probs >= 0.5
        truth = train_case.labels.transpose(1, 2, 0) > 0
        d = 2 * (pred & truth).sum() / (pred.sum() + truth.sum())
        assert hist.iterations <= 500
        assert d >= 0.90


class TestFloat32Training:
    """`train` runs in TRAIN_DTYPE end to end, and zeroes the residual
    branches after `he_init`."""

    # training backpropagates from the logits, so sigmoid_backward never runs
    OP_FUNCTIONS = [f"{op}_{way}" for op in ("conv2d", "relu", "maxpool2", "upconv2",
                                             "concat", "add")
                    for way in ("forward", "backward")] + ["sigmoid_forward"]

    @staticmethod
    def float_arrays(obj):
        if isinstance(obj, np.ndarray):
            return [obj] if obj.dtype.kind == "f" else []
        if isinstance(obj, (tuple, list)):
            return [a for o in obj for a in TestFloat32Training.float_arrays(o)]
        return []

    def test_every_op_reads_and_writes_float32(self, monkeypatch):
        # the OPS entries look the op functions up at call time, so the
        # spies see every activation, gradient and im2col column buffer
        seen = {name: [] for name in self.OP_FUNCTIONS}
        for name in self.OP_FUNCTIONS:
            real = getattr(diff_core, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                out = _real(*args, **kwargs)
                seen[_name] += [a.dtype for a in self.float_arrays((args, out))]
                return out

            monkeypatch.setattr(diff_core, name, spy)
        spec = build_resunet(in_channels=1, base_width=2, depth=2)
        net, hist = train(spec, tiny_cases(), TrainConfig(max_iterations=1, seed=3))
        assert hist.iterations == 1 and net.dtype == TRAIN_DTYPE == np.float32
        for name, dtypes in seen.items():
            assert dtypes, f"{name} never ran"
            assert set(dtypes) == {np.dtype(np.float32)}, name
        assert all(p.value.dtype == p.grad.dtype == np.float32 for p in net.parameters())

    def test_checkpoint_is_f4_and_loads_back_bit_equal(self, tmp_path):
        spec = build_trimmed_unet(base_width=2, depth=2)
        net, _ = train(spec, tiny_cases(), TrainConfig(max_iterations=2, seed=4))
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net)
        raw = path.read_bytes()
        (n,) = struct.unpack_from("<I", raw, 12)
        index = json.loads(raw[16 : 16 + n])
        assert {index["dtype"]} | {q["dtype"] for q in index["params"]} == {"<f4"}
        back = load_checkpoint(path)
        assert back.dtype == np.float32
        for a, b in zip(net.parameters(), back.parameters()):
            assert a.name == b.name and a.value.tobytes() == b.value.tobytes()

    @pytest.mark.parametrize("builder", [build_resunet, build_trimmed_unet])
    def test_zero_init_touches_only_residual_conv2_weights(self, monkeypatch, builder):
        drawn, started = {}, {}

        def spy_init(graph, seed):
            he_init(graph, seed)
            drawn.update((p.name, p.value.copy()) for p in graph.parameters())

        class SpySGD(training.SGD):
            def __init__(self, params, *args):
                super().__init__(params, *args)
                started.update((p.name, p.value.copy()) for p in self.params)

        monkeypatch.setattr(training, "he_init", spy_init)
        monkeypatch.setattr(training, "SGD", SpySGD)
        spec = builder(in_channels=1, base_width=2, depth=2)
        train(spec, tiny_cases(), TrainConfig(max_iterations=1, seed=5))
        zeroed = [name for name in drawn
                  if spec.block_kind == "residual" and name.endswith(".conv2.w")]
        assert len(zeroed) == (2 * spec.depth + 1 if spec.block_kind == "residual" else 0)
        for name, w in drawn.items():
            if name in zeroed:
                assert np.all(w != 0) and not np.any(started[name])
            else:
                assert w.tobytes() == started[name].tobytes()


def random_net(spec, seed=3, dtype=np.float64):
    net = Network(spec, dtype)
    he_init(net.graph, seed)
    return net


class TestPredictProbabilities:
    # Bit-equal at these sizes, where every pooling level's plane holds a
    # multiple of 16 pixels; that alone does not make it so, as the pinned
    # lesion network at 64x64 shows (see the predict_probabilities docstring).
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("spec, plane", [
        (build_resunet(base_width=2, depth=2), (16, 16)),
        (build_trimmed_unet(base_width=2, depth=2), (32, 16)),
        (build_resunet(base_width=2, depth=2), (13, 14)),  # reflect-padded to 16x16
    ])
    def test_bit_equal_to_one_whole_volume_forward(self, spec, plane, dtype):
        net = random_net(spec, dtype=dtype)
        rng = np.random.default_rng(4)
        planes = rng.random((5, spec.in_channels, *plane))
        whole = net.forward(planes, train=False)
        assert np.array_equal(predict_probabilities(net, planes),
                              whole[:, 0].transpose(1, 2, 0))

    def test_memory_flat_in_volume_depth(self):
        # One plane per forward, read from the planes as given: only the
        # output grows with the depth; what each forward allocates does
        # not. Batching planes, or copying them, would add to the peak here.
        net = random_net(build_resunet(base_width=2, depth=2))
        rng = np.random.default_rng(5)

        def peak(nz):
            planes = rng.random((nz, 2, 32, 32))
            tracemalloc.start()
            try:
                out = predict_probabilities(net, planes)
                return tracemalloc.get_traced_memory()[1], out.nbytes
            finally:
                tracemalloc.stop()

        peak_2, _ = peak(2)
        peak_16, out_bytes_16 = peak(16)
        assert peak_16 - peak_2 <= out_bytes_16 + 64 * 1024


@settings(max_examples=20, deadline=None)
@given(e1=st.integers(0, 7), seed=st.integers(0, 2**31))
def test_property_dihedral_elements_are_bijections(e1, seed):
    rng = np.random.default_rng(seed)
    lab = (rng.random((5, 5)) < 0.5).astype(np.uint8)
    out = apply_dihedral(lab, e1)
    assert out.sum() == lab.sum()
    assert out.shape == lab.shape  # square stays square

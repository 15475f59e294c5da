from dataclasses import replace

import numpy as np
import pytest

from wmhseg.architectures import Network, build_resunet, build_trimmed_unet, he_init
from wmhseg.cli import _predict_one
from wmhseg.metrics import evaluate_case, summarize_cases
from wmhseg.phantom import PhantomConfig, generate_case
from wmhseg.pipeline import (
    COMPONENT_CONNECTIVITY,
    PipelineError,
    score_cases,
    segment_white_matter,
    segment_wmh,
    stack_case_channels,
    wm_training_cases,
    wmh_training_cases,
)
from wmhseg.training import THRESHOLD, axial_planes, predict_probabilities
from wmhseg.volume_io import BinaryMask3D, Volume3D, read_nifti_mask, write_nifti


@pytest.fixture(scope="module")
def phantom_case():
    return generate_case(PhantomConfig(), seed=77)


@pytest.fixture(scope="module")
def untrained_models():
    wm = Network(build_trimmed_unet(base_width=2, depth=3))
    wmh = Network(build_resunet(base_width=2, depth=4))
    he_init(wm.graph, 1)
    he_init(wmh.graph, 2)
    return wm, wmh


class TestSegmentWhiteMatter:
    def test_wrong_channel_model_rejected(self, phantom_case, untrained_models):
        _, wmh = untrained_models
        with pytest.raises(PipelineError):
            segment_white_matter(phantom_case.t1, wmh)

    def test_single_component_after_refinement(self, phantom_case, untrained_models):
        wm_model, _ = untrained_models
        from wmhseg.morphology import connected_components

        mask = segment_white_matter(phantom_case.t1, wm_model)
        assert connected_components(mask, COMPONENT_CONNECTIVITY).count == 1

    def test_refined_superset_of_largest_component(self, phantom_case, untrained_models):
        wm_model, _ = untrained_models
        from wmhseg.morphology import largest_component

        probs = predict_probabilities(wm_model, axial_planes(phantom_case.t1.data))
        raw = BinaryMask3D(
            data=(probs >= THRESHOLD).astype(np.uint8),
            spacing=phantom_case.t1.spacing,
        )
        pre = largest_component(raw, COMPONENT_CONNECTIVITY)
        refined = segment_white_matter(phantom_case.t1, wm_model)
        assert np.all(refined.data >= pre.data)

    def test_empty_prediction_raises(self, phantom_case):
        # every parameter zero and a very negative head bias: each output
        # pixel reads sigmoid(-10), far below the threshold
        net = Network(build_trimmed_unet(base_width=2, depth=3))
        {p.name: p for p in net.parameters()}["head.b"].value[...] = -10.0
        with pytest.raises(PipelineError, match="empty"):
            segment_white_matter(phantom_case.t1, net)


def mismatched_flair(t1: Volume3D, kind: str) -> Volume3D:
    """A FLAIR one slice short of `t1`'s grid, or at another spacing."""
    if kind == "grid":
        return Volume3D(data=t1.data[..., :-1], spacing=t1.spacing)
    return Volume3D(data=t1.data, spacing=(*t1.spacing[:2], 2 * t1.spacing[2]))


class TestSegmentWmh:
    def test_confinement_removes_outside_voxels(self, phantom_case, untrained_models):
        _, wmh_model = untrained_models
        wm_mask = phantom_case.wm_truth
        on = segment_wmh(phantom_case.t1, phantom_case.flair, wm_mask, wmh_model)
        assert not np.any(on.data & ~wm_mask.data)

    def test_confinement_identity(self, phantom_case, untrained_models):
        # the thresholded prediction AND wm_mask, exactly, which is the
        # confined mask that acceptance criterion 7 counts against the
        # thresholded prediction alone
        _, wmh_model = untrained_models
        c, wm_mask = phantom_case, phantom_case.wm_truth
        probs = predict_probabilities(wmh_model, stack_case_channels(c.t1, c.flair, wm_mask))
        expected = (probs >= THRESHOLD) & wm_mask.data.astype(bool)
        on = segment_wmh(c.t1, c.flair, wm_mask, wmh_model)
        assert np.array_equal(on.data, expected)
        assert np.any(probs[~wm_mask.data.astype(bool)] >= THRESHOLD)  # something is removed

    @pytest.mark.parametrize("kind", ["grid", "spacing"])
    def test_t1_flair_mismatch_rejected(self, phantom_case, untrained_models, kind):
        _, wmh_model = untrained_models
        flair = mismatched_flair(phantom_case.t1, kind)
        with pytest.raises(ValueError, match=f"t1/flair {kind} mismatch"):
            segment_wmh(phantom_case.t1, flair, phantom_case.wm_truth, wmh_model)

    def test_empty_wm_mask_rejected(self, phantom_case, untrained_models):
        _, wmh_model = untrained_models
        empty = BinaryMask3D(
            data=np.zeros(phantom_case.t1.dims, np.uint8),
            spacing=phantom_case.t1.spacing,
        )
        with pytest.raises(PipelineError):
            segment_wmh(phantom_case.t1, phantom_case.flair, empty, wmh_model)

    def test_channel_order_t1_then_flair(self, phantom_case):
        c = phantom_case
        stacked = stack_case_channels(c.t1, c.flair, c.wm_truth)
        assert stacked.shape[1] == 2
        from wmhseg.training import normalize_to_mask

        t1n = normalize_to_mask(c.t1, c.wm_truth)
        assert np.array_equal(stacked[:, 0], t1n.data.transpose(2, 0, 1))


def two_stages(c, wm_model, wmh_model) -> tuple[BinaryMask3D, BinaryMask3D]:
    """(wmh mask, wm mask) of one case, as `predict` chains the stages."""
    wm_mask = segment_white_matter(c.t1, wm_model)
    return segment_wmh(c.t1, c.flair, wm_mask, wmh_model), wm_mask


class TestRunPipeline:
    """The run `predict` makes: stage 1 on the T1, then the lesion stage inside its mask."""

    def test_volume_report_spacing_product(self, tmp_path, phantom_case, untrained_models):
        (tmp_path / "c").mkdir()
        for kind in ("t1", "flair"):
            write_nifti(getattr(phantom_case, kind), tmp_path / "c" / f"{kind}.nii")
        (tmp_path / "out").mkdir()  # predict's staged output directory
        report = _predict_one(tmp_path / "c", tmp_path / "out", *untrained_models)
        sx, sy, sz = phantom_case.t1.spacing
        assert report["wmh_volume_mm3"] == report["wmh_voxels"] * sx * sy * sz
        assert report["wm_volume_mm3"] == report["wm_voxels"] * sx * sy * sz
        for kind in ("wmh", "wm"):
            mask = read_nifti_mask(tmp_path / "out" / "c" / f"{kind}.nii")
            assert report[f"{kind}_voxels"] == mask.voxel_count()

    def test_deterministic(self, phantom_case, untrained_models):
        a = two_stages(phantom_case, *untrained_models)
        b = two_stages(phantom_case, *untrained_models)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_order_invariance_across_cases(self, untrained_models):
        cases = [generate_case(PhantomConfig(), seed=s) for s in (101, 102)]
        forward = [two_stages(c, *untrained_models)[0].data for c in cases]
        backward = [two_stages(c, *untrained_models)[0].data for c in reversed(cases)]
        assert np.array_equal(forward[0], backward[1])
        assert np.array_equal(forward[1], backward[0])


class TestScoreCases:
    def test_rows_in_case_order_restricted_to_ids(self, untrained_models):
        _, wmh_model = untrained_models
        cases = [generate_case(PhantomConfig(), seed=s) for s in (101, 102, 103)]
        masks = [c.wm_truth for c in cases]
        ids = {cases[2].case_id, cases[0].case_id}
        rows = score_cases(cases, masks, wmh_model, ids)
        assert [cid for cid, _ in rows] == [cases[0].case_id, cases[2].case_id]
        for (_, m), c, mask in zip(rows, cases[::2], masks[::2]):
            pred = segment_wmh(c.t1, c.flair, mask, wmh_model)
            assert m == evaluate_case(pred, c.wmh_truth)
        with pytest.raises(ValueError):
            score_cases(cases, masks[:2], wmh_model, ids)

    def test_entrant_that_predicts_nothing(self):
        net = Network(build_resunet(base_width=2, depth=2))  # every parameter zero
        {p.name: p for p in net.parameters()}["head.b"].value[...] = -10.0
        cases = [generate_case(PhantomConfig(), seed=s) for s in (101, 102)]
        rows = score_cases(cases, [c.wm_truth for c in cases], net,
                           {c.case_id for c in cases})
        assert len(rows) == len(cases)
        assert all(m.h95_mm is None and m.avd_percent == 100.0 for _, m in rows)
        summary = summarize_cases("empty", [m for _, m in rows])
        assert summary.h95 is None
        assert summary.h95_undefined_count == len(rows)


class TestTrainingCaseAssembly:
    def test_wm_cases_shapes(self, phantom_case):
        tcs = wm_training_cases([phantom_case])
        nx, ny, nz = phantom_case.t1.dims
        assert tcs[0].images.shape == (nz, 1, nx, ny)
        assert np.array_equal(tcs[0].labels, phantom_case.wm_truth.data.transpose(2, 0, 1))

    def test_wmh_cases_normalized_channels(self, phantom_case):
        tcs = wmh_training_cases([phantom_case], [phantom_case.wm_truth])
        nx, ny, nz = phantom_case.t1.dims
        assert tcs[0].images.shape == (nz, 2, nx, ny)
        assert tcs[0].images.min() >= 0.0
        assert tcs[0].images.max() <= 1.0

    def test_mask_count_mismatch_rejected(self, phantom_case):
        with pytest.raises(ValueError):
            wmh_training_cases([phantom_case], [])

    @pytest.mark.parametrize("kind", ["grid", "spacing"])
    def test_t1_flair_mismatch_rejected(self, phantom_case, kind):
        case = replace(phantom_case, flair=mismatched_flair(phantom_case.t1, kind))
        with pytest.raises(ValueError, match=f"t1/flair {kind} mismatch"):
            wmh_training_cases([case], [phantom_case.wm_truth])

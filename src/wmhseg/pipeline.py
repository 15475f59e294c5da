"""Two-stage inference: `segment_white_matter` refines a stage-1
prediction on T1 into a white matter mask, then `segment_wmh` segments
lesions on the mask-normalized (T1, FLAIR) volumes and always confines
them to that mask. `stack_case_channels` builds every lesion input, for
training, scoring and prediction alike. Also the training-data assembly
for both stages, `score_cases`, the one place that segments cases with a
lesion network and scores them with the five challenge metrics, and the
plain-vs-residual ablation run, which scores through it.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from .architectures import Network, build_resunet
from .metrics import CaseMetrics, evaluate_case, summarize_cases
from .morphology import dilate, largest_component
from .training import (
    THRESHOLD,
    TrainConfig,
    TrainHistory,
    TrainingCase,
    axial_planes,
    normalize_to_mask,
    predict_probabilities,
    train,
)
from .volume_io import BinaryMask3D, Volume3D, require_finite


# white matter refinement: largest 6-connected component, then a 6-connected
# dilation by DILATION_RADIUS voxels for full coverage
COMPONENT_CONNECTIVITY = 6
DILATION_CONNECTIVITY = 6
DILATION_RADIUS = 2


# input channels of each stage's network: T1, then T1 and FLAIR
STAGE_CHANNELS = {"white matter": 1, "lesion": 2}


class PipelineError(RuntimeError):
    pass


def check_model(stage: str, model: Network) -> Network:
    """`model`, if it takes the input channels of `stage` ("white matter"
    or "lesion"); PipelineError otherwise."""
    want, has = STAGE_CHANNELS[stage], model.spec.in_channels
    if has != want:
        raise PipelineError(f"{stage} model expects {want} input channel{'s' * (want > 1)}, "
                            f"has {has}")
    return model


def segment_white_matter(t1: Volume3D, wm_model: Network) -> BinaryMask3D:
    """Per-slice forward pass on T1, threshold, keep the largest connected
    component, then dilate for full coverage."""
    check_model("white matter", wm_model)
    require_finite("t1", t1)
    probs = predict_probabilities(wm_model, axial_planes(t1.data))
    raw = BinaryMask3D(data=(probs >= THRESHOLD).astype(np.uint8), spacing=t1.spacing)
    if raw.voxel_count() == 0:
        raise PipelineError("white matter prediction is empty; model unusable")
    refined = largest_component(raw, COMPONENT_CONNECTIVITY)
    return dilate(refined, DILATION_RADIUS, DILATION_CONNECTIVITY)


def stack_case_channels(t1: Volume3D, flair: Volume3D, wm_mask: BinaryMask3D) -> np.ndarray:
    """Mask-normalize T1 and FLAIR as the 2-channel network input planes,
    channel order (t1, flair). Every lesion input passes here, so the two
    volumes must share one grid and spacing and hold finite values only."""
    if t1.data.shape != flair.data.shape:
        raise ValueError(f"t1/flair grid mismatch: {t1.data.shape} vs {flair.data.shape}")
    if t1.spacing != flair.spacing:
        raise ValueError(f"t1/flair spacing mismatch: {t1.spacing} vs {flair.spacing}")
    require_finite("t1", t1)
    require_finite("flair", flair)
    t1n = normalize_to_mask(t1, wm_mask)
    flairn = normalize_to_mask(flair, wm_mask)
    return axial_planes(t1n.data, flairn.data)


def segment_wmh(
    t1: Volume3D, flair: Volume3D, wm_mask: BinaryMask3D, wmh_model: Network
) -> BinaryMask3D:
    """Lesion segmentation on normalized 2-channel slices; predictions
    outside the white matter mask are zeroed."""
    check_model("lesion", wmh_model)
    if wm_mask.voxel_count() == 0:
        raise PipelineError("white matter mask is empty")
    probs = predict_probabilities(wmh_model, stack_case_channels(t1, flair, wm_mask))
    pred = (probs >= THRESHOLD).astype(np.uint8) & wm_mask.data
    return BinaryMask3D(data=pred, spacing=t1.spacing)


def score_cases(cases, masks: list[BinaryMask3D], wmh_model: Network,
                case_ids) -> list[tuple[str, CaseMetrics]]:
    """`segment_wmh` each case whose id is in `case_ids` in its stage-1
    mask and `evaluate_case` the result against its `wmh_truth`. Returns
    (case_id, metrics) rows in case order, as `write_case_csv` takes
    them."""
    return [
        (c.case_id, evaluate_case(segment_wmh(c.t1, c.flair, m, wmh_model), c.wmh_truth))
        for c, m in zip(cases, masks, strict=True)
        if c.case_id in case_ids
    ]


# ---------------------------------------------------------------------------
# Training-data assembly for the two stages


def wm_training_cases(phantom_cases) -> list[TrainingCase]:
    """Stage-1 training data: raw T1 in, white matter truth out. A
    non-finite T1 voxel raises ValueError naming the case."""
    tcs = []
    for c in phantom_cases:
        require_finite(f"{c.case_id} t1", c.t1)
        tcs.append(TrainingCase(
            case_id=c.case_id,
            images=axial_planes(c.t1.data),
            labels=axial_planes(c.wm_truth.data)[:, 0],
        ))
    return tcs


def wmh_training_cases(
    phantom_cases, wm_masks: list[BinaryMask3D]
) -> list[TrainingCase]:
    """Stage-2 training data: mask-normalized (T1, FLAIR) in, lesion truth
    out. `wm_masks` are the per-case normalization windows (stage-1
    predictions in the paper's protocol; ground truth for isolation runs)."""
    if len(wm_masks) != len(phantom_cases):
        raise ValueError("one white matter mask per case required")
    return [
        TrainingCase(
            case_id=c.case_id,
            images=stack_case_channels(c.t1, c.flair, m),
            labels=axial_planes(c.wmh_truth.data)[:, 0],
            window=axial_planes(m.data)[:, 0],
        )
        for c, m in zip(phantom_cases, wm_masks)
    ]


# ---------------------------------------------------------------------------
# The plain-vs-residual ablation


def run_ablation(cases, masks: list[BinaryMask3D], train_cfg: TrainConfig,
                 base_width: int = 4, depth: int = 4
                 ) -> tuple[dict, dict[str, tuple[Network, TrainHistory]]]:
    """Train plain U-Net and ResU-Net under identical seeds/configs on the
    lesion task and report paired validation metrics.

    `cases` and their stage-1 white matter `masks` are what
    `wmh_training_cases` takes: inputs are normalized with the masks, and
    each variant's validation cases are scored by `score_cases` (threshold
    and confinement to the same mask), exactly like the real pipeline, so
    the two variants differ in architecture only. Each variant reports
    `val_cases` (per-case metrics) and `val_summary` (their
    `summarize_cases`). Returns (report, trained), where trained maps "plain"
    and "residual" to (network, history). The residual variant is the
    network `train-wmh` trains from the same cases, masks and config, bit
    for bit."""
    tcs = wmh_training_cases(cases, masks)
    report: dict = {"variants": {}}
    trained = {}
    for kind in ("plain", "residual"):
        spec = replace(build_resunet(base_width=base_width, depth=depth), block_kind=kind)
        net, history = train(spec, tcs, train_cfg)
        trained[kind] = (net, history)
        rows = score_cases(cases, masks, net, set(history.val_case_ids))
        summary = summarize_cases(kind, [m for _, m in rows])
        report["variants"][kind] = {
            "val_cases": {cid: asdict(m) for cid, m in rows},
            "val_summary": asdict(summary),
            "val_dice_per_epoch": history.val_dice,
            "val_dice_confined_per_epoch": history.val_dice_confined,
            "iterations": history.iterations,
            "beta": history.beta,
        }
    report["train"] = asdict(train_cfg)
    report["base_width"] = base_width
    report["depth"] = depth
    return report, trained

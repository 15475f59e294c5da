"""Acceptance harness: every release criterion as an executable check.

Each criterion runs end to end with fixed seeds and a pinned tolerance
and reports a deterministic verdict plus its measured values and runtime.
Run the full suite with `python -m wmhseg.acceptance`, or a subset by
number, id or one word of an id (e.g. `python -m wmhseg.acceptance metric`
runs `4-metric-oracles`; a selector that names nothing exits 2). The
suite needs no network access; heavyweight artifacts (the phantom
dataset and one pinned training run) are built once and shared between
criteria, except where a criterion is explicitly about re-running them.

The pinned run trains the white matter network, computes its masks and
runs the plain-vs-residual ablation on them. The ablation's residual
variant has criterion 6's spec, masks and configs, so it is criterion
6's lesion network: criterion 6 reads its scored validation cases from
the ablation report, criterion 7 reads that network, criterion 8 the
report's summaries, and criterion 9 repeats the run once.
"""

from __future__ import annotations

import gzip
import json
import math
import struct
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import diff_core as dc
from .architectures import (
    Network,
    ResidualBlockSpec,
    build_resunet,
    build_trimmed_unet,
    he_init,
    residual_block_graph,
)
from .checkpoint import save_checkpoint
from .metrics import TeamSummary, detected_components, dice, evaluate_case, rank_teams
from .morphology import connected_components
from .phantom import PhantomConfig, generate_dataset
from .pipeline import (
    run_ablation,
    segment_white_matter,
    segment_wmh,
    stack_case_channels,
    wm_training_cases,
)
from .training import (
    THRESHOLD,
    TrainConfig,
    compute_beta,
    predict_probabilities,
    train,
    weighted_bce,
)
from .volume_io import (
    BinaryMask3D,
    CompressedStreamError,
    DimensionError,
    MalformedHeaderError,
    TruncatedPayloadError,
    UnsupportedDatatypeError,
    Volume3D,
    WrongMagicError,
    read_nifti,
    write_nifti,
)

# the pinned end-to-end configuration: 10 cases, 64x64x8, base_width 4,
# and iteration budgets within the 500-per-stage criterion
DATASET_SEED = 42
TRAIN_SEED = 1
WM_TRAIN = dict(epochs=8, seed=TRAIN_SEED, batch_size=4)  # 128 iterations
WMH_TRAIN = dict(epochs=30, seed=TRAIN_SEED, batch_size=4)  # 480 iterations
# the bars of criteria 6 and 8
DICE_BAR = 0.85
ITERATION_BUDGET = 500


@dataclass
class CriterionResult:
    criterion_id: str
    passed: bool
    measured: dict
    tolerance: str
    runtime_seconds: float


@dataclass
class AcceptanceReport:
    results: list[CriterionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


# ---------------------------------------------------------------------------
# shared artifacts


_CACHE: dict = {}


def phantom_dataset():
    if "dataset" not in _CACHE:
        _CACHE["dataset"] = list(generate_dataset(PhantomConfig(), 10, seed=DATASET_SEED))
    return _CACHE["dataset"]


def pinned_run():
    """train-wm, its stage-1 masks, then the ablation on those masks.
    Returns (wm_net, wm_hist, wm_masks, ablation report, trained variants)."""
    cases = phantom_dataset()
    wm_net, wm_hist = train(
        build_trimmed_unet(base_width=4, depth=3),
        wm_training_cases(cases),
        TrainConfig(**WM_TRAIN),
    )
    wm_masks = [segment_white_matter(c.t1, wm_net) for c in cases]
    report, trained = run_ablation(
        cases, wm_masks, TrainConfig(**WMH_TRAIN), base_width=4, depth=4
    )
    return wm_net, wm_hist, wm_masks, report, trained


def trained_models():
    if "pinned" not in _CACHE:
        t0 = time.time()
        _CACHE["pinned"] = pinned_run()
        _CACHE["train_wall"] = time.time() - t0
    return _CACHE["pinned"]


def checkpoint_bytes(net: Network) -> bytes:
    with tempfile.NamedTemporaryFile(suffix=".ckpt") as f:
        save_checkpoint(f.name, net)
        return Path(f.name).read_bytes()


# ---------------------------------------------------------------------------
# criteria


def crit_gradients() -> tuple[bool, dict, str]:
    """Every op kind and the full lesion network match central FD, for the
    input gradient and every parameter gradient."""
    rng = np.random.default_rng(11)

    def param(name, *shape):
        return dc.Parameter(name, rng.normal(size=shape))

    # concat and add take the input and a 1x1 convolution of it, so a
    # backward that swapped or mixed up their two gradients is seen
    op_graphs = {
        "conv3x3": lambda g: g.add("conv3x3", (0,), param("w", 3, 2, 3, 3), param("b", 3)),
        "conv1x1": lambda g: g.add("conv1x1", (0,), param("w", 3, 2, 1, 1), param("b", 3)),
        "relu": lambda g: g.add("relu", (0,)),
        "maxpool2": lambda g: g.add("maxpool2", (0,)),
        "upconv2": lambda g: g.add("upconv2", (0,), param("w", 2, 3, 2, 2), param("b", 3)),
        "concat": lambda g: g.add("concat", (0, g.add(
            "conv1x1", (0,), param("proj.w", 3, 2, 1, 1), param("proj.b", 3)))),
        "add": lambda g: g.add("add", (0, g.add(
            "conv1x1", (0,), param("proj.w", 2, 2, 1, 1), param("proj.b", 2)))),
        "sigmoid": lambda g: g.add("sigmoid", (0,)),
    }
    errors: dict[str, float] = {}
    for kind, build in op_graphs.items():
        g = dc.Graph()
        build(g)
        x = rng.normal(size=(2, 2, 4, 6))
        r = rng.normal(size=g.forward(x).shape)
        report = dc.grad_check(g, x, lambda y: (float(np.sum(y * r)), r))
        errors.update((f"{kind}.{c.name}", c.max_rel_error) for c in report.checks)

    # full ResU-Net at base width 2, depth 2, on a 16x16 input: every element
    net = Network(build_resunet(base_width=2, depth=2))
    he_init(net.graph, 7)
    xin = np.random.default_rng(3).normal(size=(1, 2, 16, 16))
    report = dc.grad_check(net.graph, xin)
    errors["resunet.full"] = report.max_rel_error
    # a zero weight would leave its input's gradient unchecked
    nonzero = all(n.weight.value.all() for n in net.graph.nodes if n.weight is not None)

    worst = max(errors.values())
    measured = {
        "per_check_max_rel_error": errors,
        "worst_rel_error": worst,
        "network_elements_checked": sum(c.checked_elements for c in report.checks),
        "all_weights_nonzero": nonzero,
    }
    ok = worst <= 1e-4 and nonzero
    return ok, measured, "relative error <= 1e-4; no zero weight"


def crit_residual_identity() -> tuple[bool, dict, str]:
    """Zeroed residual path: identity skip is bit-exact, projection skip
    equals the bare 1x1 projection within 1e-12."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 3, 8, 8))
    blk = ResidualBlockSpec(3, 3, projection=False, post_add_relu=False)
    g = residual_block_graph(blk)  # every parameter zero
    identity_exact = bool(np.array_equal(g.forward(x), x))

    blk2 = ResidualBlockSpec(3, 5, projection=True, post_add_relu=False)
    g2 = residual_block_graph(blk2)
    he_init(g2, 1)
    params = {p.name: p for p in g2.parameters()}
    for name in ("block.conv1.w", "block.conv1.b", "block.conv2.w", "block.conv2.b"):
        params[name].value[...] = 0.0
    out = g2.forward(x)
    proj, _ = dc.conv2d_forward(x, params["block.skip.w"].value,
                                params["block.skip.b"].value)
    proj_err = float(np.max(np.abs(out - proj)))
    measured = {"identity_bit_exact": identity_exact, "projection_max_abs_err": proj_err}
    return identity_exact and proj_err <= 1e-12, measured, "bit-exact / <= 1e-12"


def crit_loss() -> tuple[bool, dict, str]:
    """Weighted cross entropy matches direct summation; frozen values."""
    rng = np.random.default_rng(31)
    max_sum_err = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 1025))
        yhat = rng.uniform(1e-3, 1 - 1e-3, size=n)
        y = (rng.random(n) < 0.3).astype(np.uint8)
        loss, _ = weighted_bce(yhat, y, 0.7)
        direct = -sum(
            0.7 * math.log(yhat[i]) if y[i] else 0.3 * math.log(1 - yhat[i])
            for i in range(n)
        )
        max_sum_err = max(max_sum_err, abs(loss - direct))

    single, _ = weighted_bce(np.array([[0.5]]), np.array([[1]]), 0.9)
    single_err = abs(single - (-0.9 * math.log(0.5)))

    plane = np.zeros((25, 40))
    plane.ravel()[:25] = 1  # 975 background pixels of 1000
    beta = compute_beta([plane])

    measured = {
        "max_direct_summation_err": max_sum_err,
        "single_pixel_err": single_err,
        "beta_975_of_1000": beta,
    }
    ok = max_sum_err <= 1e-10 and single_err <= 1e-12 and beta == 0.975
    return ok, measured, "1e-10 summation; 1e-12 single pixel; beta exact"


# Brute-force metric oracles, also imported by the tests. They are
# independent of morphology and cKDTree: voxel sets for the overlap
# metrics, an explicit 6-neighbour border scan, full pairwise distances
# and a set-based flood fill (26-connected for the lesion metrics).


def _voxels(m: BinaryMask3D) -> set:
    return {tuple(c) for c in np.argwhere(m.data)}


def oracle_dice(pred: BinaryMask3D, gt: BinaryMask3D) -> float:
    p, g = _voxels(pred), _voxels(gt)
    if not p and not g:
        return 1.0
    return 2 * len(p & g) / (len(p) + len(g))


def oracle_avd(pred: BinaryMask3D, gt: BinaryMask3D) -> float:
    p, g = len(_voxels(pred)), len(_voxels(gt))
    return 100.0 * abs(p - g) / g


def oracle_border(arr: np.ndarray) -> np.ndarray:
    coords = []
    shape = arr.shape
    for x, y, z in np.argwhere(arr):
        border = False
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)):
            nx, ny, nz = x + dx, y + dy, z + dz
            if not (0 <= nx < shape[0] and 0 <= ny < shape[1] and 0 <= nz < shape[2]):
                border = True
                break
            if not arr[nx, ny, nz]:
                border = True
                break
        if border:
            coords.append((x, y, z))
    return np.array(coords, dtype=np.float64)


def oracle_h95(pred: BinaryMask3D, gt: BinaryMask3D, spacing) -> float:
    a = oracle_border(pred.data.astype(bool)) * spacing
    b = oracle_border(gt.data.astype(bool)) * spacing

    def directed(src, dst):
        d2 = ((src[:, None, :] - dst[None, :, :]) ** 2).sum(-1)  # full pairwise
        dists = np.sort(np.sqrt(d2.min(axis=1)))
        rank = math.ceil(Fraction(95, 100) * len(dists))
        return float(dists[rank - 1])

    return max(directed(a, b), directed(b, a))


def oracle_offsets(connectivity: int) -> list[tuple[int, int, int]]:
    """The neighbour offsets of 6-, 18- or 26-connectivity: those that
    change at most 1, 2 or 3 coordinates by one."""
    order = {6: 1, 18: 2, 26: 3}[connectivity]
    return [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if 0 < abs(dx) + abs(dy) + abs(dz) <= order
    ]


def oracle_components(arr: np.ndarray, connectivity: int = 26) -> list[set]:
    offs = oracle_offsets(connectivity)
    remaining = {tuple(c) for c in np.argwhere(arr)}
    comps = []
    while remaining:
        stack = [remaining.pop()]
        comp = set(stack)
        while stack:
            v = stack.pop()
            for dx, dy, dz in offs:
                n = (v[0] + dx, v[1] + dy, v[2] + dz)
                if n in remaining:
                    remaining.discard(n)
                    comp.add(n)
                    stack.append(n)
        comps.append(comp)
    return comps


def oracle_recall(pred: BinaryMask3D, gt: BinaryMask3D) -> float:
    comps = oracle_components(gt.data.astype(bool))
    if not comps:
        return 1.0
    p = _voxels(pred)
    return sum(1 for c in comps if c & p) / len(comps)


def oracle_f1(pred: BinaryMask3D, gt: BinaryMask3D) -> float:
    comps = oracle_components(pred.data.astype(bool))
    g = _voxels(gt)
    if not comps:
        precision = 1.0 if not g else 0.0
    else:
        precision = sum(1 for c in comps if c & g) / len(comps)
    recall = oracle_recall(pred, gt)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def crit_metric_oracles() -> tuple[bool, dict, str]:
    """The Dice/H95/AVD/recall/F1 of `evaluate_case` agree with brute-force
    implementations on 100 seeded random 16^3 mask pairs."""
    rng = np.random.default_rng(41)
    worst_h95 = 0.0
    exact_failures = 0
    trials = 100
    for trial in range(trials):
        spacing = (1.0, 1.0, 1.0) if trial % 2 == 0 else (0.5, 1.0, 2.0)
        p_arr = (rng.random((16, 16, 16)) < 0.12).astype(np.uint8)
        g_arr = (rng.random((16, 16, 16)) < 0.12).astype(np.uint8)
        pred = BinaryMask3D(data=p_arr, spacing=spacing)
        gt = BinaryMask3D(data=g_arr, spacing=spacing)
        m = evaluate_case(pred, gt)
        exact_failures += m.dice != oracle_dice(pred, gt)
        if gt.voxel_count():
            exact_failures += m.avd_percent != oracle_avd(pred, gt)
        exact_failures += m.lesion_recall != oracle_recall(pred, gt)
        exact_failures += m.lesion_f1 != oracle_f1(pred, gt)
        if pred.voxel_count() and gt.voxel_count():
            worst_h95 = max(worst_h95, abs(m.h95_mm - oracle_h95(pred, gt, spacing)))
    measured = {
        "trials": trials,
        "exact_metric_failures": exact_failures,
        "worst_h95_abs_err_mm": worst_h95,
    }
    return exact_failures == 0 and worst_h95 <= 1e-9, measured, (
        "exact for dice/avd/recall/f1; <= 1e-9 mm for h95"
    )


TABLE1 = [
    TeamSummary("sysu_media", 0.80, 6.3, 21.9, 0.84, 0.76),
    TeamSummary("cain", 0.78, 6.8, 21.7, 0.83, 0.70),
    TeamSummary("nlp_logix", 0.77, 7.2, 18.4, 0.73, 0.78),
    TeamSummary("nih_cidi_2", 0.75, 7.35, 27.26, 0.81, 0.69),
    TeamSummary("nic-vicorob", 0.77, 8.3, 28.5, 0.75, 0.71),
]
TABLE2 = [
    TeamSummary("sysu_media", 0.74, 11.0, 26.2, 0.87, 0.72),
    TeamSummary("nih_cidi_2", 0.70, 9.7, 21.9, 0.79, 0.68),
    TeamSummary("cain", 0.74, 14.1, 28.4, 0.82, 0.66),
    TeamSummary("nic-vicorob", 0.71, 13.5, 56.3, 0.81, 0.62),
    TeamSummary("nlp_logix", 0.68, 13.0, 27.9, 0.66, 0.73),
]


def crit_rank_paper_inputs() -> tuple[bool, dict, str]:
    """The published five-team rows reproduce the expected extreme ranks."""
    t1 = rank_teams(TABLE1)
    t2 = rank_teams(TABLE2)
    vals = {
        "t1_sysu_dice_rank": t1.rank_of("sysu_media", "dice"),
        "t1_nih_dice_rank": t1.rank_of("nih_cidi_2", "dice"),
        "t2_nih_h95_rank": t2.rank_of("nih_cidi_2", "h95"),
        "t2_nih_avd_rank": t2.rank_of("nih_cidi_2", "avd_percent"),
    }
    ok = (
        abs(vals["t1_sysu_dice_rank"] - 0.0) <= 1e-12
        and abs(vals["t1_nih_dice_rank"] - 1.0) <= 1e-12
        and abs(vals["t2_nih_h95_rank"] - 0.0) <= 1e-12
        and abs(vals["t2_nih_avd_rank"] - 0.0) <= 1e-12
    )
    return ok, vals, "1e-12 on rank values"


def crit_end_to_end() -> tuple[bool, dict, str]:
    """Two-stage training on the default phantom config reaches validation
    Dice >= 0.85 for both stages within 500 iterations each, and the
    pipeline's refined masks and final predictions hold the same bar. The
    final predictions are the ablation's residual validation cases, scored
    in the pinned run. The wall time counts that run, plain variant
    included, once."""
    _, wm_hist, wm_masks, report, trained = trained_models()
    t0 = time.time()
    _, wmh_hist = trained["residual"]
    val_cases = report["variants"]["residual"]["val_cases"]
    refined_dice = [
        dice(m, c.wm_truth)
        for m, c in zip(wm_masks, phantom_dataset()) if c.case_id in val_cases
    ]
    e2e_dice = [m["dice"] for m in val_cases.values()]
    wall = time.time() - t0 + _CACHE["train_wall"]
    measured = {
        "wm_val_dice": wm_hist.val_dice[-1],
        "wm_iterations": wm_hist.iterations,
        "wmh_val_dice": wmh_hist.val_dice[-1],
        "wmh_iterations": wmh_hist.iterations,
        "refined_wm_dice_val_cases": refined_dice,
        "end_to_end_wmh_dice_val_cases": e2e_dice,
        "wall_seconds_including_training": wall,
        # each gate's margin: the smallest gated Dice minus the bar, or the
        # budget minus the iterations
        "wm_val_dice_margin": wm_hist.val_dice[-1] - DICE_BAR,
        "wm_iterations_margin": ITERATION_BUDGET - wm_hist.iterations,
        "wmh_val_dice_margin": wmh_hist.val_dice[-1] - DICE_BAR,
        "wmh_iterations_margin": ITERATION_BUDGET - wmh_hist.iterations,
        "refined_wm_dice_val_cases_margin": min(refined_dice) - DICE_BAR,
        "end_to_end_wmh_dice_val_cases_margin": min(e2e_dice) - DICE_BAR,
    }
    ok = (
        wm_hist.val_dice[-1] >= DICE_BAR
        and wmh_hist.val_dice[-1] >= DICE_BAR
        and wm_hist.iterations <= ITERATION_BUDGET
        and wmh_hist.iterations <= ITERATION_BUDGET
        and min(refined_dice) >= DICE_BAR
        and min(e2e_dice) >= DICE_BAR
        and wall <= 600.0
    )
    return ok, measured, "dice >= 0.85; <= 500 iterations/stage; <= 600 s"


def crit_confinement() -> tuple[bool, dict, str]:
    """With the FLAIR confounder present, confinement strictly reduces
    false-positive lesion components: `segment_wmh` against the same
    thresholded prediction without the white matter mask applied."""
    _, _, wm_masks, _, trained = trained_models()
    wmh_net, _ = trained["residual"]
    cases = phantom_dataset()
    fp = {True: 0, False: 0}  # confined? -> predicted components touching no lesion
    for case, mask in zip(cases, wm_masks):
        probs = predict_probabilities(wmh_net, stack_case_channels(case.t1, case.flair, mask))
        preds = {True: segment_wmh(case.t1, case.flair, mask, wmh_net),
                 False: BinaryMask3D((probs >= THRESHOLD).astype(np.uint8), case.t1.spacing)}
        for confined, pred in preds.items():
            lab = connected_components(pred, 26)
            fp[confined] += lab.count - detected_components(lab, case.wmh_truth)
    measured = {"fp_components_confined": fp[True], "fp_components_unconfined": fp[False]}
    return fp[True] < fp[False], measured, "strict reduction"


def crit_ablation() -> tuple[bool, dict, str]:
    """Plain U-Net vs ResU-Net trained under identical seeds both pass the
    phantom bar; the paired report carries Dice and lesion F-1."""
    _, _, _, report, _ = trained_models()
    plain = report["variants"]["plain"]
    residual = report["variants"]["residual"]
    measured = {
        "plain_dice": plain["val_summary"]["dice"],
        "plain_lesion_f1": plain["val_summary"]["f1"],
        "residual_dice": residual["val_summary"]["dice"],
        "residual_lesion_f1": residual["val_summary"]["f1"],
        "iterations": residual["iterations"],
        # each gate's margin, as in criterion 6; `iterations` is the residual
        # variant's, and its margin covers both variants
        "plain_dice_margin": plain["val_summary"]["dice"] - DICE_BAR,
        "residual_dice_margin": residual["val_summary"]["dice"] - DICE_BAR,
        "iterations_margin": ITERATION_BUDGET - max(plain["iterations"],
                                                    residual["iterations"]),
    }
    ok = (
        measured["plain_dice"] >= DICE_BAR
        and measured["residual_dice"] >= DICE_BAR
        and residual["iterations"] <= ITERATION_BUDGET
        and plain["iterations"] <= ITERATION_BUDGET
    )
    return ok, measured, "both variants dice >= 0.85 within 500 iterations"


def crit_determinism() -> tuple[bool, dict, str]:
    """Repeating the pinned training run with identical seeds yields
    bit-identical checkpoints, histories and ablation report (training
    runs in float32, `training.TRAIN_DTYPE`)."""
    wm_a, wm_hist_a, _, abl_a, trained_a = trained_models()
    wm_b, wm_hist_b, _, abl_b, trained_b = pinned_run()
    # (network, history) of the white matter net and both lesion variants
    runs = list(zip([(wm_a, wm_hist_a), *trained_a.values()],
                    [(wm_b, wm_hist_b), *trained_b.values()]))
    ckpt_equal = all(checkpoint_bytes(a) == checkpoint_bytes(b) for (a, _), (b, _) in runs)
    hist_equal = all(asdict(a) == asdict(b) for (_, a), (_, b) in runs)
    abl_equal = json.dumps(abl_a, sort_keys=True) == json.dumps(abl_b, sort_keys=True)
    measured = {
        "checkpoints_bit_identical": ckpt_equal,
        "histories_identical": hist_equal,
        "ablation_reports_identical": abl_equal,
    }
    return ckpt_equal and hist_equal and abl_equal, measured, "bit-identical"


def _mutate(raw: bytes, fmt: str, offset: int, *values) -> bytes:
    out = bytearray(raw)
    struct.pack_into(fmt, out, offset, *values)
    return bytes(out)


def fuzz_cases() -> list[tuple[str, bytes, type]]:
    """Malformed variants of a valid float32 4x4x4 NIfTI file, each named
    and paired with the `VolumeIOError` subclass `read_nifti` must raise.
    Also imported by the tests."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.nii"
        vol = Volume3D(data=np.arange(64, dtype=np.float32).reshape(4, 4, 4),
                       spacing=(1, 1, 3))
        write_nifti(vol, path)
        raw = path.read_bytes()
    cases = [(f"truncated_header_{n}", raw[:n], MalformedHeaderError)
             for n in (0, 1, 40, 200, 347)]
    cases += [(f"sizeof_{bad}", _mutate(raw, "<i", 0, bad), MalformedHeaderError)
              for bad in (347, 349, 0, -1)]
    cases += [(f"magic_{magic!r}", raw[:344] + magic + raw[348:], WrongMagicError)
              for magic in (b"ni1\x00", b"n+2\x00", b"\x00\x00\x00\x00")]
    cases.append(("gzip", gzip.compress(raw), CompressedStreamError))
    # float64, complex, rgb and binary datatype codes
    cases += [(f"datatype_{code}", _mutate(raw, "<h", 70, code), UnsupportedDatatypeError)
              for code in (64, 32, 128, 1)]
    # more than 3 nontrivial axes, and a zero dim[0]
    cases += [(name, _mutate(raw, "<8h", 40, *dims), DimensionError) for name, dims in (
        ("dim4", (4, 4, 4, 2, 2, 1, 1, 1)),
        ("dim5", (5, 4, 4, 1, 2, 2, 1, 1)),
        ("dim0_zero", (0, 4, 4, 4, 1, 1, 1, 1)),
    )]
    cases += [(f"payload_{cut}", raw[:cut], TruncatedPayloadError)
              for cut in (349, 352, len(raw) - 1)]
    cases.append(("vox_offset_past_end", _mutate(raw, "<f", 108, len(raw) + 64.0),
                  TruncatedPayloadError))
    cases += [
        ("pixdim_zero", _mutate(raw, "<f", 80, 0.0), MalformedHeaderError),
        ("pixdim_nan", _mutate(raw, "<f", 84, float("nan")), MalformedHeaderError),
        ("vox_offset", _mutate(raw, "<f", 108, 10.0), MalformedHeaderError),
    ]
    # non-finite scl_slope (offset 112) or scl_inter (offset 116)
    cases += [(f"scl_{offset}_{value}", _mutate(raw, "<f", offset, value),
               MalformedHeaderError)
              for offset in (112, 116) for value in (float("nan"), float("inf"))]
    return cases


def crit_io() -> tuple[bool, dict, str]:
    """Float32 NIfTI round trip is bit-exact; every case of the
    malformed-file fuzz corpus is rejected with its own typed error."""
    rng = np.random.default_rng(101)
    fuzz = fuzz_cases()
    with tempfile.TemporaryDirectory() as tmp:
        vol = Volume3D(data=rng.normal(size=(8, 8, 8)).astype(np.float32),
                       spacing=(1.0, 1.0, 3.0))
        path = Path(tmp) / "v.nii"
        write_nifti(vol, path)
        back = read_nifti(path)
        round_trip = bool(
            np.array_equal(back.data, vol.data) and back.spacing == vol.spacing
        )

        rejected = 0
        wrong_error = 0
        for i, (_, blob, exc) in enumerate(fuzz):
            bad_path = Path(tmp) / f"bad_{i}.nii"
            bad_path.write_bytes(blob)
            try:
                read_nifti(bad_path)
            except exc:
                rejected += 1
            except Exception:
                wrong_error += 1
    measured = {
        "round_trip_bit_exact": round_trip,
        "fuzz_cases": len(fuzz),
        "fuzz_rejected_with_typed_error": rejected,
        "fuzz_wrong_error_type": wrong_error,
    }
    ok = round_trip and len(fuzz) >= 20 and rejected == len(fuzz)
    return ok, measured, "bit-exact round trip; each fuzz case rejected with its typed error"


CRITERIA = [
    ("1-gradients", crit_gradients),
    ("2-residual-identity", crit_residual_identity),
    ("3-loss", crit_loss),
    ("4-metric-oracles", crit_metric_oracles),
    ("5-rank-paper-inputs", crit_rank_paper_inputs),
    ("6-end-to-end-phantom", crit_end_to_end),
    ("7-confinement", crit_confinement),
    ("8-ablation", crit_ablation),
    ("9-determinism", crit_determinism),
    ("10-io", crit_io),
]


def run_acceptance(selector: str | None = None) -> AcceptanceReport:
    """Run all criteria, or those the selector names: a number ("10"), a
    full id ("10-io") or one dash-separated word of an id ("io")."""
    report = AcceptanceReport()
    for cid, fn in CRITERIA:
        if selector and selector != cid and selector not in cid.split("-"):
            continue
        t0 = time.time()
        passed, measured, tolerance = fn()
        report.results.append(
            CriterionResult(
                criterion_id=cid,
                passed=passed,
                measured=measured,
                tolerance=tolerance,
                runtime_seconds=time.time() - t0,
            )
        )
    return report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    selector = argv[0] if argv else None
    out_path = argv[1] if len(argv) > 1 else None
    report = run_acceptance(selector)
    if not report.results:
        ids = ", ".join(cid for cid, _ in CRITERIA)
        print(f"acceptance: {selector!r} names no criterion; ids: {ids}",
              file=sys.stderr)
        return 2
    for r in report.results:
        print(
            f"[{'PASS' if r.passed else 'FAIL'}] {r.criterion_id:24s} "
            f"({r.runtime_seconds:.1f}s)  tolerance: {r.tolerance}"
        )
    if out_path:
        record = {"passed": report.passed, **asdict(report)}
        Path(out_path).write_text(json.dumps(record, indent=2, sort_keys=True))
    print(f"acceptance: {'PASS' if report.passed else 'FAIL'} "
          f"({len(report.results)} criteria)")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

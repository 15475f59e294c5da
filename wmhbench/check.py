"""Correctness checks of one benchmark run, made apart from the program.

    python3 wmhbench/check.py WORKLOAD WORK_DIR SEED

Runs in its own process after the timed phases, so its memory does not
count in the run's peak. Masks are read with a NIfTI reader of its own,
the challenge cohort is made again from its seed, and every metric is
recomputed with scipy.ndimage and numpy. Prints one JSON line
{"errors": [...], "metrics": {...}} and exits 1 when a check fails.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import ndimage

import inputs
from inputs import TEST_CASES, WM_ITERATIONS, WMH_ITERATIONS

TOLERANCE = 1e-9
DICE_BAR = 0.85  # the acceptance bar of the pinned configuration
CONN26 = np.ones((3, 3, 3), dtype=bool)
CONN6 = ndimage.generate_binary_structure(3, 1)
CHUNK = 512


def read_mask(path: Path) -> np.ndarray:
    """A uint8 single-file NIfTI-1 volume, as written by the program."""
    raw = path.read_bytes()
    if struct.unpack_from("<i", raw, 0)[0] != 348 or raw[344:348] != b"n+1\x00":
        raise ValueError(f"{path}: not a little-endian single-file NIfTI-1")
    ndim, nx, ny, nz = struct.unpack_from("<4h", raw, 40)
    datatype = struct.unpack_from("<h", raw, 70)[0]
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    if ndim != 3 or datatype != 2:
        raise ValueError(f"{path}: expected a 3-D uint8 volume, got {ndim}-D type {datatype}")
    data = np.frombuffer(raw, dtype=np.uint8, count=nx * ny * nz, offset=offset)
    return data.reshape((nx, ny, nz), order="F")


def read_spacing(path: Path) -> tuple[float, float, float]:
    """pixdim[1..3] of a little-endian NIfTI-1 header, in mm."""
    with open(path, "rb") as f:
        raw = f.read(348)
    return struct.unpack_from("<3f", raw, 80)


# ---------------------------------------------------------------------------
# oracles


def dice(p: np.ndarray, g: np.ndarray) -> float:
    total = int(p.sum()) + int(g.sum())
    return 1.0 if total == 0 else 2.0 * int((p & g).sum()) / total


def avd_percent(p: np.ndarray, g: np.ndarray) -> float:
    return 100.0 * abs(int(p.sum()) - int(g.sum())) / int(g.sum())


def _detected_share(a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """(components of a that touch b, components of a), 26-connected."""
    labels, n = ndimage.label(a, structure=CONN26)
    return len(set(np.unique(labels[b])) - {0}), n


def lesion_scores(p: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """(lesion recall, lesion F-1): a component is detected when it shares
    a voxel with the other mask."""
    found, n_true = _detected_share(g, p)
    right, n_pred = _detected_share(p, g)
    recall = 1.0 if n_true == 0 else found / n_true
    precision = (0.0 if n_true else 1.0) if n_pred == 0 else right / n_pred
    if precision + recall == 0.0:
        return recall, 0.0
    return recall, 2.0 * precision * recall / (precision + recall)


def border_mm(m: np.ndarray, spacing) -> np.ndarray:
    """Centers in mm of the voxels that 6-connected erosion removes."""
    border = m & ~ndimage.binary_erosion(m, structure=CONN6, border_value=0)
    return np.argwhere(border) * np.asarray(spacing, dtype=np.float64)


def _nearest(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point of a to the nearest point of b, over all
    pairs. Squared distances come from |a|^2 + |b|^2 - 2 a.b, which is
    exact here: every coordinate in mm is an integer, so every product and
    sum is an integer well below 2^53."""
    if not (np.array_equal(a, np.rint(a)) and np.array_equal(b, np.rint(b))):
        raise ValueError("border centers in mm must be integers for exact distances")
    b2 = (b * b).sum(axis=1)
    out = np.empty(len(a))
    for i in range(0, len(a), CHUNK):
        ai = a[i:i + CHUNK]
        d2 = (ai * ai).sum(axis=1)[:, None] + b2[None, :] - 2.0 * (ai @ b.T)
        out[i:i + CHUNK] = np.sqrt(d2.min(axis=1))
    return out


def _rank95(d: np.ndarray) -> float:
    rank = math.ceil(Fraction(95, 100) * len(d))  # nearest rank, 1-based
    return float(np.sort(d)[rank - 1])


def h95(p: np.ndarray, g: np.ndarray, spacing) -> float:
    a, b = border_mm(p, spacing), border_mm(g, spacing)
    return max(_rank95(_nearest(a, b)), _rank95(_nearest(b, a)))


def self_test() -> list[str]:
    """The oracles on hand-made masks with known answers."""
    errors = []
    diag = np.zeros((3, 3, 3), dtype=bool)
    diag[0, 0, 0] = diag[1, 1, 1] = True
    if (ndimage.label(diag, structure=CONN26)[1] != 1
            or ndimage.label(diag, structure=CONN6)[1] != 2):
        errors.append("self-test: two diagonal voxels are not 1 component at 26, 2 at 6")
    cube = np.zeros((5, 5, 5), dtype=bool)
    cube[1:4, 1:4, 1:4] = True
    if len(border_mm(cube, (1, 1, 1))) != 26:
        errors.append("self-test: a 3x3x3 cube does not have 26 border voxels")
    shifted = np.roll(cube, 1, axis=0)
    if dice(cube, shifted) != 2 * 18 / 54 or avd_percent(shifted, cube) != 0.0:
        errors.append("self-test: Dice or AVD of a shifted cube")
    if h95(cube, shifted, (2.0, 1.0, 1.0)) != 2.0:
        errors.append("self-test: H95 of a cube shifted by one 2-mm voxel is not 2 mm")
    apart = np.zeros((5, 5, 5), dtype=bool)
    apart[0, 0, 0] = apart[4, 4, 4] = True  # two components, one touching diag
    diag5 = np.pad(diag, ((0, 2),) * 3)
    if (lesion_scores(apart, diag5) != (1.0, 2 * 0.5 * 1.0 / 1.5)
            or lesion_scores(diag5, apart)[0] != 0.5):
        errors.append("self-test: lesion recall or F-1 of hand-made components")
    return errors


# ---------------------------------------------------------------------------
# workload checks


def read_rows(csv_path: Path) -> dict[str, dict]:
    with open(csv_path, newline="") as f:
        return {r["case_id"]: r for r in csv.DictReader(f)}


def check_row(cid: str, row: dict, pred: np.ndarray, truth: np.ndarray,
              spacing) -> tuple[list[str], float]:
    """One row of the evaluate CSV against the oracles, to within TOLERANCE;
    the errors and the oracle's Dice."""
    # crop to the foreground with a background margin: counts,
    # components and borders stay the same, distances too
    box = ndimage.find_objects((pred | truth).astype(np.uint8))[0]
    box = tuple(slice(max(b.start - 1, 0), b.stop + 1) for b in box)
    p, g = pred[box].astype(bool), truth[box].astype(bool)
    recall, f1 = lesion_scores(p, g)
    want = {"dice": dice(p, g), "avd_percent": avd_percent(p, g),
            "lesion_recall": recall, "lesion_f1": f1, "h95_mm": h95(p, g, spacing)}
    errors = []
    for key, value in want.items():
        got = float(row[key])
        if not abs(got - value) <= TOLERANCE:
            errors.append(f"{cid} {key}: evaluate wrote {got!r}, oracle {value!r}")
    return errors, want["dice"]


def check_challenge(work: Path, seed: int) -> tuple[list[str], dict]:
    rows = read_rows(work / "cases.csv")
    expected = list(inputs.make_cohort(seed))
    if sorted(rows) != [cid for cid, _, _ in expected]:
        return [f"evaluate CSV covers {sorted(rows)}, not the cohort"], {}
    errors, scores = [], []
    for cid, pred, truth in expected:
        found, score = check_row(cid, rows[cid], pred, truth, inputs.SPACING)
        errors += found
        scores.append(score)
    return errors, {"wmh_dice": float(np.mean(scores))}


def check_pinned(work: Path) -> tuple[list[str], dict]:
    errors = []
    for stem, iterations in (("wm", WM_ITERATIONS), ("wmh", WMH_ITERATIONS)):
        h = json.loads((work / f"{stem}.history.json").read_text())
        if h["iterations"] != iterations or len(h["losses"]) != iterations:
            errors.append(f"{stem} history: {h['iterations']} iterations, "
                          f"{len(h['losses'])} losses; expected {iterations}")
        if not all(math.isfinite(x) for x in h["losses"]):
            errors.append(f"{stem} history has a non-finite loss")
    cohort_ids = sorted(d.name for d in (work / "test").iterdir() if d.is_dir())
    report = json.loads((work / "predict.json").read_text())
    reported = sorted(c["case_id"] for c in report["outputs"]["cases"])
    if len(cohort_ids) != TEST_CASES or reported != cohort_ids:
        errors.append(f"predict reported {reported}, cohort is {cohort_ids}")
    scores = {"wm": [], "wmh": []}
    for cid in cohort_ids:
        masks = {}
        for kind in scores:
            out = read_mask(work / "pred" / cid / f"{kind}.nii")
            if not np.isin(out, (0, 1)).all():
                errors.append(f"{cid} {kind}.nii holds values other than 0 and 1")
            masks[kind] = out.astype(bool)
            truth = read_mask(work / "test" / cid / f"{kind}.nii").astype(bool)
            scores[kind].append(dice(masks[kind], truth))
        if (masks["wmh"] & ~masks["wm"]).any():
            errors.append(f"{cid}: wmh.nii has voxels outside wm.nii")
    rows = read_rows(work / "cases.csv")
    if sorted(rows) != cohort_ids:
        errors.append(f"evaluate CSV covers {sorted(rows)}, cohort is {cohort_ids}")
    else:
        for cid in cohort_ids:
            truth_path = work / "test" / cid / "wmh.nii"
            errors += check_row(cid, rows[cid], read_mask(work / "pred" / cid / "wmh.nii"),
                                read_mask(truth_path), read_spacing(truth_path))[0]
    metrics = {f"{kind}_dice": float(np.mean(v)) for kind, v in scores.items()}
    for name, value in metrics.items():
        if not value >= DICE_BAR:
            errors.append(f"{name} {value:.4f} is below the acceptance bar {DICE_BAR}")
    return errors, metrics


def main(argv) -> int:
    workload, work, seed = argv[0], Path(argv[1]), int(argv[2])
    errors = self_test()
    if workload == "challenge_eval":
        found, metrics = check_challenge(work, seed)
    else:
        found, metrics = check_pinned(work)
    errors += found
    print(json.dumps({"errors": errors, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

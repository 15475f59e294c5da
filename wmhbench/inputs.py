"""What the two workloads are given.

pinned_pipeline: the pinned acceptance configuration. Training stays at
dataset seed 42 and train seed 1; the workload seed draws the test cohort,
generated by `wmhseg phantom` on a grid of four times the training grid's
in-plane area, as from a scanner that training never saw.

challenge_eval: a seeded cohort of (prediction, truth) lesion-mask pairs,
made with numpy alone, apart from the program under test. Each case is a
240 x 240 x 48 grid at 1 x 1 x 3 mm holding 40-80 ellipsoidal lesions
inside a central ellipsoid. The prediction is the truth with three kinds
of error: 15% of the lesions, chosen at random, are dropped (missed
lesions), another 30% are drawn one voxel wider in-plane (grown
boundaries), and 3-10 false-positive blobs are added. Fixed shares rather
than per-lesion coin flips keep the cohort's mean Dice within about 1%
from seed to seed. The lesion and blob
counts are spread evenly over their ranges across the cohort, in an order
the seed shuffles, so every cohort holds the same number of lesions and
the work of a run varies little with its seed.
"""

from __future__ import annotations

import numpy as np

# pinned_pipeline
TRAIN_DATASET_SEED = 42
TRAIN_SEED = 1
TRAIN_CASES = 10
WM_NET = ("--base-width", "4", "--depth", "3", "--epochs", "8", "--batch-size", "4")
WMH_NET = ("--base-width", "4", "--depth", "4", "--epochs", "30", "--batch-size", "4")
WM_ITERATIONS, WMH_ITERATIONS = 128, 480
TEST_CASES = 8
TEST_DIMS = ("128", "128", "16")

# challenge_eval
DIMS = (240, 240, 48)
SPACING = (1.0, 1.0, 3.0)
CASES = 16
LESION_COUNT = (40, 80)
LESION_INPLANE = (1.0, 4.0)  # semi-axis in voxels, x and y
LESION_THROUGH = (0.6, 1.5)  # semi-axis in slices, z
DROP_P = 0.15
GROW_P = 0.3
FALSE_POSITIVES = (3, 10)
FP_SEMIAXES = (1.0, 2.5)
REGION = 0.6  # lesion centers lie in this fraction of the half-extent


def _paint(mask: np.ndarray, center: np.ndarray, semiaxes: np.ndarray) -> None:
    """Set the voxels of an axis-aligned ellipsoid, clipped to the grid."""
    lo = np.maximum(np.floor(center - semiaxes).astype(int), 0)
    hi = np.minimum(np.ceil(center + semiaxes).astype(int) + 1, DIMS)
    axes = [np.arange(a, b) for a, b in zip(lo, hi)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    r = sum(((g - c) / s) ** 2 for g, c, s in zip((gx, gy, gz), center, semiaxes))
    mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] |= r <= 1.0


def _centers(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform in the central ellipsoid, by rejection."""
    half = np.array(DIMS, dtype=np.float64) / 2.0
    out = []
    while len(out) < n:
        u = rng.uniform(-1.0, 1.0, size=3)
        if u @ u <= 1.0:
            out.append(half + REGION * half * u)
    return np.array(out)


def make_case(rng: np.random.Generator, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One (prediction, truth) pair of uint8 {0, 1} masks with n lesions
    and k false-positive blobs."""
    truth = np.zeros(DIMS, dtype=bool)
    pred = np.zeros(DIMS, dtype=bool)
    centers = _centers(rng, n)
    inplane = rng.uniform(*LESION_INPLANE, size=(n, 2))
    through = rng.uniform(*LESION_THROUGH, size=(n, 1))
    semiaxes = np.hstack([inplane, through])
    # the first lesion is always found, so the prediction is never empty
    order = rng.permutation(np.arange(1, n))
    dropped, grown = round(DROP_P * n), round(GROW_P * n)
    grow = np.zeros((n, 3))
    grow[order[dropped:dropped + grown], :2] = 1.0
    for i, (c, s) in enumerate(zip(centers, semiaxes)):
        _paint(truth, c, s)
        if i not in order[:dropped]:
            _paint(pred, c, s + grow[i])
    for c in _centers(rng, k):
        _paint(pred, c, rng.uniform(*FP_SEMIAXES, size=3) * np.array([1.0, 1.0, 0.5]))
    return pred.astype(np.uint8), truth.astype(np.uint8)


def _spread(lo: int, hi: int, rng: np.random.Generator) -> np.ndarray:
    """CASES counts evenly spaced over [lo, hi], in a seeded order."""
    return rng.permutation(np.rint(np.linspace(lo, hi, CASES)).astype(int))


def make_cohort(seed: int):
    """Yield (case_id, prediction, truth) for every case of the cohort."""
    root = np.random.SeedSequence(seed % 2**32)
    order = np.random.default_rng(root.spawn(1)[0])
    lesions, blobs = _spread(*LESION_COUNT, order), _spread(*FALSE_POSITIVES, order)
    for i, child in enumerate(root.spawn(CASES)):
        pred, truth = make_case(np.random.default_rng(child), int(lesions[i]), int(blobs[i]))
        yield f"case_{i:03d}", pred, truth

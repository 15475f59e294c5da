"""Training machinery: the globally class-balanced cross entropy, its
precomputed background-fraction weight, mask-window normalization,
dihedral augmentation, momentum SGD, and the slice-wise training loop.

The loss is a sum over pixels (not a mean): the balanced form

    loss = -w_fg * sum_{j in Y+} log(yhat_j) - w_bg * sum_{j in Y-} log(1 - yhat_j)

with w_fg = beta, w_bg = 1 - beta, where beta is the mean background
fraction over the training slices (HED, Xie & Tu, ICCV 2015). The training
loop scales the batch gradient and recorded loss by the reciprocal of the
batch's total class-weight mass (sum over pixels of the pixel's class
weight), so one optimizer setting behaves comparably across slice sizes
and across very different foreground sparsities.

Precision: training runs in TRAIN_DTYPE, float32, the usual single
precision for FCN training (the reference that Micikevicius et al., arXiv
1710.03740, compare reduced precision against). Parameters, case planes,
activations, gradients, im2col columns and optimizer state are float32,
so trained checkpoints are `<f4` and inference on them runs in float32
too. The loss, its gradient w.r.t. the logits and every history value
are computed in float64; that gradient is rounded to float32 once, as it
enters the network's backward pass.

Initialization: `he_init` draws every weight, then for the residual block
kind every `*.conv2.w` (the last conv of each residual branch) is set to
zero, so each block starts as its skip path (zero-gamma, Goyal et al.,
arXiv 1706.02677). At He scale on both paths each block roughly doubles
the activation variance, and the ResU-Net failed to train at several
seeds.

The network input has one layout, built once per case by `axial_planes`:
(nz, C, nx, ny) axial planes, so a training slice is the view [z] and an
inference forward reads one contiguous plane.

The optimizer is momentum SGD with spike clipping (Pascanu et al.,
arXiv 1211.5063, with a bound that follows the run's own gradient scale):
a step whose global gradient norm exceeds SPIKE_FACTOR times the median
norm of all earlier steps of the run is rescaled to that bound. Gradient
bursts of 30-400x the median otherwise stay in the velocity for about
1 / (1 - momentum) steps and can throw the network to an all-background
output. Steps below the bound, and the first step, are plain momentum
SGD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .architectures import Network, NetworkSpec, he_init
from .metrics import dice
from .volume_io import BinaryMask3D, Volume3D


# probabilities are clipped to [EPSILON, 1 - EPSILON] inside the log
EPSILON = 1e-7

# the optimizer, the case-level validation split and the probability at
# which an output pixel counts as foreground, in training and inference
LEARNING_RATE = 0.05
MOMENTUM = 0.9
VALIDATION_FRACTION = 0.15
THRESHOLD = 0.5

# the dtype of the trained network and of the case planes it trains on
TRAIN_DTYPE = np.dtype(np.float32)


@dataclass
class TrainConfig:
    epochs: int = 4
    seed: int = 0
    batch_size: int = 4
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max iterations must be >= 1 when set")
        if self.seed < 0:
            raise ValueError(f"training seed must be >= 0, got {self.seed}")


@dataclass
class TrainHistory:
    losses: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    val_dice: list[float] = field(default_factory=list)
    val_dice_confined: list[float] = field(default_factory=list)
    beta: float = 0.0
    train_case_ids: list[str] = field(default_factory=list)
    val_case_ids: list[str] = field(default_factory=list)
    iterations: int = 0


def axial_planes(*volumes: np.ndarray) -> np.ndarray:
    """The network input layout: C co-registered (nx, ny, nz) volumes as
    C-contiguous (nz, C, nx, ny) axial planes in their common dtype,
    channel c from volumes[c]. One volume passed alone gives its
    (nz, nx, ny) planes as [:, 0]."""
    nx, ny, nz = np.shape(volumes[0])
    planes = np.empty((nz, len(volumes), nx, ny), dtype=np.result_type(*volumes))
    for c, v in enumerate(volumes):  # np.stack would keep the volumes' memory order
        planes[:, c] = np.asarray(v).transpose(2, 0, 1)
    return planes


@dataclass
class TrainingCase:
    """One case ready for slice-wise training: its input channels, binary
    labels and, for the lesion stage, the stage-1 white matter `window`
    that confines its predictions, all as axial planes (`axial_planes`).
    The images are kept in TRAIN_DTYPE, cast here once."""

    case_id: str
    images: np.ndarray  # (nz, C, nx, ny), TRAIN_DTYPE
    labels: np.ndarray  # (nz, nx, ny), values {0, 1}
    window: np.ndarray | None = None  # (nz, nx, ny), values {0, 1}

    def __post_init__(self) -> None:
        self.images = np.ascontiguousarray(self.images, dtype=TRAIN_DTYPE)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (nz, C, nx, ny), got {self.images.shape}")
        planes = (self.images.shape[0], *self.images.shape[2:])
        if self.labels.shape != planes:
            raise ValueError(f"label planes {self.labels.shape} != image planes {planes}")
        if self.window is not None:
            self.window = np.asarray(self.window, dtype=np.uint8)
            if self.window.shape != self.labels.shape:
                raise ValueError(
                    f"window planes {self.window.shape} != label planes {self.labels.shape}"
                )


def compute_beta(label_planes: Iterable[np.ndarray]) -> float:
    """Mean over slices of (background pixels / total pixels)."""
    fractions = []
    for plane in label_planes:
        plane = np.asarray(plane)
        fractions.append(1.0 - np.count_nonzero(plane) / plane.size)
    if not fractions:
        raise ValueError("compute_beta needs at least one slice")
    return float(np.mean(fractions))


def class_weights(beta: float) -> tuple[float, float]:
    """(w_fg, w_bg) = (beta, 1 - beta): the rarer foreground gets the
    larger weight when beta is the background fraction."""
    return beta, 1.0 - beta


def weighted_bce(
    yhat: np.ndarray, y: np.ndarray, beta: float
) -> tuple[float, np.ndarray]:
    """Class-balanced cross entropy over all pixels of a plane (or any
    matching-shape pair). Returns the scalar loss and the gradient with
    respect to the pre-sigmoid activations, d loss / d z = w_class * (yhat - y).
    """
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y)
    if yhat.shape != y.shape:
        raise ValueError(f"shape mismatch: {yhat.shape} vs {y.shape}")
    w_fg, w_bg = class_weights(beta)
    fg = y > 0
    yc = np.clip(yhat, EPSILON, 1.0 - EPSILON)
    loss = -(
        w_fg * float(np.sum(np.log(yc[fg])))
        + w_bg * float(np.sum(np.log1p(-yc[~fg])))
    )
    dz = np.where(fg, w_fg * (yhat - 1.0), w_bg * yhat)
    return loss, dz


def normalize_to_mask(v: Volume3D, m: BinaryMask3D) -> Volume3D:
    """Min-max normalize using the masked window, clamped to [0, 1]
    everywhere (voxels outside the mask included). The volume is scaled
    in float64, whatever its dtype."""
    if v.data.shape != m.data.shape:
        raise ValueError(f"grid mismatch: {v.data.shape} vs {m.data.shape}")
    sel = m.data > 0
    if not sel.any():
        raise ValueError("normalization mask is empty")
    data = v.data.astype(np.float64)  # a copy, scaled in place below
    vals = data[sel]
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        raise ValueError("degenerate intensity range under the mask")
    data -= lo
    data /= hi - lo
    return Volume3D(data=np.clip(data, 0.0, 1.0, out=data), spacing=v.spacing)


def apply_dihedral(arr: np.ndarray, element: int) -> np.ndarray:
    """Apply element 0..7 of the dihedral group to the last two axes:
    rotation by 90 * (element % 4) degrees, then a horizontal flip for
    elements >= 4. Element 0 is the identity."""
    if not 0 <= element < 8:
        raise ValueError(f"dihedral element must be 0..7, got {element}")
    out = np.rot90(arr, element % 4, axes=(-2, -1))
    if element >= 4:
        out = out[..., ::-1]
    return np.ascontiguousarray(out)


def augment(
    images: np.ndarray, label: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one dihedral element uniformly and apply it identically to
    every image channel and the label."""
    e = int(rng.integers(8))
    return apply_dihedral(images, e), apply_dihedral(label, e)


# Runs that train cleanly stay below about 8x the median gradient norm of
# their earlier steps; the bursts that collapse training reach 30-400x.
SPIKE_FACTOR = 10.0


class SGD:
    """Momentum SGD with spike clipping:
    v <- momentum*v + s*g; w <- w - lr*v; grads cleared.

    s = 1 unless the global gradient norm |g| exceeds SPIKE_FACTOR times
    the median of the norms of all earlier steps; then s = bound / |g|, so
    the spike enters the velocity at the bound. Every raw norm is kept in
    `grad_norms`.
    """

    def __init__(self, params: Sequence, learning_rate: float, momentum: float):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocities = [np.zeros_like(p.value) for p in self.params]
        self.grad_norms: list[float] = []

    def step(self) -> None:
        # a pairwise sum, not a BLAS dot: independent of the BLAS thread count
        norm = float(np.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in self.params)))
        scale = 1.0
        if self.grad_norms:
            bound = SPIKE_FACTOR * float(np.median(self.grad_norms))
            if norm > bound > 0.0:
                scale = bound / norm
        self.grad_norms.append(norm)
        for p, v in zip(self.params, self.velocities):
            v *= self.momentum
            v += p.grad if scale == 1.0 else scale * p.grad
            p.value -= self.learning_rate * v
            p.zero_grad()


def split_cases(
    n_cases: int, fraction: float, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Case-level train/validation split (never slice-level: slices of one
    case stay together). Returns (train indices, val indices)."""
    if n_cases < 1:
        raise ValueError("empty dataset")
    perm = rng.permutation(n_cases)
    n_val = max(1, round(fraction * n_cases))
    if n_val >= n_cases:
        raise ValueError(
            f"empty training split: {n_cases} cases at fraction {fraction}"
        )
    val = sorted(int(i) for i in perm[:n_val])
    train = sorted(int(i) for i in perm[n_val:])
    return train, val


def predict_probabilities(net: Network, planes: np.ndarray) -> np.ndarray:
    """Run the network on one axial plane per forward, as the FCN segments
    each slice on its own; returns (nx, ny, nz) floats. `planes` are the
    (nz, C, nx, ny) `axial_planes` of the input, read as given, so each
    forward's activations and im2col columns are those of a single plane
    whatever the volume's depth.

    The result need not bit-equal one forward over all planes stacked as
    a batch: a GEMM column's rounding can depend on how many columns the
    GEMM has. With OpenBLAS's Haswell kernels, measured on 8 random
    planes in float32: the pinned checkpoints (widths 4, depths 3 and 4)
    are bit-equal at 128x128, and the white matter one at 64x64, but the
    lesion one differs there in 187 of 32,768 probabilities, by up to
    5.1e-7, from its 4x4 bottleneck conv on (a GEMM of 16 columns per
    plane against 128 batched). A level whose plane holds no multiple of
    8 pixels in float64, or of 16 in float32, differs more often, since
    the last columns of such a GEMM run through an edge kernel; the
    240x240 grid has one at depth 3 or more (its 30x30 level)."""
    nz, _, nx, ny = planes.shape
    probs = np.empty((nx, ny, nz), dtype=np.float64)
    for z in range(nz):
        probs[:, :, z] = net.forward(planes[z : z + 1], train=False)[0, 0]
    return probs


def train(
    spec: NetworkSpec,
    cases: list[TrainingCase],
    cfg: TrainConfig,
) -> tuple[Network, TrainHistory]:
    """Slice-wise SGD over shuffled augmented axial slices.

    Cases (not slices) are split into train/validation with the seeded
    RNG; beta is computed over the training slices; history
    records the per-iteration scaled loss and global gradient norm (before
    spike clipping) and the per-epoch validation Dice of the thresholded
    output: raw in `val_dice`, and ANDed with each case's `window` in
    `val_dice_confined` (empty when no validation case has a window).
    Trains in TRAIN_DTYPE with the residual branches zero-initialized (see
    the module docstring). Bit-reproducible for a fixed seed.
    """
    if not cases:
        raise ValueError("empty dataset")
    ss = np.random.SeedSequence(cfg.seed)
    seed_init, seed_split, seed_loop = (
        int(c.generate_state(1)[0]) for c in ss.spawn(3)
    )

    split_rng = np.random.default_rng(seed_split)
    train_idx, val_idx = split_cases(len(cases), VALIDATION_FRACTION, split_rng)
    train_cases = [cases[i] for i in train_idx]
    val_cases = [cases[i] for i in val_idx]

    beta = compute_beta(lab for c in train_cases for lab in c.labels)
    w_fg, w_bg = class_weights(beta)

    net = Network(spec, TRAIN_DTYPE)
    he_init(net.graph, seed_init)
    if spec.block_kind == "residual":  # each block starts as its skip path
        for p in net.parameters():
            if p.name.endswith(".conv2.w"):
                p.value[...] = 0.0
    optimizer = SGD(net.parameters(), LEARNING_RATE, MOMENTUM)
    loop_rng = np.random.default_rng(seed_loop)

    slices = [
        (ci, z)
        for ci, c in enumerate(train_cases)
        for z in range(len(c.labels))
    ]
    if not slices:
        raise ValueError("training split has no slices")

    history = TrainHistory(
        beta=beta,
        train_case_ids=[c.case_id for c in train_cases],
        val_case_ids=[c.case_id for c in val_cases],
    )

    iteration = 0
    budget = cfg.max_iterations
    for _epoch in range(cfg.epochs):
        order = loop_rng.permutation(len(slices))
        for start in range(0, len(order), cfg.batch_size):
            if budget is not None and iteration >= budget:
                break
            batch_ids = order[start : start + cfg.batch_size]
            planes = []
            for si in batch_ids:
                ci, z = slices[si]
                planes.append(augment(train_cases[ci].images[z],
                                      train_cases[ci].labels[z], loop_rng))

            net.zero_grad()
            # group by plane shape: 90/270-degree rotations of rectangles
            # change dims, and each forward/backward needs uniform shapes
            groups: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}
            for img, lab in planes:
                groups.setdefault(lab.shape, []).append((img, lab))
            # normalize by the batch's total class-weight mass so step sizes
            # stay comparable across beta regimes and slice sizes
            mass = 0.0
            for _img, lab in planes:
                n_fg = int(np.count_nonzero(lab))
                mass += w_fg * n_fg + w_bg * (lab.size - n_fg)
            scale = 1.0 / max(mass, 1e-12)
            loss_acc = 0.0
            for _shape, members in groups.items():
                x = np.stack([img for img, _ in members])
                y = np.stack([lab for _, lab in members])
                out = net.forward(x, train=True)
                loss, dz = weighted_bce(out[:, 0], y, beta)
                loss_acc += loss * scale
                net.backward_from_logits(dz[:, None] * scale)
            if not np.isfinite(loss_acc):
                raise RuntimeError(
                    f"non-finite loss {loss_acc} at iteration {iteration}"
                )
            optimizer.step()
            history.losses.append(float(loss_acc))
            iteration += 1
        raw_scores, confined_scores = [], []
        grid = (1.0, 1.0, 1.0)  # Dice reads no spacing
        for c in val_cases:
            pred = (predict_probabilities(net, c.images) >= THRESHOLD).astype(np.uint8)
            truth = BinaryMask3D(c.labels.transpose(1, 2, 0) > 0, grid)
            raw_scores.append(dice(BinaryMask3D(pred, grid), truth))
            if c.window is not None:
                confined = pred & c.window.transpose(1, 2, 0)
                confined_scores.append(dice(BinaryMask3D(confined, grid), truth))
        history.val_dice.append(float(np.mean(raw_scores)))
        if confined_scores:
            history.val_dice_confined.append(float(np.mean(confined_scores)))
        if budget is not None and iteration >= budget:
            break

    history.iterations = iteration
    history.grad_norms = optimizer.grad_norms
    return net, history

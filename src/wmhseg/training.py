"""Training machinery: the globally class-balanced cross entropy, its
precomputed background-fraction weight, mask-window normalization,
dihedral augmentation, momentum SGD, and the slice-wise training loop.

The loss is a sum over pixels (not a mean): the balanced form

    loss = -w_fg * sum_{j in Y+} log(yhat_j) - w_bg * sum_{j in Y-} log(1 - yhat_j)

with w_fg = beta, w_bg = 1 - beta, where beta is the mean background
fraction over the training slices (HED, Xie & Tu, ICCV 2015). Training
runs in float64. The training loop scales the batch gradient and
recorded loss by the reciprocal of the batch's total class-weight mass
(sum over pixels of the pixel's class weight), so one optimizer setting
behaves comparably across slice sizes and across very different
foreground sparsities.

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


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 4
    seed: int = 0
    validation_fraction: float = 0.15
    augment: bool = True
    batch_size: int = 4
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation fraction must be in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max iterations must be >= 1 when set")


@dataclass
class TrainHistory:
    losses: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    val_dice: list[float] = field(default_factory=list)
    beta: float = 0.0
    train_case_ids: list[str] = field(default_factory=list)
    val_case_ids: list[str] = field(default_factory=list)
    iterations: int = 0
    checkpoint_path: str | None = None


@dataclass
class TrainingCase:
    """One case ready for slice-wise training: stacked input channels and
    a binary label volume on the same grid."""

    case_id: str
    images: np.ndarray  # (channels, nx, ny, nz)
    labels: np.ndarray  # (nx, ny, nz), values {0, 1}
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels).astype(np.uint8)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (C, nx, ny, nz), got {self.images.shape}")
        if self.images.shape[1:] != self.labels.shape:
            raise ValueError(
                f"label grid {self.labels.shape} != image grid {self.images.shape[1:]}"
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
    everywhere (voxels outside the mask included)."""
    if v.data.shape != m.data.shape:
        raise ValueError(f"grid mismatch: {v.data.shape} vs {m.data.shape}")
    sel = m.data > 0
    if not sel.any():
        raise ValueError("normalization mask is empty")
    vals = v.data[sel]
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        raise ValueError("degenerate intensity range under the mask")
    out = np.clip((v.data - lo) / (hi - lo), 0.0, 1.0)
    return Volume3D(data=out, spacing=v.spacing)


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


def predict_probabilities(
    net: Network, images: np.ndarray, batch_size: int = 8
) -> np.ndarray:
    """Run the network over every axial slice; returns (nx, ny, nz) floats."""
    images = np.asarray(images, dtype=np.float64)
    c, nx, ny, nz = images.shape
    probs = np.empty((nx, ny, nz), dtype=np.float64)
    for start in range(0, nz, batch_size):
        stop = min(start + batch_size, nz)
        batch = images[:, :, :, start:stop].transpose(3, 0, 1, 2)
        out = net.forward(batch, train=False)
        probs[:, :, start:stop] = out[:, 0].transpose(1, 2, 0)
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
    spike clipping) and the per-epoch validation Dice.
    Bit-reproducible for a fixed seed.
    """
    if not cases:
        raise ValueError("empty dataset")
    ss = np.random.SeedSequence(cfg.seed)
    seed_init, seed_split, seed_loop = (
        int(c.generate_state(1)[0]) for c in ss.spawn(3)
    )

    split_rng = np.random.default_rng(seed_split)
    train_idx, val_idx = split_cases(
        len(cases), cfg.validation_fraction, split_rng
    )
    train_cases = [cases[i] for i in train_idx]
    val_cases = [cases[i] for i in val_idx]

    # each case's axial planes, made contiguous once: (nz, C, nx, ny) images
    # and (nz, nx, ny) labels, so a slice is a plain view, not a strided gather
    train_planes = [
        (np.ascontiguousarray(c.images.transpose(3, 0, 1, 2)),
         np.ascontiguousarray(c.labels.transpose(2, 0, 1)))
        for c in train_cases
    ]
    beta = compute_beta(lab for _, labels in train_planes for lab in labels)
    w_fg, w_bg = class_weights(beta)

    net = Network(spec)
    he_init(net.graph, seed_init)
    optimizer = SGD(net.parameters(), cfg.learning_rate, cfg.momentum)
    loop_rng = np.random.default_rng(seed_loop)

    slices = [
        (ci, z)
        for ci, (_, labels) in enumerate(train_planes)
        for z in range(len(labels))
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
                images, labels = train_planes[ci]
                img, lab = images[z], labels[z]
                if cfg.augment:
                    img, lab = augment(img, lab, loop_rng)
                planes.append((img, lab))

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
        val_scores = [
            dice(BinaryMask3D(predict_probabilities(net, c.images) >= 0.5, c.spacing),
                 BinaryMask3D(c.labels > 0, c.spacing))
            for c in val_cases
        ]
        history.val_dice.append(float(np.mean(val_scores)))
        if budget is not None and iteration >= budget:
            break

    history.iterations = iteration
    history.grad_norms = optimizer.grad_norms
    return net, history

"""Binary-mask machinery: connected components, largest component,
iterated dilation, and border extraction.

Connectivity is the 3-D neighbour count: 6 (faces), 18 (faces+edges) or
26 (full). Component labels are assigned in first-visit order with a
row-major (C-order on the (nx, ny, nz) array) seed scan, so labeling is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume_io import BinaryMask3D


def _neighbor_offsets(connectivity: int) -> np.ndarray:
    if connectivity not in (6, 18, 26):
        raise ValueError(f"connectivity must be one of 6, 18, 26, got {connectivity}")
    offs = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                order = abs(dx) + abs(dy) + abs(dz)
                if connectivity == 6 and order > 1:
                    continue
                if connectivity == 18 and order > 2:
                    continue
                offs.append((dx, dy, dz))
    return np.array(offs, dtype=np.int64)


@dataclass
class LabelVolume:
    """Per-voxel component labels, 0 = background, components 1..count."""

    labels: np.ndarray
    count: int

    def component_sizes(self) -> np.ndarray:
        """Voxel count per label, index 0 unused."""
        return np.bincount(self.labels.ravel(), minlength=self.count + 1)


def connected_components(m: BinaryMask3D, connectivity: int = 26) -> LabelVolume:
    """Label connected components with vectorized BFS flood fill."""
    data = m.data.astype(bool)
    offs = _neighbor_offsets(connectivity)
    labels = np.zeros(data.shape, dtype=np.int32)
    shape = np.array(data.shape, dtype=np.int64)

    seeds = np.argwhere(data)  # C-order: deterministic seed scan
    count = 0
    for seed in seeds:
        x, y, z = seed
        if labels[x, y, z]:
            continue
        count += 1
        labels[x, y, z] = count
        frontier = seed[None, :]
        while frontier.size:
            cand = (frontier[:, None, :] + offs[None, :, :]).reshape(-1, 3)
            ok = ((cand >= 0) & (cand < shape)).all(axis=1)
            cand = cand[ok]
            cx, cy, cz = cand[:, 0], cand[:, 1], cand[:, 2]
            fresh = data[cx, cy, cz] & (labels[cx, cy, cz] == 0)
            cand = cand[fresh]
            if cand.size:
                cand = np.unique(cand, axis=0)
                labels[cand[:, 0], cand[:, 1], cand[:, 2]] = count
            frontier = cand
    return LabelVolume(labels=labels, count=count)


def largest_component(m: BinaryMask3D, connectivity: int = 6) -> BinaryMask3D:
    """Mask of the component with maximal voxel count; ties go to the
    smallest label (the one whose seed is first in scan order)."""
    if m.voxel_count() == 0:
        raise ValueError("largest_component of an empty mask")
    lab = connected_components(m, connectivity)
    sizes = lab.component_sizes()
    best = int(np.argmax(sizes[1:])) + 1  # argmax returns first max: smallest label
    return BinaryMask3D(
        data=(lab.labels == best).astype(np.uint8), spacing=m.spacing
    )


def dilate(m: BinaryMask3D, radius_voxels: int, connectivity: int = 6) -> BinaryMask3D:
    """Iterated dilation by the structuring element the connectivity
    induces, repeated radius_voxels times. Radius 0 is the identity."""
    if radius_voxels < 0:
        raise ValueError("radius must be >= 0")
    data = m.data.astype(bool)
    offs = _neighbor_offsets(connectivity)
    for _ in range(radius_voxels):
        acc = data.copy()
        for dx, dy, dz in offs:
            acc |= _shifted(data, dx, dy, dz)
        data = acc
    return BinaryMask3D(data=data.astype(np.uint8), spacing=m.spacing)


def _shifted(data: np.ndarray, dx: int, dy: int, dz: int) -> np.ndarray:
    """data translated by (dx, dy, dz) with zeros shifted in (no wrap)."""
    out = np.zeros_like(data)
    src = []
    dst = []
    for d, n in zip((dx, dy, dz), data.shape):
        if d >= 0:
            src.append(slice(0, n - d))
            dst.append(slice(d, n))
        else:
            src.append(slice(-d, n))
            dst.append(slice(0, n + d))
    out[tuple(dst)] = data[tuple(src)]
    return out


def border_voxels(m: BinaryMask3D) -> np.ndarray:
    """Coordinates (n, 3) of foreground voxels with at least one 6-neighbor
    (or a volume boundary face) outside the mask, in scan order."""
    data = m.data.astype(bool)
    padded = np.pad(data, 1)  # volume boundary counts as outside
    interior = np.ones_like(data)
    for dx, dy, dz in _neighbor_offsets(6):
        interior &= padded[
            1 + dx : 1 + dx + data.shape[0],
            1 + dy : 1 + dy + data.shape[1],
            1 + dz : 1 + dz + data.shape[2],
        ]
    return np.argwhere(data & ~interior)

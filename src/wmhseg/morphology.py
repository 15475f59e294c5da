"""Binary-mask machinery: connected components, largest component,
iterated dilation, and border extraction.

Connectivity is the 3-D neighbour count: 6 (faces), 18 (faces+edges) or
26 (full). Labeling and borders share one foreground edge list: past one
scan of the grid, their cost grows with the foreground. Union-find over
the edges (Wu, Otoo & Suzuki, Pattern Anal. Appl. 2009) roots each
component at its minimum C-order flat index, so labels follow first-visit
scan order; a border voxel has fewer than six 6-connected foreground edges.
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


def _edges(flat: np.ndarray, shape: tuple, connectivity: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of neighbouring foreground voxels once, as (voxel, earlier
    neighbour) positions in `flat`, the foreground's sorted flat indices."""
    offs = _neighbor_offsets(connectivity)
    coords = np.unravel_index(flat, shape)
    strides = np.array([shape[1] * shape[2], shape[2], 1], dtype=np.int64)
    # One offset of each +/- pair. The coordinate bounds keep flat offsets
    # from wrapping across rows and planes.
    src, dst = [], []
    for off in offs[: len(offs) // 2]:  # the offsets that point back in scan order
        inside = np.ones(flat.size, dtype=bool)
        for c, d, n in zip(coords, off, shape):
            if d:
                inside &= (c >= 1) if d < 0 else (c < n - 1)
        pos = np.flatnonzero(inside)
        target = flat[pos] + off @ strides
        hit = np.searchsorted(flat, target)  # < flat.size: target < flat[pos]
        found = flat[hit] == target
        src.append(pos[found])
        dst.append(hit[found])
    return np.concatenate(src), np.concatenate(dst)


def connected_components(m: BinaryMask3D, connectivity: int = 26) -> LabelVolume:
    """Label connected components by union-find, in first-visit scan
    order. The cost grows with the foreground voxels, not with the grid."""
    shape = m.data.shape
    flat = np.flatnonzero(m.data.view(bool))  # sorted: position order is scan order
    a, b = _edges(flat, shape, connectivity)

    # Hook each edge's larger root onto its smaller one, then pointer-jump
    # to full compression; repeat until both ends of every edge share a
    # root. parent[i] <= i throughout, so each root is its tree's minimum.
    parent = np.arange(flat.size)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]

    is_root = parent == np.arange(flat.size)
    labels = np.zeros(shape, dtype=np.int32)
    labels.reshape(-1)[flat] = np.cumsum(is_root, dtype=np.int32)[parent]  # roots in scan order
    return LabelVolume(labels=labels, count=int(is_root.sum()))


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
    """Coordinates (n, 3), in scan order, of the foreground voxels with fewer
    than six 6-connected foreground edges (a volume face counts as outside).
    Past one scan for the foreground, the cost grows with the foreground."""
    flat = np.flatnonzero(m.data.view(bool))
    a, b = _edges(flat, m.data.shape, 6)
    degree = np.bincount(a, minlength=flat.size) + np.bincount(b, minlength=flat.size)
    return np.stack(np.unravel_index(flat[degree < 6], m.data.shape), axis=1)

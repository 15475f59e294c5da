"""Binary-mask machinery: connected components, largest component,
iterated dilation, and border extraction.

Connectivity is the 3-D neighbour count: 6 (faces), 18 (faces+edges) or
26 (full). Labeling and borders share one edge pass per mask: the edges
of each back offset are found once, from the mask's `foreground`, by one
`searchsorted` on flat indices into the grid padded by one voxel (so no
edge wraps across a row or a plane), and kept on the mask. Borders read
the 3 face offsets that 26-connected labeling found, and the reverse, so
the cost grows with the foreground, not with the grid, and neither reads
the dense grid. Labels are kept per foreground voxel. Union-find over
the edges (Wu, Otoo & Suzuki, Pattern Anal. Appl. 2009) roots each
component at its minimum C-order flat index, so labels follow first-visit
scan order; a border voxel has fewer than six 6-connected foreground edges.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .volume_io import BinaryMask3D


def _offsets(max_order: int) -> np.ndarray:
    """The offsets in {-1, 0, 1}^3 with 1 to `max_order` nonzero components,
    in scan order, so the first half point back; read-only, as it is shared."""
    offs = np.array([o for o in itertools.product((-1, 0, 1), repeat=3)
                     if 0 < np.count_nonzero(o) <= max_order], dtype=np.int64)
    offs.setflags(write=False)
    return offs


_OFFSETS = {6: _offsets(1), 18: _offsets(2), 26: _offsets(3)}


def _neighbor_offsets(connectivity: int) -> np.ndarray:
    if connectivity not in (6, 18, 26):
        raise ValueError(f"connectivity must be one of 6, 18, 26, got {connectivity}")
    return _OFFSETS[connectivity]


@dataclass
class LabelVolume:
    """Component labels of a mask's foreground, components 1..count.

    `voxel_labels[i]` is the label of the voxel at C-order flat index
    `foreground[i]`. The dense grid `labels` (0 = background) is built
    from them on first use.
    """

    foreground: np.ndarray
    voxel_labels: np.ndarray
    shape: tuple[int, int, int]
    count: int

    @functools.cached_property
    def labels(self) -> np.ndarray:
        labels = np.zeros(self.shape, dtype=np.int32)
        labels.reshape(-1)[self.foreground] = self.voxel_labels
        return labels

    def component_sizes(self) -> np.ndarray:
        """Voxel count per label, index 0 unused."""
        return np.bincount(self.voxel_labels, minlength=self.count + 1)


def _edges(m: BinaryMask3D, connectivity: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of neighbouring foreground voxels once, as (voxel, earlier
    neighbour) positions in `m.foreground`. Each back offset's pairs are
    found once per mask and kept in `m._edges`, so labeling and borders
    share them."""
    offs = _neighbor_offsets(connectivity)
    back = [tuple(o) for o in offs[: len(offs) // 2]]  # they point back in scan order
    missing = [o for o in back if o not in m._edges]
    if missing:
        _, ny, nz = m.dims
        flat = m.foreground
        # The flat index in the grid padded by one background voxel on
        # every side, ((i+1)(ny+2) + j+1)(nz+2) + k+1. It is sorted as
        # `flat` is, and no offset from it wraps across a row or a plane.
        row = flat // nz  # i*ny + j
        padded = (row + 2 * (row // ny) + ny + 3) * (nz + 2) + (flat - row * nz) + 1
        for dx, dy, dz in missing:
            target = padded + ((dx * (ny + 2) + dy) * (nz + 2) + dz)
            hit = np.searchsorted(padded, target)  # < padded.size: target < padded
            found = padded[hit] == target
            m._edges[dx, dy, dz] = (np.flatnonzero(found), hit[found])
    return tuple(np.concatenate(e) for e in zip(*(m._edges[o] for o in back)))


def connected_components(m: BinaryMask3D, connectivity: int = 26) -> LabelVolume:
    """Label connected components by union-find, in first-visit scan
    order. The cost grows with the foreground voxels, not with the grid."""
    flat = m.foreground  # sorted: position order is scan order
    a, b = _edges(m, connectivity)

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
    voxel_labels = np.cumsum(is_root, dtype=np.int32)[parent]  # roots in scan order
    return LabelVolume(flat, voxel_labels, m.dims, int(is_root.sum()))


def largest_component(m: BinaryMask3D, connectivity: int = 6) -> BinaryMask3D:
    """Mask of the component with maximal voxel count; ties go to the
    smallest label (the one whose seed is first in scan order)."""
    if m.voxel_count() == 0:
        raise ValueError("largest_component of an empty mask")
    lab = connected_components(m, connectivity)
    sizes = lab.component_sizes()
    best = int(np.argmax(sizes[1:])) + 1  # argmax returns first max: smallest label
    fg = lab.foreground[lab.voxel_labels == best]
    return BinaryMask3D._from_foreground(fg, m.dims, m.spacing)


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
    The cost grows with the foreground."""
    flat = m.foreground
    a, b = _edges(m, 6)
    degree = np.bincount(a, minlength=flat.size) + np.bincount(b, minlength=flat.size)
    return np.stack(np.unravel_index(flat[degree < 6], m.dims), axis=1)

"""Volumetric image I/O: a NIfTI-1 single-file subset.

Volumes are numpy arrays indexed ``[x, y, z]``; the on-disk payload is
x-fastest (Fortran order), matching NIfTI. Spacing is mm per voxel.

A volume keeps the dtype its file stores, read as a view in file order.
A mask keeps its foreground, the sorted C-order flat indices of its
ones, once found, and moves between C and file order by it alone: a
read scans the file's values once and hands the indices it finds to the
mask, which builds its dense C-ordered grid only on first use, and a
write scatters ones into a zeroed buffer. So past one scan the cost
grows with the foreground, not with the grid.
"""

from __future__ import annotations

import functools
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NIFTI_HEADER_SIZE = 348
NIFTI_MAGIC = b"n+1\x00"

# NIfTI-1 datatype codes supported by this subset.
DT_UINT8 = 2
DT_INT16 = 4
DT_FLOAT32 = 16

_DTYPE_BY_CODE = {
    DT_UINT8: np.dtype(np.uint8),
    DT_INT16: np.dtype(np.int16),
    DT_FLOAT32: np.dtype(np.float32),
}
_CODE_BY_DTYPE = {dtype: code for code, dtype in _DTYPE_BY_CODE.items()}


class VolumeIOError(ValueError):
    """Base class for volume I/O failures."""


class MalformedHeaderError(VolumeIOError):
    """Header bytes do not form a valid NIfTI-1 header."""


class WrongMagicError(VolumeIOError):
    """Magic string does not identify single-file NIfTI-1."""


class UnsupportedDatatypeError(VolumeIOError):
    """Datatype code outside the supported subset."""


class CompressedStreamError(VolumeIOError):
    """File is a gzip stream; decompress externally first."""


class DimensionError(VolumeIOError):
    """An axis past the third longer than 1, or invalid dim counts."""


class TruncatedPayloadError(VolumeIOError):
    """File ends before the declared voxel payload."""


def _checked_grid(data, spacing) -> tuple[np.ndarray, tuple[float, float, float]]:
    """The grid contract of both volume types: 3-D data, every axis at
    least 1 long, and 3 finite positive spacings."""
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError(f"expected 3-D data, got ndim={data.ndim}")
    if min(data.shape) < 1:
        raise ValueError(f"all dims must be >= 1, got {data.shape}")
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3:
        raise ValueError("spacing must have 3 components")
    if not all(np.isfinite(s) and s > 0 for s in spacing):
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    return data, spacing  # type: ignore[return-value]


def _transposed_flat_index(idx: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """C-order flat indices into a grid of `shape`, mapped to the same
    voxels' C-order flat indices in the transposed grid (shape reversed).

    The file order of an (nx, ny, nz) grid is the C order of its
    transpose, so `shape` maps C to file order and `shape[::-1]` maps
    file to C order.
    """
    a, b, c = shape
    ij = idx // c  # floor division by a scalar is fast; np.divmod is not
    k = idx - ij * c
    i = ij // b
    j = ij - i * b
    return (k * b + j) * a + i


@dataclass
class Volume3D:
    """A 3-D scalar grid with per-axis voxel spacing in mm.

    ``data`` has shape (nx, ny, nz), is indexed [x, y, z] and keeps its
    dtype and memory layout (`read_nifti` gives the file's).
    """

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self) -> None:
        self.data, self.spacing = _checked_grid(self.data, self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(self.data.shape)  # type: ignore[return-value]

    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz


def require_finite(name: str, v: Volume3D) -> None:
    """A NaN or infinity would spread and empty a mask without a word."""
    bad = v.data.size - np.count_nonzero(np.isfinite(v.data))
    if bad:
        raise ValueError(f"{name} volume has non-finite voxels: {bad}")


def _binary_uint8(data: np.ndarray) -> np.ndarray:
    """`data` as uint8 (uint8 is kept without a copy), after checking that
    every value is exactly 0 or 1."""
    if data.dtype.kind in "bu":  # nothing below 0: the maximum decides
        binary = data.max(initial=0) <= 1
    else:  # NaN equals neither
        binary = ((data == 0) | (data == 1)).all()
    if not binary:
        raise ValueError("mask values must be exactly 0 or 1")
    return data.astype(np.uint8, copy=False)


def _scan_foreground(data: np.ndarray) -> np.ndarray:
    """Sorted C-order flat indices of the ones of a 0/1 uint8 array, in any
    memory layout: the one scan that finds a mask's foreground."""
    return np.flatnonzero(data.view(bool))


class BinaryMask3D:
    """Same grid contract as Volume3D, values restricted to {0, 1} and
    stored as uint8. uint8 data is kept as given, without a copy.

    `foreground` holds the sorted C-order flat indices of the ones. It is
    found by one scan on first use, or handed over when the mask is built
    from it (`read_nifti_mask`, `largest_component`), and kept. A mask
    built from its foreground keeps only its `dims` and builds the dense
    `data` on first use. The mask also keeps the foreground's neighbour
    edges that `morphology` finds. So a mask's `data` is not changed in
    place after construction: build a new mask instead.
    """

    def __init__(self, data, spacing) -> None:
        data, self.spacing = _checked_grid(data, spacing)
        self.data = _binary_uint8(data)
        self.dims: tuple[int, int, int] = data.shape
        self._foreground: np.ndarray | None = None
        self._edges: dict = {}  # back offset -> edges, kept by `morphology`

    @functools.cached_property
    def data(self) -> np.ndarray:
        """The dense uint8 grid, C-ordered; a mask built from its foreground
        scatters ones into a zeroed grid here, on first use."""
        data = np.zeros(self.dims, dtype=np.uint8)
        data.reshape(-1)[self._foreground] = 1
        return data

    @property
    def foreground(self) -> np.ndarray:
        if self._foreground is None:
            self._foreground = _scan_foreground(self.data)
        return self._foreground

    def voxel_count(self) -> int:
        return int(self.foreground.size)

    @classmethod
    def _from_foreground(
        cls, fg: np.ndarray, dims: tuple[int, int, int], spacing: tuple[float, float, float]
    ) -> BinaryMask3D:
        """The mask of a checked grid with ones at the sorted C-order flat
        indices `fg`. It is 0/1 by construction, so its values are neither
        checked nor scanned again, and its grid is built only if read."""
        m = cls.__new__(cls)
        m.dims, m.spacing, m._foreground, m._edges = dims, spacing, fg, {}
        return m


@dataclass
class NiftiHeaderSubset:
    """The header fields this reader/writer cares about."""

    dims: tuple[int, int, int]
    datatype: int
    pixdim: tuple[float, float, float]
    vox_offset: int
    big_endian: bool
    scl_slope: float = 0.0
    scl_inter: float = 0.0


def _parse_header(raw: bytes) -> NiftiHeaderSubset:
    if len(raw) >= 2 and raw[:2] == b"\x1f\x8b":
        raise CompressedStreamError("gzip stream; only uncompressed .nii is supported")
    if len(raw) < NIFTI_HEADER_SIZE:
        raise MalformedHeaderError(
            f"header truncated: {len(raw)} bytes, need {NIFTI_HEADER_SIZE}"
        )

    (sizeof_le,) = struct.unpack_from("<i", raw, 0)
    (sizeof_be,) = struct.unpack_from(">i", raw, 0)
    if sizeof_le == NIFTI_HEADER_SIZE:
        endian = "<"
        big_endian = False
    elif sizeof_be == NIFTI_HEADER_SIZE:
        endian = ">"
        big_endian = True
    else:
        raise MalformedHeaderError(f"malformed header: sizeof_hdr={sizeof_le}")

    magic = raw[344:348]
    if magic != NIFTI_MAGIC:
        raise WrongMagicError(f"wrong magic {magic!r}, expected {NIFTI_MAGIC!r}")

    dim = struct.unpack_from(endian + "8h", raw, 40)
    ndim = dim[0]
    if ndim < 1 or ndim > 7:
        raise DimensionError(f"dim[0]={ndim} outside 1..7")
    sizes = list(dim[1 : 1 + ndim])
    if any(d < 1 for d in sizes):
        raise DimensionError(f"nonpositive axis length in dim={dim[: 1 + ndim]}")
    if any(d > 1 for d in sizes[3:]):
        raise DimensionError(f"an axis past the third is longer than 1: dim={dim[: 1 + ndim]}")
    sizes = (sizes + [1, 1, 1])[:3]

    (datatype,) = struct.unpack_from(endian + "h", raw, 70)
    if datatype not in _DTYPE_BY_CODE:
        raise UnsupportedDatatypeError(f"unsupported datatype code {datatype}")

    pixdim = struct.unpack_from(endian + "8f", raw, 76)
    spacing = tuple(float(pixdim[1 + i]) if i < ndim else 1.0 for i in range(3))
    if not all(np.isfinite(s) and s > 0 for s in spacing):
        raise MalformedHeaderError(f"nonpositive pixdim {spacing}")

    (vox_offset,) = struct.unpack_from(endian + "f", raw, 108)
    (scl_slope,) = struct.unpack_from(endian + "f", raw, 112)
    (scl_inter,) = struct.unpack_from(endian + "f", raw, 116)
    if not np.isfinite(vox_offset) or vox_offset < NIFTI_HEADER_SIZE:
        raise MalformedHeaderError(f"bad vox_offset {vox_offset}")
    if not (np.isfinite(scl_slope) and np.isfinite(scl_inter)):
        raise MalformedHeaderError(f"non-finite scaling {scl_slope}*x + {scl_inter}")

    return NiftiHeaderSubset(
        dims=tuple(sizes),  # type: ignore[arg-type]
        datatype=int(datatype),
        pixdim=spacing,  # type: ignore[arg-type]
        vox_offset=int(vox_offset),
        big_endian=big_endian,
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
    )


@contextmanager
def _naming(path: str | Path):
    """Prefixes `path` to a ValueError raised in the block, keeping its
    type, so that every read error names its file."""
    try:
        yield
    except ValueError as e:
        raise type(e)(f"{path}: {e}") from e


def read_nifti(path: str | Path) -> Volume3D:
    """Read an uncompressed single-file NIfTI-1 volume.

    Spacing is taken from pixdim[1..3]. ``data`` is the payload in its
    stored dtype and byte order: a read-only view in file order
    (x-fastest, so Fortran-ordered), with no copy. Only a file with a
    nonzero scl_slope differs: its values are mapped through
    value = slope*raw + inter into a C-ordered float64 array. Raises a
    distinct VolumeIOError subclass for each malformation (wrong magic,
    unsupported datatype, gzip stream, extra axes, non-finite scaling,
    truncated payload), its message prefixed with `path`.
    """
    raw = Path(path).read_bytes()
    with _naming(path):
        hdr = _parse_header(raw)
        dtype = _DTYPE_BY_CODE[hdr.datatype].newbyteorder(">" if hdr.big_endian else "<")
        nx, ny, nz = hdr.dims
        count = nx * ny * nz
        available = max(len(raw) - hdr.vox_offset, 0)
        if available < count * dtype.itemsize:
            raise TruncatedPayloadError(
                f"payload has {available} bytes, expected {count * dtype.itemsize}"
            )
        flat = np.frombuffer(raw, dtype=dtype, count=count, offset=hdr.vox_offset)
        data = flat.reshape((nx, ny, nz), order="F")  # the file is x-fastest
        if hdr.scl_slope != 0.0:
            data = hdr.scl_slope * data.astype(np.float64, order="C") + hdr.scl_inter
        return Volume3D(data=data, spacing=hdr.pixdim)


def read_nifti_mask(path: str | Path) -> BinaryMask3D:
    """Read a NIfTI file expected to contain a {0,1} mask. The values are
    checked as stored (after scl_slope scaling), so a probability map or
    an integer label outside {0, 1} raises ValueError naming `path`.

    One scan of the file's values finds the foreground in file order; its
    indices, mapped to C order and sorted, become the mask's `foreground`.
    The C-ordered uint8 grid is built from them only when `data` is first
    read. Past that scan the cost grows with the foreground, not with the
    grid, and the mask is never scanned again.
    """
    v = read_nifti(path)
    with _naming(path):
        stored = _binary_uint8(v.data).reshape(-1, order="F")  # file order
    fg = np.sort(_transposed_flat_index(_scan_foreground(stored), v.dims[::-1]))
    return BinaryMask3D._from_foreground(fg, v.dims, v.spacing)


def write_nifti(v: Volume3D | BinaryMask3D, path: str | Path) -> None:
    """Write a volume or mask as single-file little-endian NIfTI-1.

    A volume is written in its own dtype, uint8, int16 or float32, and a
    float64 volume as float32; any other dtype raises
    UnsupportedDatatypeError. A mask is written as uint8 by scattering
    ones at its `foreground` into a zeroed file-order buffer, so the cost
    grows with the foreground (plus one scan, if the mask's foreground
    was not found before).
    """
    if isinstance(v, BinaryMask3D):  # 0/1 by construction: no range check
        payload = np.zeros(math.prod(v.dims), dtype=np.uint8)
        payload[_transposed_flat_index(v.foreground, v.dims)] = 1
    else:
        dtype = v.data.dtype.newbyteorder("<")
        if dtype == np.float64:
            dtype = np.dtype("<f4")
        if dtype not in _CODE_BY_DTYPE:
            raise UnsupportedDatatypeError(f"unsupported volume dtype {v.data.dtype}")
        payload = v.data.astype(dtype, order="F", copy=False)

    nx, ny, nz = v.dims
    header = bytearray(NIFTI_HEADER_SIZE)
    struct.pack_into("<i", header, 0, NIFTI_HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, _CODE_BY_DTYPE[payload.dtype])
    struct.pack_into("<h", header, 72, payload.dtype.itemsize * 8)  # bitpix
    sx, sy, sz = v.spacing
    struct.pack_into("<8f", header, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, 352.0)  # vox_offset
    struct.pack_into("<f", header, 112, 0.0)  # scl_slope: stored values are final
    struct.pack_into("<f", header, 116, 0.0)  # scl_inter
    header[344:348] = NIFTI_MAGIC

    out = Path(path)
    with open(out, "wb") as f:
        f.write(bytes(header))
        f.write(b"\x00\x00\x00\x00")  # extension flag, none
        f.write(payload.ravel(order="F"))  # a view: payload is in file order

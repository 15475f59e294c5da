import struct

import numpy as np
import pytest

from wmhseg.acceptance import fuzz_cases
from wmhseg.volume_io import (
    BinaryMask3D,
    NIFTI_HEADER_SIZE,
    UnsupportedDatatypeError,
    Volume3D,
    VolumeIOError,
    read_nifti,
    read_nifti_mask,
    write_nifti,
)


def random_volume(rng, dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0)):
    return Volume3D(data=rng.normal(size=dims).astype(np.float32), spacing=spacing)


class TestVolumeTypes:
    def test_dims_and_voxel_volume(self):
        v = Volume3D(data=np.zeros((4, 5, 6)), spacing=(1.0, 2.0, 3.0))
        assert v.dims == (4, 5, 6)
        assert v.voxel_volume_mm3() == 6.0

    def test_spacing_must_be_positive(self):
        with pytest.raises(ValueError):
            Volume3D(data=np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            Volume3D(data=np.zeros((2, 2, 2)), spacing=(1.0, np.inf, 1.0))

    def test_mask_values_restricted(self):
        for bad in (2, -1, np.nan, 0.7, np.uint8(2), np.int16(257)):
            data = np.zeros((2, 2, 2), dtype=np.asarray(bad).dtype)
            data[1, 1, 1] = bad
            with pytest.raises(ValueError):
                BinaryMask3D(data=data, spacing=(1, 1, 1))
        m = BinaryMask3D(data=np.eye(2)[..., None], spacing=(1, 1, 1))
        assert m.voxel_count() == 2

    @pytest.mark.parametrize("cls", [Volume3D, BinaryMask3D])
    def test_grid_needs_every_axis(self, cls):
        with pytest.raises(ValueError):
            cls(data=np.zeros((0, 4, 4)), spacing=(1, 1, 1))
        with pytest.raises(ValueError):
            cls(data=np.zeros((4, 4)), spacing=(1, 1, 1))

    @pytest.mark.parametrize("cls", [Volume3D, BinaryMask3D])
    def test_grid_needs_three_spacings(self, cls):
        for spacing in ((1, 1), (1, 1, 1, 1)):
            with pytest.raises(ValueError):
                cls(data=np.zeros((2, 2, 2)), spacing=spacing)


class TestNifti:
    def test_round_trip_float32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        v = random_volume(rng)
        path = tmp_path / "v.nii"
        write_nifti(v, path)
        back = read_nifti(path)
        assert back.dims == v.dims
        assert back.spacing == v.spacing
        assert np.array_equal(back.data, v.data)

    def test_pixdim_spacing(self, tmp_path):
        v = Volume3D(data=np.zeros((4, 4, 4), np.float32), spacing=(1.0, 1.0, 3.0))
        path = tmp_path / "v.nii"
        write_nifti(v, path)
        assert read_nifti(path).spacing == (1.0, 1.0, 3.0)

    def test_mask_round_trip_uint8(self, tmp_path):
        rng = np.random.default_rng(1)
        m = BinaryMask3D(
            data=(rng.random((6, 6, 6)) < 0.3).astype(np.uint8), spacing=(1, 1, 1)
        )
        path = tmp_path / "m.nii"
        write_nifti(m, path)
        back = read_nifti_mask(path)
        assert np.array_equal(back.data, m.data)

    @pytest.mark.parametrize("datatype,value", [("float32", 0.7), ("int16", 257)])
    def test_mask_reader_checks_stored_values(self, tmp_path, datatype, value):
        # a uint8 cast first would read 0.7 as 0 and 257 as 1
        data = np.zeros((3, 3, 3), dtype=datatype)
        data[1, 1, 1] = value
        path = tmp_path / "m.nii"
        write_nifti(Volume3D(data=data, spacing=(1, 1, 1)), path)
        with pytest.raises(ValueError) as info:
            read_nifti_mask(path)
        assert str(info.value) == f"{path}: mask values must be exactly 0 or 1"

    def test_mask_reader_applies_scl_slope(self, tmp_path):
        data = np.zeros((3, 3, 3), dtype=np.uint8)
        data[0, 1, 2] = 2
        path = tmp_path / "m.nii"
        write_nifti(Volume3D(data=data, spacing=(1, 1, 1)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 112, 0.5)  # scl_slope
        path.write_bytes(bytes(raw))
        back = read_nifti_mask(path)
        assert back.data.dtype == np.uint8
        assert np.array_equal(back.data, (data > 0).astype(np.uint8))

    def test_int16_values_preserved(self, tmp_path):
        v = Volume3D(
            data=np.arange(-8, 19, dtype=np.int16).reshape(3, 3, 3),
            spacing=(1, 1, 1),
        )
        path = tmp_path / "v.nii"
        write_nifti(v, path)
        assert np.array_equal(read_nifti(path).data, v.data)

    def test_scl_slope_applied(self, tmp_path):
        v = Volume3D(data=np.ones((2, 2, 2), np.float32), spacing=(1, 1, 1))
        path = tmp_path / "v.nii"
        write_nifti(v, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 112, 2.0)  # scl_slope
        struct.pack_into("<f", raw, 116, 0.5)  # scl_inter
        path.write_bytes(bytes(raw))
        assert np.allclose(read_nifti(path).data, 2.5)

    def test_big_endian_read(self, tmp_path):
        # byte-swap an entire little-endian file's header and payload
        v = Volume3D(data=np.zeros((2, 2, 2), np.float32), spacing=(1, 2, 3))
        path = tmp_path / "v.nii"
        write_nifti(v, path)
        raw = bytearray(path.read_bytes())
        be = bytearray(raw)
        struct.pack_into(">i", be, 0, NIFTI_HEADER_SIZE)
        struct.pack_into(">8h", be, 40, 3, 2, 2, 2, 1, 1, 1, 1)
        struct.pack_into(">h", be, 70, 16)
        struct.pack_into(">h", be, 72, 32)
        struct.pack_into(">8f", be, 76, 1.0, 1.0, 2.0, 3.0, 0, 0, 0, 0)
        struct.pack_into(">f", be, 108, 352.0)
        struct.pack_into(">f", be, 112, 0.0)
        struct.pack_into(">f", be, 116, 0.0)
        path.write_bytes(bytes(be))
        back = read_nifti(path)
        assert back.spacing == (1.0, 2.0, 3.0)
        assert np.array_equal(back.data, v.data)


def big_endian_file(path, data: np.ndarray, code: int) -> None:
    """A big-endian NIfTI file holding `data` with datatype `code`."""
    be = bytearray(352)
    struct.pack_into(">i", be, 0, NIFTI_HEADER_SIZE)
    struct.pack_into(">8h", be, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into(">h", be, 70, code)
    struct.pack_into(">h", be, 72, data.dtype.itemsize * 8)
    struct.pack_into(">8f", be, 76, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
    struct.pack_into(">f", be, 108, 352.0)
    be[344:348] = b"n+1\x00"
    path.write_bytes(bytes(be) + data.astype(data.dtype.newbyteorder(">")).tobytes(order="F"))


class TestStoredDtype:
    """A volume keeps the dtype its file stores, and is written in its own."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
    def test_read_returns_the_stored_dtype_as_a_file_order_view(self, tmp_path, dtype):
        data = np.random.default_rng(4).integers(0, 100, size=(3, 4, 5)).astype(dtype)
        path = tmp_path / "v.nii"
        write_nifti(Volume3D(data=data, spacing=(1, 1, 1)), path)
        back = read_nifti(path).data
        assert back.dtype == dtype
        assert back.flags.f_contiguous and not back.flags.writeable
        assert np.array_equal(back, data)

    @pytest.mark.parametrize("dtype,code", [(np.int16, 4), (np.float32, 16)])
    def test_big_endian_values_intact(self, tmp_path, dtype, code):
        data = (np.arange(60).reshape(3, 4, 5) * 37 - 900).astype(dtype)
        path = tmp_path / "be.nii"
        big_endian_file(path, data, code)
        back = read_nifti(path)
        assert back.data.dtype.newbyteorder("=") == dtype
        assert np.array_equal(back.data, data)
        # written back little-endian, in the same dtype and values
        write_nifti(back, tmp_path / "le.nii")
        again = read_nifti(tmp_path / "le.nii").data
        assert again.dtype == dtype and np.array_equal(again, data)

    def test_only_a_scaled_file_reads_as_float64(self, tmp_path):
        path = tmp_path / "v.nii"
        write_nifti(Volume3D(data=np.full((2, 3, 4), 3, np.int16), spacing=(1, 1, 1)), path)
        assert read_nifti(path).data.dtype == np.int16
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 112, 0.5)  # scl_slope
        path.write_bytes(bytes(raw))
        back = read_nifti(path).data
        assert back.dtype == np.float64 and back.flags.c_contiguous
        assert np.array_equal(back, np.full((2, 3, 4), 1.5))

    @pytest.mark.parametrize("dtype,code", [(np.uint8, 2), (np.int16, 4), (np.float32, 16)])
    def test_write_keeps_the_volume_dtype(self, tmp_path, dtype, code):
        data = np.arange(24).reshape(2, 3, 4).astype(dtype)
        path = tmp_path / "v.nii"
        write_nifti(Volume3D(data=data, spacing=(1, 1, 1)), path)
        raw = path.read_bytes()
        assert struct.unpack_from("<2h", raw, 70) == (code, np.dtype(dtype).itemsize * 8)
        assert raw[352:] == data.tobytes(order="F")

    def test_write_stores_float64_as_float32(self, tmp_path):
        data = np.random.default_rng(5).normal(size=(3, 4, 5))
        path = tmp_path / "v.nii"
        write_nifti(Volume3D(data=data, spacing=(1, 1, 1)), path)
        back = read_nifti(path).data
        assert back.dtype == np.float32
        assert np.array_equal(back, data.astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.int64, bool])
    def test_write_rejects_other_dtypes(self, tmp_path, dtype):
        path = tmp_path / "v.nii"
        with pytest.raises(UnsupportedDatatypeError):
            write_nifti(Volume3D(data=np.ones((2, 2, 2), dtype), spacing=(1, 1, 1)), path)
        assert not path.exists()


def oracle_masks() -> list[np.ndarray]:
    """Odd shapes, empty and full masks, and random densities."""
    rng = np.random.default_rng(7)
    out = []
    for shape in ((1, 7, 9), (8, 1, 1), (1, 1, 1), (5, 6, 7)):
        out += [np.zeros(shape, np.uint8), np.ones(shape, np.uint8)]
        for density in (0.001, 0.05, 0.5, 0.9):
            out.append((rng.random(shape) < density).astype(np.uint8))
    for density in (0.001, 0.2):
        out.append((rng.random((37, 29, 11)) < density).astype(np.uint8))
    return out


def strided_view(d: np.ndarray) -> np.ndarray:
    """A non-contiguous view holding the values of `d`."""
    big = np.zeros((2 * d.shape[0], d.shape[1], 3 * d.shape[2]), dtype=d.dtype)
    big[::2, :, ::3] = d
    return big[::2, :, ::3]


class TestForeground:
    """A mask's foreground is the sorted C-order flat indices of its ones."""

    @pytest.mark.parametrize("layout", [
        "C", "F", "strided", "bool", "float64", "float32-F"])
    def test_matches_flatnonzero(self, layout):
        make = {
            "C": np.ascontiguousarray,
            "F": np.asfortranarray,
            "strided": strided_view,
            "bool": lambda d: d.astype(bool),
            "float64": lambda d: d.astype(np.float64),
            "float32-F": lambda d: np.asfortranarray(d, dtype=np.float32),
        }[layout]
        for d in oracle_masks():
            m = BinaryMask3D(data=make(d), spacing=(1, 2, 3))
            fg = m.foreground
            assert np.array_equal(fg, np.flatnonzero(d.view(bool)))
            assert fg is m.foreground  # found once, then kept
            assert m.voxel_count() == fg.size == np.count_nonzero(d)


class TestMaskIO:
    """Masks move between C order and file order by their foreground."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_write_bytes_match_fortran_oracle(self, tmp_path, layout):
        for d in oracle_masks():
            path = tmp_path / "m.nii"
            write_nifti(BinaryMask3D(data=np.asarray(d, order=layout), spacing=(1, 2, 3)), path)
            raw = path.read_bytes()
            assert raw[352:] == np.asfortranarray(d).tobytes(order="F")
            assert len(raw) == 352 + d.size

    def test_read_back_is_c_ordered_writeable_uint8(self, tmp_path):
        for d in oracle_masks():
            path = tmp_path / "m.nii"
            write_nifti(BinaryMask3D(data=d, spacing=(1, 2, 3)), path)
            back = read_nifti_mask(path)
            assert back.spacing == (1.0, 2.0, 3.0)
            self._check_read_back(back, d)

    @staticmethod
    def _check_read_back(back, d):
        assert back.data.dtype == np.uint8
        assert back.data.flags.c_contiguous and back.data.flags.writeable
        assert np.array_equal(back.data, d)
        # the read hands its foreground over, equal to a fresh scan
        assert back._foreground is not None
        assert np.array_equal(back._foreground, np.flatnonzero(back.data.view(bool)))

    @staticmethod
    def _mask(shape=(5, 6, 7)):
        return (np.random.default_rng(3).random(shape) < 0.3).astype(np.uint8)

    def test_big_endian_int16_mask(self, tmp_path):
        d = self._mask()
        path = tmp_path / "m.nii"
        write_nifti(Volume3D(data=d.astype(np.int16), spacing=(1, 1, 1)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into(">i", raw, 0, NIFTI_HEADER_SIZE)
        struct.pack_into(">8h", raw, 40, 3, *d.shape, 1, 1, 1, 1)
        struct.pack_into(">h", raw, 70, 4)
        struct.pack_into(">h", raw, 72, 16)
        struct.pack_into(">8f", raw, 76, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
        struct.pack_into(">f", raw, 108, 352.0)
        raw[352:] = np.asfortranarray(d).astype(">i2").tobytes(order="F")
        path.write_bytes(bytes(raw))
        self._check_read_back(read_nifti_mask(path), d)

    def test_float32_mask(self, tmp_path):
        d = self._mask()
        path = tmp_path / "m.nii"
        write_nifti(Volume3D(data=d.astype(np.float32), spacing=(1, 1, 1)), path)
        self._check_read_back(read_nifti_mask(path), d)

    def test_scl_slope_scaled_mask(self, tmp_path):
        d = self._mask()
        path = tmp_path / "m.nii"
        write_nifti(Volume3D(data=4 * d, spacing=(1, 1, 1)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 112, 0.25)  # scl_slope
        path.write_bytes(bytes(raw))
        self._check_read_back(read_nifti_mask(path), d)


class TestFuzz:
    @pytest.mark.parametrize("name,data,exc", fuzz_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_malformed_rejected_with_typed_error(self, tmp_path, name, data, exc):
        path = tmp_path / "bad.nii"
        path.write_bytes(data)
        with pytest.raises(exc) as info:
            read_nifti(path)
        # the subclass is kept, and the message names the file once
        assert type(info.value) is exc
        assert str(info.value).startswith(f"{path}: ") and str(info.value).count(str(path)) == 1
        with pytest.raises(exc) as info:
            read_nifti_mask(path)
        assert str(info.value).count(str(path)) == 1

    def test_fuzz_corpus_is_large_enough(self):
        assert len(fuzz_cases()) >= 20

    def test_all_fuzz_errors_are_volume_io_errors(self, tmp_path):
        for name, data, _ in fuzz_cases():
            path = tmp_path / "bad.nii"
            path.write_bytes(data)
            with pytest.raises(VolumeIOError):
                read_nifti(path)

import struct

import numpy as np
import pytest

from wmhseg.volume_io import (
    BinaryMask3D,
    CompressedStreamError,
    DimensionError,
    MalformedHeaderError,
    NIFTI_HEADER_SIZE,
    TruncatedPayloadError,
    UnsupportedDatatypeError,
    Volume3D,
    VolumeIOError,
    WrongMagicError,
    read_nifti,
    read_nifti_mask,
    write_nifti,
)


def random_volume(rng, dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0)):
    # float32-representable values so float32 round trips are bit-exact
    data = rng.normal(size=dims).astype(np.float32).astype(np.float64)
    return Volume3D(data=data, spacing=spacing)


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
        write_nifti(v, path, "float32")
        back = read_nifti(path)
        assert back.dims == v.dims
        assert back.spacing == v.spacing
        assert np.array_equal(back.data, v.data)

    def test_pixdim_spacing(self, tmp_path):
        v = Volume3D(data=np.zeros((4, 4, 4), np.float32), spacing=(1.0, 1.0, 3.0))
        path = tmp_path / "v.nii"
        write_nifti(v, path, "float32")
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
        data = np.zeros((3, 3, 3))
        data[1, 1, 1] = value
        path = tmp_path / "m.nii"
        write_nifti(Volume3D(data=data, spacing=(1, 1, 1)), path, datatype)
        with pytest.raises(ValueError):
            read_nifti_mask(path)

    def test_mask_reader_applies_scl_slope(self, tmp_path):
        data = np.zeros((3, 3, 3))
        data[0, 1, 2] = 2.0
        path = tmp_path / "m.nii"
        write_nifti(Volume3D(data=data, spacing=(1, 1, 1)), path, "uint8")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 112, 0.5)  # scl_slope
        path.write_bytes(bytes(raw))
        back = read_nifti_mask(path)
        assert back.data.dtype == np.uint8
        assert np.array_equal(back.data, (data > 0).astype(np.uint8))

    def test_int16_values_preserved(self, tmp_path):
        v = Volume3D(
            data=np.arange(-8, 19).reshape(3, 3, 3).astype(np.float64),
            spacing=(1, 1, 1),
        )
        path = tmp_path / "v.nii"
        write_nifti(v, path, "int16")
        assert np.array_equal(read_nifti(path).data, v.data)

    def test_uint8_overflow_rejected(self, tmp_path):
        v = Volume3D(data=np.full((2, 2, 2), 300.0), spacing=(1, 1, 1))
        with pytest.raises(OverflowError):
            write_nifti(v, tmp_path / "v.nii", "uint8")

    def test_scl_slope_applied(self, tmp_path):
        v = Volume3D(data=np.ones((2, 2, 2), np.float32), spacing=(1, 1, 1))
        path = tmp_path / "v.nii"
        write_nifti(v, path, "float32")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 112, 2.0)  # scl_slope
        struct.pack_into("<f", raw, 116, 0.5)  # scl_inter
        path.write_bytes(bytes(raw))
        assert np.allclose(read_nifti(path).data, 2.5)

    def test_big_endian_read(self, tmp_path):
        # byte-swap an entire little-endian file's header and payload
        v = Volume3D(data=np.zeros((2, 2, 2), np.float32), spacing=(1, 2, 3))
        path = tmp_path / "v.nii"
        write_nifti(v, path, "float32")
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
        write_nifti(Volume3D(data=d, spacing=(1, 1, 1)), path, "int16")
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
        write_nifti(Volume3D(data=d, spacing=(1, 1, 1)), path, "float32")
        self._check_read_back(read_nifti_mask(path), d)

    def test_scl_slope_scaled_mask(self, tmp_path):
        d = self._mask()
        path = tmp_path / "m.nii"
        write_nifti(Volume3D(data=4 * d, spacing=(1, 1, 1)), path, "uint8")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 112, 0.25)  # scl_slope
        path.write_bytes(bytes(raw))
        self._check_read_back(read_nifti_mask(path), d)


def _valid_file_bytes() -> bytearray:
    v = Volume3D(
        data=np.arange(64, dtype=np.float32).reshape(4, 4, 4), spacing=(1, 1, 3)
    )
    import io, tempfile, os

    fd, name = tempfile.mkstemp(suffix=".nii")
    os.close(fd)
    write_nifti(v, name, "float32")
    with open(name, "rb") as f:
        raw = bytearray(f.read())
    os.unlink(name)
    return raw


def _mutate(raw: bytearray, *edits) -> bytes:
    out = bytearray(raw)
    for fmt, offset, values in edits:
        struct.pack_into(fmt, out, offset, *values)
    return bytes(out)


def fuzz_cases() -> list[tuple[str, bytes, type]]:
    raw = _valid_file_bytes()
    cases: list[tuple[str, bytes, type]] = []
    # truncated headers at assorted lengths
    for n in (0, 1, 40, 200, 347):
        cases.append((f"truncated_header_{n}", bytes(raw[:n]), MalformedHeaderError))
    # sizeof_hdr wrong
    for bad in (347, 349, 0, -1):
        cases.append(
            (f"sizeof_{bad}", _mutate(raw, ("<i", 0, (bad,))), MalformedHeaderError)
        )
    # wrong magic
    for magic in (b"ni1\x00", b"n+2\x00", b"\x00\x00\x00\x00"):
        bad = bytearray(raw)
        bad[344:348] = magic
        cases.append((f"magic_{magic!r}", bytes(bad), WrongMagicError))
    # gzip stream
    import gzip

    cases.append(("gzip", gzip.compress(bytes(raw)), CompressedStreamError))
    # unsupported datatypes (float64=64, complex=32, rgb=128)
    for code in (64, 32, 128, 1):
        cases.append(
            (f"datatype_{code}", _mutate(raw, ("<h", 70, (code,))),
             UnsupportedDatatypeError)
        )
    # more than 3 nontrivial axes
    cases.append(
        ("dim4", _mutate(raw, ("<8h", 40, (4, 4, 4, 2, 2, 1, 1, 1))),
         DimensionError)
    )
    cases.append(
        ("dim5", _mutate(raw, ("<8h", 40, (5, 4, 4, 1, 2, 2, 1, 1))),
         DimensionError)
    )
    cases.append(
        ("dim0_zero", _mutate(raw, ("<8h", 40, (0, 4, 4, 4, 1, 1, 1, 1))),
         DimensionError)
    )
    # truncated payloads
    for cut in (349, 352, len(raw) - 1):
        cases.append((f"payload_{cut}", bytes(raw[:cut]), TruncatedPayloadError))
    # payload offset past the end of the file
    cases.append(
        ("vox_offset_past_end", _mutate(raw, ("<f", 108, (len(raw) + 64.0,))),
         TruncatedPayloadError)
    )
    # nonpositive / nonfinite pixdim
    cases.append(
        ("pixdim_zero", _mutate(raw, ("<f", 80, (0.0,))), MalformedHeaderError)
    )
    cases.append(
        ("pixdim_nan", _mutate(raw, ("<f", 84, (float("nan"),))),
         MalformedHeaderError)
    )
    # bad vox_offset
    cases.append(
        ("vox_offset", _mutate(raw, ("<f", 108, (10.0,))), MalformedHeaderError)
    )
    # non-finite scl_slope (offset 112) or scl_inter (offset 116)
    for offset in (112, 116):
        for value in (float("nan"), float("inf")):
            cases.append(
                (f"scl_{offset}_{value}", _mutate(raw, ("<f", offset, (value,))),
                 MalformedHeaderError)
            )
    return cases


class TestFuzz:
    @pytest.mark.parametrize("name,data,exc", fuzz_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_malformed_rejected_with_typed_error(self, tmp_path, name, data, exc):
        path = tmp_path / "bad.nii"
        path.write_bytes(data)
        with pytest.raises(exc):
            read_nifti(path)

    def test_fuzz_corpus_is_large_enough(self):
        assert len(fuzz_cases()) >= 20

    def test_all_fuzz_errors_are_volume_io_errors(self, tmp_path):
        for name, data, _ in fuzz_cases():
            path = tmp_path / "bad.nii"
            path.write_bytes(data)
            with pytest.raises(VolumeIOError):
                read_nifti(path)

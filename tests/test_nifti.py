import re
import struct
import tracemalloc

import numpy as np
import pytest

from ivimlab import nifti
from ivimlab.grid import BinaryMask, DwiSeries, VoxelSpacing, Volume3D

SP = VoxelSpacing(7.2, 2.07, 2.07)


def rand_f32(rng, dims):
    return rng.random(dims).astype(np.float32).astype(np.float64)


class TestRoundTrip:
    def test_volume_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vol = Volume3D(rand_f32(rng, (4, 4, 4)), SP)
        path = tmp_path / "v.nii"
        nifti.write_volume(vol, path)
        back = nifti.read_volume(path)
        assert np.array_equal(back.data, vol.data)

    def test_mask_round_trip_counts(self, tmp_path):
        data = np.zeros((3, 3, 3), dtype=bool)
        data[0, 0, 0] = data[1, 2, 0] = data[2, 2, 2] = data[0, 1, 2] = data[1, 1, 1] = True
        mask = BinaryMask(data, SP)
        path = tmp_path / "m.nii"
        nifti.write_mask(mask, path)
        raw = path.read_bytes()
        assert sum(raw[nifti.MIN_VOX_OFFSET:]) == 5  # uint8 {0,1} data section
        back = nifti.read_mask(path)
        assert np.array_equal(back.data, data)

    def test_spacing_survives_float32(self, tmp_path):
        vol = Volume3D(np.zeros((2, 2, 2)), SP)
        path = tmp_path / "v.nii"
        nifti.write_volume(vol, path)
        back = nifti.read_volume(path)
        for got, want in zip(back.spacing.as_tuple(), SP.as_tuple()):
            assert got == pytest.approx(want, rel=1e-7)  # float32 pixdim rounding

    def test_series_round_trip_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(1)
        series = DwiSeries(rand_f32(rng, (3, 2, 3, 4)), SP, np.array([0.0, 100.0, 600.0]))
        path = tmp_path / "s.nii"
        nifti.write_series(series, path)
        back = nifti.read_volume(path, tmp_path / "s.bval")
        assert isinstance(back, DwiSeries)
        assert list(back.bvalues) == [0.0, 100.0, 600.0]
        assert np.array_equal(back.data, series.data)

    def test_series_b_values_read_back_exactly(self, tmp_path):
        bvals = [0.0, 10.0, 600.0, 0.1, 1000.123, 123456.7, 1 / 3]
        series = DwiSeries(np.zeros((7, 2, 2, 2)), SP, np.array(bvals))
        nifti.write_series(series, tmp_path / "s.nii")
        # whole b-values keep their text; the rest read back to the same float
        assert (tmp_path / "s.bval").read_text().startswith("0 10 600 0.1 1000.123 123456.7 0.3")
        assert list(nifti.read_volume(tmp_path / "s.nii", tmp_path / "s.bval").bvalues) == bvals

    def test_4d_without_sidecar_fails(self, tmp_path):
        # the .bval that write_series leaves beside the image is not looked for
        series = DwiSeries(np.zeros((2, 2, 2, 2)), SP, np.array([0.0, 100.0]))
        path = tmp_path / "s.nii"
        nifti.write_series(series, path)
        assert (tmp_path / "s.bval").exists()
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: a 4D image needs a "
                                             "bval_path$"):
            nifti.read_volume(path)

    def test_3d_image_with_bval_path_fails(self, tmp_path):
        path = tmp_path / "v.nii"
        nifti.write_volume(Volume3D(np.zeros((2, 2, 2)), SP), path)
        (tmp_path / "v.bval").write_text("0 100\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: expected a 4D series$"):
            nifti.read_volume(path, tmp_path / "v.bval")


def write_minimal(path, *, sizeof_hdr=348, magic=b"n+1\x00", datatype=16, bitpix=32,
                  dim=(3, 2, 2, 2, 1, 1, 1, 1), vox_offset=352.0,
                  scl_slope=1.0, scl_inter=0.0, payload=None):
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, sizeof_hdr)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<hh", hdr, 70, datatype, bitpix)
    struct.pack_into("<8f", hdr, 76, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", hdr, 108, vox_offset)
    struct.pack_into("<2f", hdr, 112, scl_slope, scl_inter)
    struct.pack_into("<4s", hdr, 344, magic)
    if payload is None:
        count = int(np.prod([d for d in dim[1 : 1 + dim[0]]]))
        payload = np.zeros(count, dtype=np.float32).tobytes()
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + payload)


class TestHeaderValidation:
    def test_wrong_size_field(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, sizeof_hdr=349)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: sizeof_hdr is 349, "):
            nifti.read_volume(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, magic=b"ni1\x00")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: magic is "):
            nifti.read_volume(p)

    def test_unsupported_datatype(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, datatype=8, bitpix=32)  # int32 is outside the subset
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: unsupported datatype "
                                             "code 8$"):
            nifti.read_volume(p)

    def test_inconsistent_bitpix(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, datatype=16, bitpix=64)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: bitpix 64 inconsistent "
                                             "with datatype 16$"):
            nifti.read_volume(p)

    def test_truncated_data_section(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, payload=np.zeros(7, dtype=np.float32).tobytes())
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: data section truncated "):
            nifti.read_volume(p)

    def test_bad_vox_offset(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, vox_offset=100.0)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: vox_offset 100.0 is not "):
            nifti.read_volume(p)

    @pytest.mark.parametrize("vox_offset", [352.5, 353.5, float("inf"), float("nan")])
    def test_vox_offset_that_is_not_a_whole_byte_count(self, tmp_path, vox_offset):
        # a truncated 353.5 would read the float32 payload one byte off
        p = tmp_path / "bad.nii"
        write_minimal(p, vox_offset=vox_offset, payload=np.ones(9, dtype=np.float32).tobytes())
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: vox_offset {vox_offset} "
                                             "is not "):
            nifti.read_volume(p)

    def test_scl_slope_applied(self, tmp_path):
        p = tmp_path / "scaled.nii"
        payload = np.full(8, 3, dtype=np.int16).tobytes()
        write_minimal(p, datatype=4, bitpix=16, scl_slope=2.0, scl_inter=1.0,
                      payload=payload)
        vol = nifti.read_volume(p)
        assert np.all(vol.data == 7.0)
        # a non-finite intercept is read as 0, like a non-finite slope
        for inter in (float("nan"), float("inf"), float("-inf")):
            write_minimal(p, datatype=4, bitpix=16, scl_slope=2.0, scl_inter=inter,
                          payload=payload)
            vol = nifti.read_volume(p)
            assert np.all(vol.data == 6.0), inter

    def test_zero_slope_means_unscaled(self, tmp_path):
        # a non-finite slope is no more usable than 0: both mean "unscaled"
        p = tmp_path / "raw.nii"
        payload = np.full(8, 3, dtype=np.int16).tobytes()
        for slope in (0.0, float("nan"), float("inf"), float("-inf")):
            write_minimal(p, datatype=4, bitpix=16, scl_slope=slope, scl_inter=9.0,
                          payload=payload)
            vol = nifti.read_volume(p)
            assert np.all(vol.data == 3.0), slope

    def test_unit_slope_keeps_the_stored_values(self, tmp_path):
        # slope 1 and intercept 0 are not applied, so a stored -0.0 keeps its sign
        p = tmp_path / "unit.nii"
        raw = np.array([-0.0, 0.0, -1.5, 2.25, 1e-30, -3e8, 7.0, -0.0], dtype=np.float32)
        write_minimal(p, payload=raw.tobytes())
        assert nifti.read_volume(p).data.tobytes() == raw.reshape(2, 2, 2).astype(
            np.float64).tobytes()


class TestFrameWiseRead:
    @pytest.mark.parametrize("datatype, bitpix, dtype", [
        (2, 8, np.uint8), (4, 16, np.int16), (16, 32, np.float32), (64, 64, np.float64),
    ], ids=["uint8", "int16", "float32", "float64"])
    def test_4d_read_equals_the_whole_data_section_scaled(self, tmp_path, datatype, bitpix,
                                                          dtype):
        rng = np.random.default_rng(datatype)
        raw = (rng.random(5 * 3 * 4 * 2) * 100).astype(dtype)
        p = tmp_path / "s.nii"
        write_minimal(p, datatype=datatype, bitpix=bitpix, dim=(4, 2, 4, 3, 5, 1, 1, 1),
                      scl_slope=0.5, scl_inter=-3.0, payload=raw.tobytes() + b"\x07" * 3)
        (tmp_path / "s.bval").write_text("0 100 200 400 600")
        want = raw.reshape(5, 3, 4, 2).astype(np.float64)
        want *= np.float32(0.5)
        want += np.float32(-3.0)
        assert nifti.read_volume(p, tmp_path / "s.bval").data.tobytes() == want.tobytes()

    def test_peak_memory_is_the_array_plus_one_frame(self, tmp_path):
        rng = np.random.default_rng(2)
        series = DwiSeries(rand_f32(rng, (8, 8, 32, 32)), SP,
                           np.array([0.0, 0.0, 10.0, 50.0, 100.0, 200.0, 400.0, 600.0]))
        p = tmp_path / "s.nii"
        nifti.write_series(series, p)
        tracemalloc.start()
        try:
            back = nifti.read_volume(p, tmp_path / "s.bval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, series.data)
        assert peak <= back.data.nbytes + back.data[0].nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unscaled_float_series_is_read_as_stored_in_one_piece(self, tmp_path, dtype):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(8, 8, 32, 32)).astype(dtype)
        p = tmp_path / "s.nii"
        write_minimal(p, datatype={np.float32: 16, np.float64: 64}[dtype],
                      bitpix=8 * raw.itemsize, dim=(4, 32, 32, 8, 8, 1, 1, 1),
                      payload=raw.tobytes())
        (tmp_path / "s.bval").write_text("0 0 10 50 100 200 400 600")
        tracemalloc.start()
        try:
            back = nifti.read_volume(p, tmp_path / "s.bval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.data.dtype == dtype
        assert back.data.tobytes() == raw.tobytes()
        # the file's bytes once, plus 16 KiB, under one frame of either type: the
        # frame-wise float64 read peaks at least one whole frame higher
        assert peak <= raw.nbytes + 16384, peak - raw.nbytes

    @pytest.mark.parametrize("datatype, bitpix, dtype", [
        (2, 8, np.uint8), (4, 16, np.int16),
    ], ids=["uint8", "int16"])
    def test_unscaled_integer_series_reads_as_float64(self, tmp_path, datatype, bitpix, dtype):
        # scaled series of every type: test_4d_read_equals_the_whole_data_section_scaled
        raw = np.arange(2 * 3 * 4 * 2).astype(dtype)
        p = tmp_path / "s.nii"
        write_minimal(p, datatype=datatype, bitpix=bitpix, dim=(4, 2, 4, 3, 2, 1, 1, 1),
                      payload=raw.tobytes())
        (tmp_path / "s.bval").write_text("0 100")
        back = nifti.read_volume(p, tmp_path / "s.bval")
        assert back.data.tobytes() == raw.reshape(2, 3, 4, 2).astype(np.float64).tobytes()


class TestFrameWiseWrite:
    def test_data_section_is_the_array_cast_whole(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(0.0, 1e3, (3, 2, 4, 5))
        data[0, 1, 2, 3], data[2, 0, 0, 0] = np.nan, -np.inf
        mask = BinaryMask(data[0] > 0, SP)
        pad = bytes(nifti.MIN_VOX_OFFSET - nifti.HEADER_SIZE)
        pixdim = (SP.dx, SP.dy, SP.dz)
        cases = [
            (nifti.write_series, DwiSeries(data, SP, np.array([0.0, 100.0, 600.0])),
             (5, 4, 2, 3), 16, data.astype(np.float32)),
            (nifti.write_volume, Volume3D(data[1], SP), (5, 4, 2), 16,
             data[1].astype(np.float32)),
            (nifti.write_mask, mask, (5, 4, 2), 2, mask.data.astype(np.uint8)),
        ]
        for write, image, shape_xyz, code, body in cases:
            p = tmp_path / f"{write.__name__}.nii"
            write(image, p)
            assert p.read_bytes() == (bytes(nifti._pack_header(shape_xyz, pixdim, code))
                                      + pad + body.tobytes()), write.__name__

    def test_peak_memory_is_at_most_two_float32_frames(self, tmp_path):
        rng = np.random.default_rng(4)
        series = DwiSeries(rng.random((6, 8, 32, 32)), SP,
                           np.array([0.0, 0.0, 10.0, 100.0, 200.0, 600.0]))
        tracemalloc.start()
        try:
            nifti.write_series(series, tmp_path / "s.nii")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        frame = series.data[0].astype(np.float32).nbytes
        assert peak <= 2 * frame, peak / frame

    @pytest.mark.parametrize("write, image", [
        (nifti.write_volume, Volume3D(np.array([1e39, 1.0, np.nan, np.inf]).reshape(1, 2, 2), SP)),
        (nifti.write_series, DwiSeries(np.array([1.0, 2.0, -1e39, 3.0, np.nan, -np.inf])
                                       .reshape(3, 1, 1, 2), SP, np.array([0.0, 10.0, 600.0]))),
    ], ids=["volume", "series"])
    def test_finite_value_beyond_float32_fails_and_leaves_no_file(self, tmp_path, write,
                                                                   image):
        p = tmp_path / "out" / "x.nii"
        p.parent.mkdir()
        with pytest.raises(ValueError, match=f"^{p}: finite values lie beyond the float32 "
                                             "range$"):
            write(image, p)
        assert list(p.parent.iterdir()) == []

    def test_os_error_names_the_file(self, tmp_path):
        p = tmp_path / "absent" / "v.nii"
        with pytest.raises(OSError, match=f"^failed writing {p}: "):
            nifti.write_volume(Volume3D(np.zeros((1, 1, 1)), SP), p)

    def test_largest_float32_and_non_finite_values_are_written(self, tmp_path):
        big = float(np.finfo(np.float32).max)
        data = np.array([big, -big, np.nan, np.inf, -np.inf, 0.0, 1e-50, 1.0]).reshape(2, 2, 2)
        p = tmp_path / "v.nii"
        nifti.write_volume(Volume3D(data, SP), p)
        assert nifti.read_volume(p).data.tobytes() == data.astype(np.float32).astype(
            np.float64).tobytes()


class TestReadMask:
    def test_non_finite_values_rejected_with_file_and_count(self, tmp_path):
        data = np.zeros((2, 2, 2))
        data[1, 1, 1] = 1.0
        data[0, 0, 0] = np.nan
        p = tmp_path / "m.nii"
        nifti.write_volume(Volume3D(data.copy(), SP), p)
        with pytest.raises(ValueError, match=f"^{p}: 1 non-finite mask values$"):
            nifti.read_mask(p)
        data[0, 1, 0], data[1, 0, 1] = np.inf, -np.inf
        nifti.write_volume(Volume3D(data.copy(), SP), p)
        with pytest.raises(ValueError, match=f"^{p}: 3 non-finite mask values$"):
            nifti.read_mask(p)

    def test_float_mask_thresholds_at_one_half(self, tmp_path):
        data = np.array([0.0, 0.5, 0.51, 2.0, -1.0, 1.0, 0.49, 1e-30]).reshape(2, 2, 2)
        p = tmp_path / "m.nii"
        nifti.write_volume(Volume3D(data, SP), p)
        assert np.array_equal(nifti.read_mask(p).data, data > 0.5)


    @pytest.mark.parametrize("datatype, bitpix, dtype", [
        (2, 8, np.uint8), (4, 16, np.int16), (16, 32, np.float32), (64, 64, np.float64),
    ], ids=["uint8", "int16", "float32", "float64"])
    @pytest.mark.parametrize("slope, inter", [
        (1.0, 0.0), (0.0, 9.0), (float("nan"), 0.0), (2.0, -1.0), (-0.5, 0.75),
        (0.25, float("nan")), (3.0, float("-inf")),
    ], ids=["unscaled", "zero slope", "nan slope", "scaled", "negative slope",
            "nan intercept", "infinite intercept"])
    def test_equals_the_volume_read_thresholded(self, tmp_path, datatype, bitpix, dtype,
                                                slope, inter):
        # stored values on both sides of 0.5 and of every scaled threshold, with each
        # datatype's extremes
        rng = np.random.default_rng(datatype)
        if np.dtype(dtype).kind == "f":
            raw = np.concatenate([[0.0, 0.5, np.nextafter(np.float32(0.5), 1), -0.0, -1.0,
                                   0.49, 1.0, 0.25, 0.75, 2.0, np.finfo(np.float32).max],
                                  rng.uniform(-4, 4, 49)]).astype(dtype)
        else:
            info = np.iinfo(dtype)
            raw = np.concatenate([[0, 1, 2, info.min, info.max],
                                  rng.integers(info.min, info.max, 55, endpoint=True)]).astype(dtype)
        p = tmp_path / "m.nii"
        write_minimal(p, datatype=datatype, bitpix=bitpix, dim=(3, 5, 4, 3, 1, 1, 1, 1),
                      scl_slope=slope, scl_inter=inter, payload=raw.tobytes())
        mask = nifti.read_mask(p)
        assert mask.data.dtype == bool
        assert np.array_equal(mask.data, nifti.read_volume(p).data > 0.5)

    @pytest.mark.parametrize("datatype, bitpix, dtype", [
        (16, 32, np.float32), (64, 64, np.float64),
    ], ids=["float32", "float64"])
    @pytest.mark.parametrize("slope", [1.0, 2.0], ids=["unscaled", "scaled"])
    def test_non_finite_float_mask_fails_with_its_count(self, tmp_path, datatype, bitpix,
                                                       dtype, slope):
        raw = np.array([0.0, 1.0, np.nan, np.inf, -np.inf, 0.0, 1.0, 0.0], dtype=dtype)
        p = tmp_path / "m.nii"
        write_minimal(p, datatype=datatype, bitpix=bitpix, scl_slope=slope,
                      payload=raw.tobytes())
        with pytest.raises(ValueError, match=f"^{p}: 3 non-finite mask values$"):
            nifti.read_mask(p)

    def test_uint8_mask_allocates_no_float64_grid(self, tmp_path):
        rng = np.random.default_rng(6)
        mask = BinaryMask(rng.random((8, 64, 64)) < 0.3, SP)
        p = tmp_path / "m.nii"
        nifti.write_mask(mask, p)
        tracemalloc.start()
        try:
            back = nifti.read_mask(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, mask.data)
        # the stored bytes, the thresholded mask and the mask's own copy: one byte each
        assert peak < 4 * mask.data.size, peak / mask.data.size


class TestBvals:
    def test_paper_range_row(self, tmp_path):
        p = tmp_path / "b.bval"
        p.write_text("0 100 200 400 600")
        assert nifti.read_bvals(p) == [0.0, 100.0, 200.0, 400.0, 600.0]

    def test_newline_separated(self, tmp_path):
        p = tmp_path / "b.bval"
        p.write_text("0\n0\n100\n")
        assert nifti.read_bvals(p) == [0.0, 0.0, 100.0]

    def test_byte_order_mark_is_read_past(self, tmp_path):
        p = tmp_path / "b.bval"
        p.write_bytes(b"\xef\xbb\xbf0 100 600\n")
        assert nifti.read_bvals(p) == [0.0, 100.0, 600.0]

    def test_negative_rejected_with_position(self, tmp_path):
        p = tmp_path / "b.bval"
        p.write_text("0 100 -50")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: token 3 \('-50'\) "):
            nifti.read_bvals(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "b.bval"
        p.write_text("0 abc 100")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: token 2 \('abc'\) "):
            nifti.read_bvals(p)


class TestFuzzRoundTrip:
    def test_many_random_volumes_and_masks(self, tmp_path):
        rng = np.random.default_rng(123)
        for i in range(25):
            dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
            spacing = VoxelSpacing(*np.round(rng.uniform(0.5, 8.0, 3), 3))
            values = (rng.random(dims, dtype=np.float32) * np.float32(100.0))
            vol = Volume3D(values.astype(np.float64), spacing)
            p = tmp_path / f"v{i}.nii"
            nifti.write_volume(vol, p)
            assert np.array_equal(nifti.read_volume(p).data, vol.data)

            mask = BinaryMask(rng.random(dims) < 0.5, spacing)
            q = tmp_path / f"m{i}.nii"
            nifti.write_mask(mask, q)
            assert np.array_equal(nifti.read_mask(q).data, mask.data)

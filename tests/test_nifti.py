import struct

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
        back = nifti.read_volume(path)
        assert isinstance(back, DwiSeries)
        assert list(back.bvalues) == [0.0, 100.0, 600.0]
        assert np.array_equal(back.data, series.data)

    def test_4d_without_sidecar_fails(self, tmp_path):
        series = DwiSeries(np.zeros((2, 2, 2, 2)), SP, np.array([0.0, 100.0]))
        path = tmp_path / "s.nii"
        nifti.write_series(series, path)
        (tmp_path / "s.bval").unlink()
        with pytest.raises(ValueError, match="sidecar"):
            nifti.read_volume(path)


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
        with pytest.raises(ValueError, match="sizeof_hdr"):
            nifti.read_volume(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, magic=b"ni1\x00")
        with pytest.raises(ValueError, match="magic"):
            nifti.read_volume(p)

    def test_unsupported_datatype(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, datatype=8, bitpix=32)  # int32 is outside the subset
        with pytest.raises(ValueError, match="datatype"):
            nifti.read_volume(p)

    def test_inconsistent_bitpix(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, datatype=16, bitpix=64)
        with pytest.raises(ValueError, match="bitpix"):
            nifti.read_volume(p)

    def test_truncated_data_section(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, payload=np.zeros(7, dtype=np.float32).tobytes())
        with pytest.raises(ValueError, match="truncated"):
            nifti.read_volume(p)

    def test_bad_vox_offset(self, tmp_path):
        p = tmp_path / "bad.nii"
        write_minimal(p, vox_offset=100.0)
        with pytest.raises(ValueError, match="vox_offset"):
            nifti.read_volume(p)

    @pytest.mark.parametrize("vox_offset", [352.5, 353.5, float("inf"), float("nan")])
    def test_vox_offset_that_is_not_a_whole_byte_count(self, tmp_path, vox_offset):
        # a truncated 353.5 would read the float32 payload one byte off
        p = tmp_path / "bad.nii"
        write_minimal(p, vox_offset=vox_offset, payload=np.ones(9, dtype=np.float32).tobytes())
        with pytest.raises(ValueError, match="vox_offset"):
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
        with pytest.raises(ValueError, match="token 3"):
            nifti.read_bvals(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "b.bval"
        p.write_text("0 abc 100")
        with pytest.raises(ValueError, match="token 2"):
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

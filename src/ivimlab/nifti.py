"""Minimal single-file NIfTI-1 reader/writer plus the .bval sidecar format.

Scope is deliberately narrow: uncompressed little-endian ``.nii`` with the
"n+1" magic, datatypes uint8 / int16 / float32 / float64, spacing via pixdim.
A ``.bval`` sidecar is UTF-8 text. Anything else is rejected loudly rather
than guessed at. Masks are stored as uint8 {0,1}; scalar volumes as float32.
On-disk voxel order is x-fastest, so a C-ordered (z, y, x) array maps straight
onto the data section.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .grid import BinaryMask, DwiSeries, VoxelSpacing, Volume3D

HEADER_SIZE = 348
MAGIC = b"n+1\x00"
MIN_VOX_OFFSET = 352

_DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32, 64: np.float64}
_BITPIX = {2: 8, 4: 16, 16: 32, 64: 64}


def _read_header(raw: bytes, path) -> dict:
    if len(raw) < HEADER_SIZE:
        raise ValueError(f"{path}: file shorter than the {HEADER_SIZE}-byte header")
    (sizeof_hdr,) = struct.unpack_from("<i", raw, 0)
    if sizeof_hdr != HEADER_SIZE:
        raise ValueError(
            f"{path}: sizeof_hdr is {sizeof_hdr}, expected {HEADER_SIZE} "
            "(big-endian or non-NIfTI input is not supported)"
        )
    magic = struct.unpack_from("<4s", raw, 344)[0]
    if magic != MAGIC:
        raise ValueError(f"{path}: magic is {magic!r}, expected {MAGIC!r}")
    dim = struct.unpack_from("<8h", raw, 40)
    datatype, bitpix = struct.unpack_from("<hh", raw, 70)
    pixdim = struct.unpack_from("<8f", raw, 76)
    (vox_offset,) = struct.unpack_from("<f", raw, 108)
    scl_slope, scl_inter = struct.unpack_from("<2f", raw, 112)

    if datatype not in _DTYPES:
        raise ValueError(f"{path}: unsupported datatype code {datatype}")
    if bitpix != _BITPIX[datatype]:
        raise ValueError(f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}")
    ndim = dim[0]
    if ndim not in (3, 4):
        raise ValueError(f"{path}: dim[0] is {ndim}, only 3D/4D images are supported")
    shape = dim[1 : 1 + ndim]
    if any(n <= 0 for n in shape):
        raise ValueError(f"{path}: non-positive entry in dim {tuple(shape)}")
    if any(p <= 0 or not np.isfinite(p) for p in pixdim[1:4]):
        raise ValueError(f"{path}: non-positive pixdim {pixdim[1:4]}")
    if not (vox_offset >= MIN_VOX_OFFSET and vox_offset.is_integer()):
        raise ValueError(f"{path}: vox_offset {vox_offset} is not a whole byte count "
                         f">= {MIN_VOX_OFFSET}")
    return {
        "shape": tuple(int(n) for n in shape),  # (nx, ny, nz[, nt])
        "datatype": int(datatype),
        "pixdim": tuple(float(p) for p in pixdim[1:4]),  # (dx, dy, dz)
        "vox_offset": int(vox_offset),
        "scl_slope": float(scl_slope),
        "scl_inter": float(scl_inter) if np.isfinite(scl_inter) else 0.0,
    }


def _read_array(path) -> tuple[np.ndarray, VoxelSpacing]:
    """Load the raw image as a float64 array shaped (nz, ny, nx) or (nt, nz, ny, nx)."""
    raw = Path(path).read_bytes()
    hdr = _read_header(raw, path)
    nx, ny, nz = hdr["shape"][:3]
    nt = hdr["shape"][3] if len(hdr["shape"]) == 4 else None
    dtype = _DTYPES[hdr["datatype"]]
    count = nx * ny * nz * (nt or 1)
    nbytes = count * dtype().itemsize
    start = hdr["vox_offset"]
    if len(raw) < start + nbytes:
        raise ValueError(
            f"{path}: data section truncated ({len(raw) - start} bytes, need {nbytes})"
        )
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=start)
    data = flat.reshape((nt, nz, ny, nx) if nt else (nz, ny, nx)).astype(np.float64)
    # a zero or non-finite slope means unscaled; a non-finite intercept reads as 0
    if hdr["scl_slope"] != 0.0 and np.isfinite(hdr["scl_slope"]):
        data *= hdr["scl_slope"]
        data += hdr["scl_inter"]
    dx, dy, dz = hdr["pixdim"]
    return data, VoxelSpacing(dz, dy, dx)


def read_volume(path, bval_path=None):
    """Read a .nii image; 3D gives a Volume3D, 4D gives a DwiSeries.

    A 4D image is wrapped as read, one (n_frames, nz, ny, nx) float64 array.
    It needs its b-values: pass ``bval_path`` or place an FSL-style sidecar
    next to the image (same basename, ``.bval`` extension).
    """
    data, spacing = _read_array(path)
    if data.ndim == 3:
        return Volume3D(data, spacing)
    if bval_path is None:
        bval_path = Path(path).with_suffix(".bval")
    if not Path(bval_path).exists():
        raise ValueError(f"{path}: 4D image needs a b-value sidecar, none at {bval_path}")
    bvals = read_bvals(bval_path)
    if len(bvals) != data.shape[0]:
        raise ValueError(
            f"{bval_path}: {len(bvals)} b-values for {data.shape[0]} frames"
        )
    try:
        return DwiSeries(data, spacing, np.asarray(bvals))
    except ValueError as exc:
        raise ValueError(f"{bval_path}: {exc}") from None


def read_mask(path) -> BinaryMask:
    """Read a 3D .nii mask; a 4D image is rejected before any b-value lookup."""
    data, spacing = _read_array(path)
    if data.ndim != 3:
        raise ValueError(f"{path}: expected a 3D mask, found a 4D image")
    return BinaryMask(data > 0.5, spacing)


def _pack_header(shape_xyz: tuple[int, ...], pixdim_xyz: tuple[float, ...],
                 datatype: int) -> bytearray:
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    ndim = len(shape_xyz)
    dim = [ndim] + list(shape_xyz) + [1] * (7 - ndim)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<hh", hdr, 70, datatype, _BITPIX[datatype])
    pixdim = [1.0] + list(pixdim_xyz) + [1.0] * (7 - len(pixdim_xyz))
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<f", hdr, 108, float(MIN_VOX_OFFSET))
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)  # scl_slope, scl_inter
    struct.pack_into("<80s", hdr, 148, b"ivimlab")
    struct.pack_into("<4s", hdr, 344, MAGIC)
    return hdr


def _atomic_write(path, payload: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(f"failed writing {path}: {exc}") from exc


def _read_text(path) -> str:
    """A UTF-8 file's text; a leading byte-order mark is read past."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 (byte {exc.object[exc.start]:#04x} "
                         f"at offset {exc.start})") from None


def _write_array(arr: np.ndarray, spacing: VoxelSpacing, path, dtype_code: int) -> None:
    if arr.ndim == 3:
        nz, ny, nx = arr.shape
        shape_xyz: tuple[int, ...] = (nx, ny, nz)
    else:
        nt, nz, ny, nx = arr.shape
        shape_xyz = (nx, ny, nz, nt)
    hdr = _pack_header(shape_xyz, (spacing.dx, spacing.dy, spacing.dz), dtype_code)
    body = np.ascontiguousarray(arr.astype(_DTYPES[dtype_code])).tobytes()
    _atomic_write(path, bytes(hdr) + b"\x00" * (MIN_VOX_OFFSET - HEADER_SIZE) + body)


def write_volume(volume: Volume3D, path) -> None:
    """Store a scalar volume as float32 (round-trips through read_volume)."""
    _write_array(volume.data, volume.spacing, path, 16)


def write_mask(mask: BinaryMask, path) -> None:
    """Store a mask as uint8 {0,1}."""
    _write_array(mask.data.astype(np.uint8), mask.spacing, path, 2)


def write_series(series: DwiSeries, path, bval_path=None) -> None:
    """Store a 4D series as float32 plus its .bval sidecar."""
    _write_array(series.data, series.spacing, path, 16)
    if bval_path is None:
        bval_path = Path(path).with_suffix(".bval")
    write_bvals(series.bvalues, bval_path)


def read_bvals(path) -> list[float]:
    """Parse a whitespace-separated list of non-negative b-values."""
    text = _read_text(path)
    values = []
    for pos, token in enumerate(text.split(), start=1):
        try:
            v = float(token)
        except ValueError:
            raise ValueError(f"{path}: token {pos} ({token!r}) is not a number") from None
        if not np.isfinite(v) or v < 0:
            raise ValueError(f"{path}: token {pos} ({token!r}) must be a finite value >= 0")
        values.append(v)
    if not values:
        raise ValueError(f"{path}: no b-values found")
    return values


def write_bvals(bvalues, path) -> None:
    line = " ".join(format(float(b), "g") for b in np.asarray(bvalues).ravel())
    _atomic_write(path, (line + "\n").encode())

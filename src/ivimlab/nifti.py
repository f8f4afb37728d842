"""Minimal single-file NIfTI-1 reader/writer plus the .bval sidecar format.

Scope is deliberately narrow: uncompressed little-endian ``.nii`` with the
"n+1" magic, datatypes uint8 / int16 / float32 / float64, spacing via pixdim.
A ``.bval`` sidecar is UTF-8 text. Anything else is rejected loudly rather
than guessed at. A 4D image is read only with the ``.bval`` path it is given,
and a 3D one only without. Masks are stored as uint8 {0,1}; scalar volumes as
float32. On-disk voxel order is x-fastest, so a C-ordered (z, y, x) array
maps straight onto the data section. An unscaled float32 or float64 series
is read as stored, its data section in one piece; any other series, and every
volume, fills one float64 array frame by frame from the file. Neither holds a
copy of the file's bytes beside the array, and a series' arithmetic is float64
either way (``grid.average_by_bvalue``). A mask is thresholded as stored when
its file is unscaled (a uint8 mask reads as one byte a voxel, with no float64
copy of the grid); a scaled mask file goes through the float64 read. A write
casts one frame at a time to the file; a finite value that the cast makes
infinite fails it.
"""

from __future__ import annotations

import itertools
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


def _read_array(path, as_stored: bool = False) -> tuple[np.ndarray, VoxelSpacing]:
    """Load the raw image as an array shaped (nz, ny, nx) or (nt, nz, ny, nx).

    The array is float64, read one frame at a time straight from the file, so
    no copy of the file's bytes is held beside it. Values are then scaled to
    ``scl_slope * stored + scl_inter``. A zero or non-finite slope means
    unscaled, and a non-finite intercept reads as 0. Slope 1 with intercept 0,
    which every file ivimlab writes stores, is not applied: the values are the
    same, except that a stored -0.0 keeps its sign. An unscaled float32 or
    float64 4D image, and with ``as_stored`` any unscaled image, is returned as
    stored instead: in the file's datatype, read with one ``np.fromfile``.
    """
    with open(path, "rb") as fh:
        hdr = _read_header(fh.read(HEADER_SIZE), path)
        nx, ny, nz = hdr["shape"][:3]
        nt = hdr["shape"][3] if len(hdr["shape"]) == 4 else None
        shape = (nt, nz, ny, nx) if nt else (nz, ny, nx)
        dtype = _DTYPES[hdr["datatype"]]
        count = nx * ny * nz * (nt or 1)
        nbytes = count * dtype().itemsize
        start = hdr["vox_offset"]
        size = os.fstat(fh.fileno()).st_size
        if size < start + nbytes:
            raise ValueError(
                f"{path}: data section truncated ({size - start} bytes, need {nbytes})"
            )
        slope, inter = hdr["scl_slope"], hdr["scl_inter"]
        scaled = slope != 0.0 and np.isfinite(slope) and (slope, inter) != (1.0, 0.0)
        fh.seek(start)
        if not scaled and (as_stored or (nt and np.dtype(dtype).kind == "f")):
            data = np.fromfile(fh, dtype=dtype, count=count).reshape(shape)
        else:
            data = np.empty(shape)
            for frame in data.reshape(nt or 1, -1):
                frame[:] = np.fromfile(fh, dtype=dtype, count=frame.size)
    if scaled:
        data *= slope
        data += inter
    dx, dy, dz = hdr["pixdim"]
    return data, VoxelSpacing(dz, dy, dx)


def read_volume(path, bval_path=None):
    """Read a .nii image: 3D gives a Volume3D, 4D with ``bval_path`` a DwiSeries.

    A 4D image is wrapped as read, one (n_frames, nz, ny, nx) array, with the
    b-values of ``bval_path``, one per frame: an unscaled float32 or float64
    file keeps its type, read in one piece, and any other fills one float64
    array frame by frame. A 3D image is always read into float64. A 4D image
    without ``bval_path``, or a 3D one with it, fails the read, naming the image.
    """
    data, spacing = _read_array(path)
    if data.ndim == 3:
        if bval_path is not None:
            raise ValueError(f"{path}: expected a 4D series")
        return Volume3D(data, spacing)
    if bval_path is None:
        raise ValueError(f"{path}: a 4D image needs a bval_path")
    bvals = read_bvals(bval_path)
    try:
        return DwiSeries(data, spacing, np.asarray(bvals))
    except ValueError as exc:
        raise ValueError(f"{bval_path}: {exc}") from None


def read_mask(path) -> BinaryMask:
    """Read a 3D .nii mask; a 4D image fails the read, naming it.

    A voxel is in the mask when its value is above 0.5. A NaN or infinite
    value fails the read rather than being dropped from the mask or kept in it.
    An unscaled file is thresholded as stored: an integer is above 0.5 when it
    is above 0, and a float32 compares with 0.5 exactly, as its float64 would.
    """
    data, spacing = _read_array(path, as_stored=True)
    if data.ndim != 3:
        raise ValueError(f"{path}: expected a 3D mask, found a 4D image")
    if data.dtype.kind == "f":
        bad = int(np.count_nonzero(~np.isfinite(data)))
        if bad:
            raise ValueError(f"{path}: {bad} non-finite mask values")
        return BinaryMask(data > 0.5, spacing)
    return BinaryMask(data > 0, spacing)


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


def _atomic_write(path, parts) -> None:
    """Write the bytes-like ``parts`` in order; on any exception no file is left."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)  # already gone after the rename


def _read_text(path) -> str:
    """A UTF-8 file's text; a leading byte-order mark is read past."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 (byte {exc.object[exc.start]:#04x} "
                         f"at offset {exc.start})") from None


def _cast(frame: np.ndarray, dtype, path) -> np.ndarray:
    with np.errstate(over="ignore"):  # counted below, with the file named
        cast = frame.astype(dtype)
    inf = np.count_nonzero(np.isinf(cast))
    if inf and inf > np.count_nonzero(np.isinf(frame)):
        raise ValueError(f"{path}: finite values lie beyond the {cast.dtype} range")
    return cast


def _write_array(arr: np.ndarray, spacing: VoxelSpacing, path, dtype_code: int) -> None:
    hdr = _pack_header(arr.shape[::-1], (spacing.dx, spacing.dy, spacing.dz), dtype_code)
    # a generator of frames: each cast is written and dropped before the next is made
    frames = (_cast(frame, _DTYPES[dtype_code], path)
              for frame in arr.reshape(-1, *arr.shape[-3:]))
    _atomic_write(path, itertools.chain([hdr, bytes(MIN_VOX_OFFSET - HEADER_SIZE)], frames))


def write_volume(volume: Volume3D, path) -> None:
    """Store a scalar volume as float32 (round-trips through read_volume)."""
    _write_array(volume.data, volume.spacing, path, 16)


def write_mask(mask: BinaryMask, path) -> None:
    """Store a mask as uint8 {0,1}."""
    _write_array(mask.data, mask.spacing, path, 2)


def write_series(series: DwiSeries, path) -> None:
    """Store a 4D series as float32 plus its .bval sidecar next to it."""
    _write_array(series.data, series.spacing, path, 16)
    write_bvals(series.bvalues, Path(path).with_suffix(".bval"))


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
    """Each b-value as the shortest text that reads back to the same float."""
    line = " ".join(np.format_float_positional(float(b), trim="-")
                    for b in np.asarray(bvalues).ravel())
    _atomic_write(path, [(line + "\n").encode()])

"""Two-step voxel-wise IVIM fitting over a masked 4D series.

Step one fits a mono-exponential decay to the high-b tail (strictly above the
b threshold), giving the apparent diffusion coefficient. Step two fixes the
tissue diffusion coefficient to that value and fits amplitude, perfusion
fraction and pseudo-diffusion coefficient to the full decay curve, which
stabilizes the otherwise poorly conditioned biexponential problem.

Voxels that cannot be fitted (a non-finite sample, too few usable points,
divergence) carry the NaN sentinel and are skipped by the summaries; they
never abort a volume fit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import lm
from .errors import DimensionError
from .grid import B_VALUE_TOL, BinaryMask, DwiSeries, IvimMaps, Volume3D

# fitted values within 1% of an adc_range endpoint count as boundary hits
_BOUND_MARGIN = 1.01


@dataclass(frozen=True)
class IvimFitConfig:
    b_threshold: float = 100.0  # strict: only b > threshold enters the ADC fit
    f_range: tuple[float, float] = (0.0, 1.0)
    adc_range: tuple[float, float] = (1e-5, 1e-1)  # mm^2/s

    def __post_init__(self):
        if self.b_threshold < 0:
            raise ValueError("b_threshold must be >= 0")
        if not (0 <= self.f_range[0] < self.f_range[1] <= 1):
            raise ValueError(f"invalid f_range {self.f_range}")
        if not (0 < self.adc_range[0] < self.adc_range[1]):
            raise ValueError(f"invalid adc_range {self.adc_range}")


@dataclass(frozen=True)
class VoxelSignal:
    """One voxel's decay curve: ascending b-values and their intensities."""

    bvalues: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bvalues, dtype=np.float64).ravel()
        s = np.asarray(self.intensities, dtype=np.float64).ravel()
        if b.size != s.size:
            raise DimensionError("bvalues and intensities must have equal length")
        if np.any(np.diff(b) < 0):
            raise ValueError("bvalues must be ascending")
        if np.any(s < 0) or not np.all(np.isfinite(s)):
            raise ValueError("intensities must be finite and non-negative")
        object.__setattr__(self, "bvalues", b)
        object.__setattr__(self, "intensities", s)


@dataclass(frozen=True)
class AdcFit:
    s0_high: float
    adc: float
    at_bound: bool


@dataclass(frozen=True)
class IvimFit:
    s0: float
    f: float
    d_star: float
    residual: float


def _loglinear(b: np.ndarray, s: np.ndarray) -> tuple[float, float]:
    """OLS of ln(s) on b; returns (intercept_amplitude, decay_rate)."""
    ln_s = np.log(s)
    bm = b.mean()
    lm_ = ln_s.mean()
    sxx = float(((b - bm) ** 2).sum())
    slope = float(((b - bm) * (ln_s - lm_)).sum()) / sxx
    return math.exp(lm_ - slope * bm), -slope


def _clamp_open(v: float, lo: float, hi: float, margin: float = 1e-3) -> float:
    span = hi - lo
    return min(max(v, lo + margin * span), hi - margin * span)


def _high_b(b: np.ndarray, s: np.ndarray, cfg: IvimFitConfig):
    """(b, s, log-linear intercept, rate) over b > threshold with s > 0.

    None when fewer than two distinct b-values remain.
    """
    keep = (b > cfg.b_threshold) & (s > 0)
    bh, sh = b[keep], s[keep]
    if np.unique(bh).size < 2:
        return None
    return (bh, sh, *_loglinear(bh, sh))


def _fit_adc_arrays(bh: np.ndarray, sh: np.ndarray, s0_init: float, rate: float,
                    cfg: IvimFitConfig) -> AdcFit | None:
    lo, hi = cfg.adc_range
    adc_init = _clamp_open(rate, lo, hi)

    def residual(th):
        return th[0] * np.exp(-th[1] * bh) - sh

    def jacobian(th):
        e = np.exp(-th[1] * bh)
        return np.array((e, -th[0] * bh * e))

    problem = lm.FitProblem(
        residual=residual,
        jacobian=jacobian,
        theta0=np.array([max(s0_init, 1e-12), adc_init]),
        transforms=(lm.log_positive(), lm.logistic(lo, hi)),
    )
    result = lm.lm_fit(problem)
    if not result.converged:
        return None
    s0_high, adc = float(result.params[0]), float(result.params[1])
    at_bound = adc <= lo * _BOUND_MARGIN or adc >= hi / _BOUND_MARGIN
    return AdcFit(s0_high, adc, at_bound)


def fit_adc(sig: VoxelSignal, cfg: IvimFitConfig | None = None) -> AdcFit | None:
    """Mono-exponential fit over the high-b subset; None marks an unfittable voxel."""
    cfg = cfg or IvimFitConfig()
    high = _high_b(sig.bvalues, sig.intensities, cfg)
    return None if high is None else _fit_adc_arrays(*high, cfg)


def _fit_ivim_arrays(b: np.ndarray, s: np.ndarray, adc: float, s0_high: float | None,
                     cfg: IvimFitConfig) -> IvimFit | None:
    """``s0_high`` is the high-b log-linear intercept, None without enough high-b points."""
    is_b0 = np.abs(b) < B_VALUE_TOL
    if not is_b0.any():
        return None
    s0_init = float(s[is_b0].mean())
    if s0_init <= 0:
        return None

    if s0_high is None:
        s0_high = s0_init
    # segmented-IVIM intercept estimate for the perfusion fraction start
    f_init = min(max(1.0 - s0_high / s0_init, 0.01), 0.99)
    d_star_init = max(10.0 * adc, adc + 1e-3)
    e_adc = np.exp(-adc * b)

    def residual(th):
        return th[0] * (th[1] * np.exp(-th[2] * b) + (1.0 - th[1]) * e_adc) - s

    def jacobian(th):
        s0, f, d_star = th
        e = np.exp(-d_star * b)
        return np.array((f * e + (1.0 - f) * e_adc, s0 * (e - e_adc), -s0 * f * b * e))

    f_lo, f_hi = cfg.f_range
    problem = lm.FitProblem(
        residual=residual,
        jacobian=jacobian,
        theta0=np.array([s0_init, f_init, d_star_init]),
        transforms=(lm.log_positive(), lm.logistic(f_lo, f_hi), lm.offset_log(adc)),
    )
    result = lm.lm_fit(problem)
    if not result.converged:
        return None
    s0, f, d_star = (float(v) for v in result.params)
    rms = math.sqrt(result.ssr / b.size) / s0
    return IvimFit(s0, f, d_star, rms)


def fit_ivim(sig: VoxelSignal, adc: float, cfg: IvimFitConfig | None = None) -> IvimFit | None:
    """Biexponential fit of (S0, f, D*) with the tissue coefficient fixed to adc."""
    if not (np.isfinite(adc) and adc > 0):
        raise ValueError(f"adc must be finite and positive, got {adc}")
    cfg = cfg or IvimFitConfig()
    high = _high_b(sig.bvalues, sig.intensities, cfg)
    return _fit_ivim_arrays(sig.bvalues, sig.intensities, adc,
                            None if high is None else high[2], cfg)


def _fit_voxel(b: np.ndarray, s: np.ndarray, cfg: IvimFitConfig):
    if not np.isfinite(s).all():
        return None
    high = _high_b(b, s, cfg)
    if high is None:
        return None
    adc_fit = _fit_adc_arrays(*high, cfg)
    if adc_fit is None:
        return None
    ivim = _fit_ivim_arrays(b, s, adc_fit.adc, high[2], cfg)
    if ivim is None:
        return None
    return ivim.s0, ivim.f, ivim.d_star, adc_fit.adc, ivim.residual


def _fit_chunk(args):
    b, signals, cfg = args
    out = np.full((signals.shape[0], 5), np.nan)
    for i in range(signals.shape[0]):
        fit = _fit_voxel(b, signals[i], cfg)
        if fit is not None:
            out[i] = fit
    return out


def _validate_series(series: DwiSeries, cfg: IvimFitConfig) -> None:
    b = series.bvalues
    if np.unique(b).size != b.size:
        raise ValueError(
            "series must be direction-averaged first (one frame per b-value); "
            "see grid.average_by_bvalue"
        )
    if b.size < 3:
        raise ValueError("voxel fits need at least 3 b-values")
    if np.unique(b[b > cfg.b_threshold]).size < 2:
        raise ValueError(
            f"need at least 2 distinct b-values above the threshold {cfg.b_threshold}"
        )


def fit_volume(series: DwiSeries, mask: BinaryMask, cfg: IvimFitConfig | None = None,
               workers: int = 1) -> IvimMaps:
    """Fit every masked voxel; NaN everywhere a fit failed or outside the mask.

    The result is independent of voxel visit order and of ``workers``: voxel
    fits share no state, and chunks are reassembled in index order.
    """
    cfg = cfg or IvimFitConfig()
    if not mask.same_grid(series):
        raise DimensionError(
            f"mask grid {mask.dims}/{mask.spacing.as_tuple()} does not match "
            f"series grid {series.dims}/{series.spacing.as_tuple()}"
        )
    _validate_series(series, cfg)

    b = np.asarray(series.bvalues)
    flat_idx = np.flatnonzero(mask.data.ravel())
    n_vox = int(np.prod(series.dims))
    results = np.full((flat_idx.size, 5), np.nan)

    if flat_idx.size:
        signals = series.data.reshape(series.n_frames, n_vox)[:, flat_idx].T
        signals = np.ascontiguousarray(np.maximum(signals, 0.0))
        workers = max(1, int(workers))
        if workers == 1 or flat_idx.size < 2 * workers:
            results = _fit_chunk((b, signals, cfg))
        else:
            chunk = math.ceil(flat_idx.size / (workers * 4))
            jobs = [(b, signals[i : i + chunk], cfg)
                    for i in range(0, flat_idx.size, chunk)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(_fit_chunk, jobs))
            results = np.concatenate(parts, axis=0)

    maps = []
    for col in range(5):
        full = np.full(n_vox, np.nan)
        full[flat_idx] = results[:, col]
        maps.append(Volume3D(full.reshape(series.dims), series.spacing))
    fitted = np.zeros(n_vox, dtype=bool)
    fitted[flat_idx] = np.isfinite(results[:, 3])
    fitted_mask = BinaryMask(fitted.reshape(series.dims), series.spacing)
    return IvimMaps(s0=maps[0], f=maps[1], d_star=maps[2], adc=maps[3],
                    residual=maps[4], mask=fitted_mask)


def boundary_hits(maps: IvimMaps, cfg: IvimFitConfig | None = None) -> int:
    """Number of fitted voxels whose ADC sits at an adc_range endpoint."""
    cfg = cfg or IvimFitConfig()
    lo, hi = cfg.adc_range
    adc = maps.adc.data[maps.mask.data]
    return int(((adc <= lo * _BOUND_MARGIN) | (adc >= hi / _BOUND_MARGIN)).sum())


@dataclass(frozen=True)
class MapSummary:
    mean: float
    sd: float  # population sd over fitted voxels
    count: int


@dataclass(frozen=True)
class MapsSummary:
    s0: MapSummary
    f: MapSummary
    d_star: MapSummary
    adc: MapSummary
    residual: MapSummary
    voxel_count: int
    volume_ml: float
    empty: bool


def summarize(maps: IvimMaps) -> MapsSummary:
    """Mean/sd/count per parameter over fitted voxels; flags the empty case."""
    m = maps.mask.data
    count = int(m.sum())
    if count == 0:
        nan_summary = MapSummary(math.nan, math.nan, 0)
        return MapsSummary(nan_summary, nan_summary, nan_summary, nan_summary,
                           nan_summary, 0, 0.0, True)

    def stat(vol: Volume3D) -> MapSummary:
        v = vol.data[m]
        return MapSummary(float(v.mean()), float(v.std(ddof=0)), count)

    return MapsSummary(
        s0=stat(maps.s0), f=stat(maps.f), d_star=stat(maps.d_star),
        adc=stat(maps.adc), residual=stat(maps.residual),
        voxel_count=count, volume_ml=maps.mask.volume_ml, empty=False,
    )

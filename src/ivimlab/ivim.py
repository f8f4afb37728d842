"""Two-step voxel-wise IVIM fitting over a masked 4D series, averaged by b-value first.

Step one fits a mono-exponential decay to the high-b tail (b strictly above
``B_THRESHOLD``), giving the apparent diffusion coefficient. Step two fixes the
tissue diffusion coefficient to that value and fits amplitude, perfusion
fraction and pseudo-diffusion coefficient to the full decay curve, which
stabilizes the otherwise poorly conditioned biexponential problem. The
parameter box is fixed and closed: S0 >= 0, f in [0, 1], ADC in
[``ADC_MIN``, ``ADC_MAX``] and D* in [ADC, ``D_STAR_MAX``], so a voxel whose
perfusion term the data cannot resolve stops at the D* bound rather than
running off to infinity.

Both steps are separable least squares (Golub & Pereyra 1973): once its
decay rate is fixed, each model is linear in its amplitudes, so the cost
profiled over the amplitudes is a function of one rate. In step one, at a
fixed ADC the best S0 is closed form, sum(w e s) / sum(w e^2) with
e = exp(-ADC b), where the 0/1 weight w keeps the positive samples above
``B_THRESHOLD``. In step two, at a fixed D* the model a*exp(-D* b) +
c*exp(-ADC b) is linear in a = S0 f and c = S0 (1 - f), and the best
a, c >= 0 is a closed-form two-variable non-negative least squares (NNLS):
the interior solution, or one of its faces f = 0 and f = 1.

The fit walks the usable voxels in blocks, and each block runs four stages:
ADC search, ADC polish, IVIM search, IVIM polish. A search finds, for every
voxel of the block at once, its least profiled point in the log of its
rate: a coarse grid over [``ADC_MIN``, ``ADC_MAX``] or (ADC, ``D_STAR_MAX``],
a finer grid across the two coarse steps around its best point, then one
parabolic step; the ADC search adds one Newton step, kept where the cost
falls. A search lays its arrays out b-value first: the samples and weights
of the block's n voxels are (n_b, n, 1), and the terms at k grid points
(n_b, n, k). A sum over b-values then adds whole (n, k) planes in turn, from
the first b-value (``_plane_sum``): one numpy call per b-value, and each
voxel's sums are the same left folds whether its block holds one voxel or
many. The projected Levenberg-Marquardt solver (``lm``) polishes from the
searched point exactly, per voxel, over the same closed box, and the voxel
takes its result: LM accepts only a step that strictly lowers the cost, so
it never ends above the searched point.

Profiled costs within a few ulps of the voxel's sum of squared samples
(``_TIE`` times it) are a tie, and a face of the NNLS beats the interior
point. So a voxel whose data hold no perfusion term gets f = 0 exactly, not
a rounding residue.

A voxel fails only for its data: a sum of squared samples that is not
finite (a non-finite sample, or one whose square overflows), fewer than two
distinct b-values above ``B_THRESHOLD`` with a positive sample, or no
positive b=0 sample. Elsewhere each step keeps a point in the box that costs
no more than its start. Failed voxels carry the NaN sentinel, are skipped by
the summaries and never abort a volume fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from . import lm, stats
from .grid import BinaryMask, DwiSeries, IvimMaps, Volume3D, average_by_bvalue

# histogram bins of the summary entropies; one value keeps every summary comparable
ENTROPY_BINS = 64

# s/mm^2: only b > B_THRESHOLD enters the ADC fit and the data rule's count of b-values
B_THRESHOLD = 100.0

# mm^2/s: the ADC box (a fitted ADC within 1% of an end is a boundary hit) and
# the upper end of the D* box, whose lower end is the voxel's ADC
ADC_MIN = 1e-5
ADC_MAX = 1e-1
_BOUND_MARGIN = 1.01
D_STAR_MAX = 1.0

# both searches: _COARSE steps evenly spaced in the log of the rate over its range, then
# _FINE points across the two coarse steps around the best one, then a parabolic step
_COARSE = 64
_FINE = 64
# the fit's block of voxels: at most this many (voxel, grid point, b-value) elements at once
_BLOCK = 1 << 15
# two costs closer than this many times the voxel's sum of squared samples are a tie
_TIE = 8 * np.finfo(np.float64).eps

# the polishes' fixed bounds: (S0, ADC) in [0, inf) x [ADC_MIN, ADC_MAX], and the upper
# end of (S0, f, D*); the lower end of D* is the voxel's ADC
_ADC_LOWER, _ADC_UPPER, _IVIM_UPPER = (
    np.array(v) for v in ((0.0, ADC_MIN), (math.inf, ADC_MAX), (math.inf, 1.0, D_STAR_MAX)))
for _bound in (_ADC_LOWER, _ADC_UPPER, _IVIM_UPPER):
    _bound.flags.writeable = False


@dataclass(frozen=True)
class VoxelSignal:
    """One voxel's decay curve: ascending b-values and their intensities."""

    bvalues: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bvalues, dtype=np.float64).ravel()
        s = np.asarray(self.intensities, dtype=np.float64).ravel()
        if b.size != s.size:
            raise ValueError("bvalues and intensities must have equal length")
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


@dataclass(frozen=True)
class IvimFit:
    s0: float
    f: float
    d_star: float
    residual: float


def _usable(b: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """The data rule over an (N, n_b) matrix of non-negative samples: True where a voxel fits.

    A voxel fails when its sum of squared samples is not finite, when fewer
    than two distinct b-values above ``B_THRESHOLD`` hold a positive sample, or
    when no b=0 sample is positive (so its b=0 mean is not positive). ``b``
    is ascending.
    """
    with np.errstate(over="ignore"):  # an overflowing square fails its voxel, quietly
        finite = np.isfinite(np.square(signals).sum(axis=1))
    positive = signals > 0
    high = b > B_THRESHOLD
    shells = np.flatnonzero(np.diff(b[high], prepend=-1.0))  # the first column of each b-value
    distinct = (np.logical_or.reduceat(positive[:, high], shells, axis=1).sum(axis=1)
                if shells.size else 0)
    return finite & (distinct >= 2) & positive[:, b == 0].any(axis=1)


def _grid_min(profile, lo: np.ndarray, hi: np.ndarray, first: int) -> tuple[np.ndarray, ...]:
    """Each row's least point x of ``profile`` over [lo, hi], and the profile's other outputs there.

    ``profile(x)`` maps an (n, k) array of points to a tuple of (n, k) arrays,
    the cost first; ``lo`` and ``hi`` are (n, 1), or (1, 1) where every row
    shares them, and the profile then gets the coarse grid as one (1, k) row.
    The coarse grid takes ``_COARSE`` equal steps up to ``hi``, starting at
    ``lo`` (``first`` 0) or one step above it (``first`` 1). Each result is
    (n, 1).
    """
    h = (hi - lo) / _COARSE
    grid = lo + h * np.arange(first, _COARSE + 1)
    cost = profile(grid)[0]
    rows = np.arange(len(cost))[:, None]
    coarse = np.broadcast_to(grid, cost.shape)[rows, cost.argmin(axis=1)[:, None]]

    # midpoints of _FINE equal steps across [coarse - h, coarse + h]; outside [lo, hi] cost inf
    step = 2.0 * h / _FINE
    fine = coarse - h + step * (np.arange(_FINE) + 0.5)
    cost = profile(np.clip(fine, lo, hi))[0]
    cost[(fine < lo) | (fine > hi)] = np.inf
    j = cost.argmin(axis=1)[:, None]
    left, mid, right = (cost[rows, np.minimum(np.maximum(j + i, 0), _FINE - 1)]
                        for i in (-1, 0, 1))
    # the vertex of the parabola through the best fine point and its two neighbours
    curvature = left - 2.0 * mid + right
    convex = (j > 0) & (j < _FINE - 1) & np.isfinite(curvature) & (curvature > 0)
    shift = np.divide(0.5 * step * (left - right), curvature,
                      out=np.zeros_like(curvature), where=convex)

    # the least of the three candidates, a tie going to the coarser
    x = np.hstack((coarse, fine[rows, j], fine[rows, j] + shift))
    out = profile(x)
    pick = out[0].argmin(axis=1)[:, None]
    return (x[rows, pick], *(v[rows, pick] for v in out[1:]))


def _plane_sum(x: np.ndarray) -> np.ndarray:
    """The sum of ``x`` over its first axis: a left fold, one whole plane ``x[i]`` an add.

    Each add is elementwise, so an element's bits depend only on its own
    column, whether the block holds one voxel or many.
    """
    return reduce(np.add, x)


def _search_adc(b: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """(S0, ADC) of each voxel at its least profiled mono-exponential cost: shape (2, n).

    ``signals`` is (n, n_b). The cost is over each voxel's positive samples
    at b > ``B_THRESHOLD``, and ADC is searched over [ADC_MIN, ADC_MAX], both
    ends included. Only the m b-values above ``B_THRESHOLD`` enter: every
    weight is 0 on the others. The arrays are laid out b-value first: the
    b-values are (m, 1, 1) and the 0/1 sample weights w and w*s are (m, n, 1),
    so the terms e = exp(-ADC b) at k points of each voxel are (m, n, k), and
    each sum over b-values is a left fold over whole (n, k) planes
    (``_plane_sum``). The coarse grid is the same for every voxel, so its e is
    (m, 1, k), computed once for the block.
    """
    high = b > B_THRESHOLD
    b, s = b[high, None, None], signals[:, high].T[..., None]
    w = (s > 0).astype(np.float64)
    ws = w * s
    ss = _plane_sum(ws * s)

    def profile(x):
        # the least cost over S0 at each log ADC x, and that S0 = sum(w e s) / sum(w e^2);
        # where every weighted e^2 underflows, S0 is 0 and the cost is ss = sum(w s^2)
        e = np.exp(np.exp(x) * -b)
        es = _plane_sum(e * ws)
        ee = _plane_sum(e * e * w)
        s0 = np.divide(es, ee, out=np.zeros_like(es), where=ee > 0)
        return ss - es * s0, s0

    def newton(x):
        # the Newton step on the profiled cost g at each log ADC x, 0 unless g'' > 0; with
        # k = ADC b, E_j = sum(w s k^j e), F_j = sum(w k^j e^2) and S0 = E0 / F0:
        # g' = 2 S0 (E1 - S0 F1),
        # g'' = S0^2 (4 F2 - 2 F1) - 2 S0 (E2 - E1) - 2 (E1 - 2 S0 F1)^2 / F0
        k = np.exp(x) * b
        e = np.exp(-k)
        e0, e1, e2, f0, f1, f2 = _plane_sum(
            np.stack([v * k**j for v in (e * ws, e * e * w) for j in range(3)], axis=1))
        # where every weighted e^2 underflows there is no S0, and an overflow is no step
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s0 = np.divide(e0, f0, out=np.zeros_like(e0), where=f0 > 0)
            g1 = 2.0 * s0 * (e1 - s0 * f1)
            g2 = (s0 * s0 * (4.0 * f2 - 2.0 * f1) - 2.0 * s0 * (e2 - e1)
                  - 2.0 * (e1 - 2.0 * s0 * f1)**2 / f0)
            descent = np.isfinite(g1) & np.isfinite(g2) & (g2 > 0)
            return np.divide(-g1, g2, out=np.zeros_like(g1), where=descent)

    lo, hi = np.full((1, 1), math.log(ADC_MIN)), np.full((1, 1), math.log(ADC_MAX))
    x = _grid_min(profile, lo, hi, first=0)[0]
    # one Newton step, clipped to the box and kept only where the cost falls (a tie keeps x)
    x = np.hstack((x, np.clip(x + newton(x), lo, hi)))
    cost, s0 = profile(x)
    pick = (np.arange(len(x)), cost.argmin(axis=1))
    return np.vstack((s0[pick], np.clip(np.exp(x[pick]), ADC_MIN, ADC_MAX)))


def _polish_adc(s: np.ndarray, keep: np.ndarray, start: np.ndarray, b: np.ndarray) -> AdcFit:
    """LM from the searched point ``start`` = (S0, ADC) over the samples that ``keep`` selects.

    ``keep`` is b > ``B_THRESHOLD`` & s > 0. LM starts at the searched point
    exactly, even on an end of the closed box [0, inf) x [ADC_MIN, ADC_MAX],
    and its result is the voxel's. From the Newton point it returns its start
    at iteration 1, its step below xtol; it stays while
    ``perfbench/test_tracing.py`` counts two LM calls a voxel.
    """
    bh, sh = b[keep], s[keep]

    def residual(th):
        return th[0] * np.exp(-th[1] * bh) - sh

    def jacobian(th):
        e = np.exp(-th[1] * bh)
        return np.array((e, -th[0] * bh * e))

    problem = lm.FitProblem(residual, jacobian, start, _ADC_LOWER, _ADC_UPPER)
    s0, adc = lm.lm_fit(problem).params.tolist()
    return AdcFit(s0, adc)


def fit_adc(sig: VoxelSignal) -> AdcFit | None:
    """Mono-exponential fit over the high-b subset; None where the voxel's data fail it.

    The same two stages as ``fit_volume``'s ADC step on a batch of one: the
    profiled search over log ADC and its Newton step, then the LM polish from
    that point. It stays, with ``fit_ivim``, while ``perfbench/child.py`` times both.
    """
    b, s = sig.bvalues, sig.intensities
    if not _usable(b, s[None])[0]:
        return None
    return _polish_adc(s, (b > B_THRESHOLD) & (s > 0), _search_adc(b, s[None])[:, 0], b)


def _search(b: np.ndarray, signals: np.ndarray, adc: np.ndarray) -> np.ndarray:
    """(S0, f, D*) of each voxel at its least profiled cost: shape (3, n).

    ``signals`` is (n, n_b) and ``adc`` (n,). At each log(D*/ADC) offset
    tau > 0 the cost is profiled by the NNLS. The arrays are laid out b-value
    first: the b-values are (n_b, 1, 1), and v = exp(-ADC b) and the samples
    are (n_b, n, 1), so the terms d at k points of each voxel are
    (n_b, n, k), and each sum over b-values is a left fold over whole (n, k)
    planes (``_plane_sum``). The model a*u + c*v, with u = exp(-D* b), is
    solved as a*d + S0*v: d = u - v is computed without cancellation, so the
    2x2 system stays well conditioned as D* nears ADC.
    """
    adc = adc[:, None]
    b, s = b[:, None, None], signals.T[..., None]
    v = np.exp(-adc * b)
    vv, vs, ss = (_plane_sum(p) for p in (v * v, v * s, s * s))
    # the f = 0 face (a = 0): its S0 and cost, and the tie, each (n, 1)
    s0_0, tie = vs / vv, _TIE * ss
    cost0 = ss - vs * s0_0

    def profile(tau):
        # the profiled cost, S0 and f at each tau, each (n, k)
        # D* - ADC = ADC*expm1(tau), and d = v*expm1(-(D* - ADC) b)
        d = v * np.expm1(adc * np.expm1(tau) * -b)
        dd = _plane_sum(d * d)
        dv, ds = _plane_sum(d * v), _plane_sum(d * s)
        # the f = 1 face (c = 0): the model S0*u, with u = v + d
        us, uu = vs + ds, vv + 2.0 * dv + dd
        s0_one = us / uu
        cost1 = ss - us * s0_one  # each product is at most ss, so a usable voxel cannot overflow
        det = dd * vv - dv * dv
        # a singular or overflowing system has no interior solution
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = (vv * ds - dv * vs) / det
            s0 = (dd * vs - dv * ds) / det
            cost = ss - a * ds - s0 * vs
        on_one = cost1 < cost0
        out = np.minimum(cost1, cost0)
        interior = (det > 0) & (a >= 0) & (s0 >= a) & (cost < out - tie)
        np.copyto(out, cost, where=interior)
        f = on_one.astype(np.float64)
        np.divide(a, s0, out=f, where=interior)
        s0_out = np.where(on_one, s0_one, s0_0)
        np.copyto(s0_out, s0, where=interior)
        return out, s0_out, f

    top = np.log(D_STAR_MAX / adc)  # tau = log(D*/ADC) runs over (0, top]
    tau, s0, f = _grid_min(profile, np.zeros_like(top), top, first=1)
    return np.hstack((s0, f, np.minimum(adc * np.exp(tau), D_STAR_MAX))).T


def _polish(s: np.ndarray, e_adc: np.ndarray, start: np.ndarray, lower: np.ndarray,
            b: np.ndarray) -> IvimFit:
    """LM from the searched point ``start`` = (S0, f, D*); its result is the voxel's.

    ``e_adc`` is exp(-ADC b) and ``lower`` is (0, 0, ADC). LM starts at the
    searched point exactly, even on an edge of the closed box
    [0, inf) x [0, 1] x [ADC, D_STAR_MAX].
    """
    def residual(th):
        return th[0] * (th[1] * np.exp(-th[2] * b) + (1.0 - th[1]) * e_adc) - s

    def jacobian(th):
        s0, f, d_star = th
        e = np.exp(-d_star * b)
        return np.array((f * e + (1.0 - f) * e_adc, s0 * (e - e_adc), -s0 * f * b * e))

    result = lm.lm_fit(lm.FitProblem(residual, jacobian, start, lower, _IVIM_UPPER))
    s0, f, d_star = result.params.tolist()
    return IvimFit(s0, f, d_star, math.sqrt(result.ssr / b.size) / s0)


def fit_ivim(sig: VoxelSignal, adc: float) -> IvimFit | None:
    """Biexponential fit of (S0, f, D*) at a fixed adc; None where the voxel's data fail it.

    The same two stages as ``fit_volume``'s IVIM step on a batch of one: the
    profiled search over log D*, then the LM polish from its point.
    """
    if not 0 < adc < D_STAR_MAX:
        raise ValueError(f"adc must lie in (0, D_STAR_MAX = {D_STAR_MAX}), got {adc}")
    b, s = sig.bvalues, sig.intensities
    if not _usable(b, s[None])[0]:
        return None
    return _polish(s, np.exp(-adc * b), _search(b, s[None], np.array([adc]))[:, 0],
                   np.array((0.0, 0.0, adc)), b)


def _fit_signals(b: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """(S0, f, D*, ADC, residual) of each row of an (N, n_b) sample matrix: shape (N, 5).

    ``b`` is ascending and the samples are non-negative; a row the data rule
    fails is NaN. The usable rows run ``fit_volume``'s four stages in blocks
    of at most ``_BLOCK`` (voxel, grid point, b-value) elements. Each polish
    takes its start, its bounds and its samples' mask or exp(-ADC b) as rows
    of arrays built once per block, so a call repeats no numpy work that the
    block has done.
    """
    out = np.full((len(signals), 5), np.nan)
    rows = np.flatnonzero(_usable(b, signals))
    size = max(1, _BLOCK // ((_COARSE + 1) * b.size))
    for lo in range(0, rows.size, size):
        at = rows[lo:lo + size]
        block = signals[at]
        keep = (b > B_THRESHOLD) & (block > 0)
        adc = np.array([_polish_adc(s, k, start, b).adc
                        for s, k, start in zip(block, keep, _search_adc(b, block).T)])
        lower = np.zeros((len(at), 3))
        lower[:, 2] = adc
        fits = map(partial(_polish, b=b), block, np.exp(-adc[:, None] * b),
                   _search(b, block, adc).T, lower)
        out[at] = [(fit.s0, fit.f, fit.d_star, a, fit.residual) for fit, a in zip(fits, adc)]
    return out


def fit_volume(series: DwiSeries, mask: BinaryMask) -> IvimMaps:
    """Fit every masked voxel; NaN outside the mask and where a voxel's data fail it.

    ``series`` is averaged by b-value first (``grid.average_by_bvalue``), and
    two of its b-values must lie above ``B_THRESHOLD``. The masked
    samples, clamped at 0, form a (voxels, b-values) signal matrix. After the
    data rule has set the failed voxels aside, the usable voxels run in
    blocks, and each block runs four stages:

    1. one search over the block for each voxel's least profiled
       mono-exponential cost in log ADC, then one Newton step from it;
    2. the LM polish of that point, per voxel, which fixes the ADC;
    3. one search over the block for each voxel's least profiled IVIM cost
       in log D*;
    4. the LM polish of that point, per voxel.

    The result is independent of voxel visit order and of the block a voxel
    falls in: no voxel's arithmetic depends on another's.
    """
    mask.require_same_grid(series, "mask", "series")
    series = average_by_bvalue(series)
    if np.count_nonzero(series.bvalues > B_THRESHOLD) < 2:
        raise ValueError(f"need at least 2 distinct b-values above the threshold {B_THRESHOLD}")

    flat_idx = np.flatnonzero(mask.data.ravel())
    n_vox = int(np.prod(series.dims))
    signals = np.maximum(series.data.reshape(series.n_frames, n_vox)[:, flat_idx].T, 0.0)
    maps = np.full((5, n_vox), np.nan)  # one row per map: each Volume3D is a view of it
    maps[:, flat_idx] = _fit_signals(np.asarray(series.bvalues), signals).T
    fitted = ~np.isnan(maps[3])  # a usable voxel's ADC lies in the box
    return IvimMaps(*(Volume3D(m.reshape(series.dims), series.spacing) for m in maps),
                    mask=BinaryMask(fitted.reshape(series.dims), series.spacing))


def boundary_hits(maps: IvimMaps) -> int:
    """Number of fitted voxels whose ADC lies within 1% of ``ADC_MIN`` or ``ADC_MAX``."""
    adc = maps.adc.data[maps.mask.data]
    return int(((adc <= ADC_MIN * _BOUND_MARGIN) | (adc >= ADC_MAX / _BOUND_MARGIN)).sum())


def summarize(maps: IvimMaps) -> dict | None:
    """The summary metrics of one subject's fitted maps.

    Volume, the mean of every map, the CV of s0, f, D* and ADC, and the
    ``ENTROPY_BINS``-bin histogram entropy of f, D* and ADC, all over the
    fitted voxels. None where a CV is undefined: with fewer than two fitted
    voxels, or when every fitted f is 0 (f's mean is then 0; ADC and D* are
    positive by the fit's box, and S0 by the positive b=0 sample that the
    data rule asks for).
    """
    m = maps.mask.data
    if maps.mask.voxel_count < 2 or not maps.f.data[m].any():
        return None
    values = {name: getattr(maps, name).data[m]
              for name in ("s0", "f", "d_star", "adc", "residual")}
    return {
        "volume_ml": maps.mask.volume_ml,
        **{f"{name}_mean": float(v.mean()) for name, v in values.items()},
        **{f"{name}_cv": stats.cv(values[name]) for name in ("s0", "f", "d_star", "adc")},
        **{f"{name}_entropy": stats.shannon_entropy(values[name], ENTROPY_BINS)
           for name in ("f", "d_star", "adc")},
    }

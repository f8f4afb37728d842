"""Quantitative DWI lung analysis: model fitting, mask fusion, volume-based screening."""

from .grid import (BinaryMask, DwiSeries, IvimMaps, VoxelSpacing, Volume3D,
                   average_by_bvalue)
from .ivim import (IvimFitConfig, VoxelSignal, fit_adc, fit_ivim, fit_volume,
                   summarize)
from .masks import FusionStrategy, dice, fuse, hausdorff
from .phantom import PhantomBundle, PhantomConfig, add_noise, make_phantom, perturb_mask

__version__ = "0.1.0"

__all__ = [
    "BinaryMask", "DwiSeries", "FusionStrategy", "IvimFitConfig", "IvimMaps",
    "PhantomBundle", "PhantomConfig", "VoxelSignal", "VoxelSpacing", "Volume3D",
    "add_noise", "average_by_bvalue", "dice", "fit_adc", "fit_ivim", "fit_volume",
    "fuse", "hausdorff", "make_phantom", "perturb_mask", "summarize",
]

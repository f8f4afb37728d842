"""Quantitative DWI lung analysis: model fitting, mask fusion, volume-based screening.

The package binds only ``__version__``; import a module (``from ivimlab import ivim``).
"""

__version__ = "0.1.0"

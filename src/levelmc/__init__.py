"""Multilevel, continuous-level and quasi continuous-level Monte Carlo
estimators for an elliptic PDE with a random discontinuous diffusion
coefficient, on top of an adaptive P1 finite element solver with residual
a-posteriori error control.

The package exports the estimator entry points; everything else is
imported from its submodule (``levelmc.mesh``, ``levelmc.fem``, ...).
"""

from .clmc import ClmcConfig, run_clmc
from .mlmc import EstimatorRun, MlmcConfig, PdeLevelModel, run_mlmc

__all__ = ["ClmcConfig", "EstimatorRun", "MlmcConfig", "PdeLevelModel", "run_clmc", "run_mlmc"]

__version__ = "0.1.0"

"""Adaptive multilevel Monte Carlo with adjoint-based error estimates.

Estimates expected values of quantities of interest of random-parameter
differential equations.  A posteriori error estimates from adjoint
(dual) solves provide the MLMC bias and stopping criterion and drive the
creation of new mesh levels via dual-weighted-residual or meso-scale
refinement.  The package root exports the run API and the model protocol's
types; everything else is imported from its submodule.
"""

from .driver import MlmcError, MlmcEstimate, MlmcRunConfig, run_adaptive_mlmc
from .error_estimation import ErrorDecomposition
from .experiments import OdeMlmcModel, get_experiment
from .refinement import RefinementConfig
from .sampling import ParameterDistribution
from .stationary import BvpMlmcModel

__version__ = "0.1.0"

"""Adaptive multilevel Monte Carlo with adjoint-based error estimates.

Estimates expected values of quantities of interest of random-parameter
differential equations.  A posteriori error estimates from adjoint
(dual) solves provide the MLMC bias and stopping criterion and drive the
creation of new mesh levels via dual-weighted-residual or meso-scale
refinement.
"""

from .driver import (LevelSummary, MlmcError, MlmcEstimate, MlmcRunConfig,
                     level_bias, level_variance, optimal_samples,
                     run_adaptive_mlmc, take_sample)
from .error_estimation import (AccumulatedError, DegenerateDenominator,
                               ErrorDecomposition, accumulate,
                               estimate_event_time_error,
                               estimate_standard_error)
from .experiments import (EXPERIMENT_NAMES, OdeExperiment, OdeMlmcModel,
                          get_experiment)
from .meshes import (IntervalSet, Mesh1D, MeshError, MesoRegion, RegionSpan,
                     SpatialMesh1D, TemporalMesh, common_mesoregion_refinement,
                     mesh_from_region_spans, refine_intervals, region_spans,
                     uniform_mesh, uniform_refine, whole_domain_span)
from .models import (OdeProblem, SampleFailure, harmonic_oscillator, lorenz,
                     two_body)
from .qoi import (EventNotFound, NonstandardQoi, StandardQoi, eval_event_time,
                  eval_standard, event_times)
from .refinement import (RefinementConfig, allocate_meso, build_next_mesh,
                         dwr_select, find_meso_regions, refine_dwr_multisample,
                         refine_meso, refine_uniform)
from .sampling import (DistributionError, ParameterDistribution,
                       ParameterSample, normal, sample_parameters, uniform)
from .solvers import (Trajectory, residual_pairing, restrict_mesh,
                      solve_adjoint, solve_forward_cg1)
from .stationary import (BvpMlmcModel, BvpProblem, bvp_error_decomposition,
                         bvp_initial_mesh, bvp_refinement, qoi_value,
                         run_bvp_mlmc, solve_bvp_adjoint, solve_bvp_p1)

__version__ = "0.1.0"

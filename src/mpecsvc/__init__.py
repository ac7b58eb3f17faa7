"""Hyperparameter selection for L1 support vector classification.

The cross-validation bilevel problem is assembled as a sparse mathematical
program with equilibrium constraints and solved by a smoothing damped Newton
method; an independent dual coordinate-descent grid search serves as oracle.
"""

from .data import Dataset, SplitPlan, make_split, parse_libsvm, write_libsvm
from .driver import (OuterConfig, SolveReport, assumption2_value,
                     classify_index_sets, cv_error, eps_schedule,
                     initial_point, postprocess, run_smoothing, test_error)
from .kkt import (KktOperator, KktPoint, licq_probe, merit, merit_grad,
                  residual)
from .krylov import KrylovResult, bicgstab
from .newton import NewtonConfig, armijo_search, solve_subproblem
from .problem import MpecProblem, assemble, eval_G, eval_H
from .smoothing import (CurvatureCoeffs, SmoothingWeights, fb_curvature,
                        fb_value, fb_weights)
from .svc import grid_search, solve_l1svc_dual

__version__ = "0.1.0"

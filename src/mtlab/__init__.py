"""Measure transport schemes with certified 1/2-order Wasserstein convergence.

Evolves probability measures under the conservative transport equation with
bounded one-sided-Lipschitz velocity fields using upwind, generalized-flux and
semi-Lagrangian schemes, reads each scheme as a Markov chain on grid nodes,
and measures convergence against closed-form reference solutions in exact
Wasserstein distance.
"""

__version__ = "0.1.0"

from .measures import (  # noqa: E402
    AnalyticMeasure,
    CartesianGrid,
    DiscreteMeasure,
    QuantileFunction,
    dirac,
    project_initial,
    quantile,
    uniform,
)
from .schemes import CflError, CflReport, SchemeSpec, check_cfl, run, step
from .stochastic import (
    TransitionKernel,
    TrajectoryBatch,
    empirical_law,
    increment_residual,
    kernel_of,
    make_kernels,
    propagate_law,
    sample_paths,
    total_variation,
)
from .flows import (
    ExactSolution,
    binomial_w1_bruteforce,
    binomial_w1_exact,
    central_binomial_ratio,
    euler_flow,
    euler_step,
    exact_solution,
    quantile_of_analytic,
)
from .velocity import VelocityField, constant, named_field
from .wasserstein import (
    PiecewiseConstantDensity,
    bv_seminorm,
    indicator,
    interpolation_check,
    l1_distance,
    w1_pair,
    wp_1d,
    wp_discrete,
)
from .simplex import (
    NodeMeasure,
    TriMesh,
    barycentric,
    parse_mesh,
    sl_kernel,
    sl_run,
    sl_step,
    structured_mesh,
)
from .harness import (
    ConfigError,
    ConvergenceReport,
    StudyConfig,
    TriStudyConfig,
    emit_report,
    fit_order,
    run_study,
    run_tri_study,
    theorem_envelope_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Saddle-point search on point-cloud manifolds via learned local charts."""

from .dimred import (
    DiffusionMapResult,
    PointCloud,
    bandwidth_median_rule,
    diffusion_maps,
    select_chart_components,
)
from .driver import (
    DriverConfig,
    IterationRecord,
    ProblemDefinition,
    SearchTrajectory,
    build_local_chart,
    check_convergence,
    integrate_isd_on_chart,
    run_search,
)
from .errors import (
    ChartFitError,
    DegenerateChartError,
    NonFiniteEvaluationError,
    SaddlemapError,
    TetherResidualError,
)
from .geometry import (
    ChartGeometry,
    ChristoffelSymbols,
    CovariantHessian,
    GADState,
    GeometryField,
    MetricTensor,
    christoffel,
    covariant_hessian_from_force,
    gad_extended_field,
    isd_field,
    metric_from_jacobian,
    rayleigh_quotient,
    sharp_flat,
    smallest_eigpair,
)
from .regression import (
    RegressorModel,
    fit,
    fit_with_nugget_selection,
    score,
)
from .sampling import (
    SamplerConfig,
    TetherConfig,
    invert_chart_via_tether,
    sample_cloud,
)

__version__ = "0.1.0"

"""Numerical toolkit for Randers metrics, Finsler gradients and foliations."""

__version__ = "0.1.0"

from .calculus import (
    Covector,
    GradientResult,
    ScalarField,
    check_randers_gradient_lemma,
    coordinate_hessian_at_critical,
    finsler_gradient,
    hessian_along_gradient,
    legendre,
    legendre_inverse,
)
from .domains import BoxDomain, DiscDomain, Domain
from .foliation import (
    LevelSetSample,
    OrthogonalCone,
    ParallelismReport,
    PartitionReport,
    build_cylinder,
    check_finsler_partition,
    check_parallel,
    extract_level_set,
    orthogonal_cone,
)
from .geodesics import (
    CrossingEvent,
    GeodesicTrajectory,
    geodesic_at_times,
    integrate_geodesic,
    integrate_to_level,
    orthogonality_defect,
    spray_coefficients,
)
from .metrics import (
    CustomMetric,
    Metric,
    RandersMetric,
    ReverseMetric,
    RiemannianMetric,
    TangentVector,
    cartan_tensor,
    euclidean_metric,
)
from .scenarios import (
    Chart,
    Scenario,
    ScenarioConfig,
    build_scenario,
    list_examples,
    load_example,
    minkowski_randers_distance,
    parse_scenario,
    render_scenario,
)
from .transnormal import (
    BFit,
    FSegment,
    MorseBottReport,
    TransnormalityReport,
    check_hat_metric_reduction,
    check_hessian_identity,
    check_morse_bott,
    check_transnormal,
    gradient_geodesic_deviation,
    hat_metric,
    trace_f_segment,
    verify_distance_formula,
)

__all__ = [name for name in dir() if not name.startswith("_")]

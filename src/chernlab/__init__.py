"""Numerical laboratory for Chern-connection curvature invariants and
Schwarz-type inequalities on Hermitian coordinate charts."""

from .cones import (
    SbcResult,
    rbc_bounds,
    sbc_along_map,
    sbc_bound,
    sbc_infimum,
    sbc_value,
)
from .curvature import (
    CurvatureReport,
    chern_curvature,
    curvature_report,
    hsc,
    kahler_symmetry_check,
    ricci,
)
from .exprparse import parse_metric_expression
from .maps import (
    HolomorphicMapModel,
    SingularFrameData,
    catalog_map,
    energy_density,
    jacobian,
    laplacian_energy,
    laplacian_log_energy,
    map_identity,
    map_linear,
    map_mobius,
    map_power,
    map_product,
    map_scaling,
    pullback_metric,
    singular_frames,
)
from .metrics import ChartedHermitianMetric, Domain, catalog_metric, metric_derivatives, scale_metric
from .tensors import (
    FrameCurvatureMatrices,
    curvature_in_frame,
    gram_unitary_frame,
    hermitian_inverse,
)
from .verify import (
    HypothesisConstants,
    SchwarzPass,
    SchwarzVerdict,
    averaged_hsc_check,
    estimate_hypotheses,
    fs_moment_check,
    schwarz_verify,
    theorem23_check,
)

__version__ = "0.1.0"

"""Multiscale covariance tensor fields for weighted point measures.

The covariance tensor field of a measure assigns to every point x and scale
sigma the kernel-weighted covariance of the measure about x.  This package
evaluates such fields and their Fréchet (trace) functions, recovers
dimension and curvature from their spectra, certifies Wasserstein stability
bounds with exact transport solvers, and clusters manifold-structured data
through a tensorized metric and single linkage.
"""

from .fields import (
    CovTensor,
    FieldGrid,
    FlowResult,
    SpectrumSummary,
    basin_labels,
    ctf_at,
    ctf_grid,
    dimension_estimate,
    flow_to_attractor,
    frechet_gradient,
    frechet_value,
    spectrum,
)
from .geometry import (
    CurveCurvatureEstimate,
    SurfaceCurvatureEstimate,
    circle_eigenvalues,
    circle_tensor,
    curve_curvature,
    gaussian_transfer_hat,
    sphere_eigenvalues,
    subspace_tensor,
    surface_curvatures,
    wedge_tensor,
)
from .kernels import (
    KernelConstants,
    RadialKernel,
    builtin_gaussian,
    builtin_truncation,
    derive_constants,
    eval_kernel,
    kernel_by_name,
    load_profile_csv,
    q_tensor,
    tabulated_kernel,
    unit_ball_volume,
    unit_sphere_area,
)
from .measures import (
    LabeledDataset,
    MeasureFormatError,
    NumericalError,
    WeightedMeasure,
    empirical_measure,
    gen_arrangement_suite,
    gen_line_arrangement,
    load_measure,
    quadrature_arc,
    quadrature_cap,
    quadrature_circle,
    quadrature_disk,
    quadrature_segment,
    quadrature_sphere,
    save_measure,
)
from .transport import (
    Correspondence,
    StabilityReport,
    TransportPlan,
    check_stability_smooth,
    check_stability_trunc,
    correspondence_from_plan,
    distortion,
    radial_moment,
    radial_moment_bound,
    truncation_stability_constant,
    w1_exact,
    winf_exact,
)
from .clustering import (
    ClusterAssignment,
    Dendrogram,
    TensorizedMetricParams,
    cut,
    dendrogram_distortion_check,
    mean_cophenetic,
    score,
    single_linkage,
    tensorized_distances,
    topk_reassign,
)
from .experiments import (
    BenchmarkConfig,
    BenchmarkResult,
    ConvergeConfig,
    ConvergenceReport,
    run_cluster_benchmark,
    run_converge,
    square_grid,
)
from .plots import dendrogram_svg, heatmap_svg, loglog_svg, tensor_glyphs_svg

__version__ = "0.1.0"

"""Sliced fused Gromov-Wasserstein discrepancies between point clouds.

The family: plain sliced averaging over uniform directions (sfg), the best
single direction (max_sfg), and smoothed variants that optimize the location
of a vMF (ssfg), power spherical (pssfg), or mixture-of-vMF (mssfg) slicing
distribution on the sphere.

The 1D kernels are vectorized numpy; ``backend_name()`` reports that build
and ``NUMBA_AVAILABLE`` stays False for tools that record them.
"""

from .fgw import (
    FgwConfig,
    MonotoneCoupling,
    Projected1D,
    as_point_cloud,
    fgw_1d,
    fgw_1d_grad,
    project,
)
from .sampling import (
    MixtureVmfParams,
    PowerSphericalParams,
    SamplingError,
    VmfParams,
    householder_matrix,
    make_rng,
    sample_mixture_vmf,
    sample_power_spherical,
    sample_uniform_sphere,
    sample_vmf,
)
from .sphere_opt import (
    GradientMethod,
    tangent_basis,
)
from .discrepancies import (
    DiracSlicing,
    DiscrepancyReport,
    DivergenceError,
    OptimizerConfig,
    UniformSlicing,
    expected_fgw,
    max_sfg,
    mssfg,
    pssfg,
    sample_slicing,
    sfg,
    slice_costs,
    ssfg,
)
from .experiments import (
    ExperimentResult,
    FlowObjective,
    FlowResult,
    GmmParams,
    Record,
    convergence_rate,
    four_mode_gmm,
    gmm_fit,
    kappa_sweep,
    particle_flow,
    sample_gmm,
)

__version__ = "0.1.0"

NUMBA_AVAILABLE = False


def backend_name() -> str:
    """Name of the kernel build: always 'numpy'."""
    return "numpy"


__all__ = [
    "NUMBA_AVAILABLE",
    "backend_name",
    "FgwConfig",
    "MonotoneCoupling",
    "Projected1D",
    "as_point_cloud",
    "fgw_1d",
    "fgw_1d_grad",
    "project",
    "MixtureVmfParams",
    "PowerSphericalParams",
    "SamplingError",
    "VmfParams",
    "householder_matrix",
    "make_rng",
    "sample_mixture_vmf",
    "sample_power_spherical",
    "sample_uniform_sphere",
    "sample_vmf",
    "GradientMethod",
    "tangent_basis",
    "DiracSlicing",
    "DiscrepancyReport",
    "DivergenceError",
    "OptimizerConfig",
    "UniformSlicing",
    "expected_fgw",
    "max_sfg",
    "mssfg",
    "pssfg",
    "sample_slicing",
    "sfg",
    "slice_costs",
    "ssfg",
    "ExperimentResult",
    "FlowObjective",
    "FlowResult",
    "GmmParams",
    "Record",
    "convergence_rate",
    "four_mode_gmm",
    "gmm_fit",
    "kappa_sweep",
    "particle_flow",
    "sample_gmm",
    "__version__",
]

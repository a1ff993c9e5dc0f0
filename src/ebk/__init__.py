"""EBK spectra of toric domains.

Level surfaces of homogeneous profiles, their marked action spectra and
Legendre duals, three quantization routes that must agree, and the circular
billiard crosscheck.
"""
from .actions import (
    ActionSpectrum,
    MarkedActionEntry,
    MaslovShift,
    SurfaceActions,
    as_shift,
    billiard_orbit_action,
    marked_action_spectrum,
)
from .billiard import (
    RADIAL_SHIFT,
    BilliardLevel,
    CrosscheckReport,
    RamosCurve,
    boundary_normal,
    boundary_point,
    boundary_tangent,
    direction_parameter,
    crosscheck_disk,
    disk_profile,
    energy_from_momentum,
    radial_phase,
    radial_phase_slope,
    ramos_action,
    solve_momentum,
)
from .catalog import DomainSpec, load_domain_file, parse_domain_spec
from .duality import (
    PointCloud,
    ReconstructionReport,
    ReconstructionResult,
    conjugate_function,
    convex_conjugate,
    hausdorff_distance,
    hypersurface_transform,
    reconstruct_surface,
    support_function,
)
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DegenerateGradient,
    DirectionNotAttained,
    DomainError,
    EbkError,
    EmptySpectrum,
    InsufficientCloud,
    InsufficientResolution,
    InvalidOrbitClass,
    NoQualifyingDirections,
    NonFiniteEnergy,
    NonGraphical,
    NotAttained,
    RayMiss,
    TangentThroughOrigin,
    TooFewNicePoints,
    UnsupportedSurface,
)
from .profiles import (
    ToricProfile,
    euclidean_profile,
    harmonic_profile,
    linear_profile,
    pnorm_profile,
)
from .quantize import (
    EbkSpectrum,
    MinmaxCertificate,
    direct_spectrum,
    lattice_grid,
    minmax_certificate,
    reconstruction_spectrum,
    variational_spectrum,
)
from .surfaces import (
    InversionResult,
    LevelSurface,
    Orientation,
    gauss_map,
    legendre_point,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

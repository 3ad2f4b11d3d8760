"""Surface impedance tensors, Rayleigh wave speeds, and subprincipal symbols
for anisotropic linear elastic half-spaces."""

from .material import (
    GPA,
    Material,
    MaterialError,
    StiffnessTensor,
    SurfaceFrame,
    acoustic_tensor,
    isotropic_stiffness,
    material_to_json,
    parse_material,
    rotate_stiffness,
    validate_stiffness,
)
from .polyfactor import (
    NonEllipticError,
    QuadraticPencil,
    SpectralFactor,
    build_pencil,
    factor_integral,
    is_elliptic,
    spectral_factor,
)
from .impedance import (
    ImpedanceData,
    SpectralSeparationError,
    impedance_tensor,
    radial_derivative_z,
    solve_zminus,
    sylvester_solve,
)
from .rayleigh import (
    DirectionScan,
    RayleighPoint,
    eval_p,
    rayleigh_point,
    scan_directions,
)
from .isotropic import (
    CurvatureData,
    IsoSurfaceState,
    SubprincipalBreakdown,
    build_Y,
    iso_blocks,
    iso_kernel_vector,
    iso_scalar_derivatives,
    iso_state,
    iso_state_on_sigma,
    rayleigh_cubic_root,
    subprincipal_p,
)

__version__ = "0.1.0"

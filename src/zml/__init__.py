"""Zero modes of two-component (Dirac-Weyl type) operators on the line and
in the radially symmetric plane, for compactly supported magnetic fields.

The package builds the scalar potential lambda by Green-kernel convolution,
constructs the candidate zero modes exp(+-lambda_k) and r^j exp(-lambda),
decides normalizability from exact asymptotics, and cross-checks every
count against an independent discretized spectral oracle.  Every
convolution is a closed form over cumulative moments of the field, computed
in one vectorized Gauss-Kronrod pass (``zml._quadrature``).
"""

from .errors import (CapExceededError, ClusterResolutionError,
                     EigenSolveError, GridError, PaddingError, ProfileError,
                     QuadratureError, ZmlError)
from .profiles import (DIM_LINE, DIM_RADIAL, FieldProfile, Flux, Grid1D, box,
                       bump, make_profile, piecewise_linear, sample,
                       scale_profile, total_flux, truncated_gaussian)
from .potential import (GaugePhase, RadialScalarPotential, ScalarPotential,
                        alpha_gauge, check_padding, lambda_1d,
                        lambda_2d_radial, poisson_residual, required_padding,
                        vector_potential_y)
from .zeromodes import (SECTOR_A, SECTOR_B, SECTOR_NONE, Mode2D, OpenInterval,
                        ScanEntry, SpinSector, ZeroMode, ZeroModeCount2D,
                        admissible_k_interval, build_mode_1d, build_mode_2d,
                        count_2d_zero_modes, holomorphy_residual, scan_k,
                        sector_for_label)
from .spectral import (DiracOperator, Spectrum, build_operator,
                       count_near_zero, default_zero_tolerance,
                       eigen_spectrum, mode_residual, susy_partners,
                       windowed_singular_modes)
from .reduction import (ChannelVerdict, DegeneracyReport, ReductionConfig,
                        admissible_channels, constant_field_degeneracy,
                        default_n_range, degeneracy_general, quantize_ky,
                        verify_degeneracy)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ZmlError", "ProfileError", "GridError", "PaddingError",
    "QuadratureError", "CapExceededError", "EigenSolveError",
    "ClusterResolutionError",
    # profiles
    "DIM_LINE", "DIM_RADIAL", "FieldProfile", "Flux", "Grid1D", "box",
    "bump", "make_profile", "piecewise_linear", "sample", "scale_profile",
    "total_flux", "truncated_gaussian",
    # potential
    "ScalarPotential", "RadialScalarPotential", "GaugePhase", "alpha_gauge",
    "check_padding", "lambda_1d", "lambda_2d_radial", "poisson_residual",
    "required_padding", "vector_potential_y",
    # zeromodes
    "SpinSector", "SECTOR_A", "SECTOR_B", "SECTOR_NONE", "OpenInterval",
    "ZeroMode", "Mode2D", "ZeroModeCount2D", "ScanEntry",
    "admissible_k_interval", "build_mode_1d", "build_mode_2d",
    "count_2d_zero_modes", "holomorphy_residual", "scan_k",
    "sector_for_label",
    # spectral
    "DiracOperator", "Spectrum", "build_operator", "count_near_zero",
    "default_zero_tolerance", "eigen_spectrum", "mode_residual",
    "susy_partners", "windowed_singular_modes",
    # reduction
    "ReductionConfig", "ChannelVerdict", "DegeneracyReport",
    "admissible_channels", "constant_field_degeneracy", "default_n_range",
    "degeneracy_general", "quantize_ky", "verify_degeneracy",
]

"""Scalar potentials generated by a field through Green-kernel convolution.

On the line the potential solving lambda'' = B with kernel |x - x'|/2 is

    lambda_k(x) = int 1/2 |x - x'| B(x') dx' + k x,

affine outside the support with slopes k -/+ Q/2 on the left/right, where Q
is the total flux.  The free linear coefficient k is a first-class parameter
here; in the radially symmetric plane the analogous construction

    lambda(r) = int B(r') r' ln(max(r, r')) dr'        (r0 = 1)

admits no such freedom (linear terms would destroy normalizability of every
mode), so the radial builder takes none.

The same sign-kernel convolution yields the gauge phase that removes a
longitudinal vector-potential component, alpha(x) = 1/2 int sign(x-z) A_x(z) dz,
and the transverse gauge field A_y = d lambda/dx used by the spectral module.

Grids must extend past the support far enough that downstream mode tails
decay below e^-30 before the domain ends; ``required_padding`` encodes that
rule and the builders enforce it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _quadrature
from .errors import GridError, PaddingError, ProfileError
from .profiles import DEFAULT_RTOL, Grid1D, total_flux

__all__ = [
    "ScalarPotential",
    "RadialScalarPotential",
    "GaugePhase",
    "required_padding",
    "check_padding",
    "lambda_1d",
    "lambda_2d_radial",
    "vector_potential_y",
    "alpha_gauge",
    "poisson_residual",
]

TWO_PI = 2.0 * math.pi

# tail suppression target: exp(-PADDING_DECAY) at the grid ends
PADDING_DECAY = 30.0
PADDING_FLOOR = 5.0


@dataclass(frozen=True, eq=False)
class ScalarPotential:
    """Sampled lambda_k on a line grid plus its exact asymptotic slopes."""

    grid: Grid1D
    values: np.ndarray
    k: float
    flux: object
    slope_left: float   # k - Q/2, the affine slope for x <= support start
    slope_right: float  # k + Q/2, the affine slope for x >= support end

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RadialScalarPotential:
    """Sampled lambda(r); beyond the support lambda = log_coefficient * ln r."""

    grid: Grid1D
    values: np.ndarray
    flux: object
    log_coefficient: float  # Phi / (2 pi)

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True, eq=False)
class GaugePhase:
    """Sampled alpha(x) = 1/2 int sign(x-z) A_x(z) dz on a line grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


def required_padding(Q, k):
    """Padding beyond the support needed on each side for the mode at k.

    Inside the admissible window the slowest tail decays at rate
    min |k -/+ Q/2|, and e^-30 suppression needs 30 over that rate.  At or
    outside the window boundary no tail decays on both sides, so only the
    geometric floor applies.
    """
    half = 0.5 * abs(Q)
    if half > 0.0 and abs(k) < half:
        slope_min = half - abs(k)
        return max(PADDING_FLOOR, PADDING_DECAY / slope_min)
    return PADDING_FLOOR


def check_padding(profile, k, grid, Q):
    """Padding the grid provides past the support on its shorter side.

    Raise PaddingError naming the padding ``required_padding(Q, k)`` asks
    for if the grid provides less; the message says when the floor sets it.
    """
    need = required_padding(Q, k)
    s_lo, s_hi = profile.support
    left = s_lo - grid.x_lo
    right = grid.x_hi - s_hi
    have = min(left, right)
    if have < need:
        floor = " (the padding floor)" if need == PADDING_FLOOR else ""
        raise PaddingError(
            f"grid [{grid.x_lo}, {grid.x_hi}] extends only {left:.3g} (left) / "
            f"{right:.3g} (right) past the support [{s_lo}, {s_hi}]; "
            f"k={k} with Q={Q} requires padding >= {need:.3g} on each "
            f"side{floor}",
            required=need, available=have)
    return have


def _check_finite(values, grid):
    """Raise GridError naming the grid if a lambda value overflowed."""
    if not np.isfinite(values).all():
        raise GridError("lambda overflows a float on the grid "
                        f"[{grid.x_lo}, {grid.x_hi}]")


def lambda_1d(profile, k, grid, rtol=DEFAULT_RTOL, enforce_padding=True):
    """Build lambda_k on the grid.

    The convolution is a closed form over the prefix moments int B and
    int t B, integrated once over the cells between the grid points, the
    profile breakpoints and the support ends (``zml._quadrature``), so it is
    exactly affine outside the support; the k x term is added afterwards so
    that lambda_k - lambda_0 = k x holds pointwise to rounding.
    """
    if profile.is_radial:
        raise ProfileError("lambda_1d needs a line profile; "
                           "use lambda_2d_radial for radial ones")
    flux = total_flux(profile, rtol=rtol)
    if enforce_padding:
        check_padding(profile, k, grid, Q=flux.value)
    x = grid.points()
    with np.errstate(over="ignore", invalid="ignore"):
        values = _quadrature.convolve_abs(profile, x, rtol) + k * x
    _check_finite(values, grid)
    return ScalarPotential(grid=grid, values=values, k=float(k), flux=flux,
                           slope_left=k - 0.5 * flux.value,
                           slope_right=k + 0.5 * flux.value)


def lambda_2d_radial(profile, grid, rtol=DEFAULT_RTOL):
    """Radial scalar potential of a radially symmetric plane field.

    The azimuthal integral of the plane log kernel reduces to
    ln(max(r, r')), so beyond the support lambda(r) = (Phi/2pi) ln r exactly.
    Linear terms are fixed to zero: with them no plane mode is normalizable.
    """
    if not profile.is_radial:
        raise ProfileError("lambda_2d_radial needs a radial-plane profile")
    if grid.x_lo < 0.0:
        raise GridError("radial grids must have x_lo >= 0")
    flux = total_flux(profile, rtol=rtol)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _quadrature.convolve_log_radial(profile, grid.points(), rtol)
    _check_finite(values, grid)
    return RadialScalarPotential(grid=grid, values=values, flux=flux,
                                 log_coefficient=flux.value / TWO_PI)


def vector_potential_y(profile, xs, rtol=DEFAULT_RTOL):
    """A_y(x) = d lambda/dx = int 1/2 sign(x - x') B(x') dx' at the points xs."""
    if profile.is_radial:
        raise ProfileError("vector_potential_y needs a line profile")
    return _quadrature.convolve_sign(profile, xs, rtol)


def alpha_gauge(ax_profile, grid, rtol=DEFAULT_RTOL):
    """Gauge phase removing a compactly supported A_x from the equations.

    alpha(x) = 1/2 int sign(x - z) A_x(z) dz, so d alpha/dx = A_x and the
    limits at the two grid ends are -/+ half the integral of A_x.
    """
    if ax_profile.is_radial:
        raise ProfileError("alpha_gauge needs a line profile for A_x")
    values = vector_potential_y(ax_profile, grid.points(), rtol=rtol)
    return GaugePhase(grid=grid, values=values)


def poisson_residual(pot, profile, away_from_kinks=0.0):
    """Max-norm defect of the discrete Poisson equation on interior points.

    Line potentials are checked against lambda'' = B, radial ones against
    lambda'' + lambda'/r = B, both via second-order central differences, so
    the residual decays like h^2 wherever B is smooth.  Points within
    ``away_from_kinks`` of the support edges or profile breakpoints can be
    excluded (central differences straddling a kink do not converge).
    """
    grid = pot.grid
    x = grid.points()
    h = grid.h
    v = pot.values
    lap = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h)
    xi = x[1:-1]
    if isinstance(pot, RadialScalarPotential):
        if not profile.is_radial:
            raise GridError("radial potential paired with a line profile")
        if np.any(xi == 0.0):
            raise GridError("radial Laplacian is singular at r = 0; "
                            "use a grid whose interior avoids it")
        lap = lap + (v[2:] - v[:-2]) / (2.0 * h) / xi
    elif profile.is_radial:
        raise GridError("line potential paired with a radial profile")
    b = profile(xi)
    resid = np.abs(lap - b)
    if away_from_kinks > 0.0:
        kinks = list(profile.support) + list(profile.seeds)
        keep = np.ones(xi.shape, dtype=bool)
        for kk in kinks:
            keep &= np.abs(xi - kk) > away_from_kinks
        if not keep.any():
            raise GridError("kink exclusion removed every interior point")
        resid = resid[keep]
    return float(resid.max())

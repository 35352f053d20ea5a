"""Compactly supported magnetic field profiles and their fluxes.

A profile is a scalar field B with *exact* compact support: evaluation
returns a hard zero outside a finite interval (an interval of radii for the
radially symmetric plane case).  Four kinds are provided:

- ``box``: B0 on [-a, a] (a disc of radius a in the radial case);
- ``truncated-gaussian``: a Gaussian of width sigma shifted down so it is
  continuous at the cutoff and hard-zero beyond it;
- ``bump``: the C-infinity mollifier B0 exp(1 - 1/(1 - (x/a)^2)), hard zero
  at |x| >= a;
- ``piecewise-linear``: linear interpolation through breakpoints, zero
  outside the first/last breakpoint.

Fluxes use closed forms where they exist and Gauss-Kronrod quadrature
(``zml._quadrature``) otherwise; uniform fields on the whole line are out of
scope (use a wide box).  All objects are immutable and evaluation is pure,
so everything here is safe to share across threads.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _quadrature
from .errors import GridError, ProfileError

__all__ = [
    "DIM_LINE",
    "DIM_RADIAL",
    "DEFAULT_RTOL",
    "Grid1D",
    "FieldProfile",
    "Flux",
    "make_profile",
    "box",
    "truncated_gaussian",
    "bump",
    "piecewise_linear",
    "scale_profile",
    "total_flux",
    "sample",
]

DIM_LINE = "line"
DIM_RADIAL = "radial-plane"
DEFAULT_RTOL = 1e-10
TWO_PI = 2.0 * math.pi

_KINDS = ("box", "truncated-gaussian", "bump", "piecewise-linear")


@dataclass(frozen=True)
class Grid1D:
    """Uniform sampling grid with n >= 3 points on [x_lo, x_hi]."""

    x_lo: float
    x_hi: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi)):
            raise GridError("grid bounds must be finite")
        if self.x_hi <= self.x_lo:
            raise GridError(f"grid bounds must increase, got "
                            f"[{self.x_lo}, {self.x_hi}]")
        if int(self.n) != self.n or self.n < 3:
            raise GridError(f"grid needs an integer n >= 3, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self):
        return (self.x_hi - self.x_lo) / (self.n - 1)

    def points(self):
        return np.linspace(self.x_lo, self.x_hi, self.n)


@dataclass(frozen=True, eq=False)
class FieldProfile:
    """A field B with hard compact support; call it to evaluate."""

    kind: str
    dimension: str
    params: dict
    support: tuple
    kernel_params: tuple
    seeds: tuple = ()

    @property
    def is_radial(self):
        return self.dimension == DIM_RADIAL

    def __call__(self, x):
        values = _quadrature.field_values(self, x)
        return float(values) if np.isscalar(x) else values

    def max_abs(self):
        """Upper bound max |B|; exact for all kinds (attained at a node)."""
        if self.kind in ("box", "truncated-gaussian", "bump"):
            return abs(self.params["B0"])
        return max(abs(v) for v in self.params["values"])


@dataclass(frozen=True)
class Flux:
    """Total field integral (line) or plane integral (radial), hbar = e = 1."""

    value: float
    method: str


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ProfileError(f"parameter {name!r} must be finite, got {value}")
    return float(value)


def _require_positive(name, value):
    value = _require_finite(name, value)
    if value <= 0.0:
        raise ProfileError(f"parameter {name!r} must be > 0, got {value}")
    return value


def make_profile(kind, dimension=DIM_LINE, **params):
    """Build a validated FieldProfile from a kind tag and named parameters.

    Raises ProfileError for unknown kinds, non-positive widths, NaN
    parameters, or empty/disordered breakpoint lists.
    """
    if kind not in _KINDS:
        raise ProfileError(f"unknown profile kind {kind!r}; expected one of {_KINDS}")
    if dimension not in (DIM_LINE, DIM_RADIAL):
        raise ProfileError(f"unknown dimension {dimension!r}")

    def finish(named, support, kparams, seeds=()):
        return FieldProfile(kind=kind, dimension=dimension, params=named,
                            support=support, kernel_params=tuple(kparams),
                            seeds=tuple(seeds))

    if kind == "box":
        b0 = _require_finite("B0", params.pop("B0"))
        a = _require_positive("a", params.pop("a"))
        _reject_extras(params)
        support = (0.0, a) if dimension == DIM_RADIAL else (-a, a)
        return finish({"B0": b0, "a": a}, support, (b0, a))
    if kind == "truncated-gaussian":
        b0 = _require_finite("B0", params.pop("B0"))
        sigma = _require_positive("sigma", params.pop("sigma"))
        cut = _require_positive("cutoff", params.pop("cutoff"))
        _reject_extras(params)
        support = (0.0, cut) if dimension == DIM_RADIAL else (-cut, cut)
        return finish({"B0": b0, "sigma": sigma, "cutoff": cut},
                      support, (b0, sigma, cut))
    if kind == "bump":
        b0 = _require_finite("B0", params.pop("B0"))
        a = _require_positive("a", params.pop("a"))
        _reject_extras(params)
        support = (0.0, a) if dimension == DIM_RADIAL else (-a, a)
        return finish({"B0": b0, "a": a}, support, (b0, a))
    # piecewise-linear
    points = params.pop("points")
    _reject_extras(params)
    pts = [(float(x), float(v)) for x, v in points]
    if len(pts) < 2:
        raise ProfileError("piecewise-linear needs at least 2 breakpoints")
    for x, v in pts:
        _require_finite("breakpoint", x)
        _require_finite("value", v)
    xs = [x for x, _ in pts]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ProfileError("piecewise-linear breakpoints must strictly increase")
    if dimension == DIM_RADIAL and xs[0] < 0.0:
        raise ProfileError("radial breakpoints must have r >= 0")
    flat = [c for pt in pts for c in pt]
    return finish({"points": tuple(pts), "values": tuple(v for _, v in pts)},
                  (xs[0], xs[-1]), flat, seeds=xs[1:-1])


def _reject_extras(params):
    if params:
        raise ProfileError(f"unexpected parameters: {sorted(params)}")


def box(B0, a, dimension=DIM_LINE):
    return make_profile("box", dimension, B0=B0, a=a)


def truncated_gaussian(B0, sigma, cutoff, dimension=DIM_LINE):
    return make_profile("truncated-gaussian", dimension, B0=B0, sigma=sigma,
                        cutoff=cutoff)


def bump(B0, a, dimension=DIM_LINE):
    return make_profile("bump", dimension, B0=B0, a=a)


def piecewise_linear(points, dimension=DIM_LINE):
    return make_profile("piecewise-linear", dimension, points=points)


def scale_profile(profile, c):
    """Profile with the field multiplied by the constant c."""
    c = _require_finite("scale", c)
    if profile.kind == "piecewise-linear":
        pts = [(x, c * v) for x, v in profile.params["points"]]
        return make_profile(profile.kind, profile.dimension, points=pts)
    params = dict(profile.params)
    params["B0"] = c * params["B0"]
    return make_profile(profile.kind, profile.dimension, **params)


def _analytic_flux(profile):
    p = profile.params
    radial = profile.is_radial
    if profile.kind == "box":
        b0, a = p["B0"], p["a"]
        return math.pi * a * a * b0 if radial else 2.0 * a * b0
    if profile.kind == "truncated-gaussian":
        b0, s, c = p["B0"], p["sigma"], p["cutoff"]
        tail = math.exp(-c * c / (2.0 * s * s))
        if radial:
            return TWO_PI * b0 * (s * s * (1.0 - tail) - 0.5 * c * c * tail)
        return b0 * (s * math.sqrt(TWO_PI) * math.erf(c / (s * math.sqrt(2.0)))
                     - 2.0 * c * tail)
    if profile.kind == "piecewise-linear":
        total = 0.0
        for (x0, v0), (x1, v1) in zip(p["points"], p["points"][1:]):
            if radial:
                slope = (v1 - v0) / (x1 - x0)
                total += ((v0 - slope * x0) * (x1 * x1 - x0 * x0) / 2.0
                          + slope * (x1 ** 3 - x0 ** 3) / 3.0)
            else:
                total += 0.5 * (v0 + v1) * (x1 - x0)
        return TWO_PI * total if radial else total
    return None  # bump has no closed form


def total_flux(profile, method="auto", rtol=DEFAULT_RTOL):
    """Total flux Q = int B dx (line) or Phi = int B d^2r (radial).

    method: "auto" prefers the closed form, "analytic" requires one,
    "quadrature" forces Gauss-Kronrod quadrature at relative tolerance rtol
    (error estimate at most rtol * int |B|; QuadratureError otherwise).
    """
    if method not in ("auto", "analytic", "quadrature"):
        raise ValueError(f"unknown flux method {method!r}")
    if method != "quadrature":
        value = _analytic_flux(profile)
        if value is not None:
            return Flux(value=value, method="analytic")
        if method == "analytic":
            raise ProfileError(f"profile kind {profile.kind!r} has no "
                               "closed-form flux")
    return Flux(value=_quadrature.flux(profile, rtol), method="quadrature")


def sample(profile, grid):
    """Pointwise field values on a grid; exact zeros outside the support."""
    if not isinstance(grid, Grid1D):
        raise GridError("sample expects a Grid1D")
    return profile(grid.points())

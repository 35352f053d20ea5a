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

``FieldProfile`` is the one place that knows the kinds: a profile
evaluates itself, and ``zml._quadrature`` integrates whatever profile it is
given.  Every kind's flux is a closed form, in both dimensions, so a flux
depends on no tolerance and never fails to converge; uniform fields on the
whole line are out of scope (use a wide box).  All objects are immutable and
evaluation is pure, so everything here is safe to share across threads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ProfileError

__all__ = [
    "DIM_LINE",
    "DIM_RADIAL",
    "DEFAULT_RTOL",
    "MAX_GRID_POINTS",
    "Grid1D",
    "FieldProfile",
    "Flux",
    "make_profile",
    "box",
    "truncated_gaussian",
    "bump",
    "piecewise_linear",
    "total_flux",
]

DIM_LINE = "line"
DIM_RADIAL = "radial-plane"
DEFAULT_RTOL = 1e-10
TWO_PI = 2.0 * math.pi
# Ceiling on grid points: ten times the largest grids the sweeps are measured
# on (1e5-1e6 points), and a refusal here, not a failed allocation, keeps an
# absurd grid.n a config error.  A fixed bound, not a setting.
MAX_GRID_POINTS = 10_000_000
# Floor on the step h, in float spacings at the grid's largest |x|: above
# it the sampled points are distinct and their spacings differ by at most
# 1/_MIN_STEP_ULPS of h, so every composite-Simpson weight is positive.  In
# the subnormal range, where every spacing is ulp(0), linspace's rounded
# step and points drift by up to (n - 1) ulp(0) over the grid, so there the
# floor is _MIN_STEP_ULPS (n - 1) ulp(0).
_MIN_STEP_ULPS = 16

# the parametric kinds and their widths; the last width is the support's
# half-width (its radius in the plane)
_WIDTHS = {"box": ("a",), "truncated-gaussian": ("sigma", "cutoff"),
           "bump": ("a",)}
_KINDS = (*_WIDTHS, "piecewise-linear")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of 3 <= n <= MAX_GRID_POINTS points on [x_lo, x_hi].

    The width x_hi - x_lo must be finite (so the bounds and h are too), and
    h at least _MIN_STEP_ULPS float spacings at the larger |bound|, and at
    least _MIN_STEP_ULPS (n - 1) subnormal spacings ulp(0), so the points do
    not collapse onto each other.
    """

    x_lo: float
    x_hi: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.x_hi - self.x_lo):
            raise GridError(f"grid width x_hi - x_lo must be finite, got "
                            f"[{self.x_lo}, {self.x_hi}]")
        if self.x_hi <= self.x_lo:
            raise GridError(f"grid bounds must increase, got "
                            f"[{self.x_lo}, {self.x_hi}]")
        if int(self.n) != self.n or self.n < 3:
            raise GridError(f"grid needs an integer n >= 3, got {self.n}")
        if self.n > MAX_GRID_POINTS:
            raise GridError(f"grid n = {self.n} exceeds the ceiling "
                            f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        object.__setattr__(self, "n", int(self.n))
        floor = _MIN_STEP_ULPS * max(math.ulp(max(-self.x_lo, self.x_hi)),
                                     (self.n - 1) * math.ulp(0.0))
        if self.h < floor:
            raise GridError(f"grid [{self.x_lo}, {self.x_hi}] with n = "
                            f"{self.n}: step h = {self.h:.3e} is below its "
                            f"floor {floor:.3e} ({_MIN_STEP_ULPS} float "
                            "spacings at its bounds, or per point in the "
                            "subnormal range), so its points collapse")

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
    seeds: tuple = ()

    @property
    def is_radial(self):
        return self.dimension == DIM_RADIAL

    @property
    def is_even(self):
        """Whether the line field has B(-x) = B(x): true for every parametric
        kind, all centred at 0, and for a piecewise-linear profile whose
        breakpoints mirror exactly, each (x, B) matched by (-x, B).  False
        for a radial profile, whose r >= 0 has no mirror image."""
        if self.is_radial:
            return False
        if self.kind != "piecewise-linear":
            return True
        pts = self.params["points"]
        return all(x == -rx and v == rv
                   for (x, v), (rx, rv) in zip(pts, reversed(pts)))

    @property
    def kernel_params(self):
        """The parameters as one flat, hashable tuple: (B0, *widths), or
        the breakpoints' coordinates (x0, B0, x1, B1, ...)."""
        if self.kind == "piecewise-linear":
            return tuple(c for pt in self.params["points"] for c in pt)
        return tuple(self.params.values())

    def __call__(self, x):
        """B at the points x (a scalar gives a float); hard 0.0 outside the
        support."""
        t = np.asarray(x, dtype=float)
        p = self.params
        if self.kind == "piecewise-linear":
            xp, fp = np.array(p["points"]).T
            values = np.interp(t, xp, fp, left=0.0, right=0.0)
        elif self.kind == "box":
            values = np.where(np.abs(t) <= p["a"], p["B0"], 0.0)
        elif self.kind == "truncated-gaussian":
            s, cut = p["sigma"], p["cutoff"]
            inside = np.abs(t) <= cut
            t = np.where(inside, t, 0.0)   # no overflow in t * t far outside
            # t * t overflows inside a cutoff above ~1e154: exp(-inf) = 0
            with np.errstate(over="ignore"):
                gauss = (np.exp(-t * t / (2.0 * s * s))
                         - math.exp(-cut * cut / (2.0 * s * s)))
            values = np.where(inside, p["B0"] * gauss, 0.0)
        else:   # bump
            inside = np.abs(t) < p["a"]
            u = np.where(inside, t / p["a"], 0.0)
            values = np.where(inside, p["B0"] * np.exp(1.0 - 1.0 / (1.0 - u * u)), 0.0)
        return float(values) if np.isscalar(x) else values

    def max_abs(self):
        """Upper bound on max |B|, exact for box, bump and piecewise-linear
        (the truncated gaussian's shift puts its maximum below |B0|)."""
        if self.kind == "piecewise-linear":
            return max(abs(v) for _, v in self.params["points"])
        return abs(self.params["B0"])


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


def _pop(params, name):
    if name not in params:
        raise ProfileError(f"parameter {name!r} is required")
    return params.pop(name)


def make_profile(kind, dimension=DIM_LINE, **params):
    """Build a validated FieldProfile from a kind tag and named parameters.

    Raises ProfileError for unknown kinds, missing parameters, non-positive
    widths (or a sigma whose 2 sigma^2 underflows), NaN parameters or bad
    breakpoint lists.
    """
    if kind not in _KINDS:
        raise ProfileError(f"unknown profile kind {kind!r}; expected one of {_KINDS}")
    if dimension not in (DIM_LINE, DIM_RADIAL):
        raise ProfileError(f"unknown dimension {dimension!r}")
    if kind in _WIDTHS:
        named = {"B0": _require_finite("B0", _pop(params, "B0"))}
        for name in _WIDTHS[kind]:
            named[name] = _require_positive(name, _pop(params, name))
        sigma = named.get("sigma")
        if sigma is not None and 2.0 * sigma * sigma == 0.0:
            raise ProfileError(f"parameter 'sigma' = {sigma} is too small: "
                               "2 sigma^2 underflows to 0")
        _reject_extras(params)
        r = named[_WIDTHS[kind][-1]]
        support = (0.0, r) if dimension == DIM_RADIAL else (-r, r)
        return FieldProfile(kind, dimension, named, support)
    # piecewise-linear
    points = _pop(params, "points")
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
    return FieldProfile(kind, dimension, {"points": tuple(pts)},
                        (xs[0], xs[-1]), seeds=tuple(xs[1:-1]))


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


# int_{-1}^1 exp(1 - 1/(1 - u^2)) du; u = tanh(s/2) makes it 2e f(1/2), with
# f(z) = int_0^inf e^(-z(1 + cosh s)) ds/(1 + cosh s) = z e^-z (K1(z) - K0(z)):
# both vanish at infinity with derivative -e^-z K0(z) (DLMF 10.29, 10.32.9)
_BUMP_LINE = 1.2069003224378763   # correctly rounded
# int_0^1 2u exp(1 - 1/(1 - u^2)) du = e E2(1) by s = 1/(1 - u^2), and
# E2(1) = e^-1 - E1(1) (DLMF 8.19, 6.2)
_BUMP_DISC = 0.4036526376768059   # correctly rounded


def _analytic_flux(profile):
    p = profile.params
    radial = profile.is_radial
    if profile.kind == "box":
        b0, a = p["B0"], p["a"]
        return math.pi * a * a * b0 if radial else 2.0 * a * b0
    if profile.kind == "bump":
        b0, a = p["B0"], p["a"]
        return (math.pi * _BUMP_DISC * b0 * a * a if radial
                else _BUMP_LINE * b0 * a)
    if profile.kind == "truncated-gaussian":
        b0, s, c = p["B0"], p["sigma"], p["cutoff"]
        u = c * c / (2.0 * s * s)
        if u < 0.75:
            # the closed forms below lose about eps/u to cancellation; these
            # series are within 2.3 eps where u < 0.75, and the closed forms
            # within 3.5 eps above it (against a 60-digit reference):
            #   Q   = 4 B0 c sum_{n>=1} (-1)^(n+1) u^n / ((n-1)! (2n+1)),
            #   Phi = 2 pi B0 s^2 sum_{n>=2} (-1)^n (n-1) u^n / n!,
            # each a sum of (-1)^(n+1) w_n u^(n-1) / n!, smallest first, with
            # u (line) or 2 pi s^2 u = pi c^2 (plane) taken out; 18 terms
            # reach eps at u = 0.75
            series = sum(
                (-1) ** (n + 1) * (1 - n if radial else n / (2 * n + 1))
                * u ** (n - 1) / math.factorial(n) for n in range(18, 0, -1))
            return (math.pi * b0 * c * c * series if radial
                    else 4.0 * b0 * c * u * series)
        tail = math.exp(-u)
        if radial:
            # 2 pi s^2 int_0^u (e^-t - e^-u) dt; tail = 0 long before
            # u = inf: no inf * 0 edge term
            edge = u * tail if tail else 0.0
            return TWO_PI * b0 * (s * s * (-math.expm1(-u) - edge))
        return b0 * (s * math.sqrt(TWO_PI) * math.erf(c / (s * math.sqrt(2.0)))
                     - 2.0 * c * tail)
    # piecewise-linear: each segment's exact int B (line) or int r B (radial)
    # from its end points alone, so no thin ring cancels, no steep one overflows
    total = 0.0
    for (x0, v0), (x1, v1) in zip(p["points"], p["points"][1:]):
        if radial:
            total += (x1 - x0) * (x0 * (2.0 * v0 + v1)
                                  + x1 * (v0 + 2.0 * v1)) / 6.0
        else:
            total += 0.5 * (v0 + v1) * (x1 - x0)
    return TWO_PI * total if radial else total


def total_flux(profile):
    """Total flux Q = int B dx (line) or Phi = int B d^2r (radial).

    Every kind has a closed form, so ``Flux.method`` is always
    ``"analytic"``.  A flux that overflows raises ProfileError.
    """
    value = _analytic_flux(profile)
    if not math.isfinite(value):
        raise ProfileError(f"the {profile.kind} profile's flux {value} is "
                           "not finite")
    return Flux(value=value, method="analytic")

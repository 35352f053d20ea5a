"""Field profiles: evaluation, support exactness, fluxes, and properties."""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad

from zml import _quadrature, profiles
from zml.errors import GridError, ProfileError
from zml.profiles import (DEFAULT_RTOL, DIM_LINE, DIM_RADIAL, MAX_GRID_POINTS,
                          Grid1D, box, bump, make_profile, piecewise_linear,
                          total_flux, truncated_gaussian)
from zml.zeromodes import SECTOR_B, count_2d_zero_modes

from dilation import dilate


def _engine_flux(profile, rtol):
    """The flux as the convolutions' quadrature totals it, and int |B| (int
    r |B| in the plane) beside it."""
    w = _quadrature._t if profile.is_radial else _quadrature._one
    scale = 2.0 * math.pi if profile.is_radial else 1.0
    total, size = _quadrature._moments(
        profile, (), (w, lambda t: w(t) * np.sign(profile(t))), rtol)[1]
    return scale * total, scale * size


def _exact_pw_flux(points):
    """A radial piecewise-linear flux: the segment moments int r B summed in
    rationals, rounded once, then times 2 pi as the library does."""
    pts = [(Fraction(x), Fraction(v)) for x, v in points]
    total = sum((x1 - x0) * (x0 * (2 * v0 + v1) + x1 * (v0 + 2 * v1)) / 6
                for (x0, v0), (x1, v1) in zip(pts, pts[1:]))
    return 2.0 * math.pi * float(total)


EPS = np.finfo(float).eps
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _decimal_gaussian_flux(b0, s, c, radial):
    """The truncated gaussian's flux to 60 digits from the float inputs:
    int_-c^c e^(-x^2/2s^2) dx is s sqrt(2 pi) erf(c / s sqrt 2), taken from
    erf's Taylor series as 2c sum_n (-u)^n / (n! (2n+1)), u = c^2 / 2s^2;
    the rest is Decimal.exp."""
    with localcontext() as ctx:
        ctx.prec = 60
        b0, s, c = Decimal(b0), Decimal(s), Decimal(c)
        u = c * c / (2 * s * s)
        if radial:
            return 2 * _PI * b0 * s * s * (1 - (-u).exp() * (1 + u))
        total, term, n = Decimal(0), Decimal(1), 0     # term = (-u)^n / n!
        while abs(term) > Decimal("1e-70"):
            total += term / (2 * n + 1)
            n += 1
            term *= -u / n
        return 2 * b0 * c * (total - (-u).exp())


def _relative_error(value, exact):
    return float((Decimal(value) - exact) / abs(exact))


_amplitude = st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3)
_width = st.floats(0.1, 5.0)


def _piecewise(dimension, start, steps):
    """Breakpoints from start on, steps apart, with the given values."""
    x = start + np.cumsum([0.0] + [dx for dx, _ in steps[1:]])
    return piecewise_linear([(xi, v) for xi, (_, v) in zip(x, steps)],
                            dimension=dimension)


def _profiles(dimension):
    """The four kinds; a radial piecewise-linear support starts at 0 or
    above it."""
    start = (st.one_of(st.just(0.0), st.floats(0.01, 3.0))
             if dimension == DIM_RADIAL else st.floats(-120.0, 120.0))
    dim = st.just(dimension)
    return st.one_of(
        st.builds(box, _amplitude, _width, dimension=dim),
        st.builds(truncated_gaussian, _amplitude, st.floats(0.2, 3.0),
                  _width, dimension=dim),
        st.builds(bump, _amplitude, _width, dimension=dim),
        st.builds(_piecewise, dim, start,
                  st.lists(st.tuples(st.floats(0.05, 3.0), _amplitude),
                           min_size=2, max_size=6)))


# radial piecewise-linear fields out to r = 1e6, on segments down to 1e-4
# wide: thin rings far out, where a slope form of the moment cancels
_rings = st.builds(_piecewise, st.just(DIM_RADIAL), st.floats(0.0, 1e6),
                   st.lists(st.tuples(st.floats(1e-4, 3.0), _amplitude),
                            min_size=2, max_size=6))


class TestMakeProfile:
    @pytest.mark.parametrize("kind, params, name", [
        ("box", {"B0": 1.0}, "a"),
        ("bump", {"a": 1.0}, "B0"),
        ("truncated-gaussian", {"B0": 1.0, "sigma": 1.0}, "cutoff"),
        ("piecewise-linear", {}, "points"),
    ])
    def test_missing_parameter_named(self, kind, params, name):
        with pytest.raises(ProfileError,
                           match=f"^parameter '{name}' is required$"):
            make_profile(kind, **params)

    def test_box_values(self):
        p = box(1.0, 2.0)
        assert p(0.0) == 1.0
        assert p(3.0) == 0.0
        assert p.support == (-2.0, 2.0)

    def test_zero_amplitude_box_is_identically_zero(self):
        p = box(0.0, 1.0)
        assert np.all(p(np.linspace(-2, 2, 101)) == 0.0)
        assert total_flux(p).value == 0.0

    def test_truncated_gaussian_cutoff(self):
        p = truncated_gaussian(1.0, 1.0, 4.0)
        assert p(4.0) == 0.0
        assert p(4.0 + 1e-12) == 0.0
        # shifted formula inside the cutoff
        x = 1.3
        expected = math.exp(-x * x / 2.0) - math.exp(-8.0)
        assert p(x) == pytest.approx(expected, rel=1e-15)
        # continuity at the cutoff
        assert abs(p(4.0 - 1e-8)) < 1e-8

    def test_bump_compact_and_smooth(self):
        p = bump(2.0, 1.5)
        assert p(0.0) == 2.0
        assert p(1.5) == 0.0
        assert p(-1.5) == 0.0
        assert p(1.4) > 0.0

    def test_piecewise_linear_interpolation(self):
        p = piecewise_linear([(-1.0, 0.0), (0.0, 2.0), (2.0, 0.0)])
        assert p(-0.5) == 1.0
        assert p(1.0) == 1.0
        assert p(-1.5) == 0.0
        assert p(2.5) == 0.0
        assert p.seeds == (0.0,)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ProfileError):
            box(1.0, -2.0)
        with pytest.raises(ProfileError):
            box(1.0, 0.0)
        with pytest.raises(ProfileError):
            box(math.nan, 1.0)
        with pytest.raises(ProfileError):
            truncated_gaussian(1.0, -1.0, 2.0)
        with pytest.raises(ProfileError):
            piecewise_linear([(0.0, 1.0)])
        with pytest.raises(ProfileError):
            piecewise_linear([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ProfileError):
            make_profile("vortex", B0=1.0)
        with pytest.raises(ProfileError):
            make_profile("box", B0=1.0, a=1.0, sigma=3.0)

    def test_max_abs(self):
        # exact |B0| for box and bump; an upper bound for the shifted gaussian
        assert box(-1.5, 2.0).max_abs() == 1.5
        assert bump(2.0, 1.5, dimension=DIM_RADIAL).max_abs() == 2.0
        g = truncated_gaussian(-1.2, 0.7, 2.0)
        assert g.max_abs() == 1.2
        assert g.max_abs() >= np.max(np.abs(g(np.linspace(-3.0, 3.0, 1001))))
        pw = piecewise_linear([(-1.0, 0.5), (0.0, -2.0), (1.0, 0.0)])
        assert pw.max_abs() == 2.0

    def test_radial_piecewise_requires_nonnegative_radii(self):
        with pytest.raises(ProfileError):
            piecewise_linear([(-1.0, 0.0), (1.0, 1.0)], dimension=DIM_RADIAL)

    @pytest.mark.parametrize("profile, even", [
        (box(-1.0, 2.0), True),
        (bump(1.5, 3.0), True),
        (truncated_gaussian(0.8, 1.0, 2.5), True),
        (piecewise_linear([(-2.0, 0.0), (-0.5, 1.0), (0.5, 1.0),
                           (2.0, 0.0)]), True),
        (piecewise_linear([(-1.0, 0.0), (0.0, 2.0), (1.0, 0.0)]), True),
        # one breakpoint or one value off its mirror image
        (piecewise_linear([(-2.0, 0.0), (-0.5, 1.0), (0.6, 1.0),
                           (2.0, 0.0)]), False),
        (piecewise_linear([(-2.0, 0.0), (-0.5, 1.0), (0.5, 1.5),
                           (2.0, 0.0)]), False),
        # a radial field has no mirror image
        (piecewise_linear([(0.0, 1.0), (1.0, 0.0)], dimension=DIM_RADIAL),
         False),
        (box(1.0, 2.0, dimension=DIM_RADIAL), False)])
    def test_is_even(self, profile, even):
        assert profile.is_even is even
        if even:
            x = np.linspace(-4.0, 4.0, 801)
            np.testing.assert_allclose(profile(-x), profile(x), rtol=1e-15,
                                       atol=1e-15)


class TestGrid1D:
    def test_point_ceiling(self, monkeypatch):
        # refused on construction: no test here may sample such a grid
        monkeypatch.setattr(Grid1D, "points", None)
        assert Grid1D(-1.0, 1.0, MAX_GRID_POINTS).n == MAX_GRID_POINTS
        for n in (MAX_GRID_POINTS + 1, 10 ** 12):
            with pytest.raises(GridError, match=f"n = {n}"):
                Grid1D(-1.0, 1.0, n)

    def test_width_must_be_finite(self):
        # finite bounds whose difference overflows would give h = inf
        for lo, hi in ((-1e308, 1e308), (-math.inf, 1.0), (0.0, math.nan)):
            with pytest.raises(GridError, match="width"):
                Grid1D(lo, hi, 11)

    @pytest.mark.parametrize("lo, hi, n", [
        (0.5, 0.5000000000000002, 5),   # spacings [0, 1.1e-16, 1.1e-16, 0]
        (1e6, 1e6 + 1e-9, 1001),
        (0.0, 1e-322, 3),               # subnormal: 20 spacings of 5e-324
        # subnormal steps of 15-18 ulp(0) that linspace rounds unevenly:
        # some steps 0, -8e-323 or negative Simpson weights before
        (0.0, 1008 * math.ulp(0.0), 66),
        (0.0, 496 * math.ulp(0.0), 33),
        (0.0, 490 * math.ulp(0.0), 29),
    ])
    def test_collapsing_points_refused(self, lo, hi, n):
        with pytest.raises(GridError, match="collapse") as err:
            Grid1D(lo, hi, n)
        assert f"grid [{lo}, {hi}] with n = {n}" in str(err.value)

    @pytest.mark.parametrize("lo, hi, n", [
        (0.5, 0.5 + 2 ** -45, 5), (-1e-300, 1e-300, 11),
        (-1e160, 1e160, 11), (0.0, 1e-320, 3)])
    def test_points_distinct_and_even_above_the_floor(self, lo, hi, n):
        steps = np.diff(Grid1D(lo, hi, n).points())
        assert steps.min() > 0.0 and steps.max() / steps.min() < 1.1


class TestSample:
    def test_box_on_coarse_grid(self):
        vals = box(1.0, 2.0)(Grid1D(-4.0, 4.0, 9).points())
        np.testing.assert_array_equal(vals, [0, 0, 1, 1, 1, 1, 1, 0, 0])

    def test_zero_profile_all_zero(self):
        vals = box(0.0, 1.0)(Grid1D(-4.0, 4.0, 17).points())
        assert np.all(vals == 0.0)

    def test_truncated_gaussian_exact_zero_at_cutoff(self):
        # cutoff lands exactly on a grid node
        vals = truncated_gaussian(1.0, 1.0, 2.0)(Grid1D(-4.0, 4.0, 9).points())
        assert vals[2] == 0.0 and vals[6] == 0.0

    def test_truncated_gaussian_huge_cutoff(self):
        # t * t overflows for |t| above ~1.3e154 inside the cutoff, and
        # exp(-inf) = 0 is the value: no overflow warning on the way
        p = truncated_gaussian(1.0, 1.0, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = p(np.array([-1e300, -1e200, 0.0, 1e155, 2e300]))
            assert p(1e200) == 0.0
        np.testing.assert_array_equal(vals, [0.0, 0.0, 1.0, 0.0, 0.0])

    def test_support_exactness_random_grids(self, rng):
        profiles = [box(1.0, 1.7), truncated_gaussian(2.0, 0.7, 2.1),
                    bump(1.0, 1.2),
                    piecewise_linear([(-1.1, 0.5), (0.3, -2.0), (0.9, 0.0)])]
        for p in profiles:
            lo, hi = p.support
            for _ in range(20):
                g = Grid1D(lo - 10 * rng.random() - 0.1,
                           hi + 10 * rng.random() + 0.1,
                           int(rng.integers(3, 200)))
                x = g.points()
                vals = p(x)
                outside = (x < lo) | (x > hi)
                assert np.all(vals[outside] == 0.0)


class TestTotalFlux:
    def test_box_analytic(self):
        f = total_flux(box(1.0, 2.0))
        assert f.value == 4.0
        assert f.method == "analytic"

    def test_radial_disc(self):
        f = total_flux(box(1.0, 2.0, dimension=DIM_RADIAL))
        assert f.value == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_quadrature_agrees_with_analytic(self):
        for p in (box(1.3, 2.2), truncated_gaussian(0.9, 1.2, 3.0),
                  bump(1.7, 2.5),
                  piecewise_linear([(-2.0, 0.0), (0.0, 3.0), (1.0, 1.0)]),
                  box(-0.8, 1.5, dimension=DIM_RADIAL),
                  truncated_gaussian(1.1, 0.8, 2.0, dimension=DIM_RADIAL),
                  bump(1.5, 2.0, dimension=DIM_RADIAL),
                  piecewise_linear([(0.0, 1.0), (1.0, 2.0), (2.0, 0.0)],
                                   dimension=DIM_RADIAL)):
            fa = total_flux(p)
            assert fa.method == "analytic"
            fq, _ = _engine_flux(p, DEFAULT_RTOL)
            assert fq == pytest.approx(fa.value, rel=1e-10, abs=1e-12)

    def test_bump_flux_quadrature_vs_quadpack(self):
        p = bump(1.5, 2.0)
        f = total_flux(p)
        assert f.method == "analytic"
        ref = quad(p, -2.0, 2.0, epsabs=1e-13, epsrel=1e-13)[0]
        assert f.value == pytest.approx(ref, rel=1e-10)

    def test_radial_bump_flux_vs_quadpack(self):
        p = bump(1.5, 2.0, dimension=DIM_RADIAL)
        ref = 2.0 * math.pi * quad(lambda r: r * p(r), 0.0, 2.0,
                                   epsabs=1e-13, epsrel=1e-13)[0]
        assert total_flux(p).value == pytest.approx(ref, rel=1e-10)

    def test_additivity_on_representable_sums(self):
        # the sum of two piecewise-linear profiles with merged breakpoints
        # is exactly representable, so additivity can be checked in-library
        pts_a = [(-2.0, 0.0), (-1.0, 2.0), (1.0, 1.0), (2.0, 0.0)]
        pts_b = [(-2.0, 1.0), (0.0, -1.0), (2.0, 0.5)]
        pa = piecewise_linear(pts_a)
        pb = piecewise_linear(pts_b)
        xs = sorted({x for x, _ in pts_a} | {x for x, _ in pts_b})
        psum = piecewise_linear([(x, pa(x) + pb(x)) for x in xs])
        total = total_flux(psum).value
        assert total == pytest.approx(total_flux(pa).value
                                      + total_flux(pb).value, rel=1e-10)

    def test_scaling(self, rng):
        base = total_flux(truncated_gaussian(1.1, 0.9, 2.7)).value
        for c in (-3.5, -1.0, 0.0, 0.25, 7.0):
            scaled = truncated_gaussian(c * 1.1, 0.9, 2.7)
            assert total_flux(scaled).value == pytest.approx(
                c * base, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("profile", [
        box(1e200, 1e200),                        # closed forms overflow
        box(-1e200, 1e200, dimension=DIM_RADIAL),
        bump(1e300, 1e10),
    ])
    def test_non_finite_flux_refused(self, profile):
        # refused, not reported as a null Q, and without NumPy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProfileError, match="not finite"):
                total_flux(profile)

    def test_bump_literals_match_scipy_special(self):
        # sqrt(e) (K1(1/2) - K0(1/2)) reproduces the line literal exactly;
        # e E2(1) is 6 ulp off the disc literal here (1 - e E1(1) cancels)
        line = math.sqrt(math.e) * (special.k1(0.5) - special.k0(0.5))
        assert line == profiles._BUMP_LINE
        disc = math.e * special.expn(2, 1.0)
        assert abs(disc - profiles._BUMP_DISC) <= 8 * math.ulp(disc)

    @pytest.mark.parametrize("b0, a", [(1.0, 1.0), (-2.3, 0.4), (0.7, 6.5)])
    def test_bump_flux_vs_quadpack_tight(self, b0, a):
        line, disc = bump(b0, a), bump(b0, a, dimension=DIM_RADIAL)
        ref = quad(line, -a, a, epsabs=0.0, epsrel=1e-13)[0]
        assert total_flux(line).value == pytest.approx(ref, rel=1e-14)
        ref = 2.0 * math.pi * quad(lambda r: r * disc(r), 0.0, a, epsabs=0.0,
                                   epsrel=1e-13)[0]
        assert total_flux(disc).value == pytest.approx(ref, rel=1e-14)

    @settings(max_examples=settings.default.max_examples * 3 // 5)
    @given(profile=st.one_of(_profiles(DIM_LINE), _profiles(DIM_RADIAL)))
    def test_closed_forms_equal_engine_totals(self, profile):
        """Every kind's closed form, in both dimensions, equals the total of
        the convolutions' quadrature at rtol 1e-12 to 1e-12 of int |B| (of
        int r |B| in the plane).  The worst of 8 000 random draws was 3.0e-13,
        on a line gaussian whose cutoff is far below sigma."""
        total, size = _engine_flux(profile, 1e-12)
        assert abs(total_flux(profile).value - total) <= 1e-12 * size

    @given(profile=st.one_of(_profiles(DIM_LINE), _profiles(DIM_RADIAL)),
           j=st.integers(-4, 4))
    def test_flux_under_dilation(self, profile, j):
        """x -> x / c, B -> c^2 B(c x) with c = 2^j: the line flux scales by
        c and the plane flux is unchanged, bit for bit."""
        c = 2.0 ** j
        dilated = dilate(profile, c)
        scale = 1.0 if profile.is_radial else c
        assert total_flux(dilated).value == scale * total_flux(profile).value

    @pytest.mark.parametrize("ratio", [1e-1, 1e-2, 1e-3])
    def test_radial_gaussian_cutoff_far_below_sigma(self, ratio):
        # a QUADPACK reference: the integrand tail * expm1((c^2 - r^2) / 2s^2)
        # does not cancel; the bound is the closed form's loss of about
        # eps / u, u = c^2 / 2s^2, which the series now stay well within
        s, c = 2.0, 2.0 * ratio
        u = c * c / (2.0 * s * s)
        tail = math.exp(-u)
        ref = 2.0 * math.pi * quad(
            lambda r: r * tail * math.expm1((c * c - r * r) / (2.0 * s * s)),
            0.0, c, epsabs=0.0, epsrel=1e-13)[0]
        phi = total_flux(truncated_gaussian(1.0, s, c, DIM_RADIAL)).value
        assert abs(phi - ref) <= 2.0 * np.finfo(float).eps / u * ref

    def test_radial_gaussian_flux_keeps_its_sign(self):
        # Phi = 1.96e-17 > 0: sector b, not a
        flux = total_flux(truncated_gaussian(1.0, 2.0, 1e-4, DIM_RADIAL))
        assert flux.value > 0.0
        assert count_2d_zero_modes(flux).sector is SECTOR_B
        big = total_flux(truncated_gaussian(1e12, 2.0, 1e-4, DIM_RADIAL))
        assert big.value == pytest.approx(1.9634953e-5, rel=1e-7)

    @pytest.mark.parametrize("dimension", [DIM_LINE, DIM_RADIAL])
    @pytest.mark.parametrize("ratio", [1e-1, 1e-2, 1e-4, 1e-6, 1e-8])
    def test_gaussian_flux_cutoff_far_below_sigma(self, ratio, dimension):
        # the closed forms lost about eps / u to cancellation, u = c^2 / 2s^2:
        # at c/s = 1e-8 the line Q was -3.3e-24 for +6.7e-25 and the disc's
        # Phi was 0.0; the series are within 2.3 eps (measured over u = 5e-17
        # ... 0.75, sigma 1e-3 ... 1e3)
        radial = dimension == DIM_RADIAL
        for b0, s in [(1.0, 1.0), (-2.5, 3.0), (1e30, 1e-3)]:
            c = ratio * s
            flux = total_flux(truncated_gaussian(b0, s, c, dimension))
            assert math.copysign(1.0, flux.value) == math.copysign(1.0, b0)
            exact = _decimal_gaussian_flux(b0, s, c, radial)
            assert abs(_relative_error(flux.value, exact)) <= 4 * EPS
        if radial:
            flux = total_flux(truncated_gaussian(1.0, 1.0, ratio, dimension))
            assert count_2d_zero_modes(flux).sector is SECTOR_B

    @pytest.mark.parametrize("dimension", [DIM_LINE, DIM_RADIAL])
    def test_gaussian_flux_series_meets_closed_form(self, dimension):
        # cutoffs a few ulp either side of u = 0.75, where the flux goes from
        # its series to its closed form: both within 4 eps of the reference
        # (3.5 eps measured just above the switch, 2.3 eps below it), so the
        # flux does not jump there
        radial = dimension == DIM_RADIAL
        cs = [math.sqrt(1.5)]
        for _ in range(6):
            cs = ([math.nextafter(cs[0], 0.0)] + cs
                  + [math.nextafter(cs[-1], 2.0)])
        us = [c * c / 2.0 for c in cs]
        assert min(us) < 0.75 <= max(us)
        fluxes = [total_flux(truncated_gaussian(1.0, 1.0, c, dimension)).value
                  for c in cs]
        for c, flux in zip(cs, fluxes):
            exact = _decimal_gaussian_flux(1.0, 1.0, c, radial)
            assert abs(_relative_error(flux, exact)) <= 4 * EPS
        assert np.all(np.abs(np.diff(fluxes)) <= 8 * EPS * fluxes[0])

    @pytest.mark.parametrize("points", [
        [(0.0, 0.0), (1e-300, 1e10), (1.0, 0.0)],      # the slope overflows
        [(1e6, 1.0), (1e6 + 1.0, 2.0)],                # thin rings far out
        [(1e3, 1.0), (1e3 + 1e-3, 2.0), (1e3 + 2e-3, 0.5)],
    ])
    def test_radial_piecewise_steep_and_thin(self, points):
        got = total_flux(piecewise_linear(points, DIM_RADIAL)).value
        exact = _exact_pw_flux(points)
        # 0, 0 and 1 ulp measured; the slope form was off by 1.4e-5 and
        # 2.7e-5 relative on the rings, and nan on the steep ramp
        assert abs(got - exact) <= 2.0 * math.ulp(exact)

    @given(profile=_rings)
    def test_piecewise_flux_vs_exact_fractions(self, profile):
        """The radial piecewise-linear flux against the exact sum of the
        segment moments in rationals, to 8 eps of the flux through the
        absolute breakpoint values (the worst of 40 000 random draws was
        2.9 eps)."""
        pts = profile.params["points"]
        size = _exact_pw_flux([(x, abs(v)) for x, v in pts])
        got = total_flux(profile).value
        exact = _exact_pw_flux(pts)
        assert abs(got - exact) <= 8.0 * np.finfo(float).eps * size


"""Field profiles: evaluation, support exactness, fluxes, and properties."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from zml import _quadrature
from zml.errors import GridError, ProfileError
from zml.profiles import (DEFAULT_RTOL, DIM_RADIAL, MAX_GRID_POINTS, Grid1D,
                          box, bump, make_profile, piecewise_linear,
                          total_flux, truncated_gaussian)


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
                  piecewise_linear([(-2.0, 0.0), (0.0, 3.0), (1.0, 1.0)]),
                  box(-0.8, 1.5, dimension=DIM_RADIAL),
                  truncated_gaussian(1.1, 0.8, 2.0, dimension=DIM_RADIAL),
                  piecewise_linear([(0.0, 1.0), (1.0, 2.0), (2.0, 0.0)],
                                   dimension=DIM_RADIAL)):
            fa = total_flux(p)
            assert fa.method == "analytic"
            fq = _quadrature.flux(p, DEFAULT_RTOL)
            assert fq == pytest.approx(fa.value, rel=1e-10, abs=1e-12)

    def test_bump_flux_quadrature_vs_quadpack(self):
        p = bump(1.5, 2.0)
        f = total_flux(p)
        assert f.method == "quadrature"
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
        box(1e200, 1e200),                        # closed form overflows
        box(-1e200, 1e200, dimension=DIM_RADIAL),
        bump(1e300, 1e10),                        # quadrature overflows
    ])
    def test_non_finite_flux_refused(self, profile):
        # refused, not reported as a null Q, and without NumPy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProfileError, match="not finite"):
                total_flux(profile)

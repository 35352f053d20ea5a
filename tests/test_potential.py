"""Scalar potentials: closed-form oracles, asymptotics, Poisson consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from zml.errors import GridError, PaddingError, ProfileError
from zml.potential import (alpha_gauge, check_padding, lambda_1d,
                           lambda_2d_radial, poisson_residual,
                           required_padding, vector_potential_y,
                           window_margin)
from zml.profiles import (DIM_LINE, DIM_RADIAL, Grid1D, box, bump,
                          truncated_gaussian)


def box_lambda_exact(x, b0=1.0, a=2.0, k=0.0):
    """Closed-form potential of the box field: (x^2+a^2) B0/2 inside,
    (Q/2)|x| outside, plus k x."""
    inside = 0.5 * b0 * (x * x + a * a)
    outside = a * b0 * np.abs(x)
    return np.where(np.abs(x) <= a, inside, outside) + k * x


class TestLambda1D:
    def test_box_closed_form(self):
        g = Grid1D(-17.0, 17.0, 1701)
        pot = lambda_1d(box(1.0, 2.0), 0.0, g)
        x = g.points()
        exact = box_lambda_exact(x)
        np.testing.assert_allclose(pot.values, exact, rtol=1e-10, atol=1e-12)
        i0 = np.argmin(np.abs(x))
        i2 = np.argmin(np.abs(x - 2.0))
        assert pot.values[i0] == pytest.approx(2.0, rel=1e-12)
        assert pot.values[i2] == pytest.approx(4.0, rel=1e-12)

    def test_zero_profile_linear_term_is_exact(self):
        g = Grid1D(-7.0, 7.0, 201)
        pot = lambda_1d(box(0.0, 1.0), 1.0, g)
        np.testing.assert_array_equal(pot.values, g.points())

    def test_slopes_from_flux(self):
        g = Grid1D(-40.0, 40.0, 401)
        pot = lambda_1d(box(1.0, 2.0), 1.0, g)
        assert pot.slope_left == -1.0
        assert pot.slope_right == 3.0

    def test_linear_term_exactness(self):
        g = Grid1D(-20.0, 20.0, 801)
        p = truncated_gaussian(1.0, 1.0, 3.0)
        base = lambda_1d(p, 0.0, g)
        x = g.points()
        for k in (-0.9, 0.3, 1.7):
            pot = lambda_1d(p, k, g)
            delta = pot.values - base.values
            np.testing.assert_allclose(delta, k * x, rtol=1e-12, atol=1e-12)

    def test_asymptotic_affinity(self):
        p = truncated_gaussian(1.0, 1.0, 3.0)
        g = Grid1D(-40.0, 40.0, 2001)
        pot = lambda_1d(p, 0.4, g)
        x = g.points()
        v = pot.values
        h = g.h
        iedge = np.argmin(np.abs(x - 3.0))
        right = x >= 3.0 + h
        resid = np.abs(v[right] - v[iedge] - pot.slope_right * (x[right] - 3.0))
        assert np.all(resid <= 1e-10 * (1.0 + np.abs(v[right])))
        iedge = np.argmin(np.abs(x + 3.0))
        left = x <= -3.0 - h
        resid = np.abs(v[left] - v[iedge] - pot.slope_left * (x[left] + 3.0))
        assert np.all(resid <= 1e-10 * (1.0 + np.abs(v[left])))

    def test_even_symmetry(self):
        g = Grid1D(-32.0, 32.0, 641)
        pot = lambda_1d(truncated_gaussian(1.3, 0.8, 2.0), 0.0, g)
        np.testing.assert_allclose(pot.values, pot.values[::-1],
                                   rtol=1e-10, atol=1e-12)

    def test_quadpack_oracle_on_gaussian(self):
        p = truncated_gaussian(1.0, 1.0, 3.0)
        g = Grid1D(-32.0, 32.0, 11)
        pot = lambda_1d(p, 0.0, g)
        for xi, vi in zip(g.points(), pot.values):
            ref = quad(lambda t: 0.5 * abs(xi - t) * p(t), -3.0, 3.0,
                       points=[xi] if -3 < xi < 3 else None,
                       limit=200, epsabs=1e-13, epsrel=1e-13)[0]
            assert vi == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_narrow_field_between_the_first_nodes(self):
        # Q = 2.5e-3; every QK15 node of the first cells falls where B
        # underflows, so the first round alone integrates the field to 0
        # (lambda was once returned as [-0, 0, 0]).  QUADPACK's own first
        # nodes miss the peak too unless it is split at 0 and +-10 sigma
        p = truncated_gaussian(1.0, 1e-3, 8.0)
        g = Grid1D(-20.0, 21.0, 3)
        pot = lambda_1d(p, 0.0, g)
        for xi, vi in zip(g.points(), pot.values):
            ref = quad(lambda t: 0.5 * abs(xi - t) * p(t), -8.0, 8.0,
                       points=[-0.01, 0.0, 0.01], limit=200, epsabs=1e-13,
                       epsrel=1e-13)[0]
            assert vi == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_rejects_radial_profile(self):
        with pytest.raises(ProfileError):
            lambda_1d(box(1.0, 1.0, dimension=DIM_RADIAL), 0.0,
                      Grid1D(-10.0, 10.0, 11))


def _narrow_field(kind, b0, width, cutoff, radial):
    dimension = DIM_RADIAL if radial else DIM_LINE
    if kind == "bump":
        return bump(b0, width, dimension)
    return truncated_gaussian(b0, width, cutoff, dimension)


_narrow_fields = st.builds(
    _narrow_field, st.sampled_from(["truncated-gaussian", "bump"]),
    st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
    st.floats(-4.0, math.log10(3e-2)).map(lambda e: 10.0 ** e),
    st.floats(1.0, 20.0), st.integers(0, 9).map(lambda d: d < 3))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=settings.default.max_examples // 5)
@given(profile=_narrow_fields, lo=st.floats(-25.0, -0.5),
       hi=st.floats(0.5, 25.0), n=st.integers(3, 12))
def test_narrow_fields_on_coarse_grids(profile, lo, hi, n):
    """Narrow fields (sigma or a in 1e-4 ... 3e-2, 30% radial) on grids of
    3-12 points, whose first quadrature cells can straddle the whole peak:
    lambda, and A_y on the line, match QUADPACK split at the peak and at
    +-10 widths, to 1e-9 of the integral of the absolute integrand."""
    width = profile.params.get("sigma", profile.params.get("a"))
    s_lo, s_hi = profile.support
    if profile.is_radial:
        grid = Grid1D(0.0, hi, n)
        values = lambda_2d_radial(profile, grid).values
        peaks = [width, 10.0 * width]
    else:
        grid = Grid1D(lo, hi, n)
        values = lambda_1d(profile, 0.0, grid).values
        a_y = vector_potential_y(profile, grid.points())
        peaks = [-10.0 * width, 0.0, 10.0 * width]

    def ref(kernel, x0):
        pts = sorted({p for p in peaks + [x0] if s_lo < p < s_hi})
        size = quad(lambda t: abs(kernel(t)), s_lo, s_hi, points=pts,
                    limit=200, epsabs=0.0, epsrel=1e-13)[0]
        return quad(kernel, s_lo, s_hi, points=pts, limit=200,
                    epsabs=1e-13 * size, epsrel=1e-13)[0], size

    for i, x0 in enumerate(grid.points()):
        if profile.is_radial:
            want, size = ref(lambda t: t * profile(t) * math.log(max(x0, t))
                             if t > 0.0 else 0.0, x0)
        else:
            want, size = ref(lambda t: 0.5 * abs(x0 - t) * profile(t), x0)
            want_ay, size_ay = ref(lambda t: 0.5 * math.copysign(1.0, x0 - t)
                                   * profile(t), x0)
            assert a_y[i] == pytest.approx(want_ay, rel=1e-9,
                                           abs=1e-9 * size_ay)
        assert values[i] == pytest.approx(want, rel=1e-9, abs=1e-9 * size)


_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestWindowMargin:
    @given(_finite, _finite)
    def test_sign_matches_opposite_slopes(self, q, k):
        # the exterior slopes k -/+ Q/2 have opposite signs iff delta > 0
        left, right = k - 0.5 * q, k + 0.5 * q
        opposite = (left < 0.0 < right) or (right < 0.0 < left)
        assert (window_margin(q, k) > 0.0) == opposite

    def test_elementwise(self):
        got = window_margin(-4.0, np.array([-3.0, -2.0, 0.5, 2.5]))
        assert got.tolist() == [-1.0, 0.0, 1.5, -0.5]


class TestPadding:
    def test_required_padding_inside_window(self):
        # box(1,2): Q=4; k=0 leaves slope 2 on both sides
        assert required_padding(4.0, 0.0) == 15.0
        assert required_padding(4.0, 1.5) == 60.0
        # outside or at the window edge only the floor applies
        assert required_padding(4.0, 2.0) == 5.0
        assert required_padding(4.0, 3.0) == 5.0
        assert required_padding(0.0, 1.0) == 5.0

    def test_insufficient_padding_names_requirement(self):
        g = Grid1D(-5.0, 5.0, 11)
        with pytest.raises(PaddingError) as err:
            check_padding(box(1.0, 2.0), 0.0, g)
        assert err.value.required == 15.0
        assert err.value.available == 3.0
        assert "15" in str(err.value)

    def test_check_padding_passes_on_wide_grid(self):
        check_padding(box(1.0, 2.0), 0.0, Grid1D(-17.0, 17.0, 11))


class TestLambda2DRadial:
    def test_disc_log_tail(self):
        disc = box(1.0, 2.0, dimension=DIM_RADIAL)
        g = Grid1D(2.0, 2.0 * math.e, 3)
        pot = lambda_2d_radial(disc, g)
        assert pot.values[-1] - pot.values[0] == pytest.approx(2.0, rel=1e-10)
        assert pot.log_coefficient == pytest.approx(2.0, rel=1e-12)

    def test_disc_interior_profile(self):
        disc = box(1.0, 2.0, dimension=DIM_RADIAL)
        g = Grid1D(0.0, 2.0, 21)
        pot = lambda_2d_radial(disc, g)
        r = g.points()
        np.testing.assert_allclose(pot.values - pot.values[0], r * r / 4.0,
                                   rtol=1e-9, atol=1e-10)

    def test_zero_profile(self):
        pot = lambda_2d_radial(box(0.0, 1.0, dimension=DIM_RADIAL),
                               Grid1D(0.0, 5.0, 11))
        assert np.all(pot.values == 0.0)

    def test_log_tail_matches_flux_for_gaussian(self):
        p = truncated_gaussian(1.0, 0.6, 1.8, dimension=DIM_RADIAL)
        g = Grid1D(2.0, 20.0, 7)
        pot = lambda_2d_radial(p, g)
        r = g.points()
        np.testing.assert_allclose(pot.values - pot.log_coefficient * np.log(r),
                                   0.0, atol=1e-10)

    def test_rejects_line_profile_and_negative_radii(self):
        with pytest.raises(ProfileError):
            lambda_2d_radial(box(1.0, 1.0), Grid1D(0.0, 5.0, 5))
        with pytest.raises(GridError):
            lambda_2d_radial(box(1.0, 1.0, dimension=DIM_RADIAL),
                             Grid1D(-1.0, 5.0, 5))


class TestPoissonResidual:
    def test_box_away_from_kinks(self):
        p = box(1.0, 2.0)
        g = Grid1D(-17.0, 17.0, 3401)  # h = 1e-2
        pot = lambda_1d(p, 0.0, g)
        # lambda is quadratic/affine away from x=+-2, so central differences
        # are exact there up to quadrature and rounding noise
        assert poisson_residual(pot, p, away_from_kinks=2 * g.h) <= 1e-3

    def test_zero_profile_affine(self):
        p = box(0.0, 1.0)
        g = Grid1D(-7.0, 7.0, 1401)
        pot = lambda_1d(p, 0.7, g)
        assert poisson_residual(pot, p) <= 1e-9

    def test_h_squared_rate_on_smooth_profile(self):
        p = bump(2.0, 2.0)
        res = []
        for n in (701, 1401):  # h = 2e-2 then 1e-2 on [-7, 7]
            g = Grid1D(-7.0, 7.0, n)
            pot = lambda_1d(p, 0.0, g, rtol=1e-12)
            res.append(poisson_residual(pot, p))
        ratio = res[0] / res[1]
        assert 3.0 <= ratio <= 5.0

    def test_radial_disc_interior_exact(self):
        disc = box(1.0, 2.0, dimension=DIM_RADIAL)
        g = Grid1D(0.0, 2.0, 201)
        pot = lambda_2d_radial(disc, g)
        # lambda = r^2/4 + const inside: the discrete radial Laplacian of a
        # quadratic is exact, so only quadrature noise remains
        assert poisson_residual(pot, disc, away_from_kinks=2 * g.h) <= 1e-4

    def test_grid_pairing_mismatch(self):
        disc = box(1.0, 2.0, dimension=DIM_RADIAL)
        pot = lambda_2d_radial(disc, Grid1D(0.0, 5.0, 51))
        with pytest.raises(GridError):
            poisson_residual(pot, box(1.0, 2.0))


class TestAlphaGauge:
    def test_box_gives_clamp(self):
        g = Grid1D(-6.0, 6.0, 1201)
        ph = alpha_gauge(box(1.0, 1.0), g)
        np.testing.assert_allclose(ph.values, np.clip(g.points(), -1.0, 1.0),
                                   rtol=0, atol=1e-8)
        x = g.points()
        assert ph.values[np.argmin(np.abs(x - 2.0))] == pytest.approx(1.0)
        assert ph.values[np.argmin(np.abs(x))] == pytest.approx(0.0, abs=1e-12)
        assert ph.values[np.argmin(np.abs(x + 3.0))] == pytest.approx(-1.0)

    def test_zero_field(self):
        ph = alpha_gauge(box(0.0, 1.0), Grid1D(-5.0, 5.0, 101))
        assert np.all(ph.values == 0.0)

    def test_derivative_matches_field(self):
        ax = box(1.0, 1.0)
        g = Grid1D(-4.0, 4.0, 8001)  # h = 1e-3
        ph = alpha_gauge(ax, g)
        x = g.points()
        d = (ph.values[2:] - ph.values[:-2]) / (2.0 * g.h)
        xi = x[1:-1]
        keep = (np.abs(np.abs(xi) - 1.0) > 2 * g.h)
        err = np.abs(d - ax(xi))
        assert err[keep].max() <= 1e-6

    def test_limits_are_half_flux(self):
        ax = truncated_gaussian(1.5, 0.5, 1.5)
        g = Grid1D(-30.0, 30.0, 61)
        ph = alpha_gauge(ax, g)
        half = 0.5 * 1.5 * (0.5 * math.sqrt(2 * math.pi) * math.erf(1.5 / (0.5 * math.sqrt(2)))
                            - 3.0 * math.exp(-1.5 ** 2 / (2 * 0.25)))
        assert ph.values[-1] == pytest.approx(half, rel=1e-10)
        assert ph.values[0] == pytest.approx(-half, rel=1e-10)

    def test_nondecreasing_where_field_nonnegative(self):
        ph = alpha_gauge(bump(2.0, 1.0), Grid1D(-4.0, 4.0, 401))
        assert np.all(np.diff(ph.values) >= -1e-14)


class TestVectorPotential:
    def test_box_closed_form(self):
        p = box(1.0, 2.0)
        xs = np.array([-3.0, -1.0, 0.0, 1.5, 3.0])
        np.testing.assert_allclose(vector_potential_y(p, xs),
                                   np.clip(xs, -2.0, 2.0), rtol=0, atol=1e-12)

"""The quadrature module against QUADPACK, closed forms and exact invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from zml import _quadrature
from zml.errors import QuadratureError
from zml.potential import lambda_1d
from zml.profiles import (DIM_RADIAL, Grid1D, box, bump, piecewise_linear,
                          total_flux, truncated_gaussian)

RTOL = 1e-10

PROFILES = {
    "box": box(1.3, 2.0),
    "gauss": truncated_gaussian(0.8, 1.1, 3.5),
    "bump": bump(1.7, 2.5),
    "pw": piecewise_linear([(-2.0, 0.0), (-0.5, 1.5), (1.0, -0.7), (2.5, 0.0)]),
    # far from the origin, so int t B cancels unless taken about the centre
    "pw_far": piecewise_linear([(101.0, 0.4), (102.5, 1.5), (104.0, -0.7),
                                (106.0, 0.2)]),
}

RADIAL_PROFILES = {
    "disc": box(1.4, 2.0, dimension=DIM_RADIAL),
    "gauss": truncated_gaussian(1.0, 0.8, 2.4, dimension=DIM_RADIAL),
    "bump": bump(1.5, 2.0, dimension=DIM_RADIAL),
    "pw": piecewise_linear([(0.5, 1.0), (1.0, 2.0), (2.0, 0.0)],
                           dimension=DIM_RADIAL),
}


@pytest.fixture(params=[_quadrature], ids=["python"])
def kernels(request):
    """The quadrature module; the "python" id keeps the test ids from when a
    compiled twin of the kernels was tested alongside it."""
    return request.param


def _break_points(profile, x0=None):
    lo, hi = profile.support
    extra = [x0] if x0 is not None and lo < x0 < hi else []
    return sorted(set(list(profile.seeds) + extra)) or None


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_field_values_hard_zero_outside_support(kernels, name):
    profile = PROFILES[name]
    lo, hi = profile.support
    xs = np.array([lo - 1e-9, lo - 5.0, hi + 1e-9, hi + 5.0, 100.0])
    vals = kernels.field_values(profile, xs)
    assert np.all(vals == 0.0)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_scalar_is_zero_d_input(kernels, name):
    profile = PROFILES[name]
    xs = np.linspace(*profile.support, 9)
    scalars = [kernels.field_values(profile, x) for x in xs]
    assert all(np.shape(v) == () for v in scalars)
    np.testing.assert_array_equal(scalars, kernels.field_values(profile, xs))
    assert [profile(x) for x in xs] == scalars


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_integrate_field_matches_quadpack(kernels, name):
    profile = PROFILES[name]
    lo, hi = profile.support
    mine = kernels.flux(profile, RTOL)
    ref = quad(profile, lo, hi, points=_break_points(profile),
               limit=200, epsabs=1e-13, epsrel=1e-13)[0]
    assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("x0", [-3.7, -0.25, 0.0, 1.9, 6.0])
def test_convolve_abs_matches_quadpack(kernels, name, x0):
    profile = PROFILES[name]
    lo, hi = profile.support
    mine = kernels.convolve_abs(profile, np.array([x0]), RTOL)[0]
    ref = quad(lambda t: 0.5 * abs(x0 - t) * profile(t), lo, hi,
               points=_break_points(profile, x0), limit=200,
               epsabs=1e-13, epsrel=1e-13)[0]
    assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12)


def _signed_ref(profile, x0):
    def signed(t):
        return 0.5 * math.copysign(1.0, x0 - t) * profile(t) if t != x0 else 0.0

    lo, hi = profile.support
    return quad(signed, lo, hi, points=_break_points(profile, x0), limit=200,
                epsabs=1e-13, epsrel=1e-13)[0]


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("x0", [-3.7, 0.0, 1.9, 6.0])
def test_convolve_sign_matches_quadpack(kernels, name, x0):
    profile = PROFILES[name]
    mine = kernels.convolve_sign(profile, np.array([x0]), RTOL)[0]
    assert mine == pytest.approx(_signed_ref(profile, x0), rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("r0", [0.0, 0.7, 2.0, 5.5])
def test_convolve_log_radial_matches_quadpack(kernels, r0):
    profile = box(1.4, 2.0, dimension="radial-plane")
    lo, hi = profile.support
    mine = kernels.convolve_log_radial(profile, np.array([r0]), RTOL)[0]
    ref = quad(lambda t: t * profile(t) * math.log(max(r0, t)) if t > 0 else 0.0,
               lo, hi, points=[r0] if lo < r0 < hi else None,
               limit=200, epsabs=1e-13, epsrel=1e-13)[0]
    assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", sorted(RADIAL_PROFILES))
def test_radial_exterior_law(kernels, name):
    """Beyond the support lambda(r) = (Phi / 2 pi) ln r."""
    profile = RADIAL_PROFILES[name]
    rs = profile.support[1] + np.array([0.0, 0.3, 1.0, 7.0, 60.0])
    lam = kernels.convolve_log_radial(profile, rs, RTOL)
    law = total_flux(profile).value / (2.0 * math.pi) * np.log(rs)
    np.testing.assert_allclose(lam, law, rtol=1e-10, atol=1e-10)


def test_unreachable_tolerance_raises_with_diagnostics(kernels):
    with pytest.raises(QuadratureError) as err:
        kernels.flux(PROFILES["bump"], 1e-18)
    assert err.value.achieved is not None
    assert err.value.requested is not None
    assert err.value.achieved > err.value.requested


def test_zero_field_integrates_to_exact_zero(kernels):
    profile = box(0.0, 1.0)
    assert kernels.flux(profile, RTOL) == 0.0
    out = kernels.convolve_abs(profile, np.linspace(-3, 3, 7), RTOL)
    assert np.all(out == 0.0)


# --- property tests over random line profiles and sample points -------------

_amplitude = st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3)
_width = st.floats(0.1, 5.0)


def _piecewise(start, knots):
    x = start + np.cumsum([dx for dx, _ in knots])
    return piecewise_linear([(xi, v) for xi, (_, v) in zip(x, knots)])


_line_profiles = st.one_of(
    st.builds(box, _amplitude, _width),
    st.builds(truncated_gaussian, _amplitude, st.floats(0.2, 3.0), _width),
    st.builds(bump, _amplitude, _width),
    st.builds(_piecewise, st.floats(-120.0, 120.0),
              st.lists(st.tuples(st.floats(0.05, 3.0), _amplitude),
                       min_size=2, max_size=6)),
)


# QUADPACK warns of roundoff where a signed reference cancels to near zero;
# the bounds below are relative to the absolute integrand instead
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@given(profile=_line_profiles,
       where=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=6),
       k=st.floats(-3.0, 3.0))
def test_line_convolutions_random_profiles(profile, where, k):
    """On random line fields and points, with the error measured against
    the integral of the absolute integrand:

    - both convolutions match QUADPACK to 1e-9;
    - lambda_k - lambda_0 = k x pointwise;
    - A_y is exactly -/+ Q/2 left/right of the support, and lambda is affine
      there with slopes -/+ Q/2.
    """
    lo, hi = profile.support
    width = hi - lo
    xs = lo + width * np.array(where)
    lam = _quadrature.convolve_abs(profile, xs, RTOL)
    ay = _quadrature.convolve_sign(profile, xs, RTOL)
    for x0, mine_lam, mine_ay in zip(xs, lam, ay):
        pts = _break_points(profile, x0)
        ref = quad(lambda t: 0.5 * abs(x0 - t) * profile(t), lo, hi,
                   points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
        size = quad(lambda t: 0.5 * abs((x0 - t) * profile(t)), lo, hi,
                    points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
        assert mine_lam == pytest.approx(ref, rel=1e-9, abs=1e-9 * size)
        size = quad(lambda t: 0.5 * abs(profile(t)), lo, hi, points=pts,
                    limit=200, epsabs=1e-13, epsrel=1e-13)[0]
        assert mine_ay == pytest.approx(_signed_ref(profile, x0), rel=1e-9,
                                        abs=1e-9 * size)

    grid = Grid1D(lo - width, hi + width, 41)
    base = lambda_1d(profile, 0.0, grid, enforce_padding=False).values
    shifted = lambda_1d(profile, k, grid, enforce_padding=False).values
    np.testing.assert_allclose(shifted - base, k * grid.points(), rtol=0,
                               atol=1e-14 * (1.0 + np.max(np.abs(shifted))))

    outside = np.concatenate([lo - width * np.array([2.0, 0.5, 0.0]),
                              hi + width * np.array([0.0, 0.5, 2.0]), xs])
    ay = _quadrature.convolve_sign(profile, outside, RTOL)
    half_q = ay[3]
    np.testing.assert_array_equal(ay[:3], -half_q)
    np.testing.assert_array_equal(ay[3:6], half_q)
    assert half_q == pytest.approx(0.5 * total_flux(profile).value, rel=1e-9,
                                   abs=1e-12)
    lam = _quadrature.convolve_abs(profile, outside, RTOL)
    scale = 1e-10 * (1.0 + np.max(np.abs(lam)))
    np.testing.assert_allclose(lam[:3] - lam[2], -half_q * (outside[:3] - lo),
                               rtol=0, atol=scale)
    np.testing.assert_allclose(lam[3:6] - lam[3], half_q * (outside[3:6] - hi),
                               rtol=0, atol=scale)

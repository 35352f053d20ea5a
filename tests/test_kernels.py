"""The quadrature module against QUADPACK, closed forms and exact invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from zml import _quadrature
from zml.errors import QuadratureError
from zml.potential import lambda_1d, lambda_2d_radial
from zml.profiles import (DIM_RADIAL, Grid1D, box, bump, piecewise_linear,
                          total_flux, truncated_gaussian)

from dilation import dilate

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
    compiled twin of the kernels was tested alongside it (the two field
    evaluation tests call the profile and take it for that id only)."""
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
    vals = profile(xs)
    assert np.all(vals == 0.0)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_scalar_is_zero_d_input(kernels, name):
    profile = PROFILES[name]
    xs = np.linspace(*profile.support, 9)
    scalars = [profile(np.asarray(x)) for x in xs]
    assert all(np.shape(v) == () for v in scalars)
    np.testing.assert_array_equal(scalars, profile(xs))
    assert [profile(x) for x in xs] == scalars


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_integrate_field_matches_quadpack(kernels, name):
    profile = PROFILES[name]
    lo, hi = profile.support
    (mine,) = kernels._moments(profile, (), (kernels._one,), RTOL)[1]
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


def _signed_ref(profile, x0, epsabs=1e-13):
    def signed(t):
        return 0.5 * math.copysign(1.0, x0 - t) * profile(t) if t != x0 else 0.0

    lo, hi = profile.support
    return quad(signed, lo, hi, points=_break_points(profile, x0), limit=200,
                epsabs=epsabs, epsrel=1e-13)[0]


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
        kernels._moments(PROFILES["bump"], (), (kernels._one,), 1e-18)
    assert err.value.achieved is not None
    assert err.value.requested is not None
    assert err.value.achieved > err.value.requested


def test_zero_field_integrates_to_exact_zero(kernels):
    profile = box(0.0, 1.0)
    assert kernels._moments(profile, (), (kernels._one,), RTOL)[1][0] == 0.0
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
# one first cell [-5, 5], whose nodes see t B only at about e^-13: the
# tolerance must follow the running int |w B|, not that first estimate
@example(profile=truncated_gaussian(1.0, 0.203125, 5.0), where=[0.0], k=0.0)
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
        # each reference is held to 1e-13 of the integral of the absolute
        # integrand, 1e4 times tighter than the bound; with no absolute
        # tolerance at all QUADPACK runs to its limit where they cancel
        pts = _break_points(profile, x0)
        size = quad(lambda t: 0.5 * abs((x0 - t) * profile(t)), lo, hi,
                    points=pts, limit=200, epsabs=0.0, epsrel=1e-13)[0]
        ref = quad(lambda t: 0.5 * abs(x0 - t) * profile(t), lo, hi,
                   points=pts, limit=200, epsabs=1e-13 * size,
                   epsrel=1e-13)[0]
        assert mine_lam == pytest.approx(ref, rel=1e-9, abs=1e-9 * size)
        size = quad(lambda t: 0.5 * abs(profile(t)), lo, hi, points=pts,
                    limit=200, epsabs=0.0, epsrel=1e-13)[0]
        assert mine_ay == pytest.approx(
            _signed_ref(profile, x0, epsabs=1e-13 * size),
            rel=1e-9, abs=1e-9 * size)

    grid = Grid1D(lo - width, hi + width, 41)
    base = lambda_1d(profile, 0.0, grid).values
    shifted = lambda_1d(profile, k, grid).values
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


def test_cell_sums_do_not_depend_on_the_batch():
    """A cell's K15 value, error estimate and int |w B| are the same bits
    evaluated alone as inside a batch, at any offset in it (BLAS's row sums
    were not: they differed in most cells of such a batch)."""
    rng = np.random.default_rng(7)
    a = np.sort(rng.uniform(-2.5, 2.5, 1000))
    b = a + rng.uniform(1e-6, 0.5, a.size)
    weights = (_quadrature._one, _quadrature._t)

    def wild(t):
        # values of either sign over six decades
        return np.sin(37.0 * t) * 10.0 ** (3.0 * np.cos(5.0 * t))

    for profile in (PROFILES["bump"], wild):
        batch = _quadrature._gk15(profile, weights, a, b)
        offset = _quadrature._gk15(profile, weights, a[3:], b[3:])
        for got, want in zip(offset, batch):
            assert np.array_equal(got, want[:, 3:])
        for i in range(a.size):
            alone = _quadrature._gk15(profile, weights, a[i:i + 1],
                                      b[i:i + 1])
            for got, want in zip(alone, batch):
                assert np.array_equal(got[:, 0], want[:, i])


# --- rounds, and the radial convolution's dyadic nodes at the origin --------

# the benchmark's seed-41 fields on their grids, and the _gk15 rounds their
# convolution takes: the 12 rounds of a seed-41 smooth-potentials pass
# (bisecting the radial origin cell alone takes 20 and 22)
SEED41_LINE = {
    "potential-bump": (
        bump(2.4541511029620047, 2.2679320906355995),
        Grid1D(-17.536962515817567, 17.536962515817567, 121), 3),
    "modes-gaussian": (
        truncated_gaussian(1.040999963398657, 1.004563693886184,
                           2.948931245530631),
        Grid1D(-30.953767267282622, 30.953767267282622, 121), 1),
    "scan-bump": (
        bump(2.232484674078038, 2.361088280411402),
        Grid1D(-12.792552801719665, 12.792552801719665, 121), 3),
}

SEED41_RADIAL = {
    "gaussian": (truncated_gaussian(1.1396288293724781, 1.130795234372298,
                                    3.3244397621486437, dimension=DIM_RADIAL),
                 Grid1D(0.0, 9.973319286445932, 121), 1),
    "bump": (bump(3.18270100300029, 1.9100517083443753, dimension=DIM_RADIAL),
             Grid1D(0.0, 19.100517083443755, 61), 4),
}


def _rounds(monkeypatch):
    """The cells [a, b] of every _gk15 round."""
    rounds = []
    gk15 = _quadrature._gk15

    def spy(profile, weights, a, b):
        rounds.append((a.copy(), b.copy()))
        return gk15(profile, weights, a, b)

    monkeypatch.setattr(_quadrature, "_gk15", spy)
    return rounds


@pytest.mark.parametrize("name", sorted(SEED41_LINE))
def test_line_convolution_rounds(monkeypatch, name):
    profile, grid, expected = SEED41_LINE[name]
    rounds = _rounds(monkeypatch)
    lambda_1d(profile, 0.0, grid)
    assert len(rounds) == expected


@pytest.mark.parametrize("name", sorted(SEED41_RADIAL))
def test_radial_convolution_rounds(monkeypatch, name):
    profile, grid, expected = SEED41_RADIAL[name]
    rounds = _rounds(monkeypatch)
    lambda_2d_radial(profile, grid)
    assert len(rounds) == expected


def _radial_piecewise(start, knots):
    x = start + np.cumsum([0.0] + [dx for dx, _ in knots[1:]])
    return piecewise_linear([(xi, v) for xi, (_, v) in zip(x, knots)],
                            dimension=DIM_RADIAL)


_radial_profiles = st.one_of(
    st.builds(box, _amplitude, _width, dimension=st.just(DIM_RADIAL)),
    st.builds(truncated_gaussian, _amplitude, st.floats(0.2, 3.0), _width,
              dimension=st.just(DIM_RADIAL)),
    st.builds(bump, _amplitude, _width, dimension=st.just(DIM_RADIAL)),
    # supports starting at r = 0 and above it
    st.builds(_radial_piecewise, st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
              st.lists(st.tuples(st.floats(0.05, 3.0), _amplitude),
                       min_size=2, max_size=6)),
)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=settings.default.max_examples * 2 // 5)
@given(profile=_radial_profiles,
       where=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=6))
# a small integral, where an absolute epsabs of 1e-13 stopped QUADPACK
# 2.1e-15 off the closed form
@example(profile=box(0.0625, 0.125, dimension=DIM_RADIAL), where=[1e-5])
# just inside the support's outer edge, where the tail right of r is small
# next to H1: taken as H1 - H(r), lambda was 6.6e-12 of the size off
@example(profile=truncated_gaussian(1.0, 1.0, 1.0, dimension=DIM_RADIAL),
         where=[0.99999])
def test_radial_convolution_random_profiles(profile, where):
    """On random radial fields and radii:

    - the convolution matches QUADPACK to 1e-12 of the integral of the
      absolute integrand (the worst of 3 600 random values was 2.8e-14);
    - its first round integrates the cells between the nodes, plus the
      MAX_DEPTH cells of the dyadic points where the support starts at 0
      (fewer only below a subnormal first node);
    - those points are nothing but nodes: asking for the convolution at them
      too leaves its values at rs unchanged, bit for bit.
    """
    lo, hi = profile.support
    rs = hi * np.array(where)
    with pytest.MonkeyPatch.context() as mp:
        rounds = _rounds(mp)
        lam = _quadrature.convolve_log_radial(profile, rs, RTOL)
    for r0, mine in zip(rs, lam):
        def kernel(t):
            return t * profile(t) * math.log(max(r0, t)) if t > 0.0 else 0.0

        pts = _break_points(profile, r0)
        ref = quad(kernel, lo, hi, points=pts, limit=200, epsabs=0.0,
                   epsrel=1e-13)[0]
        size = quad(lambda t: abs(kernel(t)), lo, hi, points=pts, limit=200,
                    epsabs=0.0, epsrel=1e-13)[0]
        assert abs(mine - ref) <= 1e-12 * size

    nodes = np.unique(np.concatenate(
        ([lo, hi], profile.seeds, rs[(rs > lo) & (rs < hi)])))
    depth = _quadrature.MAX_DEPTH
    cells = rounds[0][0].size
    if lo > 0.0:
        assert cells == nodes.size - 1
    elif np.ldexp(nodes[1], -depth) >= np.finfo(float).tiny:
        assert cells == nodes.size - 1 + depth
    else:
        # the subnormal halvings of a first node this small may round
        # together or to 0
        assert nodes.size - 1 <= cells <= nodes.size - 1 + depth

    if lo == 0.0:
        points = np.ldexp(nodes[1], -np.arange(1, depth + 1))
        more = _quadrature.convolve_log_radial(
            profile, np.concatenate([rs, points]), RTOL)
        assert lam.tobytes() == more[:rs.size].tobytes()


DILATED = {
    **{name: (profile, grid) for name, (profile, grid, _) in SEED41_RADIAL.items()},
    "disc": (RADIAL_PROFILES["disc"], Grid1D(0.0, 6.0, 41)),
    "pw0": (piecewise_linear([(0.0, 0.6), (0.8, 2.0), (2.0, 0.0)],
                             dimension=DIM_RADIAL), Grid1D(0.0, 6.0, 41)),
}


@pytest.mark.parametrize("c", [0.125, 0.5, 2.0, 8.0])
@pytest.mark.parametrize("name", sorted(DILATED))
def test_radial_potential_under_dilation(monkeypatch, name, c):
    """r -> r / c and B -> c^2 B(c r) map the plane field onto itself.  For
    c = 2^j every cell of the first round, the dyadic nodes' too, is the
    original's divided by c, bit for bit, and so is the flux; lambda moves by
    -(Phi / 2 pi) ln c, to rounding (t ln t is not scale-free, so the rounds
    after the first may differ)."""
    profile, grid = DILATED[name]
    rounds = _rounds(monkeypatch)
    pot = lambda_2d_radial(profile, grid)
    a, b = rounds[0]
    rounds.clear()
    dpot = lambda_2d_radial(dilate(profile, c),
                            Grid1D(grid.x_lo / c, grid.x_hi / c, grid.n))
    assert np.array_equal(rounds[0][0], a / c)
    assert np.array_equal(rounds[0][1], b / c)
    assert dpot.flux.value == pot.flux.value
    shift = pot.flux.value / (2.0 * math.pi) * math.log(c)
    np.testing.assert_allclose(dpot.values + shift, pot.values, rtol=0,
                               atol=64 * np.finfo(float).eps
                               * max(1.0, np.max(np.abs(pot.values))))


def test_radial_subnormal_radii():
    # a cell [0, 5e-324] has every K15 node at t = 0, where t ln t is 0, not
    # 0 * -inf; and the dyadic nodes below 1e-320 round down to 0
    profile = RADIAL_PROFILES["disc"]
    rs = np.array([0.0, 5e-324, 1e-320, 1e-310])
    lam = _quadrature.convolve_log_radial(profile, rs, RTOL)
    np.testing.assert_allclose(lam, lam[0], rtol=1e-15, atol=0)


def test_radial_unreachable_tolerance_raises_with_diagnostics():
    with pytest.raises(QuadratureError) as err:
        _quadrature.convolve_log_radial(SEED41_RADIAL["gaussian"][0],
                                        np.linspace(0.0, 5.0, 11), 1e-18)
    assert err.value.achieved > err.value.requested > 0.0

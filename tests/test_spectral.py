"""Spectral oracle: operator structure, eigenpaths, counts, residuals."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
from hypothesis import assume, example, given, settings, strategies as st

from zml.errors import GridError
from zml.potential import lambda_1d, required_padding
from zml.profiles import Grid1D, box, total_flux, truncated_gaussian
from zml.reduction import (_GROUP_TOL, ReductionConfig, _smooth_bulk_weight,
                           verify_degeneracy)
from zml.spectral import (DiracOperator, _gap_runs, _sturm_count,
                          build_operator, eigen_spectrum, mode_residual,
                          windowed_singular_modes)
from zml.zeromodes import SECTOR_A, SECTOR_B, build_mode_1d


def dense_m(op):
    """Dense M = D + diag(W) of a channel operator, the reference for its
    spectra: sub/super diagonals -/+ 1/(2h)."""
    m = op.size
    c = 1.0 / (2.0 * op.h)
    mat = np.diag(op.w_values)
    idx = np.arange(m - 1)
    mat[idx, idx + 1] = c
    mat[idx + 1, idx] = -c
    return mat


def mtm_band(op):
    """Lower band form (diag, 1st, 2nd subdiagonal) of the pentadiagonal
    M^T M, the independent ``eig_banded`` reference for the spectra of A."""
    w = op.w_values
    m = op.size
    c = 1.0 / (2.0 * op.h)
    idx = np.arange(m)
    band = np.zeros((3, m))
    band[0] = w * w + c * c * ((idx > 0).astype(float)
                               + (idx < m - 1).astype(float))
    band[1, :m - 1] = c * (w[:-1] - w[1:])
    band[2, :m - 2] = -c * c
    return band


def reference_spectrum(op):
    """Eigenvalues of [[0, M], [M^T, 0]], ascending, from a dense SVD of M."""
    s = scipy.linalg.svdvals(dense_m(op))
    return np.concatenate([-s, s[::-1]])


def free_operator(n=202, half_width=10.0):
    # zero field: M reduces to the plain central-difference matrix
    return build_operator(box(0.0, 1.0), 0.0,
                          Grid1D(-half_width, half_width, n))


class TestBuildOperator:
    def test_w_values_box_channel(self):
        g = Grid1D(-7.0, 7.0, 701)
        op = build_operator(box(1.0, 2.0), 0.0, g)
        x = op.interior_x
        w = op.w_values
        assert w[np.argmin(np.abs(x))] == pytest.approx(0.0, abs=1e-12)
        assert w[np.argmin(np.abs(x - 3.0))] == pytest.approx(2.0, rel=1e-12)
        assert w[np.argmin(np.abs(x + 3.0))] == pytest.approx(-2.0, rel=1e-12)

    def test_matrix_is_exactly_symmetric(self):
        # M is the dense reference and J M J = M^T exactly, with
        # J = diag((-1)^i); A = J M is exactly symmetric too, and
        # A^2 = M^T M
        op = build_operator(box(1.0, 2.0), 0.7, Grid1D(-17.0, 17.0, 102))
        m = op.size
        mm = op.m_matvec(np.eye(m))
        sign = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        assert np.array_equal(sign[:, None] * mm * sign, mm.T)
        assert np.array_equal(mm, dense_m(op))
        band = mtm_band(op)
        mtm = mm.T @ mm
        for j in range(3):
            np.testing.assert_allclose(band[j, :m - j], np.diag(mtm, -j),
                                       rtol=1e-14, atol=1e-12)
        d, e = op.tridiagonal()
        a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.array_equal(a, sign[:, None] * mm)
        assert np.array_equal(a, a.T)
        for j in range(3):
            np.testing.assert_allclose(band[j, :m - j], np.diag(a @ a, -j),
                                       rtol=1e-14, atol=1e-12)

    def test_cap_enforced(self):
        # no size cap: an operator and a level-0 sweep are O(m), and nothing
        # is assembled densely
        grid = Grid1D(-32.0, 32.0, 5002)
        op = build_operator(box(1.0, 2.0), 0.0, grid)
        assert op.size == 5000
        cfg = ReductionConfig(L_y=2.0 * math.pi, n_range=(-3, 3))
        rep = verify_degeneracy(box(1.0, 2.0), cfg, 0, grid)
        assert rep.g_numeric == rep.admissible_count == 3

    def test_free_operator_matches_central_difference(self):
        op = free_operator(12)
        m = op.m_matvec(np.eye(op.size))
        c = 1.0 / (2.0 * op.h)
        assert np.all(np.diag(m) == 0.0)
        assert np.all(np.diag(m, 1) == c)
        assert np.all(np.diag(m, -1) == -c)


class TestEigenSpectrum:
    def test_free_even_interior_gap(self):
        # even-sized interior: no exact zero; the finite-domain gap is
        # pi / (2 L), derived from the spectrum of the difference matrix
        op = free_operator(202, 10.0)  # interior m = 200, L = 20
        gap = math.pi / 40.0
        spec = eigen_spectrum(op, tau=0.9 * gap)
        assert spec.near_zero_count == 0
        smallest = np.min(np.abs(spec.eigenvalues))
        assert smallest == pytest.approx(gap, rel=2e-3)

    def test_free_odd_interior_has_spurious_zero(self):
        op = free_operator(203, 10.0)
        spec = eigen_spectrum(op, tau=1e-8)
        assert spec.near_zero_count == 1

    def test_chiral_pairing_exact(self):
        op = build_operator(truncated_gaussian(0.9, 0.8, 2.0), 0.3,
                            Grid1D(-20.0, 20.0, 202))
        vals = eigen_spectrum(op, tau=0.1).eigenvalues
        np.testing.assert_allclose(np.sort(vals), -np.sort(-vals)[::-1],
                                   atol=1e-10)

    def test_methods_agree(self):
        # the whole spectrum against a dense SVD of M, for a small and a
        # large channel
        for n in (162, 402):
            op = build_operator(box(1.0, 2.0), 0.4, Grid1D(-21.0, 21.0, n))
            got = eigen_spectrum(op, tau=0.1).eigenvalues
            np.testing.assert_allclose(got, reference_spectrum(op), rtol=0.0,
                                       atol=1e-8)

    @pytest.mark.parametrize("n", [162, 302, 402, 1002])
    def test_near_null_value_matches_dense_svd(self, n):
        # squaring M costs a singular value s ~eps ||M^T M|| / s: the
        # eigenvalues of M^T M alone put this one off by 2.0e-9 at n = 1002
        op = build_operator(box(1.0, 2.0), 0.4, Grid1D(-21.0, 21.0, n))
        spec = eigen_spectrum(op, tau=0.1)
        ref = scipy.linalg.svdvals(dense_m(op))[-1]
        assert spec.near_zero_count == 1
        assert abs(np.min(np.abs(spec.eigenvalues)) - ref) <= 1e-14

    @pytest.mark.parametrize("m", [600, 1200])
    def test_near_null_cluster_matches_dense_svd(self, m):
        # kink, antikink and kink in W: one value near 1e-16 and a
        # tunnelling pair near 3e-7, all three refined together
        x = np.linspace(-24.0, 24.0, m)
        w = 2.0 * (np.tanh(x + 9.0) - np.tanh(x) + np.tanh(x - 9.0))
        op = DiracOperator(grid=None, k_y=0.0, interior_x=x, w_values=w,
                           h=x[1] - x[0], bmax=1.0)
        spec = eigen_spectrum(op, tau=0.1)
        ref = scipy.linalg.svdvals(dense_m(op))[::-1][:3]
        assert ref[0] < 1e-14 and 1e-9 < ref[1] <= ref[2] < 1e-6
        assert spec.near_zero_count == 3
        np.testing.assert_allclose(spec.eigenvalues[m:m + 3], ref, rtol=0.0,
                                   atol=1e-14)

    def test_near_null_value_large_grid(self):
        # pinned from a dense SVD of the 3000 x 3000 M, which takes about
        # 7 s, too slow for the suite.  The eigenvalues of M^T M alone put
        # it at 0.0
        op = build_operator(box(1.0, 2.0), 0.4, Grid1D(-21.0, 21.0, 3002))
        smallest = np.min(np.abs(eigen_spectrum(op, tau=0.1).eigenvalues))
        assert smallest == pytest.approx(4.7104695425e-7, rel=1e-9,
                                         abs=0.0)
        if np.finfo(np.longdouble).eps < np.finfo(float).eps:
            # M V formed in extended precision and rounded once; forming
            # it in double misses the value by up to ~5e-10
            assert smallest == pytest.approx(4.71046954025e-7,
                                             rel=1e-11, abs=0.0)

    def test_counts_inside_and_outside_window(self):
        p = box(1.0, 2.0)
        g_in = Grid1D(-17.0, 17.0, 1202)
        assert eigen_spectrum(build_operator(p, 0.0, g_in)).near_zero_count == 1
        g_out = Grid1D(-7.0, 7.0, 702)
        assert eigen_spectrum(build_operator(p, 5.0, g_out)).near_zero_count == 0

    def test_landau_scale(self):
        # constant field inside a wide box: first level at sqrt(2 B)
        op = build_operator(box(1.0, 5.0), 0.0, Grid1D(-35.0, 35.0, 1402))
        vals = eigen_spectrum(op).eigenvalues
        first = np.min(vals[vals > 0.5])
        assert first == pytest.approx(math.sqrt(2.0), rel=0.01)

    def test_default_tau_requires_field(self):
        with pytest.raises(ValueError):
            eigen_spectrum(free_operator())

    def test_non_finite_tau_rejected(self):
        # nan would report no near-zero value, inf all of them
        op = build_operator(box(1.0, 2.0), 0.0, Grid1D(-17.0, 17.0, 102))
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="tau must be positive"):
                eigen_spectrum(op, tau=tau)

    def test_tau_gap_warning(self):
        op = build_operator(box(1.0, 2.0), 0.0, Grid1D(-17.0, 17.0, 102))
        with pytest.warns(UserWarning):
            eigen_spectrum(op, tau=1.0)
        # a tau far above the gap still counts every value below it, but
        # refines only those below half the gap, so the time stays bounded
        op = build_operator(box(1.0, 2.0), 0.0, Grid1D(-30.0, 30.0, 1002))
        t0 = time.perf_counter()
        with pytest.warns(UserWarning):
            spec = eigen_spectrum(op, tau=5.0)
        assert time.perf_counter() - t0 < 0.2
        assert spec.near_zero_count == 178


class TestModeResidual:
    def test_box_mode_h_squared(self):
        p = box(1.0, 2.0)
        res = []
        for n in (1701, 3401):  # h = 2e-2 then 1e-2
            g = Grid1D(-17.0, 17.0, n)
            op = build_operator(p, 0.0, g)
            mode = build_mode_1d(lambda_1d(p, 0.0, g), SECTOR_B)
            res.append(mode_residual(op, mode))
        assert res[1] <= 1e-2
        assert 3.0 <= res[0] / res[1] <= 5.0

    def test_constant_mode_on_zero_field(self):
        # non-normalizable constant solution: residual vanishes away from
        # the Dirichlet rows that see the dropped neighbour
        op = free_operator(402)
        g = op.grid

        class FlatMode:
            grid = g
            log_values = np.zeros(g.n)
            sector = SECTOR_B

        assert mode_residual(op, FlatMode(), drop_edge=1) <= 1e-10
        assert mode_residual(op, FlatMode()) > 1e-3

    def test_grid_mismatch(self):
        p = box(1.0, 2.0)
        op = build_operator(p, 0.0, Grid1D(-17.0, 17.0, 401))
        mode = build_mode_1d(lambda_1d(p, 0.0, Grid1D(-17.0, 17.0, 301)),
                             SECTOR_B)
        with pytest.raises(GridError):
            mode_residual(op, mode)

    def test_a_mode_of_mirrored_field(self):
        # B -> -B maps psi_b to psi_a and M to -M^T, so the a-mode residual
        # of the mirrored field is the b-mode residual, to the bit
        g = Grid1D(-17.0, 17.0, 1701)
        res = {}
        for b0, sector in ((1.0, SECTOR_B), (-1.0, SECTOR_A)):
            p = box(b0, 2.0)
            mode = build_mode_1d(lambda_1d(p, 0.0, g), sector)
            assert mode.normalizable
            res[sector.label] = mode_residual(build_operator(p, 0.0, g), mode)
        assert res["a"] == res["b"]


def susy_partners(op):
    """The squared chiral blocks (H_minus, H_plus) = (M^T M, M M^T)."""
    mm = dense_m(op)
    return mm.T @ mm, mm @ mm.T


class TestSusyPartners:
    # zero modes of H_minus / H_plus are the b / a sector zero modes; the
    # nonzero spectra coincide exactly
    @pytest.fixture
    def op(self):
        return build_operator(box(1.0, 5.0), 0.0, Grid1D(-35.0, 35.0, 702))

    def test_nonzero_spectra_coincide(self, op):
        hm, hp = susy_partners(op)
        em = np.sort(np.linalg.eigvalsh(hm))
        ep = np.sort(np.linalg.eigvalsh(hp))
        keep = em > 1e-8
        np.testing.assert_allclose(em[keep], ep[keep], rtol=1e-8, atol=1e-8)

    def test_constant_field_ladder(self, op):
        hm, _ = susy_partners(op)
        em = np.sort(np.linalg.eigvalsh(hm))
        # distinct low values of W^2 - W' sit at 2 n B (doubler branch
        # duplicates each nonzero rung, so compare against the value set)
        assert em[0] == pytest.approx(0.0, abs=1e-6)
        lowest = [v for v in em if v < 5.0]
        for target in (0.0, 2.0, 4.0):
            assert min(abs(v - target) for v in lowest) <= 0.05

    def test_null_dimensions_match_full_count(self, op):
        tau = 0.1 * math.sqrt(2.0)
        spec = eigen_spectrum(op, tau=tau)
        hm, hp = susy_partners(op)
        null_m = int(np.sum(np.linalg.eigvalsh(hm) < tau * tau))
        null_p = int(np.sum(np.linalg.eigvalsh(hp) < tau * tau))
        # the +-pair structure makes states double the mode count
        assert null_m + null_p == 2 * spec.near_zero_count
        assert null_m + null_p == int(np.sum(np.abs(spec.eigenvalues) < tau))


# the zero tolerance and the level-1 window of a sweep at B = 1
TAU = 0.1 * math.sqrt(2.0)
LEVEL1 = (math.sqrt(2.0) - TAU, math.sqrt(2.0) + TAU)


def random_operator(m, h, k, noise, seed):
    """Channel operator with W = k plus per-site gaussian noise."""
    rng = np.random.default_rng(seed)
    x = h * (np.arange(m) - 0.5 * (m - 1))
    w = k + noise * rng.standard_normal(m)
    return DiracOperator(grid=None, k_y=k, interior_x=x, w_values=w, h=h,
                         bmax=1.0)


def banded_eigenvalues(op):
    return scipy.linalg.eig_banded(mtm_band(op), lower=True,
                                   eigvals_only=True)


operators = dict(m=st.integers(2, 400), h=st.floats(0.05, 0.5),
                 k=st.floats(-3.0, 3.0), noise=st.floats(0.1, 3.0),
                 seed=st.integers(0, 2**32 - 1))


class TestInertiaCount:
    # thresholds are singular values s: the count of singular values below
    # s against the eigenvalues of M^T M below s^2
    @given(frac=st.floats(0.0, 1.1), neg=st.floats(0.0, 1e3), **operators)
    def test_matches_banded_spectrum(self, frac, neg, m, h, k, noise, seed):
        op = random_operator(m, h, k, noise, seed)
        band = mtm_band(op)
        ev = banded_eigenvalues(op)
        # tau, both level-window edges, a random point of the spectrum, the
        # first diagonal entry of M^T M and that of A, where the first
        # Sturm pivot is exactly zero
        sigmas = [TAU ** 2, LEVEL1[0] ** 2, LEVEL1[1] ** 2, frac * ev[-1],
                  band[0, 0], op.w_values[0] ** 2]
        for sigma in sigmas:
            if np.min(np.abs(ev - sigma)) <= 1e-9 * max(1.0, ev[-1]):
                continue   # within the rounding of an eigenvalue
            assert _sturm_count(op, math.sqrt(sigma)) == int(np.sum(ev < sigma))
        # singular values are not negative: nothing lies below s <= 0
        assert _sturm_count(op, 0.0) == 0
        assert _sturm_count(op, -neg) == 0

    @given(half=st.integers(1, 199), h=st.floats(0.05, 0.5))
    def test_free_operator_null_vector(self, half, h):
        # odd interior, zero field: (1, 0, 1, 0, ..., 1) is an exact null
        # vector of M and of A, whose diagonal is exactly zero
        m = 2 * half + 1
        op = DiracOperator(grid=None, k_y=0.0, interior_x=np.arange(m) * h,
                           w_values=np.zeros(m), h=h, bmax=0.0)
        ev = banded_eigenvalues(op)
        assert abs(ev[0]) <= 1e-12 * ev[-1] < ev[1]
        for s in (1e-150, 1e-10, 0.5 * math.sqrt(ev[1])):
            assert _sturm_count(op, s) == 1
        assert _sturm_count(op, 0.0) == 0
        for lo, hi in zip(ev[1:-1], ev[2:]):
            if hi - lo > 1e-9 * ev[-1]:
                mid = 0.5 * (lo + hi)
                assert _sturm_count(op, math.sqrt(mid)) == \
                    int(np.sum(ev < mid))

    @given(b0=st.floats(0.7, 1.4), negative=st.booleans(),
           a=st.floats(0.8, 2.0), gauss=st.booleans(),
           u=st.floats(-1.0, 1.0), inside=st.booleans())
    def test_window_sharpness(self, b0, negative, a, gauss, u, inside):
        # a channel at least 5 tau inside the window |k| < |Q|/2 has one
        # singular value below tau, one as far outside has none (the grid
        # rules of acceptance criterion 10)
        b0 = -b0 if negative else b0
        profile = truncated_gaussian(b0, a / 3.0, a) if gauss else box(b0, a)
        q = total_flux(profile).value
        half = 0.5 * abs(q)
        tau = 0.1 * math.sqrt(2.0 * abs(b0))
        layer = 5.0 * tau
        if inside:
            assume(half - layer > 0.1)
            k, expected = u * (half - layer), 1
        else:
            k, expected = math.copysign(half + layer + abs(u), u), 0
        extent = a + required_padding(q, k) + 1.0
        h = min(0.25 / max(abs(k) + half, 1.0), 0.1)
        m = int(math.ceil(2.0 * extent / h)) + 1
        op = build_operator(profile, k, Grid1D(-extent, extent, m + 2))
        assert _sturm_count(op, tau) == expected


def exact_count_below(d, e, sigma):
    """Eigenvalues below sigma of the symmetric tridiagonal (d, e), exactly.

    The LDL^T pivots of T - sigma I in rationals, which are exact for a
    float matrix, and Sylvester's law of inertia: the count is the number
    of negative pivots.  A zero pivot is taken as a positive infinitesimal,
    a positive semi-definite perturbation that moves no eigenvalue across
    sigma from above, so an eigenvalue at sigma is not counted; the pivot
    after it is then -inf, and the one after that d - sigma.
    """
    sigma = Fraction(sigma)
    count = 0
    carried = Fraction(0)    # e[i-1]^2 / p[i-1]; None after a zero pivot
    for i, di in enumerate(d):
        if carried is None:
            count += 1       # -inf
            carried = Fraction(0)
            continue
        pivot = Fraction(di) - sigma - carried
        count += pivot < 0
        if i < len(e):
            ei = Fraction(e[i])
            if pivot == 0:
                carried = None if ei else Fraction(0)
            else:
                carried = ei * ei / pivot
    return count


def exact_window_count(d, e, s):
    """Eigenvalues of the symmetric tridiagonal (d, e) in (-s, s], exactly:
    those of -T below s less those below -s."""
    neg = [-di for di in d]
    return exact_count_below(neg, e, s) - exact_count_below(neg, e, -s)


def gershgorin_norm(d, e):
    off = np.abs(np.concatenate([[0.0], e, [0.0]]))
    return float(np.max(np.abs(d) + off[:-1] + off[1:]))


class TestExactSturmCount:
    @given(m=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           s=st.floats(0.0, 5.0))
    def test_exact_count_matches_dense_spectrum(self, m, seed, s):
        # the helper against numpy's eigenvalues where no eigenvalue lies
        # within their rounding of +-s
        op = random_operator(m, 0.2, 0.5, 1.0, seed)
        d, e = op.tridiagonal()
        ev = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assume(np.min(np.abs(np.abs(ev) - s)) > 1e-9 * gershgorin_norm(d, e))
        inside = (ev > -s) & (ev <= s)
        assert exact_window_count(d, e, s) == int(np.sum(inside))

    @given(half=st.integers(1, 30), h=st.floats(0.05, 0.5))
    def test_exact_zero_pivots(self, half, h):
        # the free operator with an odd interior: A's diagonal is zero, so
        # at sigma = 0 every other pivot is exactly zero, and 0 is a simple
        # eigenvalue of a spectrum symmetric about it
        m = 2 * half + 1
        op = DiracOperator(grid=None, k_y=0.0, interior_x=np.arange(m) * h,
                           w_values=np.zeros(m), h=h, bmax=0.0)
        d, e = op.tridiagonal()
        assert exact_count_below(d, e, 0.0) == half
        assert exact_window_count(d, e, 1e-12) == 1
        assert exact_window_count(d, e, 0.0) == 0

    @settings(max_examples=60)
    @given(m=st.integers(2, 200), h=st.floats(0.05, 0.5),
           k=st.floats(-3.0, 3.0), noise=st.floats(0.1, 3.0),
           seed=st.integers(0, 2**32 - 1), pick=st.floats(0.0, 1.0),
           offset=st.floats(-16.0, -10.0),
           side=st.sampled_from([-1.0, 1.0]))
    def test_sturm_count_is_exact_away_from_its_tolerance(
            self, m, h, k, noise, seed, pick, offset, side):
        # s placed 1e-16 to 1e-10 ||A|| from an eigenvalue's magnitude:
        # dstebz's count must be exact unless an eigenvalue lies within
        # 4 eps ||A|| of -s or s, which the exact counts on either side of
        # that margin show
        op = random_operator(m, h, k, noise, seed)
        d, e = op.tridiagonal()
        norm = gershgorin_norm(d, e)
        ev = scipy.linalg.eigvalsh_tridiagonal(d, e)
        target = abs(ev[int(pick * (m - 1))])
        s = target + side * 10.0 ** offset * norm
        assume(s > 0.0)
        margin = 4 * Fraction(norm) / 2 ** 52   # 4 eps ||A||
        inner = exact_window_count(d, e, Fraction(s) - margin)
        outer = exact_window_count(d, e, Fraction(s) + margin)
        if inner == outer:
            assert _sturm_count(op, s) == inner


class TestChiralPairing:
    @given(**{**operators, "m": st.integers(2, 150)})
    def test_dense_spectrum_is_symmetric(self, m, h, k, noise, seed):
        op = random_operator(m, h, k, noise, seed)
        vals = eigen_spectrum(op, tau=TAU).eigenvalues
        np.testing.assert_allclose(vals, -vals[::-1], rtol=0.0, atol=1e-10)


class TestDenseReference:
    @given(gauss=st.booleans(), b0=st.floats(0.5, 1.5),
           negative=st.booleans(), a=st.floats(0.8, 2.0),
           k=st.floats(-3.0, 3.0), m=st.integers(20, 600),
           extent=st.floats(4.0, 20.0), frac=st.floats(0.01, 0.45))
    @example(gauss=False, b0=1.0, negative=False, a=2.0, k=0.4, m=600,
             extent=21.0, frac=0.05)
    @example(gauss=True, b0=1.2, negative=True, a=1.5, k=0.3, m=301,
             extent=15.0, frac=0.2)
    def test_matches_dense_svd(self, gauss, b0, negative, a, k, m, extent,
                               frac):
        # small and large channels alike; tau runs up to just below half
        # the first Landau gap, where counts still mean zero modes
        b0 = -b0 if negative else b0
        profile = truncated_gaussian(b0, a / 3.0, a) if gauss else box(b0, a)
        op = build_operator(profile, k, Grid1D(-extent, extent, m + 2))
        tau = frac * math.sqrt(2.0 * abs(b0))
        ref = scipy.linalg.svdvals(dense_m(op))[::-1]
        spec = eigen_spectrum(op, tau=tau)
        s = spec.eigenvalues[m:]
        np.testing.assert_array_equal(spec.eigenvalues[:m], -s[::-1])
        np.testing.assert_allclose(s, ref, rtol=0.0, atol=1e-8)
        below = ref < tau
        np.testing.assert_allclose(s[below], ref[below], rtol=0.0,
                                   atol=1e-13)
        if np.min(np.abs(ref - tau)) > 1e-9:
            assert spec.near_zero_count == int(np.sum(below))


class TestWindowedModes:
    def test_window_matches_full_spectrum(self):
        op = build_operator(box(1.0, 5.0), 0.0, Grid1D(-35.0, 35.0, 702))
        svals, vecs = windowed_singular_modes(op, 1.2, 1.6)
        full = eigen_spectrum(op, tau=0.1).eigenvalues
        expect = full[(full >= 1.2) & (full <= 1.6)]
        np.testing.assert_allclose(np.sort(svals), np.sort(expect), atol=1e-8)
        assert vecs.shape == (op.size, svals.size)

    def test_repeat_calls_bit_identical(self):
        # bisection and inverse iteration (dstein, whose start vectors are
        # fixed) repeat exactly: the vectors, not only the basis-free
        # weights
        op = build_operator(box(1.0, 5.0), 0.0, Grid1D(-35.0, 35.0, 702))
        first, again = (windowed_singular_modes(op, 1.2, 1.6)
                        for _ in range(2))
        assert first[1].shape[1] > 1
        assert np.array_equal(first[0], again[0])
        assert np.array_equal(first[1], again[1])

    def test_empty_window(self):
        op = free_operator(102)
        svals, vecs = windowed_singular_modes(op, 1e-6, 1e-5)
        assert svals.size == 0 and vecs.shape[1] == 0

    def test_zero_width_window(self):
        # dstebz refuses an interval with vl >= vu (info -5); a level-1
        # sweep gets lo == hi when cluster_tol is below the centre's spacing
        op = build_operator(box(1.0, 5.0), 0.0, Grid1D(-35.0, 35.0, 702))
        center = math.sqrt(2.0)
        assert center - 1e-20 == center + 1e-20
        svals, vecs = windowed_singular_modes(op, center, center)
        assert svals.shape == (0,) and vecs.shape == (op.size, 0)

    @given(start=st.floats(0.0, 1.0), width=st.integers(1, 30), **operators)
    @example(start=0.0, width=30, m=5, h=0.1, k=2.0, noise=0.1, seed=0)
    def test_matches_banded_select(self, start, width, m, h, k, noise, seed):
        # the window holds singular values i..j; its edges sit halfway
        # across gaps wider than the bulk-weight grouping tolerance, so the
        # window and every group in it are well defined
        op = random_operator(m, h, k, noise, seed)
        s = np.sqrt(np.clip(banded_eigenvalues(op), 0.0, None))
        i = int(start * (m - 1))
        j = min(i + width, m) - 1
        assume(s[i] >= 0.1)
        assume(i == 0 or s[i] - s[i - 1] > 2e-3)
        assume(j == m - 1 or s[j + 1] - s[j] > 2e-3)
        lo = 0.5 * (s[i - 1] + s[i]) if i > 0 else 0.0
        hi = 0.5 * (s[j] + s[j + 1]) if j < m - 1 else s[-1] + 1.0
        ref_vals, ref_vecs = scipy.linalg.eig_banded(
            mtm_band(op), lower=True, select="v",
            select_range=(lo * lo, hi * hi))
        ref = np.sqrt(np.clip(ref_vals, 0.0, None))
        svals, vecs = windowed_singular_modes(op, lo, hi)
        assert svals.shape == ref.shape == (j - i + 1,)
        assert np.all(np.diff(svals) >= 0.0)
        np.testing.assert_allclose(svals, ref, rtol=0.0, atol=1e-10)
        mask = (np.abs(op.interior_x) <= 0.25 * m * h).astype(float)
        assert abs(_smooth_bulk_weight(svals, vecs, mask)
                   - _smooth_bulk_weight(ref, ref_vecs, mask)) <= 1e-10


def full_precision_modes(op, lo, hi):
    """The windowed solve with bisection to full precision (absolute
    tolerance 0, i.e. ulp ||A||) and the bisection values as the singular
    values: the reference for ``windowed_singular_modes``."""
    d, e = op.tridiagonal()
    vals, blocks = [], []
    for vl, vu in ((-hi, -lo), (lo, hi)):
        k, w, iblock, isplit, info = lapack.dstebz(d, e, 1, vl, vu, 0, 0,
                                                   0.0, b"B")
        assert info == 0
        vals.append(w[:k])
        blocks.append(iblock[:k])
    k = sum(v.size for v in vals)
    if k == 0:
        return np.empty(0), np.empty((op.size, 0))
    vals, blocks = np.concatenate(vals), np.concatenate(blocks)
    order = np.lexsort((vals, blocks))
    iblock[:k] = blocks[order]
    vecs, info = lapack.dstein(d, e, vals[order], iblock, isplit)
    assert info == 0
    svals = np.abs(vals[order])
    order = np.argsort(svals, kind="stable")
    return svals[order], vecs[:, order]


def tridiagonal_norm(op):
    """||A||, the largest |eigenvalue| of the tridiagonal A = J M."""
    vals = scipy.linalg.eigvalsh_tridiagonal(*op.tridiagonal())
    return float(np.max(np.abs(vals)))


def double_well(barrier):
    """Two identical wells of 30 sites (W ~ N(0, 0.25), against 3 around
    them) ``barrier`` sites apart, h = 0.1: each level below 3 is a pair
    split by tunnelling.  Returns the operator and the mask of the first
    well, in which a pair's weight does not depend on its basis."""
    well = 0.5 * np.random.default_rng(3).standard_normal(30)
    w = np.concatenate([np.full(60, 3.0), well, np.full(barrier, 3.0), well,
                        np.full(60, 3.0)])
    mask = np.zeros(w.size)
    mask[60:90] = 1.0
    op = DiracOperator(grid=None, k_y=0.0, interior_x=0.1 * np.arange(w.size),
                       w_values=w, h=0.1, bmax=1.0)
    return op, mask


class TestWindowedAccuracy:
    # windowed_singular_modes bisects only to eps^(2/3) ||A|| away from the
    # window's edges and returns Ritz values: against bisection to full
    # precision it must keep the count, the values to about eps ||A|| and
    # the bulk weights

    @given(lo_frac=st.floats(0.0, 1.1), width_frac=st.floats(0.0, 1.1),
           **operators)
    @example(lo_frac=0.0, width_frac=1.1, m=400, h=0.05, k=0.0, noise=3.0,
             seed=1)
    @example(lo_frac=0.3, width_frac=0.01, m=300, h=0.1, k=2.0, noise=0.1,
             seed=2)
    # an isolated value whose dstein start vector leaves its neighbour
    # 8e-3 away at 1e-10 after three steps from a shift only sqrt(eps)
    # ||A|| off: the weight then missed by 8e-12
    @example(lo_frac=0.5, width_frac=1.0, m=317, h=0.07073126044426747,
             k=2.5, noise=1.0378331791204338, seed=1046)
    def test_matches_full_precision(self, lo_frac, width_frac, m, h, k,
                                    noise, seed):
        op = random_operator(m, h, k, noise, seed)
        norm = tridiagonal_norm(op)
        lo = lo_frac * norm
        hi = lo + width_frac * norm
        assume(lo < hi)
        ref_vals, ref_vecs = full_precision_modes(op, lo, hi)
        svals, vecs = windowed_singular_modes(op, lo, hi)
        assert svals.shape == ref_vals.shape
        assert vecs.shape == ref_vecs.shape
        assert np.all(np.diff(svals) >= 0.0)
        np.testing.assert_allclose(svals, ref_vals, rtol=0.0,
                                   atol=1e-12 * norm)
        mask = (np.abs(op.interior_x) <= 0.25 * m * h).astype(float)
        assert abs(_smooth_bulk_weight(svals, vecs, mask)
                   - _smooth_bulk_weight(ref_vals, ref_vecs, mask)) <= 1e-12

    def test_pairs_closer_than_the_bisection_tolerance(self):
        # wells 100 sites apart: each level is a pair split by 1e-13 to
        # 1e-9, far below sqrt(eps) ||A|| ~ 1.5e-7; the closest pairs are
        # parted by no bisection tolerance short of ulp ||A||, so their
        # vectors may come out in any basis of the pair's span
        op, mask = double_well(100)
        norm = tridiagonal_norm(op)
        lo, hi = 0.3, 2.25   # five pairs
        ref_vals, ref_vecs = full_precision_modes(op, lo, hi)
        pairs = ref_vals.reshape(-1, 2)
        assert pairs.shape == (5, 2)
        split = pairs[:, 1] - pairs[:, 0]
        assert np.all(split < math.sqrt(np.finfo(float).eps) * norm)
        assert np.all(np.diff(pairs[:, 0]) > 1e-2)
        svals, vecs = windowed_singular_modes(op, lo, hi)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(svals.size),
                                   rtol=0.0, atol=1e-12)
        tol = 1e-12 * norm
        for (a, b), got in zip(pairs, svals.reshape(-1, 2)):
            assert np.all((a - tol <= got) & (got <= b + tol))
        # the vectors of each pair span the pair's eigenspace
        for j in range(0, svals.size, 2):
            overlap = np.linalg.svd(ref_vecs[:, j:j + 2].T @ vecs[:, j:j + 2],
                                    compute_uv=False)
            np.testing.assert_allclose(overlap, 1.0, rtol=0.0, atol=1e-10)
        assert abs(_smooth_bulk_weight(svals, vecs, mask)
                   - _smooth_bulk_weight(ref_vals, ref_vecs, mask)) \
            <= 1e-12

    @pytest.mark.parametrize("pair", [2, 3, 4, 5])
    @pytest.mark.parametrize("edge", ["lo", "hi"])
    def test_window_edge_between_a_close_pair(self, pair, edge):
        # wells 50 sites apart: the pairs split by 1e-6 to 2e-5, above
        # sqrt(eps) ||A|| but close enough that inverse iteration from a
        # shift bisected only to sqrt(eps) ||A|| mixes the level left out
        # of the window into its partner's vector.  No solver fixes that
        # vector better than eps ||A|| / split.
        op, mask = double_well(50)
        levels = full_precision_modes(op, 0.3, 2.6)[0]
        assert levels.size == 12
        split = levels[2 * pair + 1] - levels[2 * pair]
        assert 5e-7 < split < 1e-4
        cut = 0.5 * (levels[2 * pair] + levels[2 * pair + 1])
        lo, hi = (cut, 2.6) if edge == "lo" else (0.3, cut)
        ref_vals, ref_vecs = full_precision_modes(op, lo, hi)
        svals, vecs = windowed_singular_modes(op, lo, hi)
        assert svals.shape == ref_vals.shape
        conditioning = np.finfo(float).eps * tridiagonal_norm(op) / split
        assert abs(_smooth_bulk_weight(svals, vecs, mask)
                   - _smooth_bulk_weight(ref_vals, ref_vecs, mask)) \
            <= 10.0 * conditioning


def qr_bulk_weight(svals, vecs, support_mask):
    """The bulk weight in its difference/sum form on a QR basis of each
    group: the reference for the Gram form of ``_smooth_bulk_weight``."""
    weight = 0.0
    for run in _gap_runs(svals, _GROUP_TOL):
        basis, _ = np.linalg.qr(vecs[:, run])
        d = np.diff(basis, axis=0)
        s = basis[1:] + basis[:-1]
        split, rot = np.linalg.eigh(d.T @ d - s.T @ s)
        smooth = basis @ rot[:, split < 0.0]
        weight += float(np.sum((smooth * support_mask[:, None]) * smooth))
    return weight


class TestBulkWeightPremises:
    # _smooth_bulk_weight classifies each group of windowed vectors by the
    # Gram product of neighbouring rows, with no QR: that rests on the
    # vectors coming out orthonormal

    @given(lo_frac=st.floats(0.0, 1.1), width_frac=st.floats(0.0, 1.1),
           **operators)
    @example(lo_frac=0.0, width_frac=1.1, m=400, h=0.05, k=0.0, noise=3.0,
             seed=1)
    def test_windowed_vectors_orthonormal(self, lo_frac, width_frac, m, h, k,
                                          noise, seed):
        op = random_operator(m, h, k, noise, seed)
        norm = gershgorin_norm(*op.tridiagonal())
        lo, hi = lo_frac * norm, (lo_frac + width_frac) * norm
        assume(lo < hi)
        svals, vecs = windowed_singular_modes(op, lo, hi)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(svals.size),
                                   rtol=0.0, atol=1e-12)

    @given(lo_frac=st.floats(0.0, 1.1), width_frac=st.floats(0.0, 1.1),
           **operators)
    @example(lo_frac=0.0, width_frac=1.1, m=400, h=0.05, k=0.0, noise=3.0,
             seed=1)
    def test_gram_form_matches_qr_form(self, lo_frac, width_frac, m, h, k,
                                       noise, seed):
        op = random_operator(m, h, k, noise, seed)
        norm = gershgorin_norm(*op.tridiagonal())
        lo, hi = lo_frac * norm, (lo_frac + width_frac) * norm
        assume(lo < hi)
        svals, vecs = windowed_singular_modes(op, lo, hi)
        mask = (np.abs(op.interior_x) <= 0.25 * m * h).astype(float)
        assert abs(_smooth_bulk_weight(svals, vecs, mask)
                   - qr_bulk_weight(svals, vecs, mask)) <= 1e-12

    @pytest.mark.parametrize("case", ["landau", "double_well"])
    def test_gram_form_on_degenerate_groups(self, case):
        # groups of more than one vector: a level and its doubler on the
        # g = 10 strip, and tunnelling pairs split by 1e-13 to 1e-9
        if case == "landau":
            op = build_operator(box(1.0, 5.0), 0.0, Grid1D(-35.0, 35.0, 702))
            mask = (np.abs(op.interior_x) <= 5.0).astype(float)
            lo, hi = 1.2, 1.6
        else:
            (op, mask), lo, hi = double_well(100), 0.3, 2.25
        svals, vecs = windowed_singular_modes(op, lo, hi)
        assert max(run.stop - run.start for run
                   in _gap_runs(svals, _GROUP_TOL)) > 1
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(svals.size),
                                   rtol=0.0, atol=1e-12)
        assert abs(_smooth_bulk_weight(svals, vecs, mask)
                   - qr_bulk_weight(svals, vecs, mask)) <= 1e-12

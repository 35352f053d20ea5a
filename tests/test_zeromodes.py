"""Zero modes: admissibility windows, normalizability, plane counting."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import simpson

from zml.errors import GridError, ProfileError
from zml.potential import lambda_1d, lambda_2d_radial, window_margin
from zml.profiles import (DIM_RADIAL, Grid1D, box, bump, piecewise_linear,
                          total_flux, truncated_gaussian)
from zml.zeromodes import (SECTOR_A, SECTOR_B, SECTOR_NONE, _simpson_weights,
                           _support_block, build_mode_1d, build_mode_2d,
                           count_2d_zero_modes, flux_sector, scan_k)

TWO_PI = 2.0 * math.pi


class TestAdmissibleInterval:
    def test_positive_flux_selects_b(self):
        assert flux_sector(4.0) is SECTOR_B
        assert window_margin(4.0, 1.99) > 0.0
        assert window_margin(4.0, 2.0) == 0.0 > window_margin(4.0, -2.01)

    def test_negative_flux_selects_a(self):
        assert flux_sector(-4.0) is SECTOR_A
        assert window_margin(-4.0, -1.5) == window_margin(4.0, 1.5) == 0.5

    def test_zero_flux_admits_nothing(self):
        assert flux_sector(0.0) is SECTOR_NONE
        assert window_margin(0.0, 0.0) == 0.0

    def test_gamma_convention(self):
        assert SECTOR_A.gamma == 1
        assert SECTOR_B.gamma == -1


class TestBuildMode1D:
    def test_box_b_mode_normalizable(self):
        g = Grid1D(-17.0, 17.0, 1701)
        mode = build_mode_1d(lambda_1d(box(1.0, 2.0), 0.0, g), SECTOR_B)
        assert mode.normalizable
        x = g.points()
        i0 = np.argmin(np.abs(x))
        i2 = np.argmin(np.abs(x - 2.0))
        ratio = math.exp(mode.log_values[i0] - mode.log_values[i2])
        assert ratio == pytest.approx(math.e ** 2, rel=1e-10)
        assert math.isfinite(mode.l2_norm) and mode.l2_norm > 0

    def test_outside_window_not_normalizable(self):
        g = Grid1D(-17.0, 17.0, 301)
        mode = build_mode_1d(lambda_1d(box(1.0, 2.0), 2.1, g), SECTOR_B)
        assert not mode.normalizable
        assert mode.l2_norm == math.inf

    def test_a_sector_never_normalizable_for_positive_flux(self):
        g = Grid1D(-17.0, 17.0, 301)
        for k in (-1.5, 0.0, 1.5, 3.0):
            pot = lambda_1d(box(1.0, 2.0), k, g)
            assert not build_mode_1d(pot, SECTOR_A).normalizable

    def test_sector_none_rejected(self):
        with pytest.raises(ValueError):
            build_mode_1d(lambda_1d(box(1.0, 2.0), 0.0,
                                    Grid1D(-17.0, 17.0, 101)), SECTOR_NONE)

    def test_radial_potential_rejected(self):
        g = Grid1D(0.0, 10.0, 21)
        pot = lambda_2d_radial(box(1.0, 2.0, dimension=DIM_RADIAL), g)
        with pytest.raises(ProfileError, match="line"):
            build_mode_1d(pot, SECTOR_B)

    def test_short_grid_is_built(self):
        # 3 past the support, far below the padding rule's 15: the builder
        # builds, and the stages that need the padding check it
        g = Grid1D(-5.0, 5.0, 101)
        mode = build_mode_1d(lambda_1d(box(1.0, 2.0), 0.0, g), SECTOR_B)
        assert mode.normalizable and math.isfinite(mode.l2_norm)

    def test_mode_positivity_on_samples(self):
        g = Grid1D(-23.0, 23.0, 921)
        mode = build_mode_1d(lambda_1d(box(1.0, 2.0), 0.5, g), SECTOR_B)
        finite = np.isfinite(mode.values)
        representable = mode.log_values >= -745.0
        assert np.all(mode.values[finite & representable] > 0.0)

    def test_norm_stable_under_domain_doubling(self):
        p = box(1.0, 2.0)
        n1, n2 = (build_mode_1d(lambda_1d(p, 0.0, g), SECTOR_B).l2_norm
                  for g in (Grid1D(-17.0, 17.0, 3401),
                            Grid1D(-34.0, 34.0, 6801)))
        assert abs(n2 - n1) / n1 < 1e-8


class TestScanK:
    def test_window_booleans_for_q4(self):
        g = Grid1D(-30.0, 30.0, 601)
        ks = [-2.1, -2.0, -1.9, 0.0, 1.9, 2.0, 2.1]
        base = lambda_1d(box(1.0, 2.0), 0.0, g)
        got = [e.normalizable for e in scan_k(base, SECTOR_B, ks)]
        assert got == [False, False, True, True, True, False, False]
        got_a = [e.normalizable for e in scan_k(base, SECTOR_A, ks)]
        assert got_a == [False] * 7

    def test_zero_flux_all_false(self):
        g = Grid1D(-10.0, 10.0, 101)
        base = lambda_1d(box(0.0, 1.0), 0.0, g)
        entries = scan_k(base, SECTOR_B, [-1.0, 0.0, 1.0])
        assert all(not e.normalizable for e in entries)
        assert all(e.l2_norm == math.inf for e in entries)

    def test_base_must_be_lambda_0(self):
        g = Grid1D(-30.0, 30.0, 601)
        base = lambda_1d(box(1.0, 2.0), 0.5, g)
        with pytest.raises(ValueError, match="lambda_0"):
            scan_k(base, SECTOR_B, [0.0])

    def test_endpoints_excluded(self):
        g = Grid1D(-30.0, 30.0, 601)
        base = lambda_1d(box(1.0, 2.0), 0.0, g)
        entries = scan_k(base, SECTOR_B, [-2.0, 2.0])
        assert [e.normalizable for e in entries] == [False, False]

    def test_interval_sharpness_random(self, rng):
        # verdicts true exactly on the open window, across random fluxes
        for _ in range(25):
            b0 = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
            a = float(rng.uniform(0.5, 3.0))
            p = box(b0, a)
            q = total_flux(p).value
            sector = SECTOR_B if q > 0.0 else SECTOR_A
            g = Grid1D(-a - 8.0, a + 8.0, 201)
            ks = rng.uniform(-1.5 * abs(q), 1.5 * abs(q), size=8)
            base = lambda_1d(p, 0.0, g)
            for entry in scan_k(base, sector, ks):
                inside = -abs(q) / 2 < entry.k < abs(q) / 2
                assert entry.normalizable == inside

    def test_sector_exclusivity_random(self, rng):
        for _ in range(15):
            b0 = float(rng.uniform(-2.0, 2.0))
            p = box(b0, 1.3)
            g = Grid1D(-12.0, 12.0, 201)
            base = lambda_1d(p, 0.0, g)
            for k in rng.uniform(-3.0, 3.0, size=5):
                na = scan_k(base, SECTOR_A, [k])[0].normalizable
                nb = scan_k(base, SECTOR_B, [k])[0].normalizable
                assert not (na and nb)
                q = total_flux(p).value
                if q != 0.0 and abs(k) < 0.5 * abs(q):
                    assert na or nb


# --- the blocked scan against one mode built per k --------------------------

_amplitude = st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3)
_width = st.floats(0.2, 4.0)


def _piecewise(start, knots):
    x = start + np.cumsum([dx for dx, _ in knots])
    return piecewise_linear([(xi, v) for xi, (_, v) in zip(x, knots)])


_line_profiles = st.one_of(
    st.builds(box, _amplitude, _width),
    st.builds(truncated_gaussian, _amplitude, st.floats(0.2, 3.0), _width),
    st.builds(bump, _amplitude, _width),
    st.builds(_piecewise, st.floats(-6.0, 2.0),
              st.lists(st.tuples(st.floats(0.05, 2.0), _amplitude),
                       min_size=2, max_size=6)),
)
# a k value as a multiple of Q/2: the window edges, inside and outside it
_k_over_half_q = st.one_of(st.sampled_from([-1.0, 1.0, 0.0]),
                           st.floats(-2.0, 2.0))


def _same_norm(got, want):
    if math.isinf(want) or want == 0.0:
        return got == want
    return abs(got - want) <= 4 * np.spacing(want)


def _check_against_modes(profile, sector, k_list, grid):
    entries = scan_k(lambda_1d(profile, 0.0, grid), sector, k_list)
    assert len(entries) == len(k_list)
    modes = {}
    for k, entry in zip(k_list, entries):
        assert entry.k == float(k)
        if k not in modes:
            modes[k] = build_mode_1d(lambda_1d(profile, k, grid), sector)
        mode = modes[k]
        assert entry.normalizable == mode.normalizable
        assert _same_norm(entry.l2_norm, mode.l2_norm), (k, entry, mode.l2_norm)
    return entries


@settings(max_examples=settings.default.max_examples * 2 // 5)
@given(profile=_line_profiles,
       fractions=st.lists(_k_over_half_q, min_size=1, max_size=8),
       length=st.sampled_from([1, 511, 512, 513, 1025]),
       seed=st.integers(0, 2 ** 32 - 1),
       container=st.sampled_from([list, tuple, np.array]),
       n=st.integers(3, 160))
def test_scan_matches_per_k_modes(profile, fractions, length, seed,
                                  container, n):
    """Across block boundaries, every scan row of either sector has the
    verdict of build_mode_1d at its k and its norm to 4 ulp, and the scan's
    columns are 1-D float, bool and float arrays in k_list order; k values are
    drawn from a few multiples of Q/2 (the edges exactly among them) in a
    random order, so each distinct k needs one reference mode."""
    half_q = 0.5 * total_flux(profile).value
    pool = [f * half_q for f in fractions]
    order = np.random.default_rng(seed).integers(0, len(pool), size=length)
    k_list = container([pool[i] for i in order])
    lo, hi = profile.support
    grid = Grid1D(lo - 6.0, hi + 6.0, n)
    for sector in (SECTOR_A, SECTOR_B):
        scan = _check_against_modes(profile, sector, k_list, grid)
        # the result is its columns: one 1-D array per field, k_list order
        assert len(scan) == len(k_list)
        for column, dtype in ((scan.k, float), (scan.normalizable, bool),
                              (scan.l2_norm, float)):
            assert isinstance(column, np.ndarray)
            assert column.ndim == 1 and column.dtype == dtype
        np.testing.assert_array_equal(scan.k, np.asarray(k_list, float))


def test_scan_norm_overflows_while_normalizable():
    # a strong positive core between two negative lobes (Q = 200) dips
    # lambda_0 to about -1100 at the centre, so exp(-lambda) overflows
    c = 200.0
    profile = piecewise_linear([(-7.0, 0.0), (-6.0, -c), (-5.0, 0.0),
                                (-1.0, 0.0), (0.0, 3.0 * c), (1.0, 0.0),
                                (5.0, 0.0), (6.0, -c), (7.0, 0.0)])
    grid = Grid1D(-12.0, 12.0, 121)
    k_list = np.linspace(-120.0, 120.0, 700)
    entries = _check_against_modes(profile, SECTOR_B, k_list, grid)
    inside = [e for e in entries if abs(e.k) < 100.0]
    assert inside and all(e.normalizable and e.l2_norm == math.inf
                          for e in inside)


# --- the support block and its closed-form exterior -------------------------

def _grid_over(profile, steps, u, v, pad, refine=1):
    """Grid of step h = width/(steps + v) whose points over the support are
    the same whatever the padding: the support starts u h right of a point
    and ends (1 - u - v) h left of one, so no point is within rounding of a
    support end (where the block may take either neighbour).  pad[0] and
    pad[1] points lie past those two points; refine divides h."""
    lo, hi = profile.support
    h = (hi - lo) / (steps + v)
    x_lo = lo - (u + pad[0]) * h
    n = pad[0] + steps + 2 + pad[1]
    return Grid1D(x_lo, x_lo + (n - 1) * h, (n - 1) * refine + 1)


def _admissible_norms(profile, fractions, grid):
    # scan norms at k = f |Q|/2 in the flux's sector, where they are finite
    q = total_flux(profile).value
    ks = [f * 0.5 * abs(q) for f in fractions]
    return scan_k(lambda_1d(profile, 0.0, grid), flux_sector(q), ks).l2_norm


_offset = st.floats(0.05, 0.45)
# k / (|Q|/2) up to 1 - 1e-3, the window edges' neighbourhood included
_inside = st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=6).map(
    lambda f: f + [0.999, -0.999])


@settings(max_examples=settings.default.max_examples * 2 // 5)
@given(profile=_line_profiles, steps=st.integers(24, 64), u=_offset,
       v=_offset, fractions=_inside,
       small=st.tuples(st.integers(2, 5), st.integers(2, 5)),
       large=st.tuples(st.integers(200, 400), st.integers(200, 400)))
def test_norms_do_not_depend_on_padding(profile, steps, u, v, fractions,
                                        small, large):
    """Two grids of one step with the same points over the support, padded
    by a few points and by hundreds: the exterior is exact, so every norm
    of the flux's sector agrees to 1e-12, up to the window edges."""
    assume(total_flux(profile).value != 0.0)
    near, far = (_admissible_norms(profile, fractions,
                                   _grid_over(profile, steps, u, v, pad))
                 for pad in (small, large))
    finite = np.isfinite(far)
    np.testing.assert_array_equal(finite, np.isfinite(near))
    np.testing.assert_allclose(near[finite], far[finite], rtol=1e-12, atol=0)


# the worst of 16 000 random draws of this property measured 6.5e-4 (a box,
# Q = 13.7, 26 steps over the support); do not raise this bound
_CONVERGENCE_RTOL = 2e-3


@settings(max_examples=settings.default.max_examples * 2 // 5)
@given(profile=_line_profiles, steps=st.integers(24, 64), u=_offset,
       v=_offset, fractions=_inside)
def test_norms_converge_under_refinement(profile, steps, u, v, fractions):
    """The norm at step h is the same rule's at h/8 to _CONVERGENCE_RTOL,
    near the window edges too, where the exterior tails dominate."""
    assume(total_flux(profile).value != 0.0)
    coarse, fine = (_admissible_norms(profile, fractions,
                                      _grid_over(profile, steps, u, v,
                                                 (3, 3), refine))
                    for refine in (1, 8))
    ok = np.isfinite(fine) & (fine > 0.0)
    np.testing.assert_allclose(coarse[ok], fine[ok], rtol=_CONVERGENCE_RTOL,
                               atol=0)


@pytest.mark.parametrize("profile", [
    box(1.0, 2.0), bump(-1.5, 2.0), truncated_gaussian(0.8, 1.0, 3.0),
    piecewise_linear([(-2.0, 0.0), (-0.5, -1.2), (1.0, 0.4), (2.5, -0.3)])])
@pytest.mark.parametrize("edge", [1.0, -1.0])
def test_edge_limit(profile, edge):
    """2 delta ||psi_k||^2 / psi(x_end)^2 -> 1 as delta = |Q|/2 - |k| -> 0,
    x_end the block end on the near edge's side: the slow tail's geometric
    series is the continuum's 1/(2 delta) there."""
    q = total_flux(profile).value
    sector = flux_sector(q)
    grid = Grid1D(profile.support[0] - 6.0, profile.support[1] + 6.0, 161)
    x = grid.points()
    block, tails = _support_block(x, profile.support)
    assert tails == (True, True)
    # the slope k - Q/2 of the left tail vanishes as k -> Q/2
    end = block.start if edge * q > 0.0 else block.stop - 1
    errors = []
    for delta in (1e-2, 1e-4, 1e-6, 1e-8):
        k = edge * (0.5 * abs(q) - delta)
        pot = lambda_1d(profile, k, grid)
        mode = build_mode_1d(pot, sector)
        ratio = 2.0 * delta * mode.l2_norm ** 2 / math.exp(
            2.0 * sector.gamma * pot.values[end])
        errors.append(abs(ratio - 1.0))
    # the rest of the norm is O(1), so the ratio misses 1 by O(delta)
    assert errors[-1] < 1e-6
    assert all(b < 0.05 * a for a, b in zip(errors, errors[1:]))


def _today(log_psi, x):
    # the plain max-shifted Simpson sum over the whole grid
    shift = log_psi.max()
    rows = np.exp(2.0 * (log_psi - shift))[None, :]
    return math.exp(shift + 0.5 * math.log(
        np.einsum("ij,j->i", rows, _simpson_weights(x))[0]))


class TestSupportBlock:
    def test_grid_inside_support_is_todays_sum(self):
        profile = box(0.5, 5.0)
        for n in (71, 72):
            grid = Grid1D(-3.0, 4.0, n)
            x = grid.points()
            assert _support_block(x, profile.support) == (slice(0, n),
                                                          (False, False))
            base = lambda_1d(profile, 0.0, grid)
            for k in (0.0, 1.2):
                pot = lambda_1d(profile, k, grid)
                want = _today(-pot.values, x)
                assert build_mode_1d(pot, SECTOR_B).l2_norm == want
                assert scan_k(base, SECTOR_B, [k])[0].l2_norm == want

    def test_whole_line_support_is_todays_sum(self):
        # a ScalarPotential that claims no support keeps the plain sum
        grid = Grid1D(-9.0, 9.0, 91)
        pot = lambda_1d(bump(1.5, 2.0), 0.3, grid)
        line = dataclasses.replace(pot, support=(-math.inf, math.inf))
        assert build_mode_1d(line, SECTOR_B).l2_norm == _today(
            -pot.values, grid.points())

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_one_sided_tail(self, side):
        # the grid ends inside the support on one side: that side is the
        # truncated sum, the other the Simpson sum of the exact exponential
        # continuation, here written out over 4 000 more points
        profile = bump(1.0, 3.0)
        lo, hi = (-1.7, 9.1) if side == "left" else (-9.1, 1.7)
        grid = Grid1D(lo, hi, 109)
        x, h = grid.points(), grid.h
        block, tails = _support_block(x, profile.support)
        assert tails == ((False, True) if side == "left" else (True, False))
        assert (block.start == 0) == (side == "left")
        assert (block.stop == x.size) == (side == "right")
        k = 0.4
        pot = lambda_1d(profile, k, grid)
        norm = build_mode_1d(pot, SECTOR_B).l2_norm
        log_psi = -pot.values[block]
        m = np.arange(1, 4001)
        if side == "left":
            rate = abs(pot.slope_right)
            log_psi = np.concatenate([log_psi, log_psi[-1] - rate * h * m])
        else:
            rate = abs(pot.slope_left)
            log_psi = np.concatenate([log_psi[0] - rate * h * m[::-1],
                                      log_psi])
        # uniform points: the spacing alone sets the weights
        xs = h * np.arange(log_psi.size)
        assert norm == pytest.approx(_today(log_psi, xs), rel=1e-13)
        # and more padding past the tail's end does not move it
        pad = 10
        longer = (Grid1D(lo, hi + pad * h, 109 + pad) if side == "left"
                  else Grid1D(lo - pad * h, hi, 109 + pad))
        other = build_mode_1d(lambda_1d(profile, k, longer), SECTOR_B)
        assert other.l2_norm == pytest.approx(norm, rel=1e-12)


def _within_simpson(x, y):
    # the one weighted row sum is scipy.integrate.simpson's value to a few
    # ulp of sum |w y|
    w = _simpson_weights(x)
    got = np.einsum("ij,j->i", y, w)
    scale = np.einsum("ij,j->i", y, np.abs(w))
    return np.all(np.abs(got - simpson(y, x=x, axis=-1))
                  <= 8 * np.finfo(float).eps * scale)


class TestSimpsonWeights:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 11, 12, 121, 122, 1001, 1002])
    def test_matches_scipy(self, n, rng):
        # odd and even n up to 1002, beyond the random test's 300, on a zml
        # grid and on uneven points
        for x in (Grid1D(-7.3, 11.1, n).points(),
                  np.sort(rng.uniform(-5.0, 5.0, n))):
            assert _within_simpson(x, np.exp(-rng.uniform(0.0, 5.0, (37, n))))

    @settings(max_examples=settings.default.max_examples * 4 // 5)
    @given(n=st.integers(3, 300), uneven=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_weighted_sum_matches_simpson(self, n, uneven, seed):
        # odd and even n, a zml grid or uneven sorted points: the one
        # weighted row sum is the reference rule to a few ulp of sum |w y|
        rng = np.random.default_rng(seed)
        if uneven:
            x = np.sort(rng.uniform(-5.0, 5.0, n))
        else:
            x = Grid1D(*np.sort(rng.uniform(-50.0, 50.0, 2)), n).points()
        assert _within_simpson(x, np.exp(-rng.uniform(0.0, 5.0, (8, n))))

    @settings(max_examples=settings.default.max_examples * 2)
    @given(lo=st.floats(-1e308, 1e308), n=st.integers(3, 200),
           span=st.one_of(st.floats(1e-300, 1.7e308),
                          st.integers(1, 10 ** 4)))
    def test_finite_and_positive_on_every_grid(self, lo, n, span):
        # from subnormal steps to widths near the largest float; an integer
        # span is that many float spacings at lo, around the collapse floor
        hi = lo + (span * math.ulp(lo) if isinstance(span, int) else span)
        try:
            grid = Grid1D(lo, hi, n)
        except GridError:
            return
        w = _simpson_weights(grid.points())
        assert np.all(np.isfinite(w)) and np.all(w > 0.0)

    def test_builds_in_linear_memory(self):
        # O(n): a few arrays of n floats for 10^6 points, where the weights
        # read off simpson(np.eye(n), x=x) would need 8 TB
        x = Grid1D(-20.0, 20.0, 10 ** 6).points()
        tracemalloc.start()
        try:
            w = _simpson_weights(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.shape == x.shape
        assert peak < 8 * x.nbytes


class TestCount2D:
    def test_positive_half_integer_ratio(self):
        count = count_2d_zero_modes(TWO_PI * 3.5)
        assert count.sector is SECTOR_B
        assert count.n_modes == 3
        assert not count.integer_flux

    def test_negative_flux_mirrored(self):
        count = count_2d_zero_modes(-TWO_PI * 2.5)
        assert count.sector is SECTOR_A
        assert count.n_modes == 2

    def test_small_flux_counts_zero(self):
        count = count_2d_zero_modes(math.pi)
        assert count.sector is SECTOR_B
        assert count.n_modes == 0

    def test_integer_flux_flagged(self):
        count = count_2d_zero_modes(TWO_PI * 3.0)
        assert count.n_modes == 3
        assert count.integer_flux

    def test_monotone_in_flux(self):
        counts = [count_2d_zero_modes(phi).n_modes
                  for phi in np.linspace(0.0, 12 * TWO_PI, 200)]
        diffs = np.diff(counts)
        assert np.all(diffs >= 0)
        for phi in np.linspace(0.3, 30.0, 50):
            n_hi = count_2d_zero_modes(phi).n_modes
            n_lo = count_2d_zero_modes(phi - TWO_PI).n_modes
            assert n_hi - n_lo in (0, 1)


class TestBuildMode2D:
    @pytest.fixture
    def disc35(self):
        # pi R^2 B0 = 2 pi * 3.5 with R = 2
        return box(7.0 / 4.0, 2.0, dimension=DIM_RADIAL)

    def test_tail_exponents(self, disc35):
        g = Grid1D(0.0, 30.0, 61)
        pot = lambda_2d_radial(disc35, g)
        tails = {j: build_mode_2d(pot, j) for j in range(4)}
        assert tails[2].tail_exponent == pytest.approx(-2.0, abs=1e-12)
        assert tails[3].tail_exponent == pytest.approx(0.0, abs=1e-12)
        assert [tails[j].normalizable for j in range(4)] == [True, True, True, False]

    def test_zero_flux_mode_never_normalizable(self):
        g = Grid1D(0.0, 10.0, 21)
        mode = build_mode_2d(
            lambda_2d_radial(box(0.0, 1.0, dimension=DIM_RADIAL), g), 0)
        assert mode.tail_exponent == pytest.approx(1.0)
        assert not mode.normalizable

    def test_line_potential_rejected(self):
        g = Grid1D(-10.0, 10.0, 21)
        with pytest.raises(ProfileError, match="radial"):
            build_mode_2d(lambda_1d(box(1.0, 2.0), 0.0, g), 0)

    def test_negative_j_rejected(self, disc35):
        with pytest.raises(ValueError):
            build_mode_2d(lambda_2d_radial(disc35, Grid1D(0.0, 10.0, 11)), -1)

    def test_values_match_log(self, disc35):
        g = Grid1D(0.0, 10.0, 41)
        mode = build_mode_2d(lambda_2d_radial(disc35, g), 2)
        r = g.points()
        assert mode.values[0] == 0.0  # r^j kills the origin for j >= 1
        inner = mode.log_values[1:]
        np.testing.assert_allclose(mode.values[1:], np.exp(inner), rtol=1e-14)

    def test_negative_flux_uses_a_sector(self):
        p = box(-1.25, 2.0, dimension=DIM_RADIAL)  # Phi = -2 pi * 2.5
        g = Grid1D(0.0, 20.0, 41)
        mode = build_mode_2d(lambda_2d_radial(p, g), 0)
        assert mode.sector is SECTOR_A
        assert mode.normalizable
        assert mode.tail_exponent == pytest.approx(1.0 - 5.0, abs=1e-12)

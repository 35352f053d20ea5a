"""Channel quantization, analytic degeneracy, and the oracle reconciliation."""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zml import reduction, spectral
from zml.errors import (ClusterResolutionError, EigenSolveError, GridError,
                        PaddingError, ProfileError)
from zml.potential import (PADDING_FLOOR, _on_edge, required_padding,
                           vector_potential_y, window_margin)
from zml.profiles import (Grid1D, box, bump, piecewise_linear, total_flux,
                          truncated_gaussian)
from zml.reduction import (MAX_CHANNELS, ReductionConfig, admissible_channels,
                           default_n_range, quantize_ky, verify_degeneracy)
from zml.spectral import (_sturm_count, build_operator, default_zero_tolerance,
                          eigen_spectrum, windowed_singular_modes)

from dilation import dilate

TWO_PI = 2.0 * math.pi


class TestQuantizeKy:
    def test_unit_spacing(self):
        np.testing.assert_allclose(quantize_ky(TWO_PI, (-2, 2)),
                                   [-2, -1, 0, 1, 2], atol=1e-14)

    def test_half_period(self):
        assert quantize_ky(math.pi, (1, 1))[0] == pytest.approx(2.0)

    def test_zero_channel(self):
        assert quantize_ky(5.0, (0, 0))[0] == 0.0

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            quantize_ky(TWO_PI, (3, 1))
        with pytest.raises(ValueError):
            quantize_ky(-1.0, (0, 1))


class TestAdmissibleChannels:
    def test_q10_window(self):
        rep = admissible_channels(box(1.0, 5.0),
                                  ReductionConfig(L_y=TWO_PI, n_range=(-8, 8)))
        admissible = [ch.n for ch in rep.channels if ch.admissible]
        assert admissible == list(range(-4, 5))
        assert rep.g_analytic == 10
        assert rep.discrepancy == 1

    def test_window_edge_flag(self):
        # the headline g = 10 sweep: n = +-5 sit exactly on |k_y| = Q/2 and
        # are the channels behind its discrepancy of one
        rep = admissible_channels(box(1.0, 5.0),
                                  ReductionConfig(L_y=TWO_PI, n_range=(-8, 8)))
        assert [ch.n for ch in rep.channels if ch.on_window_edge] == [-5, 5]
        assert rep.discrepancy == 1
        # a gauge shift by half a channel spacing moves every channel off it
        rep = admissible_channels(box(1.0, 5.0), ReductionConfig(
            L_y=TWO_PI, k_gauge=0.5, n_range=(-8, 8)))
        assert not any(ch.on_window_edge for ch in rep.channels)

    def test_q4_window(self):
        rep = admissible_channels(box(1.0, 2.0),
                                  ReductionConfig(L_y=TWO_PI, n_range=(-4, 4)))
        assert [ch.n for ch in rep.channels if ch.admissible] == [-1, 0, 1]
        assert rep.g_analytic == 4
        assert rep.discrepancy == 1

    def test_zero_flux(self):
        rep = admissible_channels(box(0.0, 1.0),
                                  ReductionConfig(L_y=TWO_PI, n_range=(-3, 3)))
        assert rep.admissible_count == 0
        assert rep.g_analytic == 0

    def test_negative_flux_same_window(self):
        rep = admissible_channels(box(-1.0, 5.0),
                                  ReductionConfig(L_y=TWO_PI, n_range=(-8, 8)))
        assert rep.admissible_count == 9
        assert rep.g_analytic == 10

    def test_window_count_stable_under_gauge_shift(self, rng):
        # the window has fixed length |Q|; shifting it moves at most one
        # lattice point in or out
        p = box(1.0, 5.0)
        for _ in range(40):
            kg = float(rng.uniform(-10.0, 10.0))
            ly = float(rng.uniform(0.5, 9.0))
            nr = default_n_range(10.0, ly, kg)
            rep = admissible_channels(
                p, ReductionConfig(L_y=ly, k_gauge=kg, n_range=nr))
            assert abs(rep.admissible_count - rep.g_analytic) <= 1

    def test_channels_match_the_scalar_window_rule(self, rng):
        # one record array, built without a loop over channels, that agrees
        # row by row with window_margin and _on_edge called per channel
        p = box(1.0, 5.0)
        cases = [(TWO_PI, 0.0, (-8, 8))]   # n = +-5 on the window edge
        for _ in range(20):
            ly, kg = float(rng.uniform(0.5, 9.0)), float(rng.uniform(-9, 9))
            cases.append((ly, kg, default_n_range(10.0, ly, kg)))
        for ly, kg, (lo, hi) in cases:
            ch = admissible_channels(p, ReductionConfig(
                L_y=ly, k_gauge=kg, n_range=(lo, hi))).channels
            assert isinstance(ch, np.recarray)
            assert ch.dtype.names == ("n", "k_y", "admissible",
                                      "on_window_edge")
            assert ch.n.dtype == np.int64
            assert ch.n.tolist() == list(range(lo, hi + 1))
            assert ch.k_y.tolist() == quantize_ky(ly, (lo, hi)).tolist()
            for row in ch:
                margin = window_margin(10.0, kg + float(row.k_y))
                assert row.admissible == (margin > 0.0)
                assert row.on_window_edge == _on_edge(margin, 5.0)
        assert ch.admissible.dtype == ch.on_window_edge.dtype == bool

    def test_b_const_must_be_the_box_field(self):
        # B_const restates the field; a value the profile does not have
        # would centre the excited level on another level, or on none
        cases = [(box(1.0, 5.0), 2.0), (box(1.0, 5.0), 4.5),
                 (bump(1.0, 5.0), 1.0)]
        for profile, b in cases:
            cfg = ReductionConfig(L_y=TWO_PI, n_range=(-8, 8), B_const=b)
            with pytest.raises(ProfileError, match="B_const"):
                admissible_channels(profile, cfg)
        cfg = ReductionConfig(L_y=TWO_PI, n_range=(-8, 8), B_const=1.0)
        assert admissible_channels(box(-1.0, 5.0), cfg).g_analytic == 10

    @pytest.mark.parametrize("q, l_y, k_gauge", [
        (10.0, 1e308, 0.0), (4.0, TWO_PI, 1e308), (4.0, TWO_PI, -1e308)])
    def test_default_n_range_refuses_overflow(self, q, l_y, k_gauge):
        with pytest.raises(GridError, match="not finite"):
            default_n_range(q, l_y, k_gauge)

    @pytest.mark.parametrize("profile, cfg, match", [
        # Q = 10: g = 1.6e9 channels by default
        (box(1.0, 5.0), ReductionConfig(L_y=1e9), "MAX_CHANNELS"),
        (box(1.0, 5.0), ReductionConfig(L_y=TWO_PI, n_range=(
            -10 ** 12, 10 ** 12)), "MAX_CHANNELS"),
        (box(1.0, 5.0), ReductionConfig(L_y=TWO_PI, n_range=(
            0, MAX_CHANNELS)), "MAX_CHANNELS"),
        # |Q| L_y overflows although each is finite
        (box(1e300, 1e5), ReductionConfig(L_y=1e10), "not finite"),
        (box(1e300, 1e5), ReductionConfig(L_y=1e10, n_range=(-3, 3)),
         "not finite"),
    ])
    def test_channel_set_refused_before_any_channel(self, monkeypatch,
                                                     profile, cfg, match):
        monkeypatch.setattr(reduction, "quantize_ky", None)
        with pytest.raises(GridError, match=match):
            admissible_channels(profile, cfg)

    def test_channel_ceiling_is_inclusive(self):
        cfg = ReductionConfig(L_y=TWO_PI, n_range=(1, MAX_CHANNELS))
        rep = admissible_channels(box(1.0, 5.0), cfg)
        assert len(rep.channels) == MAX_CHANNELS

    def test_scaling_in_period(self, rng):
        p = box(1.0, 5.0)
        for _ in range(20):
            ly = float(rng.uniform(0.3, 8.0))
            g1 = admissible_channels(p, ReductionConfig(L_y=ly)).g_analytic
            g2 = admissible_channels(p, ReductionConfig(L_y=2 * ly)).g_analytic
            assert abs(g2 - 2 * g1) <= 1


@pytest.fixture(scope="module")
def setup6():
    # Q = 6 strip: integer channels sit >= 1 inside the window, so the
    # sweep padding stays at 30 and the grids stay small
    profile = box(1.0, 3.0)
    cfg = ReductionConfig(L_y=TWO_PI, n_range=(-4, 4), B_const=1.0)
    grid = Grid1D(-36.0, 36.0, 1202)
    return profile, cfg, grid


class TestVerifyDegeneracy:

    def test_level0_matches_analytic(self, setup6):
        profile, cfg, grid = setup6
        rep = verify_degeneracy(profile, cfg, 0, grid)
        assert rep.g_analytic == 6
        assert abs(rep.g_numeric - rep.g_analytic) <= 1
        counts = {ch.n: ch.near_zero_count for ch in rep.channels}
        for ch in rep.channels:
            if ch.admissible:
                assert counts[ch.n] == 1

    def test_level1_within_one_of_level0(self, setup6):
        profile, cfg, grid = setup6
        rep0 = verify_degeneracy(profile, cfg, 0, grid)
        rep1 = verify_degeneracy(profile, cfg, 1, grid)
        assert rep1.cluster_center == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert abs(rep1.g_numeric - rep0.g_numeric) <= 1

    def test_channel_columns_per_level(self, setup6):
        profile, cfg, grid = setup6
        base = admissible_channels(profile, cfg).channels
        for level, extra in ((0, ()), (1, ("level_weight",))):
            rep = verify_degeneracy(profile, cfg, level, grid)
            ch = rep.channels
            assert isinstance(ch, np.recarray)
            assert ch.dtype.names == (*base.dtype.names, "near_zero_count",
                                      *extra)
            for name in base.dtype.names:
                assert ch[name].tolist() == base[name].tolist()
            assert ch.near_zero_count.dtype == np.int64
            assert rep.g_numeric == (sum(ch.near_zero_count.tolist())
                                     if level == 0 else
                                     int(round(sum(ch.level_weight.tolist()))))
            assert rep.discrepancy == abs(rep.g_numeric - rep.g_analytic)

    @pytest.mark.parametrize("k_gauge, grid, solved", [
        # setup6's sweep: n and -n are mirror images, so n in [-4, 0] are
        # solved and n in [1, 4] take their rows
        (0.0, None, 5),
        # no k is another's negative, so every channel is solved; the
        # channel k = -2.6 needs 75 of padding
        (0.4, Grid1D(-80.0, 80.0, 1062), 9)], ids=["mirrored", "k_gauge"])
    def test_level1_builds_each_channel_once(self, setup6, monkeypatch,
                                             k_gauge, grid, solved):
        # one operator object per solved channel gives both its Sturm count
        # and its windowed weight, and carries the channel's own k:
        # k_y = k_gauge + 2 pi n / L_y, with w_values = k_y + A_y
        calls = {"_sturm_count": [], "windowed_singular_modes": []}
        for name in calls:
            def spy(op, *args, _name=name, _inner=getattr(reduction, name)):
                calls[_name].append(op)
                return _inner(op, *args)
            monkeypatch.setattr(reduction, name, spy)
        profile, cfg, grid6 = setup6
        cfg = dataclasses.replace(cfg, k_gauge=k_gauge)
        rep = verify_degeneracy(profile, cfg, 1, grid or grid6)
        counted, windowed = calls.values()
        assert len(rep.channels) == 9
        assert len(counted) == len(windowed) == solved
        assert all(a is b for a, b in zip(counted, windowed))
        assert len({id(op) for op in counted}) == solved
        assert [op.k_y for op in counted] == \
            (k_gauge + rep.channels.k_y[:solved]).tolist()
        a_y = build_operator(profile, 0.0, grid or grid6).w_values
        assert all(np.array_equal(op.w_values, op.k_y + a_y) for op in counted)

    def test_eigen_failure_names_the_channel_k(self, setup6, monkeypatch):
        # a LAPACK failure in a sweep at k_gauge = 0.4 names the channel by
        # its own k = k_gauge + k_y, here 0.4 - 4
        def fail(op, lo, hi):
            spectral._lapack_ok(op, "dstein", 1, 2)
        monkeypatch.setattr(reduction, "windowed_singular_modes", fail)
        profile, cfg, _ = setup6
        cfg = dataclasses.replace(cfg, k_gauge=0.4)
        with pytest.raises(EigenSolveError,
                           match=r"dstein failed for channel k_y=-3\.6 "):
            verify_degeneracy(profile, cfg, 1, Grid1D(-80.0, 80.0, 1062))

    def test_detected_center_matches_theory(self, setup6):
        profile, _, grid = setup6
        cfg = ReductionConfig(L_y=TWO_PI, n_range=(-4, 4))  # no B_const
        rep = verify_degeneracy(profile, cfg, 1, grid)
        assert rep.cluster_center == pytest.approx(math.sqrt(2.0), rel=0.01)

    def test_unresolvable_level_raises(self, setup6):
        profile, cfg_b, grid = setup6
        cfg = ReductionConfig(L_y=TWO_PI, n_range=(-4, 4))
        with pytest.raises(ClusterResolutionError):
            verify_degeneracy(profile, cfg, 40, grid)
        # levels 1 and 2 of B = 1 lie 2 - sqrt(2) = 0.59 apart, so a window
        # of half-width 0.6 or 3 about sqrt(2 B_const) takes level 2 too
        for ctol in (0.6, 3.0):
            with pytest.raises(ClusterResolutionError, match="separated"):
                verify_degeneracy(profile, cfg_b, 1, grid, cluster_tol=ctol)
        # one cluster holds the whole spectrum: nothing bounds level 1 from
        # above, and the refusal comes before any windowed vector
        t0 = time.perf_counter()
        with pytest.raises(ClusterResolutionError, match="bound its window"):
            verify_degeneracy(profile, cfg, 1, grid, cluster_tol=100.0)
        assert time.perf_counter() - t0 < 1.0

    def test_headline_sweep_names_edge_channels(self):
        profile = box(1.0, 5.0)
        cfg = ReductionConfig(L_y=TWO_PI, n_range=(-8, 8), B_const=1.0)
        rep = verify_degeneracy(profile, cfg, 0, Grid1D(-35.0, 35.0, 1002))
        assert (rep.g_analytic, rep.g_numeric, rep.discrepancy) == (10, 9, 1)
        edge = [ch for ch in rep.channels if ch.on_window_edge]
        assert [ch.n for ch in edge] == [-5, 5]
        assert [ch.near_zero_count for ch in edge] == [0, 0]

    def test_continuum_limit_h_halving(self):
        # the headline g = 10 sweep with h halved twice: discrepancy = 1 is a
        # finite-padding effect, so the counts hold and the level-1 weights
        # converge as h -> 0
        profile = box(1.0, 5.0)
        cfg = ReductionConfig(L_y=TWO_PI, n_range=(-8, 8), B_const=1.0)
        counts, weights = [], []
        for n in (3002, 6003, 12005):
            grid = Grid1D(-35.0, 35.0, n)
            rep0 = verify_degeneracy(profile, cfg, 0, grid)
            rep1 = verify_degeneracy(profile, cfg, 1, grid)
            assert (rep0.g_numeric, rep1.g_numeric) == (9, 9)
            counts.append([ch.near_zero_count for ch in rep0.channels])
            weights.append([ch.level_weight for ch in rep1.channels])
        assert counts[0] == counts[1] == counts[2]
        moves = np.max(np.abs(np.diff(weights, axis=0)), axis=1)
        assert np.all(moves < 1e-2)
        assert moves[1] < moves[0]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="tau0 = pi/(8 min_pad) falls with the padding, "
                       "below the singular value a box field's zero mode "
                       "keeps on the lattice")
    def test_level0_counts_the_window_at_twice_the_padding(self):
        # Q = -6.938, g = 5, no channel on the window edge; h = 0.1 and
        # twice the 870 padding the k = 3.434 channel needs.  The sweep
        # counts [0 0 0 0 1 1 0 1 0 0] against the window's
        # [0 0 1 1 1 1 1 1 0 0]
        e = 2.031 + 1740.0
        cfg = ReductionConfig(L_y=4.858, k_gauge=-0.446)
        rep = verify_degeneracy(box(-1.708, 2.031), cfg, 0,
                                Grid1D(-e, e, 34842))
        assert (rep.channels.near_zero_count.tolist()
                == rep.channels.admissible.astype(int).tolist())

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the level-1 count rounds a sum of bulk "
                       "weights, which the padding sets for channels whose "
                       "Landau orbit reaches the field's edge")
    def test_level1_within_one_of_level0_on_a_wide_grid(self):
        # criterion 8 without B_const; the sweeps count 10 at level 0 and
        # 8 at level 1
        cfg = ReductionConfig(L_y=TWO_PI, k_gauge=0.4, n_range=(-8, 8))
        grid = Grid1D(-110.0, 110.0, 9567)
        rep0 = verify_degeneracy(box(1.0, 5.0), cfg, 0, grid)
        rep1 = verify_degeneracy(box(1.0, 5.0), cfg, 1, grid)
        assert abs(rep1.g_numeric - rep0.g_numeric) <= 1

    def test_nonpositive_zero_tol_rejected(self, setup6):
        profile, cfg, grid = setup6
        # nan would count nothing and inf everything
        for tau in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="tau must be positive"):
                verify_degeneracy(profile, cfg, 0, grid, zero_tol=tau)

    def test_nonpositive_cluster_tol_rejected(self, setup6):
        # a zero window would report g_numeric = 0 without complaint
        profile, cfg, grid = setup6
        for ctol in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="cluster_tol must be positive"):
                verify_degeneracy(profile, cfg, 1, grid, cluster_tol=ctol)

    def test_nonfinite_k_gauge_rejected(self):
        # nan admits no channel, so a sweep would report g_numeric = 0
        for kg in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="k_gauge must be finite"):
                ReductionConfig(L_y=TWO_PI, n_range=(-4, 4), k_gauge=kg)

    def test_zero_tol_near_gap_warns(self, setup6):
        # half the first Landau gap is sqrt(2)/2 at B = 1
        profile, cfg, grid = setup6
        with pytest.warns(UserWarning, match="first gap"):
            verify_degeneracy(profile, cfg, 0, grid, zero_tol=0.75)
        # level 1 without B_const takes the cluster centre from the deepest
        # channel's spectrum at the same tau; the sweep still warns once
        cfg = ReductionConfig(L_y=TWO_PI, n_range=(-4, 4))
        with pytest.warns(UserWarning, match="first gap") as record:
            verify_degeneracy(profile, cfg, 1, grid, zero_tol=0.75)
        assert sum("first gap" in str(w.message) for w in record) == 1

    def test_zero_flux_counts_zero(self):
        profile = box(0.0, 2.0)
        cfg = ReductionConfig(L_y=TWO_PI, n_range=(-2, 2))
        rep = verify_degeneracy(profile, cfg, 0, Grid1D(-12.0, 12.0, 402))
        assert rep.g_numeric == 0
        assert rep.g_analytic == 0

    def test_insufficient_padding_names_channel(self):
        # Q = 5: the admissible channels n = -2 and 2 lie deepest in the
        # padding demand; the first of them, k = -2, is named
        profile = box(1.0, 2.5)
        cfg = ReductionConfig(L_y=TWO_PI, n_range=(-4, 4))
        with pytest.raises(PaddingError) as info:
            verify_degeneracy(profile, cfg, 0, Grid1D(-8.0, 8.0, 402))
        k = -2.0
        assert info.value.required == required_padding(5.0, k)
        assert f"k={k}" in str(info.value)

    def test_insufficient_padding_names_floor(self):
        # no admissible channel needs more than the floor, so the floor
        # sets the requirement and no channel is named
        profile = box(0.0, 2.0)
        cfg = ReductionConfig(L_y=TWO_PI, n_range=(-2, 2))
        with pytest.raises(PaddingError) as info:
            verify_degeneracy(profile, cfg, 0, Grid1D(-4.0, 4.0, 101))
        assert "None" not in str(info.value)
        assert "floor" in str(info.value)
        assert info.value.required == PADDING_FLOOR == 5.0

    @pytest.mark.xfail(strict=True, reason="level 0 counts near-null "
                       "singular values, so a tunnelling pair between "
                       "lumps of opposite sign counts as two zero modes")
    def test_sign_changing_field_counts_the_window(self):
        # three trapezoid lumps, +2 / -2 / +2 with 0.1 ramps: Q = 7.8, and
        # all 7 channels lie inside the window.  The sweep counts
        # [1, 3, 3, 3, 3, 1, 1] near-null values, 15 in all.
        ramp = 0.1
        points = []
        for lo, hi, b in ((-7.0, -3.0, 2.0), (-2.0, 2.0, -2.0),
                          (3.0, 7.0, 2.0)):
            points += [(lo, 0.0), (lo + ramp, b), (hi - ramp, b), (hi, 0.0)]
        cfg = ReductionConfig(L_y=TWO_PI, k_gauge=0.3, n_range=(-3, 3))
        rep = verify_degeneracy(piecewise_linear(points), cfg, 0,
                                Grid1D(-60.0, 60.0, 6001))
        assert rep.g_analytic == rep.admissible_count == 7
        assert rep.g_numeric == rep.g_analytic


@st.composite
def signed_fields(draw):
    """A line field B as a function of a sign: field(1) is B, field(-1) -B.

    Box, bump and truncated-gaussian fields, and three trapezoid lumps of
    either sign.
    """
    kind = draw(st.sampled_from(["box", "bump", "gaussian", "lumps"]))
    b0 = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    a = draw(st.floats(1.0, 3.0))
    if kind == "box":
        return lambda sign: box(sign * b0, a)
    if kind == "bump":
        return lambda sign: bump(sign * b0, a)
    if kind == "gaussian":
        return lambda sign: truncated_gaussian(sign * b0, a / 3.0, a)
    lumps = draw(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(1.0, 3.0),
                                    st.floats(0.5, 2.0)),
                          min_size=3, max_size=3))
    ramp, x = 0.1, -4.0
    points = []
    for b, width, gap in lumps:
        points += [(x, 0.0), (x + ramp, b), (x + width - ramp, b),
                   (x + width, 0.0)]
        x += width + gap
    return lambda sign: piecewise_linear([(px, sign * b) for px, b in points])


class TestSweepSymmetries:
    # exact symmetries of the level-0 sweep: A_y is odd in B, the operator
    # of (-B, -k) is -J A(B, k) J, and k_gauge + 2 pi / L_y is the sweep
    # relabelled n -> n - 1
    @settings(max_examples=settings.default.max_examples * 2 // 5)
    @given(field=signed_fields(), ly=st.floats(3.0, 9.0),
           kg=st.floats(-0.4, 0.4))
    def test_level0_sweep_symmetries(self, field, ly, kg):
        profile, mirror = field(1.0), field(-1.0)
        q = total_flux(profile).value
        lo, hi = default_n_range(q, ly, kg)
        ks = kg + TWO_PI * np.arange(lo, hi + 1) / ly
        margins = window_margin(q, ks)
        # channels on or near the window edge need a long padding
        assume(np.all(np.abs(margins) > 0.1))
        pad = max([required_padding(q, k) for k in ks[margins > 0]],
                  default=PADDING_FLOOR)
        s_lo, s_hi = profile.support
        extent = max(-s_lo, s_hi) + pad + 1.0
        grid = Grid1D(-extent, extent, int(math.ceil(20.0 * extent)) + 1)

        a_y = vector_potential_y(profile, grid.points())
        assert np.array_equal(vector_potential_y(mirror, grid.points()), -a_y)

        def counts(p, k_gauge, n_range):
            cfg = ReductionConfig(L_y=ly, k_gauge=k_gauge, n_range=n_range)
            return verify_degeneracy(p, cfg, 0, grid).channels.near_zero_count

        base = counts(profile, kg, (lo, hi))
        assert counts(mirror, -kg, (-hi, -lo)).tolist() == base[::-1].tolist()
        shifted = counts(profile, kg + TWO_PI / ly, (lo - 1, hi - 1))
        assert shifted.tolist() == base.tolist()


def dilated_grid(grid, c):
    return Grid1D(grid.x_lo / c, grid.x_hi / c, grid.n)


class TestDilation:
    # in units hbar = e = 1, x -> x / c, B -> c^2 B(c x), k -> c k and
    # L_y -> L_y / c map the problem onto itself, and for c = 2^j every
    # float step scales exactly: counts and weights are bit-equal, and every
    # inverse length (tau, k_y, the level centre, each eigenvalue) is c times
    # the original, bit for bit.  Two absolute constants are left, and
    # draws that meet them are skipped: PADDING_FLOOR = 5, a length, and the
    # 1.0 floor of _on_edge's relative scale

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def level1_sweep(c, named_field):
        cfg = ReductionConfig(L_y=TWO_PI / c, k_gauge=0.4 * c, n_range=(-8, 8),
                              B_const=c * c if named_field else None)
        return verify_degeneracy(box(c * c, 5.0 / c), cfg, 1,
                                 Grid1D(-80.0 / c, 80.0 / c, 1062))

    @pytest.mark.parametrize("named_field", [False, True],
                             ids=["detected", "B_const"])
    @pytest.mark.parametrize("c", [0.25, 0.5, 2.0, 4.0])
    def test_level1_sweep_is_dilation_exact(self, c, named_field):
        # the bulk weight's grouping tolerance is a fraction of the Landau
        # gap sqrt(2 max|B|); an absolute 1e-3 moved these weights by up to
        # 0.85 and g from 8 to 7 at c = 4
        ref = self.level1_sweep(1.0, named_field)
        rep = self.level1_sweep(c, named_field)
        ch, ref_ch = rep.channels, ref.channels
        assert ref.g_numeric == 8
        assert rep.g_numeric == ref.g_numeric
        assert ch.near_zero_count.tolist() == ref_ch.near_zero_count.tolist()
        assert ch.level_weight.tolist() == ref_ch.level_weight.tolist()
        assert rep.tau == c * ref.tau
        assert ch.k_y.tolist() == (c * ref_ch.k_y).tolist()
        assert rep.cluster_center == c * ref.cluster_center

    @settings(max_examples=settings.default.max_examples // 5)
    @given(field=signed_fields(), j=st.integers(-3, 3),
           ly=st.floats(3.0, 9.0), kg=st.floats(-0.4, 0.4))
    def test_level0_sweep_and_spectrum_are_dilation_exact(self, field, j, ly,
                                                          kg):
        profile, c = field(1.0), 2.0 ** j
        q = total_flux(profile).value
        lo, hi = default_n_range(q, ly, kg)
        ks = kg + TWO_PI * np.arange(lo, hi + 1) / ly
        margins = window_margin(q, ks)
        # channels on or near the window edge need a long padding, and
        # within 1e-9 of it _on_edge's flag depends on the scale
        assume(np.all(np.abs(margins) > 0.15))
        pad = max([required_padding(q, k) for k in ks[margins > 0]],
                  default=PADDING_FLOOR)
        s_lo, s_hi = profile.support
        extent = max(-s_lo, s_hi) + pad + 1.0
        grid = Grid1D(-extent, extent, 2 * int(3.0 * extent) + 1)
        cfg = ReductionConfig(L_y=ly, k_gauge=kg, n_range=(lo, hi))
        dcfg = ReductionConfig(L_y=ly / c, k_gauge=kg * c, n_range=(lo, hi))
        ref = verify_degeneracy(profile, cfg, 0, grid)
        try:
            rep = verify_degeneracy(dilate(profile, c), dcfg, 0,
                                    dilated_grid(grid, c))
        except PaddingError:
            assume(False)   # PADDING_FLOOR is a length: the floor refused it
        except RuntimeWarning:
            assume(False)   # the dilated draw overflows or underflows
        ch, ref_ch = rep.channels, ref.channels
        # _on_edge flags |margin| <= 1e-9 max(1, |Q|/2), not scale-free; the
        # margins above keep every channel far from that, so no flag is set
        assert not ch.on_window_edge.any() and not ref_ch.on_window_edge.any()
        assert rep.Q == c * ref.Q
        assert rep.g_numeric == ref.g_numeric
        assert ch.near_zero_count.tolist() == ref_ch.near_zero_count.tolist()
        assert ch.admissible.tolist() == ref_ch.admissible.tolist()
        assert rep.tau == c * ref.tau
        assert ch.k_y.tolist() == (c * ref_ch.k_y).tolist()
        spec = eigen_spectrum(build_operator(profile, kg, grid))
        dspec = eigen_spectrum(build_operator(dilate(profile, c), c * kg,
                                              dilated_grid(grid, c)))
        assert dspec.near_zero_count == spec.near_zero_count
        assert dspec.zero_tolerance == c * spec.zero_tolerance
        assert np.array_equal(dspec.eigenvalues, c * spec.eigenvalues)


@st.composite
def even_fields(draw):
    """Even line fields B(-x) = B(x): box, bump and truncated gaussian of
    either sign, and piecewise-linear fields whose breakpoints mirror."""
    kind = draw(st.sampled_from(["box", "bump", "gaussian", "mirrored"]))
    b0 = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    a = draw(st.floats(1.0, 3.0))
    if kind == "box":
        return box(b0, a)
    if kind == "bump":
        return bump(b0, a)
    if kind == "gaussian":
        return truncated_gaussian(b0, a / 3.0, a)
    xs = sorted(draw(st.lists(st.floats(0.1, a - 0.1), min_size=1,
                              max_size=3, unique=True)))
    half = [(x, b0 * draw(st.floats(-0.5, 1.0))) for x in xs] + [(a, 0.0)]
    return piecewise_linear([(-x, v) for x, v in reversed(half)] + half)


def _solve_spy():
    """A _sturm_count that records the k_y of each channel it counts."""
    solved = []

    def spy(op, s, _inner=reduction._sturm_count):
        solved.append(float(op.k_y))
        return _inner(op, s)
    return solved, spy


class TestMirrorPairs:
    # for an even field on a grid symmetric about 0, R M_k R = -M_{-k}
    # (R: x -> -x), so channels k and -k share their counts and weights;
    # a sweep solves the first of each pair and copies it to the second

    @settings(max_examples=settings.default.max_examples * 3 // 10,
              deadline=None)
    @given(profile=even_fields(), ly=st.floats(3.0, 9.0),
           level=st.sampled_from([0, 1]), parity=st.sampled_from([0, 1]))
    def test_mirror_channels_agree(self, profile, ly, level, parity):
        q = total_flux(profile).value
        lo, hi = default_n_range(q, ly)
        ks = TWO_PI * np.arange(lo, hi + 1) / ly
        margins = window_margin(q, ks)
        # channels on or near the window edge need a long padding
        assume(np.all(np.abs(margins) > 0.15))
        pad = max([required_padding(q, k) for k in ks[margins > 0]],
                  default=PADDING_FLOOR)
        extent = profile.support[1] + pad + 1.0
        # an even or odd n: x = 0 is a grid point or lies between two
        grid = Grid1D(-extent, extent, 2 * int(6.0 * extent) + 1 + parity)
        b_const = abs(profile.params["B0"]) if profile.kind == "box" else None
        cfg = ReductionConfig(L_y=ly, n_range=(lo, hi), B_const=b_const)
        solved, spy = _solve_spy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "_sturm_count", spy)
            try:
                rep = verify_degeneracy(profile, cfg, level, grid)
            except ClusterResolutionError:
                assume(False)   # no level 1 to find on this field
        ch = rep.channels

        base = build_operator(profile, 0.0, grid)
        x, (s_lo, s_hi) = base.interior_x, profile.support
        mask = ((x >= s_lo) & (x <= s_hi)).astype(float)
        if level:
            ctol = default_zero_tolerance(base)
            window = (max(rep.cluster_center - ctol, 0.0),
                      rep.cluster_center + ctol)

        def direct(k):
            op = dataclasses.replace(base, k_y=k, w_values=k + base.w_values)
            # a value within 1e-9 of tau or of a window edge may fall on
            # either side of it in k and -k
            edges = [rep.tau, *(window if level else ())]
            near = any(_sturm_count(op, e * (1 - 1e-9))
                       != _sturm_count(op, e * (1 + 1e-9)) for e in edges)
            count = _sturm_count(op, rep.tau)
            weight = (reduction._smooth_bulk_weight(
                *windowed_singular_modes(op, *window), mask,
                reduction._GROUP_FRACTION * base.gap) if level else None)
            return count, weight, near

        k_y = ch.k_y.tolist()
        pairs = level == 0 or np.array_equal(mask, mask[::-1])
        expect = [k for i, k in enumerate(k_y) if not (pairs and -k in k_y[:i])]
        assert solved == expect
        solves = {k: direct(k) for k in k_y}
        for i, k in enumerate(k_y):
            count, weight, near = solves[k]
            if k in solved:
                # a solved row is the direct solve, bit for bit
                assert ch.near_zero_count[i] == count
                assert not level or ch.level_weight[i] == weight
                continue
            # a copied row is its mirror's, and so, solved directly, is k
            mirror = k_y.index(-k)
            assert ch.near_zero_count[i] == ch.near_zero_count[mirror]
            assert not level or ch.level_weight[i] == ch.level_weight[mirror]
            m_count, m_weight, m_near = solves[-k]
            if not (near or m_near):
                assert count == m_count
                assert not level or abs(weight - m_weight) <= 1e-12

    @staticmethod
    def _lopsided_box(grid):
        """box(1, a), a near 3, whose support mask on the grid's interior is
        not its own mirror image: -a is an interior point whose mirror
        rounds to a little above a."""
        x = grid.points()[1:-1]
        i = next(i for i in range(x.size)
                 if 2.9 < -x[i] < 3.0 and x[i] + x[-1 - i] > 0.0)
        return box(1.0, -float(x[i]))

    @pytest.mark.parametrize("case", ["k_gauge", "asymmetric field",
                                      "asymmetric grid", "asymmetric mask"])
    def test_any_broken_condition_solves_every_channel(self, case):
        profile, grid = box(1.0, 3.0), Grid1D(-36.0, 36.0, 1202)
        k_gauge, b_const, level = 0.0, 1.0, 1
        if case == "k_gauge":
            k_gauge, grid = 0.4, Grid1D(-80.0, 80.0, 1062)
        elif case == "asymmetric field":
            # a trapezoid whose right ramp is twice as long as its left one
            profile = piecewise_linear([(-3.0, 0.0), (-2.9, 1.0), (2.8, 1.0),
                                        (3.0, 0.0)])
            b_const = None
        elif case == "asymmetric grid":
            # at level 0, where no support mask stands in for the grid
            grid, level = Grid1D(-36.0, 37.0, 1219), 0
        else:
            profile = self._lopsided_box(grid)
            x = grid.points()[1:-1]
            mask = (x >= -profile.params["a"]) & (x <= profile.params["a"])
            assert not np.array_equal(mask, mask[::-1])
        cfg = ReductionConfig(L_y=TWO_PI, k_gauge=k_gauge, n_range=(-4, 4),
                              B_const=b_const)
        solved, spy = _solve_spy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "_sturm_count", spy)
            rep = verify_degeneracy(profile, cfg, level, grid)
        # each channel's operator carries its own k = k_gauge + k_y
        assert solved == (k_gauge + rep.channels.k_y).tolist()
        assert len(solved) == 9

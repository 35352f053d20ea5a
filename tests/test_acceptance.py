"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import time

import numpy as np
import pytest

from zml.cli import EXIT_OK, main as cli_main
from zml.potential import (alpha_gauge, lambda_1d, lambda_2d_radial,
                           poisson_residual, required_padding)
from zml.profiles import DIM_RADIAL, Grid1D, box, bump, total_flux, truncated_gaussian
from zml.reduction import ReductionConfig, verify_degeneracy
from zml.spectral import build_operator, eigen_spectrum, mode_residual
from zml.zeromodes import (SECTOR_A, SECTOR_B, build_mode_2d,
                           count_2d_zero_modes, build_mode_1d, scan_k)

TWO_PI = 2.0 * math.pi


def report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


@pytest.fixture(scope="module")
def degeneracy_sweep():
    """Criterion 6 setup, shared with criteria 7 and 8: constant B = 1 on a
    width-10 box (Q = 10), L_y = 2 pi, channels n in [-8, 8], 3000 interior
    points on [-35, 35] (padding 30 covers every admissible channel)."""
    profile = box(1.0, 5.0)
    cfg = ReductionConfig(L_y=TWO_PI, n_range=(-8, 8), B_const=1.0)
    grid = Grid1D(-35.0, 35.0, 3002)
    t0 = time.perf_counter()
    level0 = verify_degeneracy(profile, cfg, 0, grid)
    elapsed = time.perf_counter() - t0
    return profile, cfg, grid, level0, elapsed


def test_criterion_01_closed_form_potential():
    grid = Grid1D(-17.0, 17.0, 3401)
    t0 = time.perf_counter()
    pot = lambda_1d(box(1.0, 2.0), 0.0, grid)
    elapsed = time.perf_counter() - t0
    x = grid.points()
    exact = np.where(np.abs(x) <= 2.0, 0.5 * (x * x + 4.0), 2.0 * np.abs(x))
    rel = np.max(np.abs(pot.values - exact) / np.abs(exact))
    assert rel <= 1e-8
    assert elapsed < 1.0
    report(1, f"box potential matches closed form, max rel err {rel:.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_02_poisson_h_squared():
    # Poisson consistency needs no tail padding, so the mode-padding rule is
    # bypassed; the profile is C-infinity so the rate is clean
    profile = bump(2.0, 2.0)
    t0 = time.perf_counter()
    residuals = []
    for n in (401, 801):  # h = 2e-2 then 1e-2 on [-4, 4]
        grid = Grid1D(-4.0, 4.0, n)
        pot = lambda_1d(profile, 0.0, grid)
        residuals.append(poisson_residual(pot, profile))
    elapsed = time.perf_counter() - t0
    ratio = residuals[0] / residuals[1]
    assert 3.0 <= ratio <= 5.0
    assert elapsed < 5.0
    report(2, f"poisson residual ratio {ratio:.2f} in [3, 5] "
              f"({residuals[0]:.2e} -> {residuals[1]:.2e}), {elapsed:.2f}s")


def test_criterion_03_admissibility_sharpness():
    profile = box(1.0, 2.0)
    grid = Grid1D(-30.0, 30.0, 601)
    ks = [-2.1, -2.0, -1.9, 0.0, 1.9, 2.0, 2.1]
    base = lambda_1d(profile, 0.0, grid)
    got_b = [e.normalizable for e in scan_k(base, SECTOR_B, ks)]
    got_a = [e.normalizable for e in scan_k(base, SECTOR_A, ks)]
    assert got_b == [False, False, True, True, True, False, False]
    assert got_a == [False] * 7
    report(3, f"scan_k verdicts sector b {got_b}, sector a all False")


def test_criterion_04_mode_residual():
    grid = Grid1D(-17.0, 17.0, 34001)  # h = 1e-3
    profile = box(1.0, 2.0)
    op = build_operator(profile, 0.0, grid)
    mode = build_mode_1d(lambda_1d(profile, 0.0, grid), SECTOR_B)
    box_residual = mode_residual(op, mode)
    assert box_residual <= 1e-4
    # rate check as in criterion 2, i.e. on a smooth profile: the box field
    # jump at the support edge injects an O(h) term in the two rows that
    # straddle it (psi'' jumps there), masking the h^2 rate
    smooth = bump(2.0, 2.0)
    residuals = []
    for n in (19001, 38001):  # h = 2e-3 then 1e-3 on [-19, 19]
        g = Grid1D(-19.0, 19.0, n)
        sop = build_operator(smooth, 0.0, g)
        smode = build_mode_1d(lambda_1d(smooth, 0.0, g), SECTOR_B)
        residuals.append(mode_residual(sop, smode))
    ratio = residuals[0] / residuals[1]
    assert 3.0 <= ratio <= 5.0
    report(4, f"box mode residual {box_residual:.2e} <= 1e-4 at h=1e-3; "
              f"smooth halving ratio {ratio:.2f}")


def test_criterion_05_gauge_phase():
    ax = box(1.0, 1.0)
    grid = Grid1D(-4.0, 4.0, 8001)  # h = 1e-3
    phase = alpha_gauge(ax, grid)
    x = grid.points()
    err_clamp = np.max(np.abs(phase.values - np.clip(x, -1.0, 1.0)))
    assert err_clamp <= 1e-8
    diff = (phase.values[2:] - phase.values[:-2]) / (2.0 * grid.h)
    xi = x[1:-1]
    away = np.abs(np.abs(xi) - 1.0) > 2 * grid.h
    err_diff = np.max(np.abs(diff - ax(xi))[away])
    assert err_diff <= 1e-6
    report(5, f"alpha = clamp to {err_clamp:.2e}, d alpha/dx matches A_x "
              f"to {err_diff:.2e} away from kinks")


def test_criterion_06_degeneracy_vs_oracle(degeneracy_sweep):
    profile, cfg, grid, level0, elapsed = degeneracy_sweep
    assert level0.g_analytic == 10
    assert grid.n - 2 <= 3000
    assert 9 <= level0.g_numeric <= 11
    assert elapsed < 60.0
    report(6, f"g_analytic = 10, sum of near-zero counts = "
              f"{level0.g_numeric} in [9, 11], sweep {elapsed:.1f}s")


def test_criterion_07_landau_level(degeneracy_sweep):
    profile, cfg, grid, _, _ = degeneracy_sweep
    op = build_operator(profile, 0.0, grid)
    vals = eigen_spectrum(op).eigenvalues
    first = float(np.min(vals[vals > 0.5]))
    assert abs(first - math.sqrt(2.0)) / math.sqrt(2.0) <= 0.01
    report(7, f"first level at {first:.6f}, within "
              f"{abs(first - math.sqrt(2)) / math.sqrt(2):.2%} of sqrt(2)")


def test_criterion_08_excited_level_degeneracy(degeneracy_sweep):
    profile, cfg, grid, level0, _ = degeneracy_sweep
    level1 = verify_degeneracy(profile, cfg, 1, grid)
    assert abs(level1.g_numeric - level0.g_numeric) <= 1
    report(8, f"level-1 count {level1.g_numeric} vs level-0 "
              f"{level0.g_numeric}, within +-1")


def test_criterion_09_plane_counting():
    grid = Grid1D(0.0, 30.0, 61)
    disc = box(7.0 / 4.0, 2.0, dimension=DIM_RADIAL)   # Phi = 2 pi * 3.5
    flux = total_flux(disc)
    assert flux.value == pytest.approx(TWO_PI * 3.5, rel=1e-12)
    pot = lambda_2d_radial(disc, grid)
    verdicts = [build_mode_2d(pot, j).normalizable for j in range(4)]
    assert verdicts == [True, True, True, False]
    count = count_2d_zero_modes(flux)
    assert (count.sector.label, count.n_modes) == ("b", 3)
    mirror = count_2d_zero_modes(total_flux(
        box(-1.25, 2.0, dimension=DIM_RADIAL)))       # Phi = -2 pi * 2.5
    assert (mirror.sector.label, mirror.n_modes) == ("a", 2)
    report(9, "plane counts: Phi=2pi*3.5 -> (b, 3) with j=3 rejected; "
              "Phi=-2pi*2.5 -> (a, 2)")


def test_criterion_10_chiral_pairing_and_counts():
    rng = np.random.default_rng(1839)
    worst_pairing = 0.0
    checked = 0
    for case in range(50):
        b0 = float(rng.uniform(0.7, 1.4)) * (1.0 if rng.random() < 0.5 else -1.0)
        if case % 2 == 0:
            a = float(rng.uniform(0.8, 2.0))
            profile = box(b0, a)
        else:
            sigma = float(rng.uniform(0.5, 1.0))
            a = sigma * float(rng.uniform(2.5, 4.0))
            profile = truncated_gaussian(b0, sigma, a)
        q = total_flux(profile).value
        tau = 0.1 * math.sqrt(2.0 * abs(b0))
        layer = 5.0 * tau
        half = 0.5 * abs(q)
        # channel either strictly inside the window or strictly outside,
        # excluding the boundary layer of width 5 tau
        if half - layer > 0.1 and rng.random() < 0.6:
            k_eff = float(rng.uniform(-(half - layer), half - layer))
            expected = 1
        else:
            k_eff = float(rng.uniform(half + layer, half + layer + 1.0)) * \
                (1.0 if rng.random() < 0.5 else -1.0)
            expected = 0

        # (a) chiral pairing of the dense block spectrum
        pair_grid = Grid1D(-(a + 5.0), a + 5.0, 122)
        op_small = build_operator(profile, k_eff, pair_grid)
        vals = eigen_spectrum(op_small, tau=tau).eigenvalues
        gap = np.max(np.abs(np.sort(vals) + np.sort(-vals)[::-1]))
        worst_pairing = max(worst_pairing, float(gap))
        assert gap <= 1e-10

        # (b) near-zero count agrees with the analytic window verdict
        pad = required_padding(q, k_eff) + 1.0
        s_max = abs(k_eff) + half
        h = min(0.25 / max(s_max, 1.0), 0.1)
        span = 2.0 * (a + pad)
        m = int(math.ceil(span / h)) + 1
        assert m <= 2900
        count_grid = Grid1D(-(a + pad), a + pad, m + 2)
        op = build_operator(profile, k_eff, count_grid)
        spec = eigen_spectrum(op, tau=tau)
        assert spec.near_zero_count == expected, (
            case, profile.kind, q, k_eff, expected, spec.near_zero_count)
        checked += 1
    assert checked == 50
    report(10, f"50 random profiles/channels: pairing gap <= "
               f"{worst_pairing:.1e} (tol 1e-10), all zero counts match "
               "the analytic window")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg = {
        "profile": {"kind": "box", "B0": 1.0, "a": 5.0},
        "Ly": TWO_PI,
        "n_range": [-8, 8],
    }
    blobs = []
    for out in (out1, out2):
        path = tmp_path / f"cfg_{out.name}.json"
        path.write_text(json.dumps({**cfg, "out_dir": str(out)}))
        code = cli_main(["count", "--config", str(path)])
        assert code == EXIT_OK
        blobs.append((capsys.readouterr().out.encode(),
                      (out / "count.json").read_bytes()))
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0][1])["g_analytic"] == 10
    report(11, "two `zml count` runs produced byte-identical stdout and files")

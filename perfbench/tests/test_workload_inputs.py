"""The seed generators: determinism, padding and window-margin rules."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import workloads
from zml.potential import required_padding
from zml.profiles import DIM_RADIAL, bump, total_flux

SEEDS = range(12)


def _configs(jobs):
    return [json.dumps(j.config, sort_keys=True) for j in jobs]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert _configs(workloads.generate(name, 5)) == \
        _configs(workloads.generate(name, 5))


@pytest.mark.parametrize("name", ["smooth-potentials", "channel-counts"])
def test_seed_changes_inputs(name):
    assert _configs(workloads.generate(name, 1)) != \
        _configs(workloads.generate(name, 2))


def test_landau_inputs_are_pinned():
    assert _configs(workloads.generate("landau-sweep", 1)) == \
        _configs(workloads.generate("landau-sweep", 99))


def test_padding_rule_matches_zml():
    for q, k in [(4.0, 0.0), (4.0, 1.9), (4.0, 2.0), (4.0, -3.0), (0.0, 0.0)]:
        assert workloads.required_padding(q, k) == required_padding(q, k)


def test_bump_flux_oracle():
    b0, a = 1.7, 2.3
    line = quad(lambda x: float(bump(b0, a)(x)), -a, a, epsabs=0,
                epsrel=1e-13)[0]
    assert workloads.bump_flux(b0, a) == pytest.approx(line, rel=1e-12)
    radial = total_flux(bump(b0, a, dimension=DIM_RADIAL)).value
    assert workloads.bump_flux(b0, a, radial=True) == pytest.approx(
        radial, rel=1e-9)


@pytest.mark.parametrize("seed", SEEDS)
def test_smooth_line_grids_meet_padding(seed):
    for job in workloads.generate("smooth-potentials", seed):
        cfg = job.config
        if "grid" not in cfg or cfg["profile"].get("dimension"):
            continue
        half = cfg["profile"].get("a", cfg["profile"].get("cutoff"))
        k = cfg.get("k", 0.0)
        pad = cfg["grid"]["x_hi"] - half
        assert cfg["grid"]["x_lo"] == -cfg["grid"]["x_hi"]
        q = job.expect["Q"]
        assert pad >= required_padding(q, k) + 1.0 - 1e-12
        if job.command == "scan":
            ks = np.array(cfg["k_list"])
            assert np.all(np.abs(np.abs(ks) - 0.5 * q)
                          >= workloads.SCAN_EDGE_GAP * q)


@pytest.mark.parametrize("seed", SEEDS)
def test_modes2d_flux_away_from_integers(seed):
    job = next(j for j in workloads.generate("smooth-potentials", seed)
               if j.command == "modes2d")
    p = job.config["profile"]
    ratio = total_flux(bump(p["B0"], p["a"], dimension=DIM_RADIAL)).value \
        / (2.0 * math.pi)
    assert math.floor(ratio) == job.expect["N"] in (2, 3)
    assert 0.2 - 1e-9 <= ratio - math.floor(ratio) <= 0.8 + 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_channels_keep_window_margin(seed):
    jobs = workloads.generate("channel-counts", seed)
    sweeps = [j for j in jobs if j.command == "verify"]
    assert len(sweeps) == workloads.SWEEP_COUNT
    for job in sweeps:
        cfg = job.config
        q = workloads.piecewise_flux(cfg["profile"]["points"])
        half = 0.5 * q
        lo, hi = cfg["n_range"]
        need = 5.0
        for n in range(lo, hi + 1):
            ky = 2.0 * math.pi * n / cfg["Ly"]
            depth = half - abs(ky)
            assert depth >= 0.6 or depth <= -0.3
            if depth > 0:
                need = max(need, required_padding(q, ky))
        # the whole window lies inside the channel range
        assert 2.0 * math.pi * lo / cfg["Ly"] < -half
        assert 2.0 * math.pi * hi / cfg["Ly"] > half
        # padding stays bounded and the grid meets it
        assert need <= 30.0 / 0.6
        grid = cfg["grid"]
        assert grid["x_hi"] - 5.0 >= need
        assert grid["n"] - 2 <= 4000


def test_margin_rule_rejects_channel_near_edge():
    q = 6.0
    # channel n = 1 at k_y = 2.9, 0.1 inside the edge at 3.0
    assert not workloads.sweep_margins_ok(q, 2.0 * math.pi / 2.9)
    # channels at multiples of 2.0: 2.0 is 1.0 inside, 4.0 is 1.0 outside
    assert workloads.sweep_margins_ok(q, math.pi)


@pytest.mark.parametrize("seed", SEEDS)
def test_spectrum_channels_follow_criterion_10(seed):
    specs = [j for j in workloads.generate("channel-counts", seed)
             if j.command == "spectrum"]
    sizes = sorted(j.config["grid"]["n"] - 2 for j in specs)
    assert sizes[-workloads.BANDED_SPECTRA:] == [3000] * workloads.BANDED_SPECTRA
    assert all(m <= 300 for m in sizes[:workloads.DENSE_SPECTRA])
    for job in specs:
        p, k, g = job.config["profile"], job.config["k_y"], job.config["grid"]
        half = abs(p["B0"]) * p["a"]
        tau = 0.1 * math.sqrt(2.0 * abs(p["B0"]))
        inside = abs(k) < half
        assert job.expect["near_zero_count"] == int(inside)
        assert abs(abs(k) - half) >= 5.0 * tau - 1e-12
        h = (g["x_hi"] - g["x_lo"]) / (g["n"] - 1)
        assert h <= min(0.25 / max(abs(k) + half, 1.0), 0.1) + 1e-15
        assert g["x_hi"] - p["a"] >= required_padding(2 * half, k)


def test_stage_mapping():
    stages = {j.label: j.stage for j in workloads.generate("landau-sweep", 0)}
    assert stages == {"count": None, "verify-level0": "verify0",
                      "verify-level1": "verify1"}

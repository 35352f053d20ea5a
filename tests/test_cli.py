"""Command-line surface: schemas, exit codes, report formats, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lapack

import zml
from zml import __version__, _quadrature, reduction
from zml.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from zml.potential import lambda_1d, lambda_2d_radial
from zml.profiles import Grid1D, bump, total_flux, truncated_gaussian


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, name="cfg.json", **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


BOX_PROFILE = {"kind": "box", "B0": 1.0, "a": 2.0}
GRID = {"x_lo": -17.0, "x_hi": 17.0, "n": 341}
RADIAL_BOX = {**BOX_PROFILE, "dimension": "radial-plane"}
# flux 4e307 pi is finite; lambda ~ Phi/2pi ln r is not on r up to 1e300
RADIAL_HUGE = {"kind": "box", "B0": 1e307, "a": 2.0,
               "dimension": "radial-plane"}


class TestFlux:
    def test_box(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, out_dir=str(tmp_path / "o"))
        code, out, _ = run_cli(capsys, "flux", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {"Q": 4.0, "method": "analytic"}

    def test_zero_profile(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 0.0, "a": 1.0},
                        out_dir=str(tmp_path / "o"))
        code, out, _ = run_cli(capsys, "flux", "--config", cfg)
        assert code == EXIT_OK
        assert json.loads(out)["Q"] == 0.0

    def test_radial_reports_phi(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.0, "a": 2.0,
                                           "dimension": "radial-plane"},
                        out_dir=str(tmp_path / "o"))
        code, out, _ = run_cli(capsys, "flux", "--config", cfg)
        assert code == EXIT_OK
        assert json.loads(out)["Phi"] == pytest.approx(4 * math.pi)

    def test_negative_width_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.0, "a": -2.0})
        code, _, err = run_cli(capsys, "flux", "--config", cfg)
        assert code == EXIT_CONFIG
        assert "'a'" in err


    @pytest.mark.parametrize("profile, name", [
        ({"kind": "box", "B0": 1.0}, "a"),
        ({"kind": "bump", "a": 1.0}, "B0"),
        ({"kind": "truncated-gaussian", "B0": 1.0, "sigma": 1.0}, "cutoff"),
        ({"kind": "piecewise-linear"}, "points"),
    ])
    def test_missing_parameter_named(self, tmp_path, capsys, profile, name):
        cfg = write_cfg(tmp_path, profile=profile, out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, "flux", "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == f"config error: profile: parameter '{name}' is required\n"


class TestPiecewiseLinear:
    # the config's [x, B] pairs go to make_profile as they are
    POINTS = [[-3.0, 0.0], [-1.0, 1.2], [0.5, 0.8], [2.0, 1.0], [3.0, 0.0]]
    Q = sum(0.5 * (x1 - x0) * (b0 + b1)
            for (x0, b0), (x1, b1) in zip(POINTS, POINTS[1:]))

    def test_flux_and_level0_verify(self, tmp_path, capsys):
        profile = {"kind": "piecewise-linear", "points": self.POINTS}
        cfg = write_cfg(tmp_path, profile=profile,
                        grid={"x_lo": -30.0, "x_hi": 30.0, "n": 601},
                        Ly=2 * math.pi, n_range=[-1, 1], level=0,
                        out_dir=str(tmp_path / "o"))
        code, stdout, _ = run_cli(capsys, "flux", "--config", cfg)
        assert code == EXIT_OK
        assert json.loads(stdout)["Q"] == pytest.approx(self.Q, rel=1e-11)
        code, stdout, _ = run_cli(capsys, "verify", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["Q"] == pytest.approx(self.Q, rel=1e-11)
        # Q = 4.55: channels -1, 0 and 1 are well inside the window
        assert [c["near_zero_count"] for c in doc["channels"]] == [1, 1, 1]
        assert doc["g_numeric"] == 3


class TestParser:
    # argparse's own refusals: exit 2 with usage on stderr, no report
    def test_unknown_stage(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE)
        with pytest.raises(SystemExit) as exc:
            main(["fluxes", "--config", cfg])
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'fluxes'" in captured.err

    def test_missing_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["flux"])
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--config" in captured.err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out == f"{__version__}\n"

    def test_shared_parser_keeps_no_state(self, tmp_path, capsys):
        # main parses every run with one parser: no run, refused or not,
        # leaves anything behind for the next
        base = dict(profile=BOX_PROFILE, grid=GRID, sector="b",
                    k_list=[-1.0, 0.5, 3.0])
        runs = [("potential", "--plots"), ("scan", None)]

        def run(i, command, flag):
            out = tmp_path / f"o{i}"
            cfg = write_cfg(tmp_path, f"c{i}.json", **base)
            code, stdout, _ = run_cli(capsys, command, "--config", cfg,
                                      "--out", str(out),
                                      *([flag] if flag else []))
            assert code == EXIT_OK
            return stdout, {p.name: p.read_bytes() for p in out.iterdir()}

        first = [run(i, *r) for i, r in enumerate(runs)]
        assert sorted(first[0][1]) == ["potential.csv", "potential.json",
                                       "potential.svg"]
        assert sorted(first[1][1]) == ["scan.csv", "scan.json"]
        with pytest.raises(SystemExit) as exc:
            main(["fluxes", "--config", "x.json"])
        assert exc.value.code == EXIT_CONFIG
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == EXIT_OK
        capsys.readouterr()
        again = [run(i + len(runs), *r) for i, r in enumerate(runs)]
        assert again == first


    def test_plot_of_an_overflowing_range(self, tmp_path, capsys):
        # lambda spans -1.2e308 .. 1.2e308, whose width overflows: the
        # plot's points and y ticks were nan and inf
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.0,
                                           "a": 0.5},
                        grid={"x_lo": -6.0, "x_hi": 6.0, "n": 11}, k=2e307)
        code, _, _ = run_cli(capsys, "potential", "--config", cfg, "--out",
                             str(tmp_path / "o"), "--plots")
        assert code == EXIT_OK
        svg = (tmp_path / "o" / "potential.svg").read_text()
        assert "nan" not in svg and "inf" not in svg
        assert ">1.2e+308</text>" in svg


class TestConfigValidation:
    def test_unknown_top_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, wavelength=3.0)
        code, _, err = run_cli(capsys, "flux", "--config", cfg)
        assert code == EXIT_CONFIG
        assert "wavelength" in err

    def test_unknown_nested_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.0, "a": 1.0,
                                           "radius": 2.0})
        code, _, err = run_cli(capsys, "flux", "--config", cfg)
        assert code == EXIT_CONFIG
        assert "profile.radius" in err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "profile": {,}\n}\n')
        code, _, err = run_cli(capsys, "flux", "--config", str(path))
        assert code == EXIT_CONFIG
        assert "line 2" in err

    def test_config_not_utf8(self, tmp_path, capsys):
        # JSON text is UTF-8 (RFC 8259), whatever the locale
        path = tmp_path / "latin1.json"
        path.write_bytes('{"profile": {"kind": "box", "B0": 1.0, "a": 2.0},'
                         ' "out_dir": "\u00e9"}'.encode("latin-1"))
        code, stdout, err = run_cli(capsys, "flux", "--config", str(path))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == (f"config error: config {path} is not valid UTF-8: "
                       "byte 62: invalid continuation byte\n")

    def test_config_utf8_out_dir(self, tmp_path, capsys):
        path = tmp_path / "utf8.json"
        out = tmp_path / "\u00e9\u03a6"
        path.write_bytes('{"profile": {"kind": "box", "B0": 1.0, "a": 2.0}, '
                         f'"out_dir": "{out}"}}'.encode("utf-8"))
        code, stdout, _ = run_cli(capsys, "flux", "--config", str(path))
        assert code == EXIT_OK
        assert (out / "flux.json").read_text() == stdout

    @pytest.mark.parametrize("where", ["file", "under-file"])
    @pytest.mark.parametrize("option", ["--out", "out_dir"])
    def test_out_dir_not_a_directory(self, tmp_path, capsys, where, option):
        blocker = tmp_path / "reports"
        blocker.write_text("not a directory\n")
        out = blocker if where == "file" else blocker / "sub"
        if option == "out_dir":
            cfg = write_cfg(tmp_path, profile=BOX_PROFILE, out_dir=str(out))
            args = ()
        else:
            cfg = write_cfg(tmp_path, profile=BOX_PROFILE)
            args = ("--out", str(out))
        code, stdout, err = run_cli(capsys, "flux", "--config", cfg, *args)
        assert code == EXIT_CONFIG
        assert stdout == ""
        reason = "File exists" if where == "file" else "Not a directory"
        assert err == (f"config error: cannot write reports to {out}: "
                       f"{reason}\n")
        assert blocker.read_text() == "not a directory\n"

    def test_report_name_taken_by_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "flux.json").mkdir(parents=True)
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE)
        code, stdout, err = run_cli(capsys, "flux", "--config", cfg,
                                    "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith(f"config error: cannot write reports to {out}: ")
        assert (out / "flux.json").is_dir()

    def test_existing_longer_report_replaced_exactly(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        stale = b"an unrelated file, longer than the flux report\n" * 20
        (out / "flux.json").write_bytes(stale)
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE)
        code, stdout, _ = run_cli(capsys, "flux", "--config", cfg,
                                  "--out", str(out))
        assert code == EXIT_OK
        assert len(stdout) < len(stale)
        assert (out / "flux.json").read_bytes() == stdout.encode()

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE)
        code, _, err = run_cli(capsys, "modes", "--config", cfg)
        assert code == EXIT_CONFIG
        assert "grid" in err

    def test_sector_none_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, grid=GRID, sector="none")
        code, _, err = run_cli(capsys, "modes", "--config", cfg)
        assert code == EXIT_CONFIG
        assert "sector" in err

    def test_grid_n_above_ceiling(self, tmp_path, capsys, monkeypatch):
        # a config error naming n, before any grid is sampled
        monkeypatch.setattr(Grid1D, "points", None)
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE,
                        grid={"x_lo": -17.0, "x_hi": 17.0, "n": 10 ** 12},
                        out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, "potential", "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith("config error: grid: ")
        assert "n = 1000000000000" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, field, value", [
        ("modes", "k", math.nan),
        ("modes", "k", math.inf),
        ("spectrum", "k_y", -math.inf),
        ("scan", "k_list", [math.nan, math.inf, -math.inf, 0.5]),
        ("scan", "k_list", [0.5, math.nan]),
        ("scan", "k_list", [10 ** 400]),
        ("scan", "k_list", [0.5, True]),
        ("scan", "k_list", [0.5, "1"]),
        ("scan", "k_list", []),
        ("scan", "k_list", [0.5, 10 ** 400]),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, command,
                                        field, value):
        # json.loads reads NaN and Infinity; such a field is a config error
        # naming the field, not a report with null where the number was
        cfg = {"profile": BOX_PROFILE, "grid": GRID, "sector": "b", "k": 0.0,
               "k_list": [0.5], "k_y": 0.0, "out_dir": str(tmp_path / "o")}
        cfg[field] = value
        path = write_cfg(tmp_path, **cfg)
        code, stdout, err = run_cli(capsys, command, "--config", path)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert field in err and "finite" in err

    @pytest.mark.parametrize("command, fields, message", [
        ("verify", {"Ly": 0.0}, "L_y must be finite and positive, got 0.0"),
        ("verify", {"n_range": [3, 1]},
         "n_range must be integers lo <= hi, got (3, 1)"),
        ("verify", {"B_const": 0.0},
         "B_const must be finite and positive, got 0.0"),
        ("verify", {"level": 1.5}, "level must be an integer"),
        ("verify", {"n_range": [0, 1.5]},
         "n_range must be a pair [n_lo, n_hi] of integers"),
        ("verify", {"grid": {"x_lo": -17.0, "n": 341}},
         "grid.x_hi is required"),
        ("flux", {"profile": {"B0": 1.0, "a": 2.0}},
         "profile.kind is required"),
        ("modes2d", {"profile": RADIAL_BOX, "j_list": [0, -1]},
         "j_list entries must be >= 0, got -1"),
        ("potential", {"profile": RADIAL_BOX, "k": 0.5},
         "k must be 0 (or absent) for radial potentials: linear terms "
         "destroy plane normalizability"),
        ("modes", {"sector": 1, "k": 0.0}, "sector must be a string"),
        ("potential", {"grid": [-17.0, 17.0, 341]}, "grid must be an object"),
        ("modes2d", {"profile": RADIAL_BOX, "j_list": [0, 1.5]},
         "j_list must be a non-empty list of integers"),
    ])
    def test_refusal_message(self, tmp_path, capsys, command, fields,
                             message):
        cfg = {"profile": BOX_PROFILE, "grid": GRID, "Ly": 2 * math.pi,
               "out_dir": str(tmp_path / "o"), **fields}
        code, stdout, err = run_cli(capsys, command, "--config",
                                    write_cfg(tmp_path, **cfg))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_config_unreadable(self, tmp_path, capsys):
        # a directory where the config file should be
        code, stdout, err = run_cli(capsys, "flux", "--config", str(tmp_path))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith(f"config error: cannot read config {tmp_path}: ")
        assert err.endswith("\n") and err.count("\n") == 1

    def test_config_root_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]\n")
        code, stdout, err = run_cli(capsys, "flux", "--config", str(path))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == "config error: config root must be a JSON object\n"

    @pytest.mark.parametrize("command, dimension", [
        ("modes", "line"), ("scan", "line"), ("spectrum", "line"),
        ("verify", "line"), ("modes2d", "radial-plane")])
    def test_stage_needs_its_profile_dimension(self, tmp_path, capsys,
                                               command, dimension):
        # every required key is present: only the dimension is wrong
        profile = dict(BOX_PROFILE)
        if dimension == "line":
            profile["dimension"] = "radial-plane"
        cfg = write_cfg(tmp_path, profile=profile,
                        grid={"x_lo": 0.0, "x_hi": 20.0, "n": 41},
                        sector="b", k_list=[0.0], k_y=0.0, Ly=2 * math.pi,
                        j_list=[0], out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, command, "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == (f"config error: '{command}' needs a {dimension} "
                       "profile\n")
        assert not (tmp_path / "o").exists()

    def test_grid_width_not_finite(self, tmp_path, capsys, monkeypatch):
        # finite bounds, but h = inf: refused before any grid is sampled
        monkeypatch.setattr(Grid1D, "points", None)
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE,
                        grid={"x_lo": -1e308, "x_hi": 1e308, "n": 11},
                        out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, "potential", "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith("config error: grid: ") and "width" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["potential", "scan"])
    def test_collapsing_grid_points_refused(self, tmp_path, capsys, command):
        # spacings [0, 1.1e-16, 1.1e-16, 0]: a config error naming the
        # grid, not null norms and divide-by-zero warnings
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE,
                        grid={"x_lo": 0.5, "x_hi": 0.5000000000000002,
                              "n": 5},
                        sector="b", k_list=[0.5],
                        out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, command, "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith("config error: grid: grid [0.5, "
                              "0.5000000000000002] with n = 5: ")
        assert "collapse" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, fields", [
        ("potential", {"grid": {"x_lo": -8e307, "x_hi": 8e307, "n": 11}}),
        ("modes", {"grid": {"x_lo": -8e307, "x_hi": 8e307, "n": 11},
                   "sector": "b", "k": 0.5}),
        ("potential", {"grid": {"x_lo": -1e200, "x_hi": 1e200, "n": 11},
                       "k": 1e150}),
        ("scan", {"grid": {"x_lo": -8e307, "x_hi": 8e307, "n": 11},
                  "sector": "b", "k_list": [0.5]}),
        ("potential", {"grid": {"x_lo": 0.0, "x_hi": 1e300, "n": 11},
                       "profile": RADIAL_HUGE}),
        ("modes2d", {"grid": {"x_lo": 0.0, "x_hi": 1e300, "n": 11},
                     "profile": RADIAL_HUGE, "j_list": [0]}),
    ])
    def test_lambda_overflow_refused(self, tmp_path, capsys, command,
                                     fields):
        # finite grid and flux, but lambda overflows a float on the grid: a
        # config error naming the grid, with no NumPy warning, not a report
        # with empty lambda cells or a zero norm
        cfg = write_cfg(tmp_path, **{"profile": BOX_PROFILE,
                                     "out_dir": str(tmp_path / "o"),
                                     **fields})
        code, stdout, err = run_cli(capsys, command, "--config", cfg)
        grid = fields["grid"]
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == ("config error: lambda overflows a float on the grid "
                       f"[{grid['x_lo']}, {grid['x_hi']}]\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("profile", [
        {"kind": "box", "B0": 1e200, "a": 1e200},
        {"kind": "bump", "B0": 1e300, "a": 1e10},
    ])
    def test_flux_not_finite(self, tmp_path, capsys, profile):
        # a config error, not "Q": null with exit 0
        cfg = write_cfg(tmp_path, profile=profile, out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, "flux", "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith("config error: ") and "not finite" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, fields, match", [
        ("count", {"Ly": 1e308}, "not finite"),
        ("count", {"Ly": 2 * math.pi, "k_gauge": 1e308}, "not finite"),
        ("count", {"Ly": 1e10, "profile": {"kind": "box", "B0": 1e300,
                                           "a": 1e5}}, "not finite"),
        ("count", {"Ly": 1e9}, "MAX_CHANNELS"),
        ("count", {"Ly": 2 * math.pi, "n_range": [-10 ** 12, 10 ** 12]},
         "MAX_CHANNELS"),
        ("verify", {"Ly": 1e9}, "MAX_CHANNELS"),
        ("verify", {"Ly": 1e308}, "not finite"),
    ])
    def test_channel_set_refused(self, tmp_path, capsys, monkeypatch,
                                 command, fields, match):
        # refused before any channel is built
        monkeypatch.setattr(reduction, "quantize_ky", None)
        cfg = write_cfg(tmp_path, **{"profile": BOX_PROFILE, "grid": GRID,
                                     "out_dir": str(tmp_path / "o"),
                                     **fields})
        code, stdout, err = run_cli(capsys, command, "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith("config error: ") and match in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, fields, code", [
        ("potential", {}, EXIT_CONFIG),
        ("modes", {"sector": "b", "k": 0.0}, EXIT_CONFIG),
        ("spectrum", {"k_y": 0.0}, EXIT_CONFIG),
        ("verify", {"Ly": 2 * math.pi}, EXIT_CONFIG),
        # a mode its sector cannot normalize has no tail to protect, and a
        # scan's verdicts are exact: neither checks the padding
        ("modes", {"sector": "a", "k": 0.0}, EXIT_OK),
        ("scan", {"sector": "b", "k_list": [0.0, 0.5, 3.0]}, EXIT_OK),
    ])
    def test_padding_policy_per_stage(self, tmp_path, capsys, command,
                                      fields, code):
        # 3 past the support of box(1, 2), below the floor of 5
        cfg = write_cfg(tmp_path, **{"profile": BOX_PROFILE,
                                     "grid": {"x_lo": -5.0, "x_hi": 5.0,
                                              "n": 101},
                                     "out_dir": str(tmp_path / "o"),
                                     **fields})
        got, stdout, err = run_cli(capsys, command, "--config", cfg)
        assert got == code, err
        if code == EXIT_OK:
            assert json.loads(stdout)["Q"] == 4.0
            return
        assert stdout == ""
        assert err.startswith("config error: grid [-5.0, 5.0] extends only ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("command", [
        "flux", "potential", "modes", "count", "verify", "modes2d"])
    def test_gaussian_sigma_underflow_refused(self, tmp_path, capsys,
                                              command):
        # sigma = 1e-170 is positive, but 2 sigma^2 is 0.0 in a float
        profile = {"kind": "truncated-gaussian", "B0": 1.0, "sigma": 1e-170,
                   "cutoff": 1.0}
        grid = GRID
        if command == "modes2d":
            profile["dimension"] = "radial-plane"
            grid = {"x_lo": 0.0, "x_hi": 20.0, "n": 41}
        cfg = write_cfg(tmp_path, profile=profile, grid=grid, sector="b",
                        k=0.0, Ly=2 * math.pi, j_list=[0],
                        out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, command, "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith("config error: profile: parameter 'sigma' ")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["flux", "count", "potential",
                                         "modes2d"])
    def test_radial_gaussian_huge_cutoff(self, tmp_path, capsys, command):
        # at cutoff 1e200 c^2 overflows and exp(-c^2 / 2 sigma^2) underflows:
        # the radial flux's edge term is 0, not inf * 0, and nothing else moves
        runs = []
        for cutoff in (1e150, 1e200):
            out = tmp_path / f"o{cutoff:g}"
            cfg = write_cfg(tmp_path, profile={
                "kind": "truncated-gaussian", "B0": 1.0, "sigma": 1.0,
                "cutoff": cutoff, "dimension": "radial-plane"},
                grid={"x_lo": 0.0, "x_hi": 10.0, "n": 41}, j_list=[0, 1],
                out_dir=str(out))
            code, stdout, err = run_cli(capsys, command, "--config", cfg)
            assert code == EXIT_OK, err
            runs.append((stdout, {f.name: f.read_bytes()
                                  for f in sorted(out.iterdir())}))
        assert runs[0][1]
        assert runs[1] == runs[0]

    def test_spectrum_needs_two_interior_points(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, k_y=0.0,
                        grid={"x_lo": -17.0, "x_hi": 17.0, "n": 3},
                        out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == ("config error: operator needs at least 2 interior "
                       "points\n")


    @pytest.mark.parametrize("command, fields, field", [
        ("verify", {"B_const": 1, "level": 10 ** 309,
                    "grid": {"x_lo": -32.0, "x_hi": 32.0, "n": 802},
                    "Ly": 2 * math.pi, "n_range": [-3, 3]}, "level"),
        ("count", {"Ly": 2 * math.pi, "n_range": [10 ** 400, 10 ** 400]},
         "n_range"),
        ("modes2d", {"profile": {**BOX_PROFILE, "dimension": "radial-plane"},
                     "grid": {"x_lo": 0.0, "x_hi": 20.0, "n": 41},
                     "j_list": [10 ** 400]}, "j_list"),
        ("flux", {"profile": {"kind": "piecewise-linear",
                              "points": [[0.0, 0.0], [10 ** 400, 1.0]]}},
         "profile.points"),
    ])
    def test_integer_beyond_float_refused(self, tmp_path, capsys, command,
                                          fields, field):
        # json.loads reads integers of any size; one a float cannot hold is
        # a config error naming its field, not an OverflowError traceback
        cfg = write_cfg(tmp_path, **{"profile": BOX_PROFILE,
                                     "out_dir": str(tmp_path / "o"),
                                     **fields})
        code, stdout, err = run_cli(capsys, command, "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith(f"config error: {field} ")
        # an integer field says why it refuses an integer; a point is a
        # pair of finite numbers
        reason = ("must be a non-empty list of [x, B] pairs"
                  if field == "profile.points"
                  else "holds an integer too large for a float")
        assert err == f"config error: {field} {reason}\n"
        assert not (tmp_path / "o").exists()


class TestModes:
    def test_normalizable_verdict_and_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, grid=GRID, k=0.0,
                        sector="b", out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "modes", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["normalizable"] is True
        assert doc["Q"] == 4.0
        assert doc["sector"] == "b"
        csv = (out / "modes.csv").read_text()
        assert csv.splitlines()[0] == "x,log_psi,psi"

    def test_non_normalizable_still_succeeds(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, grid=GRID, k=2.1,
                        sector="b", out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "modes", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["normalizable"] is False
        assert doc["l2_norm"] is None
        assert (out / "modes.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, norm", [
        # x = 0 is a point, a middle one of Simpson's rule: its weight is
        # 4h/3 = 4e160/3, where h0 * h1 = 1e320 overflows
        (3, math.exp(-0.5) * math.sqrt(4e160 / 3.0)),
        # linspace puts the middle point at -1.6e144, not 0: every sample
        # of the mode underflows, and so does the norm
        (11, 0.0),
    ])
    def test_norm_on_a_huge_grid(self, tmp_path, capsys, n, norm):
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.0,
                                           "a": 1.0},
                        grid={"x_lo": -1e160, "x_hi": 1e160, "n": n},
                        k=0.0, sector="b", out_dir=str(tmp_path / "o"))
        code, stdout, _ = run_cli(capsys, "modes", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["normalizable"] is True
        assert doc["l2_norm"] == pytest.approx(norm, rel=1e-10)

    def test_plots_flag_writes_svg(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, grid=GRID, k=0.0,
                        sector="b", out_dir=str(out))
        code, _, _ = run_cli(capsys, "modes", "--config", cfg, "--plots")
        assert code == EXIT_OK
        svg = (out / "modes.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_rerun_without_plots_removes_the_old_plot(self, tmp_path, capsys):
        # a plot of the first run's field must not stay beside the second
        # run's reports
        out = tmp_path / "o"
        first = write_cfg(tmp_path, "first.json", profile=BOX_PROFILE,
                          grid=GRID, k=0.0, sector="b")
        second = write_cfg(tmp_path, "second.json",
                           profile=dict(BOX_PROFILE, B0=2.0), grid=GRID,
                           k=0.0, sector="b")
        code, _, _ = run_cli(capsys, "modes", "--config", first,
                             "--out", str(out), "--plots")
        assert code == EXIT_OK
        assert (out / "modes.svg").exists()
        code, _, _ = run_cli(capsys, "modes", "--config", second,
                             "--out", str(out))
        assert code == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["modes.csv",
                                                         "modes.json"]

    def test_plot_name_taken_by_a_directory(self, tmp_path, capsys):
        # the stale plot cannot be removed: exit 2, nothing on stdout
        out = tmp_path / "o"
        (out / "modes.svg").mkdir(parents=True)
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, grid=GRID, k=0.0,
                        sector="b")
        code, stdout, err = run_cli(capsys, "modes", "--config", cfg,
                                    "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith(f"config error: cannot write reports to {out}: ")
        assert (out / "modes.svg").is_dir()


class TestScan:
    def test_window_booleans(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE,
                        grid={"x_lo": -30.0, "x_hi": 30.0, "n": 301},
                        sector="b",
                        k_list=[-2.1, -2.0, -1.9, 0.0, 1.9, 2.0, 2.1],
                        out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "scan", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        got = [e["normalizable"] for e in doc["entries"]]
        assert got == [False, False, True, True, True, False, False]
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "k,normalizable,l2_norm"
        assert lines[1].startswith("-2.1") and lines[1].endswith(",false,")

    def test_reported_q_is_the_verdicts_q(self, tmp_path, capsys):
        # the flux is a closed form, so at quadrature_tol 1e-3 this bump's Q
        # is the default-tolerance Q bit for bit; k values one float inside
        # and outside Q/2 tell that the verdicts use that Q
        profile = {"kind": "bump", "B0": 1.7, "a": 2.1}
        tol = {"quadrature_tol": 1e-3}
        grid = Grid1D(-30.0, 30.0, 301)
        q = total_flux(bump(1.7, 2.1)).value
        assert lambda_1d(bump(1.7, 2.1), 0.0, grid, rtol=1e-3).flux.value == q
        inside = math.nextafter(0.5 * q, 0.0)
        outside = math.nextafter(0.5 * q, math.inf)
        k_list = [-outside, -inside, -1.0, 0.0, 1.0, inside, outside]
        cfg = write_cfg(tmp_path, profile=profile,
                        grid={"x_lo": -30.0, "x_hi": 30.0, "n": 301},
                        sector="b", k_list=k_list,
                        tolerances=tol, out_dir=str(tmp_path / "s"))
        code, stdout, _ = run_cli(capsys, "scan", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["Q"] == float(f"{q:.11e}")
        assert [e["normalizable"] for e in doc["entries"]] == [
            abs(k) < 0.5 * q for k in k_list]

        # modes and flux report the same Q at the same tolerance
        reported = []
        for command in ("modes", "flux"):
            cfg = write_cfg(tmp_path, f"{command}.json", profile=profile,
                            grid={"x_lo": -30.0, "x_hi": 30.0, "n": 301},
                            sector="b", k=0.0, tolerances=tol,
                            out_dir=str(tmp_path / command))
            code, stdout, _ = run_cli(capsys, command, "--config", cfg)
            assert code == EXIT_OK
            reported.append(json.loads(stdout)["Q"])
        assert reported[0] == reported[1] == doc["Q"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        # more k values than one norm block of scan_k, in and out of window
        k_list = [round(-3.0 + 6.0 * i / 1100, 9) for i in range(1101)]
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            cfg = write_cfg(tmp_path, f"{name}.json",
                            profile={"kind": "bump", "B0": 1.5, "a": 2.0},
                            grid={"x_lo": -20.0, "x_hi": 20.0, "n": 121},
                            sector="b", k_list=k_list, out_dir=str(out))
            code, stdout, _ = run_cli(capsys, "scan", "--config", cfg)
            assert code == EXIT_OK
            outs.append((stdout, (out / "scan.json").read_bytes(),
                         (out / "scan.csv").read_bytes()))
        assert outs[0] == outs[1]
        entries = json.loads(outs[0][0])["entries"]
        assert len(entries) == len(k_list)
        assert 512 < sum(e["normalizable"] for e in entries) < len(k_list)

    def test_rerun_into_the_same_directory(self, tmp_path, capsys):
        # the second run's reports are shorter than the first's: each must
        # read as a run into a fresh directory, with no tail of the first
        def scan(name, out, k_list):
            cfg = write_cfg(tmp_path, f"{name}.json", profile=BOX_PROFILE,
                            grid={"x_lo": -30.0, "x_hi": 30.0, "n": 301},
                            sector="b", k_list=k_list)
            code, stdout, _ = run_cli(capsys, "scan", "--config", cfg,
                                      "--out", str(out))
            assert code == EXIT_OK
            return stdout, {p.name: p.read_bytes()
                            for p in sorted(out.iterdir())}

        long_k = [-2.5 + 0.25 * i for i in range(21)]
        short_k = [-1.0, 0.0, 1.0]
        first = scan("long", tmp_path / "same", long_k)
        again = scan("short", tmp_path / "same", short_k)
        fresh = scan("fresh", tmp_path / "fresh", short_k)
        assert again == fresh
        assert set(fresh[1]) == {"scan.json", "scan.csv"}
        for name, data in fresh[1].items():
            assert len(data) < len(first[1][name])

    @pytest.mark.filterwarnings("error")
    def test_norm_on_a_tiny_grid(self, tmp_path, capsys):
        # h0 * h1 = 4e-602 underflows; the mode is exp(-1/2) on the grid
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.0,
                                           "a": 1.0},
                        grid={"x_lo": -1e-300, "x_hi": 1e-300, "n": 11},
                        sector="b", k_list=[0.0, 0.5],
                        out_dir=str(tmp_path / "o"))
        code, stdout, _ = run_cli(capsys, "scan", "--config", cfg)
        assert code == EXIT_OK
        for entry in json.loads(stdout)["entries"]:
            assert entry["normalizable"] is True
            assert entry["l2_norm"] == pytest.approx(
                math.exp(-0.5) * math.sqrt(2e-300), rel=1e-10)

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # two fresh interpreters, one and four BLAS threads: the norms are
        # sums NumPy does itself, so the reports are the same bytes
        cfg = write_cfg(tmp_path, profile={"kind": "bump", "B0": 1.5,
                                           "a": 2.0},
                        grid={"x_lo": -20.0, "x_hi": 20.0, "n": 121},
                        sector="b",
                        k_list=[-3.0 + 6.0 * i / 1100 for i in range(1101)])
        src = str(Path(zml.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "4"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from zml.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "scan", "--config", cfg, "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120)
            reports.append([(out / name).read_bytes()
                            for name in ("scan.json", "scan.csv")])
        assert reports[0] == reports[1]

    def test_golden_bytes(self, tmp_path, capsys):
        # -0.0, k inside the window |k| < Q/2 = 2 and one outside it, whose
        # norm is inf: null in JSON, an empty cell in CSV.  The 13-point
        # grid (h = 2, three points on the support) pins formatting, not
        # accuracy: these norms are 1.5-14% below the continuum's
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE,
                        grid={"x_lo": -12.0, "x_hi": 12.0, "n": 13},
                        sector="b", k_list=[-0.0, 0.5, 3.0, -1.25],
                        out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "scan", "--config", cfg)
        assert code == EXIT_OK
        golden = (
            '{\n'
            '  "Q": 4.00000000000e+00,\n'
            '  "entries": [\n'
            '    {\n'
            '      "k": 0.00000000000e+00,\n'
            '      "l2_norm": 1.61895911506e-01,\n'
            '      "normalizable": true\n'
            '    },\n'
            '    {\n'
            '      "k": 5.00000000000e-01,\n'
            '      "l2_norm": 1.76522406031e-01,\n'
            '      "normalizable": true\n'
            '    },\n'
            '    {\n'
            '      "k": 3.00000000000e+00,\n'
            '      "l2_norm": null,\n'
            '      "normalizable": false\n'
            '    },\n'
            '    {\n'
            '      "k": -1.25000000000e+00,\n'
            '      "l2_norm": 4.01043041544e-01,\n'
            '      "normalizable": true\n'
            '    }\n'
            '  ],\n'
            '  "sector": "b"\n'
            '}\n')
        assert stdout == golden
        assert (out / "scan.json").read_text() == golden
        assert (out / "scan.csv").read_text() == (
            "k,normalizable,l2_norm\n"
            "0.00000000000e+00,true,1.61895911506e-01\n"
            "5.00000000000e-01,true,1.76522406031e-01\n"
            "3.00000000000e+00,false,\n"
            "-1.25000000000e+00,true,4.01043041544e-01\n")

        # a psi that overflows a float is an empty cell; one that
        # underflows is zero
        cfg = write_cfg(tmp_path, "modes.json", profile=BOX_PROFILE,
                        grid={"x_lo": -400.0, "x_hi": 400.0, "n": 9},
                        sector="b", k=5.0, out_dir=str(out))
        code, _, _ = run_cli(capsys, "modes", "--config", cfg)
        assert code == EXIT_OK
        lines = (out / "modes.csv").read_text().split("\n")
        assert lines[:2] == ["x,log_psi,psi",
                             "-4.00000000000e+02,1.20000000000e+03,"]
        assert lines[-2:] == ["4.00000000000e+02,-2.80000000000e+03,"
                              "0.00000000000e+00", ""]

    def test_large_report_bytes(self, tmp_path, capsys):
        # 2 000 seeded k across the window |k| < Q/2 and beyond it, so the
        # norm column has null cells; pins the bytes of a report whose
        # float columns are long, beside the short golden above; the norms
        # near the window edges carry the closed-form exterior tails
        k_list = np.random.default_rng(2000).uniform(-4.0, 4.0, 2000)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile={"kind": "bump", "B0": 1.5,
                                           "a": 2.0},
                        grid={"x_lo": -20.0, "x_hi": 20.0, "n": 121},
                        sector="b", k_list=k_list.tolist(), out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "scan", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        norms = [e["l2_norm"] for e in doc["entries"]]
        assert 0 < norms.count(None) < len(norms)
        assert (out / "scan.json").read_text() == stdout
        digests = [hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("scan.json", "scan.csv")]
        assert digests == [
            "cb6d0cd91426eb61420da0fd9c986fda347276f862ba96cee818274704cb9754",
            "11601aa33ca9b5e9dcdd6289590e941836202666489b1e14938946b5bc295a4a"]


class TestSpectrum:
    def test_channel_report(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE,
                        grid={"x_lo": -17.0, "x_hi": 17.0, "n": 402},
                        k_y=0.0, out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["near_zero_count"] == 1
        assert doc["n_interior"] == 400
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "channel_ky,index,eigenvalue"
        assert len(lines) == 1 + 2 * 400

    def test_huge_gaussian_cutoff_is_one_padding_error(self, tmp_path,
                                                       capsys):
        # B at |t| > 1.3e154 inside the cutoff overflows t * t on the way to
        # exp(-inf) = 0; stderr carries the padding error and nothing else
        cfg = write_cfg(tmp_path, profile={
            "kind": "truncated-gaussian", "B0": 1.0, "sigma": 1.0,
            "cutoff": 1e300}, grid={"x_lo": -20.0, "x_hi": 20.0, "n": 41},
            k_y=0.0, out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith("config error: grid [-20.0, 20.0] extends only")
        assert err.count("\n") == 1

    def test_golden_bytes(self, tmp_path, capsys):
        # box(1, 2) at k_y = 0.4 on 60 interior points: one near-null
        # singular value, refined on M over its windowed eigenvector
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, k_y=0.4,
                        grid={"x_lo": -21.0, "x_hi": 21.0, "n": 62},
                        out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == EXIT_OK
        golden = (
            '{\n'
            '  "ky": 4.00000000000e-01,\n'
            '  "n_interior": 60,\n'
            '  "near_zero_count": 1,\n'
            '  "tau": 1.41421356237e-01\n'
            '}\n'
        )
        assert stdout == golden
        assert (out / "spectrum.json").read_text() == golden
        csv = (out / "spectrum.csv").read_bytes()
        lines = csv.decode().splitlines()
        assert lines[0] == "channel_ky,index,eigenvalue"
        assert lines[60:62] == ["4.00000000000e-01,59,-1.81663947222e-03",
                                "4.00000000000e-01,60,1.81663947222e-03"]
        assert hashlib.sha256(csv).hexdigest() == (
            "1221af5de0b02a33667494ad2aa0f2d5680bcf5ba45745745a0200b0fc691f47")

    def test_field_free_needs_zero_tol(self, tmp_path, capsys):
        # no field, no Landau scale to take tau from: the config must set it
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 0.0, "a": 2.0},
                        grid=GRID, k_y=0.0, out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == ("config error: a field-free channel has no Landau "
                       "scale to set tau from; set tolerances.zero_tol\n")

    def test_large_report_bytes(self, tmp_path, capsys):
        # the golden channel above on 600 interior points: 1 200 eigenvalues
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, k_y=0.4,
                        grid={"x_lo": -21.0, "x_hi": 21.0, "n": 602},
                        out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == EXIT_OK
        assert json.loads(stdout)["n_interior"] == 600
        csv = (out / "spectrum.csv").read_bytes()
        assert csv.count(b"\n") == 1 + 2 * 600
        assert hashlib.sha256(csv).hexdigest() == (
            "a13a66aecf8af928db02f0411a1cc044785d13820689a490c91ba6ad77f5586d")


class TestCountAndVerify:
    def test_count_q4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, Ly=2 * math.pi,
                        n_range=[-3, 3], out_dir=str(tmp_path / "o"))
        code, stdout, _ = run_cli(capsys, "count", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["g_analytic"] == 4
        assert doc["g_numeric"] is None
        assert [c["admissible"] for c in doc["channels"]] == \
            [False, False, True, True, True, False, False]
        assert [c["n"] for c in doc["channels"] if c["on_window_edge"]] == \
            [-2, 2]

    def test_count_byte_identical_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg1 = write_cfg(tmp_path, "c1.json", profile=BOX_PROFILE,
                         Ly=2 * math.pi, n_range=[-3, 3], out_dir=str(out1))
        cfg2 = write_cfg(tmp_path, "c2.json", profile=BOX_PROFILE,
                         Ly=2 * math.pi, n_range=[-3, 3], out_dir=str(out2))
        code1, stdout1, _ = run_cli(capsys, "count", "--config", cfg1)
        code2, stdout2, _ = run_cli(capsys, "count", "--config", cfg2)
        assert code1 == code2 == EXIT_OK
        assert stdout1 == stdout2
        assert (out1 / "count.json").read_bytes() == \
            (out2 / "count.json").read_bytes()

    def test_verify_level1_byte_identical_reruns(self, tmp_path, capsys):
        # level 1 takes windowed vectors from inverse iteration (dstein),
        # whose fixed start vectors make reruns agree; no B_const, so the
        # cluster center is detected from a full spectrum as well
        outs = []
        for name in ("v1", "v2"):
            out = tmp_path / name
            cfg = write_cfg(tmp_path, f"{name}.json", profile=BOX_PROFILE,
                            grid={"x_lo": -32.0, "x_hi": 32.0, "n": 802},
                            Ly=2 * math.pi, n_range=[-3, 3], level=1,
                            out_dir=str(out))
            code, stdout, _ = run_cli(capsys, "verify", "--config", cfg)
            assert code == EXIT_OK
            outs.append((stdout, (out / "verify.json").read_bytes()))
        assert outs[0] == outs[1]
        doc = json.loads(outs[0][0])
        assert doc["level"] == 1
        assert any(c["level_weight"] > 0.5 for c in doc["channels"])

    def test_count_golden_bytes(self, tmp_path, capsys):
        # Q = 2: channels +-1 sit on the window edge, and count solves no
        # spectrum, so every near_zero_count is null
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.0, "a": 1.0},
                        Ly=2 * math.pi, n_range=[-2, 2], out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "count", "--config", cfg)
        assert code == EXIT_OK
        golden = (
            '{\n'
            '  "Ly": 6.28318530718e+00,\n'
            '  "Q": 2.00000000000e+00,\n'
            '  "channels": [\n'
            '    {\n'
            '      "admissible": false,\n'
            '      "ky": -2.00000000000e+00,\n'
            '      "n": -2,\n'
            '      "near_zero_count": null,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": false,\n'
            '      "ky": -1.00000000000e+00,\n'
            '      "n": -1,\n'
            '      "near_zero_count": null,\n'
            '      "on_window_edge": true\n'
            '    },\n'
            '    {\n'
            '      "admissible": true,\n'
            '      "ky": 0.00000000000e+00,\n'
            '      "n": 0,\n'
            '      "near_zero_count": null,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": false,\n'
            '      "ky": 1.00000000000e+00,\n'
            '      "n": 1,\n'
            '      "near_zero_count": null,\n'
            '      "on_window_edge": true\n'
            '    },\n'
            '    {\n'
            '      "admissible": false,\n'
            '      "ky": 2.00000000000e+00,\n'
            '      "n": 2,\n'
            '      "near_zero_count": null,\n'
            '      "on_window_edge": false\n'
            '    }\n'
            '  ],\n'
            '  "discrepancy": 1,\n'
            '  "g_analytic": 2,\n'
            '  "g_analytic_real": 2.00000000000e+00,\n'
            '  "g_numeric": null\n'
            '}\n'
        )
        assert stdout == golden
        assert (out / "count.json").read_text() == golden

    def test_verify_level0_golden_bytes(self, tmp_path, capsys):
        # the count sweep above, solved: level 0 writes no level_weight
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.0, "a": 1.0},
                        grid={"x_lo": -35.0, "x_hi": 35.0, "n": 402},
                        Ly=2 * math.pi, n_range=[-2, 2], level=0,
                        out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "verify", "--config", cfg)
        assert code == EXIT_OK
        golden = (
            '{\n'
            '  "Ly": 6.28318530718e+00,\n'
            '  "Q": 2.00000000000e+00,\n'
            '  "channels": [\n'
            '    {\n'
            '      "admissible": false,\n'
            '      "ky": -2.00000000000e+00,\n'
            '      "n": -2,\n'
            '      "near_zero_count": 0,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": false,\n'
            '      "ky": -1.00000000000e+00,\n'
            '      "n": -1,\n'
            '      "near_zero_count": 0,\n'
            '      "on_window_edge": true\n'
            '    },\n'
            '    {\n'
            '      "admissible": true,\n'
            '      "ky": 0.00000000000e+00,\n'
            '      "n": 0,\n'
            '      "near_zero_count": 1,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": false,\n'
            '      "ky": 1.00000000000e+00,\n'
            '      "n": 1,\n'
            '      "near_zero_count": 0,\n'
            '      "on_window_edge": true\n'
            '    },\n'
            '    {\n'
            '      "admissible": false,\n'
            '      "ky": 2.00000000000e+00,\n'
            '      "n": 2,\n'
            '      "near_zero_count": 0,\n'
            '      "on_window_edge": false\n'
            '    }\n'
            '  ],\n'
            '  "discrepancy": 1,\n'
            '  "g_analytic": 2,\n'
            '  "g_analytic_real": 2.00000000000e+00,\n'
            '  "g_numeric": 1,\n'
            '  "level": 0,\n'
            '  "tau": 1.15499729911e-02\n'
            '}\n'
        )
        assert stdout == golden
        assert (out / "verify.json").read_text() == golden

    @pytest.mark.parametrize("lo", [10 ** 20, 2 ** 63 - 1])
    def test_count_indices_beyond_int64_exact(self, tmp_path, capsys, lo):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, Ly=2 * math.pi,
                        n_range=[lo, lo + 1], out_dir=str(tmp_path / "o"))
        code, stdout, _ = run_cli(capsys, "count", "--config", cfg)
        assert code == EXIT_OK
        assert f'"n": {lo},' in stdout and f'"n": {lo + 1},' in stdout
        assert [c["n"] for c in json.loads(stdout)["channels"]] == [lo, lo + 1]

    def test_verify_level1_golden_bytes(self, tmp_path, capsys):
        # no B_const, so the cluster centre comes from the deepest channel's
        # spectrum; k_gauge = 0.4 shifts every channel off the k_y lattice,
        # and n = -3 (k = -2.6) sets the padding, 30 / 0.4 = 75
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.0, "a": 3.0},
                        grid={"x_lo": -80.0, "x_hi": 80.0, "n": 1062},
                        Ly=2 * math.pi, n_range=[-4, 3], k_gauge=0.4,
                        level=1, out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "verify", "--config", cfg)
        assert code == EXIT_OK
        golden = (
            '{\n'
            '  "Ly": 6.28318530718e+00,\n'
            '  "Q": 6.00000000000e+00,\n'
            '  "channels": [\n'
            '    {\n'
            '      "admissible": false,\n'
            '      "ky": -4.00000000000e+00,\n'
            '      "level_weight": 1.45870986784e-01,\n'
            '      "n": -4,\n'
            '      "near_zero_count": 0,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": true,\n'
            '      "ky": -3.00000000000e+00,\n'
            '      "level_weight": 2.27896912529e-01,\n'
            '      "n": -3,\n'
            '      "near_zero_count": 1,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": true,\n'
            '      "ky": -2.00000000000e+00,\n'
            '      "level_weight": 7.41304922483e-01,\n'
            '      "n": -2,\n'
            '      "near_zero_count": 1,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": true,\n'
            '      "ky": -1.00000000000e+00,\n'
            '      "level_weight": 9.95139176122e-01,\n'
            '      "n": -1,\n'
            '      "near_zero_count": 1,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": true,\n'
            '      "ky": 0.00000000000e+00,\n'
            '      "level_weight": 9.98142679626e-01,\n'
            '      "n": 0,\n'
            '      "near_zero_count": 1,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": true,\n'
            '      "ky": 1.00000000000e+00,\n'
            '      "level_weight": 8.54868889138e-01,\n'
            '      "n": 1,\n'
            '      "near_zero_count": 1,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": true,\n'
            '      "ky": 2.00000000000e+00,\n'
            '      "level_weight": 2.66337280716e-01,\n'
            '      "n": 2,\n'
            '      "near_zero_count": 1,\n'
            '      "on_window_edge": false\n'
            '    },\n'
            '    {\n'
            '      "admissible": false,\n'
            '      "ky": 3.00000000000e+00,\n'
            '      "level_weight": 1.57309197390e-01,\n'
            '      "n": 3,\n'
            '      "near_zero_count": 0,\n'
            '      "on_window_edge": false\n'
            '    }\n'
            '  ],\n'
            '  "cluster_center": 1.41004669519e+00,\n'
            '  "discrepancy": 2,\n'
            '  "g_analytic": 6,\n'
            '  "g_analytic_real": 6.00000000000e+00,\n'
            '  "g_numeric": 4,\n'
            '  "level": 1,\n'
            '  "tau": 5.09998807401e-03\n'
            '}\n'
        )
        assert stdout == golden
        assert (out / "verify.json").read_text() == golden

    @pytest.mark.parametrize("command, field, value", [
        ("verify", "zero_tol", 0.0),
        ("spectrum", "zero_tol", 0.0),
        ("verify", "zero_tol", math.nan),
        ("verify", "quadrature_tol", 0.0),
        ("verify", "quadrature_tol", -1e-10),
        ("verify", "quadrature_tol", 10 ** 400),
        ("verify", "cluster_tol", -0.1),
        ("verify", "cluster_tol", 0.0),
        ("verify", "level", -1),
    ])
    def test_verify_nonpositive_zero_tol(self, tmp_path, capsys, command,
                                         field, value):
        # every tolerance must be finite and > 0 and the level >= 0; a bad
        # one is a config error naming its field, before any solve
        cfg = {"profile": BOX_PROFILE,
               "grid": {"x_lo": -32.0, "x_hi": 32.0, "n": 802},
               "Ly": 2 * math.pi, "n_range": [-3, 3], "k_y": 0.0, "level": 1,
               "out_dir": str(tmp_path / "o")}
        if field == "level":
            cfg["level"] = value
        else:
            cfg["tolerances"] = {field: value}
        path = write_cfg(tmp_path, **cfg)
        code, stdout, err = run_cli(capsys, command, "--config", path)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["count", "verify"])
    @pytest.mark.parametrize("profile, b_const", [
        ({"kind": "box", "B0": 1.0, "a": 5.0}, 2.0),
        ({"kind": "box", "B0": 1.0, "a": 5.0}, 4.5),
        ({"kind": "bump", "B0": 1.0, "a": 5.0}, 1.0),
    ])
    def test_b_const_must_be_the_box_field(self, tmp_path, capsys, command,
                                           profile, b_const):
        cfg = write_cfg(tmp_path, profile=profile, B_const=b_const,
                        grid={"x_lo": -35.0, "x_hi": 35.0, "n": 1002},
                        Ly=2 * math.pi, n_range=[-8, 8], level=1,
                        out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, command, "--config", cfg)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert "B_const" in err and "Traceback" not in err

    @pytest.mark.parametrize("cluster_tol", [0.6, 3.0])
    def test_verify_unseparated_level_exits_numerical(self, tmp_path, capsys,
                                                      cluster_tol):
        # levels 1 and 2 of B = 1 are 0.59 apart: the window would take both
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.0, "a": 3.0},
                        B_const=1.0,
                        grid={"x_lo": -36.0, "x_hi": 36.0, "n": 1202},
                        Ly=2 * math.pi, n_range=[-4, 4], level=1,
                        tolerances={"cluster_tol": cluster_tol},
                        out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == EXIT_NUMERICAL
        assert stdout == ""
        assert "separated" in err

    @pytest.mark.parametrize("b_const", [None, 1.0])
    def test_verify_cluster_tol_below_float_spacing(self, tmp_path, capsys,
                                                    b_const):
        # 1e-20 is far below the spacing of doubles near sqrt(2): the level
        # window [center - tol, center + tol] would be empty, not a count
        fields = {} if b_const is None else {"B_const": b_const}
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE,
                        grid={"x_lo": -32.0, "x_hi": 32.0, "n": 802},
                        Ly=2 * math.pi, n_range=[-3, 3], level=1,
                        tolerances={"cluster_tol": 1e-20},
                        out_dir=str(tmp_path / "o"), **fields)
        code, stdout, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == EXIT_NUMERICAL
        assert stdout == ""
        assert err.startswith("numerical failure: ")
        assert "cluster_tol" in err and "center" in err

    def test_verify_wide_cluster_exits_numerical(self, tmp_path, capsys):
        # at cluster_tol 0.07 the k = 0 channel of box(1, 2) on this grid
        # resolves level 1 alone, but level 2 (1.93) runs into the
        # continuum from 2.00 up without a gap of 0.07
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE, grid=GRID,
                        Ly=2 * math.pi, n_range=[0, 0], level=2,
                        tolerances={"cluster_tol": 0.07},
                        out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == EXIT_NUMERICAL
        assert stdout == ""
        assert err == ("numerical failure: cluster 2 spans 1.2 > tolerance "
                       "0.07; refine the grid\n")

    @pytest.mark.parametrize("profile, n_range, message", [
        # no channel of box(1, 2) is admissible: no level to detect
        ({"kind": "box", "B0": 1.0, "a": 2.0}, [20, 22],
         "no spectral values to cluster"),
        ({"kind": "box", "B0": 0.0, "a": 2.0}, None,
         "field-free sweep has no level structure"),
    ])
    def test_verify_level1_without_levels_exits_numerical(
            self, tmp_path, capsys, profile, n_range, message):
        fields = {} if n_range is None else {"n_range": n_range}
        cfg = write_cfg(tmp_path, profile=profile, grid=GRID,
                        Ly=2 * math.pi, level=1, out_dir=str(tmp_path / "o"),
                        **fields)
        code, stdout, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == EXIT_NUMERICAL
        assert stdout == ""
        assert err.startswith("numerical failure: ") and message in err

    def test_count_radial_reports_plane_count(self, tmp_path, capsys):
        profile = {"kind": "box", "B0": 7.0 / 4.0, "a": 2.0,
                   "dimension": "radial-plane"}
        cfg = write_cfg(tmp_path, profile=profile, out_dir=str(tmp_path / "o"))
        code, stdout, _ = run_cli(capsys, "count", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["N"] == 3
        assert doc["sector"] == "b"

    def test_count_line_requires_ly(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE)
        code, _, err = run_cli(capsys, "count", "--config", cfg)
        assert code == EXIT_CONFIG
        assert "Ly" in err

    def test_verify_small_sweep(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE,
                        grid={"x_lo": -32.0, "x_hi": 32.0, "n": 802},
                        Ly=2 * math.pi, n_range=[-3, 3],
                        out_dir=str(tmp_path / "o"))
        code, stdout, _ = run_cli(capsys, "verify", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert abs(doc["g_numeric"] - doc["g_analytic"]) <= 1
        assert doc["level"] == 0
        counts = {c["n"]: c["near_zero_count"] for c in doc["channels"]}
        assert counts[0] == 1 and counts[3] == 0


class TestModes2D:
    def test_half_integer_flux(self, tmp_path, capsys):
        profile = {"kind": "box", "B0": 7.0 / 4.0, "a": 2.0,
                   "dimension": "radial-plane"}
        cfg = write_cfg(tmp_path, profile=profile,
                        grid={"x_lo": 0.0, "x_hi": 20.0, "n": 41},
                        j_list=[0, 1, 2, 3], out_dir=str(tmp_path / "o"))
        code, stdout, _ = run_cli(capsys, "modes2d", "--config", cfg)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["N"] == 3
        assert doc["sector"] == "b"
        assert [m["normalizable"] for m in doc["modes"]] == \
            [True, True, True, False]

    def test_line_profile_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE,
                        grid={"x_lo": 0.0, "x_hi": 20.0, "n": 41},
                        j_list=[0])
        code, _, err = run_cli(capsys, "modes2d", "--config", cfg)
        assert code == EXIT_CONFIG

    def test_j_beyond_int64_exact(self, tmp_path, capsys):
        # [0, 2**63] makes a float64 array; the report writes both j exactly
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile={**BOX_PROFILE,
                                           "dimension": "radial-plane"},
                        grid={"x_lo": 0.0, "x_hi": 20.0, "n": 41},
                        j_list=[0, 2 ** 63], out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "modes2d", "--config", cfg)
        assert code == EXIT_OK
        assert [m["j"] for m in json.loads(stdout)["modes"]] == [0, 2 ** 63]
        lines = (out / "modes2d.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in lines[1:]} == {"0",
                                                              str(2 ** 63)}

    def test_golden_bytes(self, tmp_path, capsys):
        # Phi = 7 pi, so N = 3 in sector b; at r = 0 the j = 1 mode has
        # log psi = -inf, an empty cell, and psi = 0
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, profile={"kind": "box", "B0": 1.75, "a": 2.0,
                                           "dimension": "radial-plane"},
                        grid={"x_lo": 0.0, "x_hi": 10.0, "n": 11},
                        j_list=[0, 1], out_dir=str(out))
        code, stdout, _ = run_cli(capsys, "modes2d", "--config", cfg)
        assert code == EXIT_OK
        golden = (
            '{\n'
            '  "N": 3,\n'
            '  "Phi": 2.19911485751e+01,\n'
            '  "flux_over_2pi": 3.50000000000e+00,\n'
            '  "integer_flux": false,\n'
            '  "modes": [\n'
            '    {\n'
            '      "j": 0,\n'
            '      "normalizable": true,\n'
            '      "tail_exponent": -6.00000000000e+00\n'
            '    },\n'
            '    {\n'
            '      "j": 1,\n'
            '      "normalizable": true,\n'
            '      "tail_exponent": -4.00000000000e+00\n'
            '    }\n'
            '  ],\n'
            '  "sector": "b"\n'
            '}\n')
        assert stdout == golden
        assert (out / "modes2d.json").read_text() == golden
        assert (out / "modes2d.csv").read_text() == (
            "j,r,log_psi,psi\n"
            "0,0.00000000000e+00,-6.76015131960e-01,5.08639821905e-01\n"
            "0,1.00000000000e+00,-1.11351513196e+00,3.28402551495e-01\n"
            "0,2.00000000000e+00,-2.42601513196e+00,8.83883476483e-02\n"
            "0,3.00000000000e+00,-3.84514301034e+00,2.13833433033e-02\n"
            "0,4.00000000000e+00,-4.85203026392e+00,7.81250000000e-03\n"
            "0,5.00000000000e+00,-5.63303269352e+00,3.57770876400e-03\n"
            "0,6.00000000000e+00,-6.27115814230e+00,1.89003838178e-03\n"
            "0,7.00000000000e+00,-6.81068552169e+00,1.10193723909e-03\n"
            "0,8.00000000000e+00,-7.27804539588e+00,6.90533966002e-04\n"
            "0,9.00000000000e+00,-7.69028602068e+00,4.57247370828e-04\n"
            "0,1.00000000000e+01,-8.05904782548e+00,3.16227766017e-04\n"
            "1,0.00000000000e+00,,0.00000000000e+00\n"
            "1,1.00000000000e+00,-1.11351513196e+00,3.28402551495e-01\n"
            "1,2.00000000000e+00,-1.73286795140e+00,1.76776695297e-01\n"
            "1,3.00000000000e+00,-2.74653072167e+00,6.41500299100e-02\n"
            "1,4.00000000000e+00,-3.46573590280e+00,3.12500000000e-02\n"
            "1,5.00000000000e+00,-4.02359478109e+00,1.78885438200e-02\n"
            "1,6.00000000000e+00,-4.47939867307e+00,1.13402302907e-02\n"
            "1,7.00000000000e+00,-4.86477537264e+00,7.71356067366e-03\n"
            "1,8.00000000000e+00,-5.19860385420e+00,5.52427172802e-03\n"
            "1,9.00000000000e+00,-5.49306144334e+00,4.11522633745e-03\n"
            "1,1.00000000000e+01,-5.75646273249e+00,3.16227766017e-03\n")

        # the flux is a closed form, so at quadrature_tol 1e-3 this bump's
        # Phi is the default-tolerance Phi bit for bit, and modes2d, count
        # and flux all report it
        profile = {"kind": "bump", "B0": 1.7, "a": 2.1,
                   "dimension": "radial-plane"}
        radial = bump(1.7, 2.1, dimension="radial-plane")
        phi = total_flux(radial).value
        pot = lambda_2d_radial(radial, Grid1D(0.0, 10.0, 21), rtol=1e-3)
        assert pot.flux.value == phi
        reported = []
        for command in ("modes2d", "count", "flux"):
            cfg = write_cfg(tmp_path, f"{command}.json", profile=profile,
                            grid={"x_lo": 0.0, "x_hi": 10.0, "n": 21},
                            j_list=[0], tolerances={"quadrature_tol": 1e-3},
                            out_dir=str(tmp_path / command))
            code, stdout, _ = run_cli(capsys, command, "--config", cfg)
            assert code == EXIT_OK
            reported.append(json.loads(stdout)["Phi"])
        assert reported == [float(f"{phi:.11e}")] * 3


def _counting(calls, name, kernel):
    def counted(*args):
        calls.append((name, args[-1]))   # rtol is the last argument
        return kernel(*args)
    return counted


def test_one_flux_and_one_convolution_per_stage(tmp_path, capsys,
                                                monkeypatch):
    # every stage makes at most one convolution, at the configured
    # quadrature_tol, and no quadrature for its flux: every _moments pass is
    # a convolution's (bump fields, whose flux was once a quadrature)
    calls = []
    for name in ("_moments", "convolve_abs", "convolve_sign",
                 "convolve_log_radial"):
        monkeypatch.setattr(_quadrature, name,
                            _counting(calls, name, getattr(_quadrature, name)))
    line = {"kind": "bump", "B0": 4.0, "a": 2.0}
    radial = dict(line, dimension="radial-plane")
    grid = {"x_lo": -45.0, "x_hi": 45.0, "n": 301}
    stages = {
        "flux": dict(profile=line),
        "potential": dict(profile=line, grid=grid),
        "modes": dict(profile=line, grid=grid, sector="b"),
        "scan": dict(profile=line, grid=grid, sector="b",
                     k_list=[-1.0, 0.0, 2.5, 6.0]),
        "spectrum": dict(profile=line, grid=grid, k_y=0.0),
        "modes2d": dict(profile=radial, j_list=[0, 1, 2, 3],
                        grid={"x_lo": 0.0, "x_hi": 10.0, "n": 41}),
        "count": dict(profile=radial),
        "verify": dict(profile=line, grid=grid, Ly=2 * math.pi),
    }
    for command, cfg in stages.items():
        calls.clear()
        path = write_cfg(tmp_path, f"{command}.json",
                         tolerances={"quadrature_tol": 1e-9},
                         out_dir=str(tmp_path / command), **cfg)
        code, _, err = run_cli(capsys, command, "--config", path)
        assert code == EXIT_OK, (command, err)
        names = [name for name, _ in calls]
        passes = names.count("_moments")
        expected = 0 if command in ("flux", "count") else 1
        assert passes == len(names) - passes == expected, (command, names)
        assert all(rtol == 1e-9 for _, rtol in calls), (command, calls)


class TestNumericalFailureExit:
    def test_unreachable_quadrature_tolerance(self, tmp_path, capsys):
        # only a convolution can miss its tolerance: the potential exits 3
        # with the estimate, the closed-form flux of the same field exits 0
        bump_cfg = {"kind": "bump", "B0": 1.0, "a": 2.0}
        cfg = write_cfg(tmp_path, profile=bump_cfg,
                        grid={"x_lo": -30.0, "x_hi": 30.0, "n": 61},
                        tolerances={"quadrature_tol": 1e-18},
                        out_dir=str(tmp_path / "o"))
        code, _, err = run_cli(capsys, "potential", "--config", cfg)
        assert code == EXIT_NUMERICAL
        assert "tolerance" in err and "achieved error estimate" in err
        code, stdout, _ = run_cli(capsys, "flux", "--config", cfg)
        assert code == EXIT_OK
        assert json.loads(stdout)["Q"] == float(
            f"{total_flux(bump(1.0, 2.0)).value:.11e}")

    @pytest.mark.parametrize("n", [6, 8, 12, 16])
    def test_narrow_field_on_a_coarse_grid_converges(self, tmp_path, capsys,
                                                     n):
        # the first cells' nodes see this field only in its far tails, so
        # a tolerance taken from their int |w B| alone would be ~1e-248
        profile = truncated_gaussian(20.0, 0.05, 8.0)
        cfg = write_cfg(tmp_path, profile={"kind": "truncated-gaussian",
                                           "B0": 20.0, "sigma": 0.05,
                                           "cutoff": 8.0},
                        grid={"x_lo": -40.0, "x_hi": 40.0, "n": n}, k=0.0,
                        out_dir=str(tmp_path / "o"))
        code, _, err = run_cli(capsys, "potential", "--config", cfg)
        assert code == EXIT_OK, err
        grid = Grid1D(-40.0, 40.0, n)
        lam = lambda_1d(profile, 0.0, grid).values
        for x0, mine in zip(grid.points(), lam):
            ref = quad(lambda t: 0.5 * abs(x0 - t) * profile(t), -8.0, 8.0,
                       points=sorted({0.0, float(np.clip(x0, -8.0, 8.0))}),
                       limit=200, epsabs=0.0, epsrel=1e-13)[0]
            assert mine == pytest.approx(ref, rel=1e-12, abs=0.0)
        rows = (tmp_path / "o" / "potential.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [
            float(f"{v:.11e}") for v in lam]

    def test_windowed_eigensolver_failure(self, tmp_path, capsys,
                                          monkeypatch):
        # inverse iteration that reports unconverged vectors (LAPACK
        # info > 0) is a numerical failure of the level-1 sweep and of the
        # spectrum's near-null refinement, not a crash
        def unconverged(d, e, w, iblock, isplit):
            return np.zeros((d.size, w.size)), 1

        monkeypatch.setattr(lapack, "dstein", unconverged)
        cfg = write_cfg(tmp_path, profile=BOX_PROFILE,
                        grid={"x_lo": -32.0, "x_hi": 32.0, "n": 802},
                        Ly=2 * math.pi, n_range=[-3, 3], level=1,
                        B_const=1.0, out_dir=str(tmp_path / "o"))
        code, stdout, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == EXIT_NUMERICAL
        assert stdout == ""
        assert "Traceback" not in err
        assert "numerical failure: dstein failed for channel k_y=" in err
        assert "(m=800, " in err and "values in the window" in err
        cfg = write_cfg(tmp_path, "spectrum.json", profile=BOX_PROFILE,
                        grid={"x_lo": -17.0, "x_hi": 17.0, "n": 402},
                        k_y=0.0, out_dir=str(tmp_path / "s"))
        code, stdout, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == EXIT_NUMERICAL
        assert stdout == ""
        assert "Traceback" not in err
        assert "numerical failure: dstein failed for channel k_y=0.0 " in err
        assert "(m=400, 1 values in the window" in err


class TestReportRoundTrip:
    def test_all_json_reports_parse(self, tmp_path, capsys):
        out = tmp_path / "o"
        base = dict(profile=BOX_PROFILE, grid=GRID, k=0.0, sector="b",
                    k_list=[0.0, 2.5], k_y=0.0, Ly=2 * math.pi,
                    n_range=[-3, 3], j_list=[0], out_dir=str(out))
        for command in ("flux", "potential", "modes", "scan", "spectrum",
                        "count"):
            cfg = write_cfg(tmp_path, f"{command}.json", **base)
            code, stdout, err = run_cli(capsys, command, "--config", cfg)
            assert code == EXIT_OK, (command, err)
            doc = json.loads(stdout)
            assert isinstance(doc, dict)

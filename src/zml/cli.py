"""Config-driven command line: ``zml <stage> --config cfg.json``.

One table, ``_STAGES``, declares each stage (flux, potential, modes, scan,
spectrum, count, verify, modes2d) once: its handler, required config keys
and profile dimension.  ``main`` checks the keys, builds the profile (and
refuses one of the wrong dimension), the grid and the quadrature tolerance
once each, and calls ``handler(cfg, profile, grid, rtol, out)``.  One
argument parser takes the stage as its positional ``command``.  The
library builders take any grid; a stage that needs decayed tails checks
the padding itself, with one ``check_padding`` call.
One JSON config describes one run; unknown keys are rejected with the
offending field named.  Reports are written into the output directory (and
the JSON one echoed to stdout) with fixed number formatting and sorted keys,
so identical configs produce byte-identical outputs.  Each report file is
written as UTF-8 bytes, LF on every platform, in place: a file already there
is overwritten from its start and then cut to the new length, not emptied
first.  The reports are complete only when the command exits 0; a write cut
short can leave a truncated file, or the new report's start followed by the
old one's tail.

Exit codes: 0 success; 2 config/input error (parse failure, bad field,
wrong profile dimension, insufficient grid, non-finite grid or lambda,
non-finite flux, too many channels); 3 numerical failure (quadrature of a
convolution or eigensolver non-convergence, unresolved level clusters), so
never from ``flux`` or ``count``, which take only closed-form fluxes.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ClusterResolutionError, EigenSolveError, GridError,
                     PaddingError, ProfileError, QuadratureError)
from .profiles import (DEFAULT_RTOL, DIM_LINE, DIM_RADIAL, Grid1D,
                       make_profile, total_flux)
from .potential import check_padding, lambda_1d, lambda_2d_radial
from .reduction import ReductionConfig, admissible_channels, verify_degeneracy
from .reports import Table, csv_text, json_report, line_plot_svg
from .spectral import build_operator, eigen_spectrum
from .zeromodes import (SECTOR_A, SECTOR_B, build_mode_1d, build_mode_2d,
                        count_2d_zero_modes, scan_k)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Config file problem; the message names the offending field."""


_TOP_KEYS = {
    "profile": "profile",
    "grid": "grid",
    "k": "num",
    "sector": "str",
    "k_list": "numlist",
    "k_y": "num",
    "Ly": "num",
    "n_range": "intpair",
    "k_gauge": "num",
    "B_const": "num",
    "L_x": "num",   # accepted and unused: the profile gives the width
    "level": "nonneg_int",
    "j_list": "intlist",
    "tolerances": "tolerances",
    "out_dir": "str",
}
_PROFILE_KEYS = {
    "kind": "str",
    "dimension": "str",
    "B0": "num",
    "a": "num",
    "sigma": "num",
    "cutoff": "num",
    "points": "pointlist",
}
_GRID_KEYS = {"x_lo": "num", "x_hi": "num", "n": "int"}
_TOL_KEYS = {"quadrature_tol": "positive", "zero_tol": "positive",
             "cluster_tol": "positive"}


def _all_finite(values):
    """Every value is an int or float (not a bool) and finite as a float.

    One type pass and one ``np.isfinite``: json.loads accepts NaN and
    Infinity, and an integer too large for a float is no more usable.
    """
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return bool(np.isfinite(np.array(values, dtype=float)).all())
    except OverflowError:
        return False


def _all_ints(values, path):
    """Every value is an int (not a bool) that a float can hold.

    Ints that a float cannot hold are refused here, with their own message.
    """
    if set(map(type, values)) != {int}:
        return False
    if not _all_finite(values):
        raise ConfigError(f"{path} holds an integer too large for a float")
    return True


def _check(value, kind, path):
    if kind == "num":
        if not _all_finite([value]):
            raise ConfigError(f"{path} must be a finite number")
    elif kind == "positive":
        if not (_all_finite([value]) and value > 0):
            raise ConfigError(f"{path} must be a finite number > 0")
    elif kind in ("int", "nonneg_int"):
        if not _all_ints([value], path):
            raise ConfigError(f"{path} must be an integer")
        if kind == "nonneg_int" and value < 0:
            raise ConfigError(f"{path} must be >= 0")
    elif kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string")
    elif kind == "numlist":
        if not (isinstance(value, list) and value and _all_finite(value)):
            raise ConfigError(f"{path} must be a non-empty list of finite "
                              "numbers")
    elif kind == "intlist":
        if not (isinstance(value, list) and value and _all_ints(value, path)):
            raise ConfigError(f"{path} must be a non-empty list of integers")
    elif kind == "intpair":
        if not (isinstance(value, list) and len(value) == 2
                and _all_ints(value, path)):
            raise ConfigError(f"{path} must be a pair [n_lo, n_hi] of integers")
    elif kind == "pointlist":
        ok = (isinstance(value, list) and value
              and all(isinstance(p, list) and len(p) == 2 for p in value)
              and _all_finite([c for p in value for c in p]))
        if not ok:
            raise ConfigError(f"{path} must be a non-empty list of [x, B] pairs")
    elif kind in ("profile", "grid", "tolerances"):
        schema = {"profile": _PROFILE_KEYS, "grid": _GRID_KEYS,
                  "tolerances": _TOL_KEYS}[kind]
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object")
        for key, sub in value.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {path}.{key}")
            _check(sub, schema[key], f"{path}.{key}")
    else:  # pragma: no cover - schema typo guard
        raise AssertionError(kind)


def load_config(path):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # bytes, not text: json.loads decodes them as JSON text is encoded
    # (UTF-8, RFC 8259), whatever the locale
    try:
        cfg = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8: byte "
                          f"{exc.start}: {exc.reason}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key, value in cfg.items():
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key}")
        _check(value, _TOP_KEYS[key], key)
    return cfg


def _build_profile(cfg):
    spec = dict(cfg["profile"])
    if "kind" not in spec:
        raise ConfigError("profile.kind is required")
    kind = spec.pop("kind")
    dimension = spec.pop("dimension", DIM_LINE)
    try:
        return make_profile(kind, dimension, **spec)
    except ProfileError as exc:
        raise ConfigError(f"profile: {exc}") from exc


def _build_grid(cfg):
    g = cfg["grid"]
    for key in _GRID_KEYS:
        if key not in g:
            raise ConfigError(f"grid.{key} is required")
    try:
        return Grid1D(x_lo=g["x_lo"], x_hi=g["x_hi"], n=g["n"])
    except GridError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _tol(cfg, name):
    return cfg.get("tolerances", {}).get(name)


def _sector(cfg):
    label = cfg["sector"]
    if label == "a":
        return SECTOR_A
    if label == "b":
        return SECTOR_B
    raise ConfigError(f"sector must be 'a' or 'b', got {label!r}")


def _reduction_config(cfg):
    n_range = cfg.get("n_range")
    try:
        return ReductionConfig(L_y=cfg["Ly"], k_gauge=cfg.get("k_gauge", 0.0),
                               n_range=tuple(n_range) if n_range else None,
                               B_const=cfg.get("B_const"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _plane_count_json(flux):
    """Plane count N = integer part of |Phi|/2pi, in one spin sector."""
    count = count_2d_zero_modes(flux)
    return {"Phi": flux.value, "N": count.n_modes,
            "sector": count.sector.label, "flux_over_2pi": count.flux_over_2pi,
            "integer_flux": count.integer_flux}


def _degeneracy_json(rep):
    ch = rep.channels
    columns = {"ky" if name == "k_y" else name: ch[name]
               for name in ch.dtype.names}
    # count solves no spectrum, yet each of its rows carries the key: NaN is
    # written null
    columns.setdefault("near_zero_count", np.full(len(ch), np.nan))
    return {"Q": rep.Q, "Ly": rep.L_y, "g_analytic_real": rep.g_analytic_real,
            "g_analytic": rep.g_analytic, "channels": Table(columns),
            "g_numeric": rep.g_numeric, "discrepancy": rep.discrepancy}


def _overwrite(path, text):
    """Write text to path as UTF-8 bytes, over any file already there.

    Opened with ``open(path, "w")``'s flags and mode less ``O_TRUNC``:
    emptying an existing file costs more than writing it again.  The file
    is cut at the end of the new bytes, so a shorter report leaves no tail
    of the old one.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


class _Out:
    """Collects the report files of one run and writes them at the end."""

    def __init__(self, out_dir, plots):
        self.dir = Path(out_dir)
        self.plots = plots
        self.files = {}
        self.report_text = ""

    def json(self, name, obj):
        self.report_text = json_report(obj)
        self.files[name] = self.report_text

    def csv(self, name, table):
        self.files[name] = csv_text(table)

    def svg(self, name, xs, ys, xlabel, ylabel):
        if self.plots:
            self.files[name] = line_plot_svg(xs, ys, xlabel, ylabel)

    def flush(self):
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            for name, text in self.files.items():
                _overwrite(self.dir / name, text)
        except OSError as exc:
            raise ConfigError(f"cannot write reports to {self.dir}: "
                              f"{exc.strerror or exc}") from exc
        sys.stdout.write(self.report_text)


def cmd_flux(cfg, profile, grid, rtol, out):
    flux = total_flux(profile)
    out.json("flux.json", {"Phi" if profile.is_radial else "Q": flux.value,
                           "method": flux.method})


def cmd_potential(cfg, profile, grid, rtol, out):
    if profile.is_radial:
        if cfg.get("k", 0.0) != 0.0:
            raise ConfigError("k must be 0 (or absent) for radial potentials: "
                              "linear terms destroy plane normalizability")
        pot = lambda_2d_radial(profile, grid, rtol=rtol)
        out.json("potential.json", {
            "Phi": pot.flux.value, "flux_method": pot.flux.method,
            "log_coefficient": pot.log_coefficient,
        })
        axis = "r"
    else:
        k = cfg.get("k", 0.0)
        pot = lambda_1d(profile, k, grid, rtol=rtol)
        check_padding(profile, k, grid)
        out.json("potential.json", {
            "Q": pot.flux.value, "flux_method": pot.flux.method,
            "k": pot.k, "slope_left": pot.slope_left,
            "slope_right": pot.slope_right,
        })
        axis = "x"
    x = grid.points()
    out.csv("potential.csv", Table({axis: x, "lambda": pot.values}))
    out.svg("potential.svg", x, pot.values, axis, "lambda")


def cmd_modes(cfg, profile, grid, rtol, out):
    sector = _sector(cfg)
    k = cfg.get("k", 0.0)
    mode = build_mode_1d(lambda_1d(profile, k, grid, rtol=rtol), sector)
    if mode.normalizable:
        # the padding rule protects decaying tails; a mode this sector
        # cannot normalize has none
        check_padding(profile, k, grid)
    out.json("modes.json", {
        "Q": mode.flux.value, "sector": sector.label, "k": mode.k,
        "normalizable": mode.normalizable,
        "l2_norm": mode.l2_norm,
    })
    x = grid.points()
    out.csv("modes.csv", Table({"x": x, "log_psi": mode.log_values,
                                "psi": mode.values}))
    out.svg("modes.svg", x, mode.log_values, "x", "log_psi")


def cmd_scan(cfg, profile, grid, rtol, out):
    sector = _sector(cfg)
    base = lambda_1d(profile, 0.0, grid, rtol=rtol)
    entries = scan_k(base, sector, cfg["k_list"])
    # one table, formatted once for both files
    table = Table({"k": entries.k, "normalizable": entries.normalizable,
                   "l2_norm": entries.l2_norm})
    out.json("scan.json", {"Q": base.flux.value, "sector": sector.label,
                           "entries": table})
    out.csv("scan.csv", table)


def cmd_spectrum(cfg, profile, grid, rtol, out):
    op = build_operator(profile, cfg["k_y"], grid, rtol=rtol)
    check_padding(profile, cfg["k_y"], grid)
    tau = _tol(cfg, "zero_tol")
    if tau is None and np.isinf(op.gap):
        raise ConfigError("a field-free channel has no Landau scale to "
                          "set tau from; set tolerances.zero_tol")
    spec = eigen_spectrum(op, tau=tau)
    out.json("spectrum.json", {
        "ky": op.k_y, "tau": spec.zero_tolerance,
        "near_zero_count": spec.near_zero_count,
        "n_interior": op.size,
    })
    m = len(spec.eigenvalues)
    out.csv("spectrum.csv", Table({"channel_ky": np.full(m, op.k_y),
                                   "index": np.arange(m),
                                   "eigenvalue": spec.eigenvalues}))


def cmd_count(cfg, profile, grid, rtol, out):
    if profile.is_radial:
        out.json("count.json", _plane_count_json(total_flux(profile)))
        return
    if "Ly" not in cfg:
        raise ConfigError("'count' on a line profile requires config key Ly")
    rep = admissible_channels(profile, _reduction_config(cfg))
    out.json("count.json", _degeneracy_json(rep))


def cmd_verify(cfg, profile, grid, rtol, out):
    rep = verify_degeneracy(profile, _reduction_config(cfg),
                            cfg.get("level", 0), grid,
                            zero_tol=_tol(cfg, "zero_tol"),
                            cluster_tol=_tol(cfg, "cluster_tol"), rtol=rtol)
    doc = _degeneracy_json(rep)
    doc["level"] = rep.level
    doc["tau"] = rep.tau
    if rep.cluster_center is not None:
        doc["cluster_center"] = rep.cluster_center
    out.json("verify.json", doc)


def cmd_modes2d(cfg, profile, grid, rtol, out):
    for j in cfg["j_list"]:
        if j < 0:
            raise ConfigError(f"j_list entries must be >= 0, got {j}")
    # one potential, one flux and one convolution, for every j
    pot = lambda_2d_radial(profile, grid, rtol=rtol)
    modes = [build_mode_2d(pot, j) for j in cfg["j_list"]]
    # Python ints in an object column: every j stays exact, even past int64
    js = np.array([m.j for m in modes], dtype=object)
    out.json("modes2d.json", {
        **_plane_count_json(pot.flux),
        "modes": Table({"j": js,
                        "tail_exponent": [m.tail_exponent for m in modes],
                        "normalizable": [m.normalizable for m in modes]}),
    })
    r = grid.points()
    out.csv("modes2d.csv", Table({
        "j": np.repeat(js, len(r)),
        "r": np.tile(r, len(modes)),
        "log_psi": np.concatenate([m.log_values for m in modes]),
        "psi": np.concatenate([m.values for m in modes]),
    }))


# stage -> (handler, required config keys, profile dimension or None: any)
_STAGES = {
    "flux": (cmd_flux, ("profile",), None),
    "potential": (cmd_potential, ("profile", "grid"), None),
    "modes": (cmd_modes, ("profile", "grid", "sector"), DIM_LINE),
    "scan": (cmd_scan, ("profile", "grid", "sector", "k_list"), DIM_LINE),
    "spectrum": (cmd_spectrum, ("profile", "grid", "k_y"), DIM_LINE),
    "count": (cmd_count, ("profile",), None),
    "verify": (cmd_verify, ("profile", "grid", "Ly"), DIM_LINE),
    "modes2d": (cmd_modes2d, ("profile", "grid", "j_list"), DIM_RADIAL),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zml",
        description="Zero modes of the two-component operator in compactly "
                    "supported fields: potentials, admissibility, spectra, "
                    "degeneracy counts.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=list(_STAGES), help="stage to run")
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=None, help="output directory "
                        "(default: config out_dir or '.')")
    parser.add_argument("--plots", action="store_true",
                        help="also write SVG line plots")
    return parser


# built once: parsing leaves no state in it
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    stage = args.command
    handler, required, dimension = _STAGES[stage]
    try:
        cfg = load_config(args.config)
        for key in required:
            if key not in cfg:
                raise ConfigError(f"'{stage}' requires config key {key}")
        profile = _build_profile(cfg)
        if dimension not in (None, profile.dimension):
            raise ConfigError(f"'{stage}' needs a {dimension} profile")
        grid = _build_grid(cfg) if "grid" in required else None
        rtol = _tol(cfg, "quadrature_tol") or DEFAULT_RTOL
        out = _Out(args.out or cfg.get("out_dir", "."), args.plots)
        handler(cfg, profile, grid, rtol, out)
        out.flush()
    except (ConfigError, ProfileError, GridError, PaddingError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, EigenSolveError, ClusterResolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

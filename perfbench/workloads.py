"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is a list of jobs.  A job is one ``zml`` CLI run: a
subcommand, a JSON config and the arguments a user would pass.  The seed
fixes every input, so one seed always gives the same jobs.  Each job also
carries what a correct run must report, and ``check`` compares the report
files of a run against it.

The tolerances come from the acceptance suite (``tests/test_acceptance.py``)
and are never tighter:

- the constant-field ``g = 10`` sweep: ``g_analytic == 10`` and
  ``g_numeric`` in [9, 11] at both levels (criteria 6 and 8);
- exterior potentials of line fields: lambda_k = Q|x|/2 + k x to a relative
  1e-8 (criterion 1);
- channel counts chosen like criterion 10: a channel strictly inside the
  window (by 5 tau) holds one near-zero mode, one strictly outside holds none.

Only the public CLI and report formats are used, so the generators and the
checks survive a rewrite of the numerical kernels.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

WORKLOADS = ("landau-sweep", "smooth-potentials", "channel-counts")

# stage each subcommand's time is summed into; count and flux take
# milliseconds and only count toward the pass wall time
STAGES = ("potential", "modes", "scan", "modes2d", "spectrum", "verify0",
          "verify1")

# padding rule of zml.potential.required_padding, restated so that the
# generators do not depend on the module they measure
PADDING_DECAY = 30.0
PADDING_FLOOR = 5.0

# criterion 10 keeps counted channels 5 tau away from the window edge
EDGE_LAYER_TAUS = 5.0
# admissible sweep channels stay this far inside the window (padding is
# then at most 30 / 0.6 = 50), the others this far outside it
SWEEP_INSIDE_MARGIN = 0.6
SWEEP_OUTSIDE_MARGIN = 0.3

LINE_RTOL = 1e-8


@dataclass
class Job:
    """One CLI run and what its reports must say."""

    label: str
    command: str
    config: dict
    plots: bool = False
    expect: dict = field(default_factory=dict)

    @property
    def stage(self):
        """Stage metric this job's time is summed into, or None."""
        if self.command == "verify":
            return f"verify{self.config.get('level', 0)}"
        return self.command if self.command in STAGES else None


def required_padding(q, k):
    half = 0.5 * abs(q)
    if half > 0.0 and abs(k) < half:
        return max(PADDING_FLOOR, PADDING_DECAY / (half - abs(k)))
    return PADDING_FLOOR


# --- flux oracles (independent of zml's quadrature) --------------------------

def _gauss_legendre(f, lo, hi, panels=64, order=20):
    """Composite Gauss-Legendre rule; the bump is C-infinity, so it converges
    to rounding well before 64 x 20 nodes."""
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return float(np.sum(half * w * f(mid + half * t)))


def _bump_shape(u):
    inside = np.abs(u) < 1.0
    out = np.zeros_like(u)
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def bump_flux(b0, a, radial=False):
    """Q = int B dx on the line, Phi = 2 pi int B r dr in the plane."""
    if radial:
        return TWO_PI * b0 * a * a * _gauss_legendre(
            lambda u: _bump_shape(u) * u, 0.0, 1.0)
    return b0 * a * _gauss_legendre(_bump_shape, -1.0, 1.0)


def gaussian_flux(b0, sigma, cutoff, radial=False):
    tail = math.exp(-cutoff * cutoff / (2.0 * sigma * sigma))
    if radial:
        return TWO_PI * b0 * (sigma * sigma * (1.0 - tail)
                              - 0.5 * cutoff * cutoff * tail)
    return b0 * (sigma * math.sqrt(TWO_PI)
                 * math.erf(cutoff / (sigma * math.sqrt(2.0)))
                 - 2.0 * cutoff * tail)


def piecewise_flux(points):
    return sum(0.5 * (v0 + v1) * (x1 - x0)
               for (x0, v0), (x1, v1) in zip(points, points[1:]))


def line_grid(half_width, q, k, n):
    """Symmetric grid that meets the padding rule for the mode at k."""
    extent = half_width + required_padding(q, k) + 1.0
    return {"x_lo": -extent, "x_hi": extent, "n": n}


# --- landau-sweep -------------------------------------------------------------

# The acceptance g = 10 sweep (criteria 6-8) on a coarser grid: n = 1002
# instead of 3002.  At m = 3000 one windowed eigensolve takes ~5 s and the
# level-1 sweep ~70 s, which does not fit a measured run; at m = 1000 the
# sweep keeps its structure (13 windowed solves, 17 full spectra) and its
# counts (g_numeric = 9 at both levels, as at n = 3002).
LANDAU_GRID = {"x_lo": -35.0, "x_hi": 35.0, "n": 1002}


def landau_sweep(seed):
    """Pinned inputs: the seed does not change them."""
    del seed
    base = {"profile": {"kind": "box", "B0": 1.0, "a": 5.0}, "Ly": TWO_PI,
            "n_range": [-8, 8], "B_const": 1.0, "L_x": 10.0}
    expect = {"g_analytic": 10, "g_numeric_range": [9, 11]}
    return [
        Job("count", "count", dict(base), expect={"g_analytic": 10}),
        Job("verify-level0", "verify",
            {**base, "grid": dict(LANDAU_GRID), "level": 0}, expect=expect),
        Job("verify-level1", "verify",
            {**base, "grid": dict(LANDAU_GRID), "level": 1}, expect=expect),
    ]


# --- smooth-potentials --------------------------------------------------------

SMOOTH_LINE_POINTS = 121
SMOOTH_RADIAL_POINTS = 121
MODES2D_POINTS = 61
SCAN_K_VALUES = 10000
# scan k values keep this relative distance from the window edges, far above
# the 12-digit rounding of the reported flux
SCAN_EDGE_GAP = 1e-6


def smooth_potentials(seed):
    rng = np.random.default_rng(seed)

    def bump_params():
        return float(rng.uniform(1.5, 2.5)), float(rng.uniform(1.5, 2.5))

    def gauss_params():
        sigma = float(rng.uniform(0.8, 1.2))
        return (float(rng.uniform(0.8, 1.2)), sigma,
                sigma * float(rng.uniform(2.8, 3.2)))

    jobs = []

    # potential of a line bump at a k inside the window, with a plot
    b0, a = bump_params()
    q = bump_flux(b0, a)
    k = 0.5 * q * float(rng.uniform(-0.5, 0.5))
    bump_line = {"kind": "bump", "B0": b0, "a": a}
    jobs.append(Job("potential-line-bump", "potential",
                    {"profile": bump_line, "k": k,
                     "grid": line_grid(a, q, k, SMOOTH_LINE_POINTS)},
                    plots=True, expect={"Q": q, "k": k, "support": a}))

    # radial potential of a truncated gaussian
    b0, sigma, cut = gauss_params()
    phi = gaussian_flux(b0, sigma, cut, radial=True)
    jobs.append(Job("potential-radial-gaussian", "potential",
                    {"profile": {"kind": "truncated-gaussian",
                                 "dimension": "radial-plane", "B0": b0,
                                 "sigma": sigma, "cutoff": cut},
                     "grid": {"x_lo": 0.0, "x_hi": 3.0 * cut,
                              "n": SMOOTH_RADIAL_POINTS}},
                    plots=True, expect={"Phi": phi, "support": cut}))

    # normalizable b mode of a line gaussian
    b0, sigma, cut = gauss_params()
    q = gaussian_flux(b0, sigma, cut)
    k = 0.5 * q * float(rng.uniform(-0.5, 0.5))
    jobs.append(Job("modes-line-gaussian", "modes",
                    {"profile": {"kind": "truncated-gaussian", "B0": b0,
                                 "sigma": sigma, "cutoff": cut},
                     "sector": "b", "k": k,
                     "grid": line_grid(cut, q, k, SMOOTH_LINE_POINTS)},
                    plots=True, expect={"Q": q, "k": k, "support": cut}))

    # k scan across and beyond the window of a second line bump
    b0, a = bump_params()
    q = bump_flux(b0, a)
    ks = q * rng.uniform(-0.75, 0.75, SCAN_K_VALUES)
    edge = np.abs(np.abs(ks) - 0.5 * q) < SCAN_EDGE_GAP * q
    ks[edge] = 0.0
    jobs.append(Job("scan-line-bump", "scan",
                    {"profile": {"kind": "bump", "B0": b0, "a": a},
                     "sector": "b", "k_list": [float(v) for v in ks],
                     "grid": line_grid(a, q, 0.0, SMOOTH_LINE_POINTS)},
                    expect={"Q": q}))

    # plane modes j = 0..3 of a radial bump with |Phi|/2pi in (2.2, 2.8) or
    # (3.2, 3.8): N = 2 or 3, away from the integer-flux boundary
    _, a = bump_params()
    ratio = float(rng.choice([2.0, 3.0]) + rng.uniform(0.2, 0.8))
    b0 = ratio * TWO_PI / bump_flux(1.0, a, radial=True)
    jobs.append(Job("modes2d-radial-bump", "modes2d",
                    {"profile": {"kind": "bump", "dimension": "radial-plane",
                                 "B0": b0, "a": a},
                     "j_list": [0, 1, 2, 3],
                     "grid": {"x_lo": 0.0, "x_hi": 10.0 * a,
                              "n": MODES2D_POINTS}},
                    expect={"N": int(math.floor(ratio))}))

    # flux of the first bump: no closed form, so zml integrates it
    jobs.append(Job("flux-line-bump", "flux", {"profile": bump_line},
                    expect={"Q": bump_flux(bump_line["B0"], bump_line["a"])}))
    return jobs


# --- channel-counts -----------------------------------------------------------

SWEEP_COUNT = 2
SWEEP_CHANNELS = (-6, 6)
SWEEP_POINTS = 1502
BANDED_SPECTRA = 3
BANDED_POINTS = 3002        # m = 3000, the banded path
DENSE_SPECTRA = 3
DENSE_MAX_INTERIOR = 300    # the CLI's "auto" picks the dense path here


def sweep_margins_ok(q, l_y, n_range=SWEEP_CHANNELS):
    """Every channel k_y = 2 pi n / L_y sits >= 0.6 inside the window of
    half-width |Q|/2 or >= 0.3 outside it."""
    half = 0.5 * abs(q)
    for n in range(n_range[0], n_range[1] + 1):
        d = half - abs(TWO_PI * n / l_y)
        if -SWEEP_OUTSIDE_MARGIN < d < SWEEP_INSIDE_MARGIN:
            return False
    # the channel range must cover the whole window
    return half < TWO_PI * n_range[1] / l_y - SWEEP_OUTSIDE_MARGIN


def criterion10_channel(rng):
    """One (profile, k_eff, expected count) draw as in acceptance criterion 10,
    with box fields only: a truncated gaussian's A_y costs a quadrature per
    grid point, which this counts-only workload avoids."""
    b0 = float(rng.uniform(0.7, 1.4)) * (1.0 if rng.random() < 0.5 else -1.0)
    a = float(rng.uniform(0.8, 2.0))
    q = 2.0 * a * b0
    tau = 0.1 * math.sqrt(2.0 * abs(b0))
    layer = EDGE_LAYER_TAUS * tau
    half = 0.5 * abs(q)
    if half - layer > 0.1 and rng.random() < 0.6:
        k_eff = float(rng.uniform(-(half - layer), half - layer))
        expected = 1
    else:
        k_eff = float(rng.uniform(half + layer, half + layer + 1.0)) * \
            (1.0 if rng.random() < 0.5 else -1.0)
        expected = 0
    pad = required_padding(q, k_eff) + 1.0
    s_max = abs(k_eff) + half
    h_max = min(0.25 / max(s_max, 1.0), 0.1)
    return {"kind": "box", "B0": b0, "a": a}, k_eff, expected, a + pad, h_max


def channel_counts(seed):
    rng = np.random.default_rng(seed)
    jobs = []

    # a positive piecewise-linear field: zero at both ends, 3-5 interior nodes
    inner = int(rng.integers(3, 6))
    xs = np.sort(rng.uniform(-4.0, 4.0, inner))
    xs = [-5.0, *[float(v) for v in xs], 5.0]
    vals = [0.0, *[float(v) for v in rng.uniform(0.6, 1.4, inner)], 0.0]
    points = [[x, v] for x, v in zip(xs, vals)]
    q = piecewise_flux(points)
    l_ys = []
    while len(l_ys) < SWEEP_COUNT:
        l_y = float(rng.uniform(3.0, 7.0))
        if sweep_margins_ok(q, l_y):
            l_ys.append(l_y)
    for i, l_y in enumerate(sorted(l_ys)):
        kys = [TWO_PI * n / l_y
               for n in range(SWEEP_CHANNELS[0], SWEEP_CHANNELS[1] + 1)]
        pad = max([required_padding(q, k) for k in kys] + [PADDING_FLOOR])
        extent = 5.0 + pad + 1.0
        jobs.append(Job(f"verify-level0-sweep{i}", "verify",
                        {"profile": {"kind": "piecewise-linear",
                                     "points": points},
                         "Ly": l_y, "n_range": list(SWEEP_CHANNELS),
                         "level": 0,
                         "grid": {"x_lo": -extent, "x_hi": extent,
                                  "n": SWEEP_POINTS}},
                        expect={"g_tolerance": 1}))

    jobs += spectrum_jobs(rng, "banded", BANDED_SPECTRA, _banded_points)
    jobs += spectrum_jobs(rng, "dense", DENSE_SPECTRA, _dense_points)
    return jobs


def _banded_points(extent, h_max):
    """m = 3000 when that spacing meets criterion 10's h bound, else None."""
    return BANDED_POINTS if 2.0 * extent / (BANDED_POINTS - 1) <= h_max \
        else None


def _dense_points(extent, h_max):
    """Criterion 10's grid when it has at most 300 interior points, else None."""
    n = int(math.ceil(2.0 * extent / h_max)) + 1
    return n if n - 2 <= DENSE_MAX_INTERIOR else None


def spectrum_jobs(rng, kind, count, grid_points):
    """``count`` spectrum jobs on criterion-10 channels whose grid
    ``grid_points(extent, h_max)`` accepts."""
    jobs = []
    while len(jobs) < count:
        profile, k_eff, expected, extent, h_max = criterion10_channel(rng)
        n = grid_points(extent, h_max)
        if n is not None:
            jobs.append(Job(f"spectrum-{kind}{len(jobs)}", "spectrum",
                            {"profile": profile, "k_y": k_eff,
                             "grid": {"x_lo": -extent, "x_hi": extent,
                                      "n": n}},
                            expect={"near_zero_count": expected}))
    return jobs


GENERATORS = {
    "landau-sweep": landau_sweep,
    "smooth-potentials": smooth_potentials,
    "channel-counts": channel_counts,
}


def generate(workload, seed):
    """The workload's job list for this seed."""
    return GENERATORS[workload](seed)


# --- checks -------------------------------------------------------------------

def _read_json(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


def _read_csv(out_dir, name):
    with open(out_dir / name, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _exterior_line_error(xs, lam, q, k, support):
    """Largest relative error of lambda_k = Q|x|/2 + k x outside the support."""
    x = np.asarray(xs)
    out = np.abs(x) >= support
    exact = 0.5 * q * np.abs(x[out]) + k * x[out]
    return float(np.max(np.abs(np.asarray(lam)[out] - exact) / np.abs(exact)))


def check(job, out_dir):
    """Problems found in a job's report files (empty when correct) and the
    facts worth recording, such as g_numeric."""
    e = job.expect
    problems = []
    facts = {}
    cmd = job.command
    if cmd == "count":
        rep = _read_json(out_dir, "count.json")
        facts["g_analytic"] = rep["g_analytic"]
        if rep["g_analytic"] != e["g_analytic"]:
            problems.append(f"g_analytic {rep['g_analytic']} != "
                            f"{e['g_analytic']}")
    elif cmd == "verify":
        rep = _read_json(out_dir, "verify.json")
        g_num, g_an = rep["g_numeric"], rep["g_analytic"]
        facts.update(g_analytic=g_an, g_numeric=g_num,
                     discrepancy=rep["discrepancy"])
        if "g_analytic" in e and g_an != e["g_analytic"]:
            problems.append(f"g_analytic {g_an} != {e['g_analytic']}")
        if "g_numeric_range" in e:
            lo, hi = e["g_numeric_range"]
            if not lo <= g_num <= hi:
                problems.append(f"g_numeric {g_num} outside [{lo}, {hi}]")
        if "g_tolerance" in e and abs(g_num - g_an) > e["g_tolerance"]:
            problems.append(f"g_numeric {g_num} vs g_analytic {g_an}")
    elif cmd == "potential" and "Q" in e:
        _, rows = _read_csv(out_dir, "potential.csv")
        xs, lam = zip(*[(float(r[0]), float(r[1])) for r in rows])
        err = _exterior_line_error(xs, lam, e["Q"], e["k"], e["support"])
        facts["exterior_rel_err"] = err
        if not err <= LINE_RTOL:
            problems.append(f"exterior lambda rel err {err:.2e}")
    elif cmd == "potential":
        _, rows = _read_csv(out_dir, "potential.csv")
        r = np.array([float(row[0]) for row in rows])
        lam = np.array([float(row[1]) for row in rows])
        coef = e["Phi"] / TWO_PI
        out = r >= e["support"]
        exact = coef * np.log(r[out])
        scale = np.maximum(np.abs(exact), abs(coef))
        err = float(np.max(np.abs(lam[out] - exact) / scale))
        facts["exterior_rel_err"] = err
        if not err <= LINE_RTOL:
            problems.append(f"exterior radial lambda rel err {err:.2e}")
    elif cmd == "modes":
        rep = _read_json(out_dir, "modes.json")
        if rep["normalizable"] is not True:
            problems.append("mode inside the window is not normalizable")
        _, rows = _read_csv(out_dir, "modes.csv")
        xs, logs = zip(*[(float(r[0]), -float(r[1])) for r in rows])
        err = _exterior_line_error(xs, logs, e["Q"], e["k"], e["support"])
        facts["exterior_rel_err"] = err
        if not err <= LINE_RTOL:
            problems.append(f"exterior log_psi rel err {err:.2e}")
    elif cmd == "scan":
        rep = _read_json(out_dir, "scan.json")
        half = 0.5 * e["Q"]
        wrong = sum(ent["normalizable"] != (-half < ent["k"] < half)
                    for ent in rep["entries"])
        facts["k_values"] = len(rep["entries"])
        if wrong or len(rep["entries"]) != len(job.config["k_list"]):
            problems.append(f"{wrong} scan verdicts differ from the window")
    elif cmd == "modes2d":
        rep = _read_json(out_dir, "modes2d.json")
        n = e["N"]
        facts["N"] = rep["N"]
        if rep["N"] != n:
            problems.append(f"N {rep['N']} != {n}")
        for m in rep["modes"]:
            if m["normalizable"] != (m["j"] < n):
                problems.append(f"j={m['j']} verdict {m['normalizable']}")
    elif cmd == "flux":
        rep = _read_json(out_dir, "flux.json")
        err = abs(rep["Q"] - e["Q"]) / abs(e["Q"])
        facts["flux_rel_err"] = err
        if not err <= LINE_RTOL:
            problems.append(f"flux rel err {err:.2e}")
    elif cmd == "spectrum":
        rep = _read_json(out_dir, "spectrum.json")
        facts["near_zero_count"] = rep["near_zero_count"]
        if rep["near_zero_count"] != e["near_zero_count"]:
            problems.append(f"near_zero_count {rep['near_zero_count']} != "
                            f"{e['near_zero_count']}")
    return problems, facts

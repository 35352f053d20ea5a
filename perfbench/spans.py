"""In-memory spans around zml's public functions, and the layer metrics
computed from them.

A traced pass replaces each public function listed in ``TARGETS`` by a
wrapper wherever a zml module binds it (``zml.cli`` imports most of them by
name), so every call records a span: name, start, end, parent and job.  The
wrappers are removed after the pass.  A function that no longer exists is
skipped, and its layer reports zero calls.

Self time is a span's duration minus the part of it that its child spans
cover, so the self times of one job's spans add up to the job's root span.
"""

import hashlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 for a job's root
    job: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


class Tracer:
    """Records spans of the calls made while it is installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.job = -1

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, counter=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = counter(bound.arguments, result)
                except (TypeError, AttributeError, KeyError, IndexError):
                    span.counts = {}   # a changed signature loses counts only
            return result

        traced.__wrapped__ = fn
        return traced


# --- counters: what each call did, from its arguments and result ------------

def _profile_key(profile):
    return (profile.kind, profile.dimension, tuple(profile.kernel_params))


def _grid_key(grid):
    return (grid.x_lo, grid.x_hi, grid.n)


def _count_lambda_1d(a, result):
    # the convolution does not depend on k: lambda_k = lambda_0 + k x
    return {"points": a["grid"].n,
            "conv": ("abs", _profile_key(a["profile"]), _grid_key(a["grid"]))}


def _count_lambda_2d(a, result):
    return {"points": a["grid"].n,
            "conv": ("log", _profile_key(a["profile"]), _grid_key(a["grid"]))}


def _count_vector_potential(a, result):
    xs = np.ascontiguousarray(a["xs"], dtype=float)
    digest = hashlib.sha1(xs.tobytes()).hexdigest()
    return {"points": xs.size,
            "conv": ("sign", _profile_key(a["profile"]), digest)}


def _count_eigen(a, result):
    vals = np.asarray(result.eigenvalues)
    return {"rows": a["op"].size, "eigenvalues": vals.size,
            "inside": int(np.sum(np.abs(vals) < result.zero_tolerance))}


def _count_windowed(a, result):
    m = a["op"].size
    return {"vectors": int(result[1].shape[1]), "q_bytes": 8 * m * m}


def _count_scan(a, result):
    return {"modes": len(result)}


def _count_one_mode(a, result):
    return {"modes": 1}


def _count_verify(a, result):
    return {"channels": len(result.channels)}


# (module, function, counter); the span is named "<layer>.<function>"
TARGETS = (
    ("zml.profiles", "total_flux", None),
    ("zml.potential", "lambda_1d", _count_lambda_1d),
    ("zml.potential", "lambda_2d_radial", _count_lambda_2d),
    ("zml.potential", "vector_potential_y", _count_vector_potential),
    ("zml.zeromodes", "build_mode_1d", _count_one_mode),
    ("zml.zeromodes", "scan_k", _count_scan),
    ("zml.zeromodes", "build_mode_2d", _count_one_mode),
    ("zml.spectral", "build_operator", None),
    ("zml.spectral", "eigen_spectrum", _count_eigen),
    ("zml.spectral", "windowed_singular_modes", _count_windowed),
    ("zml.reduction", "verify_degeneracy", _count_verify),
    ("zml.reports", "json_report", None),
    ("zml.reports", "csv_text", None),
    ("zml.reports", "line_plot_svg", None),
)

POTENTIAL_FUNCS = ("lambda_1d", "lambda_2d_radial", "vector_potential_y")
ZEROMODE_FUNCS = ("build_mode_1d", "scan_k", "build_mode_2d")
REPORT_FUNCS = ("json_report", "csv_text", "line_plot_svg")


def span_name(module, func):
    return f"{module.rsplit('.', 1)[-1]}.{func}"


def _zml_modules():
    # private modules (the kernels) are neither wrapped nor imported here
    return [m for name, m in list(sys.modules.items())
            if (name == "zml" or name.startswith("zml."))
            and not name.startswith("zml._") and m is not None]


def install(tracer):
    """Wrap every target where a zml module binds it; returns an undo list."""
    undo = []
    modules = _zml_modules()
    for module, func, counter in TARGETS:
        owner = sys.modules.get(module)
        original = getattr(owner, func, None) if owner else None
        if not callable(original):
            continue
        wrapper = tracer.wrap(span_name(module, func), original, counter)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, attr, value))
                    setattr(m, attr, wrapper)
    return undo


def uninstall(undo):
    for m, attr, value in reversed(undo):
        setattr(m, attr, value)


# --- layer metrics ------------------------------------------------------------

LAYER_METRICS = (
    ("potential.lambda_1d.s", "s"),
    ("potential.vector_potential_y.s", "s"),
    ("potential.lambda_2d_radial.s", "s"),
    ("potential.points", "count"),
    ("potential.us_per_point", "us"),
    ("potential.distinct_frac", "ratio"),
    ("profiles.total_flux.calls", "count"),
    ("profiles.total_flux.s", "s"),
    ("zeromodes.self_s", "s"),
    ("zeromodes.modes", "count"),
    ("spectral.eigen_spectrum.calls", "count"),
    ("spectral.eigen_spectrum.s", "s"),
    ("spectral.eigen_spectrum.rows", "count"),
    ("spectral.eigen_spectrum.used_frac", "ratio"),
    ("spectral.windowed_singular_modes.calls", "count"),
    ("spectral.windowed_singular_modes.s", "s"),
    ("spectral.windowed_singular_modes.vectors", "count"),
    ("spectral.windowed_singular_modes.q_bytes_computed", "B"),
    ("spectral.build_operator.self_s", "s"),
    ("reduction.verify_degeneracy.self_s", "s"),
    ("reduction.channels", "count"),
    ("reduction.window_hit_frac", "ratio"),
    ("reports.s", "s"),
    ("cli.self_s", "s"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Layer metrics of one traced pass, keyed as in LAYER_METRICS."""
    selfs = self_times(spans)
    by_name = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, own))

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s, _ in by_name.get(name, ()))

    def own(name):
        return sum(o for _, o in by_name.get(name, ()))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s, _ in by_name.get(name, ()))

    pot = [f"potential.{f}" for f in POTENTIAL_FUNCS]
    convs = [s.counts["conv"] for n in pot for s, _ in by_name.get(n, ())
             if "conv" in s.counts]
    points = sum(total(n, "points") for n in pot)
    pot_s = sum(busy(n) for n in pot)
    eig = "spectral.eigen_spectrum"
    win = "spectral.windowed_singular_modes"
    channels = total("reduction.verify_degeneracy", "channels")
    return {
        "potential.lambda_1d.s": busy("potential.lambda_1d"),
        "potential.vector_potential_y.s": busy("potential.vector_potential_y"),
        "potential.lambda_2d_radial.s": busy("potential.lambda_2d_radial"),
        "potential.points": points,
        "potential.us_per_point": _ratio(1e6 * pot_s, points),
        "potential.distinct_frac": _ratio(len(set(convs)), len(convs)),
        "profiles.total_flux.calls": calls("profiles.total_flux"),
        "profiles.total_flux.s": busy("profiles.total_flux"),
        "zeromodes.self_s": sum(own(f"zeromodes.{f}")
                                for f in ZEROMODE_FUNCS),
        "zeromodes.modes": sum(total(f"zeromodes.{f}", "modes")
                               for f in ZEROMODE_FUNCS),
        "spectral.eigen_spectrum.calls": calls(eig),
        "spectral.eigen_spectrum.s": busy(eig),
        "spectral.eigen_spectrum.rows": total(eig, "rows"),
        "spectral.eigen_spectrum.used_frac": _ratio(total(eig, "inside"),
                                                    total(eig, "eigenvalues")),
        "spectral.windowed_singular_modes.calls": calls(win),
        "spectral.windowed_singular_modes.s": busy(win),
        "spectral.windowed_singular_modes.vectors": total(win, "vectors"),
        "spectral.windowed_singular_modes.q_bytes_computed":
            total(win, "q_bytes"),
        "spectral.build_operator.self_s": own("spectral.build_operator"),
        "reduction.verify_degeneracy.self_s":
            own("reduction.verify_degeneracy"),
        "reduction.channels": channels,
        "reduction.window_hit_frac": _ratio(calls(win), channels),
        "reports.s": sum(busy(f"reports.{f}") for f in REPORT_FUNCS),
        "cli.self_s": own("cli.main"),
    }


def unaccounted_fracs(spans, job_walls):
    """Per job: the share of its wall time that its spans' self times miss."""
    accounted = [0.0] * len(job_walls)
    for s, own in zip(spans, self_times(spans)):
        accounted[s.job] += own
    return [abs(w - a) / w for w, a in zip(job_walls, accounted)]

"""Transverse-channel bookkeeping and degeneracy verification.

With periodicity L_y in the symmetry direction the transverse wavenumbers
quantize as k_y = 2 pi n / L_y.  A channel hosts a zero mode precisely when
its effective linear coefficient k_gauge + k_y falls in the open window of
length |Q| centred at zero (one gauge serves every channel of a sweep), so
the analytic degeneracy is g = floor(|Q| L_y / 2 pi), which
``admissible_channels`` reports; for a box of field B on [-a, a] it is the
familiar Landau count floor(2 a B L_y / 2 pi).

``verify_degeneracy`` reconciles that count with the spectral oracle from
the line primitives: one ``build_operator`` at k_y = 0 gives the base
operator, whose W is A_y, and channel n is that base with W shifted by
k_gauge + k_y; ``window_margin`` decides the window and one
``check_padding`` call the grid.  Level zero sums near-zero mode counts per
channel.  Excited levels need more care on a lattice with compactly
supported fields, for two measured reasons: central differences host a
staggered ("doubler") twin of every level, and channels near the window edge
lose their excited state to the continuum outright (the level sits above the
flat-region floor (|Q|/2 - |k_y|)^2, so no eigenvector is localized there;
only a washed-out density remains).  The excited-level count is therefore
taken as the bulk-projected spectral weight: each non-doubler eigenstate in
the level window contributes its probability weight inside the field
support.  A group B of near-degenerate windowed vectors, orthonormal as
``windowed_singular_modes`` returns them, is split basis-free by one Gram
product of neighbouring rows: the smooth (non-doubler) states span the
eigenvectors of G + G^T, G = B[1:]^T B[:-1], with positive eigenvalues.
Cleanly bound Landau states contribute ~1 (their weight is 1 - O(e^-30))
and the continuum the in-sample density of the dissolved states.  That
does not always restore the degeneracy-formula total: on box(1, 3) with
L_y = 2 pi at k_gauge 0.4, level 1 counts 4 where 6 is expected, its
near-edge channels weighing 0.14-0.29 each.  The level centre is
sqrt(2 level B_const) when the config names the box's field B_const, and
is otherwise read off the deepest admissible channel's singular values,
the |eigenvalues| of its tridiagonal A = J M; either way the next level
up must clear the window (``_check_level_separation``).

For an even field B(-x) = B(x) (``FieldProfile.is_even``) A_y is odd, and
on a grid symmetric about 0 the reflection R: x -> -x gives R M_k R =
-M_{-k} for M_k = D + diag(k + A_y): channels k and -k share their singular
values, so their near-zero counts, and, when the support mask is its own
mirror image, their bulk weights.  A sweep whose profile is even, whose
grid has x_lo = -x_hi and (at level >= 1) whose support mask equals its
reverse therefore solves each mirror pair once: a channel whose k is the
exact negative of an earlier channel's takes that channel's count and
weight.  Any other sweep, and any unpaired channel, is solved directly.
A paired row is k's result by construction: the grid points come from
``linspace`` and A_y is odd only to rounding, so a singular value within
rounding of tau (or, at level >= 1, of a window edge) may fall on the
other side of it in a direct solve of -k.

Every tolerance of a sweep is a fraction of the base operator's
``DiracOperator.gap``, sqrt(2 max|B|): tau defaults to the smaller of a
tenth of it and pi / (8 min_pad), min_pad the grid's padding (both
inverse lengths), ``cluster_tol`` to a tenth of it, and the bulk weight
groups values closer than (1e-3 / sqrt 2) gap, exactly 1e-3 at
max|B| = 1.  So a sweep dilated by c = 2^j as in ``zml.spectral``, with
L_y -> L_y / c, keeps its counts and weights bit for bit.  Two absolute
constants are left, both the maintainers' decision since changing either
changes when a sweep is refused or flagged: ``potential.PADDING_FLOOR``
= 5, a length, and the 1.0 floor of ``potential._on_edge``'s relative
scale.

The channels of a sweep are one NumPy record array, whose columns n, k_y,
admissible, on_window_edge, near_zero_count and level_weight (with their
dtypes) the ``DegeneracyReport`` docstring lists.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClusterResolutionError, GridError, ProfileError
from .potential import _on_edge, check_padding, window_margin
from .profiles import DEFAULT_RTOL, total_flux
from .spectral import (_check_tau, _gap_runs, _singular_values,
                       _sturm_count, build_operator, default_zero_tolerance,
                       windowed_singular_modes)

__all__ = [
    "MAX_CHANNELS",
    "ReductionConfig",
    "DegeneracyReport",
    "quantize_ky",
    "default_n_range",
    "admissible_channels",
    "verify_degeneracy",
]

TWO_PI = 2.0 * math.pi
# Ceiling on the channels of one sweep: 200 times the largest measured sweep
# (467 channels), so an absurd L_y or n_range is a config error, not a failed
# allocation of the sweep's channel columns.  A fixed bound, not a setting.
MAX_CHANNELS = 100_000

# near-degenerate eigenvalues are handled as one subspace (the solver may
# rotate their basis arbitrarily); genuine neighbours sit >= the continuum
# spacing apart, orders of magnitude above this fraction of the Landau gap
# (1e-3 exactly at max|B| = 1)
_GROUP_FRACTION = 1e-3 / math.sqrt(2.0)


@dataclass(frozen=True)
class ReductionConfig:
    """Channel-sweep parameters.

    ``B_const``, when given, must be the field of the line ``box`` profile
    the sweep runs on (``admissible_channels`` checks it); a level >= 1
    sweep then centres level l at sqrt(2 l B_const) instead of detecting it.
    """

    L_y: float
    k_gauge: float = 0.0
    n_range: tuple = None
    B_const: float = None

    def __post_init__(self):
        if not (math.isfinite(self.L_y) and self.L_y > 0.0):
            raise ValueError(f"L_y must be finite and positive, got {self.L_y}")
        if not math.isfinite(self.k_gauge):
            raise ValueError(f"k_gauge must be finite, got {self.k_gauge}")
        if self.n_range is not None:
            lo, hi = self.n_range
            if int(lo) != lo or int(hi) != hi or lo > hi:
                raise ValueError(f"n_range must be integers lo <= hi, got {self.n_range}")
            object.__setattr__(self, "n_range", (int(lo), int(hi)))
        b = self.B_const
        if b is not None and not (math.isfinite(b) and b > 0.0):
            raise ValueError(f"B_const must be finite and positive, got {b}")


@dataclass
class DegeneracyReport:
    """One sweep: its flux Q, g = floor(|Q| L_y / 2 pi) and ``channels``.

    ``channels`` is a record array, one row per channel in ascending n:
    ``n`` (int64; object holding exact Python ints when an index leaves
    int64), ``k_y`` (float64), ``admissible`` and ``on_window_edge`` (bool),
    and after ``verify_degeneracy`` ``near_zero_count`` (int64) and, at
    level >= 1, ``level_weight`` (float64).
    """

    Q: float
    L_y: float
    g_analytic_real: float
    g_analytic: int
    channels: np.recarray
    g_numeric: int = None
    discrepancy: int = None
    level: int = 0
    tau: float = None
    cluster_center: float = None

    @property
    def admissible_count(self):
        return int(np.count_nonzero(self.channels.admissible))


def quantize_ky(L_y, n_range):
    """k_y(n) = 2 pi n / L_y for n in the inclusive integer range, ascending."""
    if not (math.isfinite(L_y) and L_y > 0.0):
        raise ValueError(f"L_y must be finite and positive, got {L_y}")
    lo, hi = n_range
    if int(lo) != lo or int(hi) != hi:
        raise ValueError("n_range bounds must be integers")
    if lo > hi:
        raise ValueError(f"empty channel range {n_range}")
    return np.array([TWO_PI * n / L_y for n in range(int(lo), int(hi) + 1)])


def default_n_range(Q, L_y, k_gauge=0.0):
    """Channel range covering the admissible window plus one boundary channel.

    Raises GridError if the range overflows a float.
    """
    half = 0.5 * abs(Q)
    lo = (-half - k_gauge) * L_y / TWO_PI
    hi = (half - k_gauge) * L_y / TWO_PI
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise GridError(f"channel range for Q = {Q}, L_y = {L_y}, k_gauge = "
                        f"{k_gauge} is not finite")
    return (math.floor(lo) - 1, math.ceil(hi) + 1)


def admissible_channels(profile, cfg):
    """Analytic degeneracy report: per-channel window verdicts and floor(|Q| L_y/2pi).

    A channel is admissible iff ``window_margin(Q, k_gauge + k_y)`` > 0,
    i.e. |k_gauge + k_y| < |Q|/2.  The admissible count can differ from the
    floor formula by at most one lattice point; channels on the window edge
    (margin 0 to relative 1e-9, as ``ZeroModeCount2D.integer_flux`` in the
    plane) are flagged, since there the count depends on rounding.

    A ``cfg.B_const`` that is not the field of a line ``box`` profile raises
    ProfileError: the sweep has one description of its field, the profile.
    A g or channel range that is not finite, or a range of more than
    MAX_CHANNELS channels, raises GridError before any channel is built.
    """
    b = cfg.B_const
    if b is not None and (profile.kind != "box" or profile.is_radial
                          or b != profile.max_abs()):
        raise ProfileError(
            f"B_const = {b} must be the field of a line box profile; the "
            f"{profile.dimension} {profile.kind} has max|B| = "
            f"{profile.max_abs()}")
    q = total_flux(profile).value
    g_real = abs(q) * cfg.L_y / TWO_PI
    if not math.isfinite(g_real):
        raise GridError(f"g = |Q| L_y / 2pi = {g_real} is not finite")
    lo, hi = n_range = cfg.n_range or default_n_range(q, cfg.L_y, cfg.k_gauge)
    if hi - lo >= MAX_CHANNELS:
        raise GridError(f"channel range n in {list(n_range)} exceeds the "
                        f"ceiling MAX_CHANNELS = {MAX_CHANNELS} channels")
    k_y = quantize_ky(cfg.L_y, n_range)
    margin = window_margin(q, cfg.k_gauge + k_y)
    # indices beyond int64 stay exact Python ints in an object column
    n = np.array(range(lo, hi + 1),
                 dtype=object if max(-lo, hi) >= 2 ** 63 else np.int64)
    channels = np.rec.fromarrays(
        (n, k_y, margin > 0.0, _on_edge(margin, 0.5 * abs(q))),
        names=("n", "k_y", "admissible", "on_window_edge"))
    g = int(math.floor(g_real))
    report = DegeneracyReport(Q=q, L_y=cfg.L_y, g_analytic_real=g_real,
                              g_analytic=g, channels=channels)
    report.discrepancy = abs(report.admissible_count - g)
    return report


def _check_level_separation(level, top, upper, ctol):
    """Require level + 1, starting at ``upper``, 2 ctol above ``top`` of level.

    The level window reaches ctol above the level; the next level must start
    a further ctol beyond it, or the window would take its states too.
    """
    sep = upper - top
    if sep < 2.0 * ctol:
        raise ClusterResolutionError(
            f"levels {level} and {level + 1} are separated by only {sep:.3g} "
            f"< {2 * ctol:.3g} (twice cluster_tol); refine the grid or lower "
            "cluster_tol")


def _detect_cluster_center(vals, level, ctol):
    """Median of cluster m of the deepest channel's ascending singular values.

    Only the most-admissible channel is used: channels near the window edge
    have already lost excited levels to a dense continuum comb that would
    bury every gap.  Cluster m + 1 must be resolved too, since it bounds
    the level window from above.
    """
    if vals.size == 0:
        raise ClusterResolutionError("no spectral values to cluster; "
                                     "is the sweep admissible at all?")
    clusters = [vals[run] for run in _gap_runs(vals, ctol)]
    if level >= len(clusters):
        raise ClusterResolutionError(
            f"level {level} needs level {level + 1} above it to bound its "
            f"window, but only {len(clusters)} clusters are resolved at this "
            "grid")
    cluster = clusters[level - 1]
    width = float(cluster[-1] - cluster[0])
    if width > ctol:
        raise ClusterResolutionError(
            f"cluster {level} spans {width:.3g} > tolerance {ctol:.3g}; "
            "refine the grid")
    _check_level_separation(level, float(cluster[-1]),
                            float(clusters[level][0]), ctol)
    return float(np.median(cluster))


def _smooth_bulk_weight(svals, vecs, support_mask, group_tol):
    """Bulk-projected weight of the non-doubler states in a singular window.

    Values closer than ``group_tol`` are treated as one group (LAPACK may
    rotate the basis within such a group arbitrarily, so classification
    must be basis-free); a sweep passes a fixed fraction of the Landau gap.
    In a group B the smooth (non-doubler) directions u have less
    difference- than sum-energy, |D u| < |S u| for D, S = B[1:] -+ B[:-1];
    as D^T D - S^T S = -2 (G + G^T), G = B[1:]^T B[:-1], they are the
    eigenvectors of G + G^T with positive eigenvalues.  Each is a unit
    state, since B's columns are orthonormal as ``windowed_singular_modes``
    returns them, and contributes its probability weight inside the support.
    """
    weight = 0.0
    for run in _gap_runs(svals, group_tol):
        basis = vecs[:, run]
        g = basis[1:].T @ basis[:-1]
        split, rot = np.linalg.eigh(g + g.T)
        smooth = basis @ rot[:, split > 0.0]
        weight += float(np.sum((smooth * support_mask[:, None]) * smooth))
    return weight


def verify_degeneracy(profile, cfg, level, grid, zero_tol=None,
                      cluster_tol=None, rtol=DEFAULT_RTOL):
    """Reconcile the analytic degeneracy with the spectral oracle.

    Every channel is one base operator (``build_operator`` at k_y = 0, the
    sweep's one A_y convolution) with W shifted by k_gauge + k_y, built once,
    where it is used, so a sweep holds one operator at a time: its Sturm count
    and, at level >= 1, its windowed weight come from it.  The grid is checked
    once, by ``check_padding`` at the admissible channel farthest from k = 0,
    which needs the most padding (the floor when none is admissible).  Level 0
    sums per-channel near-zero mode counts at tolerance ``zero_tol`` (default:
    below both the Landau scale and the finite-padding edge-ladder scale);
    each count is one O(m) Sturm count of the channel's tridiagonal A = J M on
    (-tau, tau], so no channel needs its full spectrum.  Level m >= 1 totals
    the bulk-projected weight of non-doubler states within ``cluster_tol``
    (default: a tenth of the first Landau gap) of the m-th level center and
    rounds, taking each channel's windowed vectors by bisection and inverse
    iteration on A; the center is sqrt(2 m B_const) when the config names the
    box's field B_const and otherwise comes from gap-splitting the singular
    values above 2 tau of the deepest admissible channel, the |eigenvalues| of
    its A.  Either way level m + 1 must start at least 2 ``cluster_tol`` above
    level m; a level that is not separated so, whose upper neighbour is not
    resolved, or whose window rounds to nothing (``cluster_tol`` below the
    float spacing at the center) raises ClusterResolutionError instead of
    guessing.  Nothing is assembled densely, so any grid size is accepted.
    Channels are processed in ascending n and the report is deterministic.
    When the profile is even, ``grid.x_lo == -grid.x_hi`` and, at level
    >= 1, the support mask equals its reverse, a channel whose k_gauge + k_y
    is the exact negative of an earlier channel's is that channel reflected
    and takes its count and weight without an operator of its own.  The
    copy is k's result by construction: a channel with a singular value
    within rounding of tau, or of a window edge, can differ from a direct
    solve of -k, whose A_y is odd only to rounding.
    """
    if int(level) != level or level < 0:
        raise ValueError(f"level must be a non-negative integer, got {level}")
    level = int(level)
    # written so that nan fails too; inf would put every value in the window
    if cluster_tol is not None and not 0.0 < cluster_tol < math.inf:
        raise ValueError(f"cluster_tol must be positive and finite, "
                         f"got {cluster_tol}")
    report = admissible_channels(profile, cfg)
    # read once as a plain array: each record attribute read costs microseconds
    ks = cfg.k_gauge + report.channels.k_y
    # inside the window the padding a channel needs grows with |k|, so the
    # admissible channel farthest from k = 0 binds; without one, the floor
    inside = np.flatnonzero(report.channels.admissible)
    k_bind = ks[inside[np.argmax(np.abs(ks[inside]))]] if inside.size else ks[0]
    min_pad = check_padding(profile, k_bind, grid)
    base = build_operator(profile, 0.0, grid, rtol=rtol)
    # below both a tenth of the Landau gap and half the first rung of the
    # flat-region ladder that window-edge channels develop
    tau0 = zero_tol if zero_tol is not None else min(
        math.pi / (8.0 * min_pad), default_zero_tolerance(base))
    _check_tau(base.gap, tau0)

    def channel(i):
        return dataclasses.replace(base, k_y=ks[i],
                                   w_values=ks[i] + base.w_values)

    if level:
        ctol = cluster_tol
        if ctol is None:
            if math.isinf(base.gap):
                raise ClusterResolutionError("field-free sweep has no level "
                                             "structure to cluster")
            ctol = default_zero_tolerance(base)
        if cfg.B_const is not None:
            # admissible_channels checked that B_const is the box's field
            center = math.sqrt(2.0 * level * cfg.B_const)
            _check_level_separation(level, center,
                                    math.sqrt(2.0 * (level + 1) * cfg.B_const),
                                    ctol)
        else:
            vals = np.array([])
            if inside.size:
                deepest = channel(inside[np.argmin(np.abs(ks[inside]))])
                # the values above 2 tau need none of the near-null
                # refinement of eigen_spectrum
                vals = _singular_values(deepest)
                vals = vals[vals > 2.0 * tau0]
            center = _detect_cluster_center(vals, level, ctol)
        x_int, (s_lo, s_hi) = base.interior_x, profile.support
        support_mask = ((x_int >= s_lo) & (x_int <= s_hi)).astype(float)
        lo, hi = max(center - ctol, 0.0), center + ctol
        group_tol = _GROUP_FRACTION * base.gap
        if not lo < hi:
            raise ClusterResolutionError(
                f"cluster_tol = {ctol:.3g} is below the float spacing at the "
                f"level center {center!r}: the window around it is empty")
    # an even field on a grid symmetric about 0 has R M_k R = -M_{-k}, R the
    # reflection x -> -x: channel -k is channel k reflected, with the same
    # singular values and, under a mirrored support mask, the same weight
    mirrored = profile.is_even and grid.x_lo == -grid.x_hi and (
        not level or np.array_equal(support_mask, support_mask[::-1]))
    solved = {}   # k of each solved channel -> its row
    counts, weights = [], []
    for i, k in enumerate(ks.tolist()):
        j = solved.get(-k) if mirrored else None
        if j is not None:
            counts.append(counts[j])
            if level:
                weights.append(weights[j])
            continue
        solved[k] = i
        op = channel(i)   # one operator gives the channel's count and weight
        counts.append(_sturm_count(op, tau0))
        if level:
            svals, vecs = windowed_singular_modes(op, lo, hi)
            weights.append(_smooth_bulk_weight(svals, vecs, support_mask,
                                               group_tol))
    names = [*report.channels.dtype.names, "near_zero_count"]
    columns = [report.channels[name] for name in names[:-1]] + [counts]
    g_numeric = sum(counts)
    if level:
        # the left-to-right sum in channel order, not np.sum's pairwise one
        g_numeric = int(round(sum(weights)))
        report.cluster_center = center
        names.append("level_weight")
        columns.append(weights)
    report.channels = np.rec.fromarrays(columns, names=names)
    report.level, report.tau, report.g_numeric = level, tau0, g_numeric
    report.discrepancy = abs(g_numeric - report.g_analytic)
    return report

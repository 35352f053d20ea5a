"""Zero-energy solutions, their normalizability, and mode counting.

On the line the candidate modes are exp(-lambda_k) (lower / "b" component)
and exp(+lambda_k) (upper / "a" component).  Square-integrability is decided
purely by the exact asymptotic slopes k -/+ Q/2 of lambda_k: a mode is
normalizable iff it lies in the sector ``flux_sector`` picks from the sign
of the flux and ``window_margin(Q, k)`` = |Q|/2 - |k| > 0, the open window
|k| < |Q|/2; quadrature of the sampled mode is only a consistency check,
never the verdict.

In the radially symmetric plane the candidates are r^j exp(-lambda) (or the
mirrored sector for negative flux) whose squared-norm integrand behaves like
r^(2j + 1 - |Phi|/pi) at infinity; integrability at infinity therefore
requires that tail exponent below -1.  The headline count keeps the integer
part of |Phi|/2pi; exactly integer flux is flagged because there the strict
tail rule admits one mode fewer.

Modes are stored in log space (exp(+-lambda) overflows casually) and all
line norms are computed from the log samples with a max shift.  Only the
support block is exponentiated: the grid points from the last one at or
left of the support to the first at or right of it, widened where the grid
allows to a multiple of four intervals (``_support_block``).  The block is
one weighted row sum with its composite-Simpson weights
(``_simpson_weights``), and past each end where the grid reaches beyond
the support the mode is an exact exponential, so the Simpson sum over the
grid's infinite continuation there is a geometric series in closed form,
(h/3) f_end (1 + 4r + r^2)/(1 - r^2) with r = exp(-2|k -/+ Q/2| h).  A side
where the grid ends inside the support keeps the sum truncated at the
grid's end; a potential whose support is the whole line gets the plain
Simpson sum over its grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProfileError
from .potential import (RadialScalarPotential, ScalarPotential, _on_edge,
                        window_margin)
from .profiles import Flux

__all__ = [
    "SpinSector",
    "SECTOR_A",
    "SECTOR_B",
    "SECTOR_NONE",
    "ZeroMode",
    "Mode2D",
    "ZeroModeCount2D",
    "flux_sector",
    "build_mode_1d",
    "scan_k",
    "count_2d_zero_modes",
    "build_mode_2d",
]

# exp overflows float64 above this argument
_LOG_MAX = 709.0
# log samples per norm block in scan_k, as k rows of the support block's
# width: one such float64 temporary (0.5 MB) keeps a scan's memory flat
_SCAN_SAMPLES = 512 * 121


@dataclass(frozen=True)
class SpinSector:
    """Spinor component label; gamma is the sign of lambda in exp(gamma lambda)."""

    label: str
    gamma: int


SECTOR_A = SpinSector("a", +1)
SECTOR_B = SpinSector("b", -1)
SECTOR_NONE = SpinSector("none", 0)


@dataclass(frozen=True, eq=False)
class ZeroMode:
    """Candidate 1D zero mode exp(gamma lambda_k), sampled in log space.

    ``flux`` is the Flux of the lambda_k the mode was built from, the Q its
    verdict was taken with.
    """

    sector: SpinSector
    k: float
    flux: Flux
    grid: object
    log_values: np.ndarray
    values: np.ndarray        # exp(log) where representable, else nan
    l2_norm: float            # sqrt int psi^2, inf when not normalizable
    normalizable: bool

    def __post_init__(self):
        self.log_values.setflags(write=False)
        self.values.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Mode2D:
    """Radial plane mode r^j exp(gamma lambda) and its tail exponent."""

    j: int
    sector: SpinSector
    grid: object
    log_values: np.ndarray
    values: np.ndarray
    tail_exponent: float      # 2j + 1 - |Phi|/pi governs r -> inf integrability
    normalizable: bool

    def __post_init__(self):
        self.log_values.setflags(write=False)
        self.values.setflags(write=False)


@dataclass(frozen=True)
class ZeroModeCount2D:
    """Plane zero-mode count: integer part of |Phi|/2pi in one sector."""

    sector: SpinSector
    n_modes: int
    flux_over_2pi: float
    integer_flux: bool        # there the strict tail rule gives n_modes - 1


def flux_sector(q):
    """Spin sector of the zero modes of flux q: b if q > 0, a if q < 0.

    Zero flux admits nothing.  Either sector's window is |k| < |q|/2
    (``window_margin``), edges excluded: there one tail of lambda is flat.
    """
    if q > 0.0:
        return SECTOR_B
    if q < 0.0:
        return SECTOR_A
    return SECTOR_NONE


def _normalizable(sector, q, k):
    # elementwise in k, so one call gives the verdicts of an array of k
    return (sector is flux_sector(q)) & (window_margin(q, k) > 0.0)


def _representable(log_values):
    # overflow -> nan; underflow falls through to an exact 0.0, the true limit
    vals = np.full(log_values.shape, np.nan)
    ok = log_values <= _LOG_MAX
    vals[ok] = np.exp(log_values[ok])
    return vals


def _simpson_weights(x):
    """Per-point weights w of composite Simpson on the points x (n >= 3).

    The rule is ``scipy.integrate.simpson``'s since SciPy 1.11: the
    spacing-aware three-point rule on the leading interval pairs and, for an
    even number of points, Cartwright's correction on the last interval.
    w @ y is simpson(y, x=x) up to rounding: a few ulp of sum |w y|.  The
    weights gather the rule's coefficients in O(n): an interval pair
    (h0, h1) gives its ends hsum/6 (2 - h1/h0) and hsum/6 (2 - h0/h1) and
    its middle hsum/6 (hsum/h0)(hsum/h1), and an even n adds Cartwright's
    coefficients on the last interval (a, b) as multiples of b/6 and b/a.
    Written with ratios of spacings, no coefficient overflows or underflows
    on a grid Grid1D accepts, and there all of them are positive.
    """
    n = x.size
    h = np.diff(x)
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    sixth = hsum / 6.0
    w = np.zeros(n)
    w[0:stop:2] = sixth * (2.0 - 1.0 / ratio)
    w[1:stop + 1:2] = sixth * ((hsum / h0) * (hsum / h1))
    w[2:stop + 2:2] += sixth * (2.0 - ratio)
    if n % 2 == 0:
        b6, r = h[-1] / 6.0, h[-1] / h[-2]
        w[-1] += b6 * ((2.0 * r + 3.0) / (r + 1.0))
        w[-2] += b6 * (r + 3.0)
        w[-3] -= b6 * (r * (r / (r + 1.0)))
    return w


def _support_block(x, support):
    """The support block of the grid points x, and which ends carry a tail.

    Returns a slice of x, from the last point at or left of the support to
    the first at or right of it, and (left, right): whether the grid reaches
    that far on each side.  A side where it does not ends at the grid's end
    and carries no tail.  Where the grid allows, the block takes one more
    point at a time, alternately on the left and on the right, until it has
    a multiple of four intervals (a point outside the support keeps the
    tail's exact form).  Its middle point is then a panel boundary, so for a
    support centred on a symmetric grid of n = 1 (mod 4) points the block's
    Simpson panels are the whole grid's: a mode whose tails the grid
    resolves keeps its norm.  The block depends on the points over the
    support alone, not on how far the grid is padded past two points.
    """
    n = x.size
    first = int(np.searchsorted(x, support[0], side="right")) - 1
    last = int(np.searchsorted(x, support[1], side="left"))
    i0, i1 = max(first, 0), min(last, n - 1)
    left = True
    while (i1 - i0) % 4 or i0 == i1:
        if i0 > 0 and (left or i1 == n - 1):
            i0 -= 1
        elif i1 < n - 1:
            i1 += 1
        else:
            break
        left = not left
    return slice(i0, i1 + 1), (first >= 0, last < n)


def _norms(log_rows, weights, h, tails, slopes):
    """Row-wise sqrt int exp(2 log psi) dx of the support-block samples.

    Each row of log_rows is shifted by its maximum and exponentiated in
    place (log_rows is consumed), and the block's integrals are one weighted
    row sum with its ``_simpson_weights``: np.einsum, not BLAS, so the
    result does not depend on the BLAS build or its thread count.  Past each
    end of the block where ``tails`` (left, right) is true, log psi falls at
    the rate |slope| of ``slopes`` (k - Q/2, k + Q/2), per row; the tail
    adds the Simpson sum of the grid's continuation, samples f_end r^m of
    spacing h with r = exp(-2 |slope| h): (h/3) f_end (1 + 4r + r^2)/(1 - r^2),
    with 1 - r^2 as -expm1(-4 |slope| h).  For an admissible k the row's
    maximum lies in the block, so f_end <= 1.  A norm whose logarithm
    exceeds _LOG_MAX is inf.
    """
    shifts = log_rows.max(axis=-1)
    # overflows go to -inf below the shift (a sample of exactly 0) and to
    # inf above _LOG_MAX (a norm reported infinite)
    with np.errstate(over="ignore"):
        log_rows -= shifts[:, None]
        log_rows *= 2.0
        np.exp(log_rows, out=log_rows)
        integrals = np.einsum("ij,j->i", log_rows, weights)
        for end, tail, slope in zip((0, -1), tails, slopes):
            if tail:
                rate = np.abs(slope)
                r = np.exp(-2.0 * h * rate)
                integrals += (h / 3.0) * log_rows[:, end] * (
                    (1.0 + r * (4.0 + r)) / -np.expm1(-4.0 * h * rate))
        log_norms = shifts + 0.5 * np.log(integrals)
        return np.where(log_norms <= _LOG_MAX, np.exp(log_norms), math.inf)


def build_mode_1d(pot, sector):
    """The sector's candidate mode exp(gamma lambda_k) on pot's grid.

    ``pot`` is lambda_k, a ScalarPotential from lambda_1d; its k, grid and
    flux are the mode's (``ZeroMode.flux``).  The normalizability verdict is
    the window rule on its exact k and Q alone.  The L2 norm is the support
    block's composite Simpson sum plus, on each side where the grid reaches
    past pot's support, the closed-form Simpson sum of the grid's infinite
    exponential continuation (the module docstring): the routine scan_k
    uses, so the two agree bit for bit.  The exterior is exact, so the norm
    does not depend on how far the grid is padded, and it grows like
    (2 delta)^(-1/2) as delta = ``window_margin`` -> 0, as the continuum
    norm does.  It is flagged infinite for non-normalizable modes.
    """
    if not isinstance(pot, ScalarPotential):
        raise ProfileError("build_mode_1d needs a line potential "
                           "(ScalarPotential)")
    if sector is SECTOR_NONE or not isinstance(sector, SpinSector):
        raise ValueError("build_mode_1d needs sector a or b")
    normalizable = bool(_normalizable(sector, pot.flux.value, pot.k))
    log_values = sector.gamma * pot.values
    if normalizable:
        x = pot.grid.points()
        block, tails = _support_block(x, pot.support)
        norm = float(_norms(log_values[None, block].copy(),
                            _simpson_weights(x[block]), pot.grid.h, tails,
                            (pot.slope_left, pot.slope_right))[0])
    else:
        norm = math.inf
    return ZeroMode(sector=sector, k=pot.k, flux=pot.flux, grid=pot.grid,
                    log_values=log_values, values=_representable(log_values),
                    l2_norm=norm, normalizable=normalizable)


def scan_k(base, sector, k_list):
    """Per-k normalizability verdicts and norms over a list of k values.

    ``base`` is lambda_0, the ScalarPotential from lambda_1d at k = 0; the
    rows are gamma (lambda_0 + k x) on its grid, so any other k raises
    ValueError.

    Returns one numpy record array in the order of k_list, so its len is
    len(k_list).  Its fields ``k`` (float), ``normalizable`` (bool) and
    ``l2_norm`` (float, inf where not normalizable) are 1-D columns, and
    each row carries the same three fields as attributes.

    Verdicts are exact: true precisely in the sector ``flux_sector`` picks
    where ``window_margin`` is positive.  The norms of the admissible k are
    build_mode_1d's at each k, bit for bit: the support block's Simpson sum
    plus the closed-form exterior tails.  Only the block's columns are
    exponentiated, as one (rows x block) matrix of log samples
    gamma (lambda_0 + k x) of at most _SCAN_SAMPLES values at a time, so the
    temporaries stay flat however long k_list is; the block's weights are
    built once per scan.  The exterior is exact however far base's grid
    reaches past the support, so the norms hold up to the window edges,
    where they diverge like (2 delta)^(-1/2); a side where the grid ends
    inside the support is truncated there.
    """
    if sector is SECTOR_NONE or not isinstance(sector, SpinSector):
        raise ValueError("scan_k needs sector a or b")
    if base.k != 0.0:
        raise ValueError(f"scan_k needs lambda_0 as its base, "
                         f"got k = {base.k}")
    x = base.grid.points()
    ks = np.asarray(k_list, dtype=float)
    ok = _normalizable(sector, base.flux.value, ks)
    norms = np.full(ks.shape, math.inf)
    admissible = np.flatnonzero(ok)
    block, tails = _support_block(x, base.support)
    x, values = x[block], base.values[block]
    weights = _simpson_weights(x)
    step = max(1, _SCAN_SAMPLES // x.size)
    half_q = 0.5 * base.flux.value
    for start in range(0, admissible.size, step):
        rows = admissible[start:start + step]
        # gamma (lambda_0 + k x), built in place
        log_rows = ks[rows, None] * x
        log_rows += values
        if sector.gamma < 0:
            np.negative(log_rows, out=log_rows)
        norms[rows] = _norms(log_rows, weights, base.grid.h, tails,
                             (ks[rows] - half_q, ks[rows] + half_q))
    return np.rec.fromarrays((ks, ok, norms),
                             names=("k", "normalizable", "l2_norm"))


def count_2d_zero_modes(flux):
    """Zero-mode count of the radially symmetric plane problem.

    n_modes is the integer part of |Phi|/2pi (modes j = 0 .. n_modes-1) in
    the sector ``flux_sector`` picks for Phi.  When |Phi|/2pi is an integer
    the topmost mode j = n_modes - 1 sits exactly on the integrability
    boundary and the strict tail rule rejects it; such inputs are flagged
    rather than silently resolved.
    """
    phi = flux.value if isinstance(flux, Flux) else float(flux)
    ratio = abs(phi) / (2.0 * math.pi)
    integer_flux = ratio > 0.0 and _on_edge(ratio - round(ratio), ratio)
    return ZeroModeCount2D(sector=flux_sector(phi), n_modes=math.floor(ratio),
                           flux_over_2pi=ratio, integer_flux=integer_flux)


def build_mode_2d(pot, j):
    """Radial mode r^j exp(gamma lambda) with its strict tail verdict.

    ``pot`` is the sampled radial lambda, a RadialScalarPotential; one
    potential serves every j, and its flux Phi fixes the tail and the
    sector.  The squared-norm integrand scales like r^tail_exponent with
    tail_exponent = 2j + 1 - |Phi|/pi, so the mode is normalizable iff that
    exponent is < -1.  The sector is flux_sector's for Phi, with
    b-like decay exp(-lambda) at Phi = 0.
    """
    if not isinstance(pot, RadialScalarPotential):
        raise ProfileError("build_mode_2d needs a radial potential "
                           "(RadialScalarPotential)")
    if int(j) != j or j < 0:
        raise ValueError(f"j must be a non-negative integer, got {j}")
    j = int(j)
    phi = pot.flux.value
    sector = flux_sector(phi)
    gamma = sector.gamma or -1
    r = pot.grid.points()
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    log_values = j * log_r + gamma * pot.values if j > 0 else gamma * pot.values
    tail = 2.0 * j + 1.0 - abs(phi) / math.pi
    return Mode2D(j=j, sector=sector, grid=pot.grid, log_values=log_values,
                  values=_representable(log_values), tail_exponent=tail,
                  normalizable=bool(tail < -1.0))


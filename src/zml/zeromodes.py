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
norms are computed from the log samples with a max shift, as one weighted
row sum with the grid's composite-Simpson weights (``_simpson_weights``);
they equal ``_simpson``'s, SciPy's arithmetic, to a few ulp.
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
# k values per norm block in scan_k: one 512 x n float64 temporary keeps a
# scan's memory flat, and is no slower than one block (the 10 000-k,
# 121-point scan, median of 40 interleaved runs on one core: ~5.2 ms at 512,
# ~6.4 ms in one block, ~5.5 ms at 128)
_SCAN_BLOCK = 512


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


def _simpson(y, x):
    """Row-wise composite Simpson integral of y over the points x (n >= 3).

    The arithmetic of ``scipy.integrate.simpson`` since SciPy 1.11: the
    spacing-aware three-point rule on the leading interval pairs and, for an
    even number of points, Cartwright's correction on the last interval.
    The norms use this rule's per-point weights (``_simpson_weights``); this
    form is the SciPy-exact reference they are checked against.
    """
    n = x.size
    h = np.diff(x)
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    pairs = hsum / 6.0 * (y[:, 0:stop:2] * (2.0 - 1.0 / ratio)
                          + y[:, 1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                          + y[:, 2:stop + 2:2] * (2.0 - ratio))
    result = np.sum(pairs, axis=-1)
    if n % 2 == 0:
        a, b = h[-2:-1], h[-1:]
        alpha = (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
        beta = (b ** 2 + 3.0 * a * b) / (6 * a)
        eta = b ** 3 / (6 * a * (a + b))
        result += alpha * y[:, -1] + beta * y[:, -2] - eta * y[:, -3]
    return result


def _simpson_weights(x):
    """Per-point weights w of ``_simpson``'s rule on the points x (n >= 3).

    w @ y is _simpson(y, x) up to rounding: a few ulp of sum |w y|.  The
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


def _norms(log_rows, weights):
    """Row-wise sqrt int exp(2 log psi) dx of the log samples log_rows.

    Each row is shifted by its maximum and exponentiated in place (log_rows
    is consumed), and the integrals are one weighted row sum with the
    ``_simpson_weights`` of the grid: np.einsum, not BLAS, so the result
    does not depend on the BLAS build or its thread count.  A norm whose
    logarithm exceeds _LOG_MAX is inf.
    """
    shifts = log_rows.max(axis=-1)
    # overflows go to -inf below the shift (a sample of exactly 0) and to
    # inf above _LOG_MAX (a norm reported infinite)
    with np.errstate(over="ignore"):
        log_rows -= shifts[:, None]
        log_rows *= 2.0
        np.exp(log_rows, out=log_rows)
        integrals = np.einsum("ij,j->i", log_rows, weights)
        log_norms = shifts + 0.5 * np.log(integrals)
        return np.where(log_norms <= _LOG_MAX, np.exp(log_norms), math.inf)


def build_mode_1d(pot, sector):
    """The sector's candidate mode exp(gamma lambda_k) on pot's grid.

    ``pot`` is lambda_k, a ScalarPotential from lambda_1d; its k, grid and
    flux are the mode's (``ZeroMode.flux``).  The normalizability verdict is
    the window rule on its exact k and Q alone.  The L2 norm is composite
    Simpson quadrature over the grid extent, the routine scan_k uses, so
    the two agree bit for bit; it equals ``_simpson``'s value to a few ulp.
    It is flagged infinite for non-normalizable modes; how well the grid
    resolves a normalizable tail is the caller's ``check_padding``.
    """
    if not isinstance(pot, ScalarPotential):
        raise ProfileError("build_mode_1d needs a line potential "
                           "(ScalarPotential)")
    if sector is SECTOR_NONE or not isinstance(sector, SpinSector):
        raise ValueError("build_mode_1d needs sector a or b")
    normalizable = bool(_normalizable(sector, pot.flux.value, pot.k))
    log_values = sector.gamma * pot.values
    if normalizable:
        norm = float(_norms(log_values[None, :].copy(),
                            _simpson_weights(pot.grid.points()))[0])
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
    taken in blocks of _SCAN_BLOCK values: one block x n matrix of log
    samples gamma (lambda_0 + k x) (0.5 MB at n = 121), exponentiated in
    place after its row-max shift, and one weighted row sum with the grid's
    Simpson weights, built once per scan.  So the temporaries stay flat
    however long k_list is, and each norm is build_mode_1d's at its k bit
    for bit and ``_simpson``'s to a few ulp.  Norms are computed on base's
    grid, so near the window edges (where the padding rule would demand
    enormous grids) they are truncation-limited; the verdict is not.
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
    weights = _simpson_weights(x)
    for start in range(0, admissible.size, _SCAN_BLOCK):
        rows = admissible[start:start + _SCAN_BLOCK]
        # gamma (lambda_0 + k x), built in place
        log_rows = ks[rows, None] * x
        log_rows += base.values
        if sector.gamma < 0:
            np.negative(log_rows, out=log_rows)
        norms[rows] = _norms(log_rows, weights)
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


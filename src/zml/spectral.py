"""Discretized two-component operator for one transverse channel.

For a channel with wavenumber k_y the two coupled first-order equations in
the real representation (psi_a, i psi_b) read

    (+d/dx + W) psi_b = E psi_a,      (-d/dx + W) psi_a = E psi_b,

with W(x) = k_y + A_y(x) and A_y = d lambda/dx obtained analytically from
the sign-kernel convolution of the field.  On a uniform interior grid with
Dirichlet truncation (boundary rows dropped) the derivative is the
antisymmetric central-difference matrix D, giving the real symmetric block
operator

    H = [[0, M], [M^T, 0]],      M = D + diag(W),

whose spectrum is symmetric about zero: the eigenvalues are exactly the
+-singular values of M.  ``eigen_spectrum`` takes them by one path for
every size: the eigenvalues of the pentadiagonal M^T M (``eig_banded``,
O(m^2)), whose square roots are the singular values.  Squaring costs a
singular value s an absolute error of about eps ||M^T M|| / s, which
falls on the near-null values the zero-mode count rests on, so every value
that may lie below the zero tolerance is then refined on M itself: block
inverse iteration gives their singular subspace in O(m) per step, and the
values are the singular values of M restricted to it (Rayleigh-Ritz), free
of the squaring loss (cf. Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11,
873 (1990), on the accuracy of small singular values).  Nothing is
assembled densely.

Channel sweeps need no full spectrum.  The number of singular values below
s is the number of eigenvalues of M^T M below s^2, which Sylvester's law of
inertia reads off the negative pivots of an unpivoted LDL^T of the
pentadiagonal M^T M - s^2 I (a Sturm count, Parlett, The Symmetric
Eigenvalue Problem): O(m).  ``windowed_singular_modes`` takes its count from
two such factorizations and then computes exactly that many eigenpairs by
shift-invert Lanczos (ARPACK; Lehoucq, Sorensen & Yang, 1998) about the
middle of the squared window, one sparse O(m) factorization plus O(m) work
per Lanczos step.  A sweep is therefore O(m) per channel.

Central differences carry the usual lattice artifact: M also hosts a
staggered ("doubler") branch whose levels coincide with the partner tower.
``windowed_singular_modes`` exposes the right-singular vectors in a value
window so callers can classify smooth versus staggered and bulk versus edge
states; the zero level itself is artifact-free (the staggered zero mode
grows like exp(+lambda) and is expelled by the Dirichlet truncation).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import EigenSolveError, GridError, ProfileError
from .potential import check_padding, vector_potential_y
from .profiles import DEFAULT_RTOL, total_flux

__all__ = [
    "DiracOperator",
    "Spectrum",
    "build_operator",
    "default_zero_tolerance",
    "eigen_spectrum",
    "mode_residual",
    "windowed_singular_modes",
]


@dataclass(frozen=True, eq=False)
class DiracOperator:
    """One-channel discretization on the interior points of a grid."""

    grid: object            # full grid; the operator lives on its interior
    k_y: float
    interior_x: np.ndarray
    w_values: np.ndarray    # k_y + A_y at the interior points
    h: float
    bmax: float             # max |B|, sets the Landau scale sqrt(2 bmax)

    def __post_init__(self):
        self.interior_x.setflags(write=False)
        self.w_values.setflags(write=False)

    @property
    def size(self):
        return self.w_values.size

    def m_matvec(self, v):
        """(D + W) v with Dirichlet neighbours outside the interior.

        ``v`` is a vector or a block of columns; the product takes its dtype
        when that is wider than float64.
        """
        c = 1.0 / (2.0 * self.h)
        out = (self.w_values * v.T).T
        out[:-1] += c * v[1:]
        out[1:] -= c * v[:-1]
        return out

    def mt_matvec(self, u):
        """(D + W)^T u = (-D + W) u."""
        c = 1.0 / (2.0 * self.h)
        out = self.w_values * u
        out[:-1] -= c * u[1:]
        out[1:] += c * u[:-1]
        return out

    def mtm_band(self):
        """Lower band form (diag, 1st, 2nd subdiagonal) of the pentadiagonal M^T M."""
        w = self.w_values
        m = self.size
        c = 1.0 / (2.0 * self.h)
        idx = np.arange(m)
        band = np.zeros((3, m))
        band[0] = w * w + c * c * ((idx > 0).astype(float)
                                   + (idx < m - 1).astype(float))
        band[1, :m - 1] = c * (w[:-1] - w[1:])
        band[2, :m - 2] = -c * c
        return band


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues with the near-zero classification tolerance."""

    eigenvalues: np.ndarray
    zero_tolerance: float
    near_zero_count: int

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)


def build_operator(profile, k_y, grid, rtol=DEFAULT_RTOL,
                   enforce_padding=True):
    """Discretize the channel k_y of a line profile on the grid interior.

    A_y is computed analytically through the same quadrature engine as the
    potentials.  The operator is stored by its diagonal W and never
    assembled, so any size is accepted.
    """
    if profile.is_radial:
        raise ProfileError("build_operator needs a line profile")
    if grid.n - 2 < 2:
        raise GridError("operator needs at least 2 interior points")
    if enforce_padding:
        check_padding(profile, k_y, grid,
                      Q=total_flux(profile, rtol=rtol).value)
    x = grid.points()[1:-1]
    ay = vector_potential_y(profile, x, rtol=rtol)
    return DiracOperator(grid=grid, k_y=float(k_y), interior_x=x,
                         w_values=k_y + ay, h=grid.h,
                         bmax=float(profile.max_abs()))


def default_zero_tolerance(op):
    """0.1 sqrt(2 max|B|): a tenth of the first Landau gap."""
    if op.bmax <= 0.0:
        raise ValueError("field-free operator has no Landau scale; "
                         "pass tau explicitly")
    return 0.1 * math.sqrt(2.0 * op.bmax)


def _check_tau(bmax, tau):
    # written so that nan fails too: it would count nothing, inf everything
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if bmax > 0.0:
        gap = math.sqrt(2.0 * bmax)
        if tau >= 0.5 * gap:
            warnings.warn(f"zero tolerance {tau:.3g} is not below half the "
                          f"first gap {gap:.3g}; counts may absorb the first "
                          "excited cluster", stacklevel=3)


def eigen_spectrum(op, tau=None):
    """Full symmetric spectrum of the channel operator, ascending.

    The eigenvalues are the +- singular values of M, which are the square
    roots of the eigenvalues of the pentadiagonal M^T M (``eig_banded``);
    the chiral block structure makes the pairing exact.  Squaring leaves a
    singular value s an absolute error of about eps ||M^T M|| / s, so every
    value that may lie below tau is then refined on M itself
    (``_refine_near_null``) before the near-zero count is taken.  With a
    field the refinement stops at half the first gap sqrt(2 max|B|), where
    ``_check_tau`` warns, whatever tau: the squaring loss is negligible
    above it, and a larger tau would grow the refinement block, m doubles
    per column, to the whole spectrum.  A field-free operator has no gap,
    so every value below tau is refined.  The count is s < tau over all
    values either way.
    """
    if tau is None:
        tau = default_zero_tolerance(op)
    tau = float(tau)
    _check_tau(op.bmax, tau)
    band = op.mtm_band()
    ev = _mtm_eigenvalues(op, band)
    s = np.sqrt(np.clip(ev, 0.0, None))
    # every value whose square the rounding of eig_banded (far below
    # sqrt(eps) ||M^T M||) may have put on the wrong side of cut^2
    cut = tau if op.bmax <= 0.0 else min(tau, 0.5 * math.sqrt(2.0 * op.bmax))
    k = int(np.sum(ev < cut * cut + math.sqrt(np.finfo(float).eps)
                       * _mtm_norm(band)))
    if k:
        try:
            s[:k] = _refine_near_null(op, band, s, k)
        except np.linalg.LinAlgError as exc:
            raise EigenSolveError(
                f"near-null refinement failed for channel k_y={op.k_y} "
                f"(m={op.size}): {exc}") from exc
    s.sort()
    # one near-null singular value is one zero MODE, one +-pair of states
    count = int(np.sum(s < tau))
    vals = np.concatenate([-s[::-1], s])
    return Spectrum(eigenvalues=vals, zero_tolerance=tau, near_zero_count=count)


def _mtm_eigenvalues(op, band):
    """All eigenvalues of M^T M, ascending, from its lower band form."""
    try:
        return scipy.linalg.eig_banded(band, lower=True, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(
            f"symmetric eigensolver failed for channel k_y={op.k_y} "
            f"(m={op.size}): {exc}") from exc


def _mtm_norm(band):
    """Bound on ||M^T M|| from its lower band form (largest row sum)."""
    return float(np.max(np.abs(band[0])) + 2.0 * np.max(np.abs(band[1]))
                 + 2.0 * np.max(np.abs(band[2])))


def _refine_near_null(op, band, s, k):
    """The k smallest singular values of M, ascending, refined on M itself.

    ``s`` are all singular values as square roots of the eigenvalues of
    M^T M (band form ``band``), ascending.  Block inverse iteration with
    (M^T M + delta I)^-1, one O(m) band Cholesky solve per step from a fixed
    start block, converges to the singular subspace of the smallest values,
    and the refined values are the singular values of the m x b product M V
    (Rayleigh-Ritz on M): the squared operator only steers the subspace,
    whose error enters the values to second order.

    - ``eigen_spectrum`` caps k at the values below half the first gap
      when there is a field, so the m x b block does not grow with tau
      beyond that.
    - The block holds the k values and every value up to the first factor
      16 in the shifted squares s^2 + delta, so each step shrinks the rest
      of the spectrum in V by 16 or more and eight steps converge however
      close to tau the k-th value lies.
    - delta = 32 eps ||M^T M|| exceeds the rounding of forming and
      factoring M^T M, so the factorization cannot fail even for an exactly
      singular M; the shift leaves the eigenvectors as they are.
    - M V is formed in extended precision (``np.longdouble``) and rounded
      once: its rows cancel down to the size of s, and forming them in
      double leaves an error of up to about eps ||M|| in them.  Where the
      platform's long double is double, that is the accuracy.
    """
    m = op.size
    delta = 32.0 * np.finfo(float).eps * _mtm_norm(band)
    shifted = s * s + delta
    block = max(k, int(np.searchsorted(shifted, 16.0 * shifted[k - 1])))
    spd = band.copy()
    spd[0] += delta
    factor = scipy.linalg.cholesky_banded(spd, lower=True)
    v = np.random.default_rng(0).uniform(-1.0, 1.0, (m, block))
    for _ in range(8):
        v, _ = np.linalg.qr(scipy.linalg.cho_solve_banded((factor, True), v))
    mv = op.m_matvec(v.astype(np.longdouble)).astype(float)
    return scipy.linalg.svdvals(mv)[::-1][:k]


def mode_residual(op, mode, drop_edge=0):
    """Relative discrete residual ||H psi|| / ||psi|| of an analytic mode.

    The mode is embedded in its spinor block (b modes produce the residual
    M psi_b, a modes M^T psi_a).  Scaling is removed through the log samples,
    so steep modes do not overflow.  ``drop_edge`` rows at each end can be
    excluded: Dirichlet rows see the missing neighbour of non-decaying modes.
    The expected decay is O(h^2) times the cubed slope scale.
    """
    og, mg = op.grid, mode.grid
    if (og.x_lo, og.x_hi, og.n) != (mg.x_lo, mg.x_hi, mg.n):
        raise GridError("operator and mode live on different grids")
    logs = mode.log_values[1:-1]
    v = np.exp(logs - logs.max())
    if mode.sector.label == "b":
        resid = op.m_matvec(v)
    elif mode.sector.label == "a":
        resid = op.mt_matvec(v)
    else:
        raise ValueError("mode has no spin sector")
    if drop_edge > 0:
        resid = resid[drop_edge:-drop_edge]
    denom = float(np.linalg.norm(v))
    return float(np.linalg.norm(resid)) / denom


def _count_below(band, sigma):
    """Number of eigenvalues below sigma of the pentadiagonal M^T M.

    ``band`` is the lower band form of ``mtm_band``.  The count is the
    number of negative pivots of the unpivoted LDL^T of M^T M - sigma I
    (Sylvester's law of inertia).  A pivot smaller in magnitude than
    sqrt(eps) ||M^T M|| is replaced by minus that size, as Sturm counts
    replace a zero pivot by a tiny negative one.  The substitution perturbs
    the diagonal by no more than that size, so only eigenvalues that close
    to sigma can be miscounted, and it bounds the growth of the later pivots
    of this band-2 factorization, which a perturbation at rounding level
    would not.
    """
    if sigma <= 0.0:
        return 0   # M^T M is positive semidefinite
    diag = (band[0] - sigma).tolist()
    sub1 = [0.0] + band[1, :-1].tolist()         # A[i, i-1]
    sub2 = [0.0, 0.0] + band[2, :-2].tolist()    # A[i, i-2]
    pivmin = math.sqrt(np.finfo(float).eps) * _mtm_norm(band)
    count = 0
    d2 = d1 = 1.0    # pivots of rows i-2 and i-1
    l1 = 0.0         # L[i-1, i-2]
    for a, e, f in zip(diag, sub1, sub2):
        u = e - f * l1                           # L[i, i-1] D[i-1]
        l1 = u / d1
        d = a - u * l1 - f * (f / d2)
        if abs(d) < pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
        d2, d1 = d1, d
    return count


def windowed_singular_modes(op, lo, hi):
    """Singular values of M in [lo, hi] with their right singular vectors.

    The window's count k comes from two inertia counts of M^T M at lo^2 and
    hi^2 (O(m) each); an empty window returns at once.  Otherwise the k
    eigenpairs of the pentadiagonal M^T M nearest the middle of the squared
    window, which are exactly the ones inside it, come from shift-invert
    Lanczos (ARPACK) with a fixed start vector, so repeated runs give the
    same vectors.  The cost is O(m) per Lanczos step rather than the O(m^2)
    of a banded eigensolver.  Values are ascending; the vectors are the
    b-sector components, suitable for smooth/staggered and bulk/edge
    classification.
    """
    if not 0.0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi for a singular-value window")
    band = op.mtm_band()
    m = op.size
    lo2, hi2 = lo * lo, hi * hi
    k = _count_below(band, hi2) - _count_below(band, lo2)
    if k == 0:
        return np.empty(0), np.empty((m, 0))
    try:
        if k >= m:   # the whole spectrum: ARPACK needs k < m
            vals, vecs = scipy.linalg.eig_banded(band, lower=True)
        else:
            mtm = scipy.sparse.diags(
                [band[2, :m - 2], band[1, :m - 1], band[0],
                 band[1, :m - 1], band[2, :m - 2]],
                [-2, -1, 0, 1, 2], format="csc")
            # ARPACK's default start vector is random
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, m)
            vals, vecs = scipy.sparse.linalg.eigsh(
                mtm, k, sigma=0.5 * (lo2 + hi2), v0=v0)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # ArpackError and SuperLU's singular-factor error are RuntimeErrors
        raise EigenSolveError(
            f"windowed eigensolver failed for k_y={op.k_y} "
            f"(m={m}, {k} values in the window): {exc}") from exc
    order = np.argsort(vals)
    return np.sqrt(np.clip(vals[order], 0.0, None)), vecs[:, order]

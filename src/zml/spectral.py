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
+-singular values of M.  With J = diag((-1)^i), J D J = -D = D^T and
J W J = W, so M^T = J M J and A = J M is symmetric tridiagonal, with
diagonal (-1)^i w_i and off-diagonal (-1)^i / (2h)
(``DiracOperator.tridiagonal``).  Since A^2 = M^T J J M = M^T M, the
singular values of M are |eig(A)| and the eigenvectors of A are right
singular vectors of M, with no squaring.  Every spectral primitive is one
of LAPACK's tridiagonal routines on A, and nothing is assembled densely:

- ``eigen_spectrum`` takes every eigenvalue of A from ``dsterf``
  (implicit QL/QR, O(m^2)).  Their absolute error, about eps ||A||, still
  falls on the near-null values the zero-mode count rests on, so every
  value that may lie below the zero tolerance is then refined on M itself:
  ``windowed_singular_modes`` gives their singular subspace from the
  ``dstein`` eigenvectors of A, and the values are the singular values of
  M restricted to it (Rayleigh-Ritz), accurate relative to their own size
  (cf. Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 873 (1990), on the
  accuracy of small singular values).
- Channel sweeps need no full spectrum.  The number of singular values
  below s is the number of eigenvalues of A in (-s, s], two Sturm counts of
  A by ``dstebz`` (Parlett, The Symmetric Eigenvalue Problem, ch. 3): O(m).
- ``windowed_singular_modes`` takes the eigenvalues of A in the window and
  in its mirror image by bisection (``dstebz``) and their vectors by inverse
  iteration (``dstein``), O(m) per value (Anderson et al., LAPACK Users'
  Guide, 3rd ed., 1999).  A sweep is therefore O(m) per channel.

SciPy's LAPACK is imported by the first such call (``_lapack``), not with
the module, so the stages that take no channel spectrum never load SciPy.

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

    def tridiagonal(self):
        """(diagonal, off-diagonal) of A = J M, J = diag((-1)^i): the
        symmetric tridiagonal with A^2 = M^T M."""
        c = 1.0 / (2.0 * self.h)
        sign = np.ones(self.size)
        sign[1::2] = -1.0
        return sign * self.w_values, c * sign[:-1]


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

    The eigenvalues are the +- singular values of M, the |eigenvalues| of
    the tridiagonal A = J M (``dsterf``); the chiral block structure makes
    the pairing exact.  Their absolute error of about eps ||A|| would still
    decide the near-null values, so every value that may lie below tau is
    then refined on M itself before the near-zero count is taken: the
    ``dstein`` eigenvectors V of A for those values
    (``windowed_singular_modes``) span their right singular subspace, and
    the refined values are the singular values of the m x k product M V
    (Rayleigh-Ritz on M).  M V is formed in extended precision
    (``np.longdouble``) and rounded once: its rows cancel down to the size
    of the values, and forming them in double leaves an error of up to
    about eps ||M|| in them.  Where the platform's long double is double,
    that is the accuracy.  With a field the refinement stops at half the
    first gap sqrt(2 max|B|), where ``_check_tau`` warns, whatever tau: the
    values above it are accurate as they are, and a larger tau would grow
    V, m doubles per column, to the whole spectrum.  A field-free operator
    has no gap, so every value below tau is refined.  The count is s < tau
    over all values either way.
    """
    if tau is None:
        tau = default_zero_tolerance(op)
    tau = float(tau)
    _check_tau(op.bmax, tau)
    s = _singular_values(op)
    # every value below cut + sqrt(eps) ||A||, ||A|| the largest value: a
    # margin far above the rounding of dsterf and dstebz, so none below cut
    # is missed
    cut = tau if op.bmax <= 0.0 else min(tau, 0.5 * math.sqrt(2.0 * op.bmax))
    _, v = windowed_singular_modes(
        op, 0.0, cut + math.sqrt(np.finfo(float).eps) * s[-1])
    k = v.shape[1]
    if k:
        mv = op.m_matvec(v.astype(np.longdouble)).astype(float)
        try:
            s[:k] = np.linalg.svd(mv, compute_uv=False)[::-1]
        except np.linalg.LinAlgError as exc:
            raise EigenSolveError(
                f"near-null refinement failed for channel k_y={op.k_y} "
                f"(m={op.size}): {exc}") from exc
    s.sort()
    # one near-null singular value is one zero MODE, one +-pair of states
    count = int(np.sum(s < tau))
    vals = np.concatenate([-s[::-1], s])
    return Spectrum(eigenvalues=vals, zero_tolerance=tau, near_zero_count=count)


def _lapack_ok(op, routine, info, window=None):
    """Raise EigenSolveError for a nonzero LAPACK ``info``."""
    if info != 0:
        held = "" if window is None else f", {window} values in the window"
        raise EigenSolveError(
            f"{routine} failed for channel k_y={op.k_y} "
            f"(m={op.size}{held}): LAPACK info={info}")


def _lapack():
    """SciPy's LAPACK wrappers, imported on the first spectral call."""
    from scipy.linalg import lapack
    return lapack


def _singular_values(op):
    """All singular values of M, ascending: |eig(A)| by ``dsterf``."""
    vals, info = _lapack().dsterf(*op.tridiagonal())
    _lapack_ok(op, "dsterf", info)
    return np.sort(np.abs(vals))


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


def _sturm_count(op, s):
    """Number of singular values of M below s: eigenvalues of A in (-s, s].

    ``dstebz`` counts them with two Sturm sequences of A; an absolute
    tolerance above 2s leaves it nothing to bisect.  Only values within
    about eps ||A|| of s can be miscounted.
    """
    if s <= 0.0:
        return 0   # the singular values are not negative
    d, e = op.tridiagonal()
    count, _, _, _, info = _lapack().dstebz(d, e, 1, -s, s, 0, 0, 4.0 * s, b"B")
    _lapack_ok(op, "dstebz", info)
    return int(count)


def windowed_singular_modes(op, lo, hi):
    """Singular values of M in [lo, hi] with their right singular vectors.

    The values are the eigenvalues of A in (lo, hi] and in (-hi, -lo],
    each singular value once, found by bisection (``dstebz``); an empty
    window costs its four Sturm counts only.  Their eigenvectors, which
    are right singular vectors of M, come from inverse iteration on A
    (``dstein``), deterministic and O(m) per value rather than the O(m^2)
    of a full eigensolver.  Values are ascending; the vectors are the
    b-sector components, suitable for smooth/staggered and bulk/edge
    classification.
    """
    if not 0.0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi for a singular-value window")
    if lo == hi:
        return np.empty(0), np.empty((op.size, 0))
    d, e = op.tridiagonal()
    lapack = _lapack()
    vals, blocks = [], []
    for vl, vu in ((-hi, -lo), (lo, hi)):
        k, w, iblock, isplit, info = lapack.dstebz(d, e, 1, vl, vu, 0, 0,
                                                   0.0, b"B")
        _lapack_ok(op, "dstebz", info)
        vals.append(w[:k])
        blocks.append(iblock[:k])
    k = sum(v.size for v in vals)
    if k == 0:
        return np.empty(0), np.empty((op.size, 0))
    vals, blocks = np.concatenate(vals), np.concatenate(blocks)
    # dstein takes the values grouped by block, ascending within each,
    # and an m-long block array of which it reads the first k entries
    order = np.lexsort((vals, blocks))
    iblock[:k] = blocks[order]
    vecs, info = lapack.dstein(d, e, vals[order], iblock, isplit)
    _lapack_ok(op, "dstein", info, k)
    svals = np.abs(vals[order])
    order = np.argsort(svals, kind="stable")
    return svals[order], vecs[:, order]

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
  accuracy of small singular values).  The product M V is a compensated
  dot product in float64 (``DiracOperator.m_matvec``), as accurate as if
  formed in twice the working precision and rounded once, and the same
  bits on every platform.
- Channel sweeps need no full spectrum.  The number of singular values
  below s is the number of eigenvalues of A in (-s, s], two Sturm counts of
  A by ``dstebz`` (Parlett, The Symmetric Eigenvalue Problem, ch. 3): O(m).
- ``windowed_singular_modes`` takes the eigenvalues of A in the window and
  in its mirror image by bisection (``dstebz``) and their vectors by inverse
  iteration (``dstein``), O(m) per value (Anderson et al., LAPACK Users'
  Guide, 3rd ed., 1999).  A sweep is therefore O(m) per channel.  The
  bisection stops at eps^(2/3) ||A||, not ulp ||A||: inverse iteration
  from a shift that close already gives vectors as good as a
  full-precision shift, except against a neighbour closer than
  eps^(1/3) ||A||, which Rayleigh-Ritz parts.  The window is bisected
  that much wider at both edges, so a neighbour across an edge has a
  vector of its own too, and only the Ritz values (Rayleigh quotients)
  that fall in the window are returned, accurate to about eps ||A||
  again (Parlett, ch. 4 and 11).

SciPy's LAPACK is imported by the first such call (``_lapack``), not with
the module, so the stages that take no channel spectrum never load SciPy.

Every spectral tolerance is a fraction of one scale, ``DiracOperator.gap``,
the first Landau gap sqrt(2 max|B|) (inf with no field): the default zero
tolerance is a tenth of it, ``_check_tau`` warns at half of it, and
``eigen_spectrum`` refines below min(tau, gap / 2).  In units hbar = e = 1
no other scale enters, so the dilation x -> x / c, B -> c^2 B(c x),
k -> c k leaves every count alone and scales every eigenvalue and
tolerance by c, exactly when c is a power of two.

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
from .potential import vector_potential_y
from .profiles import DEFAULT_RTOL

__all__ = [
    "DiracOperator",
    "Spectrum",
    "build_operator",
    "default_zero_tolerance",
    "eigen_spectrum",
    "mode_residual",
    "windowed_singular_modes",
]


_SPLITTER = 134217729.0   # 2^27 + 1: Dekker's split of a float64


def _split(a):
    """(a, hi, lo) with a = hi + lo exactly, each half 26 bits or fewer.

    _SPLITTER a overflows for |a| above about 2^997, so a value above 2^996
    is split at 2^-28 times its size and both halves are scaled back; either
    scaling is exact, and every smaller value keeps its bits.
    """
    scale = np.where(np.abs(a) > 2.0 ** 996, 2.0 ** -28, 1.0)
    scaled = a * scale
    t = _SPLITTER * scaled
    hi = (t - (t - scaled)) / scale
    return a, hi, a - hi


def _two_product(a, b):
    """fl(a b) and its exact error, from two ``_split`` triples (Dekker)."""
    (a, a_hi, a_lo), (b, b_hi, b_lo) = a, b
    p = a * b
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _two_sum(a, b):
    """fl(a + b) and its exact error (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


@dataclass(frozen=True, eq=False)
class DiracOperator:
    """One-channel discretization on the interior points of a grid."""

    grid: object            # full grid; the operator lives on its interior
    k_y: float
    interior_x: np.ndarray
    w_values: np.ndarray    # k_y + A_y at the interior points
    h: float
    bmax: float             # max |B|

    def __post_init__(self):
        self.interior_x.setflags(write=False)
        self.w_values.setflags(write=False)

    @property
    def size(self):
        return self.w_values.size

    @property
    def gap(self):
        """sqrt(2 max|B|), the first Landau gap: the one scale every
        spectral tolerance is a fraction of; inf with no field."""
        return math.sqrt(2.0 * self.bmax) if self.bmax > 0.0 else math.inf

    def m_matvec(self, v):
        """(D + W) v with Dirichlet neighbours outside the interior.

        ``v`` is a float64 vector or a block of columns.  Row i is the dot
        product w_i v_i + c v_{i+1} - c v_{i-1}, c = 1/(2h), computed as
        Dot2 (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955 (2005)):
        each product is split into its float64 value and exact error
        (``_two_product``), the values are summed with the exact error of
        each addition (``_two_sum``), and the errors are added back before
        the one final rounding.  The result is as accurate as if formed in
        twice the working precision and rounded once: within
        eps |exact| + O(eps^2) sum |terms| of the exact row, so a row that
        cancels down to the size of a near-null singular value keeps its
        leading digits.  Every step is float64, the same on every platform.
        """
        w = _split(self.w_values if v.ndim == 1 else self.w_values[:, None])
        c = 1.0 / (2.0 * self.h)
        vs = _split(v)
        out, err = _two_product(w, vs)
        for rows, terms, coef in ((np.s_[:-1], np.s_[1:], _split(c)),
                                  (np.s_[1:], np.s_[:-1], _split(-c))):
            prod, prod_err = _two_product(coef, [a[terms] for a in vs])
            out[rows], sum_err = _two_sum(out[rows], prod)
            err[rows] += sum_err + prod_err
        return out + err

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


def build_operator(profile, k_y, grid, rtol=DEFAULT_RTOL):
    """Discretize the channel k_y of a line profile on the grid interior.

    A_y is computed analytically through the same quadrature engine as the
    potentials.  The operator is stored by its diagonal W and never
    assembled, so any size is accepted; so is any padding, which is the
    caller's ``check_padding``.
    """
    if profile.is_radial:
        raise ProfileError("build_operator needs a line profile")
    if grid.n - 2 < 2:
        raise GridError("operator needs at least 2 interior points")
    x = grid.points()[1:-1]
    ay = vector_potential_y(profile, x, rtol=rtol)
    return DiracOperator(grid=grid, k_y=float(k_y), interior_x=x,
                         w_values=k_y + ay, h=grid.h,
                         bmax=float(profile.max_abs()))


def default_zero_tolerance(op):
    """A tenth of the first Landau gap ``op.gap``; inf with no field."""
    return 0.1 * op.gap


def _check_tau(gap, tau):
    # written so that nan fails too: it would count nothing, inf everything
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
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
    (Rayleigh-Ritz on M).  The rows of M V cancel down to the size of the
    values, and a plain float64 product leaves an error of up to about
    eps ||M|| in them; ``m_matvec`` forms them as a compensated dot product
    (Dot2) in float64, as accurate as if formed in twice the working
    precision and rounded once, on every platform.  The refinement stops
    at half the first gap ``op.gap``, where ``_check_tau`` warns, whatever
    tau: the values above it are accurate as they are, and a larger tau
    would grow V, m doubles per column, to the whole spectrum.  A
    field-free operator's gap is inf: it needs an explicit tau, and every
    value below it is refined.
    The count is s < tau over all values either way.
    """
    if tau is None:
        if math.isinf(op.gap):
            raise ValueError("a field-free channel has no Landau scale to "
                             "default tau from; pass tau")
        tau = default_zero_tolerance(op)
    tau = float(tau)
    _check_tau(op.gap, tau)
    s = _singular_values(op)
    # every value below min(tau, gap/2) + sqrt(eps) ||A||, ||A|| the largest
    # value: a margin far above the rounding of dsterf and dstebz, so none
    # below min(tau, gap/2) is missed
    cut = min(tau, 0.5 * op.gap) + math.sqrt(np.finfo(float).eps) * s[-1]
    _, v = windowed_singular_modes(op, 0.0, cut)
    k = v.shape[1]
    if k:
        mv = op.m_matvec(v)
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
    M psi_b, a modes M^T psi_a, whose norm is that of M J psi_a since
    M^T = J M J).  Scaling is removed through the log samples, so steep
    modes do not overflow.  ``drop_edge`` rows at each end can be
    excluded: Dirichlet rows see the missing neighbour of non-decaying modes.
    The expected decay is O(h^2) times the cubed slope scale.
    """
    og, mg = op.grid, mode.grid
    if (og.x_lo, og.x_hi, og.n) != (mg.x_lo, mg.x_hi, mg.n):
        raise GridError("operator and mode live on different grids")
    logs = mode.log_values[1:-1]
    v = np.exp(logs - logs.max())
    if mode.sector.label == "a":
        v[1::2] *= -1.0   # J v: a sign flip, so every norm is unchanged
    elif mode.sector.label != "b":
        raise ValueError("mode has no spin sector")
    resid = op.m_matvec(v)
    if drop_edge > 0:
        resid = resid[drop_edge:-drop_edge]
    # math.hypot scales as it sums, so finite entries give a finite norm
    # (np.linalg.norm squares them first)
    return math.hypot(*resid) / math.hypot(*v)


def _gap_runs(vals, tol):
    """Slices of the ascending ``vals`` split wherever a gap exceeds tol."""
    edges = [0, *(np.flatnonzero(np.diff(vals) > tol) + 1).tolist(), vals.size]
    return [slice(a, b) for a, b in zip(edges, edges[1:]) if a < b]


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

    The values are the |eigenvalues| of A in [lo, hi], each singular
    value once; their number is that of the Sturm counts at the window's
    edges, and a window with nothing near it costs its Sturm counts
    only.  Their eigenvectors, which are right singular vectors of M, come
    from inverse iteration on A (``dstein``), deterministic and O(m) per
    value rather than the O(m^2) of a full eigensolver.

    Inverse iteration needs no shift to full precision.  Bisection
    (``dstebz``) therefore locates the values to eps^(2/3) ||A|| only, with
    ||A|| <= max|w| + 1/h by Gershgorin, rather than to ulp ||A||.  From a
    shift that far off, the three steps of ``dstein`` leave a neighbour at
    distance g in the vector with a relative weight of about
    (eps^(2/3) ||A|| / g)^3, which is below eps once g exceeds
    eps^(1/3) ||A||: as good as a full-precision shift.  Closer neighbours
    get a vector of their own: the window is bisected eps^(1/3) ||A||
    wider at both edges, once per sign half (the halves meet at 0 when the
    widening reaches it), and the vectors of each run of values closer
    than eps^(1/3) ||A|| are rotated to the Ritz vectors of A on their span
    (Rayleigh-Ritz), which parts them as well as A's conditioning allows.
    Only the values that fall in [lo, hi] are returned.  Which values those
    are is decided by the Ritz values, which are accurate to about
    eps ||A||, so a singular value within 1e-12 ||A|| of lo or hi may fall
    on either side of that edge.

    The values returned are the Ritz values |theta| (for a lone value the
    Rayleigh quotient |v^T A v|, one O(m) product), whose error is
    quadratic in the vectors' and so about eps ||A|| again (Parlett, The
    Symmetric Eigenvalue Problem, ch. 4 and 11).  A tolerance of
    sqrt(eps) ||A|| is not enough: the weight above also scales with the
    ratio of the start vector's components, and one start vector left
    1e-10 of a neighbour 8e-3 away; and with no widening, a window edge
    between two levels 1e-6 apart mixes the level outside into the vector
    of the one inside.  Values are ascending; the vectors are the b-sector
    components, suitable for smooth/staggered and bulk/edge
    classification.
    """
    if not 0.0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi for a singular-value window")
    d, e = op.tridiagonal()
    eps = np.finfo(float).eps
    norm = float(np.max(np.abs(op.w_values))) + 1.0 / op.h  # Gershgorin
    abstol = eps ** (2.0 / 3.0) * norm
    margin = eps ** (1.0 / 3.0) * norm
    lapack = _lapack()
    # widened by margin, so a neighbour across an edge has its own vector;
    # the two half-open windows meet at 0 once the widening reaches it
    inner = max(lo - margin, 0.0)
    windows = [(-hi - margin, -inner), (inner, hi + margin)]
    found = []
    for vl, vu in windows:
        k, w, iblock, isplit, info = lapack.dstebz(d, e, 1, vl, vu, 0, 0,
                                                   abstol, b"B")
        _lapack_ok(op, "dstebz", info)
        found.append((w[:k], iblock[:k]))
    vals = np.concatenate([w for w, _ in found])
    blocks = np.concatenate([b for _, b in found])
    k = vals.size
    if k == 0:
        return np.empty(0), np.empty((op.size, 0))
    # dstein takes the values grouped by block, ascending within each,
    # and an m-long block array of which it reads the first k entries;
    # isplit, A's splitting into blocks, is the same for every window
    order = np.lexsort((vals, blocks))
    vals = vals[order]
    iblock = np.zeros(op.size, dtype=blocks.dtype)
    iblock[:k] = blocks[order]
    vecs, info = lapack.dstein(d, e, vals, iblock, isplit)
    _lapack_ok(op, "dstein", info, k)
    # Ritz values: Rayleigh quotients, and on each run of values closer
    # than margin the eigenvalues of V^T A V, the vectors rotated to match
    av = d[:, None] * vecs
    av[:-1] += e[:, None] * vecs[1:]
    av[1:] += e[:, None] * vecs[:-1]
    theta = np.einsum("ij,ij->j", vecs, av)
    for run in _gap_runs(vals, margin):
        if run.stop - run.start > 1:
            g = vecs[:, run].T @ av[:, run]
            try:
                theta[run], rot = np.linalg.eigh(0.5 * (g + g.T))
            except np.linalg.LinAlgError as exc:
                raise EigenSolveError(
                    f"Rayleigh-Ritz failed for channel k_y={op.k_y} "
                    f"(m={op.size}, {k} values in the window): {exc}"
                ) from exc
            vecs[:, run] = vecs[:, run] @ rot
    svals = np.abs(theta)
    inside = np.flatnonzero((svals >= lo) & (svals <= hi))
    order = inside[np.argsort(svals[inside], kind="stable")]
    return svals[order], vecs[:, order]

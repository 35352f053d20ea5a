"""Cumulative moments of any field profile, and the Green-kernel
convolutions built from them: the package's only quadrature, and so the
only QuadratureError (the fluxes are ``zml.profiles``' closed forms).

Every convolution of a compactly supported field B is a combination of its
cumulative moments

    F(x) = int_lo^x B dt,   G(x) = int_lo^x (t - c) B dt,
    H(r) = int_lo^r t ln(t) B dt.

On the line, with c the centre of the support (so that a support far from
the origin does not cancel in G) and a subscript 1 for the moment over the
whole support,

    lambda(x) = int 1/2 |x - t| B dt      = 1/2 [(x - c)(2F - F1) - (2G - G1)]
    A_y(x)    = int 1/2 sign(x - t) B dt  = F - F1/2

and in the radial plane, with G taken about c = 0,

    lambda(r) = int t B ln(max(r, t)) dt  = G(r) ln r + (H1 - H(r)),

the r = 0 term G ln r being 0.  For r > 0, H1 - H(r) is summed over the
cells right of r, not taken as a difference: just inside the support's
outer edge it is small next to H1.  The fluxes are F1 and 2 pi G1.

All moments come from one pass.  The support ends, the profile breakpoints
and the query points inside the support split [lo, hi] into cells, each cell
is integrated with the Gauss-Kronrod 7/15 pair of QUADPACK's QK15 (Piessens
et al., 1983), and a cumsum over the cells gives the moments at every node.
A cell whose estimate |K15 - G7| misses its width-proportional share of
rtol * int |w B| is bisected, level by level.  As in QUADPACK, int |w B| is
the current estimate, recomputed each round as the sum over the cells
accepted so far and the round's own, so a narrow peak that the first cells
miss does not shrink the tolerance.  The error estimate is floored at
50 eps int |w B| over the cell, and the depth and the number of bisections
are capped, so an unreachable tolerance fails quickly with a
QuadratureError that carries the requested and the achieved error.

The radial weight t ln t has an unbounded derivative at t = 0, where
bisection would halve the cell at the origin about 20 times, one round each,
so a support starting at 0 also has the nodes first 2^-d, d = 1 ... MAX_DEPTH,
first being the smallest node above 0.  They are exact, so they scale exactly
under a dilation by a power of 2, and their cells are checked and bisected as
any other.
"""

import numpy as np

from .errors import QuadratureError

MAX_DEPTH = 30
MAX_SPLITS = 1 << 15   # bisections per call: bounds the work when the
                       # tolerance is unreachable
_EPS50 = 50.0 * np.finfo(float).eps

# QK15 abscissae on [0, 1] (descending) and weights; the Gauss 7-point rule
# uses every second Kronrod node
_XK = np.array([0.991455371120812639206854697526329,
                0.949107912342758524526189684047851,
                0.864864423359769072789712788640926,
                0.741531185599394439863864773280788,
                0.586087235467691130294144845693013,
                0.405845151377397166906606412076961,
                0.207784955007898467600689403773245,
                0.0])
_WK = np.array([0.022935322010529224963732008058970,
                0.063092092629978553290700663189204,
                0.104790010322250183839876322541518,
                0.140653259715525918745189590510238,
                0.169004726639267902826583426598550,
                0.190350578064785409913256402421014,
                0.204432940075298892414161999234649,
                0.209482141084727828012999174891714])
_WG = np.array([0.0, 0.129484966168869693270611432679082,
                0.0, 0.279705391489276667901467771423780,
                0.0, 0.381830050505118944950369775488975,
                0.0, 0.417959183673469387755102040816327])


def _mirror(half, sign):
    return np.concatenate([sign * half[:-1], half[::-1]])


_NODES = _mirror(_XK, -1.0)
_KRONROD = _mirror(_WK, 1.0)
_RULES = np.stack([_KRONROD, _mirror(_WG, 1.0)])   # K15 and G7 weights


def _gk15(profile, weights, a, b):
    """Per weight and cell [a, b]: the K15 value, its error estimate and int |w B|."""
    half = 0.5 * (b - a)
    t = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    f = profile(t)
    fw = np.stack([w(t) * f for w in weights])
    # np.einsum, not BLAS: BLAS's per-row sums change with the batch's shape
    # and the CPU kernel it picks at run time, so a cell would integrate to
    # other bits alone than inside a batch, or on another machine
    k, gauss = np.einsum("...j,rj->r...", fw, _RULES) * half
    mag = np.einsum("...j,j->...", np.abs(fw), _KRONROD) * half
    err = np.maximum(np.abs(k - gauss), _EPS50 * mag)
    return k, err, mag


def _moments(profile, xs, weights, rtol):
    """Prefix moments int_lo^x w(t) B(t) dt at each x, one row per weight.

    Returns the prefixes (clamped to 0 left of the support and to the total
    right of it), the totals over the support, and the suffixes int_x^hi:
    each summed from the cells right of x alone, so a small tail keeps its
    digits where the total less the prefix would cancel.
    """
    lo, hi = profile.support
    xs = np.asarray(xs, dtype=float).ravel()
    nodes = np.unique(np.concatenate(
        ([lo, hi], profile.seeds, xs[(xs > lo) & (xs < hi)])))
    if lo == 0.0 and _t_log_t in weights:
        nodes = np.unique(np.concatenate(
            (nodes, np.ldexp(nodes[1], -np.arange(1, MAX_DEPTH + 1)))))
    a, b = nodes[:-1], nodes[1:]
    accepted = 0.0   # int |w B| over the cells accepted so far, per weight
    cells = []
    splits = 0
    for depth in range(MAX_DEPTH + 1):
        k, err, mag = _gk15(profile, weights, a, b)
        tol = rtol * (accepted + mag.sum(axis=1))
        rate = (tol / (hi - lo))[:, None]
        bad = np.any(err > rate * (b - a), axis=0)
        accepted += mag[:, ~bad].sum(axis=1)
        cells.append((b[~bad], k[:, ~bad], err[:, ~bad]))
        a, b, k, err = a[bad], b[bad], k[:, bad], err[:, bad]
        if not b.size or depth == MAX_DEPTH or splits + b.size > MAX_SPLITS:
            break
        splits += b.size
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    if b.size:
        # cells left unresolved at the depth or bisection cap
        cells.append((b, k, err))
        achieved = sum(e.sum(axis=1) for _, _, e in cells)
        worst = int(np.argmax(achieved - tol))
        if achieved[worst] > tol[worst]:
            raise QuadratureError(
                f"quadrature did not converge: requested tolerance "
                f"{tol[worst]:.3e}, achieved error estimate {achieved[worst]:.3e}",
                requested=float(tol[worst]), achieved=float(achieved[worst]))
    ends = np.concatenate([c[0] for c in cells])
    order = np.argsort(ends)
    values = np.concatenate([c[1] for c in cells], axis=1)[:, order]
    zero = np.zeros((len(weights), 1))
    prefix = np.concatenate([zero, np.cumsum(values, axis=1)], axis=1)
    suffix = np.concatenate(
        [np.cumsum(values[:, ::-1], axis=1)[:, ::-1], zero], axis=1)
    idx = np.searchsorted(np.concatenate([[lo], ends[order]]),
                          np.clip(xs, lo, hi))
    return prefix[:, idx], prefix[:, -1], suffix[:, idx]


def _one(t):
    return 1.0


def _t(t):
    return t


def _t_log_t(t):
    # its limit 0 at t = 0, a node only of a cell [0, b] with b subnormal
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0.0, t * np.log(t), 0.0)


def convolve_abs(profile, xs, rtol):
    """int 1/2 |x - t| B(t) dt for every x in xs."""
    x = np.asarray(xs, dtype=float)
    c = 0.5 * (profile.support[0] + profile.support[1])
    (f, g), (f1, g1), _ = _moments(profile, x, (_one, lambda t: t - c), rtol)
    out = 0.5 * ((x.ravel() - c) * (2.0 * f - f1) - (2.0 * g - g1))
    return out.reshape(x.shape)


def convolve_sign(profile, xs, rtol):
    """int 1/2 sign(x - t) B(t) dt for every x in xs; exactly -/+ F1/2 outside."""
    x = np.asarray(xs, dtype=float)
    (f,), (f1,), _ = _moments(profile, x, (_one,), rtol)
    return (f - 0.5 * f1).reshape(x.shape)


def convolve_log_radial(profile, rs, rtol):
    """int t B(t) ln(max(r, t)) dt for every radius r in rs (r0 = 1)."""
    r = np.asarray(rs, dtype=float)
    (g, _), (_, h1), (_, tail) = _moments(profile, r, (_t, _t_log_t), rtol)
    # at r = 0 the total, summed from the origin: the suffix would add the
    # deepest origin cells last, where they vanish below half an ulp
    positive = r.ravel() > 0.0
    log_r = np.log(np.where(positive, r.ravel(), 1.0))
    return (g * log_r + np.where(positive, tail, h1)).reshape(r.shape)

"""Radial grids, quadrature weights, and discretized quadratic forms.

The weighted Hardy-Poincare inequality

    Lambda * int f^2 (D+|x|^2)^(alpha-1) dx  <=  int |grad f|^2 (D+|x|^2)^alpha dx

decomposes over spherical-harmonic sectors l = 0, 1, 2, ...; on each sector it
becomes a one-dimensional generalized eigenvalue problem for the pair of
quadratic forms

    A_l(f) = int_0^inf (f'^2 + l(l+d-2) f^2/r^2) (D+r^2)^alpha r^(d-1) dr
    B(f)   = int_0^inf f^2 (D+r^2)^(alpha-1) r^(d-1) dr.

This module discretizes (A_l, B) with P1 finite elements on a sinh-graded
radial grid, Dirichlet for l >= 1 at the origin, and at R_max too where
beta = d - 2 + 2 alpha > 0, and computes sector bottom eigenvalues,
mean-zero for l = 0, by index, along one path, all of it on the pencil
scaled by the lumped mass: a lumped-mass tridiagonal eigensolve, bisected
only below a Courant-Fischer upper bound, gives the shift, and
consistent-mass inverse iteration with one factorization, started from the
vector of that bound, finishes it.
Nodal data, such as eigenvectors, are plain arrays of values at the grid
nodes; the SectorForms of a sector carry its grid and index l.
Truncated-domain eigenvalues are extrapolated to the infinite-domain limit
by a quantization-law fit whose root Brent's method (scalar._brent_root)
finds, which together verify the closed-form sharp constants numerically;
one grid is built on R_max and assembled once, the largest of the five
domains is that whole grid, each smaller domain is its first cells, and
every sector of a domain is formed from that one assembly by adding its
centrifugal term.  The three LAPACK routines of the eigensolver (dgttrf,
dgttrs, dstebz) come from fdrates._lapack, bound when this module is
imported, which loads scipy's LAPACK extension but not the scipy.linalg
package.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _lapack
from .exponents import sharp_rate
from .scalar import _brent_root

__all__ = [
    "RadialGrid",
    "SectorForms",
    "NonConvergenceError",
    "build_grid",
    "sphere_area",
    "cell_volumes",
    "assemble_sector_forms",
    "bottom_eigenvalue",
    "rayleigh_quotient",
    "sector_bottom",
    "verify_constants",
]


class NonConvergenceError(RuntimeError):
    """Eigensolver iteration cap reached; carries the last Rayleigh quotient."""

    def __init__(self, message, last_quotient):
        super().__init__(f"{message} (last Rayleigh quotient: {last_quotient!r})")
        self.last_quotient = last_quotient


class _GridFields(NamedTuple):
    nodes: np.ndarray
    d: int


class RadialGrid(_GridFields):
    """Nodes 0 = r_0 < ... < r_N = R_max of a radial grid in R^d (see
    build_grid)."""

    def __new__(cls, *args, **kwargs):  # a NamedTuple body cannot define it
        self = super().__new__(cls, *args, **kwargs)
        r = self.nodes
        if r[0] != 0.0 or np.any(np.diff(r) <= 0):
            raise ValueError("grid nodes must start at 0 and increase strictly")
        return self

    @property
    def R_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def N(self) -> int:
        return len(self.nodes) - 1


def build_grid(R_max: float, N: int, d: int, scale: float = 1.0) -> RadialGrid:
    """Build a radial grid on [0, R_max] with N cells, its nodes at
    r = scale*sinh(s), s uniform on [0, asinh(R_max/scale)]: they cluster near
    the origin and stretch toward R_max, where the critical case's algebraic
    tails reach, and doubling N nests the grid.  A domain on which the
    quadrature weights overflow, R_max^d (the cell volumes r^(d-1) dr) or
    R_max^2 (the profile's D + r^2) beyond the largest double, raises
    FloatingPointError."""
    if not R_max > 0:
        raise ValueError(f"R_max must be positive, got {R_max}")
    try:
        float(R_max) ** max(d, 2)
    except OverflowError:
        raise FloatingPointError(f"the weights overflow on the domain R_max = "
                                 f"{R_max}: R_max^{max(d, 2)} exceeds the "
                                 f"largest double") from None
    if N < 16:
        raise ValueError(f"need at least 16 cells, got N = {N}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    s = np.linspace(0.0, math.asinh(R_max / scale), N + 1)
    r = scale * np.sinh(s)
    r[0] = 0.0
    r[-1] = R_max
    return RadialGrid(nodes=r, d=int(d))


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d, |S^(d-1)| = 2 pi^(d/2)/Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def cell_volumes(grid: RadialGrid) -> np.ndarray:
    """Trapezoid node weights c_i * r_i^(d-1) for radial quadrature.

    Multiplying by sphere_area(d) turns a nodal sum into an approximation of
    the d-dimensional integral over the ball of radius R_max.  The first
    weight vanishes for d >= 2 (the surface factor kills the origin node).
    """
    r = grid.nodes
    c = np.empty_like(r)
    c[1:-1] = (r[2:] - r[:-2]) / 2.0
    c[0] = (r[1] - r[0]) / 2.0
    c[-1] = (r[-1] - r[-2]) / 2.0
    return c * r ** (grid.d - 1)


class SectorForms(NamedTuple):
    """P1 discretization of the sector-l quadratic forms (A, B).

    A and B are symmetric tridiagonal, stored by diagonals.  For l >= 1 the
    origin node carries the Dirichlet condition f(0) = 0 and is dropped from
    the matrices (dirichlet_origin is True), and so does the node at R_max,
    f(R_max) = 0, when beta = d - 2 + 2 alpha > 0 (see assemble_sector_forms).
    The n kept nodes are the ones after the dropped origin; vectors returned
    by the solvers are re-padded with the zero values.
    """

    grid: RadialGrid
    l: int
    a_diag: np.ndarray
    a_off: np.ndarray
    b_diag: np.ndarray
    b_off: np.ndarray

    def __repr__(self):  # the four diagonals stay out
        return f"SectorForms(grid={self.grid!r}, l={self.l!r})"

    @property
    def dirichlet_origin(self) -> bool:
        return self.l >= 1

    @property
    def n(self) -> int:
        return len(self.a_diag)

    def apply_a(self, x: np.ndarray) -> np.ndarray:
        return _tridiag_apply(self.a_diag, self.a_off, x)

    def apply_b(self, x: np.ndarray) -> np.ndarray:
        return _tridiag_apply(self.b_diag, self.b_off, x)

    def pad(self, x: np.ndarray) -> np.ndarray:
        """Extend a reduced coefficient vector to all grid nodes, with zeros
        at the Dirichlet nodes."""
        full = np.zeros(self.grid.N + 1)
        first = int(self.dirichlet_origin)
        full[first:first + self.n] = x
        return full

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The kept nodes of a full nodal vector, without its Dirichlet nodes."""
        first = int(self.dirichlet_origin)
        return values[first:first + self.n]


def _tridiag_apply(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def assemble_sector_forms(grid: RadialGrid, alpha: float, D: float,
                          l: int) -> SectorForms:
    """Assemble the P1 stiffness/mass pair for sector l on the given grid.

    Element integrals use 4-point Gauss-Legendre quadrature of the exact
    weights (D+r^2)^alpha r^(d-1) and (D+r^2)^(alpha-1) r^(d-1).  For l >= 1
    the origin is Dirichlet.  The boundary at R_max is natural (no-flux),
    except for l >= 1 when beta = d - 2 + 2 alpha > 0: there both forms of a
    function constant far out grow like R^beta, their quotient tends to
    l(l+d-2), below the infinite-domain bottom l(l+d-2) + lambda_cont, and
    R_max is Dirichlet instead.
    alpha and D may be exact (Fractions); the weights are evaluated in floats.
    """
    return next(_assemble_sectors(grid, alpha, D, (l,), (grid.N,)))[0]


# the 4-point Gauss-Legendre rule on [-1, 1], leggauss(4), without numpy.polynomial
_GL_NODES = np.array([-0.8611363115940526, -0.33998104358485626,
                      0.33998104358485626, 0.8611363115940526])
_GL_WEIGHTS = np.array([0.34785484513745357, 0.6521451548625464,
                        0.6521451548625464, 0.34785484513745357])
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


def _assemble_sectors(grid, alpha, D, ls, cells):
    """SectorForms of every sector l in ls, in order, on each domain made of
    the first c cells of grid, for c in cells: a generator that yields one
    list per domain, assembled only when it is asked for.

    The element integrals are evaluated once, on grid, and each domain sums
    its first c of them in the order that an assembly on its own grid would,
    so that its forms equal assemble_sector_forms on the grid of its nodes
    bit for bit.  Everything but the centrifugal term l(l+d-2) f^2/r^2 is
    independent of l: the quadrature points and weights, the P1 shape
    functions, the gradient part of A and all of B are evaluated once and
    shared, and each sector adds only its own term.  The sectors of one
    domain share the arrays of B.
    """
    alpha = float(alpha)
    D = float(D)
    r = grid.nodes
    d = grid.d
    h = np.diff(r)
    mid = (r[:-1] + r[1:]) / 2.0
    # shape (4, n_elem): quadrature points and weights, one row per Gauss
    # point, so that each element sum adds four contiguous rows
    x = mid + np.outer(_GL_NODES, h / 2.0)
    w = np.outer(_GL_WEIGHTS, h / 2.0)
    x2 = x**2
    xd = x ** (d - 1)
    # the mass weight (D + x^2)^(alpha-1) x^(d-1) is wa over D + x^2
    wa = (D + x2) ** alpha * xd
    wb = wa / (D + x2)
    p0 = (r[1:] - x) / h
    p1 = (x - r[:-1]) / h
    # the end of the kept nodes of a sector l >= 1: R_max is dropped too
    # where beta > 0 (see assemble_sector_forms)
    end = -1 if d - 2 + 2.0 * alpha > 0 else None

    # per element: the (0,0), (1,1) and (0,1) entries of each element matrix
    k = np.sum(wa * w, axis=0) / h**2  # gradient term, +/- per element
    mass = (np.sum(wb * p0 * p0 * w, axis=0), np.sum(wb * p1 * p1 * w, axis=0),
            np.sum(wb * p0 * p1 * w, axis=0))
    centrifugal = {}
    for l in ls:
        if l > 0:
            q = l * (l + d - 2) * wa / x2
            centrifugal[l] = (np.sum(q * p0 * p0 * w, axis=0),
                              np.sum(q * p1 * p1 * w, axis=0),
                              np.sum(q * p0 * p1 * w, axis=0))

    for c in cells:
        sub = grid if c == grid.N else RadialGrid(nodes=r[:c + 1], d=d)
        a_diag = np.zeros(c + 1)
        a_off = np.zeros(c)
        b_diag = np.zeros(c + 1)
        b_off = np.zeros(c)
        a_diag[:-1] += k[:c]
        a_diag[1:] += k[:c]
        a_off -= k[:c]
        b_diag[:-1] += mass[0][:c]
        b_diag[1:] += mass[1][:c]
        b_off += mass[2][:c]

        out = []
        for l in ls:
            ad, ao, bd, bo = a_diag, a_off, b_diag, b_off
            if l > 0:
                ad, ao = a_diag.copy(), a_off.copy()
                q00, q11, q01 = centrifugal[l]
                ad[:-1] += q00[:c]
                ad[1:] += q11[:c]
                ao += q01[:c]
                ad, ao, bd, bo = ad[1:end], ao[1:end], bd[1:end], bo[1:end]
            out.append(SectorForms(grid=sub, l=int(l), a_diag=ad, a_off=ao,
                                   b_diag=bd, b_off=bo))
        yield out


def rayleigh_quotient(f: np.ndarray, forms: SectorForms) -> float:
    """(f^T A f)/(f^T B f) for the nodal interpolant of the values f at the
    nodes of forms.grid."""
    x = forms.restrict(np.asarray(f, dtype=float))
    den = float(x @ forms.apply_b(x))
    if den == 0.0:
        raise ZeroDivisionError("zero B-norm in Rayleigh quotient")
    return float(x @ forms.apply_a(x)) / den


# the shift's upper bound is the Rayleigh quotient after _BOUND_STEPS solves
# with sAs + I; inverse iteration stops once the eigen-residual is below
# _EIGEN_TOL times its rounding scale, and raises NonConvergenceError after
# _EIGEN_MAXIT solves
_BOUND_STEPS = 3
_EIGEN_TOL = 1e-13
_EIGEN_MAXIT = 100


def _lumped_shift(forms: SectorForms):
    """The shift and start vector of bottom_eigenvalue: eigenvalue k of the
    lumped-mass pencil (A, L), with k = 1 for l = 0 and k = 0 otherwise, and
    the Courant-Fischer vector that bounds it, both on the pencil scaled by L.

    L = diag(row sums of B) and the scaling s = L^(-1/2) make the pencil
    (sAs, sLs) = (sAs, I), whose A diagonals are a symmetric tridiagonal
    matrix, and the constant, which A maps to zero, the unit vector z
    proportional to 1/s.  An upper bound u >= lambda_k comes first
    (Courant-Fischer): the Rayleigh quotient of any unit vector bounds
    lambda_0, and for k = 1 a unit vector orthogonal to z spans with z a
    space whose Ritz matrix is diag(0, quotient), so its quotient bounds
    lambda_1.  The vector is the grid radius divided by s, scaled by its
    largest entry, after _BOUND_STEPS steps of (sAs + I)^(-1), kept
    orthogonal to z for k = 1.  LAPACK dstebz then bisects only (-u', u'],
    u' = u (1 + 1e-12), to an absolute 1e-7 u', doubling u' until eigenvalue
    k lies inside.  Returns (sigma, v, s, scaled): v the unit bound vector
    and scaled the forms (sAs, sBs).  A scaling that is not finite, by a
    lumped mass not positive or so large or small that it overflows, raises
    FloatingPointError without a warning.
    """
    k = 1 if forms.l == 0 else 0
    lumped = forms.apply_b(np.ones(forms.n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = np.sqrt(lumped)
        s = 1.0 / root
        ss = s[:-1] * s[1:]
        scaled = forms._replace(a_diag=forms.a_diag * s * s, a_off=forms.a_off * ss,
                                b_diag=forms.b_diag * s * s, b_off=forms.b_off * ss)
    if not all(np.all(np.isfinite(x)) for x in (root, s, *scaled[2:])):
        raise FloatingPointError("lumped mass is not positive, or its scaling overflowed")
    v = forms.restrict(forms.grid.nodes) / s
    v /= np.max(v)
    z = root / np.linalg.norm(root)
    lu = _lapack.dgttrf(scaled.a_off, scaled.a_diag + 1.0, scaled.a_off)[:5]
    for _ in range(_BOUND_STEPS):
        if k:
            v -= (z @ v) * z
        v = _lapack.dgttrs(*lu, v)[0]
    if k:
        v -= (z @ v) * z
    v /= np.linalg.norm(v)
    u = float(v @ scaled.apply_a(v))
    if not 0.0 < u < math.inf:
        raise NonConvergenceError("no finite positive bound for the shift", u)
    vu = u * (1.0 + 1e-12)
    # range 1 asks dstebz for the eigenvalues in (vl, vu], order "E" sorts them
    while True:
        m, w, _, _, info = _lapack.dstebz(scaled.a_diag, scaled.a_off, 1, -vu, vu,
                                          0, 0, 1e-7 * vu, "E")
        if info:
            raise NonConvergenceError(f"dstebz failed with info = {info}", u)
        if m > k:
            return float(w[k]), v, s, scaled
        vu *= 2.0


def bottom_eigenvalue(forms: SectorForms):
    """Bottom eigenvalue of the pencil (A, B), mean-zero in sector l = 0.

    The eigenvalue is picked by index: k = 1 for l = 0, where the constant is
    an exact zero mode of A, so that eigenvector k is B-orthogonal to it (the
    mean-zero condition int f dmu_(alpha-1) = 0); k = 0 otherwise.
    The whole eigensolve runs on the pencil scaled by the lumped mass L,
    (sAs, sBs) with s = L^(-1/2), whose B diagonal lies in (0, 1] where that
    of B spans many decades.  Eigenvalue k of the lumped-mass pencil
    (_lumped_shift: LAPACK bisection over the range below a Courant-Fischer
    upper bound) gives the shift sigma, and the unit vector whose quotient
    is that bound is the start vector.  Consistent-mass inverse iteration
    runs from it, with sAs - sigma sBs factored once, until the eigen-residual
    |A f - lambda B f| is below 1e-13 times its rounding scale
    |A||f| + |lambda| B|f| (B has no negative entry), both in the scaled
    pencil and its coordinates, and raises NonConvergenceError after 100
    solves.  The eigenvector is s times the iterate.  The shift lies below:
    L - B, the sum of b [[1, -1], [-1, 1]] over B's off-diagonal b >= 0, is
    positive semidefinite, so sigma = lambda_k(A, L) <= lambda_k(A, B), and
    a solve contracts only by (lambda_k - sigma)/(lambda_(k+1) - sigma),
    which nears 1 on coarse stretched domains (0.84 at d = 3, alpha = -2,
    R = 1e40, N = 1600, l = 3), where the iteration stalls.

    Returns (lambda, f) with f the eigenvector's values at all grid nodes,
    normalized in the B-norm; for l >= 1 the origin carries the Dirichlet
    zero (SectorForms.pad).
    """
    sigma, x, s, sc = _lumped_shift(forms)
    # consistent-mass inverse iteration, sAs - sigma sBs factored once
    off = sc.a_off - sigma * sc.b_off
    lu = _lapack.dgttrf(off, sc.a_diag - sigma * sc.b_diag, off)[:5]
    abs_a = (np.abs(sc.a_diag), np.abs(sc.a_off))
    bf = sc.apply_b(x)
    lam = sigma
    for _ in range(_EIGEN_MAXIT):
        f = _lapack.dgttrs(*lu, bf)[0]
        bf = sc.apply_b(f)
        nrm = math.sqrt(float(f @ bf))
        f /= nrm
        bf /= nrm
        af = sc.apply_a(f)
        lam = float(f @ af)
        # rounding alone leaves a residual of order eps * (|A||f| + |lam| B|f|)
        f_abs = np.abs(f)
        scale = _tridiag_apply(*abs_a, f_abs) + abs(lam) * sc.apply_b(f_abs)
        if np.linalg.norm(af - lam * bf) <= _EIGEN_TOL * np.linalg.norm(scale):
            return lam, forms.pad(s * f)
    raise NonConvergenceError("inverse iteration did not converge", lam)


def sector_bottom(d: int, alpha: float, D: float, l: int, R_max: float, N: int):
    """Bottom eigenvalue of sector l on a truncated domain, mean-zero for l = 0.

    On any truncated domain the constant belongs to L^2(dmu_(alpha-1)) and is
    an exact zero mode of A, so the plain l = 0 bottom is always the trivial 0
    regardless of whether the measure is finite on the whole space; the
    mean-zero bottom is the quantity the closed-form constants describe.
    """
    grid = build_grid(R_max, N, d, scale=math.sqrt(D))
    return bottom_eigenvalue(assemble_sector_forms(grid, alpha, D, l))


def _quantization_fit(Ss, lams, npow):
    """Infinite-domain limit of truncated continuum-bottom eigenvalues.

    On a domain of stretched size S the bottom of the (discretized) continuum
    sits at lambda(S) = lambda_inf + k(S)^2 where the wavenumber k satisfies a
    quantization relation S = kappa/k + s0 + s1 k + ... ; given 5 domain sizes
    the relation is solved for lambda_inf by nesting a linear least-squares
    fit of (kappa, s0, ..) inside a root search on the last residual, Brent's
    method over the bracket (0, min lambda); None when that residual does not
    change sign there.
    """
    Ss = np.asarray(Ss, dtype=float)
    lams = np.asarray(lams, dtype=float)

    def resid(lam_inf):
        k = np.sqrt(lams - lam_inf)
        cols = [1.0 / k, np.ones_like(k)] + [k**j for j in range(1, npow + 1)]
        M = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(M[:-1], Ss[:-1], rcond=None)
        return Ss[-1] - float(M[-1] @ coef)

    # strictly below min lambda, which min lambda - 1e-10 is not above ~1e6
    lam_min = float(np.min(lams))
    lo, hi = 1e-12, min(lam_min - 1e-10, math.nextafter(lam_min, -math.inf))
    if hi <= lo:
        return None
    r_lo, r_hi = resid(lo), resid(hi)
    if not (math.isfinite(r_lo) and math.isfinite(r_hi)) or r_lo * r_hi > 0:
        return None
    # the bracket narrows to adjacent doubles, so the root carries no
    # tolerance of its own into the extrapolated eigenvalue
    return _brent_root(resid, lo, r_lo, hi, r_hi)


def _extrapolate(Ss, lams):
    """Infinite-domain limit of one sector's eigenvalues on domains of size Ss."""
    lams_arr = np.array(lams)
    spread = (lams_arr.max() - lams_arr.min()) / max(abs(lams_arr[-1]), 1e-30)
    if spread < 5e-3:
        # converged discrete eigenvalue; no extrapolation needed
        return float(lams_arr[-1])
    for npow in (2, 1, 0):
        est = _quantization_fit(Ss, lams_arr, npow)
        if est is not None:
            return float(est)
    return float(lams_arr[-1])


class SectorVerification(NamedTuple):
    l: int
    lambda_numeric: float
    lambda_domains: tuple


class VerificationResult(NamedTuple):
    """Outcome of the numerical sharp-constant check for one (d, alpha)."""

    d: int
    alpha: float
    D: float
    R_max: float
    N: int
    sectors: tuple
    minimum: float
    closed_form: float
    rel_err: float


def verify_constants(d: int, alpha: float, D: float = 1.0, l_max: int = 3,
                     R_max: float = 100.0, N: int = 1600) -> VerificationResult:
    """Verify the closed-form sharp constant by sector-wise minimization.

    Computes the bottom eigenvalue of every sector l <= l_max that exists in
    dimension d, i.e. has a nonzero multiplicity (l <= 1 when d = 1), with
    the mean-zero constraint in l = 0, on five truncated domains;
    extrapolates each sector to the infinite-domain limit, and compares the
    minimum over sectors with the closed-form piecewise constant.  One grid
    of N cells is built on R_max and its element integrals are evaluated
    once.  The five domains are evenly spaced in the stretched size
    S = asinh(R/sqrt(D)), from max(S_max - 3, min(S_max/2, 1.5)) to S_max,
    so that the smallest keeps at least a third of the cells; each is the
    first round(N S/S_max) cells of that grid, resolved at its spacing, and
    enters the fit with the size of its last node.  The largest is the whole
    grid, so the last of a sector's lambda_domains is its sector_bottom on
    R_max.  All sectors of a domain are formed from the one assembly.
    alpha and D may be exact (Fractions); the closed form takes alpha
    exactly, the forms in floats.
    Raises ValueError, naming the parameter, unless d >= 1, l_max >= 0,
    D > 0 and R_max > 0.
    """
    from .spectral import multiplicity  # loaded only where verification runs

    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    if not D > 0:
        raise ValueError(f"D must be positive, got {D}")
    if not R_max > 0:
        raise ValueError(f"R_max must be positive, got {R_max}")
    closed = float(sharp_rate(d, alpha))
    scale = math.sqrt(D)
    # five domains evenly spaced in the stretched size S = asinh(R/scale), the
    # smallest at least a third of the largest; each domain is the first cells
    # of the grid on R_max, as many as come nearest to its S
    S_max = math.asinh(R_max / scale)
    S_min = max(S_max - 3.0, min(S_max / 2.0, 1.5))
    cells = [round(N * S / S_max) for S in np.linspace(S_min, S_max, 5).tolist()]
    grid = build_grid(R_max, N, d, scale=scale)
    ls = [l for l in range(l_max + 1) if multiplicity(d, l) > 0]
    lams = {l: [] for l in ls}
    for domain in _assemble_sectors(grid, alpha, D, ls, cells):
        for forms in domain:
            lams[forms.l].append(bottom_eigenvalue(forms)[0])
    Ss = [math.asinh(grid.nodes[c] / scale) for c in cells]
    sectors = tuple(SectorVerification(l=l, lambda_numeric=_extrapolate(Ss, lams[l]),
                                       lambda_domains=tuple(lams[l])) for l in ls)
    minimum = min(s.lambda_numeric for s in sectors)
    rel = abs(minimum - closed) / abs(closed)
    return VerificationResult(d=d, alpha=float(alpha), D=float(D), R_max=float(R_max),
                              N=int(N), sectors=sectors, minimum=minimum,
                              closed_form=closed, rel_err=rel)

"""The eigen oracles: the matrices of a SectorForms written out in full, the
bottom eigenpair of their pencil from a direct O(n^3) eigensolve, for
cross-checking numerics.bottom_eigenvalue on small problems, the number of
eigenvalues below a value by inertia, for large ones, and the lumped shift
by index, for cross-checking numerics._lumped_shift."""

import numpy as np


def tridiag_dense(diag, off):
    n = len(diag)
    M = np.zeros((n, n))
    idx = np.arange(n)
    M[idx, idx] = diag
    M[idx[:-1], idx[:-1] + 1] = off
    M[idx[:-1] + 1, idx[:-1]] = off
    return M


def stiffness(forms):
    """Dense stiffness matrix A."""
    return tridiag_dense(forms.a_diag, forms.a_off)


def mass(forms):
    """Dense mass matrix B."""
    return tridiag_dense(forms.b_diag, forms.b_off)


def dense_bottom(forms):
    """(lambda, nodal values) of eigenpair k of (A, B), picked by index as
    bottom_eigenvalue picks it: k = 1 for l = 0, k = 0 otherwise."""
    from scipy.linalg import eigh

    k = 1 if forms.l == 0 else 0
    _, vecs = eigh(stiffness(forms), mass(forms), subset_by_index=[k, k])
    v = vecs[:, 0]
    # LAPACK's eigenvalue carries an absolute error of order eps times the
    # largest eigenvalue; the quotient of its B-normalized vector does not
    return float(v @ forms.apply_a(v)), forms.pad(v)


def lumped_shift_by_index(forms):
    """Eigenpair k of the lumped-mass pencil (A, diag(row sums of B)), picked
    by index over the whole spectrum (LAPACK dstebz in index mode, then
    dstein), as bottom_eigenvalue once took its shift: (sigma, vector)."""
    from scipy.linalg import eigh_tridiagonal

    k = 1 if forms.l == 0 else 0
    lumped = forms.b_diag.copy()
    lumped[:-1] += forms.b_off
    lumped[1:] += forms.b_off
    s = 1.0 / np.sqrt(lumped)
    lam, y = eigh_tridiagonal(forms.a_diag * s * s, forms.a_off * s[:-1] * s[1:],
                              select="i", select_range=(k, k))
    return float(lam[0]), s * y[:, 0]


def count_below(forms, mu):
    """The number of eigenvalues of the pencil (A, B) below mu: by Sylvester's
    law of inertia, the negative pivots of the LDL^T factorization of
    A - mu B, scaled by diag(B)^(-1/2), which keeps its inertia."""
    s = 1.0 / np.sqrt(forms.b_diag)
    diag = (forms.a_diag - mu * forms.b_diag) * s * s
    off = (forms.a_off - mu * forms.b_off) * s[:-1] * s[1:]
    count, pivot = 0, 1.0
    for i, a in enumerate(diag.tolist()):
        pivot = a - (off[i - 1] ** 2 / pivot if i else 0.0)
        if pivot == 0.0:
            pivot = -np.finfo(float).tiny
        count += pivot < 0.0
    return count

"""Exact dense linear algebra over a finite field.

Codes derive the fixed linear maps that need a solve with the two
routines here: one vectorized row reduction at build time and the
Vandermonde inverse.  Products of point differences come from
``difference_logs`` as sums of logs.  All arithmetic is exact; results
substitute back into their systems with equality, never within a
tolerance.  The maps are ndarrays and are applied with
``FieldSpec.np_matmul``; the per-symbol matrix routes and Lagrange
weights they replaced live on only as the tests' oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError


def row_reduce(F, A) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of the array ``A`` and its pivot columns.

    Columns are taken left to right and each pivot is the first row at or
    below the current one with a nonzero entry, so the pivot columns are
    the vectors a left-to-right independence sweep over the columns keeps.
    Every step is one vectorized elimination over the whole array, exact
    in the field; reducing [A | I] for an invertible A leaves [I | A^-1].
    """
    R = np.array(A, dtype=F.np_dtype)
    rows, cols = R.shape
    pivots: list[int] = []
    for col in range(cols):
        if len(pivots) == rows:
            break
        r = len(pivots)
        nonzero = np.flatnonzero(R[r:, col])
        if not nonzero.size:
            continue
        sel = r + int(nonzero[0])
        R[[r, sel]] = R[[sel, r]]
        R[r] = F.np_mul(R[r], F.np_inv(R[r, col]))
        factors = R[:, col].copy()
        factors[r] = 0
        R = F.np_add(R, F.np_neg(F.np_mul(factors[:, None], R[r][None, :])))
        pivots.append(col)
    return R, pivots


def vandermonde_inverse(F, points) -> np.ndarray:
    """Inverse of the m x m Vandermonde matrix V[i][j] = points[i]**j.

    Column i holds the coefficients of the i-th Lagrange basis polynomial
    prod_{j != i} (X - x_j) / prod_{j != i} (x_i - x_j), so ``V^-1 @ y``
    interpolates y at the points.  The master polynomial prod_i (X - x_i)
    is built once and deflated by every (X - x_i) at once with synthetic
    division from the top (Bjorck and Pereyra, Math. Comp. 24, 1970):
    O(m) elementwise array steps over all points, exact, and returned as
    an array of ``F.np_dtype``.
    """
    x = np.asarray(points, dtype=F.np_dtype)
    m = x.size
    if len(set(x.tolist())) != m:
        raise SingularSystemError("duplicate interpolation points")
    neg = F.np_neg(x)
    root = np.zeros(m + 1, dtype=F.np_dtype)  # lowest degree first
    root[0] = 1
    for c in neg:
        step = F.np_mul(root, c)  # root * (X - x_i)
        step[1:] = F.np_add(step[1:], root[:-1])
        root = step
    # num[j, i] is the X**j coefficient of root / (X - x_i)
    num = np.empty((m, m), dtype=F.np_dtype)
    if m:
        num[m - 1] = root[m]
    for j in range(m - 1, 0, -1):
        num[j - 1] = F.np_add(F.np_mul(num[j], x), root[j])
    # 1 / prod_{j != i} (x_i - x_j), through the sum of the factors' logs
    diff = F.np_add(x[:, None], neg[None, :])
    np.fill_diagonal(diff, 1)
    return F.np_mul(num, F.np_exp(-F.log[diff].sum(axis=1))[None, :])


def difference_logs(F, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log prod_j (a[i] - b[j]) for each i, as the sum of the factors'
    logs.  No point of ``b`` may be in ``a``: a zero factor has no log."""
    return F.log[F.np_add(a[:, None], F.np_neg(b)[None, :])].sum(axis=1)

"""Exact dense linear algebra over a finite field.

Every encode/repair/reconstruct path in the package reduces to one of the
solvers here.  All arithmetic is exact; solutions substitute back into
their systems with equality, never within a tolerance.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import SingularSystemError


class Matrix:
    """Dense row-major matrix of field symbols (plain ints)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int] | None = None):
        if entries is None:
            entries = [0] * (rows * cols)
        else:
            entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls(n, n)
        for i in range(n):
            m.entries[i * n + i] = 1
        return m

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def put(self, i: int, j: int, value: int) -> None:
        self.entries[i * self.cols + j] = value

    def row(self, i: int) -> list[int]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list[int]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

    def take_columns(self, cols: Sequence[int]) -> "Matrix":
        out = Matrix(self.rows, len(cols))
        for i in range(self.rows):
            base = i * self.cols
            for jj, j in enumerate(cols):
                out.entries[i * len(cols) + jj] = self.entries[base + j]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def dot(F, a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def mat_vec(F, A: Matrix, x: Sequence[int]) -> list[int]:
    if len(x) != A.cols:
        raise ValueError("dimension mismatch")
    return [dot(F, A.row(i), x) for i in range(A.rows)]


def mat_mul(F, A: Matrix, B: Matrix) -> Matrix:
    if A.cols != B.rows:
        raise ValueError("dimension mismatch")
    out = Matrix(A.rows, B.cols)
    for i in range(A.rows):
        arow = A.row(i)
        for j in range(B.cols):
            acc = 0
            for t in range(A.cols):
                acc = F.add(acc, F.mul(arow[t], B.entries[t * B.cols + j]))
            out.entries[i * B.cols + j] = acc
    return out


def _eliminate(F, aug: list[list[int]], cols: int) -> int:
    """Forward elimination with first-nonzero pivoting; returns pivot count."""
    m = len(aug)
    piv = 0
    for col in range(cols):
        sel = -1
        for r in range(piv, m):
            if aug[r][col] != 0:
                sel = r
                break
        if sel < 0:
            continue
        aug[piv], aug[sel] = aug[sel], aug[piv]
        inv = F.inv(aug[piv][col])
        aug[piv] = [F.mul(v, inv) for v in aug[piv]]
        for r in range(m):
            if r != piv and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [F.sub(av, F.mul(f, pv)) for av, pv in zip(aug[r], aug[piv])]
        piv += 1
        if piv == m:
            break
    return piv


def rank(F, A: Matrix) -> int:
    work = [row[:] for row in A.to_rows()]
    return _eliminate(F, work, A.cols)


def gaussian_solve(F, A: Matrix, b: Sequence[int]) -> list[int]:
    """Solve A x = b for square or overdetermined-consistent A.

    Pivoting is deterministic: first nonzero entry in column order.
    """
    if len(b) != A.rows:
        raise ValueError("dimension mismatch")
    if A.rows < A.cols:
        raise SingularSystemError("underdetermined system")
    aug = [A.row(i) + [b[i]] for i in range(A.rows)]
    piv = _eliminate(F, aug, A.cols)
    if piv < A.cols:
        raise SingularSystemError("singular system")
    for r in range(piv, A.rows):
        if aug[r][A.cols] != 0:
            raise SingularSystemError("inconsistent system")
    # Reduced row-echelon: pivot rows are unit columns in order.
    return [aug[i][A.cols] for i in range(A.cols)]


def invert(F, A: Matrix) -> Matrix:
    if A.rows != A.cols:
        raise SingularSystemError("only square matrices invert")
    n = A.rows
    aug = [A.row(i) + Matrix.identity(n).row(i) for i in range(n)]
    piv = _eliminate(F, aug, n)
    if piv < n:
        raise SingularSystemError("singular matrix")
    return Matrix.from_rows([row[n:] for row in aug])


def independent_prefix(F, vectors: Iterable[Sequence[int]], limit: int) -> list[int]:
    """Indices of the vectors a left-to-right independence sweep keeps.

    A vector is kept when it is independent of the vectors kept before
    it; the sweep stops once ``limit`` are kept.  Each kept vector is
    stored reduced, with a unit entry at a lead index that is zero in
    every later kept vector, so one pass over the kept list reduces a new
    vector completely.
    """
    kept: list[int] = []
    reduced: list[tuple[int, list[int]]] = []  # (lead index, unit-lead vector)
    for idx, v in enumerate(vectors):
        if len(kept) == limit:
            break
        for lead, vec in reduced:
            if v[lead] != 0:
                f = v[lead]
                v = [F.sub(a, F.mul(f, b)) for a, b in zip(v, vec)]
        lead = next((i for i, a in enumerate(v) if a != 0), -1)
        if lead < 0:
            continue
        inv = F.inv(v[lead])
        reduced.append((lead, [F.mul(a, inv) for a in v]))
        kept.append(idx)
    return kept


def poly_eval(F, coeffs: Sequence[int], x: int) -> int:
    """Evaluate a lowest-degree-first coefficient list at x (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _check_points(points: Sequence[int]) -> None:
    if len(set(points)) != len(points):
        raise SingularSystemError("duplicate interpolation points")


def _lagrange_numerators(F, points: Sequence[int]):
    """Yield (num, den) per point: num lists the coefficients of
    prod_{j != i} (X - x_j), lowest degree first, and den = num(x_i).

    Builds the master polynomial prod_i (X - x_i) once and deflates it by
    each (X - x_i) with synthetic division from the top, so all m pairs
    cost O(m^2).
    """
    _check_points(points)
    m = len(points)
    root = [1]
    for x in points:
        root = [0] + root
        for j in range(len(root) - 1):
            root[j] = F.sub(root[j], F.mul(root[j + 1], x))
    for x in points:
        num = [0] * m
        num[m - 1] = root[m]
        for j in range(m - 1, 0, -1):
            num[j - 1] = F.add(root[j], F.mul(num[j], x))
        yield num, poly_eval(F, num, x)


def vandermonde_solve(F, points: Sequence[int], values: Sequence[int]) -> list[int]:
    """Coefficients of the unique degree-< m polynomial through m points.

    Lagrange synthesis: build the master root polynomial, deflate it per
    point, and rescale -- an independent route from ``gaussian_solve`` on
    the explicit Vandermonde system.
    """
    if len(points) != len(values):
        raise ValueError("points/values length mismatch")
    m = len(points)
    coeffs = [0] * m
    for (num, den), y in zip(_lagrange_numerators(F, points), values):
        scale = F.div(y, den)
        for j in range(m):
            coeffs[j] = F.add(coeffs[j], F.mul(num[j], scale))
    return coeffs


def vandermonde_inverse(F, points: Sequence[int]) -> Matrix:
    """Inverse of the m x m Vandermonde matrix V[i][j] = points[i]**j.

    Column i holds the coefficients of the i-th Lagrange basis polynomial,
    so ``vandermonde_inverse(F, x) @ y`` interpolates y at x.  Exact, and
    O(m^2) field operations against O(m^3) for ``invert`` (the classic
    route of Bjorck and Pereyra, Math. Comp. 24, 1970).
    """
    m = len(points)
    out = Matrix(m, m)
    for i, (num, den) in enumerate(_lagrange_numerators(F, points)):
        scale = F.inv(den)
        for j in range(m):
            out.entries[j * m + i] = F.mul(num[j], scale)
    return out


def lagrange_leading_weights(F, points: Sequence[int]) -> list[int]:
    """Per-point weights w_g = 1 / prod_{g' != g} (x_g - x_{g'}).

    The leading coefficient of the interpolating polynomial is
    ``sum_g y_g * w_g``, so a holder of the y values can produce it as a
    single linear combination of what it stores.
    """
    _check_points(points)
    weights = []
    for i, xi in enumerate(points):
        prod = 1
        for j, xj in enumerate(points):
            if j != i:
                prod = F.mul(prod, F.sub(xi, xj))
        weights.append(F.inv(prod))
    return weights


def lagrange_eval_weights(F, points: Sequence[int], x0: int) -> list[int]:
    """Weights L_g(x0) with interp(x0) = sum_g y_g * L_g(x0)."""
    _check_points(points)
    out = []
    for i, xi in enumerate(points):
        num, den = 1, 1
        for j, xj in enumerate(points):
            if j != i:
                num = F.mul(num, F.sub(x0, xj))
                den = F.mul(den, F.sub(xi, xj))
        out.append(F.div(num, den))
    return out


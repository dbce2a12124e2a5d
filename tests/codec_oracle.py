"""Per-call scalar encode and reconstruct routes, kept as the oracle for the
fixed maps every production path applies.

The codes encode and reconstruct by applying fixed maps of their
structure (the systematic code's parity rows, the product code's powers)
or a reconstruct map, built from one vectorized row reduction or
Vandermonde inverse, to a block of stripe columns.  The functions here
reach the same symbols by the routes the maps replaced, one symbol at a
time in plain Python, or by one product with a dense generator:

- a dense row-major ``Matrix`` of plain ints, per-symbol products, exact
  Gaussian elimination, the rank it reports, inversion, and a
  left-to-right independence sweep;
- Lagrange synthesis, O(m^2) field operations per interpolation,
  Vandermonde inverse or set of leading weights;
- minimum storage: the parity positions as the linear map
  ``enc = -(H_P^-1 H_I)`` of the message, and reconstruction by solving
  every check row restricted to the erased columns, then re-checking the
  whole codeword;
- minimum bandwidth: C = M * Lambda by matrix product, and reconstruction
  by interpolating each row of M through k node columns, checking any
  extra columns and the message structure, then unpacking;
- either code: the dense generator, stored symbols = G @ data, built once
  per code from the maps above.

It also keeps the paper's identities that only the tests check: the
rack-local polynomial family of the minimum-bandwidth code, its leading
vectors read off storage, their transport of the symmetric block, and the
minimum distance of the minimum-storage code by enumeration.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from field_oracle import oracle
from rarc.errors import ParameterError, SingularSystemError, VerificationError
from rarc.mbrr import cell_layout, j1_columns, message_size

#: Enumeration guard for brute-force distance scans.
MAX_ENUMERATION = 1 << 20


def poly_eval(F, coeffs: Sequence[int], x: int) -> int:
    """Evaluate a lowest-degree-first coefficient list at x (Horner)."""
    O = oracle(F)
    acc = 0
    for c in reversed(coeffs):
        acc = O.add(O.mul(acc, x), c)
    return acc


def pack_message(p, data) -> np.ndarray:
    """Arrange B data symbols into the structured dbar x k message matrix."""
    data = np.asarray(data)
    B = message_size(p)
    if data.shape != (B,):
        raise ParameterError(f"data must have {B} symbols, got {data.size}")
    layout = cell_layout(p)
    cells = np.zeros(p.k * p.dbar, dtype=data.dtype)
    cells[layout.filled] = data[layout.source]
    return cells.reshape(p.k, p.dbar).T


def unpack_message(p, M) -> list[int]:
    """Inverse of ``pack_message``; does not validate structure."""
    M = np.asarray(M)
    if M.shape != (p.dbar, p.k):
        raise ParameterError(f"message matrix must be {p.dbar}x{p.k}")
    return M.T.ravel()[cell_layout(p).data].tolist()


def encode_column(code, data) -> list[int]:
    """One stripe of B data symbols through ``encode_stripes``: the n * alpha
    stored symbols, node by node."""
    return code.encode_stripes(code.field.symbol_array(data).reshape(-1, 1))[:, 0].tolist()


def code_matrix(code, data) -> np.ndarray:
    """The dbar x n code matrix C = M * Lambda of one minimum-bandwidth
    stripe: column c is what node c stores."""
    p = code.params
    return np.array(encode_column(code, data), dtype=code.field.np_dtype).reshape(p.n, p.dbar).T


# -- the container -----------------------------------------------------------------


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


# -- products -----------------------------------------------------------------------


def dot(F, a, b):
    O = oracle(F)
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    acc = 0
    for x, y in zip(a, b):
        acc = O.add(acc, O.mul(x, y))
    return acc


def mat_vec(F, A, x):
    if len(x) != A.cols:
        raise ValueError("dimension mismatch")
    return [dot(F, A.row(i), x) for i in range(A.rows)]


def mat_mul(F, A, B):
    O = oracle(F)
    if A.cols != B.rows:
        raise ValueError("dimension mismatch")
    out = Matrix(A.rows, B.cols)
    for i in range(A.rows):
        arow = A.row(i)
        for j in range(B.cols):
            acc = 0
            for t in range(A.cols):
                acc = O.add(acc, O.mul(arow[t], B.entries[t * B.cols + j]))
            out.entries[i * B.cols + j] = acc
    return out


# -- exact solvers ----------------------------------------------------------------


def _eliminate(F, aug, cols):
    """Forward elimination with first-nonzero pivoting; returns pivot count."""
    O = oracle(F)
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
        inv = O.inv(aug[piv][col])
        aug[piv] = [O.mul(v, inv) for v in aug[piv]]
        for r in range(m):
            if r != piv and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [O.sub(av, O.mul(f, pv)) for av, pv in zip(aug[r], aug[piv])]
        piv += 1
        if piv == m:
            break
    return piv


def invert(F, A):
    if A.rows != A.cols:
        raise SingularSystemError("only square matrices invert")
    n = A.rows
    aug = [A.row(i) + Matrix.identity(n).row(i) for i in range(n)]
    piv = _eliminate(F, aug, n)
    if piv < n:
        raise SingularSystemError("singular matrix")
    return Matrix.from_rows([row[n:] for row in aug])


def independent_prefix(F, vectors, limit):
    """Indices of the vectors a left-to-right independence sweep keeps.

    A vector is kept when it is independent of the vectors kept before
    it; the sweep stops once ``limit`` are kept.  Each kept vector is
    stored reduced, with a unit entry at a lead index that is zero in
    every later kept vector, so one pass over the kept list reduces a new
    vector completely.
    """
    O = oracle(F)
    kept = []
    reduced = []  # (lead index, unit-lead vector)
    for idx, v in enumerate(vectors):
        if len(kept) == limit:
            break
        for lead, vec in reduced:
            if v[lead] != 0:
                f = v[lead]
                v = [O.sub(a, O.mul(f, b)) for a, b in zip(v, vec)]
        lead = next((i for i, a in enumerate(v) if a != 0), -1)
        if lead < 0:
            continue
        inv = O.inv(v[lead])
        reduced.append((lead, [O.mul(a, inv) for a in v]))
        kept.append(idx)
    return kept


def rank(F, A):
    work = [row[:] for row in A.to_rows()]
    return _eliminate(F, work, A.cols)


def gaussian_solve(F, A, b):
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


def _check_points(points):
    if len(set(points)) != len(points):
        raise SingularSystemError("duplicate interpolation points")


def lagrange_leading_weights(F, points):
    """Per-point weights w_g = 1 / prod_{g' != g} (x_g - x_{g'}), one
    product per point.

    The leading coefficient of the interpolating polynomial is
    ``sum_g y_g * w_g``, so a holder of the y values can produce it as a
    single linear combination of what it stores.
    """
    O = oracle(F)
    _check_points(points)
    weights = []
    for i, xi in enumerate(points):
        prod = 1
        for j, xj in enumerate(points):
            if j != i:
                prod = O.mul(prod, O.sub(xi, xj))
        weights.append(O.inv(prod))
    return weights


def _lagrange_numerators(F, points):
    """Yield (num, den) per point: num lists the coefficients of
    prod_{j != i} (X - x_j), lowest degree first, and den = num(x_i)."""
    O = oracle(F)
    _check_points(points)
    m = len(points)
    root = [1]
    for x in points:
        root = [0] + root
        for j in range(len(root) - 1):
            root[j] = O.sub(root[j], O.mul(root[j + 1], x))
    for x in points:
        num = [0] * m
        num[m - 1] = root[m]
        for j in range(m - 1, 0, -1):
            num[j - 1] = O.add(root[j], O.mul(num[j], x))
        yield num, poly_eval(F, num, x)


def vandermonde_solve(F, points, values):
    """Coefficients of the unique degree-< m polynomial through m points."""
    O = oracle(F)
    if len(points) != len(values):
        raise ValueError("points/values length mismatch")
    m = len(points)
    coeffs = [0] * m
    for (num, den), y in zip(_lagrange_numerators(F, points), values):
        scale = O.div(y, den)
        for j in range(m):
            coeffs[j] = O.add(coeffs[j], O.mul(num[j], scale))
    return coeffs


def vandermonde_inverse(F, points):
    """The inverse of V[i][j] = points[i]**j as a Matrix, one point at a time."""
    O = oracle(F)
    m = len(points)
    out = Matrix(m, m)
    for i, (num, den) in enumerate(_lagrange_numerators(F, points)):
        scale = O.inv(den)
        for j in range(m):
            out.entries[j * m + i] = O.mul(num[j], scale)
    return out


# -- minimum storage ----------------------------------------------------------------


def _available(n, k, available):
    got = dict()
    for idx, sym in available:
        if not 0 <= idx < n:
            raise ParameterError(f"node index {idx} out of range")
        if idx in got:
            raise ParameterError(f"duplicate node index {idx}")
        got[idx] = sym
    if len(got) < k:
        raise ParameterError(f"need at least k={k} nodes, got {len(got)}")
    return got


def check_matrix(code):
    """The code's parity-check matrix H as a ``Matrix``."""
    return Matrix.from_rows(code.checks.tolist())


def msrr_enc(code):
    """The parity positions as a linear map of the message:
    H_P c_P = -H_I m, so c_P = -(H_P^-1 H_I) m."""
    F = code.field
    O = oracle(F)
    H = check_matrix(code)
    enc = mat_mul(F, invert(F, H.take_columns(code.parity_set)), H.take_columns(code.info_set))
    return Matrix(enc.rows, enc.cols, [O.neg(v) for v in enc.entries])


def msrr_encode(code, message):
    """Systematic codeword: the message at the information positions, the
    parity positions as ``enc`` applied to the message."""
    if len(message) != code.B:
        raise ParameterError(f"message must have {code.B} symbols")
    codeword = [0] * code.params.n
    for pos, sym in zip(code.info_set, message):
        codeword[pos] = sym
    for pos, sym in zip(code.parity_set, mat_vec(code.field, msrr_enc(code), list(message))):
        codeword[pos] = sym
    return codeword


def msrr_reconstruct(code, available):
    """Solve every check row on the erased columns, then re-check."""
    F = code.field
    O = oracle(F)
    got = _available(code.params.n, code.params.k, available)
    codeword = [0] * code.params.n
    for idx, sym in got.items():
        codeword[idx] = sym
    erased = [c for c in range(code.params.n) if c not in got]
    H = check_matrix(code)
    if erased:
        rhs = []
        rows = []
        for r in range(len(code.T)):
            acc = 0
            for idx, sym in got.items():
                acc = O.add(acc, O.mul(H.at(r, idx), sym))
            rhs.append(O.neg(acc))
            rows.append([H.at(r, c) for c in erased])
        solution = gaussian_solve(F, Matrix.from_rows(rows), rhs)
        for c, sym in zip(erased, solution):
            codeword[c] = sym
    if any(mat_vec(F, H, codeword)):
        raise VerificationError("supplied symbols are not consistent with the code")
    return [codeword[c] for c in code.info_set]


# -- minimum bandwidth --------------------------------------------------------------


def lambda_matrix(code):
    """k x n: row j holds every point to the power j."""
    F = code.field
    O = oracle(F)
    return Matrix.from_rows(
        [[O.pow(code.lam[c], j) for c in range(code.params.n)] for j in range(code.params.k)]
    )


def mbrr_encode(code, M):
    """C = M * Lambda for a dbar x k message array; node c stores column c."""
    return mat_mul(code.field, Matrix.from_rows(M.tolist()), lambda_matrix(code))


def _check_structure(p, M):
    j1 = j1_columns(p)
    for t, col in enumerate(j1):
        for i in range(p.dbar):
            if t >= p.dbar:
                if M.at(i, col):
                    raise VerificationError("zero tail of the boundary columns is nonzero")
            elif M.at(i, col) != M.at(t, j1[i]):
                raise VerificationError("symmetric block mismatch")


def mbrr_reconstruct(code, available):
    """Interpolate every row of M through the k lowest-indexed columns,
    check the extra columns and the structure, and unpack."""
    p = code.params
    F = code.field
    got = _available(p.n, p.k, ((idx, list(col)) for idx, col in available))
    order = sorted(got)
    base, extra = order[: p.k], order[p.k :]
    points = [code.lam[idx] for idx in base]
    M = Matrix(p.dbar, p.k)
    for i in range(p.dbar):
        for j, c in enumerate(vandermonde_solve(F, points, [got[idx][i] for idx in base])):
            M.put(i, j, c)
    for idx in extra:
        for i in range(p.dbar):
            if poly_eval(F, M.row(i), code.lam[idx]) != got[idx][i]:
                raise VerificationError("the given node set is inconsistent")
    _check_structure(p, M)
    return unpack_message(p, M.to_rows())


# -- generators -----------------------------------------------------------------------


@functools.cache
def generator(code) -> np.ndarray:
    """(n*alpha x B) dense generator of ``code``, read-only, built once per
    code: the identity on ``info_set`` and ``msrr_enc`` on ``parity_set``
    for minimum storage; the message layout composed with M -> M * Lambda,
    Lambda from ``lambda_matrix``, for minimum bandwidth."""
    p = code.params
    dtype = code.field.np_dtype
    if code.code_type == "msrr":
        gen = np.zeros((p.n, code.B), dtype=dtype)
        gen[code.info_set, np.arange(code.B)] = 1
        gen[code.parity_set] = msrr_enc(code).to_rows()
    else:
        layout = cell_layout(p)
        powers = np.array(lambda_matrix(code).to_rows(), dtype=dtype).T
        gen = np.zeros((p.n, p.dbar, code.B), dtype=dtype)
        gen[:, layout.filled % p.dbar, layout.source] = powers[:, layout.filled // p.dbar]
        gen = gen.reshape(p.n * p.dbar, code.B)
    gen.setflags(write=False)
    return gen


# -- paper identities ---------------------------------------------------------------


def minimum_distance(code):
    """Minimum Hamming weight over all nonzero codewords, by enumeration.

    Guarded to test-scale instances (q**B <= 2**20 codewords).
    """
    q = code.field.q
    if q**code.B > MAX_ENUMERATION:
        raise ParameterError(
            f"{q}**{code.B} codewords exceed the enumeration guard {MAX_ENUMERATION}"
        )
    # every message as one column, the zero message first
    messages = np.indices((q,) * code.B).reshape(code.B, -1)[:, 1:]
    codewords = code.encode_stripes(messages.astype(code.field.np_dtype))
    return int(np.count_nonzero(codewords, axis=0).min())


def symmetric_block(p, M) -> np.ndarray:
    """The dbar x dbar block S sitting in the first dbar boundary columns."""
    M = np.asarray(M)
    if M.shape != (p.dbar, p.k):
        raise ParameterError(f"message matrix must be {p.dbar}x{p.k}")
    return M.T.ravel()[cell_layout(p).block]


def local_polys(code, e, M) -> np.ndarray:
    """Degree-<= u-1 polynomials matching the global rows on rack e, as a
    dbar x u array: entry (i, j) is the x^j coefficient of the i-th
    polynomial, so the last column is the leading vector.

    Coefficient j collects the message columns t*u + j, scaled by
    (xi**(e*u))**t: M, zero-padded to (kbar + 1)*u columns, is regrouped
    into one row per (i, j) and multiplied by the powers of the rack
    point.
    """
    p = code.params
    F = code.field
    O = oracle(F)
    padded = np.zeros((p.dbar, (p.kbar + 1) * p.u), dtype=F.np_dtype)
    padded[:, : p.k] = F.symbol_array(M)
    grouped = padded.reshape(p.dbar, p.kbar + 1, p.u).transpose(0, 2, 1)
    x = code.rack_points[e]
    powers = F.symbol_array([[O.pow(x, t)] for t in range(p.kbar + 1)])
    coeffs = F.np_matmul(grouped.reshape(p.dbar * p.u, p.kbar + 1), powers)
    return coeffs.reshape(p.dbar, p.u)


def leading_vector_from_storage(code, e, columns) -> list[int]:
    """Leading coefficients of the rack-local polynomials, computed from
    the u stored columns alone (no message access), with the per-point
    weights of the rack's points rather than the code's own."""
    F = code.field
    u = code.params.u
    weights = F.symbol_array([lagrange_leading_weights(F, code.lam[e * u : (e + 1) * u])])
    return F.np_matmul(weights, F.symbol_array(columns))[0].tolist()


def mbr_codeword_check(code, M, C) -> bool:
    """True iff the leading vectors recovered from the stored columns
    equal S times the Vandermonde matrix on the rack points -- i.e. the
    cross-rack storage really carries the block S.  Perturbing any
    stored symbol breaks the identity."""
    p = code.params
    C = code.field.symbol_array(C)
    S = symmetric_block(p, M)
    expected = code.field.np_matmul(S, code.rack_powers.T)  # (dbar x nbar)
    leading = [
        leading_vector_from_storage(code, e, C[:, e * p.u : (e + 1) * p.u].T.tolist())
        for e in range(p.nbar)
    ]
    return expected.T.tolist() == leading

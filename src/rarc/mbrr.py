"""Array minimum-bandwidth code: dbar symbols per node, product encoding.

The B = (k - kbar)*dbar + dbar*(dbar+1)/2 data symbols fill a dbar x k
message matrix M whose rack-boundary columns (indices t*u + u - 1) hold a
symmetric dbar x dbar block S followed by zeros.  Encoding evaluates the
row polynomials of M at the rack-structured points: node (e, g) stores the
column (f_0(lam), ..., f_{dbar-1}(lam)) at lam = lam[(e,g)], so any k
nodes re-interpolate M.

Within rack e the stored columns agree with dbar polynomials of degree
at most u - 1 whose leading coefficients form the vector h_e = S * v_e,
v_e the Vandermonde column at xi**(e*u).  Symmetry of S lets a helper
rack hand the failed rack one inner product of its own leading vector;
dbar such responses pin down h_{e*}, after which each per-rack polynomial
is re-interpolated from the u - 1 surviving columns plus its now-known
leading coefficient.  ``MbrrCode.repair_maps`` writes that repair as two
fixed arrays, which ``bulk.repair_stripes`` applies to stored rows for
``sim.Cluster`` and ``rarc repair``; the scalar ``helper_response`` and
``repair`` apply them to one column of given symbols.

Encoding applies one generator, the message layout composed with
M -> M * Lambda, and reconstruction the inverse of the Vandermonde matrix
on k given points, to a block of stripe columns; the scalar ``encode``,
``reconstruct`` and ``Cluster.store`` pass single columns through the same
code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, VerificationError
from .field import FieldSpec, eval_points
from .linalg import (
    Matrix,
    lagrange_eval_weights,
    lagrange_leading_weights,
    vandermonde_inverse,
)
from .params import SystemParams, check_helper_racks, check_node_set, mbrr_point

#: Message layouts kept per process, one per SystemParams.
_LAYOUT_CACHE_SIZE = 16

#: Helper-rack Vandermonde inverses kept per code, one per ordered helper
#: set; nbar = 10 racks and dbar = 4 give 210 sets in rack order.
_HELPER_INVERSE_CACHE_SIZE = 256


def j1_columns(p: SystemParams) -> list[int]:
    """The kbar rack-boundary column indices t*u + u - 1."""
    return [t * p.u + p.u - 1 for t in range(p.kbar)]


def j2_columns(p: SystemParams) -> list[int]:
    j1 = set(j1_columns(p))
    return [j for j in range(p.k) if j not in j1]


def _triangle_index(i: int, j: int, d: int) -> int:
    # row-major position of (i, j), i <= j, in the upper triangle of a d x d block
    return i * d - i * (i - 1) // 2 + (j - i)


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def message_layout(p: SystemParams) -> tuple[tuple[int | None, ...], ...]:
    """dbar x k grid mapping matrix cells to data-symbol indices, computed
    once per parameter set and immutable.

    Symmetric-block cells share an index with their mirror; structural
    zeros map to ``None``.  Fixing this layout makes serialization
    canonical: the first dbar*(dbar+1)/2 symbols fill the upper triangle
    of S row-major (mirrored below), the rest fill the remaining columns
    column-major.
    """
    if p.dbar < 1:
        raise ParameterError("message matrix requires dbar >= 1")
    d = p.dbar
    grid: list[list[int | None]] = [[None] * p.k for _ in range(d)]
    j1 = j1_columns(p)
    for t, col in enumerate(j1):
        if t >= d:
            continue  # structural zero column
        for i in range(d):
            lo, hi = min(i, t), max(i, t)
            grid[i][col] = _triangle_index(lo, hi, d)
    base = d * (d + 1) // 2
    for cidx, col in enumerate(j2_columns(p)):
        for i in range(d):
            grid[i][col] = base + cidx * d + i
    return tuple(tuple(row) for row in grid)


def message_size(p: SystemParams) -> int:
    return (p.k - p.kbar) * p.dbar + p.dbar * (p.dbar + 1) // 2


def pack_message(p: SystemParams, data: Sequence[int]) -> Matrix:
    """Arrange B data symbols into the structured dbar x k message matrix."""
    B = message_size(p)
    if len(data) != B:
        raise ParameterError(f"data must have {B} symbols, got {len(data)}")
    grid = message_layout(p)
    M = Matrix(p.dbar, p.k)
    for i in range(p.dbar):
        for j in range(p.k):
            idx = grid[i][j]
            if idx is not None:
                M.put(i, j, data[idx])
    return M


def unpack_message(p: SystemParams, M: Matrix) -> list[int]:
    """Inverse of ``pack_message``; does not validate structure."""
    if (M.rows, M.cols) != (p.dbar, p.k):
        raise ParameterError(f"message matrix must be {p.dbar}x{p.k}")
    grid = message_layout(p)
    data = [0] * message_size(p)
    for i in range(p.dbar):
        for j in range(p.k):
            idx = grid[i][j]
            if idx is not None:
                data[idx] = M.at(i, j)
    return data


@dataclass(frozen=True)
class CellLayout:
    """The message layout as index arrays into the k*dbar cells of M
    transposed: cell (i, j) of M sits at j*dbar + i.

    ``filled`` and ``source`` pair every cell that carries a data symbol
    with that symbol's index; ``data`` names one cell per data symbol.
    The message structure holds when every ``mirror`` cell equals its
    ``mirrored`` cell of the symmetric block and every ``zero`` cell of
    the boundary tail is zero.
    """

    filled: np.ndarray
    source: np.ndarray
    data: np.ndarray
    mirror: np.ndarray
    mirrored: np.ndarray
    zero: np.ndarray

    @classmethod
    def of(cls, p: SystemParams) -> "CellLayout":
        d = p.dbar
        grid = message_layout(p)
        cells = [(j * d + i, grid[i][j]) for j in range(p.k) for i in range(d)]
        filled = [(c, b) for c, b in cells if b is not None]
        data = {b: c for c, b in filled}
        j1 = j1_columns(p)
        pairs = [(j1[t] * d + i, j1[i] * d + t) for t in range(d) for i in range(t)]
        arrays = (
            [c for c, _ in filled],
            [b for _, b in filled],
            [data[b] for b in range(len(data))],
            [a for a, _ in pairs],
            [b for _, b in pairs],
            [col * d + i for col in j1[d:] for i in range(d)],
        )
        return cls(*(np.array(a, dtype=np.intp) for a in arrays))


def symmetric_block(p: SystemParams, M: Matrix) -> Matrix:
    """The dbar x dbar block S sitting in the first dbar boundary columns."""
    j1 = j1_columns(p)
    S = Matrix(p.dbar, p.dbar)
    for i in range(p.dbar):
        for t in range(p.dbar):
            S.put(i, t, M.at(i, j1[t]))
    return S


@dataclass(frozen=True)
class LocalPolySet:
    """Rack-local polynomial family: coeffs[i][j] is the x^j coefficient of
    the i-th degree-<= u-1 polynomial; ``leading`` collects the x^(u-1) row."""

    coeffs: tuple[tuple[int, ...], ...]
    leading: tuple[int, ...]


class MbrrCode:
    """A built array-code instance; immutable after ``build``."""

    code_type = "mbrr"

    def __init__(self, params, field, lam):
        self.params = params
        self.field = field
        self.lam = lam
        self.rack_points = [field.pow(field.xi, e * params.u) for e in range(params.nbar)]
        # (nbar x dbar): row e is the Vandermonde row x_e**i of rack e
        self.rack_powers = np.array(
            [[field.pow(x, i) for i in range(params.dbar)] for x in self.rack_points],
            dtype=field.np_dtype,
        )
        # (nbar x u): row e reads the leading coefficient off rack e's u points
        self.leading_weights = np.array(
            [
                lagrange_leading_weights(field, lam[e * params.u : (e + 1) * params.u])
                for e in range(params.nbar)
            ],
            dtype=field.np_dtype,
        )
        for arr in (self.rack_powers, self.leading_weights):
            arr.setflags(write=False)
        # the inverse on the helper racks' points depends on the helper racks
        # alone, so repairs of any node share it
        self._helper_inverse = functools.lru_cache(maxsize=_HELPER_INVERSE_CACHE_SIZE)(
            self._derive_helper_inverse
        )

    @classmethod
    def build(cls, params: SystemParams, field: FieldSpec) -> "MbrrCode":
        if params.dbar < 1:
            raise ParameterError("the minimum-bandwidth code requires dbar >= 1")
        if field.u != params.u:
            raise ParameterError(f"field rack size {field.u} != system rack size {params.u}")
        if field.q <= params.n:
            raise ParameterError(f"field size {field.q} must exceed node count {params.n}")
        return cls(params, field, eval_points(field, params.nbar))

    @property
    def B(self) -> int:
        return message_size(self.params)

    @property
    def alpha(self) -> int:
        return self.params.dbar

    @property
    def beta(self) -> int:
        return mbrr_point(self.params).beta

    # -- fixed maps ------------------------------------------------------------

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """(n x k) Lambda transposed, read-only: row c holds lam[c]**j."""
        F = self.field
        lam = np.array(self.lam, dtype=F.np_dtype)
        out = np.empty((self.params.n, self.params.k), dtype=F.np_dtype)
        out[:, 0] = 1
        for j in range(1, self.params.k):
            out[:, j] = F.np_mul(out[:, j - 1], lam)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def layout(self) -> CellLayout:
        return CellLayout.of(self.params)

    @functools.cached_property
    def generator(self) -> np.ndarray:
        """(n*dbar x B) map from data symbols to node-major stored symbols,
        read-only: the message layout composed with M -> M * Lambda."""
        p = self.params
        filled, source = self.layout.filled, self.layout.source
        gen = np.zeros((p.n, p.dbar, self.B), dtype=self.field.np_dtype)
        gen[:, filled % p.dbar, source] = self.powers[:, filled // p.dbar]
        gen = gen.reshape(p.n * p.dbar, self.B)
        gen.setflags(write=False)
        return gen

    # -- encoding ------------------------------------------------------------

    def encode_stripes(self, data: np.ndarray) -> np.ndarray:
        """Encode a (B x stripes) data block into (n*dbar x stripes) symbols."""
        if data.shape[0] != self.B:
            raise ParameterError(f"data block must have {self.B} rows")
        return self.field.np_matmul(self.generator, data)

    def encode(self, M: Matrix) -> Matrix:
        """Code matrix C = M * Lambda; node (e, g) stores column (e*u + g)."""
        p = self.params
        if (M.rows, M.cols) != (p.dbar, p.k):
            raise ParameterError(f"message matrix must be {p.dbar}x{p.k}")
        cells = self.field.symbol_array(M.entries).reshape(p.dbar, p.k).T
        stored = self.field.np_matmul(self.powers, cells)  # row c: node c's column
        return Matrix(p.dbar, p.n, stored.T.ravel().tolist())

    def node_column(self, C: Matrix, index: int) -> list[int]:
        self.params.node_pair(index)  # bounds check
        return C.col(index)

    # -- the rack-local polynomial family --------------------------------------

    def local_polys(self, e: int, M: Matrix) -> LocalPolySet:
        """Degree-<= u-1 polynomials matching the global rows on rack e.

        Coefficient j collects the message columns congruent to j mod u,
        scaled by powers of xi**(e*u); the index ranges follow from
        k = kbar*u + u0, with the top coefficient cut to the symmetric
        block because the boundary columns beyond it are zero.
        """
        p = self.params
        if not 0 <= e < p.nbar:
            raise ParameterError(f"rack {e} out of range")
        F = self.field
        x = self.rack_points[e]
        coeffs = []
        for i in range(p.dbar):
            row = []
            for j in range(p.u):
                if j == p.u - 1:
                    ts = range(p.dbar)
                elif j < p.u0:
                    ts = range(p.kbar + 1)
                else:
                    ts = range(p.kbar)
                acc = 0
                for t in ts:
                    acc = F.add(acc, F.mul(M.at(i, t * p.u + j), F.pow(x, t)))
                row.append(acc)
            coeffs.append(tuple(row))
        return LocalPolySet(
            coeffs=tuple(coeffs),
            leading=tuple(row[p.u - 1] for row in coeffs),
        )

    def leading_vector_from_storage(self, e: int, columns: Sequence[Sequence[int]]) -> list[int]:
        """Leading coefficients of the rack-local polynomials, computed from
        the u stored columns alone (no message access)."""
        p = self.params
        if not 0 <= e < p.nbar:
            raise ParameterError(f"rack {e} out of range")
        if len(columns) != p.u or any(len(col) != p.dbar for col in columns):
            raise ParameterError(f"rack {e} must supply all {p.u} columns of {p.dbar} symbols")
        block = self.field.symbol_array(columns)  # (u x dbar)
        return self.field.np_matmul(self.leading_weights[e : e + 1], block)[0].tolist()

    # -- repair ----------------------------------------------------------------

    def _helper_rows(self, helper_racks: Sequence[int], failed_rack: int) -> np.ndarray:
        # row a, entry (g, i) -> w_{h, g} * x_{e*}**i for h = helper_racks[a]:
        # the leading vector of the helper rack, read off its u columns,
        # dotted with the failed rack's Vandermonde row
        p = self.params
        weights = self.leading_weights[list(helper_racks)][:, :, None]
        rows = self.field.np_mul(weights, self.rack_powers[failed_rack][None, None, :])
        return rows.reshape(len(helper_racks), p.u * p.dbar)

    def _derive_helper_inverse(self, helper_racks: tuple[int, ...]) -> np.ndarray:
        vinv = vandermonde_inverse(self.field, [self.rack_points[h] for h in helper_racks])
        vinv.setflags(write=False)
        return vinv

    def repair_maps(
        self, failed: tuple[int, int], helper_racks: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The two linear maps, as arrays, that rebuild node (e*, g*) from
        the ordered ``helper_racks``.

        Row a of the first map is what helper rack ``helper_racks[a]``
        applies to its u stored columns, node-major.  The second map is
        the dbar x ((u - 1)*dbar + dbar) rebuild matrix applied to the
        local columns (slots in order, node-major) followed by the
        responses.  The responses are evaluations of the polynomial with
        coefficient vector h_{e*} at the helpers' rack points (symmetry of
        the block S swaps the roles of helper and failed rack), so
        h_{e*} = V^-1 * responses; row i of the failed column is then the
        local polynomial through the u - 1 surviving values with leading
        coefficient h_{e*}[i], evaluated at the failed point:
        sum_g L_g(lam*) * y_g + c * h_{e*}[i] with
        c = lam*^(u-1) - sum_g L_g(lam*) * x_g^(u-1).
        """
        p = self.params
        F = self.field
        d = p.dbar
        e_star, g_star = failed
        target = self.lam[p.node_index(e_star, g_star)]  # bounds-checks the failed node
        helper_racks = check_helper_racks(e_star, helper_racks, p.nbar, d)
        local_pts = [self.lam[p.node_index(e_star, g)] for g in range(p.u) if g != g_star]
        eval_w = lagrange_eval_weights(F, local_pts, target)
        c = F.pow(target, p.u - 1)
        for w, x in zip(eval_w, local_pts):
            c = F.sub(c, F.mul(w, F.pow(x, p.u - 1)))
        # row i reads L_s(lam*) at local column s*dbar + i: eval_w Kronecker I,
        # exact in integers because I holds only 0 and 1
        weights = np.array(eval_w, dtype=F.np_dtype)[:, None]
        local = (np.eye(d, dtype=F.np_dtype)[:, None, :] * weights).reshape(d, -1)
        responses = F.np_mul(c, self._helper_inverse(tuple(helper_racks)))
        rebuild = np.concatenate([local, responses], axis=1)
        return self._helper_rows(helper_racks, e_star), rebuild

    def helper_response(
        self, helper: int, failed_rack: int, columns: Sequence[Sequence[int]]
    ) -> int:
        """One symbol from a helper rack: the inner product of the failed
        rack's Vandermonde row with the helper's leading vector."""
        p = self.params
        check_helper_racks(failed_rack, [helper], p.nbar, 1)
        if len(columns) != p.u or any(len(col) != p.dbar for col in columns):
            raise ParameterError(f"rack {helper} must supply all {p.u} columns of {p.dbar} symbols")
        column = self.field.symbol_array(columns).reshape(-1, 1)
        row = self._helper_rows([helper], failed_rack)
        return int(self.field.np_matmul(row, column)[0, 0])

    def repair(
        self,
        failed: tuple[int, int],
        local: Sequence[tuple[int, Sequence[int]]],
        helpers: Iterable[tuple[int, int]],
    ) -> list[int]:
        """Restore the failed node's column from u - 1 (slot, column) pairs of
        its own rack plus dbar (helper rack, response) pairs, through
        ``repair_maps``."""
        p = self.params
        helpers = list(helpers)
        _, rebuild = self.repair_maps(failed, [e for e, _ in helpers])
        cols: dict[int, Sequence[int]] = {}
        for g, col in local:
            if g == failed[1] or not 0 <= g < p.u:
                raise ParameterError(f"invalid local slot {g}")
            if g in cols:
                raise ParameterError(f"duplicate local slot {g}")
            if len(col) != p.dbar:
                raise ParameterError("stored columns carry dbar symbols")
            cols[g] = col
        if len(cols) != p.u - 1:
            raise ParameterError(f"need the other {p.u - 1} columns of rack {failed[0]}")
        symbols = [sym for g in sorted(cols) for sym in cols[g]] + [s for _, s in helpers]
        column = self.field.symbol_array(symbols).reshape(-1, 1)
        return self.field.np_matmul(rebuild, column)[:, 0].tolist()

    # -- reconstruction --------------------------------------------------------

    def reconstruct_stripes(self, nodes: Sequence[int], symbols: np.ndarray) -> np.ndarray:
        """Recover (B x stripes) data from the column rows of >= k nodes.

        ``symbols`` holds dbar consecutive rows per entry of ``nodes``.  The
        inverse Vandermonde matrix on the k lowest-indexed nodes maps their
        rows to M transposed; extra nodes and the message structure are
        verified per stripe.
        """
        p = self.params
        F = self.field
        d = p.dbar
        nodes = check_node_set(p, nodes)
        if symbols.shape[0] != len(nodes) * d:
            raise ParameterError("dbar symbol rows per node required")
        stripes = symbols.shape[1]
        rows = symbols.reshape(len(nodes), d * stripes)  # one row per node
        order = sorted(range(len(nodes)), key=nodes.__getitem__)
        base, extra = order[: p.k], order[p.k :]
        vinv = vandermonde_inverse(F, [self.lam[nodes[a]] for a in base])
        cells = F.np_matmul(vinv, rows[base])  # cells[j, i*stripes + s] = M[i][j]
        if extra:
            # the k base columns define every stripe's M, so a mismatch cannot
            # say which of the given columns is bad
            predicted = F.np_matmul(self.powers[[nodes[a] for a in extra]], cells)
            bad = (predicted != rows[extra]).reshape(len(extra), d, stripes).any(axis=(0, 1))
            if bad.any():
                raise VerificationError(
                    f"the given node set is inconsistent, first at stripe {int(bad.argmax())}"
                )
        cells = cells.reshape(p.k * d, stripes)
        layout = self.layout
        if (cells[layout.mirror] != cells[layout.mirrored]).any():
            raise VerificationError("symmetric block mismatch")
        if cells[layout.zero].any():
            raise VerificationError("zero tail of the boundary columns is nonzero")
        return cells[layout.data]

    def reconstruct(self, available: Iterable[tuple[int, Sequence[int]]]) -> list[int]:
        """Recover the data file from any k node columns, as one stripe
        through ``reconstruct_stripes``: extra columns and the
        message-matrix structure (symmetric block, zero boundary tail) act
        as corruption checks."""
        p = self.params
        nodes, symbols = [], []
        for idx, col in available:
            if len(col) != p.dbar:
                raise ParameterError("stored columns carry dbar symbols")
            nodes.append(idx)
            symbols.extend(col)
        column = self.field.symbol_array(symbols).reshape(len(symbols), 1)
        return self.reconstruct_stripes(nodes, column)[:, 0].tolist()

    # -- structural check surface -------------------------------------------------

    def mbr_codeword_check(self, M: Matrix, C: Matrix) -> bool:
        """True iff the leading vectors recovered from the stored columns
        equal S times the Vandermonde matrix on the rack points -- i.e. the
        cross-rack storage really carries the block S.  Perturbing any
        stored symbol breaks the identity."""
        p = self.params
        S = self.field.symbol_array(symmetric_block(p, M).to_rows())
        expected = self.field.np_matmul(S, self.rack_powers.T)  # (dbar x nbar)
        leading = [
            self.leading_vector_from_storage(e, [C.col(p.node_index(e, g)) for g in range(p.u)])
            for e in range(p.nbar)
        ]
        return expected.T.tolist() == leading

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
dbar such responses pin down h_{e*}.  The u points of rack e are the roots
of X**u - xi**(e*u), so h_e is one fixed combination sum_g w_{e,g} * y_g
of the rack's columns y_g, w_{e,g} = lam[(e,g)] / (u * xi**(e*u)); the
failed column is h_{e*} less the surviving columns' share, divided by its
own weight.  ``MbrrCode.repair_maps`` writes that repair as two fixed
arrays, which ``bulk.repair_stripes`` applies to the stored rows of a
``sim.Cluster``.

``cell_layout`` is the one description of where the data symbols sit in
M; both encoders and the reconstruct structure checks index through it.
Encoding maps a block of stripe columns to the columns of the dbar x n
code matrix C = M * Lambda, node by node, and reconstruction applies the
inverse of the Vandermonde matrix on k given points; a single stripe is a
one-column block.  A block whose dbar * stripes columns fit one table
gather of the GF(256) kernel (``_GF256_NARROW``) takes C = M * Lambda as
one product: ``powers``, on the columns of M that are not structurally
zero, times the message cells.  Wider blocks use the rack identity: for
column j = t*u + r of M, lam[(e,g)]**j = xi**(e*j) * eta**(g*r), so C is
a product with the nbar x |J_r| matrix W_r[e, t] = xi**(e*j_t) for each
residue r, over the columns j_t = r (mod u) of M, followed by one
product with the u x u matrix E[g, r] = eta**(g*r).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, VerificationError
from .field import _BUILD_BUDGET, _GF256_NARROW, FieldSpec, eval_points
from .linalg import vandermonde_inverse
from .params import SystemParams, check_helper_racks, check_node_set

#: Message layouts kept per process, one per SystemParams.
_LAYOUT_CACHE_SIZE = 16

#: Stripes per pass of the rack-by-rack encoder, which bounds its
#: temporaries to about 1 MiB at (50,5,44,4) over GF(256).  One pass over
#: all 13,618 stripes of a 2 MiB file raised the benchmark's peak RSS from
#: 51.7 to 59.1 MB.
_ENCODE_BLOCK = 1024

#: Helper-rack Vandermonde inverses kept per code, one per ordered helper
#: set; nbar = 10 racks and dbar = 4 give 210 sets in rack order.
_HELPER_INVERSE_CACHE_SIZE = 256


def j1_columns(p: SystemParams) -> list[int]:
    """The kbar rack-boundary column indices t*u + u - 1."""
    return [t * p.u + p.u - 1 for t in range(p.kbar)]


def live_columns(p: SystemParams) -> list[int]:
    """The columns of M that are not structurally zero, in order."""
    zero = set(j1_columns(p)[p.dbar :])
    return [j for j in range(p.k) if j not in zero]


def message_size(p: SystemParams) -> int:
    return (p.k - p.kbar) * p.dbar + p.dbar * (p.dbar + 1) // 2


@dataclass(frozen=True)
class CellLayout:
    """The message layout as read-only index arrays into the k*dbar cells
    of M transposed: cell (i, j) of M sits at j*dbar + i.

    ``block[i, t]`` is the cell of S[i][t], in boundary column t.  ``data``
    names one cell per data symbol: the upper triangle of S row-major,
    then the non-boundary columns column-major.  ``filled`` and ``source``
    pair every cell that carries a data symbol, the mirrored lower
    triangle of S included, with that symbol's index.  ``zero`` lists the
    boundary columns past S, which are structurally zero.
    """

    block: np.ndarray
    data: np.ndarray
    filled: np.ndarray
    source: np.ndarray
    zero: np.ndarray


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def cell_layout(p: SystemParams) -> CellLayout:
    """The one message layout of a parameter set, computed once per process.

    Fixing it makes serialization canonical: symmetric-block cells share
    an index with their mirror, and structural zeros carry no symbol.
    """
    if p.dbar < 1:
        raise ParameterError("message matrix requires dbar >= 1")
    d = p.dbar
    rows = np.arange(d)
    j1 = np.array(j1_columns(p), dtype=np.intp)
    rest = np.delete(np.arange(p.k), j1)
    block = j1[None, :d] * d + rows[:, None]
    upper = np.triu_indices(d)
    data = np.concatenate([block[upper], (rest[:, None] * d + rows).ravel()])
    symbol = np.full(p.k * d, -1, dtype=np.intp)
    symbol[data] = np.arange(data.size)
    symbol[block.T[upper]] = np.arange(upper[0].size)
    filled = np.flatnonzero(symbol >= 0)
    zero = (j1[d:, None] * d + rows).ravel()
    arrays = [block, data, filled, symbol[filled], zero]
    for arr in arrays:
        arr.setflags(write=False)
    return CellLayout(*arrays)


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
        # (nbar x u): row e reads the leading coefficient off rack e's u points,
        # w_{e,g} = 1 / prod_{g' != g} (lam_g - lam_g') = lam_{e,g} / (u * x_e),
        # since those points are the roots of X**u - x_e.  u * 1 is u itself in
        # GF(p) and 1 in GF(256), where u divides 255 and so is odd.
        unit = 1 if field.kind == "gf256" else params.u
        scale = [field.inv(field.mul(unit, x)) for x in self.rack_points]
        self.leading_weights = field.np_mul(
            np.array(lam, dtype=field.np_dtype).reshape(params.nbar, params.u),
            np.array(scale, dtype=field.np_dtype)[:, None],
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
        # the n x k powers of the points, then one stripe through their
        # product, which also bounds the reconstruct and repair maps
        cost = params.n * params.k * (params.dbar + 1)
        if cost > _BUILD_BUDGET:
            raise ParameterError(
                f"the code's fixed maps cost {cost} to build, over {_BUILD_BUDGET}"
            )
        return cls(params, field, eval_points(field, params.nbar))

    @property
    def B(self) -> int:
        return message_size(self.params)

    @property
    def alpha(self) -> int:
        return self.params.dbar

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
    def dense_map(self) -> tuple[np.ndarray, np.ndarray]:
        """C = M * Lambda as one product, read-only.

        ``gather`` names a data symbol for each cell of M transposed in the
        ``live_columns`` of M, column by column, dbar cells each: every such
        cell carries one, so it is the layout's ``source``.  ``weights`` is
        ``powers`` on those columns, n x (k - kbar + dbar).
        """
        weights = self.powers[:, live_columns(self.params)]
        weights.setflags(write=False)
        return cell_layout(self.params).source, weights

    @functools.cached_property
    def rack_maps(self) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """``dense_map`` factored along the rack identity, read-only.

        ``gather`` is its gather with the columns of M regrouped residue by
        residue: residue r holds the columns j = r (mod u) in order.
        ``weights[r]`` is W_r, nbar x (columns of residue r), with W_r[e, t]
        = xi**(e*j_t); ``twiddle`` is E, u x u, with E[g, r] = eta**(g*r).
        """
        p = self.params
        live = live_columns(p)
        order = sorted(range(len(live)), key=lambda t: live[t] % p.u)
        gather = self.dense_map[0].reshape(len(live), p.dbar)[order].ravel()
        # lam[e*u] = xi**e and lam[g] = eta**g
        weights = [self.powers[:: p.u, [j for j in live if j % p.u == r]] for r in range(p.u)]
        twiddle = self.powers[: p.u, : p.u]
        for arr in [gather, twiddle] + weights:
            arr.setflags(write=False)
        return gather, weights, twiddle

    # -- encoding ------------------------------------------------------------

    def encode_stripes(self, data: np.ndarray) -> np.ndarray:
        """Encode a (B x stripes) data block into (n*dbar x stripes) symbols.

        A block of at most ``_GF256_NARROW`` / dbar stripes takes one
        product with ``dense_map``: its weights times the gathered cells
        (one row per live column of M, dbar * stripes columns) give node
        c's dbar rows in row c.  Wider blocks go through ``rack_maps`` in
        passes of ``_ENCODE_BLOCK`` stripes: A_r = W_r * M_r for each
        residue r, then row (e, g) of C is sum_r E[g, r] * A_r[e], one
        product with E over all racks at once.
        """
        if data.shape[0] != self.B:
            raise ParameterError(f"data block must have {self.B} rows")
        F = self.field
        p = self.params
        d = p.dbar
        stripes = data.shape[1]
        if d * stripes <= _GF256_NARROW:
            gather, weights = self.dense_map
            cells = data.take(gather, axis=0).reshape(weights.shape[1], d * stripes)
            code = F.np_matmul(weights, cells)
            code.shape = (p.n * d, stripes)  # in place: no view for a Cluster to keep
            return code
        gather, weights, twiddle = self.rack_maps
        out = np.empty((p.n * d, stripes), dtype=F.np_dtype)
        for s in range(0, stripes, _ENCODE_BLOCK):
            block = data[gather, s : s + _ENCODE_BLOCK]
            width = block.shape[1]
            cols = block.reshape(-1, d * width)  # row t: column j_t of M, cell by cell
            racks = np.empty((p.u, p.nbar, d * width), dtype=F.np_dtype)
            start = 0
            for r, w in enumerate(weights):
                racks[r] = F.np_matmul(w, cols[start : start + w.shape[1]])
                start += w.shape[1]
            code = F.np_matmul(twiddle, racks.reshape(p.u, -1))  # row g: slot g of each rack
            out[:, s : s + width] = (
                code.reshape(p.u, p.nbar, d, width).transpose(1, 0, 2, 3).reshape(-1, width)
            )
        return out

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
        h_{e*} = V^-1 * responses.  That vector is also sum_g w_g * y_g over
        the failed rack's columns y_g, with w = ``leading_weights[e*]``, so
        y_{g*} = (h_{e*} - sum_{g != g*} w_g * y_g) / w_{g*}.
        """
        p = self.params
        F = self.field
        d = p.dbar
        e_star, g_star = failed
        p.node_index(e_star, g_star)  # bounds check
        helper_racks = check_helper_racks(e_star, helper_racks, p.nbar, d)
        w = self.leading_weights[e_star]
        scale = F.inv(int(w[g_star]))
        # row i reads -w_s / w_{g*} at local column s*dbar + i: that vector
        # Kronecker I, exact in integers because I holds only 0 and 1
        weights = F.np_mul(F.np_neg(np.delete(w, g_star)), scale)[:, None]
        local = (np.eye(d, dtype=F.np_dtype)[:, None, :] * weights).reshape(d, -1)
        responses = F.np_mul(scale, self._helper_inverse(tuple(helper_racks)))
        rebuild = np.concatenate([local, responses], axis=1)
        return self._helper_rows(helper_racks, e_star), rebuild

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
        layout = cell_layout(p)
        if (cells[layout.block] != cells[layout.block.T]).any():
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

"""Batch stripe codecs.

The per-stripe operations in ``msrr``/``mbrr`` are a handful of small
linear maps that do not depend on the stripe contents.  For whole-file
work each map is derived once per call with the cheapest exact method
and then applied across all stripes with the field's vectorized kernels.
Built codes and their generators are kept for the life of the process.
Stripe matrices hold one stripe per column.
"""

from __future__ import annotations

import functools
import weakref
from typing import Sequence

import numpy as np

from .errors import ParameterError, VerificationError
from .linalg import (
    Matrix,
    independent_prefix,
    invert,
    lagrange_eval_weights,
    lagrange_leading_weights,
    mat_mul,
    vandermonde_inverse,
)
from .mbrr import MbrrCode, message_layout
from .msrr import MsrrCode
from .params import MSRR, SystemParams

#: Built codes kept per process, keyed by (code type, params, field).
_CODE_CACHE_SIZE = 8

# Generator of each live code, read-only; an entry dies with its code.
_GENERATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _np(field, rows: Sequence[Sequence[int]]) -> np.ndarray:
    return np.array(rows, dtype=field.np_dtype)


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def build_code(code_type: str, params: SystemParams, field) -> MsrrCode | MbrrCode:
    """The built code for ``params`` over ``field``, shared by every call in
    this process that asks for the same code type, parameters and field."""
    if code_type == MSRR:
        return MsrrCode.build(params, field)
    return MbrrCode.build(params, field)


def _generator(code, derive) -> np.ndarray:
    gen = _GENERATORS.get(code)
    if gen is None:
        gen = derive(code)
        gen.setflags(write=False)
        _GENERATORS[code] = gen
    return gen


def _check_helpers(p: SystemParams, failed: tuple[int, int], helper_racks: list[int]) -> None:
    e_star = failed[0]
    p.node_index(*failed)  # bounds check
    if (
        len(helper_racks) != p.dbar
        or len(set(helper_racks)) != p.dbar
        or e_star in helper_racks
        or not all(0 <= h < p.nbar for h in helper_racks)
    ):
        raise ParameterError(
            f"need {p.dbar} distinct helper racks in [0, {p.nbar}) other than {e_star}"
        )


# -- minimum-storage (scalar) code ---------------------------------------------


def msrr_generator(code: MsrrCode) -> np.ndarray:
    """(n x B) systematic generator; codeword = G @ message.  Derived once
    per code and read-only."""
    return _generator(code, _msrr_generator)


def _msrr_generator(code: MsrrCode) -> np.ndarray:
    n, B = code.params.n, code.B
    rows = [[0] * B for _ in range(n)]
    for pos, b in zip(code.info_set, range(B)):
        rows[pos][b] = 1
    for r, pos in enumerate(code.parity_set):
        rows[pos] = code.enc.row(r)
    return _np(code.field, rows)


def msrr_encode_stripes(code: MsrrCode, data: np.ndarray) -> np.ndarray:
    """Encode a (B x stripes) message block into (n x stripes) symbols."""
    if data.shape[0] != code.B:
        raise ParameterError(f"message block must have {code.B} rows")
    return code.field.np_matmul(msrr_generator(code), data)


def msrr_reconstruct_stripes(
    code: MsrrCode, nodes: Sequence[int], symbols: np.ndarray
) -> np.ndarray:
    """Recover (B x stripes) messages from the rows of >= k nodes.

    ``symbols`` holds one row per entry of ``nodes``.  The filled codewords
    are re-checked against every parity row; inconsistent stripes raise.
    """
    p = code.params
    F = code.field
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise ParameterError("duplicate node indices")
    if len(nodes) < p.k:
        raise ParameterError(f"need at least k={p.k} nodes, got {len(nodes)}")
    if symbols.shape[0] != len(nodes):
        raise ParameterError("one symbol row per node required")
    order = sorted(range(len(nodes)), key=lambda i: nodes[i])
    avail = [nodes[i] for i in order]
    rows_avail = symbols[order, :]
    erased = [c for c in range(p.n) if c not in set(avail)]
    stripes = symbols.shape[1]
    full = np.zeros((p.n, stripes), dtype=F.np_dtype)
    full[avail, :] = rows_avail
    if erased:
        he = code.H.take_columns(erased)
        ha = code.H.take_columns(avail)
        # a deterministic invertible row subset of the check rows on the
        # erased columns
        picked = independent_prefix(F, (he.row(r) for r in range(he.rows)), len(erased))
        if len(picked) != len(erased):
            raise VerificationError("check rows cannot isolate the erased columns")
        hsq_inv = invert(F, Matrix.from_rows([he.row(r) for r in picked]))
        q = mat_mul(F, hsq_inv, Matrix.from_rows([ha.row(r) for r in picked]))
        q.entries = [F.neg(v) for v in q.entries]
        full[erased, :] = F.np_matmul(_np(F, q.to_rows()), rows_avail)
    residue = F.np_matmul(_np(F, code.H.to_rows()), full)
    if residue.any():
        raise VerificationError("stripe fails its parity checks")
    return full[code.info_set, :]


def msrr_repair_weights(
    code: MsrrCode, failed: tuple[int, int], helper_racks: Sequence[int]
) -> list[int]:
    """Coefficients gamma with rack_sum(e*) = sum_h gamma_h * response_h.

    The checks with exponents i*u, i < nbar - dbar, read
    sum_e x_e**i * s_e = 0 for the rack sums s_e at x_e = xi**(e*u).  So
    s_e = v_e * f(x_e) with deg f < dbar and v_e = 1 / prod_{e' != e}
    (x_e - x_e'), and interpolating f through the helpers gives
    gamma_h = (v_e* / v_h) * L_h(x_e*): O(nbar * dbar) field operations.
    """
    p = code.params
    F = code.field
    helper_racks = list(helper_racks)
    _check_helpers(p, failed, helper_racks)
    x = code.rack_points
    e_star = failed[0]

    def inv_v(e: int) -> int:
        prod = 1
        for other, xo in enumerate(x):
            if other != e:
                prod = F.mul(prod, F.sub(x[e], xo))
        return prod

    v_star = F.inv(inv_v(e_star))
    lagrange = lagrange_eval_weights(F, [x[h] for h in helper_racks], x[e_star])
    return [F.mul(F.mul(v_star, inv_v(h)), w) for h, w in zip(helper_racks, lagrange)]


def msrr_repair_stripes(
    code: MsrrCode,
    failed: tuple[int, int],
    helper_racks: Sequence[int],
    node_rows: np.ndarray,
) -> np.ndarray:
    """Recompute the failed node's (1 x stripes) row from the full body
    (``node_rows`` is (n x stripes)) without reading that row."""
    p = code.params
    F = code.field
    e_star, g_star = failed
    if p.dbar == 0:
        acc = np.zeros((1, node_rows.shape[1]), dtype=F.np_dtype)
        for g in range(p.u):
            if g != g_star:
                acc = F.np_add(acc, node_rows[p.node_index(e_star, g)][None, :])
        return F.np_neg(acc)
    gammas = msrr_repair_weights(code, failed, helper_racks)
    responses = []
    for h in helper_racks:
        acc = np.zeros(node_rows.shape[1], dtype=F.np_dtype)
        for g in range(p.u):
            acc = F.np_add(acc, node_rows[p.node_index(h, g)])
        responses.append(acc)
    rack_sum = F.np_matmul(_np(F, [gammas]), np.stack(responses))
    local = np.zeros((1, node_rows.shape[1]), dtype=F.np_dtype)
    for g in range(p.u):
        if g != g_star:
            local = F.np_add(local, node_rows[p.node_index(e_star, g)][None, :])
    return F.np_add(rack_sum, F.np_neg(local))


# -- minimum-bandwidth (array) code ----------------------------------------------


def mbrr_generator(code: MbrrCode) -> np.ndarray:
    """(n*dbar x B) map from data symbols to node-major stored symbols.
    Derived once per code and read-only."""
    return _generator(code, _mbrr_generator)


def _mbrr_generator(code: MbrrCode) -> np.ndarray:
    p = code.params
    F = code.field
    grid = message_layout(p)
    rows = [[0] * code.B for _ in range(p.n * p.dbar)]
    for node in range(p.n):
        lam = code.lam[node]
        powers = [F.pow(lam, j) for j in range(p.k)]
        for i in range(p.dbar):
            row = rows[node * p.dbar + i]
            for j in range(p.k):
                b = grid[i][j]
                if b is not None:
                    row[b] = F.add(row[b], powers[j])
    return _np(F, rows)


def mbrr_encode_stripes(code: MbrrCode, data: np.ndarray) -> np.ndarray:
    """Encode a (B x stripes) data block into (n*dbar x stripes) symbols."""
    if data.shape[0] != code.B:
        raise ParameterError(f"data block must have {code.B} rows")
    return code.field.np_matmul(mbrr_generator(code), data)


def mbrr_reconstruct_stripes(
    code: MbrrCode, nodes: Sequence[int], symbols: np.ndarray
) -> np.ndarray:
    """Recover (B x stripes) data from the column rows of >= k nodes.

    ``symbols`` holds dbar consecutive rows per entry of ``nodes``.  Extra
    nodes and the message-matrix structure are verified per stripe.
    """
    p = code.params
    F = code.field
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise ParameterError("duplicate node indices")
    if len(nodes) < p.k:
        raise ParameterError(f"need at least k={p.k} nodes, got {len(nodes)}")
    if symbols.shape[0] != len(nodes) * p.dbar:
        raise ParameterError("dbar symbol rows per node required")
    stripes = symbols.shape[1]
    order = sorted(range(len(nodes)), key=lambda i: nodes[i])
    base, extra = order[: p.k], order[p.k :]
    points = [code.lam[nodes[i]] for i in base]
    vinv = _np(F, vandermonde_inverse(F, points).to_rows())
    m_rows = []
    for i in range(p.dbar):
        values = symbols[[a * p.dbar + i for a in base], :]
        m_rows.append(F.np_matmul(vinv, values))  # (k x stripes) coefficients
    for a in extra:
        lam = code.lam[nodes[a]]
        powers = _np(F, [[F.pow(lam, j) for j in range(p.k)]])
        for i in range(p.dbar):
            predicted = F.np_matmul(powers, m_rows[i])
            if not np.array_equal(predicted[0], symbols[a * p.dbar + i]):
                raise VerificationError(f"column of node {nodes[a]} is inconsistent")
    j1 = [t * p.u + p.u - 1 for t in range(p.kbar)]
    for t, col in enumerate(j1):
        for i in range(p.dbar):
            if t >= p.dbar:
                if m_rows[i][col].any():
                    raise VerificationError("zero tail of the boundary columns is nonzero")
            elif not np.array_equal(m_rows[i][col], m_rows[t][j1[i]]):
                raise VerificationError("symmetric block mismatch")
    grid = message_layout(p)
    data = np.zeros((code.B, stripes), dtype=F.np_dtype)
    for i in range(p.dbar):
        for j in range(p.k):
            b = grid[i][j]
            if b is not None:
                data[b] = m_rows[i][j]
    return data


def mbrr_repair_stripes(
    code: MbrrCode,
    failed: tuple[int, int],
    helper_racks: Sequence[int],
    node_rows: np.ndarray,
) -> np.ndarray:
    """Recompute the failed node's (dbar x stripes) rows from the full body
    without reading them."""
    p = code.params
    F = code.field
    e_star, g_star = failed
    helper_racks = list(helper_racks)
    _check_helpers(p, failed, helper_racks)
    stripes = node_rows.shape[1]
    # helper responses: leading vectors from storage, then the failed rack's
    # Vandermonde row
    rack_pts = code.rack_points
    target_row = _np(F, [[F.pow(rack_pts[e_star], i) for i in range(p.dbar)]])
    responses = []
    for h in helper_racks:
        pts = [code.lam[p.node_index(h, g)] for g in range(p.u)]
        weights = _np(F, [lagrange_leading_weights(F, pts)])
        lead = []
        for i in range(p.dbar):
            cols = node_rows[[p.node_index(h, g) * p.dbar + i for g in range(p.u)], :]
            lead.append(F.np_matmul(weights, cols)[0])
        responses.append(F.np_matmul(target_row, np.stack(lead))[0])
    # interpolate the failed rack's leading vector from the responses
    vinv = _np(F, vandermonde_inverse(F, [rack_pts[h] for h in helper_racks]).to_rows())
    h_star = F.np_matmul(vinv, np.stack(responses))  # (dbar x stripes)
    # evaluate each local polynomial at the failed point: a fixed combination
    # of the u-1 surviving values plus the leading coefficient
    local_slots = [g for g in range(p.u) if g != g_star]
    local_pts = [code.lam[p.node_index(e_star, g)] for g in local_slots]
    target = code.lam[p.node_index(e_star, g_star)]
    eval_w = lagrange_eval_weights(F, local_pts, target)
    lead_coef = F.pow(target, p.u - 1)
    for w, x in zip(eval_w, local_pts):
        lead_coef = F.sub(lead_coef, F.mul(w, F.pow(x, p.u - 1)))
    w_row = _np(F, [eval_w])
    out = np.zeros((p.dbar, stripes), dtype=F.np_dtype)
    for i in range(p.dbar):
        local = node_rows[[p.node_index(e_star, g) * p.dbar + i for g in local_slots], :]
        part = F.np_matmul(w_row, local)[0]
        out[i] = F.np_add(part, F.np_mul(np.full(stripes, lead_coef, dtype=F.np_dtype), h_star[i]))
    return out

"""Batch stripe codecs.

The per-stripe operations in ``msrr``/``mbrr`` are a handful of small
linear maps that do not depend on the stripe contents.  For whole-file
work each map is derived once per call with the cheapest exact method
(repair takes the code's own ``repair_maps``) and then applied across
all stripes with the field's vectorized kernels.  Built codes and their
generators are kept for the life of the process.  Stripe matrices hold
one stripe per column.
"""

from __future__ import annotations

import functools
import weakref
from typing import Sequence

import numpy as np

from .errors import ParameterError, VerificationError
from .linalg import Matrix, independent_prefix, invert, mat_mul, vandermonde_inverse
from .mbrr import MbrrCode, check_message_structure, message_layout
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
    if extra:
        # the k base columns define every stripe's M, so a mismatch cannot
        # say which of the given columns is bad
        powers = _np(F, [[F.pow(code.lam[nodes[a]], j) for j in range(p.k)] for a in extra])
        bad = np.zeros(stripes, dtype=bool)
        for i in range(p.dbar):
            predicted = F.np_matmul(powers, m_rows[i])
            bad |= (predicted != symbols[[a * p.dbar + i for a in extra], :]).any(axis=0)
        if bad.any():
            raise VerificationError(
                f"the given node set is inconsistent, first at stripe {int(bad.argmax())}"
            )
    check_message_structure(p, lambda i, j: m_rows[i][j])
    grid = message_layout(p)
    data = np.zeros((code.B, stripes), dtype=F.np_dtype)
    for i in range(p.dbar):
        for j in range(p.k):
            b = grid[i][j]
            if b is not None:
                data[b] = m_rows[i][j]
    return data


# -- repair, both codes -------------------------------------------------------------


def repair_stripes(
    code: MsrrCode | MbrrCode,
    failed: tuple[int, int],
    helper_racks: Sequence[int],
    node_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recompute the failed node's (alpha x stripes) rows from the full body
    (``node_rows`` is (n*alpha x stripes)) without reading them.

    Each helper rack applies its row of ``code.repair_maps`` to its own u
    nodes; the rebuild map then takes the local rows and those responses.
    Returns the rebuilt rows, the local rows read and the responses, so
    the caller can count what crossed which rack boundary.
    """
    p = code.params
    F = code.field
    a = code.alpha
    e_star, g_star = failed
    helper_racks = list(helper_racks)
    helper, rebuild = code.repair_maps(failed, helper_racks)
    local_rows = [
        p.node_index(e_star, g) * a + i for g in range(p.u) if g != g_star for i in range(a)
    ]
    parts = [node_rows[local_rows, :]]
    for row, h in zip(helper.to_rows(), helper_racks):
        rack = node_rows[h * p.u * a : (h + 1) * p.u * a, :]
        parts.append(F.np_matmul(_np(F, [row]), rack))
    inputs = np.concatenate(parts)
    rebuilt = F.np_matmul(_np(F, rebuild.to_rows()), inputs)
    return rebuilt, inputs[: len(local_rows)], inputs[len(local_rows) :]

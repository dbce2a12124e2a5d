"""Batch stripe codecs.

The per-stripe operations in ``msrr``/``mbrr`` are a handful of small
linear maps that do not depend on the stripe contents.  Each code derives
them (its generator once, a reconstruct map per node set, repair maps per
failed node and helper set) and applies them across a block of stripes
with the field's vectorized kernels; the scalar API passes one column
through the same code.  Built codes, and with them their generators, are
kept for the life of the process.  Stripe matrices hold one stripe per
column.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .mbrr import MbrrCode
from .msrr import MsrrCode
from .params import MSRR, SystemParams

#: Built codes kept per process, keyed by (code type, params, field).
_CODE_CACHE_SIZE = 8


def _np(field, rows: Sequence[Sequence[int]]) -> np.ndarray:
    return np.array(rows, dtype=field.np_dtype)


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def build_code(code_type: str, params: SystemParams, field) -> MsrrCode | MbrrCode:
    """The built code for ``params`` over ``field``, shared by every call in
    this process that asks for the same code type, parameters and field."""
    if code_type == MSRR:
        return MsrrCode.build(params, field)
    return MbrrCode.build(params, field)


def msrr_generator(code: MsrrCode) -> np.ndarray:
    """(n x B) systematic generator; codeword = G @ message.  Derived once
    per code and read-only."""
    return code.generator


def msrr_encode_stripes(code: MsrrCode, data: np.ndarray) -> np.ndarray:
    """Encode a (B x stripes) message block into (n x stripes) symbols."""
    return code.encode_stripes(data)


def msrr_reconstruct_stripes(
    code: MsrrCode, nodes: Sequence[int], symbols: np.ndarray
) -> np.ndarray:
    """Recover (B x stripes) messages from the rows of >= k nodes."""
    return code.reconstruct_stripes(nodes, symbols)


def mbrr_generator(code: MbrrCode) -> np.ndarray:
    """(n*dbar x B) map from data symbols to node-major stored symbols.
    Derived once per code and read-only."""
    return code.generator


def mbrr_encode_stripes(code: MbrrCode, data: np.ndarray) -> np.ndarray:
    """Encode a (B x stripes) data block into (n*dbar x stripes) symbols."""
    return code.encode_stripes(data)


def mbrr_reconstruct_stripes(
    code: MbrrCode, nodes: Sequence[int], symbols: np.ndarray
) -> np.ndarray:
    """Recover (B x stripes) data from the column rows of >= k nodes."""
    return code.reconstruct_stripes(nodes, symbols)


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

"""The code cache and the repair applier.

The per-stripe operations of both codes are a handful of small linear
maps that do not depend on the stripe contents.  Each code derives them
and applies its encode and reconstruct maps itself (``encode_stripes``,
``reconstruct_stripes``).  This module keeps built codes, and with them
their fixed maps, for the life of the process, and
holds the one code that applies a code's ``repair_maps`` to stored rows:
``repair_stripes``, which ``sim.Cluster.run_repair`` calls for the
simulator and ``rarc repair`` alike.  Stripe matrices hold one stripe per
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


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def build_code(code_type: str, params: SystemParams, field) -> MsrrCode | MbrrCode:
    """The built code for ``params`` over ``field``, shared by every call in
    this process that asks for the same code type, parameters and field."""
    if code_type == MSRR:
        return MsrrCode.build(params, field)
    return MbrrCode.build(params, field)


def repair_stripes(
    code: MsrrCode | MbrrCode,
    failed: tuple[int, int],
    helper_racks: Sequence[int],
    node_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recompute the failed node's (alpha x stripes) rows from the full body
    (``node_rows`` is (n*alpha x stripes)) without reading them.

    The local rows and the rows of every helper rack are gathered once.
    All dbar responses come from one product with the helper rows of
    ``code.repair_maps`` laid out block-diagonally, so response a reads
    only the u nodes of ``helper_racks[a]``; a second product applies the
    rebuild map to the local rows followed by the responses.  Returns the
    rebuilt rows, the local rows read and the responses, so the caller
    can count what crossed which rack boundary.
    """
    F = code.field
    a = code.alpha
    e_star, g_star = failed
    helper_racks = list(helper_racks)
    helper, rebuild = code.repair_maps(failed, helper_racks)
    dbar, width = helper.shape  # width: stored rows per rack
    rack = e_star * width
    parts = [node_rows[rack : rack + g_star * a], node_rows[rack + (g_star + 1) * a : rack + width]]
    parts += [node_rows[h * width : (h + 1) * width] for h in helper_racks]
    # row-major whatever the body's layout, so the kernels read whole rows
    rows = np.empty(((dbar + 1) * width - a, node_rows.shape[1]), dtype=node_rows.dtype)
    np.concatenate(parts, out=rows)
    local, remote = rows[: width - a], rows[width - a :]
    blocks = np.zeros((dbar, dbar, width), dtype=F.np_dtype)
    diagonal = np.arange(dbar)
    blocks[diagonal, diagonal] = helper
    responses = F.np_matmul(blocks.reshape(dbar, dbar * width), remote)
    rebuilt = F.np_matmul(rebuild, np.concatenate([local, responses]))
    return rebuilt, local, responses

"""Scalar minimum-storage code: one symbol per node, systematic encoding.

The code is the set of length-n vectors annihilated by the power sums
``sum_(e,g) lam[(e,g)]**t * c[(e,g)] = 0`` over a check-exponent set

    T = [0, n-k-1]  union  {i*u : i in [0, nbar - dbar - 1]},

which has exactly n - B elements for B = k - kbar + dbar.  The low block
of exponents makes the code a subcode of a generalized Reed-Solomon code,
so any k nodes recover the message; the stride-u block forces the per-rack
symbol sums to lie in a dimension-dbar MDS code over the points
``xi**(e*u)``, so one aggregate symbol from each of any dbar helper racks
pins down the failed rack's sum: a check polynomial vanishing on every
other rack gives it as a fixed combination of the helpers' sums, with no
solve.  The missing symbol follows from the u - 1 local symbols.
``MsrrCode.repair_maps`` writes that repair as two fixed arrays, which
``bulk.repair_stripes`` applies to the stored rows of a ``sim.Cluster``.

``build`` takes the parity set and the parity rows of the systematic
encoder from one row reduction of the check matrix.  Encoding copies a
block of stripe columns into the information positions and multiplies
the parity rows, at every width, and reconstruction applies a map built
from one Vandermonde inverse; a single stripe is a one-column block.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, SingularSystemError, VerificationError
from .field import _BUILD_BUDGET, FieldSpec, eval_points
from .linalg import row_reduce, vandermonde_inverse
from .params import SystemParams, check_helper_racks, check_node_set

def check_exponents(p: SystemParams) -> list[int]:
    """The sorted check-exponent set T; |T| = n - k + kbar - dbar."""
    t1 = {i * p.u for i in range(p.nbar - p.dbar)}
    t = sorted(set(range(p.n - p.k)) | t1)
    expected = p.n - p.k + p.kbar - p.dbar
    if len(t) != expected:
        raise ParameterError("check-exponent set has unexpected size")
    return t


class MsrrCode:
    """A built scalar code instance; immutable after ``build``."""

    code_type = "msrr"

    def __init__(self, params, field, T, lam, checks, info_set, parity_set, parity_rows):
        self.params = params
        self.field = field
        self.T = T
        self.lam = lam
        self.checks = checks  # (|T| x n) parity-check matrix H, read-only
        self.info_set = info_set  # read-only intp positions of the message
        self.parity_set = parity_set  # read-only intp positions of the checks
        self.parity_rows = parity_rows  # (|T| x B) c_P = parity_rows @ m, read-only
        self.rack_points = [field.pow(field.xi, e * params.u) for e in range(params.nbar)]

    @classmethod
    def build(cls, params: SystemParams, field: FieldSpec) -> "MsrrCode":
        """Construct the code for ``params`` over ``field``."""
        if field.u != params.u:
            raise ParameterError(f"field rack size {field.u} != system rack size {params.u}")
        if field.q <= params.n:
            raise ParameterError(f"field size {field.q} must exceed node count {params.n}")
        n = params.n
        # the row reduction of the |T| x n check matrix, then the dbar x dbar*u
        # block-diagonal helper map of each repair
        t_size = n - params.k + params.kbar - params.dbar
        cost = t_size * t_size * n + params.dbar * params.dbar * params.u
        if cost > _BUILD_BUDGET:
            raise ParameterError(
                f"the code's fixed maps cost {cost} to build, over {_BUILD_BUDGET}"
            )
        T = check_exponents(params)
        lam = eval_points(field, params.nbar)
        checks = np.array([[field.pow(x, t) for x in lam] for t in T], dtype=field.np_dtype)
        # The parity set is the column basis a left-to-right information-set
        # greedy leaves behind, the one preferring the rightmost columns: the
        # pivots of H reversed.  The reduction is H_P^-1 H with H_P on them, in
        # descending pivot order, so c_P = -(H_P^-1 H_I) m reads off its rest.
        reduced, pivots = row_reduce(field, checks[:, ::-1])
        if len(pivots) != len(T):
            raise SingularSystemError("parity-check matrix is rank deficient")
        parity_set = np.array(sorted(n - 1 - c for c in pivots), dtype=np.intp)
        info_set = np.delete(np.arange(n, dtype=np.intp), parity_set)
        parity_rows = field.np_neg(reduced[::-1][:, n - 1 - info_set])
        for arr in (checks, info_set, parity_set, parity_rows):
            arr.setflags(write=False)
        return cls(params, field, T, lam, checks, info_set, parity_set, parity_rows)

    @property
    def B(self) -> int:
        return len(self.info_set)

    @property
    def alpha(self) -> int:
        return 1

    # -- encoding ------------------------------------------------------------

    def encode_stripes(self, data: np.ndarray) -> np.ndarray:
        """Encode a (B x stripes) message block into (n x stripes) symbols:
        the message goes to ``info_set``, where the code is systematic, and
        its product with ``parity_rows`` to ``parity_set``."""
        if data.shape[0] != self.B:
            raise ParameterError(f"message block must have {self.B} rows")
        out = np.empty((self.params.n, data.shape[1]), dtype=self.field.np_dtype)
        out[self.info_set] = data
        out[self.parity_set] = self.field.np_matmul(self.parity_rows, data)
        return out

    # -- reconstruction --------------------------------------------------------

    def reconstruct_stripes(self, nodes: Sequence[int], symbols: np.ndarray) -> np.ndarray:
        """Recover (B x stripes) messages from the rows of >= k nodes.

        ``symbols`` holds one row per entry of ``nodes``.  The check
        exponents include 0 ... n - k - 1 and at most n - k nodes are
        erased, so the first |E| check rows on the erased columns E are the
        transposed Vandermonde matrix V on their points: the erased symbols
        are -(V^-1)^T times those rows' syndrome of the given symbols.  That
        fill zeroes those |E| check rows exactly, so the filled codewords
        are re-checked against the check rows the solve left open;
        inconsistent stripes raise.  With kbar = dbar and exactly k nodes
        given, |E| = |T| and no row is left: then B = k, so any k symbols
        are those of exactly one codeword and there is nothing to check.
        """
        p = self.params
        F = self.field
        nodes = check_node_set(p, nodes)
        if symbols.shape[0] != len(nodes):
            raise ParameterError("one symbol row per node required")
        full = np.zeros((p.n, symbols.shape[1]), dtype=F.np_dtype)
        full[nodes] = symbols
        given = set(nodes)
        erased = [c for c in range(p.n) if c not in given]
        if erased:
            vinv = vandermonde_inverse(F, [self.lam[c] for c in erased])
            syndrome = F.np_matmul(self.checks[: len(erased), nodes], symbols)
            full[erased] = F.np_neg(F.np_matmul(vinv.T, syndrome))
        if F.np_matmul(self.checks[len(erased) :], full).any():
            raise VerificationError("stripe fails its parity checks")
        return full[self.info_set]

    def reconstruct(self, available: Iterable[tuple[int, int]]) -> list[int]:
        """Recover the message from any k (node index, symbol) pairs, as one
        column through ``reconstruct_stripes``; corrupted inputs surface as
        a failed parity check."""
        available = list(available)
        column = self.field.symbol_array([sym for _, sym in available]).reshape(-1, 1)
        return self.reconstruct_stripes([idx for idx, _ in available], column)[:, 0].tolist()

    # -- repair ----------------------------------------------------------------

    def repair_maps(
        self, failed: tuple[int, int], helper_racks: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The two linear maps, as arrays, that rebuild node (e*, g*) from
        the ordered ``helper_racks``.

        Row a of the first map is what helper rack ``helper_racks[a]``
        applies to its own u symbols: all ones, the rack sum.  The second
        map is the 1 x (u - 1 + dbar) rebuild row applied to the local
        symbols followed by the responses.  The checks with exponents i*u,
        i < nbar - dbar, read sum_e Q(x_e) * s_e = 0 for the rack sums s_e
        at x_e = xi**(e*u) and every Q of degree below nbar - dbar.  Take
        P(X) = prod (X - x_e) over the racks outside the helpers and e*: it
        vanishes on every other rack, so the rack sum of e* is
        sum_h gamma_h * s_h with gamma_h = -P(x_h) / P(x_e*).  The failed
        symbol is that sum minus the local symbols.
        """
        p = self.params
        F = self.field
        e_star = failed[0]
        p.node_index(*failed)  # bounds check
        helper_racks = check_helper_racks(e_star, helper_racks, p.nbar, p.dbar)
        x = self.rack_points
        skip = {e_star, *helper_racks}
        outside = [x[e] for e in range(p.nbar) if e not in skip]

        def check_poly(t):
            return functools.reduce(F.mul, [F.sub(t, xe) for xe in outside], 1)

        scale = F.neg(F.inv(check_poly(x[e_star])))
        gammas = [F.mul(scale, check_poly(x[h])) for h in helper_racks]
        helper = np.ones((p.dbar, p.u), dtype=F.np_dtype)
        rebuild = np.array([[F.neg(1)] * (p.u - 1) + gammas], dtype=F.np_dtype)
        return helper, rebuild

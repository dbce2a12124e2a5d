"""Per-call repair derivations, kept as the oracle for ``repair_maps``.

Each code derives its repair once, as two linear maps.  The functions here
reach the same symbols by a different route, solving the repair equations
for every call:

- minimum storage: the rack sums form a dimension-dbar MDS code over the
  points xi**(e*u), so the stride-u checks leave nbar - dbar unknown sums,
  solved as a square system; the failed symbol is its rack's sum minus the
  local symbols;
- minimum bandwidth: the helper responses are evaluations of the
  polynomial with coefficient vector h_{e*} at the helpers' rack points,
  so interpolation yields h_{e*}; each local polynomial then
  re-interpolates from its u - 1 surviving values and known leading
  coefficient, and is evaluated at the failed point.

Probing either route with unit vectors reads off the matrices it applies.
"""

from codec_oracle import (
    Matrix,
    gaussian_solve,
    lagrange_leading_weights,
    poly_eval,
    vandermonde_solve,
)
from field_oracle import oracle
from rarc.errors import ParameterError


def lagrange_leading_coefficient(F, points, values):
    """Coefficient of x^(m-1) of the degree-< m interpolating polynomial."""
    O = oracle(F)
    if len(points) != len(values):
        raise ValueError("points/values length mismatch")
    weights = lagrange_leading_weights(F, points)
    acc = 0
    for y, w in zip(values, weights):
        acc = O.add(acc, O.mul(y, w))
    return acc


def constrained_interpolate(F, points, values, fixed_leading, degree_bound):
    """Unique degree-<= degree_bound polynomial with a known top coefficient.

    Takes exactly ``degree_bound`` points: subtract the fixed leading term
    from the values and interpolate the residual, whose degree is below
    ``degree_bound``.
    """
    O = oracle(F)
    if len(points) != degree_bound:
        raise ValueError("need exactly degree_bound points")
    if len(points) != len(values):
        raise ValueError("points/values length mismatch")
    if degree_bound == 0:
        return [fixed_leading]
    residual = [
        O.sub(y, O.mul(fixed_leading, O.pow(x, degree_bound)))
        for x, y in zip(points, values)
    ]
    coeffs = vandermonde_solve(F, points, residual)
    return coeffs + [fixed_leading]


def _responses(p, failed_rack, helpers):
    resp = dict()
    for e, s in helpers:
        if not 0 <= e < p.nbar:
            raise ParameterError(f"helper rack {e} out of range")
        if e == failed_rack:
            raise ParameterError("failed rack cannot help itself")
        if e in resp:
            raise ParameterError(f"duplicate helper rack {e}")
        resp[e] = s
    if len(resp) != p.dbar:
        raise ParameterError(f"need exactly dbar={p.dbar} helper racks, got {len(resp)}")
    return resp


# -- minimum storage ----------------------------------------------------------------


def msrr_helper_response(code, rack, symbols):
    O = oracle(code.field)
    acc = 0
    for sym in symbols:
        acc = O.add(acc, sym)
    return acc


def msrr_repair(code, failed, local, helpers):
    """The failed symbol from u - 1 local symbols and (rack, sum) pairs;
    at dbar = 0 every rack sums to zero."""
    p = code.params
    F = code.field
    O = oracle(F)
    e_star = failed[0]
    resp = _responses(p, e_star, helpers)
    unknown = [e for e in range(p.nbar) if e not in resp]
    rows = []
    rhs = []
    for i in range(p.nbar - p.dbar):
        rows.append([O.pow(code.rack_points[e], i) for e in unknown])
        acc = 0
        for e, s in resp.items():
            acc = O.add(acc, O.mul(O.pow(code.rack_points[e], i), s))
        rhs.append(O.neg(acc))
    sums = gaussian_solve(F, Matrix.from_rows(rows), rhs)
    rack_sum = sums[unknown.index(e_star)]
    for sym in local:
        rack_sum = O.sub(rack_sum, sym)
    return rack_sum


# -- minimum bandwidth --------------------------------------------------------------


def mbrr_helper_response(code, helper, failed_rack, columns):
    """The helper's leading vector, interpolated from its u columns, dotted
    with the failed rack's Vandermonde row."""
    p = code.params
    F = code.field
    O = oracle(F)
    points = [code.lam[p.node_index(helper, g)] for g in range(p.u)]
    x = code.rack_points[failed_rack]
    acc = 0
    for i in range(p.dbar):
        lead = lagrange_leading_coefficient(F, points, [col[i] for col in columns])
        acc = O.add(acc, O.mul(O.pow(x, i), lead))
    return acc


def mbrr_repair(code, failed, local, helpers):
    """The failed column from u - 1 (slot, column) pairs and (rack,
    response) pairs."""
    p = code.params
    F = code.field
    e_star, g_star = failed
    local_points = [code.lam[p.node_index(e_star, g)] for g, _ in local]
    local_cols = [list(col) for _, col in local]
    resp = _responses(p, e_star, helpers)
    helper_list = sorted(resp)
    h_star = vandermonde_solve(
        F,
        [code.rack_points[e] for e in helper_list],
        [resp[e] for e in helper_list],
    )
    target = code.lam[p.node_index(e_star, g_star)]
    column = []
    for i in range(p.dbar):
        coeffs = constrained_interpolate(
            F, local_points, [col[i] for col in local_cols], h_star[i], p.u - 1
        )
        column.append(poly_eval(F, coeffs, target))
    return column

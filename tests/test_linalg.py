import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rarc.errors import SingularSystemError
from rarc.field import Gf256Field, PrimeField, make_field
from rarc.linalg import row_reduce, vandermonde_inverse
import codec_oracle as oracle
from codec_oracle import (
    Matrix,
    gaussian_solve,
    independent_prefix,
    invert,
    lagrange_leading_weights,
    mat_mul,
    mat_vec,
    poly_eval,
    rank,
    vandermonde_solve,
)
from field_oracle import oracle as field_oracle
from repair_oracle import constrained_interpolate, lagrange_leading_coefficient

F7 = make_field(6, 2, "prime")
F11 = make_field(10, 2, "prime")
O7, O11 = field_oracle(F7), field_oracle(F11)


# ---------------------------------------------------------------------------
# Matrix container
# ---------------------------------------------------------------------------


def test_matrix_shape_invariant():
    with pytest.raises(ValueError):
        Matrix(2, 3, [1, 2, 3])
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.at(1, 0) == 3
    assert m.col(1) == [2, 4]
    assert m.take_columns([1]).to_rows() == [[2], [4]]


# ---------------------------------------------------------------------------
# gaussian_solve
# ---------------------------------------------------------------------------


def test_gaussian_identity_returns_rhs():
    b = [3, 1, 4, 1]
    assert gaussian_solve(F7, Matrix.identity(4), b) == b


def test_gaussian_one_by_one():
    # 3x = 5 over GF(7): x = 5 * 3^-1 = 4
    assert gaussian_solve(F7, Matrix.from_rows([[3]]), [5]) == [4]


def test_gaussian_random_invertible_solution_substitutes_back():
    rng = random.Random(5)
    for _ in range(25):
        while True:
            A = Matrix.from_rows(
                [[rng.randrange(F11.q) for _ in range(4)] for _ in range(4)]
            )
            if rank(F11, A) == 4:
                break
        b = [rng.randrange(F11.q) for _ in range(4)]
        x = gaussian_solve(F11, A, b)
        assert mat_vec(F11, A, x) == b


def test_gaussian_overdetermined_consistent_and_inconsistent():
    A = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert gaussian_solve(F7, A, [2, 3, 5]) == [2, 3]
    with pytest.raises(SingularSystemError):
        gaussian_solve(F7, A, [2, 3, 6])


def test_gaussian_singular_raises():
    A = Matrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularSystemError):
        gaussian_solve(F7, A, [1, 2])


def test_invert_round_trips():
    rng = random.Random(9)
    while True:
        A = Matrix.from_rows([[rng.randrange(F11.q) for _ in range(3)] for _ in range(3)])
        if rank(F11, A) == 3:
            break
    assert mat_mul(F11, A, invert(F11, A)) == Matrix.identity(3)


# ---------------------------------------------------------------------------
# vandermonde_solve
# ---------------------------------------------------------------------------


def test_vandermonde_single_point_is_constant():
    assert vandermonde_solve(F11, [5], [9]) == [9]


def test_vandermonde_two_points_hand_value():
    # line through (1,3), (2,5) over GF(7): 1 + 2x
    assert vandermonde_solve(F7, [1, 2], [3, 5]) == [1, 2]


def test_vandermonde_zero_values_give_zero_polynomial():
    assert vandermonde_solve(F7, [1, 2, 3], [0, 0, 0]) == [0, 0, 0]


def test_vandermonde_evaluates_back():
    rng = random.Random(17)
    for _ in range(20):
        points = rng.sample(range(F11.q), 5)
        values = [rng.randrange(F11.q) for _ in range(5)]
        coeffs = vandermonde_solve(F11, points, values)
        assert [poly_eval(F11, coeffs, x) for x in points] == values


def test_vandermonde_matches_gaussian_on_explicit_system():
    rng = random.Random(19)
    for _ in range(10):
        m = rng.randrange(1, 7)
        points = rng.sample(range(F11.q), m)
        values = [rng.randrange(F11.q) for _ in range(m)]
        explicit = Matrix.from_rows([[O11.pow(x, j) for j in range(m)] for x in points])
        assert vandermonde_solve(F11, points, values) == gaussian_solve(F11, explicit, values)


def test_vandermonde_rejects_duplicates():
    with pytest.raises(SingularSystemError):
        vandermonde_solve(F7, [1, 1], [2, 3])


# ---------------------------------------------------------------------------
# leading coefficients
# ---------------------------------------------------------------------------


def test_leading_coefficient_absent_for_low_degree_samples():
    # values from a degree-(m-2) polynomial have no x^(m-1) term
    coeffs = [2, 5, 1]  # degree 2
    points = [1, 2, 3, 4]
    values = [poly_eval(F11, coeffs, x) for x in points]
    assert lagrange_leading_coefficient(F11, points, values) == 0


def test_leading_coefficient_of_pure_top_power_is_one():
    points = [2, 3, 5, 7]
    values = [O11.pow(x, 3) for x in points]
    coeffs = vandermonde_solve(F11, points, values)  # full interpolation oracle
    assert coeffs[-1] == 1
    assert lagrange_leading_coefficient(F11, points, values) == 1


def test_leading_coefficient_two_points_hand_value():
    # (y1 - y2) / (x1 - x2) over GF(7) with points {1, 3}
    y1, y2 = 2, 6
    expected = O7.div(O7.sub(y1, y2), O7.sub(1, 3))
    assert expected == 2
    assert lagrange_leading_coefficient(F7, [1, 3], [y1, y2]) == expected


def test_leading_weights_are_exposed_and_linear():
    # a symbol holder can apply the oracle's per-point weights itself
    points = [1, 3]
    weights = lagrange_leading_weights(F7, points)
    assert weights == [3, 4]  # 1/(1-3), 1/(3-1) over GF(7)
    y = [2, 6]
    acc = 0
    for v, w in zip(y, weights):
        acc = O7.add(acc, O7.mul(v, w))
    assert acc == lagrange_leading_coefficient(F7, points, y)


def test_independent_prefix_skips_dependent_vectors_and_stops_at_limit():
    vectors = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4], [0, 0, 1], [1, 0, 0]]
    assert independent_prefix(F7, vectors, 3) == [0, 2, 4]
    assert independent_prefix(F7, vectors, 1) == [0]
    assert independent_prefix(F7, vectors[:4], 3) == [0, 2]


# ---------------------------------------------------------------------------
# row_reduce
# ---------------------------------------------------------------------------

ROW_REDUCE_FIELDS = [Gf256Field(5), PrimeField(137, 4), PrimeField(13, 4)]


@st.composite
def row_reduce_case(draw):
    """A random, all-zero or rank-deficient matrix of up to 7 x 9 symbols."""
    F = draw(st.sampled_from(ROW_REDUCE_FIELDS))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 9))
    symbol = st.integers(0, F.q - 1)

    def block(r, c):
        return Matrix(r, c, draw(st.lists(symbol, min_size=r * c, max_size=r * c)))

    kind = draw(st.sampled_from(["random", "zero", "deficient"]))
    if kind == "zero":
        A = Matrix(rows, cols)
    elif kind == "deficient" and min(rows, cols) > 1:
        inner = draw(st.integers(1, min(rows, cols) - 1))
        A = mat_mul(F, block(rows, inner), block(inner, cols))
    else:
        A = block(rows, cols)
    return F, A


@settings(max_examples=150, deadline=None)
@given(row_reduce_case())
def test_row_reduce_pivots_and_form_match_oracle_elimination(case):
    F, A = case
    reduced, pivots = row_reduce(F, np.array(A.to_rows(), dtype=F.np_dtype).reshape(A.rows, A.cols))
    assert reduced.dtype == F.np_dtype
    assert pivots == independent_prefix(F, [A.col(c) for c in range(A.cols)], A.rows)
    assert len(pivots) == rank(F, A)
    work = A.to_rows()
    oracle._eliminate(F, work, A.cols)
    assert reduced.tolist() == work


@st.composite
def invertible_case(draw):
    F = draw(st.sampled_from(ROW_REDUCE_FIELDS))
    m = draw(st.integers(1, 6))
    A = Matrix(m, m, draw(st.lists(st.integers(0, F.q - 1), min_size=m * m, max_size=m * m)))
    assume(rank(F, A) == m)
    return F, A


@settings(max_examples=60, deadline=None)
@given(invertible_case())
def test_row_reduce_of_a_beside_identity_is_the_oracle_inverse(case):
    F, A = case
    m = A.rows
    augmented = np.hstack([np.array(A.to_rows()), np.eye(m, dtype=int)]).astype(F.np_dtype)
    reduced, pivots = row_reduce(F, augmented)
    assert pivots == list(range(m))
    assert reduced[:, :m].tolist() == Matrix.identity(m).to_rows()
    assert reduced[:, m:].tolist() == invert(F, A).to_rows()


# ---------------------------------------------------------------------------
# vandermonde_inverse
# ---------------------------------------------------------------------------

# Each field with the largest k it serves: the GF(256) and GF(137) file
# codes (n=50, k=44 and n=132, k=120), two-byte symbols over GF(307), and
# the small GF(13) code (n=12, k=8).
VANDERMONDE_FIELDS = [
    (Gf256Field(5), 44),
    (PrimeField(137, 4), 120),
    (PrimeField(307, 2), 60),
    (PrimeField(13, 4), 8),
]


@st.composite
def vandermonde_case(draw):
    field, k = draw(st.sampled_from(VANDERMONDE_FIELDS))
    m = draw(st.integers(1, k))
    points = draw(st.permutations(range(field.q)))[:m]
    return field, points


@settings(max_examples=20, deadline=None)
@given(vandermonde_case())
@example((VANDERMONDE_FIELDS[1][0], list(range(16, 136))))  # m = k = 120 over GF(137)
@example((VANDERMONDE_FIELDS[0][0], list(range(212, 256))))  # m = k = 44 over GF(256)
@example((VANDERMONDE_FIELDS[3][0], [0, 12, 1, 11, 2, 10, 3, 9]))  # m = k = 8 over GF(13)
@example((VANDERMONDE_FIELDS[3][0], [5]))  # m = 1
@example((VANDERMONDE_FIELDS[0][0], [0]))  # m = 1 at the zero point
def test_vandermonde_inverse_equals_invert_of_explicit_matrix(case):
    F, points = case
    m = len(points)
    explicit = Matrix.from_rows([[field_oracle(F).pow(x, j) for j in range(m)] for x in points])
    got = vandermonde_inverse(F, points)
    assert got.dtype == F.np_dtype
    assert got.tolist() == invert(F, explicit).to_rows()
    assert got.tolist() == oracle.vandermonde_inverse(F, points).to_rows()


def test_vandermonde_inverse_of_no_points_is_empty():
    assert vandermonde_inverse(F7, []).shape == (0, 0)


def test_vandermonde_inverse_rejects_duplicate_points():
    for F in (F7, Gf256Field(5)):
        with pytest.raises(SingularSystemError):
            vandermonde_inverse(F, [1, 2, 1])


# ---------------------------------------------------------------------------
# constrained interpolation
# ---------------------------------------------------------------------------


def test_constrained_with_zero_leading_reduces_to_interpolation():
    points, values = [1, 2, 3], [4, 0, 5]
    got = constrained_interpolate(F7, points, values, 0, 3)
    assert got[:3] == vandermonde_solve(F7, points, values)
    assert got[3] == 0


def test_constrained_recovers_generated_polynomial():
    rng = random.Random(29)
    for _ in range(20):
        degree = rng.randrange(1, 5)
        coeffs = [rng.randrange(F11.q) for _ in range(degree + 1)]
        points = rng.sample(range(F11.q), degree)
        values = [poly_eval(F11, coeffs, x) for x in points]
        assert constrained_interpolate(F11, points, values, coeffs[-1], degree) == coeffs


def test_constrained_single_point_fixed_slope():
    # line with slope 5 through (2, 3) over GF(7): constant = 3 - 5*2 = 0
    assert constrained_interpolate(F7, [2], [3], 5, 1) == [0, 5]


def test_constrained_requires_exact_point_count():
    with pytest.raises(ValueError):
        constrained_interpolate(F7, [1, 2], [3, 4], 1, 3)

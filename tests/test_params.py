from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarc.errors import ParameterError
from rarc.params import (
    MBRR,
    MSRR,
    SystemParams,
    cutset_bound,
    mbrr_point,
    mincut_profile,
    msrr_point,
    overhead_pair,
    sweep_table,
    tradeoff_points,
)


def test_derived_quantities():
    p = SystemParams(n=50, u=5, k=44, dbar=4)
    assert (p.nbar, p.kbar, p.u0) == (10, 8, 4)
    assert p.node_index(3, 2) == 17
    assert p.node_pair(17) == (3, 2)


@pytest.mark.parametrize(
    "n,u,k,dbar",
    [
        (6, 1, 4, 0),  # u too small
        (7, 2, 4, 1),  # u must divide n
        (6, 2, 6, 1),  # k < n
        (6, 2, 0, 0),  # k >= 1
        (6, 4, 3, 0),  # k spans less than one rack
        (6, 2, 4, 3),  # dbar > kbar
        (4, 2, 3, 2),  # dbar > nbar - 1
    ],
)
def test_invalid_params_rejected(n, u, k, dbar):
    with pytest.raises(ParameterError):
        SystemParams(n=n, u=u, k=k, dbar=dbar)


def test_boundary_dbar_equals_kbar_is_admitted():
    p = SystemParams(n=50, u=5, k=44, dbar=8)
    assert p.dbar == p.kbar


# ---------------------------------------------------------------------------
# cut-set bound
# ---------------------------------------------------------------------------


def test_cutset_hand_value():
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    assert cutset_bound(p, 1, 1) == 3  # (4-2)*1 + min(1,1)


def test_cutset_degenerate_cases():
    p0 = SystemParams(n=6, u=2, k=4, dbar=0)
    assert cutset_bound(p0, 5, 0) == (4 - 2) * 5  # empty sum
    p1 = SystemParams(n=6, u=2, k=4, dbar=1)
    assert cutset_bound(p1, 3, 0) == (4 - 2) * 3  # beta=0 zeroes the min terms


def test_cutset_accepts_rationals():
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    assert cutset_bound(p, Fraction(1, 2), Fraction(1, 3)) == Fraction(4, 3)


def test_cutset_validates_inputs():
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    with pytest.raises(ParameterError):
        cutset_bound(p, 0, 1)
    with pytest.raises(ParameterError):
        cutset_bound(p, 1, -1)


# ---------------------------------------------------------------------------
# min-cut profile
# ---------------------------------------------------------------------------


def test_profile_endpoints():
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    assert mincut_profile(p, 1, 1, p.kbar) == cutset_bound(p, 1, 1)
    assert mincut_profile(p, 1, 1, 0) == p.k * 1


def test_profile_non_increasing_sweep():
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    values = [mincut_profile(p, 1, 1, l) for l in range(p.kbar + 1)]
    assert values == sorted(values, reverse=True)


def termwise_cut(p, alpha, beta, lbar):
    """The cut value summed term by term: the oracle for the closed form."""
    acc = (p.k - lbar) * alpha
    for i in range(1, min(lbar, p.dbar) + 1):
        acc += min((p.dbar - i + 1) * beta, alpha)
    return acc


@st.composite
def cut_case(draw):
    u = draw(st.integers(2, 6))
    nbar = draw(st.integers(2, 120))
    k = draw(st.integers(u, nbar * u - 1))
    p = SystemParams(n=nbar * u, u=u, k=k, dbar=draw(st.integers(0, min(k // u, nbar - 1))))
    number = st.integers(0, 300) | st.fractions(0, 300, max_denominator=40)
    alpha = draw(number.filter(lambda x: x > 0))
    return p, alpha, draw(number), draw(st.integers(0, p.kbar))


@settings(max_examples=400, deadline=None)
@given(cut_case())
def test_closed_form_cut_equals_termwise_sum(case):
    p, alpha, beta, lbar = case
    assert mincut_profile(p, alpha, beta, lbar) == termwise_cut(p, alpha, beta, lbar)
    assert cutset_bound(p, alpha, beta) == termwise_cut(p, alpha, beta, p.kbar)


def test_profile_bounds_lbar():
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    with pytest.raises(ParameterError):
        mincut_profile(p, 1, 1, p.kbar + 1)


# ---------------------------------------------------------------------------
# tradeoff points
# ---------------------------------------------------------------------------


def test_msrr_point_table_row():
    p = SystemParams(n=50, u=5, k=44, dbar=4)
    point = msrr_point(p)
    assert (point.alpha, point.beta, point.B) == (1, 1, 40)
    assert overhead_pair(point, p) == (Fraction(5, 4), Fraction(4))


def test_msrr_point_no_helpers():
    p = SystemParams(n=50, u=5, k=44, dbar=0)
    point = msrr_point(p)
    assert (point.alpha, point.beta, point.B) == (1, 0, 36)
    storage, bandwidth = overhead_pair(point, p)
    assert storage == Fraction(50, 36)
    assert bandwidth == 0


def test_msrr_point_boundary():
    p = SystemParams(n=50, u=5, k=44, dbar=8)
    assert msrr_point(p).B == 44
    assert overhead_pair(msrr_point(p), p)[0] == Fraction(50, 44)


def test_mbrr_point_table_rows():
    p4 = SystemParams(n=50, u=5, k=44, dbar=4)
    point = mbrr_point(p4)
    assert (point.alpha, point.beta, point.B) == (4, 1, 154)
    assert overhead_pair(point, p4) == (Fraction(200, 154), Fraction(1))
    p8 = SystemParams(n=50, u=5, k=44, dbar=8)
    assert mbrr_point(p8).B == 324


def test_mbrr_point_rejects_no_helpers():
    with pytest.raises(ParameterError):
        mbrr_point(SystemParams(n=50, u=5, k=44, dbar=0))


def test_points_coincide_at_single_helper():
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    ms, mb = msrr_point(p), mbrr_point(p)
    assert (ms.alpha, ms.beta, ms.B) == (mb.alpha, mb.beta, mb.B)


def test_mbrr_bandwidth_overhead_is_always_one():
    for n, u, k, dbar in [(50, 5, 44, 4), (100, 5, 94, 8), (8, 2, 5, 1)]:
        p = SystemParams(n=n, u=u, k=k, dbar=dbar)
        assert overhead_pair(mbrr_point(p), p)[1] == 1


def test_download_covers_storage_at_both_points():
    for n, u, k, dbar in [(50, 5, 44, 4), (50, 5, 44, 8), (8, 2, 5, 1)]:
        p = SystemParams(n=n, u=u, k=k, dbar=dbar)
        for point in (msrr_point(p), mbrr_point(p)):
            assert p.dbar * point.beta >= point.alpha


def test_points_satisfy_bound_over_small_grid():
    for u in range(2, 6):
        for nbar in range(2, 8):
            n = nbar * u
            for k in range(u, n):
                kbar = k // u
                for dbar in range(0, min(kbar, nbar - 1) + 1):
                    p = SystemParams(n=n, u=u, k=k, dbar=dbar)
                    ms = msrr_point(p)
                    assert cutset_bound(p, ms.alpha, ms.beta) == ms.B == k - kbar + dbar
                    if dbar >= 1:
                        mb = mbrr_point(p)
                        assert (
                            cutset_bound(p, mb.alpha, mb.beta)
                            == mb.B
                            == (k - kbar) * dbar + dbar * (dbar + 1) // 2
                        )


def test_tradeoff_points_follow_dbar():
    p0 = SystemParams(n=50, u=5, k=44, dbar=0)
    assert tradeoff_points(p0) == [msrr_point(p0)]
    p4 = SystemParams(n=50, u=5, k=44, dbar=4)
    assert tradeoff_points(p4) == [msrr_point(p4), mbrr_point(p4)]


def test_labels():
    p = SystemParams(n=8, u=2, k=5, dbar=1)
    assert msrr_point(p).label == MSRR
    assert mbrr_point(p).label == MBRR


# ---------------------------------------------------------------------------
# sweep table
# ---------------------------------------------------------------------------


def test_sweep_matches_published_first_row():
    pairs, notes = sweep_table(5, 6, [10], [0, 4, 8])
    assert not notes
    table = {(p.dbar, point.label): overhead_pair(point, p) for p, point in pairs}
    assert table[(0, MSRR)][0] == Fraction(50, 36)
    assert table[(4, MSRR)][0] == Fraction(5, 4)
    assert table[(4, MBRR)][0] == Fraction(200, 154)
    assert table[(8, MSRR)][0] == Fraction(50, 44)
    assert table[(8, MBRR)][0] == Fraction(400, 324)
    assert all(bandwidth == 1 for (_, code), (_, bandwidth) in table.items() if code == MBRR)
    assert table[(0, MSRR)][1] == 0


def test_sweep_skips_invalid_cells_with_note():
    pairs, notes = sweep_table(5, 6, [2], [8])  # n=10, k=4 < u: no full rack
    assert pairs == []
    assert len(notes) == 1 and "skipped" in notes[0]


def test_sweep_cells_are_independent():
    pairs_a, _ = sweep_table(5, 6, [10, 20], [0, 4])
    pairs_b, _ = sweep_table(5, 6, [20, 10], [4, 0])
    assert {(p, point, overhead_pair(point, p)) for p, point in pairs_a} == {
        (p, point, overhead_pair(point, p)) for p, point in pairs_b
    }

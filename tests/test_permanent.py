import random
from math import comb, exp, factorial, log

import pytest
from hypothesis import given, settings, strategies as st

from permatch import (
    BadParamsError,
    TooLargeError,
    derangement_number,
    log_bounds,
    permanent_naive,
    permanent_ryser,
    permanent_zero_one,
    subpermanent_sides,
)
from permatch.permanent import SPARSE_MAX, _permanent_bits_dp, _permanent_bits_sparse


def brick(n, fill):
    return [[fill] * n for _ in range(n)]


def dense(rows, n):
    return [[row >> j & 1 for j in range(n)] for row in rows]


def test_tiny_cases():
    assert permanent_naive([]) == 1
    assert permanent_ryser([]) == 1
    assert permanent_zero_one([], 0) == 1
    assert permanent_naive([[7]]) == 7
    assert permanent_ryser([[0]]) == 0
    assert permanent_ryser([[1, 2], [3, 4]]) == 1 * 4 + 2 * 3


def test_all_ones_is_factorial():
    for n in range(1, 7):
        assert permanent_ryser(brick(n, 1)) == factorial(n)
        assert permanent_zero_one([(1 << n) - 1] * n, n) == factorial(n)


def test_derangement_matrix():
    # J - I counts derangements
    want = [1, 0, 1, 2, 9, 44, 265, 1854]
    for n in range(1, 8):
        m = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        assert permanent_ryser(m) == want[n]


def test_input_validation():
    with pytest.raises(BadParamsError):
        permanent_ryser([[1, 2], [3]])
    with pytest.raises(BadParamsError):
        permanent_ryser([[-1]])
    with pytest.raises(BadParamsError):
        permanent_ryser([[1.5]])
    with pytest.raises(TooLargeError):
        permanent_naive(brick(11, 1))
    for n in (21, 31):
        with pytest.raises(TooLargeError):
            permanent_zero_one([0] * n, n)
    with pytest.raises(BadParamsError):
        permanent_zero_one([4], 1)  # bit outside the square


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_ryser_matches_naive_on_general_entries(m):
    assert permanent_ryser(m) == permanent_naive(m)


@given(st.data())
def test_zero_one_routes_agree(data):
    # n crosses the switch between the dict and the numpy form of the DP;
    # both forms run at every n against generic Ryser on the dense matrix
    n = data.draw(st.integers(1, SPARSE_MAX + 2))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    mat = dense(rows, n)
    expected = permanent_ryser(mat)
    if n <= 7:
        assert permanent_naive(mat) == expected
    assert permanent_zero_one(rows, n) == expected
    assert _permanent_bits_sparse(rows) == expected
    assert _permanent_bits_dp(rows, n) == expected


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_dp_path_matches_ryser_midsize(seed):
    # n >= 13 runs the int64 stage of the numpy DP
    rng = random.Random(seed)
    n = rng.choice([12, 13, 14])
    rows = [rng.getrandbits(n) for _ in range(n)]
    assert permanent_zero_one(rows, n) == permanent_ryser(dense(rows, n))


def test_dispatcher_uses_dp_in_range():
    # the public dispatcher and both forms of the DP agree on either side of the switch
    rng = random.Random(5)
    for n in (SPARSE_MAX, SPARSE_MAX + 1):
        rows = [rng.getrandbits(n) for _ in range(n)]
        expected = permanent_ryser(dense(rows, n))
        assert permanent_zero_one(rows, n) == expected
        assert _permanent_bits_sparse(rows) == _permanent_bits_dp(rows, n) == expected


@pytest.mark.parametrize("n", [7, 8, 9, 12, 13, 20])
def test_zero_one_boundaries(n):
    # int16 -> int32 widening at row 7, dict/numpy switch at 8/9, int32 -> int64
    # widening at row 12, and the top of the exact range
    full = (1 << n) - 1
    assert permanent_zero_one([full] * n, n) == factorial(n)
    assert permanent_zero_one([full ^ 1 << i for i in range(n)], n) == derangement_number(n)


def test_subpermanent_identity_small():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        for k in range(n + 1):
            lhs, rhs = subpermanent_sides(m, k)
            assert lhs == rhs
            if k == 0:
                assert lhs == permanent_ryser(m)
    with pytest.raises(BadParamsError):
        subpermanent_sides([[1]], 2)
    with pytest.raises(TooLargeError):
        subpermanent_sides(brick(9, 1), 1)


def test_log_bounds_bracket_known_values():
    # K_{n,n}: per = n!, bounds with k = n must bracket it
    for n in range(1, 10):
        lo, hi = log_bounds(n, n)
        assert lo - 1e-9 <= log(factorial(n)) <= hi + 1e-9
    # a single permutation matrix: per = 1 so log per = 0; the upper bound
    # is exactly 0 at k = 1 while the lower one stays strictly below
    lo, hi = log_bounds(6, 1)
    assert lo < 0 and abs(hi) < 1e-12
    with pytest.raises(BadParamsError):
        log_bounds(3, 4)
    with pytest.raises(BadParamsError):
        log_bounds(3, 0)


def test_log_bounds_on_circulants():
    # circulant with k consecutive diagonals: exactly k-regular
    for n, k in [(6, 2), (7, 3), (8, 4)]:
        rows = []
        for i in range(n):
            row = 0
            for d in range(k):
                row |= 1 << ((i + d) % n)
            rows.append(row)
        p = permanent_zero_one(rows, n)
        lo, hi = log_bounds(n, k)
        assert lo - 1e-9 <= log(p) <= hi + 1e-9

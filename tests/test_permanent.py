import itertools
import math
import random
import warnings
from math import comb, factorial, log

import numpy as np
import pytest
from hypothesis import given, strategies as st

from draws import draw
from oracles import derangement_number, log_bounds, permanent_avoiding, permanent_naive
from permatch import (
    BadParamsError,
    ModelSpec,
    TooLargeError,
    permanent_ryser,
    permanent_zero_one,
    subpermanent_sides,
)
from permatch.counting import _diagonal_profile
from permatch.permanent import (
    BREGMAN,
    DP_MAX,
    GLYNN_MAX,
    RYSER_LIMIT,
    _certificate,
    _pass_layout,
    _permanents_bits,
    _plan,
    SUBSET_SLOTS_MAX,
    subset_permanents,
)
from permatch import permanent


def brick(n, fill):
    return [[fill] * n for _ in range(n)]


def dense(rows, n):
    return [[row >> j & 1 for j in range(n)] for row in rows]


def dict_dp(rows):
    """per of the 0/1 matrix with these row bitmasks by counting's fixed-point DP, an algorithm apart from the
    kernel's: the sum of its diagonal profile."""
    return sum(_diagonal_profile(rows))


def per(rows, n):
    return permanent_zero_one(n, [rows])[0]


def pair(rows, n):
    """(per(A), per(A | I)) from one kernel call."""
    return tuple(permanent_zero_one(n, [rows, [row | 1 << i for i, row in enumerate(rows)]]))


def blocks(*sizes):
    """The block-diagonal 0/1 matrix J_a + J_b + ... as row bitmasks: per = a! b! ..., where Bregman's bound is
    tight."""
    rows, offset = [], 0
    for size in sizes:
        rows += [(1 << size) - 1 << offset] * size
        offset += size
    return rows


def route(rows):
    """(scale, certified) of a matrix past GLYNN_MAX: the kernel sums 2^scale per(A), and reads it off the wrapped
    int64 total alone when certified."""
    return _certificate([row.bit_count() for row in rows])


def layout(rows, n):
    """The row groups of the pass that counts A and A | I, as pair does, each a list of pieces, each a list of
    positions of the sorted rows."""
    return _pass_layout([rows, [row | 1 << i for i, row in enumerate(rows)]], n)[1]


def pinned(n, counts):
    """The n x n 0/1 matrix whose first len(counts) rows hold the lowest counts[i] columns and whose other rows hold
    one column each, n - 1 down to len(counts): per = len(counts)! when no count is below len(counts). At S = {}
    every row's value is -r_i, so each piece and each group attains its product of bounds there, with the sign of
    its row count."""
    return [(1 << c) - 1 for c in counts] + [1 << j for j in range(n - 1, len(counts) - 1, -1)]


def products(rows, n):
    """(piece products, group products) of the bounds of A's rows in the layout of A alone, as per counts it: its
    counts, as no row is halved through GLYNN_MAX."""
    ordered = sorted(row.bit_count() or 1 for row in rows)
    plan = _pass_layout([rows], n)[1]
    pieces = [math.prod(ordered[i] for i in piece) for group in plan for piece in group]
    return pieces, [math.prod(ordered[i] for piece in group for i in piece) for group in plan]


def test_tiny_cases():
    assert permanent_naive([]) == 1
    assert permanent_ryser([]) == 1
    assert permanent_zero_one(0, [[]]) == [1]
    assert permanent_naive([[7]]) == 7
    assert permanent_ryser([[0]]) == 0
    assert permanent_ryser([[1, 2], [3, 4]]) == 1 * 4 + 2 * 3


def test_empty_matrix_and_empty_list():
    # n = 0: every empty matrix has the one empty permutation; no matrices, no counts, at any size
    assert permanent_zero_one(0, [[]]) == [1]
    assert permanent_zero_one(0, [[], []]) == [1, 1]
    for n in (0, 1, 9, DP_MAX):
        assert permanent_zero_one(n, []) == []


def test_all_ones_is_factorial():
    for n in range(1, 7):
        assert permanent_ryser(brick(n, 1)) == factorial(n)
        assert per([(1 << n) - 1] * n, n) == factorial(n)


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
    for n in (21, 31):
        with pytest.raises(TooLargeError):
            permanent_zero_one(n, [[0] * n])
        with pytest.raises(TooLargeError):
            permanent_zero_one(n, [])
    with pytest.raises(TooLargeError):
        permanent_ryser(brick(RYSER_LIMIT + 1, 1))  # past its measured time budget
    with pytest.raises(BadParamsError):
        permanent_zero_one(1, [[4]])  # bit outside the square


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
    # the kernel and the fixed-point DP against generic Ryser on the dense matrix, from the
    # smallest kernel size up
    n = data.draw(st.integers(1, 10))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    mat = dense(rows, n)
    expected = permanent_ryser(mat)
    if n <= 7:
        assert permanent_naive(mat) == expected
    assert per(rows, n) == expected
    assert dict_dp(rows) == expected


def test_zero_one_kernel_matches_dict_dp():
    # the oracles here are the fixed-point DP, which sums over no column sets as
    # both the kernel and generic Ryser do, and, where affordable, naive summation.
    # The 12 matrices come from a fixed seed, so their cost and outcome do not move with this test's source
    rng = random.Random(2019)
    for _ in range(12):
        n = rng.randint(9, GLYNN_MAX)
        rows = [rng.getrandbits(n) for _ in range(n)]
        expected = dict_dp(rows)
        if n <= 10:
            assert permanent_naive(dense(rows, n)) == expected, rows
        assert per(rows, n) == expected, rows
        with_diagonal = [row | 1 << i for i, row in enumerate(rows)]
        assert pair(rows, n) == (expected, dict_dp(with_diagonal)), rows


# matrices per stacked pass: as many as fit HIGH_BLOCK * 2^LOW_BITS int32 elements over Glynn's 2^(n-1) column
# sets, never fewer than two, which holds from n = 15 on
PER_PASS = {1: 32768, 4: 4096, 8: 256, 9: 128, 12: 16, 13: 8, 14: 4, 16: 2, 17: 2, 18: 2, 19: 2, 20: 2}


@pytest.mark.parametrize("n", sorted(PER_PASS))
def test_stacked_passes_match_the_single_graph_route(n):
    # the first 1, per_pass - 1, per_pass and per_pass + 1 inputs, so some calls end on a short pass; the zero and
    # the full matrix lead every call, in one pass, and every later pass must refill its own row counts. Each input
    # alone is the reference: one kernel call each, or through n = 8, where a pass holds hundreds to thousands of
    # inputs and a kernel call each would take seconds, the fixed-point DP
    rng = random.Random(n)
    per_pass, full = PER_PASS[n], (1 << n) - 1
    inputs = [[0] * n, [full] * n] + [[rng.getrandbits(n) for _ in range(n)] for _ in range(per_pass - 1)]
    alone = dict_dp if n <= 8 else lambda rows: _permanents_bits([rows], n)[0]
    want = [alone(rows) for rows in inputs]
    assert want[:2] == [0, factorial(n)]
    for count in sorted({1, per_pass - 1, per_pass, per_pass + 1}):
        assert _permanents_bits(inputs[:count], n) == want[:count], count
        assert permanent_zero_one(n, inputs[:count]) == want[:count], count


@pytest.mark.parametrize("n", [4, 9])
def test_every_stacked_input_is_validated(n, monkeypatch):
    # a bad matrix at the end of the list is refused before any is counted: the stacked sum never runs
    good = [(1 << n) - 1] * n
    bad_rows = ([good, good[:-1]], [good, [*good[:3], 1 << n, *good[4:]]], [good, good, [*good[:-1], -1]])
    monkeypatch.setattr(permanent, "_permanents_bits", None)
    for matrices, message in zip(bad_rows, (f"expected {n} rows, got {n - 1}", "row 3 has bits", f"row {n - 1} has")):
        with pytest.raises(BadParamsError, match=message):
            permanent_zero_one(n, matrices)
    with pytest.raises(TooLargeError):
        permanent_zero_one(21, [[0] * 21])
    for size in (-1, -5):
        with pytest.raises(BadParamsError):
            permanent_zero_one(size, [[]])
        with pytest.raises(BadParamsError):
            permanent_zero_one(size, [])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20])
def test_zero_one_boundaries(n):
    # the smallest kernel size (1: Glynn's sum has no column to range over), column
    # sets under one byte (7, 8) and exactly one (9), Glynn's split of columns 1..n-1 with no
    # high part (13), fixed int32 row groups of 7 + 6 rows (13), one high bit (14), whose J_14 takes
    # row groups of 8 + 6 rows, 6 + 6 + 3 rows at n = 15, J_16, whose 2^15 * 16! is the largest exact int64 total, and
    # n = 17 to 20, whose totals 2^(n-1) n! pass 2^64: J_17, J_19 and J_n - I at
    # even n need the float total to complete the wrapped one, while J_n at even n
    # and J_n - I at odd n have every row even, halved, and are certified
    full = (1 << n) - 1
    assert per([full] * n, n) == factorial(n)
    assert pair([full] * n, n) == (factorial(n), factorial(n))
    deranging = [full ^ 1 << i for i in range(n)]
    assert per(deranging, n) == derangement_number(n)
    assert pair(deranging, n) == (derangement_number(n), factorial(n))
    if n > GLYNN_MAX:  # the route each took: every row odd and the float total, or every row even (e = n)
        odd, even = ([full] * n, deranging) if n % 2 else (deranging, [full] * n)
        assert route(odd) == (n - 1, False) and route(even) == (-1, True)
    if n in (13, 14, 15):  # the row groups' sizes: fixed without high parts, from J_n's bounds with them
        plan = layout([full] * n, n) if n > 13 else _plan([DP_MAX] * n, np.int8)
        assert [sum(map(len, group)) for group in plan] == {13: [7, 6], 14: [8, 6], 15: [6, 6, 3]}[n]
    # the zero matrix, an empty last row, and the permutation matrix of the cycle i -> i + 1
    cycle = [1 << (i + 1) % n for i in range(n)]
    assert permanent_zero_one(n, [[0] * n, [full] * (n - 1) + [0], cycle]) == [0, 0, 1]


def test_block_diagonal_product():
    # per of a block-diagonal matrix is the product of the blocks' permanents,
    # each taken by the fixed-point DP; n = 20 runs every high part of the kernel
    rng = random.Random(20)
    for _ in range(3):
        top = [rng.getrandbits(10) for _ in range(10)]
        bottom = [rng.getrandbits(10) for _ in range(10)]
        rows = top + [row << 10 for row in bottom]
        d, p = pair(rows, 20)
        assert d == dict_dp(top) * dict_dp(bottom)
        assert p == pair(top, 10)[1] * pair(bottom, 10)[1]


def test_row_group_fits_int32():
    # a group's pieces multiply in int32: for seeded bounds every group's product of bounds is at most 2^31 - 1, and
    # on the worst case, every bound DP_MAX, the plan needs no more groups than the fixed groups of 7 rows
    # (20^7 < 2^31 < 20^8) that every pass without high parts keeps
    rng = random.Random(31)
    for _ in range(400):
        bounds = [rng.randint(1, DP_MAX) for _ in range(rng.randint(1, DP_MAX))]
        for values in (np.int8, np.int16):
            plan = _plan(bounds, values)
            assert sorted(i for group in plan for piece in group for i in piece) == list(range(len(bounds)))
            assert all(math.prod(bounds[i] for piece in group for i in piece) <= 2**31 - 1 for group in plan)
    for n in range(1, DP_MAX + 1):
        fixed = [list(range(s, min(s + 7, n))) for s in range(0, n, 7)]
        assert [[i for piece in group for i in piece] for group in _plan([DP_MAX] * n, np.int8)] == fixed
        assert len(_plan([DP_MAX] * n, np.int16)) == len(fixed), n


def test_row_piece_fits_int16():
    # a piece's row values multiply in int16 (int8 without high parts): for seeded bounds every piece's product of
    # bounds stays within the dtype. On the worst case int8 holds one row a piece, as every pass through n = 13
    # runs, and int16 pieces of at most 3 rows (20^3 < 2^15 < 20^4) number no more than the fixed groups' 3 + 3 + 1
    rng = random.Random(15)
    for _ in range(400):
        bounds = [rng.randint(1, DP_MAX) for _ in range(rng.randint(1, DP_MAX))]
        for values, limit in ((np.int8, 2**7 - 1), (np.int16, 2**15 - 1)):
            plan = _plan(bounds, values)
            assert all(math.prod(bounds[i] for i in piece) <= limit for group in plan for piece in group)
    for n in range(1, DP_MAX + 1):
        assert all(len(piece) == 1 for group in _plan([DP_MAX] * n, np.int8) for piece in group)
        plan = _plan([DP_MAX] * n, np.int16)
        assert max(len(piece) for group in plan for piece in group) == min(n, 3)
        assert sum(map(len, plan)) <= sum(-(-min(7, n - s) // 3) for s in range(0, n, 7)), n


def test_pieces_and_groups_at_the_limits_of_their_dtypes():
    # rows pinned so that at S = {} each piece and group attains its product of bounds, with an even row count:
    # 2^15 - 1 = 7 * 31 * 151 is no product of counts up to 16, and 15 * 14 * 13 * 12 = 32760 is the largest, which
    # one int16 piece holds; 16^3 * 8 = 2^15 wraps int16, and 16^7 * 8 = 2^31 wraps int32, so the plan splits
    # them. A limit one past the dtype's, or bounds one short of the counts, puts each in one piece or group
    n = 16
    for counts, want, pieces, groups in [([15, 14, 13, 12], 24, 1, 1), ([16, 16, 16, 8], 24, 2, 1),
                                         ([16] * 7 + [8], factorial(8), 3, 2)]:
        rows = pinned(n, counts)
        assert dict_dp(rows) == want
        assert per(rows, n) == want, counts
        piece_products, group_products = products(rows, n)
        assert (len(piece_products), len(group_products)) == (pieces, groups), counts
        assert max(piece_products) <= 2**15 - 1 and max(group_products) <= 2**31 - 1


def test_bregman_table_rounds_the_factorial_roots_up():
    # BREGMAN[r] is the least b with b^r >= r! 2^(32 r), so 2^(-32 n) prod_i BREGMAN[r_i] is never below Bregman's
    # prod_i (r_i!)^(1/r_i), and only just above it: 2^(-32) (BREGMAN[r] - 1) falls short of (r!)^(1/r)
    assert len(BREGMAN) == DP_MAX + 1 and BREGMAN[0] == 2**32
    for r in range(1, DP_MAX + 1):
        assert BREGMAN[r] ** r >= factorial(r) << 32 * r > (BREGMAN[r] - 1) ** r, r


def test_certificate_edges_on_blocks_of_ones():
    # every row of J_a + J_b at n = 20 is odd for odd a and b, so the kernel sums 2^19 a! b!: 2^62.72 for
    # J_9 + J_11 is certified, 2^63.84 for J_7 + J_13 passes 2^63 and needs the float total
    assert 2**62 < 2**19 * factorial(9) * factorial(11) < 2**63 <= 2**19 * factorial(7) * factorial(13) < 2**64
    assert route(blocks(9, 11)) == (19, True)
    assert route(blocks(7, 13)) == (19, False)
    assert permanent_zero_one(20, [blocks(9, 11), blocks(7, 13)]) == [
        factorial(9) * factorial(11), factorial(7) * factorial(13)]


def test_glynn_total_fits_int64():
    # Glynn's total 2^(n-1) * per(A) <= 2^(n-1) * n! stays below the int64 wrap-around
    # through GLYNN_MAX, and no further
    assert 2 ** (GLYNN_MAX - 1) * factorial(GLYNN_MAX) < 2**63 <= 2**GLYNN_MAX * factorial(GLYNN_MAX + 1)


def test_float_total_lands_within_the_wrapped_totals_reach():
    # past GLYNN_MAX the kernel takes an uncertified total T' = 2^(n-1-e) per(A), its e even rows halved, as the one
    # integer of the wrapped int64 total's residue class within 2^63 of the float total. A float term is the product
    # of the pass's G row groups, each exact, so it carries at most G - 1 roundings, and the sum of N = 2^(n-1)
    # terms N - 1 more: with u = 2^-53 the float total is off by at most (N + G) u sum_S prod_i |v_i(S)|. A group
    # holds at least one row, so G <= n <= DP_MAX. By Hoelder that sum is at most the largest sum_S |v(S)|^n over
    # one row's values v(S) = 2 |(row >> 1) & S| - r (halved values only make it smaller).
    # That sum depends only on the row's count r and whether column 0, which S never holds, is one of its bits:
    # with f = r or r - 1 bits among columns 1..n-1, |(row >> 1) & S| = j for C(f, j) 2^(n-1-f) sets S
    for n in range(GLYNN_MAX + 1, DP_MAX + 1):
        sums = [
            sum(comb(f, j) * 2 ** (n - 1 - f) * abs(2 * j - r) ** n for j in range(f + 1))
            for r in range(n + 1)
            for f in {r, r - 1} & set(range(n))
        ]
        assert (2 ** (n - 1) + DP_MAX) * max(sums) < 2 ** (62 + 53), n  # (N + G) u B_n < 2^62
    assert 2**89 < max(sums) < 2**90  # B_20, the largest
    assert 2**55 < (2**19 + DP_MAX) * max(sums) / 2**53 < 2**56  # its error bound, far below 2^62


# seeds per size: the fixed-point DP oracle takes 0.15 s per draw at n = 17 and 1.6 s at n = 20
FLOAT_DRAWS = [(17, 0), (17, 1), (17, 2), (18, 0), (18, 1), (19, 0), (20, 0)]


@pytest.mark.parametrize("n, seed", FLOAT_DRAWS)
def test_float_completed_sizes_match_the_dict_dp(n, seed):
    # certified draws through bound-sized pieces at the sizes past GLYNN_MAX (the float completion is the dense
    # test's below): a G(n, 1/2) draw A and A + I in one kernel call, against the diagonal profile of A + I by
    # counting's fixed-point DP, an algorithm apart from the kernel: A has no loop, so the permutations of A + I that
    # fix no vertex are per(A). Bregman certifies both totals, even rows halved, below 2^63, so the kernel reads them
    # off the wrapped int64 total alone: a wrong halving, or a piece or group that the row bounds let overflow, shows
    # here
    rows = list(draw(ModelSpec("graph", n, q="1/2"), seed).rows)
    with_loops = [row | 1 << i for i, row in enumerate(rows)]
    assert route(rows)[1] and route(with_loops)[1]
    profile = _diagonal_profile(with_loops)
    assert pair(rows, n) == (profile[0], sum(profile))


@pytest.mark.parametrize("n", range(GLYNN_MAX + 1, DP_MAX + 1))
def test_float_completed_sizes_match_inclusion_exclusion_when_dense(n):
    # G(n, 1/2) draws are certified, so the wrapped int64 total alone is their total. J_n less a few seeded
    # cells, and its A | I, have per near n!, past that: the float total must pick the total, against
    # inclusion-exclusion over the zeroed cells. The cells keep enough rows of A odd that its halved total
    # 2^scale per(A) passes 2^63: two go from each of 1 to 6 rows at odd n, whose rows all stay odd, and one from
    # each of 13 or 14 rows at even n, whose other rows are even. Their bounds are near n, so the float product
    # runs over three row groups or more
    rng = random.Random(n)
    full = (1 << n) - 1
    for _ in range(8):
        hit = rng.sample(range(n), rng.randint(1, 6) if n % 2 else rng.randint(13, 14))
        cells = sorted((i, j) for i in hit for j in rng.sample(range(n), 1 + n % 2))
        rows = [full & ~sum(1 << j for r, j in cells if r == i) for i in range(n)]
        want = permanent_avoiding(n, cells), permanent_avoiding(n, [(i, j) for i, j in cells if i != j])
        scale, certified = route(rows)
        assert 2**scale * want[0] >= 2**63 and not certified
        assert len(layout(rows, n)) >= 3
        assert pair(rows, n) == want, cells


@pytest.mark.parametrize("n, split", [(14, 6), (15, 8)])
def test_block_diagonal_across_row_groups(n, split):
    # the diagonal blocks straddle a boundary between the pass's int32 row groups: A's rows, sorted by count, put
    # rows of one block in two groups, which must multiply back to the product of the blocks' permanents. Blocks
    # with three in four cells set have bounds whose product passes int32, so that the plan needs two groups
    rng = random.Random(n)
    for _ in range(3):
        top = [rng.getrandbits(split) | rng.getrandbits(split) for _ in range(split)]
        bottom = [rng.getrandbits(n - split) | rng.getrandbits(n - split) for _ in range(n - split)]
        rows = top + [row << split for row in bottom]
        top_i = [row | 1 << i for i, row in enumerate(top)]
        bottom_i = [row | 1 << i for i, row in enumerate(bottom)]
        sorted_rows = _pass_layout([rows, [row | 1 << i for i, row in enumerate(rows)]], n)[0][0]
        spans = [{index for index, group in enumerate(layout(rows, n)) for piece in group for i in piece
                  if (sorted_rows[i] >> split > 0) == lower} for lower in (False, True)]
        assert max(map(len, spans)) > 1
        assert pair(rows, n) == (dict_dp(top) * dict_dp(bottom), dict_dp(top_i) * dict_dp(bottom_i))


@pytest.mark.parametrize("n", [8, 20])
def test_pair_rows_with_diagonal(n):
    # even rows already hold their diagonal bit; odd rows lack it. A | I is J,
    # and per(A) counts permutations fixing no odd index (inclusion-exclusion)
    full = (1 << n) - 1
    rows = [full ^ (i & 1) << i for i in range(n)]
    odd = n // 2
    want = sum((-1) ** k * comb(odd, k) * factorial(n - k) for k in range(odd + 1))
    assert pair(rows, n) == (want, factorial(n))


def test_zero_one_kernel_wraps_silently():
    # products overflow int64 on J_20, its rows halved, and on J_20 - I, whose odd rows keep values up to 19, the
    # largest the kernel multiplies: both must wrap without a numpy warning
    full = (1 << 20) - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pair([full] * 20, 20) == (factorial(20), factorial(20))
        assert pair([full ^ 1 << i for i in range(20)], 20) == (derangement_number(20), factorial(20))


def test_subpermanent_identity_small():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        sides = subpermanent_sides(m)
        assert len(sides) == n + 1
        assert all(lhs == rhs for lhs, rhs in sides), trial
        # the block table's whole-matrix entry, read at k = 0 and k = n, against the naive sum
        per = permanent_naive(m)
        assert sides[0] == sides[n] == (per, per)
    assert subpermanent_sides([]) == [(1, 1)]
    with pytest.raises(TooLargeError):
        subpermanent_sides(brick(9, 1))


def test_log_bounds_bracket_known_values():
    # K_{n,n}: per = n!, bounds with k = n must bracket it
    for n in range(1, 10):
        lo, hi = log_bounds(n, n)
        assert lo - 1e-9 <= log(factorial(n)) <= hi + 1e-9
    # a single permutation matrix: per = 1 so log per = 0; the upper bound
    # is exactly 0 at k = 1 while the lower one stays strictly below
    lo, hi = log_bounds(6, 1)
    assert lo < 0 and abs(hi) < 1e-12


def test_log_bounds_on_circulants():
    # circulant with k consecutive diagonals: exactly k-regular
    for n, k in [(6, 2), (7, 3), (8, 4)]:
        rows = []
        for i in range(n):
            row = 0
            for d in range(k):
                row |= 1 << ((i + d) % n)
            rows.append(row)
        p = per(rows, n)
        lo, hi = log_bounds(n, k)
        assert lo - 1e-9 <= log(p) <= hi + 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subset_permanents_match_zero_one_kernel(n):
    # bit n*i + j of S is entry (i, j): the n! matchings of K_{n,n} as masks
    masks = [sum(1 << n * i + j for i, j in enumerate(sigma)) for sigma in itertools.permutations(range(n))]
    table = subset_permanents(n * n, masks)
    assert table.shape == (1 << n * n,) and table[-1] == len(masks) == factorial(n)
    hosts = [[index >> n * i & ((1 << n) - 1) for i in range(n)] for index in range(1 << n * n)]
    assert table.tolist() == permanent_zero_one(n, hosts)


def test_subset_permanents_edges():
    assert subset_permanents(0, []).tolist() == [0]
    assert subset_permanents(0, [0, 0]).tolist() == [2]
    assert subset_permanents(2, [0, 1, 3, 3]).tolist() == [1, 2, 1, 4]  # repeats count twice
    for slots, masks in [(2, [4]), (2, [-1]), (-1, [])]:
        with pytest.raises(BadParamsError):
            subset_permanents(slots, masks)
    with pytest.raises(TooLargeError):
        subset_permanents(SUBSET_SLOTS_MAX + 1, [])  # refused before any table is allocated

"""Exact matrix permanents and permanent bounds.

Three independent routes are kept deliberately:

* ``permanent_naive`` sums over all n! permutations and exists as an oracle.
* ``permanent_ryser`` walks column subsets in Gray-code order, updating the
  row sums incrementally; O(2^n * n) with exact big-int arithmetic.
* ``permanent_zero_one`` is the 0/1 kernel: dict DP for n <= 8, wrapping-int64
  Ryser for 9 <= n <= 20, with the d/p pair (per(A), per(A | I)) from one pass
  in ``permanent_zero_one_pair``. Ryser's sum is an integer combination of
  products of row counts, so int64 arithmetic that wraps gives per mod 2^64,
  which is per itself as 0 <= per <= 20! < 2^63. Larger inputs are refused.
"""

from __future__ import annotations

import itertools
from math import comb, lgamma, log
from typing import Sequence

import numpy as np

from .errors import BadParamsError, TooLargeError

RYSER_LIMIT = 21
NAIVE_LIMIT = 10

Matrix = Sequence[Sequence[int]]


def as_int_matrix(m: Matrix) -> tuple[tuple[int, ...], ...]:
    """Validate a square matrix of nonnegative integers; returns an immutable copy."""
    rows = tuple(tuple(r) for r in m)
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise BadParamsError(f"matrix is not square: row of length {len(r)}, expected {n}")
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise BadParamsError(f"matrix entries must be nonnegative integers, got {x!r}")
    return rows


def permanent_naive(m: Matrix, limit: int = NAIVE_LIMIT) -> int:
    """Permanent by direct summation over permutations. Oracle use only."""
    rows = as_int_matrix(m)
    n = len(rows)
    if n > limit:
        raise TooLargeError(f"naive permanent capped at n={limit}, got {n}")
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            x = rows[i][j]
            if not x:
                prod = 0
                break
            prod *= x
        total += prod
    return total


def permanent_ryser(m: Matrix) -> int:
    """Ryser's inclusion-exclusion permanent for nonnegative integer matrices."""
    rows = as_int_matrix(m)
    n = len(rows)
    if n > RYSER_LIMIT:
        raise TooLargeError(f"Ryser permanent capped at n={RYSER_LIMIT}, got {n}")
    if n == 0:
        return 1
    rowsum = [0] * n
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    total = 0
    prev = 0
    for s in range(1, 1 << n):
        gray = s ^ (s >> 1)
        bit = gray ^ prev
        prev = gray
        col = cols[bit.bit_length() - 1]
        if gray & bit:
            for i in range(n):
                rowsum[i] += col[i]
        else:
            for i in range(n):
                rowsum[i] -= col[i]
        prod = 1
        for x in rowsum:
            if not x:
                prod = 0
                break
            prod *= x
        if prod:
            # sign of the inclusion-exclusion term: +1 iff n and |S| share parity
            if (n ^ gray.bit_count()) & 1:
                total -= prod
            else:
                total += prod
    return total


# Up to SPARSE_MAX rows the DP runs over a dict of the reachable masks only,
# which beats numpy's per-call overhead; above it Ryser's formula runs on numpy.
SPARSE_MAX = 8
DP_MAX = 20
# Ryser splits column sets as S = L + H * 2^RYSER_LOW; row counts of every L are
# built once, and RYSER_BLOCK high parts H at a time keep arrays at 256 KB.
RYSER_LOW = 12
RYSER_BLOCK = 8
_MASKS = np.arange(1 << RYSER_LOW, dtype=np.int64)
_SIGNS = 1 - 2 * (np.bitwise_count(_MASKS) & 1).astype(np.int64)  # (-1)^|mask|


def _permanent_bits_sparse(bitrows: Sequence[int]) -> int:
    cur = {0: 1}
    for row in bitrows:
        new: dict[int, int] = {}
        get = new.get
        for mask, count in cur.items():
            free = row & ~mask
            while free:
                low = free & -free
                free ^= low
                key = mask | low
                new[key] = get(key, 0) + count
        cur = new
    return sum(cur.values())


def _row_counts(bitrows: Sequence[int], shift: int, bits: int) -> np.ndarray:
    """counts[i, m] = popcount(m & (row_i >> shift)) for every mask m < 2^bits."""
    part = np.array(bitrows, dtype=np.int64)[:, None] >> shift
    return np.bitwise_count(part & _MASKS[: 1 << bits]).astype(np.int64)


def _permanent_bits_ryser(matrices: Sequence[Sequence[int]], n: int) -> list[int]:
    """Ryser's per(A) = sum over column sets S of (-1)^(n-|S|) prod_i |row_i & S|
    for several 0/1 matrices in one pass. The sum is an integer combination of
    products, so int64 arithmetic wrapping mod 2^64 gives per(A) mod 2^64, and
    0 <= per(A) <= n! <= 20! < 2^63 makes that residue per(A) itself."""
    low = min(n, RYSER_LOW)
    high = n - low
    counts = [(_row_counts(rows, 0, low), _row_counts(rows, low, high)) for rows in matrices]
    low_signs, high_signs = _SIGNS[: 1 << low], _SIGNS[: 1 << high]
    totals = [0] * len(matrices)
    for h in range(0, 1 << high, RYSER_BLOCK):
        block = slice(h, h + RYSER_BLOCK)
        for k, (lo, hi) in enumerate(counts):
            prod = lo[0] + hi[0, block, None]
            for i in range(1, n):
                prod *= lo[i] + hi[i, block, None]
            totals[k] += int(high_signs[block] @ (prod @ low_signs))
    return [(-t if n & 1 else t) & (1 << 64) - 1 for t in totals]


def _permanents_bits(matrices: list[Sequence[int]], n: int) -> list[int]:
    """Permanents of n x n 0/1 matrices; matrices[0] is the caller's input."""
    if n < 0 or len(matrices[0]) != n:
        raise BadParamsError(f"expected {n} rows, got {len(matrices[0])}")
    if n > DP_MAX:
        raise TooLargeError(f"0/1 permanent capped at n={DP_MAX}, got {n}")
    for i, row in enumerate(matrices[0]):
        if row < 0 or row >> n:
            raise BadParamsError(f"row {i} has bits outside 0..{n - 1}")
    if n <= SPARSE_MAX:
        return [_permanent_bits_sparse(rows) for rows in matrices]
    return _permanent_bits_ryser(matrices, n)


def permanent_zero_one(bitrows: Sequence[int], n: int) -> int:
    """Permanent of the 0/1 matrix given as row bitmasks (bit j of row i = entry ij).

    Exact up to n = DP_MAX; larger inputs raise TooLargeError."""
    return _permanents_bits([bitrows], n)[0]


def permanent_zero_one_pair(bitrows: Sequence[int], n: int) -> tuple[int, int]:
    """(per(A), per(A | I)) for the 0/1 matrix A given as row bitmasks; above
    SPARSE_MAX both come from one Ryser pass. Same limits as permanent_zero_one."""
    d, p = _permanents_bits([bitrows, [row | 1 << i for i, row in enumerate(bitrows)]], n)
    return d, p


def subpermanent_sides(m: Matrix, k: int) -> tuple[int, int]:
    """Both sides of the splitting identity

        C(n, k) * per(M) = sum over |S| = |S'| = k of per(M[S, S']) * per(M[~S, ~S'])

    summing over row sets S and column sets S' of size k. Returned as
    (lhs, rhs); callers assert equality.
    """
    rows = as_int_matrix(m)
    n = len(rows)
    if n > 8:
        raise TooLargeError(f"subpermanent sum capped at n=8, got {n}")
    if not 0 <= k <= n:
        raise BadParamsError(f"block size k must be in [0, {n}], got {k}")
    lhs = comb(n, k) * permanent_ryser(rows)

    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def sub_per(rs: tuple[int, ...], cs: tuple[int, ...]) -> int:
        key = (rs, cs)
        if key not in memo:
            memo[key] = permanent_ryser([[rows[i][j] for j in cs] for i in rs])
        return memo[key]

    everything = range(n)
    picks = list(itertools.combinations(everything, k))
    rhs = 0
    for s in picks:
        s_c = tuple(x for x in everything if x not in s)
        for sp in picks:
            sp_c = tuple(x for x in everything if x not in sp)
            rhs += sub_per(s, sp) * sub_per(s_c, sp_c)
    return lhs, rhs


def log_bounds(n: int, k: int) -> tuple[float, float]:
    """Log-space sandwich for the permanent of any n x n 0/1 matrix whose row
    and column sums all equal k: n! (k/n)^n below, (k!)^(n/k) above."""
    if n < 1 or not 1 <= k <= n:
        raise BadParamsError(f"need 1 <= k <= n, got n={n}, k={k}")
    lower = lgamma(n + 1) + n * (log(k) - log(n))
    upper = (n / k) * lgamma(k + 1)
    return lower, upper

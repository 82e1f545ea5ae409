"""Exact matrix permanents and permanent bounds.

Three independent routes are kept deliberately:

* ``permanent_naive`` sums over all n! permutations and exists as an oracle.
* ``permanent_ryser`` walks column subsets in Gray-code order, updating the
  row sums incrementally; O(2^n * n) with exact big-int arithmetic.
* ``permanent_zero_one`` runs the used-column subset DP for 0/1 matrices:
  row i adds the count of every mask of i used columns to the same mask plus
  one more column of row i. It is exact up to n = 20 (partial counts after i
  rows never exceed i!, and 20! < 2^63) and refuses larger inputs. Small
  matrices walk a dict of reachable masks in pure Python, larger ones run
  the same recurrence on numpy arrays over all 2^n masks.
"""

from __future__ import annotations

import itertools
from math import comb, lgamma, log
from typing import Sequence

import numpy as np

from .errors import BadParamsError, TooLargeError

RYSER_LIMIT = 30
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
# which beats numpy's per-call overhead; above it the dense numpy arrays win.
SPARSE_MAX = 8
# Dtype stages for the dense DP. After processing i rows every partial count
# is at most i!, so counts fit int16 through row 7 (7! = 5040), int32 through
# row 12 (12! < 2^31), and int64 through row 20 (20! < 2^63).
_DP_WIDEN = {7: np.int32, 12: np.int64}
DP_MAX = 20


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


def _permanent_bits_dp(bitrows: Sequence[int], n: int) -> int:
    cur = np.zeros(1 << n, dtype=np.int16)
    cur[0] = 1
    for i in range(n):
        wider = _DP_WIDEN.get(i)
        if wider is not None:
            cur = cur.astype(wider)
        new = np.zeros(1 << n, dtype=cur.dtype)
        row = bitrows[i]
        while row:
            low = row & -row
            j = low.bit_length() - 1
            row ^= low
            # add counts of masks without column j to the same masks with it
            new.reshape(-1, 2, 1 << j)[:, 1, :] += cur.reshape(-1, 2, 1 << j)[:, 0, :]
        cur = new
    return int(cur[-1])


def permanent_zero_one(bitrows: Sequence[int], n: int) -> int:
    """Permanent of the 0/1 matrix given as row bitmasks (bit j of row i = entry ij).

    Exact up to n = DP_MAX; larger inputs raise TooLargeError."""
    if n < 0 or len(bitrows) != n:
        raise BadParamsError(f"expected {n} rows, got {len(bitrows)}")
    if n > DP_MAX:
        raise TooLargeError(f"0/1 permanent capped at n={DP_MAX}, got {n}")
    full = (1 << n) - 1
    for i, row in enumerate(bitrows):
        if row < 0 or row & ~full:
            raise BadParamsError(f"row {i} has bits outside 0..{n - 1}")
    if n <= SPARSE_MAX:
        return _permanent_bits_sparse(bitrows)
    return _permanent_bits_dp(bitrows, n)


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

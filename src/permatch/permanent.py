"""Exact matrix permanents.

Two independent routes are kept deliberately; the tests hold both to a third,
the naive sum over all n! permutations in ``tests/oracles.py``:

* ``permanent_ryser`` walks column subsets in Gray-code order, updating the
  row sums incrementally; O(2^n * n) with exact big-int arithmetic.
* ``permanent_zero_one`` is the 0/1 kernel, one stacked numpy kernel for every
  1 <= n <= 20 (the empty matrix, n = 0, has permanent 1): it sums Glynn's
  formula, whose total over half of Ryser's column sets is 2^(n-1) per. Row
  values multiply in pieces, pieces in int32 row groups and groups in
  wrapping int64, so the total is exact mod 2^64. A row's values are at most
  its count in magnitude, so each pass lays its rows out from their counts
  (``_plan``): through n = 13 one int8 value a piece and groups of 7 rows
  (20^7 < 2^31), from n = 14 rows sorted by count and packed into int16
  pieces and int32 groups whose products of counts fit those dtypes.
  Through n = 16 the total is exact, 2^(n-1) per <= 2^15 * 16! < 2^63, and
  a shift turns it into per. From n = 17 a row of even count has only even
  values, so those rows are halved. Bregman's bound
  per <= prod_i (r_i!)^(1/r_i), over a table of its factors rounded up in
  exact integers, then certifies most matrices' halved totals below 2^63,
  where the wrapped total is exact again. A pass that holds any other matrix
  also sums each column set's product in float64, which lands within 2^63 of
  the total (the bound is in ``_permanents_bits``), and picks the one integer
  of the wrapped residue class that lies that close. One call counts a whole
  list of matrices of one size, stacked into passes that reuse one set of
  work arrays, so a caller that needs several permanents states them all at
  once. Larger inputs are refused.

``subset_permanents`` does a different job: the permanents of every
restriction of one host at once. Each permutation of the host uses a fixed
set of entries (slots), so per(A restricted to S) counts the permutation
masks inside S, for all 2^slots sets S in one subset-sum (zeta) transform.
The exhaustive scans in :mod:`permatch.verify` run on it; the
tests compare it with ``permanent_zero_one`` on every small biadjacency.

``subpermanent_sides`` reads the block-splitting identity at every block size
off one table of square-block permanents, held to ``permanent_ryser``.
"""

from __future__ import annotations

import functools
import math
from math import comb, factorial
from typing import Sequence

import numpy as np

from .errors import BadParamsError, TooLargeError

RYSER_LIMIT = 21

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


DP_MAX = 20
# Glynn's total is 2^(n-1) * per(A) <= 2^15 * 16! < 2^63 through GLYNN_MAX rows: the wrapped int64 total is exact.
# Past it (2^16 * 17! > 2^64) the int64 total keeps the residue mod 2^64: Bregman's bound certifies the matrices
# whose total stays under 2^63, and for the others a float64 total picks the integer.
GLYNN_MAX = 16
# The kernel splits column sets as S = L + H * 2^LOW_BITS and takes HIGH_BLOCK high
# parts H at a time. A pass stacks as many matrices as fit HIGH_BLOCK * 2^LOW_BITS
# int32 elements per row group, and never fewer than two: 16 at n = 12,
# 8 at n = 13, 4 at n = 14, 2 from n = 15 on. Row values multiply in pieces and
# pieces in int32 row groups, as _plan lays them out, and every size past
# GLYNN_MAX has high parts (LOW_BITS < GLYNN_MAX).
LOW_BITS = 12
HIGH_BLOCK = 8
_BYTES = np.arange(256, dtype=np.uint8)
_COUNTS = 2 * np.bitwise_count(_BYTES[:, None] & _BYTES).astype(np.int8)  # [a, b] = 2 |a & b|, read-only
_COUNTS.flags.writeable = False
_SIGNS = 1 - 2 * (np.bitwise_count(np.arange(1 << LOW_BITS)) & 1).astype(np.int32)  # (-1)^|mask|


def _ceil_root(x: int, r: int) -> int:
    """The least b with b^r >= x, for x >= 1, from a float guess that is off by less than 2."""
    b = round(x ** (1 / r)) + 2
    while (b - 1) ** r >= x:
        b -= 1
    return b


# Bregman (1973): per(A) <= prod_i (r_i!)^(1/r_i) over the rows of a 0/1 matrix, r_i > 0. BREGMAN[r] =
# ceil(2^32 (r!)^(1/r)), so 2^(-32 n) prod_i BREGMAN[r_i] bounds per(A) in exact integers. A row with r = 0 makes
# per(A) = 0, under any bound: BREGMAN[0] = 2^32 stands for a factor 1.
BREGMAN = [1 << 32] + [_ceil_root(factorial(r) << 32 * r, r) for r in range(1, DP_MAX + 1)]


def _certificate(counts: list[int]) -> tuple[int, bool]:
    """(scale, certified) for a matrix past GLYNN_MAX with these row counts: the kernel sums T' = 2^scale per(A),
    scale = n - 1 - e with e rows of even count halved, and certified says that Bregman puts T' below 2^63."""
    scale = sum(r & 1 for r in counts) - 1  # n - 1 - e, the odd rows less one
    return scale, math.prod(BREGMAN[r] for r in counts) < 1 << 63 - scale + 32 * len(counts)


def _plan(bounds: Sequence[int], values: type) -> list[list[list[int]]]:
    """The row groups of a pass, each a list of pieces, each a list of row positions, for row values at most
    bounds[i] in magnitude at position i. A piece's values multiply in the dtype values and a group's pieces in
    int32, so a piece's product of bounds stays within values' range and a group's within int32's. Of two
    packings, the one with fewer groups (an int64 multiply each), then fewer pieces (a mixed-dtype multiply each):
    the positions first-fit in decreasing order of bound into pieces and those pieces first-fit into groups, or
    the positions in order, each joining the last piece if it fits, else a new piece of the last group, else a new
    group. On bounds of DP_MAX the second is the worst case's layout: in int16, pieces of 3 rows (20^3 < 2^15) and
    groups of 7 (20^7 < 2^31); in int8, one row a piece."""
    piece_max, group_max = int(np.iinfo(values).max), int(np.iinfo(np.int32).max)

    def first_fit(items: list, limit: int) -> list[list]:
        """Bins [product, members] of items [value, members] in decreasing value, each joining the first bin it
        fits."""
        bins = []
        for value, members in items:
            for b in bins:
                if b[0] * value <= limit:
                    b[0] *= value
                    b[1] += members
                    break
            else:
                bins.append([value, members])
        return bins

    order = sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True)
    pieces = first_fit([[bounds[i], [i]] for i in order], piece_max)
    pieces.sort(key=lambda b: b[0], reverse=True)
    packed = [members for _, members in first_fit([[p, [members]] for p, members in pieces], group_max)]
    in_order, group, piece = [], group_max + 1, 1  # the first position opens a group
    for i, b in enumerate(bounds):
        if group * b > group_max:
            in_order.append([[i]])
            group = piece = b
        elif piece * b > piece_max:
            in_order[-1].append([i])
            group, piece = group * b, b
        else:
            in_order[-1][-1].append(i)
            group, piece = group * b, piece * b
    return min(in_order, packed, key=lambda plan: (len(plan), sum(map(len, plan))))


@functools.cache
def _worst_plan(n: int) -> list[list[list[int]]]:
    """The layout of every pass without high parts: _plan for bounds of DP_MAX in int8, one row a piece and
    groups of 7 rows."""
    return _plan([DP_MAX] * n, np.int8)


def _halved_count(row: int) -> int:
    """A row's count r past GLYNN_MAX, where an even row's values are halved: r, or r / 2 for even r."""
    r = row.bit_count()
    return r >> (not r & 1)


def _pass_layout(chunk: Sequence[Sequence[int]], n: int) -> tuple[list[list[int]], list[list[list[int]]]]:
    """The matrices of a pass with high parts, each with its rows in increasing order of bound, and _plan's layout
    in int16 pieces for each position's largest bound over the pass. Row i's bound b_i, the largest |v_i(S)|, is
    its count r_i, or r_i / 2 for an even count halved past GLYNN_MAX, and 1 for an empty row, whose values are
    all 0. Sorting leaves each permanent as it is and keeps a position's largest bound small."""
    bound = _halved_count if n > GLYNN_MAX else int.bit_count
    chunk = [sorted(rows, key=bound) for rows in chunk]
    return chunk, _plan([max(map(bound, position)) or 1 for position in zip(*chunk)], np.int16)


def _permanents_bits(matrices: Sequence[Sequence[int]], n: int) -> list[int]:
    """per(A) for several n x n 0/1 matrices given as row bitmasks, which permanent_zero_one has checked,
    stacked in passes of up to per_pass matrices, with row values multiplied in pieces, pieces in int32 row
    groups and groups in int64 that wraps. The sum is Glynn's, with column 0 weighing -1 and column j > 0
    weighing +1 in S and -1 outside it (Glynn fixes column 0 at +1; negating every weight leaves each term as it
    is). With r_i the count of row i,

        T = 2^(n-1) per(A) = sum over sets S of columns 1..n-1 of (-1)^(n-|S|) prod_i (2 |(row_i >> 1) & S| - r_i).

    The int64 total t is T mod 2^64, and T itself through GLYNN_MAX. Past it, row i's value v_i(S) has the parity
    of r_i, so the e rows of even count are halved and the sum is T' = 2^(n-1-e) per(A). |v_i(S)| is at most r_i,
    or r_i / 2 halved: that is row i's bound b_i, 1 for an empty row. Without high parts (n <= 13) every pass runs
    the worst case's layout, int8 values and groups of 7 rows; with them each pass sorts every matrix's rows by
    bound (per(A) is the same for any row order) and takes _plan's layout for its positions' largest bounds, in
    int16 pieces. Where _certificate finds 2^(n-1-e) 2^(-32 n) prod_i BREGMAN[r_i] < 2^63, Bregman puts T' in
    [0, 2^63) and t is T'. A pass that holds any other matrix also forms each term in float64 from its G row
    groups, each exact in int32, as float(g0 g1) g2 ... g_(G-1), g0 g1 exact in int64, and sums them into a float
    total a. A term then carries at most G - 1 roundings and the sum at most N - 1 more, N = 2^(n-1) terms, so
    with u = 2^-53, |a - T'| <= (N + G) u sum_S prod_i |v_i(S)|, a sum that halving only shrinks. By Hoelder it is
    at most B_n = max over rows of sum_S |v_i(S)|^n, and with G <= n <= DP_MAX, (N + G) u B_n < 2^62 from
    GLYNN_MAX + 1 to DP_MAX (B_20 ~ 2^89.2), so T' is the one integer congruent to t mod 2^64 within 2^63 of a,
    t + 2^64 round((a - t) / 2^64). The work arrays are allocated once per call, sized for one pass and a
    group's array added when a plan first needs it, and every pass overwrites them: fresh arrays per pass
    page-fault again each time. The float ones come with the first pass that needs them."""
    if n == 0:  # the empty matrix has one permutation, the empty one; the kernel needs a column to split
        return [1] * len(matrices)
    bits = n - 1  # the columns S ranges over: Glynn holds column 0 fixed
    low = min(bits, LOW_BITS)
    high = bits - low
    k, width, block = len(matrices), 1 << low, min(HIGH_BLOCK, 1 << high)
    per_pass = max(1, min(k, max(2, (HIGH_BLOCK << LOW_BITS) // (block * width))))
    lo_bytes, lo_rest = min(width, 256), max(width >> 8, 1)
    wide = n > GLYNN_MAX  # even rows halved, and a certificate or a float total
    values = np.int16 if high else np.int8
    signs = (_SIGNS[:block, None] * _SIGNS[:width]).astype(values)  # (-1)^|S| relative to the block's first H
    plan = None if high else _worst_plan(n)
    lo = np.empty((per_pass, n, width), dtype=values)  # row i's value at S = L
    groups = []  # each row group's int32 product, one array per group of the largest plan yet
    piece = np.empty((per_pass, block, width), dtype=values)  # a piece's first row value, then its product
    term = np.empty_like(piece) if high else piece  # a piece's later row values, with high parts only
    prod = np.empty(piece.shape, dtype=np.int64)
    totals = np.zeros(k, dtype=np.int64)
    checks, approx, floats = [], None, None  # (scale, certified) per matrix past GLYNN_MAX
    for first in range(0, k, per_pass):
        m = min(per_pass, k - first)
        pass_lo, pass_piece, pass_term = lo[:m], piece[:m], term[:m]
        pass_prod, pass_totals = prod[:m], totals[first : first + m]
        chunk = matrices[first : first + m]
        if high:
            chunk, plan = _pass_layout(chunk, n)
        rows = np.array(chunk, dtype=np.int64)
        counts = np.bitwise_count(rows)
        groups += [np.empty(piece.shape, dtype=np.int32) for _ in range(len(groups), len(plan))]
        pass_groups = [g[:m] for g in groups[: len(plan)]]
        # the first byte and the rest of L, and H, of every row of the pass (column 0 dropped): count table indices
        part = (rows[..., None] >> [1, 9, low + 1]).astype(np.uint8)
        lo_low, lo_high = _COUNTS[:, :lo_bytes][part[:, :, 0]], _COUNTS[:, :lo_rest][part[:, :, 1]]
        lo_high -= counts.astype(np.int8)[..., None]  # row i's value at S = 0 is -r_i
        np.add(lo_high[..., None], lo_low[:, :, None], out=pass_lo.reshape(m, n, lo_rest, lo_bytes))
        hi = _COUNTS[:, : 1 << high][part[:, :, 2]].astype(values) if high else None  # what H adds to row i's value
        complete = False
        if wide:
            even = (1 - (counts & 1)).astype(values)[..., None]
            pass_lo >>= even
            hi >>= even
            checks += map(_certificate, counts.tolist())
            complete = not all(certified for _, certified in checks[first:])
            if complete and approx is None:
                approx, floats = np.empty(prod.shape, dtype=np.float64), np.zeros(k, dtype=np.float64)
        pass_approx = approx[:m] if complete else None
        for h in range(0, 1 << high, block):
            for index, (g, group) in enumerate(zip(pass_groups, plan)):
                for p, (i, *rest) in enumerate(group):
                    row = pass_lo[:, i, None]
                    if high:
                        row = np.add(row, hi[:, i, h : h + block, None], out=pass_piece)
                    for j in rest:  # the piece's other rows (only with high parts), multiplied in int16
                        np.multiply(row, np.add(pass_lo[:, j, None], hi[:, j, h : h + block, None], out=pass_term),
                                    out=row)
                    if p:
                        np.multiply(g, row, out=g)
                    elif index:  # a group starts from its first piece, the first group's times the signs
                        np.copyto(g, row)
                    else:
                        np.multiply(row, signs, out=g)
            sign = (-1) ** (n + h.bit_count())
            np.copyto(pass_prod, pass_groups[0])
            for index, g in enumerate(pass_groups[1:], 1):
                if complete and index > 1:  # float(g0 g1), exact in int64, times each later group in float64
                    np.multiply(pass_approx if index > 2 else pass_prod, g, out=pass_approx, dtype=np.float64)
                np.multiply(pass_prod, g, out=pass_prod)  # without dtype numpy multiplies in int64, which wraps
            pass_totals += sign * pass_prod.sum(axis=(1, 2))
            if complete:
                if len(pass_groups) < 3:  # the int64 product of at most two groups is exact
                    np.copyto(pass_approx, pass_prod)
                floats[first : first + m] += sign * pass_approx.sum(axis=(1, 2))
    if not wide:
        totals >>= n - 1  # Glynn's sum is 2^(n-1) per(A)
        return totals.tolist()
    out = []
    for index, (t, (scale, certified)) in enumerate(zip(totals.tolist(), checks)):
        if not certified:  # T' = t + 2^64 j, j the integer that brings T' within 2^63 of the float total
            t += (int(floats[index]) - t + 2**63) >> 64 << 64
        out.append(t >> scale if scale >= 0 else t << 1)  # scale = -1 when every row is even
    return out


def permanent_zero_one(n: int, matrices: Sequence[Sequence[int]]) -> list[int]:
    """per of each n x n 0/1 matrix in matrices, given as row bitmasks (bit j of row i = entry ij), from one
    kernel call whose matrices share its stacked passes; one matrix is permanent_zero_one(n, [rows])[0].

    Exact up to n = DP_MAX: a larger n raises TooLargeError. A negative n, a matrix that is not n rows, or a
    row with bits outside 0..n-1 raises BadParamsError, every matrix checked before any is counted."""
    if n > DP_MAX:
        raise TooLargeError(f"0/1 permanent capped at n={DP_MAX}, got {n}")
    if n < 0:
        raise BadParamsError(f"matrix size must be nonnegative, got {n}")
    for rows in matrices:
        if len(rows) != n:
            raise BadParamsError(f"expected {n} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if row < 0 or row >> n:
                raise BadParamsError(f"row {i} has bits outside 0..{n - 1}")
    return _permanents_bits(matrices, n)


SUBSET_SLOTS_MAX = 24  # a 128 MB int64 table


def subset_permanents(slots: int, masks: Sequence[int]) -> np.ndarray:
    """out[S] = how many of the given masks lie inside S, for every S of
    0 <= S < 2^slots. With the slot masks of a host's permutations (or
    perfect matchings) that is per(A restricted to S) for every S at once.

    One bincount of the masks, then one in-place add per slot (Yates's
    subset-sum transform) over an int64 table of 2^slots entries. Exact: each
    count is at most len(masks)."""
    if slots > SUBSET_SLOTS_MAX:
        raise TooLargeError(f"subset sums capped at {SUBSET_SLOTS_MAX} slots, got {slots}")
    points = np.asarray(masks, dtype=np.int64)
    if slots < 0 or points.size and (points.min() < 0 or points.max() >> slots):
        raise BadParamsError(f"masks must lie in 0..2^{slots} - 1")
    out = np.bincount(points, minlength=1 << slots)
    for s in range(slots):
        pairs = out.reshape(-1, 2, 1 << s)
        pairs[:, 1] += pairs[:, 0]
    return out


def subpermanent_sides(m: Matrix) -> list[tuple[int, int]]:
    """Both sides of the splitting identity

        C(n, k) * per(M) = sum over |S| = |S'| = k of per(M[S, S']) * per(M[~S, ~S'])

    summing over row sets S and column sets S' of size k, as [(lhs, rhs) for k = 0..n];
    callers assert equality. block[rows, cols] (two masks) is a square block's
    permanent, expanded along its lowest row over the blocks one size smaller.
    """
    rows = as_int_matrix(m)
    n = len(rows)
    if n > 8:
        raise TooLargeError(f"subpermanent sum capped at n=8, got {n}")
    by_size = [[s for s in range(1 << n) if s.bit_count() == k] for k in range(n + 1)]
    block = {(0, 0): 1}
    for k in range(1, n + 1):
        for r in by_size[k]:
            rest, row = r & r - 1, rows[(r & -r).bit_length() - 1]
            for c in by_size[k]:
                block[r, c] = sum(x * block[rest, c ^ 1 << j] for j, x in enumerate(row) if c >> j & 1)
    full = (1 << n) - 1
    rhs = [0] * (n + 1)
    for (r, c), value in block.items():
        rhs[r.bit_count()] += value * block[full ^ r, full ^ c]
    per = permanent_ryser(rows)
    return [(comb(n, k) * per, rhs[k]) for k in range(n + 1)]

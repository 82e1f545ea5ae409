"""Independent routes the tests hold the package to, each written from its
definition. Nothing here imports ``permatch``, so no oracle can share code
with the kernel it checks (``test_surface`` enforces that)."""

from collections import Counter
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, lgamma, log


def permanent_naive(m):
    """The permanent of a square matrix: over all n! permutations, the sum of
    the products of their entries. A product stops at its first zero entry."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= m[i][j]
            if not prod:
                break
        total += prod
    return total


def fixed_points(sigma):
    """The vertices a permutation, given as its image tuple, keeps in place, in order."""
    return tuple(i for i, x in enumerate(sigma) if i == x)


def bipartite_permutation_sum(matrix):
    """Permutations of the flattened bipartite graph with this nl x nr
    biadjacency, by squared subpermanents: a permutation pairs a left subset S
    with a right subset S' of the same size and uses one matching between
    them in each direction, so the count is the sum of per(B[S, S'])^2."""
    nl, nr = len(matrix), len(matrix[0])
    return sum(
        permanent_naive([[matrix[i][j] for j in cols] for i in rows]) ** 2
        for k in range(min(nl, nr) + 1)
        for rows in combinations(range(nl), k)
        for cols in combinations(range(nr), k)
    )


def induced_rows(rows, vertices):
    """Adjacency rows of the subgraph on the given vertices, relabelled 0..k-1
    in ascending vertex order: bit j of row i is set iff the graph has an arc
    from its i-th to its j-th smallest kept vertex."""
    keep = sorted(vertices)
    return tuple(sum(1 << j for j, w in enumerate(keep) if rows[v] >> w & 1) for v in keep)


def derangement_number(n):
    """Permutations of an n-set with no fixed point, by inclusion-exclusion
    over the set of points held fixed."""
    return sum((-1) ** k * comb(n, k) * factorial(n - k) for k in range(n + 1))


def permanent_avoiding(n, cells):
    """per of J_n with the given (row, column) cells set to 0, by
    inclusion-exclusion over the sets of those cells that a permutation could
    use together (no two in one row or column): a set of k such cells lies on
    (n - k)! permutations. Fast while there are few cells, at any n."""
    total = 0
    for k in range(len(cells) + 1):
        for chosen in combinations(cells, k):
            if len({i for i, _ in chosen}) == len({j for _, j in chosen}) == k:
                total += (-1) ** k * factorial(n - k)
    return total


def rows_avoiding(biadj, image):
    """The biadjacency rows of B - M, B without the edges i -> image[i] of a
    perfect matching M: its perfect matchings are those of B that miss M."""
    return [row & ~(1 << j) for row, j in zip(biadj, image)]


def log_bounds(n, k):
    """Log-space sandwich for the permanent of any n x n 0/1 matrix whose row
    and column sums all equal k: van der Waerden's n! (k/n)^n below and
    Bregman's (k!)^(n/k) above."""
    lower = lgamma(n + 1) + n * (log(k) - log(n))
    upper = (n / k) * lgamma(k + 1)
    return lower, upper


def exact_mean_ratio(graphs, slots, q):
    """E_q[d/p] over the random graphs whose `slots` possible arcs are each
    present with probability q (a Fraction), from every graph's (arc count, d,
    p): a graph with m arcs has probability q^m (1 - q)^(slots - m), so the
    graphs are summed once per distinct triple, weighted by its graph count."""
    return sum(
        (count * q**m * (1 - q) ** (slots - m) * Fraction(d, p) for (m, d, p), count in Counter(graphs).items()),
        Fraction(0),
    )


def format_12sig_decimal(x):
    """x as a decimal string with 12 significant digits, rounded half to even
    by the decimal module: positional below 10^12, exponent form from there
    up (the form chosen from the unrounded value)."""
    if x == 0:
        return "0.000000000000"
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(x.numerator) / Decimal(x.denominator)
    if x.numerator >= 10**12 * x.denominator:  # positional would pad the digits with zeros
        return format(d, ".11e")
    with localcontext() as ctx:
        ctx.prec = 40  # plenty for the padding quantize below
        d = d.quantize(Decimal(1).scaleb(d.adjusted() - 11))
    return format(d, "f")

"""Tabulate exact counts for cycle blowups.

Each row crosses layer width k with cycle length l and lists the derangement
count, permutation count, and their exact ratio alongside the closed forms.
A mismatch between the permanent route and the closed form aborts with exit
1. Blowups count through the exact 0/1 kernel, so ``--max-vertices`` above
its cap is refused with exit 2 before any row is printed.

    python3 scripts/blowup_table.py --max-k 3 --max-l 5 --max-vertices 14
"""

import argparse
from fractions import Fraction

from permatch import check_blowup_formulas, format_12sig
from permatch.permanent import DP_MAX


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-k", type=int, default=3)
    ap.add_argument("--max-l", type=int, default=4)
    ap.add_argument("--max-vertices", type=int, default=12)
    args = ap.parse_args(argv)
    if args.max_vertices > DP_MAX:
        ap.error(f"--max-vertices must be at most {DP_MAX}, the exact kernel's cap, got {args.max_vertices}")

    print(f"{'k':>3} {'l':>3} {'derangements':>14} {'permutations':>14} "
          f"{'ratio':>12} {'float':>16}")
    for k in range(1, args.max_k + 1):
        for l in range(2, args.max_l + 1):
            if k * l > args.max_vertices:
                continue
            rep = check_blowup_formulas(k, l)
            if not rep.holds:
                print(f"closed form mismatch at k={k} l={l}: {rep.details}")
                return 1
            # the check counted both through dp_counts; reuse them
            d, p = rep.details["derangements"], rep.details["permutations"]
            r = Fraction(d, p)
            print(f"{k:>3} {l:>3} {d:>14} {p:>14} "
                  f"{str(r):>12} {format_12sig(r):>16}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

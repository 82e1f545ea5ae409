"""Monte Carlo concentration of the derangement/permutation ratio.

Sweeps a grid of edge probabilities on dense random digraphs and reports how
tightly the sampled ratio hugs the dense-limit target exp(-1/q). Every sample
is also screened against the 1/2 ceiling; a breach aborts the run loudly.

    python3 scripts/mc_concentration.py --n 20 --samples 200 --threads 4
"""

import argparse
import json
from fractions import Fraction

from permatch import ModelSpec, mc_dp_ratio


def run(args: argparse.Namespace) -> None:
    rows = []
    for tok in args.q_grid.split(","):
        q = Fraction(tok)
        model = ModelSpec("digraph", args.n, q=q)
        summary = mc_dp_ratio(model, samples=args.samples, seed=args.seed, threads=args.threads)
        target = summary["target"]
        summary["relative_gap"] = (summary["mean"] - target) / target if target else None  # no gap to a zero target
        rows.append((q, summary))
    if args.json:
        print(json.dumps([s for _, s in rows]))
        return
    print(f"{'q':>8} {'mean':>10} {'stddev':>10} {'target':>10} {'gap':>8}")
    for q, s in rows:
        cols = " ".join(f"{s[k]:>10.6f}" for k in ("mean", "stddev", "target"))
        gap = "n/a" if s["relative_gap"] is None else f"{s['relative_gap']:+.2%}"
        print(f"{str(q):>8} {cols} {gap:>8}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--q-grid", default="1/4,1/2,3/4,9/10")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    if args.threads < 1:
        ap.error(f"--threads must be a positive integer, got {args.threads}")
    run(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

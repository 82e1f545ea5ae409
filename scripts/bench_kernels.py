"""Wall time of the 0/1 permanent pair kernel by matrix size.

Times permanent_zero_one_pair (per(A) and per(A | I) from one pass) on the
rows of seeded D(n, 1/2) digraphs at n = 9, 12, 13, 16 and 20, and stores
the median and quartiles of the per-call times, with the CPU count, the numpy
version and the Python version, under a label in a JSON file. Other labels
already in the file are kept, so two checkouts can be measured into
one file as before/after data points:

    PYTHONPATH=src python3 scripts/bench_kernels.py --label after
"""

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from permatch import ModelSpec, sample
from permatch.permanent import permanent_zero_one_pair
from permatch.random_models import _usable_cpus

SIZES = (9, 12, 13, 16, 20)
GRAPHS = 3  # seeds 0, 1, 2 at every size
RUNS = 11  # rounds over the seeded graphs: 33 timed calls per size
OUT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def time_pair(n: int) -> dict:
    """Per-call milliseconds over RUNS rounds of every seeded graph at size n."""
    rows = [sample(ModelSpec("digraph", n, q="1/2"), seed).rows for seed in range(GRAPHS)]
    for r in rows:
        permanent_zero_one_pair(r, n)  # warm-up: imports, allocator
    times = []
    for _ in range(RUNS):
        for r in rows:
            start = time.perf_counter()
            permanent_zero_one_pair(r, n)
            times.append((time.perf_counter() - start) * 1e3)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"calls": len(times), "median_ms": median, "q1_ms": q1, "q3_ms": q3}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="current", help="key of this run in the output file")
    args = ap.parse_args(argv)

    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc.update(kernel="permanent_zero_one_pair", model="D(n, 1/2)", graphs_per_size=GRAPHS)
    sizes = {str(n): time_pair(n) for n in SIZES}
    doc.setdefault("runs", {})[args.label] = {
        "cpus": _usable_cpus(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "sizes": sizes,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    for n, row in sizes.items():
        print(f"n={n:>2}  median {row['median_ms']:9.3f} ms  [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

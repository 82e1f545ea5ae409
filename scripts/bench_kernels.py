"""Wall time of the 0/1 permanent pair kernel by matrix size, and of the injection.

Times permanent_zero_one_pair (per(A) and per(A | I)) on the rows of seeded
D(n, 1/2) digraphs at n = 4, 6 and 8 (two passes of the dict DP) and 9, 12,
13, 16 and 20 (one Ryser pass), and stores the median and quartiles of the
per-call times, with the CPU count, the numpy version and the Python version,
under a label in a JSON file. Under the same label, ``stacked`` holds the
microseconds per draw of DRAWS seeded G(n, 1/2) draws at n = 9, 12, 13 and 14,
counted by one permanent_zero_one_pairs call against one permanent_zero_one_pair
call per draw (the two alternate round by round), and ``pass_sweep`` the same
one-call time at n = 12 with passes of 2, 4, 8 and 16 matrices (there a pass
holds RYSER_BLOCK matrices, so the sweep sets it for the run and restores it),
``profile`` holds the
milliseconds per permutations_by_fixed_points call on K_10 and K_12 (one pass
of the dict DP in packed-profile mode), ``injection`` holds the microseconds per apply_injection call and per
invert_injection call, round trips and refusals apart, over every digraph on
4 vertices at every root, and ``census`` the milliseconds per cold build of
the exhaustive families' host census (cache cleared) and the microseconds per
host permutation, for K_8 and the flattened K_{4,4}, and ``scan`` the
milliseconds per verify.scan call with its records written, for the
exhaustive digraphs on 4 vertices and bipartite graphs with parts of 3 and 4
(in one process, so interpreter start-up does not count). Other labels already in
the file are kept, so two checkouts can be measured into one file as
before/after data points:

    PYTHONPATH=src python3 scripts/bench_kernels.py --label after
"""

import argparse
import json
import platform
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from permatch import (
    ModelSpec,
    NotInImageError,
    apply_injection,
    complete_bipartite,
    complete_graph,
    count_permutations,
    digraph_from_arc_index,
    enumerate_permutations,
    invert_injection,
    permutations_by_fixed_points,
    sample,
    scan,
)
from permatch import permanent
from permatch.permanent import permanent_zero_one_pair, permanent_zero_one_pairs
from permatch.random_models import _usable_cpus
from permatch.verify import _host_census

SIZES = (4, 6, 8, 9, 12, 13, 16, 20)
GRAPHS = 3  # seeds 0, 1, 2 at every size
RUNS = 11  # rounds over the seeded graphs: 33 timed calls per size; rounds of the injection
STACKED = (9, 12, 13, 14)  # sizes whose draws are counted stacked and one at a time
DRAWS = 25  # draws per stacked call: one sampled-scan block of the benchmark
PASS_SIZES = (2, 4, 8, 16)  # matrices per pass in the sweep at n = 12
PROFILES = (10, 12)  # the complete graphs whose fixed-point profile is timed, RUNS calls each
INJECTION_N = 4  # the injection runs on every digraph with this many vertices
CENSUS = (("digraphs", 8), ("bipartite", 4))  # the hosts whose census is built cold, RUNS times each
SCANS = (("digraphs", 4), ("bipartite", 3), ("bipartite", 4))  # the exhaustive scans timed, RUNS calls each
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


def _quartiles_us(times: list[float], draws: int) -> dict:
    q1, median, q3 = statistics.quantiles([t / draws * 1e6 for t in times], n=4, method="inclusive")
    return {"median_us_per_draw": median, "q1_us_per_draw": q1, "q3_us_per_draw": q3}


def time_stacked() -> dict:
    """Per n in STACKED: microseconds per draw over RUNS rounds of DRAWS seeded
    G(n, 1/2) draws, as one stacked call and as one pair call per draw, the
    two in turn within each round."""
    out = {}
    for n in STACKED:
        rows = [sample(ModelSpec("graph", n, q="1/2"), seed).rows for seed in range(DRAWS)]
        routes = {
            "one_call": lambda: permanent_zero_one_pairs(n, rows),
            "call_per_draw": lambda: [permanent_zero_one_pair(r, n) for r in rows],
        }
        times: dict[str, list[float]] = {name: [] for name in routes}
        for route in routes.values():
            route()  # warm-up
        for _ in range(RUNS):
            for name, route in routes.items():
                start = time.perf_counter()
                route()
                times[name].append(time.perf_counter() - start)
        out[str(n)] = {"draws": DRAWS, "rounds": RUNS, **{name: _quartiles_us(t, DRAWS) for name, t in times.items()}}
    return out


def time_pass_sweep() -> dict:
    """Microseconds per draw of one stacked call over DRAWS draws of G(12, 1/2),
    for each pass size in PASS_SIZES (RYSER_BLOCK matrices at n = 12), the sizes
    in turn within each of RUNS rounds; RYSER_BLOCK is restored afterwards."""
    rows = [sample(ModelSpec("graph", 12, q="1/2"), seed).rows for seed in range(DRAWS)]
    times: dict[int, list[float]] = {size: [] for size in PASS_SIZES}
    kept = permanent.RYSER_BLOCK
    try:
        for run in range(RUNS + 1):  # round 0 warms up
            for size in PASS_SIZES:
                permanent.RYSER_BLOCK = size
                start = time.perf_counter()
                permanent_zero_one_pairs(12, rows)
                if run:
                    times[size].append(time.perf_counter() - start)
    finally:
        permanent.RYSER_BLOCK = kept
    return {"n": 12, "draws": DRAWS, "rounds": RUNS, **{str(size): _quartiles_us(t, DRAWS) for size, t in times.items()}}


def time_profiles() -> dict:
    """Per K_n in PROFILES: the milliseconds of each of RUNS permutations_by_fixed_points calls, after a warm-up."""
    out = {}
    for n in PROFILES:
        g = complete_graph(n)
        permutations_by_fixed_points(g)
        times = []
        for _ in range(RUNS):
            start = time.perf_counter()
            permutations_by_fixed_points(g)
            times.append((time.perf_counter() - start) * 1e3)
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        out[f"K{n}"] = {"calls": RUNS, "median_ms": median, "q1_ms": q1, "q3_ms": q3}
    return out


def time_injection() -> dict:
    """Microseconds per call over RUNS rounds of every digraph on INJECTION_N
    vertices at every root: apply_injection on every derangement, then
    invert_injection on every image (round trips) and on every other
    permutation (refusals). Each round's total time over its calls is one
    data point."""
    n = INJECTION_N
    cases = []  # (graph, root, derangements, their images, the other permutations)
    for index in range(1 << n * (n - 1)):
        g = digraph_from_arc_index(n, index)
        derangements = list(enumerate_permutations(g, derangements_only=True))
        permutations = list(enumerate_permutations(g))
        for v in range(n):
            images = [apply_injection(g, d, v) for d in derangements]
            image_set = set(images)
            cases.append((g, v, derangements, images, [p for p in permutations if p not in image_set]))
    spent: dict[str, list[float]] = {"apply": [], "round_trip": [], "refusal": []}
    for _ in range(RUNS):
        apply_s = trip_s = refusal_s = 0.0
        for g, v, derangements, images, others in cases:
            t0 = time.perf_counter()
            for d in derangements:
                apply_injection(g, d, v)
            t1 = time.perf_counter()
            for p in images:
                invert_injection(g, p, v)
            t2 = time.perf_counter()
            for p in others:
                try:
                    invert_injection(g, p, v)
                except NotInImageError:
                    pass
            t3 = time.perf_counter()
            apply_s, trip_s, refusal_s = apply_s + t1 - t0, trip_s + t2 - t1, refusal_s + t3 - t2
        for key, total in zip(spent, (apply_s, trip_s, refusal_s)):
            spent[key].append(total)
    calls = {
        "apply": sum(len(derangements) for _, _, derangements, _, _ in cases),
        "round_trip": sum(len(images) for _, _, _, images, _ in cases),
        "refusal": sum(len(others) for _, _, _, _, others in cases),
    }
    out: dict = {"n": n, "graphs": 1 << n * (n - 1), "rounds": RUNS}
    for key, totals in spent.items():
        per_call = [total / calls[key] * 1e6 for total in totals]
        q1, median, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
        out[key] = {"calls": calls[key], "median_us": median, "q1_us": q1, "q3_us": q3}
    return out


def time_census() -> dict:
    """Per host in CENSUS: the milliseconds of each of RUNS cold _host_census
    builds (cache cleared first), and the same times per host permutation in
    microseconds; the permutations are counted apart, as the host's permanent."""
    out = {}
    for family, n in CENSUS:
        host = complete_graph(n) if family == "digraphs" else complete_bipartite(n).to_graph()
        permutations = count_permutations(host)
        times = []
        for _ in range(RUNS):
            _host_census.cache_clear()
            start = time.perf_counter()
            _host_census(family, n)
            times.append(time.perf_counter() - start)
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        out[f"{family}-{n}"] = {
            "permutations": permutations,
            "builds": RUNS,
            "median_ms": median * 1e3,
            "q1_ms": q1 * 1e3,
            "q3_ms": q3 * 1e3,
            "median_us_per_permutation": median / permutations * 1e6,
            "q1_us_per_permutation": q1 / permutations * 1e6,
            "q3_us_per_permutation": q3 / permutations * 1e6,
        }
    return out


def time_scans() -> dict:
    """Per scan in SCANS: the milliseconds of each of RUNS verify.scan calls
    with records written to a CSV file, after one warm-up call that fills the
    host census cache, as every later scan in a process finds it."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "records.csv")
        for family, n in SCANS:
            graphs = scan(family, n, out_path=path)["graphs"]
            times = []
            for _ in range(RUNS):
                start = time.perf_counter()
                scan(family, n, out_path=path)
                times.append((time.perf_counter() - start) * 1e3)
            q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
            out[f"{family}-{n}"] = {"graphs": graphs, "calls": RUNS, "median_ms": median, "q1_ms": q1, "q3_ms": q3}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="current", help="key of this run in the output file")
    args = ap.parse_args(argv)

    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc.update(kernel="permanent_zero_one_pair", model="D(n, 1/2)", graphs_per_size=GRAPHS)
    sizes = {str(n): time_pair(n) for n in SIZES}
    stacked = time_stacked()
    sweep = time_pass_sweep()
    profiles = time_profiles()
    injection = time_injection()
    census = time_census()
    scans = time_scans()
    doc.setdefault("runs", {})[args.label] = {
        "cpus": _usable_cpus(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "sizes": sizes,
        "stacked": stacked,
        "pass_sweep": sweep,
        "profile": profiles,
        "injection": injection,
        "census": census,
        "scan": scans,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    for n, row in sizes.items():
        print(f"n={n:>2}  median {row['median_ms']:9.3f} ms  [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")
    for n, row in stacked.items():
        one, each = row["one_call"], row["call_per_draw"]
        print(f"stacked n={n:>2}  {one['median_us_per_draw']:8.1f} us per draw in one call"
              f"  [{one['q1_us_per_draw']:.1f}, {one['q3_us_per_draw']:.1f}],"
              f"  {each['median_us_per_draw']:.1f} us in one call per draw")
    for size in PASS_SIZES:
        row = sweep[str(size)]
        print(f"pass of {size:>2} matrices, n=12  {row['median_us_per_draw']:8.1f} us per draw"
              f"  [{row['q1_us_per_draw']:.1f}, {row['q3_us_per_draw']:.1f}]")
    for name, row in profiles.items():
        print(f"profile {name:<4}  median {row['median_ms']:8.3f} ms  [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")
    for key in ("apply", "round_trip", "refusal"):
        row = injection[key]
        print(f"injection {key:<10}  median {row['median_us']:7.2f} us  [{row['q1_us']:.2f}, {row['q3_us']:.2f}]")
    for host, row in census.items():
        print(
            f"census {host:<11}  median {row['median_ms']:8.2f} ms  [{row['q1_ms']:.2f}, {row['q3_ms']:.2f}]"
            f"  {row['median_us_per_permutation']:.2f} us per permutation ({row['permutations']})"
        )
    for name, row in scans.items():
        print(f"scan {name:<13}  median {row['median_ms']:8.2f} ms  [{row['q1_ms']:.2f}, {row['q3_ms']:.2f}]"
              f"  {row['graphs']} graphs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

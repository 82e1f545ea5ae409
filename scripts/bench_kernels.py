"""Wall time of the 0/1 permanent kernels by matrix size, and of the injection.

Each ``label=SRC_DIR`` pair names a source tree whose permatch package is
loaded under a module name of its own, so two checkouts run side by side in
one process; with none, the permatch package this script imports runs under
the label ``current``. Every timed step goes to each tree in turn within a
round, the order reversed on every other round, after one warm-up round, so
machine drift during a sitting reaches both trees alike. Under each label:

* ``sizes``: milliseconds per one-graph dp_counts_many call (per(A) and
  per(A + I) in one kernel call) on seeded D(n, 1/2) digraphs at n = 4, 6, 8,
  9, 12, 13, 16 and 20;
* ``stacked``: microseconds per draw of DRAWS seeded G(n, 1/2) draws at n = 4,
  6, 8, 9, 12, 13 and 14, counted by one dp_counts_many call against one such
  call per draw;
* ``wide``: the one-graph call of ``sizes`` at n = 17, 18, 19 and 20, where
  Glynn's int64 total can wrap, on D(n, 1/2) digraphs (keys ``17`` to ``20``),
  which Bregman's bound certifies so that the wrapped total alone is exact,
  on D(n, 9/10) ones (keys ``17 q=9/10`` and so on): certified too at
  n = 17 and 18, while at n = 19 and 20 most of their calls need a float64
  total to complete the wrapped one, and on J_n - I less seeded cells (keys
  ``17 cells`` and so on), whose every call needs the float64 total;
* ``pass_sweep``: the stacked one-call time at n = 12 with HIGH_BLOCK set to
  2, 4, 8 and 16 for the call (a pass then holds 2 * HIGH_BLOCK matrices);
* ``profile``: milliseconds per permutations_by_fixed_points call on K_10 and
  K_12 (one pass of counting's fixed-point DP);
* ``injection``: microseconds per apply_injection call and per
  invert_injection call, round trips and refusals apart, over every digraph on
  4 vertices at every root, and per check_injection call (``audit``, the
  exhaustive audit of one graph at every root) over the same digraphs;
* ``census``: milliseconds per cold build of the exhaustive families' host
  census (cache cleared) and microseconds per host permutation, for K_8 and
  the flattened K_{4,4};
* ``scan``: milliseconds per verify.scan call with its records written, for
  the exhaustive digraphs on 4 vertices and bipartite graphs with parts of 3
  and 4 (in one process, so interpreter start-up does not count);
* ``fanout``: milliseconds per in-process mc_dp_ratio call on 1 and on 2
  workers, for D(20, 1/2) with 6 and 24 draws, D(16, 1/2) with 120,
  D(12, 1/2) with 1,000, G(12, 1/2) with 2,000 and G(8, 1/2) with 4,000: the
  cost of the fan-out, start and join included, against one worker.

Each entry stores the median and quartiles, with the CPU count, the numpy
version and the Python version. The graphs are built before any step is
timed, so a step times the counting entry and the kernel, not graph
construction. Other labels already in the file are kept:

    PYTHONPATH=src python3 scripts/bench_kernels.py parent=/tmp/parent/src change=src
"""

import argparse
import importlib.util
import itertools
import json
import platform
import random
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

import permatch
from permatch.random_models import _usable_cpus

SIZES = (4, 6, 8, 9, 12, 13, 16, 20)
WIDE_SIZES = (17, 18, 19, 20)  # sizes past GLYNN_MAX, whose Glynn total can wrap int64
WIDE_DENSE = "9/10"  # the arc probability of the wide rows that reach the float completion (at n = 19 and 20)
CELLS = "cells"  # in place of an arc probability: J_n - I less seeded cells, which reach it at every wide size
GRAPHS = 3  # seeds 0, 1, 2 at every size
RUNS = 11  # timed rounds: 33 timed calls per size; rounds of every other entry
STACKED = (4, 6, 8, 9, 12, 13, 14)  # sizes whose draws are counted stacked and one at a time
DRAWS = 25  # draws per stacked call: one sampled-scan block of the benchmark
PASS_SIZES = (2, 4, 8, 16)  # HIGH_BLOCK values in the sweep at n = 12
PROFILES = (10, 12)  # the complete graphs whose fixed-point profile is timed
INJECTION_N = 4  # the injection runs on every digraph with this many vertices
CENSUS = (("digraphs", 8), ("bipartite", 4))  # the hosts whose census is built cold
SCANS = (("digraphs", 4), ("bipartite", 3), ("bipartite", 4))  # the exhaustive scans timed
# (model kind, n, draws) of the mc calls timed on 1 and 2 workers, from a few large draws to many small ones
FANOUT = (("digraph", 20, 6), ("digraph", 20, 24), ("digraph", 16, 120), ("digraph", 12, 1000),
          ("graph", 12, 2000), ("graph", 8, 4000))
FANOUT_WORKERS = (1, 2)
OUT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

Trees = dict[str, ModuleType]


def load_tree(index: int, src: Path) -> ModuleType:
    """The permatch package under src, imported as the package ``_bench_tree<index>``."""
    name = f"_bench_tree{index}"
    spec = importlib.util.spec_from_file_location(
        name, src / "permatch" / "__init__.py", submodule_search_locations=[str(src / "permatch")]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def alternate(steps: dict[tuple[str, object], Callable[[], object]]) -> dict[str, dict[object, list[float]]]:
    """Seconds of each step, keyed (label, key), in each of RUNS rounds after a
    warm-up round: the steps in turn within a round, their order reversed on
    every other round. Returned as label -> key -> seconds per round."""
    times: dict[str, dict[object, list[float]]] = {}
    for label, key in steps:
        times.setdefault(label, {})[key] = []
    for run in range(RUNS + 1):
        for label, key in list(steps)[:: -1 if run % 2 else 1]:
            start = time.perf_counter()
            steps[label, key]()
            if run:
                times[label][key].append(time.perf_counter() - start)
    return times


def with_setting(module: ModuleType, name: str, value, fn: Callable[[], object]):
    """fn() with module.name set to value, restored afterwards."""
    kept = getattr(module, name)
    setattr(module, name, value)
    try:
        return fn()
    finally:
        setattr(module, name, kept)


def quartiles(values: list[float], unit: str, scale: float) -> dict:
    q1, median, q3 = statistics.quantiles([v * scale for v in values], n=4, method="inclusive")
    return {f"median_{unit}": median, f"q1_{unit}": q1, f"q3_{unit}": q3}


def draws(pm: ModuleType, kind: str, n: int, count: int, q: str = "1/2") -> list:
    """The first count seeded draws of the model, as the tree's Digraphs."""
    rows = pm.random_models.sample_rows(pm.ModelSpec(kind, n, q=q), range(count)).tolist()
    return [pm.Digraph(n, tuple(r)) for r in rows]


def less_cells(pm: ModuleType, n: int, count: int) -> list:
    """J_n - I less cells drawn from seeds 0..count-1, as the tree's Digraphs: two off the diagonal from each of 1
    to 6 rows at odd n, so that every row of A + I stays odd, and one from each of 13 or 14 rows at even n, so that
    those rows of A + I turn odd. Either way A + I keeps a Glynn total past 2^63 that Bregman's bound cannot
    certify, so the call takes the float64 completion, over three int32 row groups or more."""
    graphs, full = [], (1 << n) - 1
    for seed in range(count):
        rng = random.Random(seed)
        rows = [full ^ 1 << i for i in range(n)]
        for i in rng.sample(range(n), rng.randint(1, 6) if n % 2 else rng.randint(13, 14)):
            for j in rng.sample([j for j in range(n) if j != i], 2 if n % 2 else 1):
                rows[i] ^= 1 << j
        graphs.append(pm.Digraph(n, tuple(rows)))
    return graphs


def time_pairs(trees: Trees, sizes: tuple[int, ...], qs: tuple[str, ...] = ("1/2",)) -> dict[str, dict]:
    """Per label, q in qs and n in sizes: milliseconds per one-graph dp_counts_many call on every seeded D(n, q)
    graph, or with q = CELLS every less_cells graph, in every round, keyed n, or n and q when q is not 1/2."""
    out: dict[str, dict] = {label: {} for label in trees}
    for q, n in itertools.product(qs, sizes):
        steps = {
            (label, seed): partial(pm.dp_counts_many, [g])
            for label, pm in trees.items()
            for seed, g in enumerate(less_cells(pm, n, GRAPHS) if q == CELLS else draws(pm, "digraph", n, GRAPHS, q))
        }
        key = str(n) if q == "1/2" else f"{n} {q}" if q == CELLS else f"{n} q={q}"
        for label, by_seed in alternate(steps).items():
            times = [t for ts in by_seed.values() for t in ts]
            out[label][key] = {"calls": len(times), **quartiles(times, "ms", 1e3)}
    return out


def pair_per_draw(pm: ModuleType, graphs: list) -> list[list[tuple[int, int]]]:
    return [pm.dp_counts_many([g]) for g in graphs]


def time_stacked(trees: Trees) -> dict[str, dict]:
    """Per label and n in STACKED: microseconds per draw of DRAWS seeded G(n, 1/2)
    draws, as one dp_counts_many call and as one such call per draw."""
    out: dict[str, dict] = {label: {} for label in trees}
    for n in STACKED:
        steps = {}
        for label, pm in trees.items():
            graphs = draws(pm, "graph", n, DRAWS)
            steps[label, "one_call"] = partial(pm.dp_counts_many, graphs)
            steps[label, "call_per_draw"] = partial(pair_per_draw, pm, graphs)
        for label, routes in alternate(steps).items():
            out[label][str(n)] = {"draws": DRAWS, "rounds": RUNS,
                                  **{route: quartiles(t, "us_per_draw", 1e6 / DRAWS) for route, t in routes.items()}}
    return out


def time_pass_sweep(trees: Trees) -> dict[str, dict]:
    """Per label: microseconds per draw of one stacked call over DRAWS draws of
    G(12, 1/2), for each HIGH_BLOCK value in PASS_SIZES, set for the call."""
    steps = {}
    for label, pm in trees.items():
        call = partial(pm.dp_counts_many, draws(pm, "graph", 12, DRAWS))
        for size in PASS_SIZES:
            steps[label, size] = partial(with_setting, pm.permanent, "HIGH_BLOCK", size, call)
    return {
        label: {"n": 12, "draws": DRAWS, "rounds": RUNS,
                **{str(size): quartiles(t, "us_per_draw", 1e6 / DRAWS) for size, t in sizes.items()}}
        for label, sizes in alternate(steps).items()
    }


def time_profiles(trees: Trees) -> dict[str, dict]:
    """Per label and K_n in PROFILES: milliseconds per permutations_by_fixed_points call."""
    steps = {
        (label, f"K{n}"): partial(pm.permutations_by_fixed_points, pm.complete_graph(n))
        for label, pm in trees.items()
        for n in PROFILES
    }
    return {
        label: {name: {"calls": RUNS, **quartiles(t, "ms", 1e3)} for name, t in graphs.items()}
        for label, graphs in alternate(steps).items()
    }


def injection_cases(pm: ModuleType) -> list[tuple]:
    """(graph, root, derangements, their images, the other permutations) of every
    digraph on INJECTION_N vertices at every root."""
    n, cases = INJECTION_N, []
    for index in range(1 << n * (n - 1)):
        g = pm.digraph_from_arc_index(n, index)
        derangements = list(pm.enumerate_permutations(g, derangements_only=True))
        permutations = list(pm.enumerate_permutations(g))
        for v in range(n):
            images = [pm.apply_injection(g, d, v) for d in derangements]
            image_set = set(images)
            cases.append((g, v, derangements, images, [p for p in permutations if p not in image_set]))
    return cases


def time_injection(trees: Trees) -> dict[str, dict]:
    """Per label: microseconds per call over every case of injection_cases,
    apply_injection on every derangement, then invert_injection on every
    image (round trips) and on every other permutation (refusals), and
    check_injection on every graph (audits). Each round's time over all its
    calls of one kind is one data point."""

    def apply(pm, cases):
        for g, v, derangements, _, _ in cases:
            for d in derangements:
                pm.apply_injection(g, d, v)

    def round_trip(pm, cases):
        for g, v, _, images, _ in cases:
            for p in images:
                pm.invert_injection(g, p, v)

    def refusal(pm, cases):
        for g, v, _, _, others in cases:
            for p in others:
                try:
                    pm.invert_injection(g, p, v)
                except pm.NotInImageError:
                    pass

    def audit(pm, cases):
        for g, *_ in cases[::INJECTION_N]:  # the cases of one graph are its INJECTION_N roots in a row
            pm.check_injection(g)

    kinds = {"apply": apply, "round_trip": round_trip, "refusal": refusal, "audit": audit}
    cases = {label: injection_cases(pm) for label, pm in trees.items()}
    steps = {(label, kind): partial(fn, pm, cases[label]) for label, pm in trees.items() for kind, fn in kinds.items()}
    out = {}
    for label, spent in alternate(steps).items():
        some = cases[label]
        calls = {
            "apply": sum(len(derangements) for _, _, derangements, _, _ in some),
            "round_trip": sum(len(images) for _, _, _, images, _ in some),
            "refusal": sum(len(others) for _, _, _, _, others in some),
            "audit": len(some) // INJECTION_N,
        }
        out[label] = {"n": INJECTION_N, "graphs": 1 << INJECTION_N * (INJECTION_N - 1), "rounds": RUNS}
        for kind, totals in spent.items():
            out[label][kind] = {"calls": calls[kind], **quartiles(totals, "us", 1e6 / calls[kind])}
    return out


def time_census(trees: Trees) -> dict[str, dict]:
    """Per label and host in CENSUS: milliseconds per cold _host_census build
    (its cache cleared in the step), and the same time per host permutation in
    microseconds; the permutations are counted apart, as the host's permanent."""

    def build(pm, family, n):
        pm.verify._host_census.cache_clear()
        pm.verify._host_census(family, n)

    steps = {(label, host): partial(build, pm, *host) for label, pm in trees.items() for host in CENSUS}
    out: dict[str, dict] = {}
    for label, hosts in alternate(steps).items():
        pm = trees[label]
        out[label] = {}
        for (family, n), times in hosts.items():
            host = pm.complete_graph(n) if family == "digraphs" else pm.complete_bipartite(n).to_graph()
            permutations = pm.count_permutations(host)
            out[label][f"{family}-{n}"] = {
                "permutations": permutations,
                "builds": RUNS,
                **quartiles(times, "ms", 1e3),
                **quartiles(times, "us_per_permutation", 1e6 / permutations),
            }
    return out


def time_scans(trees: Trees) -> dict[str, dict]:
    """Per label and scan in SCANS: milliseconds per verify.scan call with its
    records written to a CSV file; the warm-up round fills the host census
    cache, as every later scan in a process finds it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "records.csv")
        steps = {
            (label, (family, n)): partial(pm.scan, family, n, out_path=path)
            for label, pm in trees.items()
            for family, n in SCANS
        }
        times = alternate(steps)
        return {
            label: {
                f"{family}-{n}": {"graphs": trees[label].scan(family, n, out_path=path)["graphs"], "calls": RUNS,
                                  **quartiles(t, "ms", 1e3)}
                for (family, n), t in scans.items()
            }
            for label, scans in times.items()
        }


def time_fanout(trees: Trees) -> dict[str, dict]:
    """Per label and (kind, n, draws) in FANOUT: milliseconds per mc_dp_ratio call at seed 0 on each worker count
    in FANOUT_WORKERS."""
    steps = {
        (label, (kind, n, count, workers)): partial(pm.mc_dp_ratio, pm.ModelSpec(kind, n, q="1/2"), count, 0, workers)
        for label, pm in trees.items()
        for kind, n, count in FANOUT
        for workers in FANOUT_WORKERS
    }
    out: dict[str, dict] = {label: {} for label in trees}
    for label, calls in alternate(steps).items():
        for (kind, n, count, workers), times in calls.items():
            row = out[label].setdefault(f"{kind}-{n}-{count}", {"kind": kind, "n": n, "draws": count, "calls": RUNS})
            row[f"workers_{workers}"] = quartiles(times, "ms", 1e3)
    return out


def source_pair(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not (label and sep and Path(src, "permatch").is_dir()):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC_DIR with SRC_DIR/permatch, got {text!r}")
    return label, Path(src).resolve()


def report(label: str, run: dict) -> None:
    for entry, name in (("sizes", ""), ("wide", "wide ")):
        for n, row in run[entry].items():
            print(f"{label}  {name}n={n:>2}  median {row['median_ms']:9.3f} ms  [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")
    for n, row in run["stacked"].items():
        one, each = row["one_call"], row["call_per_draw"]
        print(f"{label}  stacked n={n:>2}  {one['median_us_per_draw']:8.1f} us per draw in one call"
              f"  [{one['q1_us_per_draw']:.1f}, {one['q3_us_per_draw']:.1f}],"
              f"  {each['median_us_per_draw']:.1f} us in one call per draw")
    for size in PASS_SIZES:
        row = run["pass_sweep"][str(size)]
        print(f"{label}  HIGH_BLOCK {size:>2}, n=12  {row['median_us_per_draw']:8.1f} us per draw"
              f"  [{row['q1_us_per_draw']:.1f}, {row['q3_us_per_draw']:.1f}]")
    for name, row in run["profile"].items():
        print(f"{label}  profile {name:<4}  median {row['median_ms']:8.3f} ms"
              f"  [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")
    for key in ("apply", "round_trip", "refusal", "audit"):
        row = run["injection"][key]
        print(f"{label}  injection {key:<10}  median {row['median_us']:7.2f} us"
              f"  [{row['q1_us']:.2f}, {row['q3_us']:.2f}]")
    for host, row in run["census"].items():
        print(f"{label}  census {host:<11}  median {row['median_ms']:8.2f} ms  [{row['q1_ms']:.2f}, {row['q3_ms']:.2f}]"
              f"  {row['median_us_per_permutation']:.2f} us per permutation ({row['permutations']})")
    for name, row in run["scan"].items():
        print(f"{label}  scan {name:<13}  median {row['median_ms']:8.2f} ms  [{row['q1_ms']:.2f}, {row['q3_ms']:.2f}]"
              f"  {row['graphs']} graphs")
    for name, row in run["fanout"].items():
        cells = [f"{workers} worker(s) {row[f'workers_{workers}']['median_ms']:8.2f} ms" for workers in FANOUT_WORKERS]
        print(f"{label}  fanout {name:<17}  " + ", ".join(cells))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "sources",
        nargs="*",
        type=source_pair,
        metavar="LABEL=SRC_DIR",
        help="source trees to run, each under its label (default: current=the imported package)",
    )
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)

    trees = {label: load_tree(i, src) for i, (label, src) in enumerate(args.sources)} or {"current": permatch}
    entries = {
        "sizes": time_pairs(trees, SIZES),
        "wide": time_pairs(trees, WIDE_SIZES, ("1/2", WIDE_DENSE, CELLS)),
        "stacked": time_stacked(trees),
        "pass_sweep": time_pass_sweep(trees),
        "profile": time_profiles(trees),
        "injection": time_injection(trees),
        "census": time_census(trees),
        "scan": time_scans(trees),
        "fanout": time_fanout(trees),
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update(kernel="dp_counts_many", model="D(n, 1/2)", graphs_per_size=GRAPHS)
    for label in trees:
        run = {"cpus": _usable_cpus(), "numpy": np.__version__, "python": platform.python_version()}
        run |= {name: by_label[label] for name, by_label in entries.items()}
        doc.setdefault("runs", {})[label] = run
        report(label, run)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Wall time of fixed permatch CLI commands, end to end.

Runs each command below in a fresh interpreter (``python -m permatch.cli``,
so start-up and imports count) and stores the median and quartiles of the
wall times, with the CPU count, the numpy version and the Python version,
under a label in a JSON file. The commands run the permatch package this
script imports. Other labels already in the file are kept, so two checkouts
can be measured into one file as before/after data points:

    PYTHONPATH=src python3 scripts/bench_e2e.py --label after
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import permatch
from permatch import complete_graph, directed_cycle, serialize_graph
from permatch.random_models import _usable_cpus

COMMANDS = {
    "scan-digraphs-4": ["scan", "--family", "digraphs", "--n", "4", "--out", "{tmp}/records.csv"],
    "scan-bipartite-3": ["scan", "--family", "bipartite", "--n", "3", "--out", "{tmp}/records.csv"],
    "scan-bipartite-4": ["scan", "--family", "bipartite", "--n", "4", "--out", "{tmp}/records.csv"],
    "verify-corollary-K12": ["verify", "--theorem", "corollary", "--input", "{tmp}/k12.txt"],
    "verify-2-K10": ["verify", "--theorem", "2", "--input", "{tmp}/k10.txt"],
    # the injection audit: exhaustive at the CLI's 5-vertex cap, sampled (200 derangements) above it
    "verify-injection-K5": ["verify", "--theorem", "injection", "--input", "{tmp}/k5.txt"],
    "verify-injection-K10": ["verify", "--theorem", "injection", "--input", "{tmp}/k10.txt"],
    # the slowest arc count found at the 500-vertex cap
    "expect-500": ["expect", "--n", "500", "--m", "63622"],
    "count-ratio-C5": ["count", "--input", "{tmp}/c5.txt", "--what", "ratio"],
}
RUNS = 5
OUT = Path(__file__).resolve().parent.parent / "BENCH_e2e.json"


def time_command(argv: list[str], env: dict) -> dict:
    """Wall seconds of RUNS fresh CLI processes; a nonzero exit is an error."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "permatch.cli", *argv], env=env, capture_output=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()}")
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"runs": RUNS, "median_s": median, "q1_s": q1, "q3_s": q3}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="current", help="key of this run in the output file")
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)

    # the child processes import the same permatch as this script
    env = dict(os.environ, PYTHONPATH=str(Path(permatch.__file__).resolve().parent.parent))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "k12.txt").write_text(serialize_graph(complete_graph(12)))
        Path(tmp, "k10.txt").write_text(serialize_graph(complete_graph(10)))
        Path(tmp, "k5.txt").write_text(serialize_graph(complete_graph(5)))
        Path(tmp, "c5.txt").write_text(serialize_graph(directed_cycle(5)))
        timings = {
            name: {"command": " ".join(cmd).replace("{tmp}/", ""), **time_command(
                [a.format(tmp=tmp) for a in cmd], env)}
            for name, cmd in COMMANDS.items()
        }

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "cpus": _usable_cpus(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commands": timings,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, row in timings.items():
        print(f"{name:<22} median {row['median_s']:7.3f} s  [{row['q1_s']:.3f}, {row['q3_s']:.3f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

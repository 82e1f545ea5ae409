"""Wall time of fixed permatch CLI commands, end to end.

Runs each command below in a fresh interpreter (``python -m permatch.cli``,
so start-up and imports count) and stores the median and quartiles of the
wall times, with the CPU count, the numpy version and the Python version,
under a label in a JSON file. Each ``label=SRC_DIR`` pair names a source
tree to run the package from; with none, the commands run the permatch
package this script imports, under the label ``current``. Every run of a
command goes to each label in turn, the order reversed on every other run,
so two checkouts measured in one sitting see the same machine:

    PYTHONPATH=src python3 scripts/bench_e2e.py parent=/tmp/parent/src change=src

Other labels already in the file are kept.
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


def time_command(argv: list[str], envs: dict[str, dict]) -> dict[str, dict]:
    """Wall seconds of RUNS fresh CLI processes per label, the labels taken in
    turn within each run; a nonzero exit is an error."""
    times: dict[str, list[float]] = {label: [] for label in envs}
    for run in range(RUNS):
        for label in list(envs)[:: -1 if run % 2 else 1]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "permatch.cli", *argv], env=envs[label], capture_output=True
            )
            times[label].append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise SystemExit(f"{label}: {' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()}")
    out = {}
    for label, ts in times.items():
        q1, median, q3 = statistics.quantiles(ts, n=4, method="inclusive")
        out[label] = {"runs": RUNS, "median_s": median, "q1_s": q1, "q3_s": q3}
    return out


def source_pair(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not (label and sep and Path(src, "permatch").is_dir()):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC_DIR with SRC_DIR/permatch, got {text!r}")
    return label, Path(src).resolve()


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

    sources = dict(args.sources) or {"current": Path(permatch.__file__).resolve().parent.parent}
    envs = {label: dict(os.environ, PYTHONPATH=str(src)) for label, src in sources.items()}
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "k12.txt").write_text(serialize_graph(complete_graph(12)))
        Path(tmp, "k10.txt").write_text(serialize_graph(complete_graph(10)))
        Path(tmp, "k5.txt").write_text(serialize_graph(complete_graph(5)))
        Path(tmp, "c5.txt").write_text(serialize_graph(directed_cycle(5)))
        timings = {
            name: time_command([a.format(tmp=tmp) for a in cmd], envs) for name, cmd in COMMANDS.items()
        }

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = doc.setdefault("runs", {})
    for label in sources:
        runs[label] = {
            "cpus": _usable_cpus(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "commands": {
                name: {"command": " ".join(cmd).replace("{tmp}/", ""), **timings[name][label]}
                for name, cmd in COMMANDS.items()
            },
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, rows in timings.items():
        for label, row in rows.items():
            print(f"{name:<22} {label:<8} median {row['median_s']:7.3f} s"
                  f"  [{row['q1_s']:.3f}, {row['q3_s']:.3f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Wall time of fixed permatch CLI commands, end to end.

Runs each command below in a fresh interpreter (``python -m permatch.cli``,
so start-up and imports count) and stores the median and quartiles of the
wall times, with the CPU count, the numpy version and the Python version,
under a label in a JSON file, together with the line count of the
package's Python files. Each ``label=SRC_DIR`` pair names a source
tree to run the package from; with none, the commands run the permatch
package this script imports, under the label ``current``. Every run of a
command goes to each label in turn, the order reversed on every other run,
so two checkouts measured in one sitting see the same machine.

Each label also gets ``tier1``: the wall seconds of TIER1_RUNS runs of the
tier-1 suite from the checkout that holds its source tree (the labels taken in
turn as above), the passed and failed counts of its last run, and per
``ACCEPTANCE NN`` line the seconds that line reports:

    PYTHONPATH=src python3 scripts/bench_e2e.py parent=/tmp/parent/src change=src

Other labels already in the file are kept.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import permatch
from permatch import complete_bipartite, complete_graph, directed_cycle, serialize_graph
from permatch.random_models import _usable_cpus

COMMANDS = {
    # interpreter and package start-up alone: argparse prints the usage and exits
    "help": ["--help"],
    "scan-digraphs-4": ["scan", "--family", "digraphs", "--n", "4", "--out", "{tmp}/records.csv"],
    "scan-bipartite-3": ["scan", "--family", "bipartite", "--n", "3", "--out", "{tmp}/records.csv"],
    "scan-bipartite-4": ["scan", "--family", "bipartite", "--n", "4", "--out", "{tmp}/records.csv"],
    # the sampled family: 2,000 draws of G(12, 1/2), the 0/1 permanent at n = 12; enough draws
    # (about 0.6 s of them) that the sampled route, not interpreter start-up, dominates the run
    "scan-sampled-12": [
        "scan", "--family", "sampled-undirected", "--n", "12", "--samples", "2000", "--seed", "7",
        "--out", "{tmp}/records.csv",
    ],
    # the half-hitting check at its cap of parts of 6: per(B) and the 720 targets' per(B - M) in one kernel call
    "verify-1-K66": ["verify", "--theorem", "1", "--input", "{tmp}/k66.txt"],
    "verify-corollary-K12": ["verify", "--theorem", "corollary", "--input", "{tmp}/k12.txt"],
    "verify-2-K10": ["verify", "--theorem", "2", "--input", "{tmp}/k10.txt"],
    # the injection audit: exhaustive at the CLI's 5-vertex cap, sampled (200 derangements) above it
    "verify-injection-K5": ["verify", "--theorem", "injection", "--input", "{tmp}/k5.txt"],
    "verify-injection-K10": ["verify", "--theorem", "injection", "--input", "{tmp}/k10.txt"],
    # the splitting identity at its cap of 8 vertices (K8) or parts of 8 (K_{8,8}), every block size k
    "verify-subpermanent-K8": ["verify", "--theorem", "subpermanent", "--input", "{tmp}/k8.txt"],
    "verify-subpermanent-K88": ["verify", "--theorem", "subpermanent", "--input", "{tmp}/k88.txt"],
    # the slowest arc count found at the 500-vertex cap
    "expect-500": ["expect", "--n", "500", "--m", "63622"],
    "count-ratio-C5": ["count", "--input", "{tmp}/c5.txt", "--what", "ratio"],
    # the fixed-point profile at its cap of 12 vertices, and the injection applied to K64's Hamilton cycle
    # 0 -> 1 -> ... -> 63 -> 0 at vertex 0, at the 64-vertex cap of a graph file
    "count-fixed-points-K12": ["count", "--input", "{tmp}/k12.txt", "--what", "fixed-points"],
    "inject-K64": ["inject", "--input", "{tmp}/k64.txt", "--vertex", "0", "--perm",
                   ",".join(str((i + 1) % 64) for i in range(64))],
    # the Monte Carlo d/p on D(20, 1/2): two n = 20 permanents per draw, fanned out over 2 workers
    "mc-digraph-20": ["mc", "--model", "digraph", "--n", "20", "--q", "1/2", "--samples", "24", "--seed", "7",
                      "--threads", "2"],
}
RUNS = 11  # fewer runs leave a 10-15 % change inside the noise of a 2-vCPU machine
# the tier-1 suite, run from a checkout's root; -rP in its pytest options prints every ACCEPTANCE line
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIER1_RUNS = 3  # each run takes most of a minute
ACCEPTANCE = re.compile(r"^ACCEPTANCE (\d+) (\S+): (?:PASS|FAIL) \(([\d.]+)s\)$", re.M)
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
    return {label: spread(ts) for label, ts in times.items()}


def spread(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"runs": len(times), "median_s": median, "q1_s": q1, "q3_s": q3}


def time_tier1(roots: dict[str, Path], envs: dict[str, dict]) -> dict[str, dict]:
    """Per label: wall seconds of TIER1_RUNS tier-1 runs from its checkout root,
    the labels taken in turn within each run; the passed and failed counts of
    the last run; and the seconds each ACCEPTANCE NN line reports, per run."""
    walls: dict[str, list[float]] = {label: [] for label in envs}
    lines: dict[str, dict[str, list[float]]] = {label: {} for label in envs}
    counts: dict[str, dict[str, int]] = {}
    for run in range(TIER1_RUNS):
        for label in list(envs)[:: -1 if run % 2 else 1]:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, *TIER1], cwd=roots[label], env=envs[label],
                                  capture_output=True, text=True)
            walls[label].append(time.perf_counter() - start)
            for num, slug, seconds in ACCEPTANCE.findall(proc.stdout):
                lines[label].setdefault(f"{num} {slug}", []).append(float(seconds))
            tail = proc.stdout.strip().splitlines()[-1:] or [""]
            counts[label] = {kind: int(count) for count, kind in re.findall(r"(\d+) (passed|failed)", tail[0])}
    return {
        label: {**spread(walls[label]), "passed": counts[label].get("passed", 0),
                "failed": counts[label].get("failed", 0),
                "acceptance": {line: spread(ts) for line, ts in sorted(lines[label].items())}}
        for label in envs
    }


def source_lines(src: Path) -> int:
    """Lines of the package's Python files, counted as perfbench/run.py counts src.loc."""
    return sum(len(path.read_text().splitlines()) for path in (src / "permatch").rglob("*.py"))


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
        Path(tmp, "k64.txt").write_text(serialize_graph(complete_graph(64)))
        Path(tmp, "k12.txt").write_text(serialize_graph(complete_graph(12)))
        Path(tmp, "k10.txt").write_text(serialize_graph(complete_graph(10)))
        Path(tmp, "k8.txt").write_text(serialize_graph(complete_graph(8)))
        Path(tmp, "k88.txt").write_text(serialize_graph(complete_bipartite(8)))
        Path(tmp, "k66.txt").write_text(serialize_graph(complete_bipartite(6)))
        Path(tmp, "k5.txt").write_text(serialize_graph(complete_graph(5)))
        Path(tmp, "c5.txt").write_text(serialize_graph(directed_cycle(5)))
        timings = {
            name: time_command([a.format(tmp=tmp) for a in cmd], envs) for name, cmd in COMMANDS.items()
        }
    tier1 = time_tier1({label: src.parent for label, src in sources.items()}, envs)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = doc.setdefault("runs", {})
    for label in sources:
        runs[label] = {
            "cpus": _usable_cpus(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "src_loc": source_lines(sources[label]),
            "commands": {
                name: {"command": " ".join(cmd).replace("{tmp}/", ""), **timings[name][label]}
                for name, cmd in COMMANDS.items()
            },
            "tier1": tier1[label],
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, rows in timings.items():
        for label, row in rows.items():
            print(f"{name:<22} {label:<8} median {row['median_s']:7.3f} s"
                  f"  [{row['q1_s']:.3f}, {row['q3_s']:.3f}]")
    for label, row in tier1.items():
        print(f"{'tier-1':<22} {label:<8} median {row['median_s']:7.3f} s  [{row['q1_s']:.3f}, {row['q3_s']:.3f}]"
              f"  {row['passed']} passed, {row['failed']} failed")
        for line, times in row["acceptance"].items():
            print(f"  ACCEPTANCE {line:<26} {label:<8} median {times['median_s']:6.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

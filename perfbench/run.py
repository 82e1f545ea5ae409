"""permatch benchmark: four workloads, end-to-end metrics and a traced pass.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan-exhaustive --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout; nothing needs to
be installed or built. The load is a closed loop: one client, one call in
flight, blocks of work run back to back until ``--seconds`` have passed.
Only ``mc-dense`` fans out, to 2 pool workers. Each block's outputs are
checked right after it, outside its timing; a wrong or failed item counts in
``failed``. Block wall and CPU times are scaled to a reference machine speed
measured between blocks (see ``calibrate``); ``setup_s`` is raw wall time.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs block 0 of
the workload single-process, alternating an untraced and a traced run, and
prints the per-layer metrics; the spans go to ``.perfbench-out/``. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Without ``src/permatch`` the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

from layertrace import BANDS, KERNELS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 7
BAND_NAMES = tuple(name for name, _ in BANDS)

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}
PER_LAYER = {
    "permanent.calls": "count",
    "permanent.calls_per_item": "calls/item",
    **{f"permanent.self_s.{b}": "s" for b in BAND_NAMES},
    **{f"permanent.us_per_call.{b}": "us" for b in BAND_NAMES},
    "permanent.subset_adds": "count",
    "verify.self_s": "s",
    "verify.checks": "count",
    "verify.write_s": "s",
    "verify.record_bytes": "bytes",
    "graphs.self_s": "s",
    "graphs.calls": "count",
    "injection.self_s": "s",
    "injection.apply_calls": "count",
    "injection.invert_calls": "count",
    "injection.refusals": "count",
    "injection.us_per_apply": "us",
    "injection.us_per_invert": "us",
    "counting.self_s": "s",
    "counting.enum_items": "count",
    "random_models.self_s": "s",
    "random_models.samples": "count",
    "random_models.pool_speedup": "ratio",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    **{f"{m}.loc": "lines" for m in LAYERS},
    "src.loc": "lines",
}


def load_program() -> None:
    """Put the checkout's src/ first on the path; exit 2 when the program is absent."""
    if not (SRC / "permatch" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'permatch'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import permatch

    if Path(permatch.__file__).resolve().parent != (SRC / "permatch").resolve():
        print(f"perfbench: imported permatch from {permatch.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def cpu_s() -> float:
    """User + system time of this process and of its reaped children (pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024  # ru_maxrss is in KiB on Linux


# Machine-speed calibration. The host's speed drifts by up to +-25 % over tens
# of seconds (other tenants, clock boost), so each block's wall and CPU time
# is divided by slowness ** ELASTICITY, where slowness is the time of a fixed
# calibration loop run before and after the block over its reference time.
# Reference times (min of 3) are from the machine the bounds were set on: a
# 2-vCPU Xeon KVM guest, Python 3.11.7, numpy 2.4.6. The elasticity is how
# strongly the workloads follow the loop there: regressing log block rate on
# log slowness over 200 s runs in 18 s windows gave slopes 0.80 for
# scan-exhaustive and 0.73 for audit-injection.
CALIBRATION_REF_S = {"python": 0.0155, "numpy": 0.0210}
ELASTICITY = {"python": 0.8, "numpy": 1.0}


def _python_loop() -> None:
    # arithmetic, allocation and sorting, exact fractions, and recursive
    # generators over bitmasks: the mix the pure-Python layers spend time on
    s = 0
    for i in range(30_000):
        s += i * i % 7
    pairs = sorted((i * 7919 % 1000, str(i)) for i in range(3000))
    s += sum(len(v) for v in dict(pairs).values())
    f = Fraction(0)
    for i in range(1, 300):
        f += Fraction(1, i)

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def rec(i, used):
        if i == 7:
            yield 1
            return
        for j in bits(127 & ~used):
            yield from rec(i + 1, used | 1 << j)

    s += sum(rec(0, 0))


def _numpy_loop(a) -> None:
    # the access pattern of the 0/1 permanent's subset DP on an 8 MB int64 array
    for j in range(20):
        a.reshape(-1, 2, 1 << j)[:, 1, :] += a.reshape(-1, 2, 1 << j)[:, 0, :]


def calibrate(kind: str, dp_array) -> float:
    """Machine slowness right now, as the factor it stretches this workload's times by."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _python_loop() if kind == "python" else _numpy_loop(dp_array)
        best = min(best, time.perf_counter() - t0)
    return (best / CALIBRATION_REF_S[kind]) ** ELASTICITY[kind]


def run_block(w, inp, threads: int):
    """One timed block; a crash yields (None, wall, cpu) and counts as failed items."""
    c0 = cpu_s()
    t0 = time.perf_counter()
    try:
        out = w.run(inp, threads)
    except Exception:
        traceback.print_exc()
        out = None
    return out, time.perf_counter() - t0, cpu_s() - c0


def check_block(w, inp, out) -> int:
    if out is None:
        return w.items(inp)
    try:
        return min(w.check(inp, out), w.items(inp))
    except Exception:
        traceback.print_exc()
        return w.items(inp)


def thread_invariance(w, inp, out_pool, out_single) -> int:
    """Items wrong because the pooled and the single-process run disagree."""
    if out_pool is None or out_single is None:
        return w.items(inp)
    return w.check_thread_invariance(inp, out_pool, out_single)


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import, build inputs and warm up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    walls = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def end_to_end(blocks: list[tuple[int, float, float]], failed: int, setup_s: float, rss_mb: float) -> dict:
    """Metric values from (items, wall, cpu) per block; rates are medians over blocks."""
    attempted = sum(items for items, _, _ in blocks)
    return {
        "setup_s": setup_s,
        "items_per_s": statistics.median(items / wall for items, wall, _ in blocks),
        "cpu_ms_per_item": statistics.median(1000 * cpu / items for items, _, cpu in blocks),
        "peak_rss_mb": rss_mb,
        "ok_rate": 1 - failed / attempted,
    }


def result(attempted: int, failed: int, values: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def measure(w, args) -> dict:
    """Closed loop over blocks until --seconds pass; each block is checked right
    after it ran, outside its timing, and its outputs are dropped."""
    import numpy as np

    dp_array = np.zeros(1 << 20, dtype=np.int64) if w.calibrator == "numpy" else None
    w.warm_up()
    blocks, slowness = [], []
    failed = 0
    first = None
    deadline = time.perf_counter() + args.seconds
    slow_before = calibrate(w.calibrator, dp_array)
    while not blocks or time.perf_counter() < deadline:
        inp = w.inputs(len(blocks))
        out, wall, cpu = run_block(w, inp, w.timed_threads)
        slow_after = calibrate(w.calibrator, dp_array)
        slow = (slow_before + slow_after) / 2
        slow_before = slow_after
        slowness.append(slow)
        blocks.append((w.items(inp), wall / slow, cpu / slow))
        failed += check_block(w, inp, out)
        if first is None:
            first = (inp, out)
    rss = peak_rss_mb()
    if w.timed_threads > 1:
        inp, out = first
        single, _, _ = run_block(w, inp, 1)
        failed += thread_invariance(w, inp, out, single)
    attempted = sum(b[0] for b in blocks)
    failed = min(failed, attempted)
    print(
        f"perfbench: {len(blocks)} blocks, unscaled items/s median "
        f"{statistics.median(n / (wall * s) for (n, wall, _), s in zip(blocks, slowness)):.6g}, "
        f"machine slowness median {statistics.median(slowness):.4g} "
        f"(min {min(slowness):.4g}, max {max(slowness):.4g})",
        file=sys.stderr,
    )
    values = end_to_end(blocks, failed, setup_seconds(args), rss)
    return result(attempted, failed, values, END_TO_END)


def source_lines() -> dict:
    def count(path: Path) -> int:
        return len(path.read_text().splitlines())

    values = {f"{m}.loc": count(SRC / "permatch" / f"{m}.py") for m in LAYERS}
    values["src.loc"] = sum(count(p) for p in SRC.rglob("*.py"))
    return values


def layer_metrics(tracer, items: int, record_bytes: int) -> dict:
    """Per-layer values of one traced block."""
    spans = tracer.by_key()
    zero = (0, 0.0, 0.0)

    def per_call_us(key: str) -> float:
        calls, _, incl = spans.get(key, zero)
        return 1e6 * incl / calls if calls else 0.0

    kernel_calls = dict.fromkeys(BAND_NAMES, 0)
    band_self = dict.fromkeys(BAND_NAMES, 0.0)
    for key, (calls, self_s, _) in spans.items():
        if key.startswith("permanent."):
            name, band = key[len("permanent."):-1].split("[")
            band_self[band] += self_s
            if name in KERNELS:
                kernel_calls[band] += calls
    total_calls = sum(kernel_calls.values())
    v = {
        "permanent.calls": total_calls,
        "permanent.calls_per_item": total_calls / items,
        **{f"permanent.self_s.{b}": band_self[b] for b in BAND_NAMES},
        **{f"permanent.us_per_call.{b}": 1e6 * band_self[b] / kernel_calls[b] if kernel_calls[b] else 0.0
           for b in BAND_NAMES},
        "permanent.subset_adds": tracer.counters["permanent.subset_adds"],
        "verify.checks": sum(c for k, (c, _, _) in spans.items() if k.startswith("verify.check_")),
        "verify.write_s": spans.get("verify.write_records", zero)[2],
        "verify.record_bytes": record_bytes,
        "graphs.calls": tracer.layer_totals("graphs")[0],
        "injection.apply_calls": spans.get("injection.apply_injection", zero)[0],
        "injection.invert_calls": spans.get("injection.invert_injection", zero)[0],
        "injection.refusals": tracer.counters["injection.invert_injection!NotInImageError"],
        "injection.us_per_apply": per_call_us("injection.apply_injection"),
        "injection.us_per_invert": per_call_us("injection.invert_injection"),
        "counting.enum_items": tracer.counters["counting.items"],
        "random_models.samples": spans.get("random_models.sample", zero)[0],
        "trace.spans": tracer.span_count,
    }
    for layer in ("verify", "graphs", "injection", "counting", "random_models", "cli"):
        v[f"{layer}.self_s"] = tracer.layer_totals(layer)[1]
    return v


def measure_traced(w, args) -> dict:
    """Block 0 single-process, untraced and traced in turn until --seconds pass;
    per-layer values are medians over the traced runs."""
    w.warm_up()
    tracer = Tracer()
    inp = w.inputs(0)
    untraced, traced, timed, units = [], [], [], []
    failed = attempted = 0
    first_single = first_pool = None
    deadline = time.perf_counter() + args.seconds
    while not units or time.perf_counter() < deadline:
        out, wall, _ = run_block(w, inp, 1)
        untraced.append(wall)
        failed += check_block(w, inp, out)
        tracer.reset_unit()
        tracer.install()
        try:
            out, wall, _ = run_block(w, inp, 1)
        finally:
            tracer.uninstall()
        traced.append(wall)
        silent = [layer for layer in w.layers if tracer.layer_totals(layer)[0] == 0]
        if silent:
            print(f"perfbench: {w.name} declares layers {silent} but the trace saw no call", file=sys.stderr)
            sys.exit(1)
        record_bytes = sum(p.stat().st_size for p in w.record_files(inp) if p.exists())
        units.append(layer_metrics(tracer, w.items(inp), record_bytes))
        failed += check_block(w, inp, out)
        first_single = first_single or out
        attempted += 2 * w.items(inp)
        if w.timed_threads > 1:
            out, wall, _ = run_block(w, inp, w.timed_threads)
            timed.append(wall)
            failed += check_block(w, inp, out)
            first_pool = first_pool or out
            attempted += w.items(inp)
    if w.timed_threads > 1:
        failed += thread_invariance(w, inp, first_pool, first_single)
    failed = min(failed, attempted)
    tracer.write(OUT / f"trace-{w.name}.spans")

    values = {k: statistics.median(u[k] for u in units) for k in units[0]}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    # the speed-up of the timed configuration over one process; no pool means 1
    values["random_models.pool_speedup"] = (
        statistics.median(untraced) / statistics.median(timed) if timed else 1.0
    )
    values.update(source_lines())
    return result(attempted, failed, values, PER_LAYER)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="permatch benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            w.warm_up()
            return 0
        doc = measure_traced(w, args) if args.trace else measure(w, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

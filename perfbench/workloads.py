"""The four benchmark workloads.

Each workload runs blocks of work through the public entry points a user
calls: ``permatch.cli.main([...])`` in-process where a CLI command exists,
otherwise the public ``permatch.verify`` function. A block is a fixed amount
of work; the harness times whole blocks. Every workload splits into

* ``inputs(i)``: the inputs of block i, made from the seed (untimed);
* ``run(inp, threads)``: the block itself, one call in flight (timed);
* ``check(inp, out)``: correctness of the block's outputs (untimed), which
  returns the number of items found wrong.

The layers each workload is declared to exercise are in its ``layers``; the
traced pass fails if one of them records no call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

from permatch import cli, verify
from permatch.counting import count_derangements, count_permutations
from permatch.graphs import new_digraph
from permatch.permanent import permanent_ryser

HALF = Fraction(1, 2)


def warn(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def knn_reciprocal(n: int) -> Fraction:
    """d/p of the flattened K_{n,n}: 1 / sum_k 1/k!^2, computed here independently."""
    return 1 / sum(Fraction(1, factorial(k) ** 2) for k in range(n + 1))


def ratio_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_summary(out: tuple[int, str], want: dict) -> tuple[dict, list[str]]:
    """The CLI's JSON summary and what is wrong with it: a nonzero exit, or a key unlike ``want``."""
    code, text = out
    problems = [] if code == 0 else [f"exit {code}"]
    try:
        s = json.loads(text)
    except ValueError:
        s = {}
        problems.append("summary is not JSON")
    problems += [f"{k}={s.get(k)!r}, want {v!r}" for k, v in want.items() if s.get(k) != v]
    return s, problems


def csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def block_seed(seed: int, i: int) -> int:
    return seed * 100_000 + i


class Workload:
    name = ""
    layers: tuple[str, ...] = ()
    timed_threads = 1
    # the calibration loop whose speed tracks this workload's bottleneck
    calibrator = "python"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def warm_up(self) -> None:
        raise NotImplementedError

    def inputs(self, i: int):
        raise NotImplementedError

    def run(self, inp, threads: int):
        raise NotImplementedError

    def check(self, inp, out) -> int:
        raise NotImplementedError

    def items(self, inp) -> int:
        raise NotImplementedError

    def record_files(self, inp) -> list[Path]:
        """Files the block's scan writes its records to."""
        return []


class ScanExhaustive(Workload):
    """scan --family digraphs --n 4 and scan --family bipartite --n 3, records to files."""

    name = "scan-exhaustive"
    layers = ("cli", "verify", "counting", "permanent", "graphs")
    # family -> (n, graphs, equality_count, max_ratio)
    EXPECT = {
        "digraphs": (4, 4096, factorial(3), HALF),
        "bipartite": (3, 512, 0, knn_reciprocal(3)),
    }

    def warm_up(self) -> None:
        run_cli(["scan", "--family", "digraphs", "--n", "3", "--out", str(self.workdir / "warm.csv"), "--threads", "1"])

    def inputs(self, i: int):
        return {fam: self.workdir / f"{fam}.csv" for fam in self.EXPECT}

    def items(self, inp) -> int:
        return sum(v[1] for v in self.EXPECT.values())

    def record_files(self, inp) -> list[Path]:
        return list(inp.values())

    def run(self, inp, threads: int):
        out = {}
        for fam, path in inp.items():
            n = self.EXPECT[fam][0]
            out[fam] = run_cli(
                ["scan", "--family", fam, "--n", str(n), "--out", str(path), "--threads", str(threads)]
            )
        return out

    def check(self, inp, out) -> int:
        bad = 0
        for fam, (n, graphs, equality, max_ratio) in self.EXPECT.items():
            want = {"n": n, "graphs": graphs, "counterexamples": 0, "equality_count": equality,
                    "max_ratio": ratio_text(max_ratio)}
            _, problems = parse_summary(out[fam], want)
            path = inp[fam]
            rows = csv_rows(path) if path.exists() else []
            if len(rows) != graphs:
                problems.append(f"{len(rows)} record rows, want {graphs}")
            if problems:
                warn(f"{self.name} {fam}: " + "; ".join(problems))
                bad += graphs
        return bad


class SampledMid(Workload):
    """scan --family sampled-undirected --n 12 --q 1/2, one block of SAMPLES graphs per call."""

    name = "sampled-mid"
    layers = ("cli", "verify", "counting", "permanent", "graphs", "random_models")
    N = 12
    SAMPLES = 25

    def warm_up(self) -> None:
        self.run((block_seed(self.seed, 99_999), self.workdir / "warm.csv", 1), 1)

    def inputs(self, i: int):
        return block_seed(self.seed, i), self.workdir / "sampled.csv", self.SAMPLES

    def items(self, inp) -> int:
        return inp[2]

    def record_files(self, inp) -> list[Path]:
        return [inp[1]]

    def run(self, inp, threads: int):
        seed, path, samples = inp
        return run_cli(
            ["scan", "--family", "sampled-undirected", "--n", str(self.N), "--samples", str(samples),
             "--q", "1/2", "--seed", str(seed), "--out", str(path), "--threads", str(threads)]
        )

    def check(self, inp, out) -> int:
        seed, path, samples = inp
        want = {"n": self.N, "graphs": samples, "counterexamples": 0, "seed": seed, "q": "1/2",
                "reference_ratio": ratio_text(knn_reciprocal(self.N // 2))}
        s, problems = parse_summary(out, want)
        rows = csv_rows(path) if path.exists() else []
        if len(rows) != samples:
            problems.append(f"{len(rows)} record rows, want {samples}")
        else:
            ratios = [Fraction(r[5]) for r in rows]
            if Fraction(str(s.get("max_ratio"))) != max(ratios) or max(ratios) > HALF:
                problems.append(f"max_ratio={s.get('max_ratio')!r} disagrees with the records")
            # spot-check one record against the generic Ryser permanent of A and A + I
            rec = rows[seed % samples]
            hexrows = [int(h, 16) for h in rec[2].split(":")]
            a = [[row >> j & 1 for j in range(self.N)] for row in hexrows]
            a_i = [[1 if i == j else x for j, x in enumerate(r)] for i, r in enumerate(a)]
            got = (int(rec[3]), int(rec[4]))
            want_dp = (permanent_ryser(a), permanent_ryser(a_i))
            if got != want_dp:
                problems.append(f"record {rec[2]} has d, p = {got}, generic Ryser gives {want_dp}")
        if problems:
            warn(f"{self.name} seed {seed}: " + "; ".join(problems))
            return samples
        return 0


class McDense(Workload):
    """mc --model digraph --n 20 --q 1/2 --threads 2 --json, SAMPLES samples per call."""

    name = "mc-dense"
    layers = ("cli", "random_models", "counting", "permanent", "graphs")
    timed_threads = 2
    calibrator = "numpy"
    N = 20
    SAMPLES = 6

    def warm_up(self) -> None:
        self.run((block_seed(self.seed, 99_999), 1), 1)

    def inputs(self, i: int):
        return block_seed(self.seed, i), self.SAMPLES

    def items(self, inp) -> int:
        return inp[1]

    def run(self, inp, threads: int):
        seed, samples = inp
        return run_cli(
            ["mc", "--model", "digraph", "--n", str(self.N), "--q", "1/2", "--samples", str(samples),
             "--seed", str(seed), "--threads", str(threads), "--json"]
        )

    def summary(self, inp, out) -> tuple[dict, list[str]]:
        s, problems = parse_summary(out, {"kind": "digraph", "n": self.N, "samples": inp[1]})
        mean = s.get("mean")
        if not isinstance(mean, float) or not 0 < mean <= 0.5:
            problems.append(f"mean {mean!r} outside (0, 1/2]")
        return s, problems

    def check(self, inp, out) -> int:
        _, problems = self.summary(inp, out)
        if problems:
            warn(f"{self.name} seed {inp[0]}: " + "; ".join(problems))
            return inp[1]
        return 0

    def check_thread_invariance(self, inp, out_a, out_b) -> int:
        """Results do not change with the thread count: same mean and spread."""
        a, _ = self.summary(inp, out_a)
        b, _ = self.summary(inp, out_b)
        if (a.get("mean"), a.get("stddev")) != (b.get("mean"), b.get("stddev")):
            warn(f"{self.name} seed {inp[0]}: mean/stddev differ between thread counts: {a} vs {b}")
            return inp[1]
        return 0


class AuditInjection(Workload):
    """verify.check_injection on every digraph with 2..4 vertices, then sampled digraphs on 5..7.

    The 4,164 exhaustive graphs are split into GROUPS fixed random groups of
    near-equal cost, and block i audits group i mod GROUPS plus a few sampled
    graphs, so a block is short enough for the machine-speed calibration to
    follow it. Every run of GROUPS consecutive blocks covers every graph.
    """

    name = "audit-injection"
    layers = ("verify", "injection", "counting", "graphs")
    GROUPS = 4
    SAMPLED_PER_N = 1
    SAMPLE_CAP = 200  # the CLI's cap for n > 5
    # Sum over every digraph on 2..4 vertices of n*d(G) and n*(p(G) - d(G)).
    TOTALS = (9266, 57688)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        graphs = [verify.digraph_from_arc_index(n, idx) for n in (2, 3, 4) for idx in range(1 << (n * (n - 1)))]
        random.Random(0).shuffle(graphs)
        self.groups = [graphs[k :: self.GROUPS] for k in range(self.GROUPS)]
        self._totals_ok: bool | None = None
        self._expected: dict = {}

    def warm_up(self) -> None:
        for g in self.groups[0][:64]:
            verify.check_injection(g)

    def inputs(self, i: int):
        rng = random.Random(block_seed(self.seed, i))
        sampled = []
        for n in (5, 6, 7):
            for _ in range(self.SAMPLED_PER_N):
                arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.5]
                sampled.append(new_digraph(n, arcs))
        return self.groups[i % self.GROUPS] + sampled

    def items(self, inp) -> int:
        return len(inp)

    @staticmethod
    def cap(g) -> int | None:
        return None if g.n <= 5 else AuditInjection.SAMPLE_CAP

    def run(self, inp, threads: int):
        # through the module attribute, so the traced pass sees the call
        return [verify.check_injection(g, sample_cap=self.cap(g)) for g in inp]

    def expected(self, g) -> tuple[int, int | None]:
        """(round trips, refusals) the audit must report: n*d and n*(p - d)."""
        hit = self._expected.get(g)
        if hit is None:
            d = count_derangements(g)
            cap = self.cap(g)
            if cap is None:
                hit = g.n * d, g.n * (count_permutations(g) - d)
            else:
                hit = g.n * min(d, cap), None
            self._expected[g] = hit
        return hit

    def check(self, inp, out) -> int:
        if self._totals_ok is None:
            sums = [self.expected(g) for group in self.groups for g in group]
            totals = (sum(t for t, _ in sums), sum(r for _, r in sums))
            self._totals_ok = totals == self.TOTALS
            if not self._totals_ok:
                warn(f"{self.name}: n*d and n*(p - d) over 2..4 vertices sum to {totals}, want {self.TOTALS}")
        if not self._totals_ok:
            return len(inp)
        bad = 0
        for g, rep in zip(inp, out):
            got = (rep.details.get("round_trips"), rep.details.get("refusals"))
            want = self.expected(g)
            if not rep.holds or got != want:
                warn(f"{self.name}: {rep.instance} reports {got}, holds={rep.holds}, want {want}")
                bad += 1
        return bad + abs(len(inp) - len(out))


WORKLOADS = {w.name: w for w in (ScanExhaustive, SampledMid, McDense, AuditInjection)}

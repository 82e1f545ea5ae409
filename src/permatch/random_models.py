"""Random graph models, exact first-moment formulas, and Monte Carlo ratio runs.

Sampling is deterministic given (model, seed): arc slots are visited in
row-major order and each Bernoulli draw consumes exactly one 53-bit word, so
adding features cannot silently shift the stream. Monte Carlo runs derive one
child seed per sample index, which makes them chunkable across workers
without changing the output.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, exp
from statistics import fmean, stdev
from typing import Callable, Sequence, TypeVar

from .counting import dp_ratio
from .errors import BadParamsError, CounterexampleError, TooLargeError
from .graphs import Digraph, UndirectedGraph, new_digraph, new_graph

MODEL_KINDS = ("digraph", "graph")
# below Python's 4,300-digit int-to-str limit: E[p] <= n! and its denominator
# divides slots! / (slots - n)!, so at n = 500 no printed integer passes 3,834 digits
EXPECT_LIMIT = 500

T = TypeVar("T")
R = TypeVar("R")


def _as_probability(q) -> Fraction:
    try:
        q = Fraction(q)  # exact for int, str ("0.8" -> 4/5), and Fraction
    except (ValueError, ZeroDivisionError, TypeError):
        raise BadParamsError(f"cannot read probability from {q!r}") from None
    if not 0 <= q <= 1:
        raise BadParamsError(f"probability must lie in [0, 1], got {q}")
    return q


@dataclass(frozen=True)
class ModelSpec:
    """Either G(n, q) / D(n, q) with independent edges or arcs (give q), or the
    uniform model with exactly m arcs (give m)."""

    kind: str
    n: int
    q: Fraction | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise BadParamsError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise BadParamsError(f"model needs a positive vertex count, got {self.n!r}")
        if (self.q is None) == (self.m is None):
            raise BadParamsError("give exactly one of q (independent) or m (fixed arc count)")
        if self.q is not None:
            object.__setattr__(self, "q", _as_probability(self.q))
        if self.m is not None and not 0 <= self.m <= self.slot_count:
            raise BadParamsError(f"arc count must lie in [0, {self.slot_count}], got {self.m}")

    @property
    def slot_count(self) -> int:
        if self.kind == "digraph":
            return self.n * (self.n - 1)
        return self.n * (self.n - 1) // 2

    def slots(self) -> list[tuple[int, int]]:
        n = self.n
        if self.kind == "digraph":
            return [(i, j) for i in range(n) for j in range(n) if i != j]
        return [(i, j) for i in range(n) for j in range(i + 1, n)]


def sample(model: ModelSpec, seed: int) -> Digraph | UndirectedGraph:
    rng = random.Random(seed)
    slots = model.slots()
    if model.q is not None:
        num, den = model.q.numerator, model.q.denominator
        threshold = num << 53
        chosen = [s for s in slots if rng.getrandbits(53) * den < threshold]
    else:
        picked = rng.sample(range(len(slots)), model.m)
        chosen = [slots[i] for i in sorted(picked)]
    if model.kind == "digraph":
        return new_digraph(model.n, chosen)
    return new_graph(model.n, chosen)


# ---------------------------------------------------------------------------
# exact expectations in the fixed-arc-count model


def _derangement_numbers(n: int) -> list[int]:
    """d(0), d(1), ... up to at least d(n), by d(t) = (t-1) (d(t-1) + d(t-2))."""
    d = [1, 0]
    for t in range(2, n + 1):
        d.append((t - 1) * (d[-1] + d[-2]))
    return d


def derangement_number(n: int) -> int:
    """Derangements of an n-set."""
    if n < 0:
        raise BadParamsError(f"need n >= 0, got {n}")
    return _derangement_numbers(n)[n]


def expected_counts(n: int, m: int) -> tuple[Fraction, Fraction]:
    """(E[derangements], E[permutations]) for a uniform m-arc digraph on n vertices.

    A permutation moving exactly t vertices needs its t cycle arcs present, so
    linearity gives E[p] = sum_t C(n, t) d(t) P(t) and E[d] = d(n) P(n), with
    P(t + 1) = P(t) (m - t) / (slots - t) the inclusion probability, 0 past m.
    """
    slots = ModelSpec("digraph", n, m=m).slot_count  # checks n >= 1 and 0 <= m <= slots
    if n > EXPECT_LIMIT:
        raise TooLargeError(f"expected counts capped at n={EXPECT_LIMIT}, got {n}")
    prob = [Fraction(1)]
    for t in range(min(n, m)):
        prob.append(prob[-1] * Fraction(m - t, slots - t))
    d = _derangement_numbers(n)
    ey = sum((comb(n, t) * d[t] * p for t, p in enumerate(prob)), Fraction(0))
    ex = d[n] * prob[n] if n <= m else Fraction(0)
    return ex, ey


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class McSummary:
    model: ModelSpec
    samples: int
    mean: float
    stddev: float
    target: float

    def to_json_dict(self) -> dict:
        return {
            "kind": self.model.kind,
            "n": self.model.n,
            "q": float(self.model.q) if self.model.q is not None else None,
            "m": self.model.m,
            "samples": self.samples,
            "mean": self.mean,
            "stddev": self.stddev,
            "target": self.target,
        }


def child_seed(seed: int, index: int) -> int:
    # keep the full master seed and the index in disjoint bit ranges
    return seed * (1 << 32) + index


def _ratio_at(model: ModelSpec, seed: int, index: int) -> Fraction:
    g = sample(model, child_seed(seed, index))
    r = dp_ratio(g)
    if r > Fraction(1, 2):
        raise CounterexampleError(
            f"derangement/permutation ratio {r} exceeds 1/2 on a sampled graph "
            f"(kind={model.kind}, n={model.n}, seed={seed}, index={index})"
        )
    return r


def ratio_target(q: Fraction) -> float:
    """Large-n heuristic for the dense model: missing diagonal slots each cost
    a factor about e^(-1/q) relative to allowing fixed points."""
    if q == 0:
        return 0.0
    return exp(-1 / float(q))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int) -> list[R]:
    """[fn(x) for x in items], in order, fanned out to at most `threads` worker
    processes, and to no more than the CPUs this process may use. Items go out
    in at most 4 * workers chunks, so no worker waits long on a slow last chunk,
    and no more workers start than there are chunks. fn and the items must pickle."""
    threads = min(threads, _usable_cpus())
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    step = -(-len(items) // (4 * threads))
    workers = min(threads, -(-len(items) // step))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=step))


def mc_dp_ratio(model: ModelSpec, samples: int, seed: int, threads: int = 1) -> McSummary:
    """Sample dp ratios; every sample is also asserted against the 1/2 bound."""
    if samples < 1:
        raise BadParamsError(f"need at least one sample, got {samples}")
    ratios = parallel_map(partial(_ratio_at, model, seed), range(samples), threads)
    floats = [float(r) for r in ratios]
    mean = fmean(floats)
    spread = stdev(floats) if len(floats) > 1 else 0.0
    target = ratio_target(model.q) if model.q is not None else 0.0
    return McSummary(model, samples, mean, spread, target)

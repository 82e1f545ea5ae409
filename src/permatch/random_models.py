"""Random graph models, sampling, exact first-moment formulas, and the worker pool.

Sampling is deterministic given (model, seed): arc slots are visited in
row-major order and each Bernoulli draw consumes exactly one 53-bit word, so
adding features cannot silently shift the stream. ``sample_rows`` draws a
whole block of seeds as adjacency rows in numpy; it is the one sampler.
Sampled runs (``mc`` and the sampled scan, both in :mod:`permatch.verify`)
derive one child seed per sample index, which makes them chunkable across
``parallel_map``'s workers without changing the output: each worker draws
and counts a whole chunk of indices in one call.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import BadParamsError, TooLargeError
from .graphs import check_vertex_count

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
    """G(n, q) or D(n, q): each edge or arc present independently with probability q."""

    kind: str
    n: int
    q: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise BadParamsError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        check_vertex_count(self.n)  # before sample_rows draws n(n-1) words for a graph the graph types refuse
        object.__setattr__(self, "q", _as_probability(self.q))


def sample_rows(model: ModelSpec, seeds: Sequence[int]) -> np.ndarray:
    """The adjacency rows (seeds x n, uint64) of one draw of the model per seed.

    A draw reads its slots (arcs, or edges i < j) in row-major order from one
    getrandbits(64 * slots) call: each slot takes one 64-bit word w, two 32-bit
    outputs of the generator, of which getrandbits(53) would keep the first (the
    low half of w) whole and the top 21 bits of the second: the 53-bit draw
    (w & 0xFFFFFFFF) | (w >> 43) << 32. A slot is present when its draw is below
    ceil(q * 2^53), as draw * den < num * 2^53 says, exact in uint64."""
    n, q, directed = model.n, model.q, model.kind == "digraph"
    heads, tails = np.nonzero(~np.eye(n, dtype=bool)) if directed else np.triu_indices(n, 1)
    slots = len(heads)
    stream = b"".join(random.Random(seed).getrandbits(64 * slots).to_bytes(8 * slots, "little") for seed in seeds)
    words = np.frombuffer(stream, dtype="<u8").reshape(len(seeds), slots)
    present = (words & 0xFFFFFFFF | words >> 43 << 32) < -(-(q.numerator << 53) // q.denominator)
    adjacency = np.zeros((len(seeds), n, 64), dtype=bool)  # 64 columns pack into one uint64 per row
    adjacency[:, heads, tails] = present
    if not directed:
        adjacency[:, tails, heads] = present
    return np.packbits(adjacency, axis=2, bitorder="little").view("<u8")[:, :, 0]


# ---------------------------------------------------------------------------
# exact expectations in the fixed-arc-count model


def _derangement_numbers(n: int) -> list[int]:
    """d(0), d(1), ... up to at least d(n), by d(t) = (t-1) (d(t-1) + d(t-2))."""
    d = [1, 0]
    for t in range(2, n + 1):
        d.append((t - 1) * (d[-1] + d[-2]))
    return d


def expected_counts(n: int, m: int) -> tuple[Fraction, Fraction]:
    """(E[derangements], E[permutations]) for a uniform m-arc digraph on n vertices.

    A permutation moving exactly t vertices needs its t cycle arcs present, so
    linearity gives E[p] = sum_t C(n, t) d(t) P(t) and E[d] = d(n) P(n), with
    P(t + 1) = P(t) (m - t) / (slots - t) the inclusion probability, 0 past m.
    """
    if type(n) is not int or n < 1:  # bool is no size
        raise BadParamsError(f"model needs a positive vertex count, got {n!r}")
    slots = n * (n - 1)
    if type(m) is not int:  # bool is no count
        raise BadParamsError(f"arc count must be an integer, got {m!r}")
    if not 0 <= m <= slots:
        raise BadParamsError(f"arc count must lie in [0, {slots}], got {m}")
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


def child_seed(seed: int, index: int) -> int:
    # keep the full master seed and the index in disjoint bit ranges; random.Random seeds by
    # the absolute value of an int, so a negative seed would repeat a positive seed's draws
    if type(seed) is not int or seed < 0:  # a bool or a float is no seed
        raise BadParamsError(f"seed must be a non-negative integer, got {seed!r}")
    return seed * (1 << 32) + index


def ratio_target(q: Fraction) -> float:
    """Large-n heuristic for the dense model: missing diagonal slots each cost
    a factor about e^(-1/q) relative to allowing fixed points."""
    if q == 0:
        return 0.0
    return exp(-1 / float(q))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def parallel_map(fn: Callable[[Sequence[T]], Sequence[R]], items: Sequence[T], threads: int) -> list[R]:
    """The concatenated results of fn over chunks of items, in order: fn takes a
    slice of items and returns one result per item. The chunks fan out to at
    most `threads` worker processes, and to no more than the CPUs this process
    may use; with one worker, fn takes every item in one call. Otherwise items
    go out in at most 4 * workers chunks, so no worker waits long on a slow last
    chunk, and no more workers start than there are chunks. fn and the item
    slices must pickle."""
    threads = min(threads, _usable_cpus())
    if threads <= 1 or len(items) <= 1:
        return list(fn(items))
    step = -(-len(items) // (4 * threads))
    chunks = [items[i : i + step] for i in range(0, len(items), step)]
    with ProcessPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
        return [result for part in pool.map(fn, chunks) for result in part]

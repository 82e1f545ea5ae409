"""Random graph models, sampling, exact first-moment formulas, and the fork-join fan-out.

Sampling is deterministic given (model, seed): arc slots are visited in
row-major order and each Bernoulli draw consumes exactly one 53-bit word, so
adding features cannot silently shift the stream. ``sample_rows`` draws a
whole block of seeds as adjacency rows in numpy; it is the one sampler.
Sampled runs (``mc`` and the sampled scan, both in :mod:`permatch.verify`)
derive one child seed per sample index, which makes them splittable across
``parallel_map``'s workers without changing the output: the caller and each
forked child draw and count one contiguous share of indices in one call.
numpy (``np`` from :mod:`permatch._lazy`) loads at the first draw, not at import.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp
from typing import Callable, NoReturn, Sequence, TypeVar

from ._lazy import np
from .errors import BadParamsError
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
    if type(n) is not int or not 1 <= n <= EXPECT_LIMIT:  # bool is no size
        raise BadParamsError(f"expected counts need a vertex count in [1, {EXPECT_LIMIT}], got {n!r}")
    slots = n * (n - 1)
    if type(m) is not int:  # bool is no count
        raise BadParamsError(f"arc count must be an integer, got {m!r}")
    if not 0 <= m <= slots:
        raise BadParamsError(f"arc count must lie in [0, {slots}], got {m}")
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


def _run_share(fn: Callable[[Sequence[T]], Sequence[R]], share: Sequence[T], write: int) -> NoReturn:
    """A forked child's whole life: fn's results over its share, or the exception fn raised, pickled into its pipe,
    then os._exit whatever happens, so it never returns into the caller's stack, flushes the caller's stdio buffers
    or runs its atexit hooks. It exits 0 only once its whole payload is written."""
    code = 1
    try:
        try:
            payload = pickle.dumps(list(fn(share)))
        except BaseException as exc:  # an interrupt too: the caller raises it again
            payload = pickle.dumps(exc)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def parallel_map(fn: Callable[[Sequence[T]], Sequence[R]], items: Sequence[T], threads: int) -> list[R]:
    """The concatenated results of fn over contiguous shares of items, in order: fn takes a slice of items and
    returns one result per item. One fork-join over w = min(threads, usable CPUs, len(items)) workers: the caller
    counts the first of w near-equal shares while w - 1 children forked with os.fork count the rest, then reads
    each child's pipe in share order and reaps the child, so its CPU time lands in RUSAGE_CHILDREN. With one
    worker, or no os.fork, fn takes every item in one call. A child's exception is raised again here, and a child
    that ends without a result raises ChildProcessError; whenever the caller raises, it kills and reaps its
    children. fork copies only the calling thread, so the caller must not share fn's locks with other threads."""
    workers = min(threads, _usable_cpus(), len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return list(fn(items))
    bounds = [len(items) * k // workers for k in range(workers + 1)]
    shares = [items[start:stop] for start, stop in zip(bounds, bounds[1:])]
    pipes, running = [], []  # read ends in share order; children not yet reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, share, write)
            finally:
                os.close(write)  # with no write end left here, a pipe reads to its end once its child exits
            running.append(pid)
        out = list(fn(shares[0]))
        for pipe, pid in zip(pipes, list(running)):
            payload = pipe.read()  # to its end before the wait: a share's results can pass the pipe's buffer
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if code:
                ending = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise ChildProcessError(f"worker process {pid} ended without a result ({ending})")
            result = pickle.loads(payload)  # bytes a child of this call wrote
            if isinstance(result, BaseException):
                raise result
            out += result
        return out
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        for pid in running:
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()

"""Layer tracer for the benchmark's traced pass.

A layer is one module of ``src/permatch``. ``Tracer.install()`` wraps every
public function of each layer, and every public method (plus
``__post_init__``) of the classes a layer defines, at every binding that the
``permatch`` modules look up: ``permatch.counting.permanent_zero_one`` is
replaced as well as ``permatch.permanent.permanent_zero_one``, so internal
calls are seen. ``uninstall()`` puts the originals back.

Each call is one span: id, parent span, name, start and end. Spans nest, and
a span's self time is its duration minus the time its child spans cover. A
function that returns a lazy iterator gets one span for the call and one more
for every ``next()``, so the time spent producing items is charged to the
enumerator, not to whoever consumes it. Permanent-layer spans are named by
size band as well (``permanent.permanent_zero_one[n7_14]``). The spans of the
current unit of work stay in memory until ``write()`` saves them.

Per-element helpers (``bits_of``, ``has_arc``, ``has_edge``) are left
unwrapped: they run once per bit inside every loop, and timing them would
make the trace measure itself. Their time counts as self time of the caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from collections.abc import Iterator
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "verify", "counting", "permanent", "graphs", "injection", "random_models")
UNWRAPPED = frozenset({"bits_of", "has_arc", "has_edge"})
# Kernels whose first argument is the matrix; they define permanent.calls and
# permanent.subset_adds. Other permanent-layer functions only add self time.
KERNELS = frozenset({"permanent_zero_one", "permanent_ryser", "permanent_naive"})
BANDS = (("n_le6", 6), ("n7_14", 14), ("n15_20", None))


def band_of(n: int) -> str:
    for name, top in BANDS:
        if top is None or n <= top:
            return name
    raise AssertionError("unreachable")


def matrix_size(rows) -> tuple[int, int]:
    """(n, nonzero entries) of a matrix given as bitmask rows or as row sequences."""
    rows = list(rows)
    nnz = sum(r.bit_count() if isinstance(r, int) else sum(1 for x in r if x) for r in rows)
    return len(rows), nnz


class Tracer:
    def __init__(self) -> None:
        self.keys: list[str] = []  # span name by index
        self._index: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, start, child time, name index]
        self._next_id = 0
        self.reset_unit()

    def reset_unit(self) -> None:
        """Start a new unit of work: zero the aggregates and drop the stored spans."""
        k = len(self.keys)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.incl_s = [0.0] * k
        self.counters: Counter[str] = Counter()
        self.spans = array("d")  # flat (id, parent, name index, start, end) records

    def _register(self, key: str) -> int:
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self.keys)
            self.keys.append(key)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return idx

    # -- spans -----------------------------------------------------------------

    def _open(self, idx: int) -> None:
        self._stack.append([self._next_id, perf_counter(), 0.0, idx])
        self._next_id += 1

    def _close(self) -> None:
        t1 = perf_counter()
        sid, t0, child, idx = self._stack.pop()
        dur = t1 - t0
        self.self_s[idx] += dur - child
        self.incl_s[idx] += dur
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[0]
        self.spans.extend((sid, parent, idx, t0, t1))

    def _timed_iter(self, it: Iterator, idx: int, layer: str):
        items = layer + ".items"
        try:
            while True:
                self._open(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close()
                self.counters[items] += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def _wrap(self, layer: str, qualname: str, fn):
        tracer = self
        key = f"{layer}.{qualname}"
        banded = layer == "permanent"
        kernel = banded and qualname in KERNELS
        if banded:
            band_idx = {name: self._register(f"{key}[{name}]") for name, _ in BANDS}
        else:
            plain_idx = self._register(key)

        def wrapper(*args, **kwargs):
            if banded:
                first = args[0] if args else 0
                if isinstance(first, int):
                    n = first
                else:
                    n, nnz = matrix_size(first)
                    if kernel:
                        tracer.counters["permanent.subset_adds"] += nnz << max(n - 1, 0)
                idx = band_idx[band_of(n)]
            else:
                idx = plain_idx
            tracer.calls[idx] += 1
            tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counters[f"{key}!{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close()
            if isinstance(result, Iterator):
                return tracer._timed_iter(result, idx, layer)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installing ------------------------------------------------------------

    def _targets(self):
        """(layer, qualified name, owner class or None, attribute, function)."""
        for layer in LAYERS:
            mod = importlib.import_module(f"permatch.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in UNWRAPPED or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield layer, attr, None, attr, obj
                elif inspect.isclass(obj):
                    for mattr, mobj in vars(obj).items():
                        if mattr in UNWRAPPED or (mattr.startswith("_") and mattr != "__post_init__"):
                            continue
                        if inspect.isfunction(mobj):
                            yield layer, f"{attr}.{mattr}", obj, mattr, mobj

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name == "permatch" or name.startswith("permatch.")]
        for layer, qualname, owner, attr, fn in list(self._targets()):
            wrapped = self._wrap(layer, qualname, fn)
            if owner is not None:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results of the current unit -------------------------------------------

    def by_key(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, self seconds, inclusive seconds)."""
        return {k: (self.calls[i], self.self_s[i], self.incl_s[i]) for i, k in enumerate(self.keys)}

    def layer_totals(self, layer: str) -> tuple[int, float]:
        """(calls, self seconds) summed over the layer's spans."""
        prefix = layer + "."
        rows = [v for k, v in self.by_key().items() if k.startswith(prefix)]
        return sum(r[0] for r in rows), sum(r[1] for r in rows)

    @property
    def span_count(self) -> int:
        return len(self.spans) // 5

    def write(self, path: Path) -> None:
        """Save the stored spans: a JSON header with the span names, then one
        line per span with id, parent id (-1 at the top), name index, and start
        and end in nanoseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        s = self.spans
        origin = min(s[3::5], default=0.0)
        with path.open("w") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "name", "start_ns", "end_ns"], "names": self.keys}) + "\n")
            for k in range(0, len(s), 5):
                fh.write(
                    f"{int(s[k])} {int(s[k + 1])} {int(s[k + 2])} "
                    f"{round((s[k + 3] - origin) * 1e9)} {round((s[k + 4] - origin) * 1e9)}\n"
                )

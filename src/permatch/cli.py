"""Command line front end.

Exit codes: 0 success (or: the checked statement holds); 1 the checked
statement failed on the instance, or a permutation fell outside the image of
the cycle-breaking map; 2 usage or parameter errors; 3 missing, unreadable,
or malformed input files. Under --json an error exit writes one JSON line to
stderr (schemas/error.schema.json) in place of the plain message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import counting, verify
from .errors import (
    BadParamsError,
    CounterexampleError,
    GraphSyntaxError,
    NotInImageError,
    PermatchError,
)
from .graphs import (
    _CONSTRUCTIONS,
    BipartiteGraph,
    Digraph,
    as_digraph,
    lonely_matching_ring,
    parse_graph,
    serialize_graph,
)
from .injection import apply_injection, invert_injection
from .random_models import ModelSpec, expected_counts
from .verify import format_12sig, format_ratio, mc_dp_ratio

_Result = tuple[int, dict | None, str | None]  # exit code, JSON document, plain text; main prints one


def _load_graph(path: str) -> Digraph | BipartiteGraph:
    try:
        return parse_graph(Path(path).read_text())
    except (PermatchError, UnicodeDecodeError) as exc:
        # bad vertex ids, undecodable bytes and the like are still a malformed file
        raise GraphSyntaxError(f"{path}: {exc}") from None


def _fraction_doc(x: Fraction) -> dict:
    return {"numerator": x.numerator, "denominator": x.denominator, "value": format_12sig(x)}


def _threads(args: argparse.Namespace) -> int:
    """--threads, else PERMATCH_THREADS, else 1; either source must be a positive integer."""
    source, value = "--threads", args.threads
    if value is None:
        source, value = "PERMATCH_THREADS", os.environ.get("PERMATCH_THREADS", "1")
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise BadParamsError(f"{source} must be a positive integer, got {value!r}")
    return threads


# ---------------------------------------------------------------------------
# count


def _cmd_count(args: argparse.Namespace) -> _Result:
    g = _load_graph(args.input)
    what = args.what
    if what == "matchings":
        if isinstance(g, BipartiteGraph):
            value, n = counting.count_perfect_matchings(g), g.nl + g.nr
        else:  # refuses a digraph, which has no matchings to count
            value, n = counting.count_perfect_matchings_general(g), g.n
        return 0, {"what": what, "n": n, "value": value}, str(value)
    if isinstance(g, BipartiteGraph):
        g = g.to_graph()  # permutations of a bipartite graph live on the flattened vertex set
    if what in ("derangements", "permutations"):
        fn = counting.count_derangements if what == "derangements" else counting.count_permutations
        value = fn(g)
        return 0, {"what": what, "n": g.n, "value": value}, str(value)
    if what == "ratio":
        r = counting.dp_ratio(g)
        return 0, {"what": what, "n": g.n, **_fraction_doc(r)}, f"{format_ratio(r)} ({format_12sig(r)})"
    profile = counting.permutations_by_fixed_points(g)  # fixed-points
    return 0, {"what": what, "n": g.n, "counts": list(profile)}, ",".join(str(c) for c in profile)


# ---------------------------------------------------------------------------
# construct


def _cmd_construct(args: argparse.Namespace) -> _Result:
    kind = args.kind
    names, build = _CONSTRUCTIONS[kind]
    params = [getattr(args, name) for name in names]
    if None in params:
        raise BadParamsError(f"{kind} needs " + " and ".join(f"--{name}" for name in names))
    g = build(*params)
    fmt = "json" if args.out.endswith(".json") else "text"
    Path(args.out).write_text(serialize_graph(g, fmt))
    if kind != "thm2h":
        return 0, None, None
    _, m0 = lonely_matching_ring(args.n)
    return 0, None, "m0: " + " ".join(f"{a}-{b}" for a, b in m0)


# ---------------------------------------------------------------------------
# inject


def _cmd_inject(args: argparse.Namespace) -> _Result:
    g = _load_graph(args.input)
    sigma = counting.parse_permutation(args.perm)  # both directions check it on g, and refuse a bipartite g
    direction = "invert" if args.invert else "apply"
    result = (invert_injection if args.invert else apply_injection)(g, sigma, args.vertex)
    text = counting.format_permutation(result)
    doc = {"vertex": args.vertex, "direction": direction, "input": counting.format_permutation(sigma)}
    return 0, {**doc, "result": text}, text


# ---------------------------------------------------------------------------
# verify


def _flattened(check):
    """check on the input, a bipartite one read as its flattened graph."""
    return lambda g: check(g.to_graph() if isinstance(g, BipartiteGraph) else g)


# token -> (the options its check reads, in the order it takes them; the check). verify refuses any
# other option, and each check refuses a graph type it has no statement for
_VERIFY = {
    "1": (("input",), verify.check_half_hitting),
    "2": (("input",), verify.check_matching_lower_bound),
    "3": (("input",), _flattened(verify.check_ratio_half)),
    "6": (("input",), verify.check_bipartite_extremal),
    # exhaustive through 5 vertices, the first 200 derangements above that
    "injection": (("input",), lambda g: verify.check_injection(g, None if as_digraph(g).n <= 5 else 200)),
    "blowup": (("k", "l"), verify.check_blowup_formulas),
    "subpermanent": (("input",), verify.check_subpermanent),
    "corollary": (("input",), _flattened(verify.check_cycle_doubling)),
}


def _flags(names) -> str:
    return " and ".join(f"--{name}" for name in names)


def _cmd_verify(args: argparse.Namespace) -> _Result:
    token = args.theorem
    reads, check = _VERIFY[token]
    unread = [name for name in ("input", "k", "l") if name not in reads and getattr(args, name) is not None]
    if unread:
        raise BadParamsError(f"verify --theorem {token} reads only {_flags(reads)}; drop {_flags(unread)}")
    if any(getattr(args, name) is None for name in reads):
        raise BadParamsError(f"verify --theorem {token} needs {_flags(reads)}")
    report = check(*(_load_graph(args.input) if name == "input" else getattr(args, name) for name in reads))
    verdict = "HOLDS" if report.holds else "FAILS"
    lines = [f"{report.name}: {verdict} on {report.instance}"]
    lines += [f"  {key}: {val}" for key, val in report.details.items()]
    return (0 if report.holds else 1), report.to_json_dict(), "\n".join(lines)


# ---------------------------------------------------------------------------
# scan / mc / expect


def _cmd_scan(args: argparse.Namespace) -> _Result:
    summary = verify.scan(args.family, args.n, args.samples, args.q, args.seed, args.out, _threads(args))
    return (1 if summary["counterexamples"] else 0), summary, None


def _cmd_mc(args: argparse.Namespace) -> _Result:
    model = ModelSpec(args.model, args.n, q=args.q)
    doc = mc_dp_ratio(model, args.samples, args.seed, threads=_threads(args))
    text = (
        f"samples={doc['samples']} mean={doc['mean']:.6f} "
        f"stddev={doc['stddev']:.6f} target={doc['target']:.6f}"
    )
    return 0, doc, text


def _cmd_expect(args: argparse.Namespace) -> _Result:
    ex, ey = expected_counts(args.n, args.m)
    doc = {"n": args.n, "m": args.m}
    doc |= {"expected_derangements": _fraction_doc(ex), "expected_permutations": _fraction_doc(ey)}
    text = (
        f"expected derangements: {format_ratio(ex)} ({format_12sig(ex)})\n"
        f"expected permutations: {format_ratio(ey)} ({format_12sig(ey)})"
    )
    return 0, doc, text


# ---------------------------------------------------------------------------


@cache  # built once per process; each parse_args still returns a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permatch",
        description="Exact counting of derangements, permutations, and perfect matchings on small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count structures on a graph from a file")
    p.add_argument("--input", required=True, help="graph file (text or JSON)")
    p.add_argument(
        "--what",
        required=True,
        choices=["derangements", "permutations", "matchings", "ratio", "fixed-points"],
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("construct", help="write a named graph to a file")
    p.add_argument("--kind", required=True, choices=list(_CONSTRUCTIONS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--out", required=True, help=".json suffix selects the JSON format")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("inject", help="apply or invert the cycle-breaking map")
    p.add_argument("--input", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--perm", required=True, help='image list, e.g. "1,2,0"')
    p.add_argument("--invert", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("verify", help="check one of the counting statements on an instance")
    p.add_argument("--theorem", required=True, choices=list(_VERIFY))
    p.add_argument("--input")
    p.add_argument("--k", type=int, help="blowup width")
    p.add_argument("--l", type=int, help="blowup cycle length")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="sweep a graph family and write one record per graph")
    p.add_argument("--family", required=True, choices=list(verify.FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, help="sampled family only")
    p.add_argument("--q", help='sampled family only; defaults to "1/2"')
    p.add_argument("--seed", type=int, help="sampled family only; defaults to 0")
    p.add_argument("--out", required=True, help=".csv or .jsonl")
    p.add_argument("--threads", type=int, default=None, help="defaults to PERMATCH_THREADS or 1")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("mc", help="Monte Carlo derangement/permutation ratios on random graphs")
    p.add_argument("--model", required=True, choices=["graph", "digraph"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True, help='arc probability, e.g. "0.5" or "1/2"')
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None, help="defaults to PERMATCH_THREADS or 1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("expect", help="exact expected counts in the uniform fixed-arc model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_expect)

    return parser


# (exception class, plain stderr prefix, exit code): the first match wins
_ERROR_EXITS = (
    (CounterexampleError, "counterexample", 1),
    (NotInImageError, "not in image", 1),
    (GraphSyntaxError, "error", 3),
    (OSError, "error", 3),
    (PermatchError, "error", 2),
)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, doc, text = args.func(args)
        if doc is not None and (text is None or getattr(args, "json", False)):
            print(json.dumps(doc, indent=2))
        elif text is not None:
            print(text)
        return code
    except (PermatchError, OSError) as exc:
        prefix, code = next((prefix, code) for cls, prefix, code in _ERROR_EXITS if isinstance(exc, cls))
        if getattr(args, "json", False):  # one line matching schemas/error.schema.json
            line = json.dumps({"error": type(exc).__name__, "message": str(exc), "exit": code})
        else:
            line = f"{prefix}: {exc}"
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

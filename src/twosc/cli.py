"""Command-line interface.

Graphs travel as graph6 on stdin/stdout so the tool composes with
external generators; structured results are JSON documents.  Exit status
0 means success, 1 means a property verdict came back false (a non
2-self-centered input to `check`, counterexamples from `verify`, a
`reduce` that found no order of valid steps), and 2 means bad input or
usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .core import Graph, GraphError
from .enumeration import GENERATOR_MAX, connected_classes
from .gcb import (
    GcbSpec,
    build_gcb,
    decompose_triangle_free,
    sample_gcb_spec,
)
from .io import dot_encode, graph6_decode, graph6_encode, read_graph6
from .harness import FULL_BATTERY_MAX, render_table, verify_all
from .recognition import (
    critical_triples,
    is_edge_maximal,
    is_edge_minimal,
    is_two_self_centered,
)
from .reduction import reduce_to_triangle_free


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twosc",
        description="Analyze, certify and exhaustively verify 2-self-centered graphs.",
        epilog=(
            "examples:  twosc check Cl        |  twosc enumerate --n-max 5 | twosc check\n"
            "           twosc decompose EhCG  |  twosc decompose EhCG | twosc build\n"
            "           twosc verify --n-max 6 --format table"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...], graphs: bool = True) -> None:
        if graphs:
            p.add_argument("graph6", nargs="*", help="inline graph6 records (default: stdin)")
        p.add_argument("--input", help="read from this file instead of stdin")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("check", help="2-self-centered verdict plus maximal/minimal certificates")
    add_common(p, ("table", "json"))

    p = sub.add_parser("decompose", help="decompose one triangle-free 2-self-centered graph")
    add_common(p, ("json",))

    p = sub.add_parser("build", help="build a graph from a spec document (JSON on stdin or --input)")
    p.add_argument("--input", help="spec document file (default: stdin)")
    p.add_argument("--format", choices=("graph6", "dot"), default="graph6")

    p = sub.add_parser("reduce", help="iterate the star procedure on one graph")
    add_common(p, ("json",))

    p = sub.add_parser("sample", help="random valid construction from a seed")
    p.add_argument("--n-max", type=int, default=10, help="total vertex budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("graph6", "dot", "json"), default="graph6")

    p = sub.add_parser("enumerate", help="stream all connected graphs on n vertices")
    p.add_argument("--n-max", type=int, required=True, help=f"vertex count (1..{GENERATOR_MAX})")
    p.add_argument("--format", choices=("graph6", "dot"), default="graph6")

    p = sub.add_parser("verify", help="run the whole theorem battery")
    p.add_argument("--n-max", type=int, default=FULL_BATTERY_MAX)
    p.add_argument("--input", help="verify graphs from this graph6 file instead of the generator")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--workers", type=int, default=1, help="worker processes, capped at the usable CPUs")
    return parser


def _input_graphs(args: argparse.Namespace) -> list[Graph]:
    if getattr(args, "graph6", None):
        return [graph6_decode(s) for s in args.graph6]
    if args.input:
        with open(args.input, "r", encoding="ascii") as handle:
            return list(read_graph6(handle))
    return list(read_graph6(sys.stdin))


def _single_graph(args: argparse.Namespace) -> Graph:
    graphs = _input_graphs(args)
    if len(graphs) != 1:
        raise GraphError(f"expected exactly one graph, got {len(graphs)}")
    return graphs[0]


def _cmd_check(args: argparse.Namespace) -> int:
    graphs = _input_graphs(args)
    records = []
    all_ok = True
    for g in graphs:
        verdict = is_two_self_centered(g)
        record: dict = {"graph6": graph6_encode(g), "n": g.n, "verdict": verdict.to_json()}
        if verdict.is_2sc:
            record["edge_maximal"] = is_edge_maximal(g).to_json()
            record["edge_minimal"] = is_edge_minimal(g).to_json()
            record["critical_triples"] = [t.to_json() for t in critical_triples(g)]
        else:
            all_ok = False
        records.append(record)
    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        for rec in records:
            if rec["verdict"]["is_2sc"]:
                flags = []
                flags.append("edge-maximal" if rec["edge_maximal"]["maximal"] else "not edge-maximal")
                flags.append("edge-minimal" if rec["edge_minimal"]["minimal"] else "not edge-minimal")
                print(f"{rec['graph6']}: 2-self-centered; {'; '.join(flags)}; "
                      f"{len(rec['critical_triples'])} critical triple(s)")
            else:
                v = rec["verdict"]
                why = []
                if v["violating_vertex"] is not None:
                    why.append(f"vertex {v['violating_vertex']} has degree out of range")
                if v["violating_pair"]:
                    why.append(f"pair {tuple(v['violating_pair'])} has no common neighbor")
                print(f"{rec['graph6']}: not 2-self-centered ({'; '.join(why) or 'empty graph'})")
    return 0 if all_ok else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _single_graph(args)
    spec, roles = decompose_triangle_free(g)
    doc = spec.to_json()
    doc["roles"] = roles.to_json()
    doc["graph6"] = graph6_encode(g)
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    if args.input:
        with open(args.input, "r", encoding="ascii") as handle:
            doc = json.load(handle)
    else:
        doc = json.load(sys.stdin)
    spec = GcbSpec.from_json(doc)
    g = build_gcb(spec)
    print(graph6_encode(g) if args.format == "graph6" else dot_encode(g), end="" if args.format == "dot" else "\n")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _single_graph(args)
    trace = reduce_to_triangle_free(g)
    print(json.dumps(trace.to_json(), indent=2))
    return 0 if trace.succeeded else 1


def _cmd_sample(args: argparse.Namespace) -> int:
    spec = sample_gcb_spec(args.n_max, args.seed)
    g = build_gcb(spec)
    if args.format == "json":
        print(json.dumps({"spec": spec.to_json(), "graph6": graph6_encode(g)}, indent=2))
    elif args.format == "dot":
        print(dot_encode(g), end="")
    else:
        print(graph6_encode(g))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for g in connected_classes(args.n_max):
        if args.format == "dot":
            print(dot_encode(g), end="")
        else:
            print(graph6_encode(g))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.input:
        result = verify_all(args.n_max, source="file", path=args.input, workers=args.workers)
    else:
        result = verify_all(args.n_max, workers=args.workers)
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(render_table(result))
    return 0 if result.counterexample_total() == 0 else 1


_COMMANDS = {
    "check": _cmd_check,
    "decompose": _cmd_decompose,
    "build": _cmd_build,
    "reduce": _cmd_reduce,
    "sample": _cmd_sample,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GraphError, json.JSONDecodeError, KeyError, OSError, ValueError) as exc:
        print(f"twosc {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

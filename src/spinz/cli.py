"""Command-line front door.

Subcommands: compute, bound, listhom, ising, blowup, search.  Every
report is a single JSON document on standard output (or at --out).
Exit status contract: 0 success / bound HOLDS, 2 input or precondition
error, 3 bound VIOLATED, 4 bound INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bounds as bounds_mod
from .blowup import concentration_experiment
from .counting import (
    DEFAULT_BUDGET,
    ListAssignment,
    count_list_homs,
    parse_cover_family,
    parse_lists,
    partition_function,
)
from .graphs import Graph, parse_graph
from .harness import parse_campaign_config, run_campaign
from .util import dump_json, parse_fields
from .values import Backend
from .weights import WeightSystem, parse_weights

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATED = 3
EXIT_INCONCLUSIVE = 4

_VERDICT_EXITS = {
    "HOLDS": EXIT_OK,
    "VIOLATED": EXIT_VIOLATED,
    "INCONCLUSIVE": EXIT_INCONCLUSIVE,
}


class CliError(Exception):
    pass


def _read_file(path: str, kind: str) -> str:
    p = Path(path)
    if not p.exists():
        raise CliError(f"{kind} file not found: {path}")
    return p.read_text()


def _load_graph(path: str) -> Graph:
    return parse_graph(_read_file(path, "graph"))


def _load_weights(path: str, g: Graph) -> WeightSystem:
    return parse_weights(_read_file(path, "weights"), g)


def _load_lists(path: str | None, g: Graph, h: Graph) -> ListAssignment:
    return parse_lists(_read_file(path, "lists"), g, h) if path else ListAssignment.full(g, h)


def _emit(doc: dict, out: str | None) -> None:
    text = dump_json(doc)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=["exact", "log"], default="exact",
                        help="numeric backend for the weights (default exact)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="largest tensor, in cells, a computation may plan (default 10^8)")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinz",
        description="Exact partition functions of weighted spin systems and their "
        "complete-bipartite upper bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command's parser reports a flag it lacks (main), and its handler runs it
    p = sub.add_parser("compute", help="partition function of a graph + weight system")
    p.set_defaults(parser=p, handler=_cmd_compute)
    p.add_argument("graph")
    p.add_argument("weights")
    _add_backend(p)
    _add_common(p)

    p = sub.add_parser("bound", help="evaluate one named bound")
    p.set_defaults(parser=p, handler=_cmd_bound)
    p.add_argument("name", choices=list(bounds_mod.BOUND_NAMES))
    p.add_argument("graph")
    p.add_argument("--weights", help="weight file (thm3, conj1)")
    p.add_argument("--target", help="target graph file (thm4, thm5, conj2)")
    p.add_argument("--lists", help="list file (thm4, thm5, conj2); defaults to full lists")
    p.add_argument("--families", help="cover family file (thm5; default the neighbourhood family)")
    _add_backend(p)
    _add_common(p)

    p = sub.add_parser("listhom", help="count list homomorphisms")
    p.set_defaults(parser=p, handler=_cmd_listhom)
    p.add_argument("graph")
    p.add_argument("target")
    p.add_argument("--lists")
    _add_common(p)

    p = sub.add_parser("ising", help="free-energy sandwich check at zero field")
    p.set_defaults(parser=p, handler=_cmd_ising)
    p.add_argument("graph")
    p.add_argument("--beta", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("blowup", help="block blow-up concentration experiment")
    p.set_defaults(parser=p, handler=_cmd_blowup)
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("--scale", type=int, required=True, help="block scale C")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--spins", help="comma-separated configuration; default all spin 1")
    p.add_argument("--samples-out", help="write raw counts here, one per line")
    p.add_argument("--seed", type=int, default=0, help="random seed of the trials (default 0)")
    _add_common(p)

    p = sub.add_parser("search", help="run a campaign from a config file")
    p.set_defaults(parser=p, handler=_cmd_search)
    p.add_argument("config")  # holds the campaign's budget and seed
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    return parser


def _cmd_compute(args) -> int:
    g = _load_graph(args.graph)
    w = _load_weights(args.weights, g)
    if args.backend == "log":
        w = w.to_log()
    z = partition_function(g, w, args.budget)
    doc = {
        "command": "compute",
        "backend": z.backend.value,
        "n": g.n,
        "spins": w.m,
        "log_z": z.log(),
    }
    if z.backend is Backend.EXACT:
        frac = z.fraction
        doc["z"] = {"num": str(frac.numerator), "den": str(frac.denominator)}
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_bound(args) -> int:
    reads = bounds_mod.BOUND_INPUTS[args.name]
    unread = {"--weights": args.weights and reads != "weights",
              "--backend log": args.backend == "log" and reads != "weights",
              "--target": args.target and reads != "target",
              "--lists": args.lists and reads != "target",
              "--families": args.families and args.name != "thm5"}
    for flag, given in unread.items():
        if given:
            raise CliError(f"bound {args.name} does not read {flag}")
    g = _load_graph(args.graph)
    inputs = {}
    if reads == "weights":
        if not args.weights:
            raise CliError(f"bound {args.name} needs --weights")
        w = _load_weights(args.weights, g)
        inputs["weights"] = w.to_log() if args.backend == "log" else w
    elif reads == "target":
        if not args.target:
            raise CliError(f"bound {args.name} needs --target")
        h = inputs["target"] = _load_graph(args.target)
        inputs["lists"] = _load_lists(args.lists, g, h)
        if args.families:
            inputs["family"] = parse_cover_family(_read_file(args.families, "families"))
    report = bounds_mod.evaluate_bound(args.name, g, budget=args.budget, **inputs)
    _emit(report.to_json_dict(), args.out)
    return _VERDICT_EXITS[report.verdict.value]


def _cmd_listhom(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.target)
    count = count_list_homs(g, h, _load_lists(args.lists, g, h), args.budget)
    _emit({"command": "listhom", "count": count}, args.out)
    return EXIT_OK


def _cmd_ising(args) -> int:
    g = _load_graph(args.graph)
    report = bounds_mod.ising_free_energy_check(g, args.beta, args.budget)
    _emit(report.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_blowup(args) -> int:
    g = _load_graph(args.graph)
    w = _load_weights(args.weights, g)
    cfg = (1,) * g.n
    if args.spins:
        error = CliError(f"--spins takes comma-separated integers, got {args.spins!r}")
        cfg = tuple(parse_fields(args.spins.split(","), error))
    stats = concentration_experiment(
        g, w, cfg, args.scale, args.trials, args.seed, budget=args.budget
    )
    if args.samples_out:
        Path(args.samples_out).write_text(
            "".join(f"{x}\n" for x in stats.samples)
        )
    _emit(stats.to_json_dict(samples_path=args.samples_out), args.out)
    return EXIT_OK


def _cmd_search(args) -> int:
    cfg = parse_campaign_config(_read_file(args.config, "config"))
    report = run_campaign(cfg)
    _emit(report.to_json_dict(), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.handler(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

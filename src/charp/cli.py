"""Command-line front end.

Commands:
  invariants   local invariant vector of a symbol expression
  splits       three-valued splitting decision for one symbol
  frobenius    pushforward of a symbol down an inseparable chain
  bound        numeric bound for a scenario file
  decompose    constructive decomposition for a scenario file
  verify       replay a certificate file
  experiment   randomized harness from a config file (seed mandatory)

Exit codes: 0 success / decided, 2 unknown or not-found-within-bounds,
1 errors.  All randomness is funneled through the seed named in the
experiment config, so outputs are deterministic bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import towers as tw
from .bounds import Scenario, bound, scenario_from_json
from .certify import Certificate, verify_certificate
from .descent import DescentError, SearchConfig, frobenius_push
from .drivers import DriverError, decompose
from .experiment import ExperimentConfig, run_experiment
from .ffield import FiniteField
from .oracle import expr_invariants, is_split
from .textform import (format_elem, format_expr, format_invariant_vector,
                       format_symbol, invariant_vector_json, parse_expr,
                       parse_symbol, parse_tower)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2

GRAMMAR_HELP = """\
element grammar: integers, variable and generator names, + - * / ^ and
parentheses; constant-field elements are polynomials in the generator g,
e.g. (g+1)*t^2+g, so over GF(p^d), d > 1, no variable or generator may be
named g.  symbols: [a, b)_p with optional ^op; expressions join
symbols with *.  towers: GF(q)(t) ; AS i: i^2+i = 1/t ; ROOT s: s^2 = t,
Artin-Schreier (AS) and root (ROOT) steps of degree p."""


def _tower_from_args(args) -> tw.FieldTower:
    if args.tower:
        return parse_tower(args.tower)
    return tw.FieldTower(FiniteField(args.p, args.constant_degree), [args.var])


def cmd_invariants(args) -> int:
    tower = _tower_from_args(args)
    if args.expr_file:
        with open(args.expr_file) as handle:
            text = handle.read().strip()
    elif args.expr:
        text = args.expr
    else:
        raise ValueError("give an expression file or --expr")
    expr = parse_expr(text, tower, args.level)
    vector = expr_invariants(expr)
    if args.format == "json":
        print(json.dumps(invariant_vector_json(vector), sort_keys=True,
                         separators=(",", ":")))
    else:
        print(format_invariant_vector(vector))
    return EXIT_OK


def cmd_splits(args) -> int:
    tower = _tower_from_args(args)
    sym, is_op = parse_symbol(args.symbol, tower, args.level)
    del is_op  # splitting is invariant under taking the opposite algebra
    result = is_split(sym, strategy=args.strategy, degree_bound=args.bound)
    if result.status == "split":
        detail = result.reason
        if result.witness is not None and result.witness_tower is not None:
            detail += "; witness %s" % format_elem(result.witness)
        print("split: %s" % detail)
        return EXIT_OK
    if result.status == "nonsplit":
        print("nonsplit: %s" % result.reason)
        return EXIT_OK
    print("unknown: %s" % result.reason)
    return EXIT_UNKNOWN


def cmd_frobenius(args) -> int:
    tower = _tower_from_args(args)
    sym, _ = parse_symbol(args.symbol, tower, args.level)
    pushed = frobenius_push(sym, args.down)
    print(format_symbol(pushed))
    return EXIT_OK


def _load_scenario(path: str) -> Scenario:
    with open(path) as handle:
        return scenario_from_json(json.load(handle))


def cmd_bound(args) -> int:
    scenario = _load_scenario(args.scenario)
    report = bound(scenario)
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True, separators=(",", ":")))
    else:
        tag = " (conditional)" if report.conditional else ""
        print("%d via %s%s" % (report.value, report.rule, tag))
        for note in report.annotations:
            print("note: %s" % note)
    return EXIT_OK


def cmd_decompose(args) -> int:
    scenario = _load_scenario(args.scenario)
    cfg = SearchConfig(norm_bound=args.bound)
    result = decompose(scenario, cfg)
    if args.format == "json":
        print(json.dumps(result.to_json(), sort_keys=True, separators=(",", ":")))
    else:
        print("bound %d via %s; achieved %d"
              % (result.report.value, result.report.rule, result.achieved))
        print("expr: %s" % format_expr(result.expr))
        for label in result.labels:
            print("check [%s]: %s" % (label.method, label.claim))
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.certificate) as handle:
        cert = Certificate.from_json(handle.read())
    outcome = verify_certificate(cert)
    if outcome.accepted:
        print("accepted")
        return EXIT_OK
    kind = "malformed" if outcome.malformed else "rejected"
    where = "" if outcome.failed_step is None else " at step %d" % outcome.failed_step
    print("%s%s: %s" % (kind, where, outcome.reason))
    return EXIT_ERROR if outcome.malformed else EXIT_UNKNOWN


def cmd_experiment(args) -> int:
    with open(args.config) as handle:
        cfg = ExperimentConfig.from_json(json.load(handle))
    report = run_experiment(cfg)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(report.to_csv())
    else:
        sys.stdout.write(report.to_csv())
    print(report.to_json())
    summary = report.summary()
    if summary["failed"]:
        return EXIT_UNKNOWN
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charp",
        description="cyclic degree-p algebras over function fields of "
                    "characteristic p: invariants, splitting, descent, bounds",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_options(sp):
        sp.add_argument("--tower", help="tower description text")
        sp.add_argument("--p", type=int, default=2, help="characteristic")
        sp.add_argument("--constant-degree", type=int, default=1,
                        dest="constant_degree",
                        help="degree of the constant field over its prime field")
        sp.add_argument("--var", default="t", help="base variable name")
        sp.add_argument("--level", type=int, default=0, help="tower level")

    sp = sub.add_parser("invariants", help="invariant vector of an expression")
    add_field_options(sp)
    sp.add_argument("expr_file", nargs="?", help="file containing the expression")
    sp.add_argument("--expr", help="expression text given inline")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("splits", help="three-valued splitting decision")
    add_field_options(sp)
    sp.add_argument("symbol", help="a symbol, e.g. '[1, t)_2'")
    sp.add_argument("--strategy",
                    choices=("norm_search", "invariants", "both", "auto"),
                    default="both")
    sp.add_argument("--bound", type=int, default=4,
                    help="degree bound for norm searches")
    sp.set_defaults(func=cmd_splits)

    sp = sub.add_parser("frobenius", help="pushforward down an inseparable chain")
    add_field_options(sp)
    sp.add_argument("symbol")
    sp.add_argument("--down", type=int, required=True, help="target level")
    sp.set_defaults(func=cmd_frobenius)

    sp = sub.add_parser("bound", help="numeric bound for a scenario file")
    sp.add_argument("scenario")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("decompose", help="constructive decomposition")
    sp.add_argument("scenario")
    sp.add_argument("--bound", type=int, default=4)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("verify", help="replay a certificate file")
    sp.add_argument("certificate")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("experiment", help="randomized harness")
    sp.add_argument("config")
    sp.add_argument("--csv", help="write the CSV table to this path")
    sp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # parse, step, scenario, realization and JSON errors are ValueErrors;
    # an ArithmeticError comes from arithmetic in a degenerate tower
    except (ValueError, ArithmeticError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_ERROR
    except (DescentError, DriverError) as err:
        print("not completed: %s" % err, file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())

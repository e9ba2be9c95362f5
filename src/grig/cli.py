"""Command-line surface.

Element expressions follow the grammar of grig.elements.parse_element:
generator words juxtapose letters ("abab"), '*' multiplies, '^' conjugates
(y^-1 x y), '!' inverts, and catalog names (t, u, v, uu, x0, u3, ...) are
recognized.  Vertices are strings over 0/1.

Exit codes: 0 on success (verification suites: all checks passed), 1 when a
verification suite reports failures, 2 on usage errors (including a level
budget too small to certify a rank-gradient row).
"""

from __future__ import annotations

import argparse
import json
import sys

from grig import config, elements, permgroup, rigidity, suites


def _read_config(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def _apply_config(path):
    if not path:
        return
    values = _read_config(path)
    known = {"max_level"}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "max_level" in values:
        config.set_max_level(config.parse_level_limit(
            values["max_level"], "config key max_level"))


def _parse(expr):
    return elements.parse_element(expr)


def cmd_reduce(args):
    print(elements.reduce_word(args.word))
    return 0


def cmd_equal(args):
    print("true" if elements.equal_elements(_parse(args.left),
                                            _parse(args.right)) else "false")
    return 0


def cmd_act(args):
    print(elements.act(_parse(args.element), args.vertex))
    return 0


def cmd_sections(args):
    swap, g0, g1 = elements.first_level_decomposition(_parse(args.element))
    print(json.dumps({"swap": swap, "sections": [elements.to_text(g0),
                                                 elements.to_text(g1)]},
                     sort_keys=True))
    return 0


def cmd_portrait(args):
    p = elements.portrait(_parse(args.element), args.depth)
    payload = {
        "depth": p.depth,
        "activity": {v or "root": p.activity[v] for v in sorted(p.activity)},
        "boundary": {v or "root": elements.to_text(p.boundary[v])
                     for v in sorted(p.boundary)},
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_quotient(args):
    q = permgroup.level_quotient(args.level)
    if args.order or not args.table:
        print(q.order)
    if args.table:
        sys.stdout.write(permgroup.group_to_text(q, include_chain=args.chain))
    return 0


def cmd_rank(args):
    n = args.n
    witness = rigidity.rank_witness(args.subgroup, n, args.budget)
    print(json.dumps(witness.to_json(), sort_keys=True))
    return 0


def _emit_rows(rows, fmt):
    if fmt == "csv":
        sys.stdout.write(rigidity.rows_to_csv(rows))
    elif fmt == "json":
        print(rigidity.rows_to_json(rows))
    else:
        sys.stdout.write(rigidity.rows_to_markdown(rows))


def cmd_rg_table(args):
    rows = rigidity.rank_gradient_table(args.chain, args.max, args.budget)
    _emit_rows(rows, args.format)
    return 0


def cmd_rigidity_report(args):
    rows = rigidity.rank_gradient_table(args.chain, args.max, args.budget)
    admissible = [r for r in rows if r.admissible]
    report = rigidity.rigidity_report(admissible)
    print(json.dumps(report.to_json(), sort_keys=True))
    return 0


def cmd_verify(args):
    report = suites.run_suite(args.suite, max_m=args.max_m,
                              level=args.level, seed=args.seed)
    if report.all_pass:
        print(json.dumps({"suite": args.suite, "checks": len(report.entries),
                          "pass": True}, sort_keys=True))
        return 0
    print(json.dumps({"suite": args.suite, "pass": False,
                      "failures": [e.to_json() for e in report.failures]},
                     sort_keys=True))
    return 1


def cmd_probe(args):
    rows = rigidity.conjecture_probe(args.level, args.samples, args.seed)
    _emit_rows(rows, args.format)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grig",
        description="exact computations in the four-generator tree group")
    parser.add_argument("--config", help="key=value config file "
                        "(supported: max_level)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a generator word")
    p.add_argument("word")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("equal", help="decide equality of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("act", help="image of a vertex under an element")
    p.add_argument("element")
    p.add_argument("vertex")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("sections", help="first-level decomposition")
    p.add_argument("element")
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("portrait", help="activity/boundary portrait")
    p.add_argument("element")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("quotient", help="level quotient order and table")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--order", action="store_true")
    p.add_argument("--table", action="store_true")
    p.add_argument("--chain", action="store_true",
                   help="include base and strong generators in the table")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("rank", help="rank witness for a catalog subgroup")
    p.add_argument("--subgroup", required=True,
                   choices=["K", "B", "K1", "Kn", "R", "Q", "P"])
    p.add_argument("--n", type=int)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("rg-table", help="rank-gradient rows along a chain")
    p.add_argument("--chain", default="P", choices=["P", "st"])
    p.add_argument("--max", type=int, default=8)
    p.add_argument("--budget", type=int)
    p.add_argument("--format", default="csv", choices=["csv", "json", "md"])
    p.set_defaults(func=cmd_rg_table)

    p = sub.add_parser("rigidity-report",
                       help="double-log rigidity constant over a chain")
    p.add_argument("--chain", default="P", choices=["P", "st"])
    p.add_argument("--max", type=int, default=8)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_rigidity_report)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["conjugation", "branching", "orders",
                                     "ranks", "sandwich", "nilpotent-bound",
                                     "all"])
    p.add_argument("--max-m", dest="max_m", type=int, default=8)
    p.add_argument("--level", type=int, default=6)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe",
                       help="sample finite-index subgroups for rank/index "
                            "rows (uncertified; the subgroups are not "
                            "normal, so the rows do not test the theorem "
                            "on normal subgroups)")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--format", default="csv", choices=["csv", "json", "md"])
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args.config)
        return args.func(args)
    except (elements.ParseError, ValueError, config.LevelLimitError,
            rigidity.RankNotCertified) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

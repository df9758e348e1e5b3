"""Command-line front end.

    tfsam check FILE                 validate the type hierarchy
    tfsam compile FILE [--disasm]    compile a grammar, optionally list code
    tfsam unify FILE LEFT RIGHT      unify two terms over FILE's hierarchy
    tfsam parse FILE "w1 w2 ..."     parse an input string

Exit codes: 0 for success (including a FAIL unification result and "no
parse", which are answers), 1 for invalid input, 2 for I/O problems, 3
when a resource limit stops a parse.
"""

from __future__ import annotations

import argparse
import sys

from . import compiler, grammar, machine, parser, scan, terms


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (scan.SourceError, compiler.CompileError, ValueError,
            parser.UnknownWordError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except parser.LimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        # a safety net: every reader and builder walks from an explicit stack
        print("error: input nested too deeply", file=sys.stderr)
        return 1


def cmd_check(args) -> int:
    h = grammar.load_hierarchy_only(_read(args.path))
    print(f"{h.n_types} types, valid")
    return 0


def cmd_compile(args) -> int:
    g = grammar.load_grammar(_read(args.path))
    if args.disasm:
        print(compiler.disassemble(g.code))
    else:
        entries = sum(len(v) for v in g.lexicon.values())
        print(f"{len(g.code.instrs)} instructions, {len(g.rules)} rules, "
              f"{entries} lexical entries")
    return 0


def cmd_unify(args) -> int:
    h = grammar.load_hierarchy_only(_read(args.path))
    left = _term(h, "left", args.left)
    right = _term(h, "right", args.right)
    try:
        # the right term runs as program code, which has no instruction
        # for an unexpanded node
        code = compiler.compile_program(terms.flatten(right))
    except compiler.CompileError as e:
        raise ValueError(f"right term: {e}") from None
    m = machine.MachineState(h)
    regs = {}
    m.execute(compiler.compile_query(terms.flatten(left)), regs)
    try:
        m.execute(code, regs)
    except machine.UnifyFailure:
        print("FAIL")
    else:
        print(terms.print_term(m.extract(regs[1])))
    if args.dump_heap:
        print(m.dump())
    return 0


def cmd_parse(args) -> int:
    g = grammar.load_grammar(_read(args.path))
    p = parser.ChartParser(g, max_items=args.max_items)
    result = p.parse(args.input.split())
    for head in result.heads:
        print(terms.print_term(head))
    if not result.accepted:
        print("no parse")
    if args.chart:
        print(result.chart.dump())
    return 0


def _term(h, name, text):
    """The totally well-typed term *text*; an error names it *name*."""
    try:
        t = terms.parse_term(text, h)
    except scan.SourceError as e:
        raise ValueError(f"{name} term: {e}") from None
    violations = terms.well_typed_check(h, t)
    if violations:
        detail = "; ".join(str(v) for v in violations)
        raise ValueError(f"{name} term is not totally well-typed: {detail}")
    return t


def _read(path) -> str:
    # utf-8-sig drops a byte-order mark, which some editors write first
    with open(path, encoding="utf-8-sig") as f:
        return f.read()


def _arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tfsam",
        description="Typed feature structure grammars: check, compile, unify, parse.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a type hierarchy or grammar file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile", help="compile a grammar file")
    p.add_argument("path")
    p.add_argument("--disasm", action="store_true", help="print the instruction listing")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("unify", help="unify two terms over a file's hierarchy")
    p.add_argument("path")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--dump-heap", action="store_true", help="print the heap afterwards")
    p.set_defaults(func=cmd_unify)

    p = sub.add_parser("parse", help="parse a space-separated input string")
    p.add_argument("path")
    p.add_argument("input")
    p.add_argument("--chart", action="store_true", help="print the chart afterwards")
    p.add_argument("--max-items", type=int, default=parser.MAX_ITEMS, help="the chart item limit")
    p.set_defaults(func=cmd_parse)

    return ap


if __name__ == "__main__":
    sys.exit(main())

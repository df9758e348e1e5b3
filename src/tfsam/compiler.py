"""Compilation of feature terms and rules to abstract machine instructions.

Queries (structures that must exist on the heap) compile to two streams:
first one put_node per equation, in equation order, then every put_arc.
Arcs may therefore point at nodes built later in the same fragment, which
is what makes cyclic structures executable.  Programs (structures matched
against the heap) compile to one get_structure per equation followed by
unify_variable for a register's first textual occurrence and unify_value
for later ones; first-seen tracking spans the whole compiled fragment.

A rule compiles to pieces: the program code of each body element and
the query code of the head, with one register numbering for the whole
rule, so reentrancies that span rule elements simply reuse registers.  The
pieces are the rule: ``compile_grammar`` links each of them, once, against
the grammar's hierarchy (``machine.link``: type names become ids and
arities are checked), and the parser executes those linked pieces as they
are.  A lexical entry compiles to query code only, which
``compile_grammar`` runs once: a word's lexicon entry holds its seeds,
one ``(copy, label)`` pair per entry, the copy of the heap cells that
code builds, so a parse runs rule code only.  Each
body element is compiled once, to program code, and the rule keeps the
copy the machine builds from that code once it is linked
(``MachineState.element_copy``, ``RuleInfo.elements``); the machine's
walk reads the copy against a daughter's to refuse a combine that must
fail, or to read off its result.  The parser keeps each word's closed
width-1 chart cell on the code area (``CodeArea.word_cells``) the first
time it parses the word.

The listing wraps a rule's pieces in control instructions,

    start_rule n; <program code body 1>; move_dot; next_item; ...
    <program code body n>; move_dot; next_item; <query code head>; end_rule

which mark where the parser moves the dot and starts a new item; nothing
executes them.  ``CodeArea.instrs`` holds the listing of every rule and
lexical entry, and its labels are the only addresses into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import terms
from .terms import EquationSet, MRS


class CompileError(Exception):
    pass


@dataclass(frozen=True)
class PutNode:
    type: str
    arity: int
    reg: int


@dataclass(frozen=True)
class PutVar:
    """Write an unexpanded most general node of the given type."""
    type: str
    reg: int


@dataclass(frozen=True)
class PutArc:
    reg: int
    offset: int
    target: int


@dataclass(frozen=True)
class GetStructure:
    type: str
    arity: int
    reg: int


@dataclass(frozen=True)
class UnifyVariable:
    reg: int


@dataclass(frozen=True)
class UnifyValue:
    reg: int


@dataclass(frozen=True)
class StartRule:
    body_len: int


@dataclass(frozen=True)
class MoveDot:
    pass


@dataclass(frozen=True)
class NextItem:
    pass


@dataclass(frozen=True)
class EndRule:
    pass


Instruction = (PutNode | PutVar | PutArc | GetStructure | UnifyVariable
               | UnifyValue | StartRule | MoveDot | NextItem | EndRule)


@dataclass
class RuleInfo:
    rule_id: int
    label: str
    body_root_regs: list[int]
    # per body element, the registers an active edge holds before it,
    # sorted: the order of its copy's roots, as a copy keeps no register
    # numbers.  The element's root is in it when an earlier element set it
    held: list[tuple[int, ...]]
    head_root_reg: int
    # program code of each body element and query code of the head, without
    # the control instructions; linked by compile_grammar
    body_code: list = field(compare=False, repr=False)
    head_code: object = field(compare=False, repr=False)
    # per body element, the copy the machine builds from its linked program
    # code (``MachineState.element_copy``), set by compile_grammar
    elements: list = field(default_factory=list, compare=False, repr=False)


@dataclass
class CodeArea:
    instrs: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)
    rules: list = field(default_factory=list)
    # word -> its entries' seeds in file order, one (copy, label) pair each,
    # the copy a machine.RegSnapshot of the cells the entry's query code builds
    lexicon: dict = field(default_factory=dict)
    start: object = None    # the start term's copy, a machine.RegSnapshot; set by load_grammar
    # word -> its closed width-1 chart cell, one (copy, label, RuleInfo or
    # None, dot) per edge in cell order; set by the parser on the word's
    # first parse and never changed afterwards
    word_cells: dict = field(default_factory=dict)

    def add_label(self, name):
        if name in self.labels:
            raise CompileError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instrs)


def compile_query(eqs: EquationSet) -> list:
    nodes = []
    arcs = []
    for eq in eqs.equations:
        if eq.type.startswith("~"):
            nodes.append(PutVar(eq.type[1:], eq.reg))
            continue
        nodes.append(PutNode(eq.type, len(eq.args), eq.reg))
        for k, a in enumerate(eq.args, start=1):
            arcs.append(PutArc(eq.reg, k, a))
    return nodes + arcs


def compile_program(eqs: EquationSet, seen=None) -> list:
    out = []
    if seen is None:
        seen = set()
    for eq in eqs.equations:
        if eq.type.startswith("~"):
            raise CompileError("unexpanded ~ node cannot be compiled as program code")
        out.append(GetStructure(eq.type, len(eq.args), eq.reg))
        seen.add(eq.reg)
        for a in eq.args:
            if a in seen:
                out.append(UnifyValue(a))
            else:
                seen.add(a)
                out.append(UnifyVariable(a))
    return out


def compile_rule_with_info(rule: MRS, rule_id, label) -> RuleInfo:
    """Compile a rule to its pieces, unlinked: the program code of each
    body element and the query code of the head."""
    if not rule.is_rule or len(rule.roots) < 2:
        raise CompileError("a rule needs at least one body element and a head")
    eqs = terms.flatten(rule)
    bounds = [0] + eqs.boundaries
    body_len = len(rule.roots) - 1

    seen = set()
    held = []
    body_code = []
    for m, x in enumerate(eqs.roots[:body_len]):
        held.append(tuple(sorted(seen)))
        frag = EquationSet(eqs.equations[bounds[m]:bounds[m + 1]], [x], [])
        body_code.append(compile_program(frag, seen))
    head = EquationSet(eqs.equations[bounds[body_len]:bounds[body_len + 1]],
                       [eqs.roots[body_len]], [])
    return RuleInfo(rule_id, label, eqs.roots[:body_len], held, eqs.roots[body_len],
                    body_code, compile_query(head))


def rule_listing(body_code, head_code) -> list:
    """Wrap a rule's unlinked pieces in the control instructions."""
    out = [StartRule(len(body_code))]
    for piece in body_code:
        out += piece
        out += [MoveDot(), NextItem()]
    return out + head_code + [EndRule()]


def compile_grammar(hierarchy, rules, lexicon) -> CodeArea:
    """Compile rule MRSs and lexical entries into one labeled listing, link
    the rule pieces the parser executes against *hierarchy*, and keep the
    copy of each body element, which the machine builds from its linked
    program code, and of each lexical entry, which its query code builds."""
    from .machine import MachineState, link     # the machine imports this module

    code = CodeArea()
    m = MachineState(hierarchy)
    for i, rule in enumerate(rules):
        label = f"rule{i}"
        code.add_label(label)
        info = compile_rule_with_info(rule, i, label)
        code.instrs += rule_listing(info.body_code, info.head_code)
        info.body_code = [link(frag, hierarchy) for frag in info.body_code]
        info.head_code = link(info.head_code, hierarchy)
        info.elements = [m.element_copy(*spec) for spec in
                         zip(info.body_code, info.held, info.body_root_regs)]
        code.rules.append(info)
    for word, entries in lexicon.items():
        for k, term in enumerate(entries):
            # a word is a name, so the dot keeps homonyms' labels apart
            # from every other word's
            label = f"lex_{word}" if len(entries) == 1 else f"lex_{word}.{k + 1}"
            code.add_label(label)
            instrs = compile_query(terms.flatten(term))
            code.instrs += instrs
            regs = {}
            m.execute(instrs, regs)
            code.lexicon.setdefault(word, []).append((m.snapshot_regs(regs, [1]), label))
    return code


# -- listing -----------------------------------------------------------------

def format_instruction(ins) -> str:
    match ins:
        case PutNode(t, n, r):
            return f"put_node {t}/{n},X{r}"
        case PutVar(t, r):
            return f"put_var {t},X{r}"
        case PutArc(r, k, j):
            return f"put_arc X{r},{k},X{j}"
        case GetStructure(t, n, r):
            return f"get_structure {t}/{n},X{r}"
        case UnifyVariable(r):
            return f"unify_variable X{r}"
        case UnifyValue(r):
            return f"unify_value X{r}"
        case StartRule(n):
            return f"start_rule {n}"
        case MoveDot():
            return "move_dot"
        case NextItem():
            return "next_item"
        case EndRule():
            return "end_rule"
    raise CompileError(f"unknown instruction {ins!r}")


def disassemble(code) -> str:
    """One instruction per line; labels of a code area appear as ``name:``."""
    if isinstance(code, CodeArea):
        instrs = code.instrs
        at = {}
        for name, addr in code.labels.items():
            at.setdefault(addr, []).append(name)
    else:
        instrs = code
        at = {}
    lines = []
    for i, ins in enumerate(instrs):
        for name in at.get(i, ()):
            lines.append(f"{name}:")
        lines.append(format_instruction(ins))
    for name in at.get(len(instrs), ()):
        lines.append(f"{name}:")
    return "\n".join(lines)


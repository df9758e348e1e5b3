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
are.  A lexical entry is data a load reads once, so compiling it would
be pure overhead (Aït-Kaci 1991, "Warren's Abstract Machine: A Tutorial
Reconstruction", ch. 2): ``compile_grammar`` copies its term in one walk
(``machine.term_copy``), which gives the copy its query code would
build, and a word's lexicon entry holds its seeds, one ``(copy, label)``
pair per entry, so a parse runs rule code only.  Each
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
lexical entry, a lexical entry's being the query code of its term, and
its labels are the only addresses into it.  Both are made on their first
read (``tfsam compile``, ``disassemble``), from each rule's unlinked
pieces and each lexical entry's term, which the code area keeps; a load
compiles query code for rule heads only, and a parse never reads the
listing.  Making it late moves no error out of the load: a rule's label
is ``rule<n>`` and a lexical entry's ``lex_<word>``, or ``lex_<word>.<k>``
for homonyms, and a word is a name, of word characters only and so with
no dot, so no two labels can collide; and the query code of a term that
copied always compiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import terms
from .terms import EquationSet, MRS


class CompileError(Exception):
    pass


# Instructions are slotted records compared by class and fields.  They
# are not frozen: a frozen dataclass sets each field through
# object.__setattr__, and every term built from query code makes about
# two instructions per node.

@dataclass(slots=True)
class PutNode:
    type: str
    arity: int
    reg: int


@dataclass(slots=True)
class PutVar:
    """Write an unexpanded most general node of the given type."""
    type: str
    reg: int


@dataclass(slots=True)
class PutArc:
    reg: int
    offset: int
    target: int


@dataclass(slots=True)
class GetStructure:
    type: str
    arity: int
    reg: int


@dataclass(slots=True)
class UnifyVariable:
    reg: int


@dataclass(slots=True)
class UnifyValue:
    reg: int


@dataclass(slots=True)
class StartRule:
    body_len: int


@dataclass(slots=True)
class MoveDot:
    pass


@dataclass(slots=True)
class NextItem:
    pass


@dataclass(slots=True)
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
    """A compiled grammar's code.  ``instrs``, the listing of every rule
    and lexical entry, and ``labels``, the addresses of their labels, are
    made together on the first read of either, from what ``listed``
    holds, and are a plain list and dict from then on."""
    rules: list = field(default_factory=list)
    # word -> its entries' seeds in file order, one (copy, label) pair each,
    # the copy a machine.RegSnapshot of the entry's term
    lexicon: dict = field(default_factory=dict)
    start: object = None    # the start term's copy, a machine.RegSnapshot; set by load_grammar
    # word -> its closed width-1 chart cell, one (copy, label, RuleInfo or
    # None, dot) per edge in cell order; set by the parser on the word's
    # first parse and never changed afterwards
    word_cells: dict = field(default_factory=dict)
    # what the listing lists, in order: (label, a function that makes the
    # label's instructions, its arguments); emptied once the listing is made
    listed: list = field(default_factory=list)

    def __getattr__(self, name):
        # called only for an attribute the instance lacks
        if name not in ("instrs", "labels"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.instrs, self.labels = [], {}
        for label, make, *args in self.listed:
            self.add_label(label)
            self.instrs += make(*args)
        self.listed = []
        return getattr(self, name)

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


def entry_listing(term) -> list:
    """A lexical entry's listing: the query code of its term."""
    return compile_query(terms.flatten(term))


def compile_grammar(hierarchy, rules, lexicon) -> CodeArea:
    """Compile rule MRSs, link the rule pieces the parser executes against
    *hierarchy*, and keep the copy of each body element, which the machine
    builds from its linked program code, and of each lexical entry, which
    ``machine.term_copy`` makes from its term.  The code area keeps each
    rule's unlinked pieces and each entry's term for its listing, which is
    made when it is first read."""
    from .machine import MachineState, link, term_copy     # the machine imports this module

    code = CodeArea()
    m = MachineState(hierarchy)
    for i, rule in enumerate(rules):
        info = compile_rule_with_info(rule, i, f"rule{i}")
        code.listed.append((info.label, rule_listing, info.body_code, info.head_code))
        info.body_code = [link(frag, hierarchy) for frag in info.body_code]
        info.head_code = link(info.head_code, hierarchy)
        info.elements = [m.element_copy(*spec) for spec in
                         zip(info.body_code, info.held, info.body_root_regs)]
        code.rules.append(info)
    for word, entries in lexicon.items():
        for k, term in enumerate(entries):
            # a word is a name, so the dot keeps homonyms' labels apart
            # from every other word's, and from every rule's
            label = f"lex_{word}" if len(entries) == 1 else f"lex_{word}.{k + 1}"
            code.listed.append((label, entry_listing, term))
            code.lexicon.setdefault(word, []).append((term_copy([term], hierarchy), label))
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


"""Feature terms: the textual and in-memory form of typed feature structures.

A term is a typed node with one argument per appropriate feature, in the
type's alphabetical feature order.  Reentrancy and cycles are written
with tags: ``#n term`` names a node, a bare ``#n`` refers back to it.  A
term is in normal form when every tag is defined (given a type and
arguments) at its first occurrence and at most once.  ``~t`` denotes an
unexpanded most general structure of type t; it is produced when results
of lazy unification are read back under appropriateness loops and is
accepted on input for round-tripping.

A multi-rooted structure (several terms sharing one tag scope) is written
``t1, t2, ... => tn``; the arrow marks the last root as the head and is
what distinguishes a rule from a plain sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import scan


class TermError(scan.SourceError):
    """A term is syntactically invalid, ill-formed or ill-typed."""


@dataclass(eq=False)
class Node:
    type: str
    args: list = field(default_factory=list)
    tag: str | None = None


@dataclass(eq=False)
class BackRef:
    tag: str


@dataclass(eq=False)
class MostGeneral:
    type: str
    tag: str | None = None


Term = Node | BackRef | MostGeneral


@dataclass
class MRS:
    """A multi-rooted structure; for rules the last root is the head."""
    roots: list
    is_rule: bool = False


@dataclass(frozen=True)
class Equation:
    reg: int
    type: str
    args: tuple[int, ...]

    def __str__(self):
        if self.args:
            return f"X{self.reg} = {self.type}({','.join('X%d' % a for a in self.args)})"
        return f"X{self.reg} = {self.type}"


@dataclass
class EquationSet:
    equations: list[Equation]
    roots: list[int]
    boundaries: list[int]    # equation count after flattening each root

    def __str__(self):
        return "; ".join(str(e) for e in self.equations)


# -- parsing ---------------------------------------------------------------

def parse_term(text, hierarchy) -> Term:
    cur = scan.tokenize(text, error=TermError)
    t = parse_term_tokens(cur, hierarchy)
    if not cur.at_end():
        cur.fail("unexpected input after term")
    return t


def parse_term_tokens(cur, hierarchy) -> Term:
    p = _TermParser(cur, hierarchy)
    t = p.term()
    p.finish()
    return t


def parse_mrs(text, hierarchy) -> MRS:
    cur = scan.tokenize(text, error=TermError)
    mrs = parse_mrs_tokens(cur, hierarchy)
    if not cur.at_end():
        cur.fail("unexpected input after structure")
    return mrs


def parse_mrs_tokens(cur, hierarchy, stop=()) -> MRS:
    """Parse a multi-rooted structure from a token cursor.

    Stops in front of any token text in *stop* (used by the grammar-file
    reader, whose clauses end with a period).
    """
    p = _TermParser(cur, hierarchy)
    roots = [p.term()]
    is_rule = False
    while True:
        if cur.at(","):
            cur.next()
            roots.append(p.term())
        elif cur.at("=>"):
            cur.next()
            roots.append(p.term())
            is_rule = True
            break
        else:
            break
    # after a head, the caller says what may follow
    if not (is_rule or cur.at_end() or cur.peek() in stop):
        cur.fail("expected ',' or '=>' between roots")
    p.finish()
    return MRS(roots, is_rule)


class _TermParser:
    def __init__(self, cur, hierarchy):
        self.cur = cur
        self.h = hierarchy
        self.defined = {}    # tag -> Node or MostGeneral
        self.used = {}       # tag -> token index of its first bare occurrence's '#'

    def term(self):
        """Read one term.  The nodes whose argument lists are still open
        wait on an explicit stack, so a term of any depth can be read."""
        cur = self.cur
        stack = []      # (type name's token index, tag or None, arguments so far)
        while True:
            value = self._begin(stack)
            if value is None:
                continue        # a node's '(' was read: its first argument follows
            while stack:
                at, tag, args = stack[-1]
                args.append(value)
                if cur.at(","):
                    cur.next()
                    break
                cur.expect(")")
                stack.pop()
                value = self._node(at, args, tag)
            else:
                return value

    def _begin(self, stack):
        """Read a term up to its arguments: return a term that has none, or
        push a node whose '(' was read onto *stack* and return None."""
        cur = self.cur
        tag = None
        if cur.at("#"):
            at = cur.i
            cur.next()
            tag = cur.expect_name("a tag name")
            if not (cur.at_name() or cur.at("~")):
                self.used.setdefault(tag, at)
                return BackRef(tag)
            if tag in self.defined:
                raise TermError(f"tag #{tag} defined twice", *cur.position(at))
            if tag in self.used:
                raise TermError(f"tag #{tag} used before its definition",
                                *cur.position(self.used[tag]))
        if cur.at("~"):
            cur.next()
            return self._define(MostGeneral(self._type_name()), tag)
        at = cur.i
        name = self._type_name()
        if cur.at("("):
            cur.next()
            stack.append((at, tag, []))
            return None
        return self._node(at, [], tag)

    def _node(self, at, args, tag):
        """The node whose type name is token *at*, once its arguments are read."""
        name = self.cur.texts[at]
        want = self.h.arity(name)
        if len(args) != want:
            raise TermError(f"type {name!r} takes {want} argument(s), got {len(args)}",
                            *self.cur.position(at))
        return self._define(Node(name, args), tag)

    def _define(self, node, tag):
        # a tag is defined once its node is read, so a reference to it
        # from inside the node is a cycle, not a use before definition
        if tag is not None:
            node.tag = tag
            self.defined[tag] = node
        return node

    def _type_name(self):
        """Read a type name the hierarchy knows."""
        cur = self.cur
        at = cur.i
        name = cur.expect_name("a type name")
        if name not in self.h.ids:
            raise TermError(f"unknown type {name!r}", *cur.position(at))
        return name

    def finish(self):
        for tag, at in self.used.items():
            if tag not in self.defined:
                raise TermError(f"tag #{tag} is never defined", *self.cur.position(at))


# -- printing --------------------------------------------------------------

def print_term(t) -> str:
    return _print(t, _referenced_tags(t))


def print_mrs(mrs) -> str:
    tags = set()
    for r in mrs.roots:
        tags |= _referenced_tags(r)
    parts = [_print(r, tags) for r in mrs.roots]
    if mrs.is_rule:
        return ", ".join(parts[:-1]) + " => " + parts[-1]
    return ", ".join(parts)


def _referenced_tags(t):
    tags = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, BackRef):
            tags.add(x.tag)
        elif isinstance(x, Node):
            stack.extend(x.args)
    return tags


def _print(t, tags):
    """*t* as text.  Written from an explicit stack that holds terms still
    to print and punctuation still to write, so a term of any depth prints."""
    out = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, BackRef):
            out.append(f"#{x.tag}")
        else:
            if x.tag and x.tag in tags:
                out.append(f"#{x.tag} ")
            if isinstance(x, MostGeneral):
                out.append(f"~{x.type}")
            elif x.args:
                out.append(f"{x.type}(")
                stack.append(")")
                for k in range(len(x.args) - 1, 0, -1):
                    stack += (x.args[k], ",")
                stack.append(x.args[0])
            else:
                out.append(x.type)
    return "".join(out)


# -- well-typedness ----------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    path: str
    expected: str
    found: str

    def __str__(self):
        return f"at {self.path or '(root)'}: expected {self.expected}, found {self.found}"


def well_typed_check(hierarchy, t) -> list[Violation]:
    """Check every node's arguments against appropriateness; [] means ok.

    Reentrant targets are checked once, at their defining occurrence.
    The walk runs from an explicit stack, so a term of any depth can be
    checked.  An argument's type is checked before the walk below it,
    and that walk ends before the next argument's check.
    """
    roots = t.roots if isinstance(t, MRS) else [t]
    defs = {}
    for r in roots:
        _collect_tags(r, defs)
    out = []
    checked = set()
    # (appropriate value or None for a root, node, path)
    stack = [(None, r, "") for r in reversed(roots)]
    while stack:
        v, x, path = stack.pop()
        if v is not None:
            found = defs[x.tag].type if isinstance(x, BackRef) else x.type
            if not hierarchy.subsumes(v, found):
                out.append(Violation(path, hierarchy.tname(v), found))
        if isinstance(x, (BackRef, MostGeneral)) or id(x) in checked:
            continue
        checked.add(id(x))
        fs = hierarchy.features(x.type)
        if len(x.args) != len(fs):
            out.append(Violation(path, f"{len(fs)} argument(s) for {x.type}",
                                 f"{len(x.args)}"))
            continue
        vals = hierarchy.approp_list(x.type)
        for f, v, a in zip(reversed(fs), reversed(vals), reversed(x.args)):
            stack.append((v, a, f"{path}.{f}" if path else f))
    return out


def _collect_tags(t, defs):
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, (Node, MostGeneral)) and x.tag:
            defs[x.tag] = x
        if isinstance(x, Node):
            stack.extend(x.args)


# -- flattening --------------------------------------------------------------

def flatten(t) -> EquationSet:
    """Turn a term or MRS into register equations.

    Registers are numbered from X1 in first-visit order: a node's
    arguments are numbered left to right when its equation is emitted,
    then each new argument is flattened in turn.  Numbering and tag scope
    are continuous across the roots of an MRS.  The nodes still to emit
    wait on an explicit stack, so a term of any depth can be flattened.
    """
    roots = t.roots if isinstance(t, MRS) else [t]
    defs = {}
    for r in roots:
        _collect_tags(r, defs)
    reg_of = {}          # id(node) -> register, given when the node is first met
    equations = []
    root_regs = []
    boundaries = []
    for root in roots:
        if type(root) is BackRef:
            root = defs[root.tag]
        root_reg = reg_of.get(id(root))
        if root_reg is None:
            root_reg = reg_of[id(root)] = len(reg_of) + 1
            # each entry is (node, register); a node's new arguments are
            # pushed reversed, so they are emitted in argument order, each
            # with everything first met under it
            stack = [(root, root_reg)]
            while stack:
                node, reg = stack.pop()
                if type(node) is MostGeneral:
                    equations.append(Equation(reg, "~" + node.type, ()))
                    continue
                arg_regs = []
                pending = []
                for a in node.args:
                    if type(a) is BackRef:
                        a = defs[a.tag]
                    r = reg_of.get(id(a))
                    if r is None:
                        r = reg_of[id(a)] = len(reg_of) + 1
                        pending.append((a, r))
                    arg_regs.append(r)
                equations.append(Equation(reg, node.type, tuple(arg_regs)))
                stack += reversed(pending)
        root_regs.append(root_reg)
        boundaries.append(len(equations))
    return EquationSet(equations, root_regs, boundaries)


# -- isomorphism -------------------------------------------------------------

def iso(a, b) -> bool:
    return iso_roots([a], [b])


def iso_roots(roots_a, roots_b) -> bool:
    """Graph isomorphism respecting types, argument positions and sharing.

    Multi-rooted: corresponding roots must map to each other under a
    single node bijection, so reentrancy across roots is compared too.
    """
    if len(roots_a) != len(roots_b):
        return False
    defs_a, defs_b = {}, {}
    for r in roots_a:
        _collect_tags(r, defs_a)
    for r in roots_b:
        _collect_tags(r, defs_b)

    def resolve(x, defs):
        return defs[x.tag] if isinstance(x, BackRef) else x

    a2b, b2a = {}, {}
    stack = [(resolve(x, defs_a), resolve(y, defs_b))
             for x, y in zip(roots_a, roots_b)]
    while stack:
        x, y = stack.pop()
        if id(x) in a2b or id(y) in b2a:
            if a2b.get(id(x)) is not y or b2a.get(id(y)) is not x:
                return False
            continue
        if type(x) is not type(y) or x.type != y.type:
            return False
        a2b[id(x)] = y
        b2a[id(y)] = x
        if isinstance(x, Node):
            if len(x.args) != len(y.args):
                return False
            for ax, ay in zip(x.args, y.args):
                stack.append((resolve(ax, defs_a), resolve(ay, defs_b)))
    return True


# -- most general terms -------------------------------------------------------

def most_general_term(hierarchy, t) -> Term:
    """The most general totally well-typed term of type *t*.

    Under an appropriateness loop the full structure would be infinite;
    expansion stops at the first repeated type on a branch and leaves an
    unexpanded ~type node there.  The term is built depth first from an
    explicit stack, so a chain of types of any length can be expanded.
    """
    names = hierarchy.names
    out = []
    on_branch = set()
    # each stack entry is (argument list of the parent, type id), or
    # (None, type id) to take the type off the branch once its node is built
    stack = [(out, hierarchy.tid(hierarchy.tname(t)))]
    while stack:
        args, ty = stack.pop()
        if args is None:
            on_branch.remove(ty)
        elif ty in on_branch:
            args.append(MostGeneral(names[ty]))
        else:
            node = Node(names[ty])
            args.append(node)
            on_branch.add(ty)
            stack.append((None, ty))
            stack.extend([(node.args, v) for v in reversed(hierarchy.approps[ty])])
    return out[0]

"""The abstract machine: a heap of tagged cells, a trail, and the
unification engine.

Heap cells are (tag, value) pairs: ``STR t`` starts a node of type t whose
arc cells occupy the following arity(t) addresses, ``REF a`` points at
address a (a cell pointing at itself stands for a value that is not known
yet), and ``VAR t`` is a most general structure of type t that has not
been expanded into cells.  Binding never mutates in place without going
through the trail, so any prefix of work can be undone exactly.

Unifying two nodes looks up the plan for their pair of types (the
hierarchy makes it on the pair's first unification and keeps it).  When
the result type is one operand's own type, that operand's node is the
result and the other is bound to it; only when the result is more
specific than both is a result skeleton built at the top of the heap and
both operands bound to it.  So a unification writes new cells only where
the result differs from an operand.  Applying the plan gives, for each
feature of the left operand, the address of the result's value for it;
each is paired with the left operand's own argument, and these address
pairs, the worklist's only kind of item, are then settled depth first
instead of recursing.  Binding the operands before their arguments is
what makes unification of cyclic structures terminate: when a cycle
leads back to the pair being unified, both sides dereference to the
same node and the pair is already settled.  Each node pair binds an operand to another
node, so REF chains grow with every level of sharing, and ``deref``
compresses any chain of more than one link it walks (through the trail),
which keeps a unification near-linear in the cells it reads.

A feature a plan introduces is written as a VAR cell; the eager reference
of acceptance criterion 8, which builds every most general structure in
full, is ``oracle.EagerMachine`` in the tests.

Instructions are linked before they run: ``link`` resolves every type name
to its id, checks every arity, builds the node cells once and fuses each
get_structure with its unify instructions into one op that settles its
own arguments, so the machine needs no argument stack.  ``execute`` runs
the flat ops in one dispatch loop.  The grammar's rule code is linked
when it is compiled, and its body elements' program code runs then,
once, to make their copies; a parse runs only the linked rule code.  A
plain instruction list is linked on entry to ``execute``, so nothing
runs unless all of it links.

A term that is data, a lexical entry or the start term, is not
compiled: ``term_copy`` walks it once to its copy, the copy ``build``
and ``snapshot_regs`` would make, with ``link``'s checks of type names
and arities.  ``build`` still runs query code, and so do ``tfsam
unify`` and ``ChartParser.parse_terms``.

The machine holds no registers.  A register file is a dict from register
number to heap address that the caller owns: ``execute`` runs code in
the one it is given, ``snapshot_regs`` copies the structures of a list
of its registers, and ``restore_regs`` takes a copy and a register list
of the same length and returns a new one.  The copy keeps no register
numbers: which register holds which root is the caller's to know (the
parser reads it off the rule and dot, as a WAM clause, not its saved
environment, knows which variable sits in which slot).

Query code writes no trail entries: a put_arc fills a slot of a node a
put_node of the same run made (``link`` checks that), so the slot lies
above every mark and an undo drops it with the heap top.

Structures leave the heap as copies of its cells (``RegSnapshot``), not
as code: a chart edge is such a copy, and restoring it appends the cells
again, rebased to the top of the heap.  A rule's body element has a copy
too (``element_copy``), which its own linked program code builds, run
once in write mode: a get_structure on an unbound register builds the
structure it would otherwise match (Aït-Kaci 1991, "Warren's Abstract
Machine: A Tutorial Reconstruction", ch. 2), and each register an
active edge holds before the element is a ``VAR bot`` placeholder.

``walk`` compares two copies on the graphs themselves, in one pass
(after Malouf, Carroll and Copestake 2000, "Efficient feature structure
operations without compilation"; an element's copy stands for the
feature paths Kiefer et al. 1999, "A bag of useful techniques for
efficient and robust parsing", read off a grammar for their quick
check).  It says that two copies cannot unify where a node pair's types
have no upper bound in common, or where a placeholder meets a node with
none in common with that register's node in the active edge's copy, as
unification only makes types more specific; and it says when the first
copy subsumes the second.  The parser asks it to refuse or read off a
combine and to accept a spanning head, and no other module reads the
cells of a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import compiler, terms, typesys

STR = "STR"
REF = "REF"
VAR = "VAR"


class MachineError(Exception):
    """An internal invariant was broken (usually bad code, not bad input)."""


class UnifyFailure(Exception):
    """The structures being unified are incompatible."""


@dataclass(frozen=True)
class Mark:
    heap: int
    trail: int


# Opcodes of linked code.  A linked op is a tuple (opcode, a, b, c) whose
# operands are ready to use: c is the register an op sets or reads, and
#   PUT_NODE       a = the node's cells: its STR cell, then an empty slot
#                      per feature;
#   PUT_VAR        a = the VAR cell;
#   PUT_ARC        a = the node's register, b = the arc's offset,
#                  c = the target's register;
#   GET_STRUCTURE  a = the STR cell to build if the register is unbound (its
#                      type id also selects the plan), b = per feature, a
#                      (register, already set) pair (see ``_IS_SET``).
PUT_NODE, PUT_VAR, PUT_ARC, GET_STRUCTURE = range(4)
_IS_SET = {compiler.UnifyVariable: False, compiler.UnifyValue: True}


class Linked:
    """Instructions linked against one hierarchy (see ``link``)."""
    __slots__ = ("ops", "h")

    def __init__(self, ops, h):
        self.ops = ops
        self.h = h

    def __len__(self):
        return len(self.ops)


def link(instrs, h) -> Linked:
    """Link compiled instructions against hierarchy *h*.

    Type names become ids, node cells are built, and put_node and
    get_structure arities are checked against the hierarchy, once.  Each
    get_structure t/n takes the n unify instructions after it into its
    op.  Fewer of them, a stray unify instruction, a put_arc whose
    register no earlier put_node of the same code set or whose offset is
    outside that node's arcs, and control instructions are refused here,
    so code that links runs without further checks.
    Every term built from query code is linked first, so this loop is kept
    lean: it dispatches on the exact class, several times faster than
    ``match``, and looks names up in the hierarchy's table directly."""
    ids = h.ids
    arities = h.arities
    ops = []
    append = ops.append
    node_arity = {}     # register -> arity of the node its latest put_node built
    instrs = iter(instrs)
    try:
        for ins in instrs:
            cls = type(ins)
            if cls is compiler.PutArc:
                if not 0 < ins.offset <= node_arity.get(ins.reg, -1):
                    raise _put_arc_error(ins, node_arity.get(ins.reg))
                append((PUT_ARC, ins.reg, ins.offset, ins.target))
            elif cls is compiler.PutNode:
                t = ids[ins.type]
                if ins.arity != arities[t]:
                    raise _arity_error("put_node", ins.arity, ins.type)
                node_arity[ins.reg] = ins.arity
                append((PUT_NODE, ((STR, t),) + (None,) * ins.arity, None, ins.reg))
            elif cls is compiler.GetStructure:
                t = ids[ins.type]
                if ins.arity != arities[t]:
                    raise _arity_error("get_structure", ins.arity, ins.type)
                node_arity.pop(ins.reg, None)
                args = []
                while len(args) < ins.arity:
                    arg = next(instrs, None)
                    if type(arg) not in _IS_SET:
                        raise MachineError(f"get_structure {ins.type}/{ins.arity} is followed "
                                           f"by {len(args)} of its {ins.arity} unify instructions")
                    node_arity.pop(arg.reg, None)
                    args.append((arg.reg, _IS_SET[type(arg)]))
                append((GET_STRUCTURE, (STR, t), tuple(args), ins.reg))
            elif cls is compiler.PutVar:
                node_arity.pop(ins.reg, None)
                append((PUT_VAR, (VAR, ids[ins.type]), None, ins.reg))
            elif cls in _IS_SET:
                raise MachineError(f"{compiler.format_instruction(ins)} is outside a get_structure")
            else:
                raise MachineError(f"instruction {ins!r} is only valid under the parser")
    except KeyError:
        raise _unknown_type(ins.type) from None
    return Linked(tuple(ops), h)


def _unknown_type(name):
    return typesys.SpecError(f"unknown type {name!r}")


def _arity_error(op, arity, name):
    return MachineError(f"{op} arity {arity} does not match arity({name})")


def _put_arc_error(ins, arity):
    where = compiler.format_instruction(ins)
    if arity is None:
        return MachineError(f"{where}: register X{ins.reg} is unset, "
                            f"no earlier put_node in the same code built it")
    return MachineError(f"{where}: offset {ins.offset} is outside 1..{arity}, "
                        f"the arcs of the node in X{ins.reg}")


class RegSnapshot(NamedTuple):
    """Heap-independent copy of the structures at some root addresses.

    ``cells`` holds every cell reachable from the roots, dereferenced, in
    first-visit order over ordered arcs, with each REF cell's address
    rebased to 0: a node is its STR cell followed by one REF per arc, a
    VAR cell stays unexpanded and an unbound cell is a REF to itself.
    ``roots`` holds the offset of each root's structure, in order.
    Restoring the copy appends the cells at the top of the heap, adding
    the base to every REF.

    A copy does not record which registers its roots came from: the
    caller knows them (the parser from the rule and dot).  The walk
    visits nodes in an order fixed by the structure alone, so the copy
    is a canonical form: two snapshots compare and hash equal exactly
    when their structures are isomorphic, root for root, sharing across
    roots included.  The parser uses snapshots as chart edges, as their
    duplicate keys and as keys of the combines it has already run.  A
    snapshot is a ``NamedTuple`` and compares and hashes like the tuple
    of its two fields, in C.
    """
    cells: tuple
    roots: tuple[int, ...]


def term_copy(roots, h) -> RegSnapshot:
    """The copy of the terms *roots* over hierarchy *h*, made in one walk
    over the terms: exactly the copy ``snapshot_regs`` makes of the
    structures ``build`` puts on the heap, sharing, cycles and tags kept
    and ``~t`` a VAR cell, with ``link``'s checks and errors for an
    unknown type or a node of the wrong arity.

    The walk meets a term's nodes in the order ``snapshot_regs`` meets
    their cells, from an explicit stack, so a term of any depth can be
    copied.  That order is the order of the term's text, and the walk
    maps each tag to its node as it meets it, so the tags of *roots*
    share one scope and each must be defined before it is used, as the
    reader requires of a term; a term that uses a tag first, or defines
    one twice, raises the reader's ``TermError``."""
    ids = h.ids
    arities = h.arities
    Node, BackRef = terms.Node, terms.BackRef
    defs = {}               # tag -> its node
    offset = {}             # id() of a node -> its offset in the copy
    cells = []
    out = []
    # each stack entry is (the arc cell of the copy that points at the
    # term, or -1 for a root, term); roots, and a node's arguments, are
    # popped in order, as snapshot_regs pops addresses
    stack = [(-1, r) for r in reversed(roots)]
    while stack:
        arc, x = stack.pop()
        if type(x) is BackRef:
            try:
                x = defs[x.tag]
            except KeyError:
                raise terms.TermError(f"tag #{x.tag} used before its definition") from None
        o = offset.get(id(x))
        if o is None:
            o = offset[id(x)] = len(cells)
            if x.tag and defs.setdefault(x.tag, x) is not x:
                raise terms.TermError(f"tag #{x.tag} defined twice")
            try:
                t = ids[x.type]
            except KeyError:
                raise _unknown_type(x.type) from None
            if type(x) is Node:
                n = len(x.args)
                if n != arities[t]:
                    raise _arity_error("put_node", n, x.type)
                cells += [(STR, t)] + [None] * n
                stack += zip(range(o + n, o, -1), reversed(x.args))
            else:
                cells.append((VAR, t))
        if arc < 0:
            out.append(o)
        else:
            cells[arc] = (REF, o)
    return RegSnapshot(tuple(cells), tuple(out))


class MachineState:
    def __init__(self, hierarchy):
        self.h = hierarchy
        self.heap = []
        self.trail = []          # (address, previous cell)

    # -- cells -------------------------------------------------------------

    def cell(self, a):
        if a < 0:
            raise MachineError(f"address {a} is below the heap")
        try:
            c = self.heap[a]
        except IndexError:
            raise MachineError(f"address {a} beyond heap top {len(self.heap)}") from None
        if c is None:
            raise MachineError(f"arc slot {a} read before it was written")
        return c

    def _set(self, a, cell):
        self.trail.append((a, self.heap[a]))
        self.heap[a] = cell

    # -- trail ---------------------------------------------------------------

    def checkpoint(self) -> Mark:
        return Mark(len(self.heap), len(self.trail))

    def undo(self, mark: Mark):
        if mark.trail > len(self.trail) or mark.heap > len(self.heap):
            raise MachineError("undo mark out of order")
        while len(self.trail) > mark.trail:
            a, old = self.trail.pop()
            self.heap[a] = old
        del self.heap[mark.heap:]

    def deref(self, a) -> int:
        """The end of the REF chain from *a*; every cell on the chain but
        the last is pointed at the end, through the trail."""
        c = self.cell(a)
        if c[0] is not REF or c[1] == a:
            return a
        b = c[1]
        c = self.cell(b)
        if c[0] is not REF or c[1] == b:
            return b            # a chain of one link: nothing to compress
        path = [a]
        a = b
        while c[0] is REF and c[1] != a:
            path.append(a)
            a = c[1]
            c = self.cell(a)
        for p in path[:-1]:
            self._set(p, (REF, a))
        return a

    def bind(self, a, target):
        self._set(a, (REF, target))

    # -- instruction execution ------------------------------------------------

    def execute(self, code, regs):
        """Run *code* in the register file *regs*, a dict from register
        number to heap address that the caller owns.

        *code* is either ``Linked`` code or a plain instruction list, which
        is linked first; either way every instruction is checked against
        the hierarchy before the first one writes anything."""
        if type(code) is not Linked:
            code = link(code, self.h)
        elif code.h is not self.h:
            raise MachineError("code was linked against another hierarchy")
        heap = self.heap
        for op, a, b, c in code.ops:
            if op == PUT_ARC:
                try:
                    addr = regs[a] + b
                    target = regs[c]
                except KeyError:
                    raise MachineError("put_arc register is unset") from None
                heap[addr] = (REF, target)
            elif op == PUT_NODE:
                regs[c] = len(heap)
                heap.extend(a)
            elif op == GET_STRUCTURE:
                self._get_structure(a, b, c, regs)
            elif op == PUT_VAR:
                regs[c] = len(heap)
                heap.append(a)

    def _get_structure(self, node, args, xi, r):
        """The get_structure op: match register *xi* against the node *node*
        starts, then settle *args* in feature order: a register's first
        occurrence points it at its argument, a later one unifies the two.
        The plan's narrowing pairs settle first, then the later occurrences
        in feature order, each pair with everything it leads to."""
        if xi not in r:
            raise MachineError(f"register X{xi} is unset")
        addr = r[xi] = self.deref(r[xi])
        c = self.cell(addr)
        work = []
        if c[0] is REF:
            # value not known yet: build the type's skeleton, arguments unbound
            base = len(self.heap)
            cells = range(base + 1, base + 1 + len(args))
            self.heap += [node] + [(REF, a) for a in cells]
            self.bind(addr, base)
        else:
            plan = self.h.plans[node[1]][c[1]]
            # a VAR cell already of the result type needs no cells for a
            # node without arguments
            if c[0] is VAR and (args or plan.result != c[1]):
                addr = self._expand(addr, c[1])[0]
            cells = self.exec_plan(plan, addr, work)
        pairs = []
        for cell, (xj, is_set) in zip(cells, args):
            if not is_set:
                r[xj] = cell
            elif xj in r:
                pairs.append((cell, r[xj]))
            else:
                raise MachineError(f"register X{xj} is unset")
        if pairs or work:
            self._unify(pairs[::-1] + work)

    # -- plans ---------------------------------------------------------------

    def exec_plan(self, plan, addr, work):
        """Apply a unification plan at *addr*, whose node has the plan's
        right type.  Returns, per left feature in order, the address of
        the cell its value unifies with.  When the result is the right
        type, the node at *addr* is the result and nothing is written;
        otherwise a result node is built at the top of the heap and *addr*
        is bound to it.  Where the result narrows a
        feature's value, its arc is a VAR cell of the narrowed type, which
        the left value unifies with through its address and the right value
        through a pair appended to the worklist *work*."""
        if plan.result is None:
            raise UnifyFailure(
                f"{self.h.tname(plan.left)} and {self.h.tname(plan.right)} "
                f"have no upper bound")
        if plan.kept is not None:
            return [addr + p for p in plan.kept]
        base = len(self.heap)
        self.heap.append((STR, plan.result))
        pending = []
        # dispatch on the exact class, as ``link`` does: several times
        # faster than ``match``
        for step in plan.steps:
            cell = len(self.heap)
            cls = type(step)
            if cls is typesys.Introduced:
                self.heap.append((VAR, step.vtype))
            elif step.narrow is not None:
                self.heap.append((VAR, step.narrow))
                if cls is not typesys.LeftOnly:
                    work.append((cell, addr + step.pos))
                if cls is not typesys.RightOnly:
                    pending.append(cell)
            elif cls is typesys.RightOnly:
                self.heap.append((REF, addr + step.pos))
            elif cls is typesys.LeftOnly:
                self.heap.append((REF, cell))
                pending.append(cell)
            else:
                self.heap.append((REF, addr + step.pos))
                pending.append(cell)
        self.bind(addr, base)
        return pending

    # -- unification -----------------------------------------------------------

    def unify(self, a1, a2) -> bool:
        try:
            self._unify([(a1, a2)])
            return True
        except UnifyFailure:
            return False

    def _unify(self, work):
        """Unify the two addresses of each pair on the worklist *work*, until
        it is empty.  A pair settles when popped, not when pushed, since an
        earlier pair can bind either address through a cycle.  A node
        pair's argument pairs go onto the worklist reversed, so they settle
        depth first and in argument order."""
        while work:
            a1, a2 = work.pop()
            a1 = self.deref(a1)
            a2 = self.deref(a2)
            if a1 == a2:
                continue
            c1 = self.cell(a1)
            c2 = self.cell(a2)
            if c1[0] is REF:
                self.bind(a1, a2)
                continue
            if c2[0] is REF:
                self.bind(a2, a1)
                continue
            # an unexpanded most-general structure of type t subsumes every
            # well-typed structure whose type is at least t, so VAR cells can
            # often be bound without materializing anything; expansion happens
            # only when the other side must genuinely be retyped
            if c1[0] is VAR and c2[0] is VAR:
                self._set(a1, (VAR, self._join(c1[1], c2[1])))
                self.bind(a2, a1)
                continue
            if c1[0] is VAR:
                if self._join(c1[1], c2[1]) == c2[1]:
                    self.bind(a1, a2)
                    continue
                a1, c1 = self._expand(a1, c1[1])
            elif c2[0] is VAR:
                if self._join(c1[1], c2[1]) == c1[1]:
                    self.bind(a2, a1)
                    continue
                a2, c2 = self._expand(a2, c2[1])
            plan = self.h.plans[c1[1]][c2[1]]
            if plan.result == c1[1] != c2[1]:
                # the left node has the result type: keep it, as the right
                a1, a2 = a2, a1
                plan = self.h.plans[c2[1]][c1[1]]
            args = self.exec_plan(plan, a2, work)
            # bind the left operand to the result before settling arguments;
            # cycles back into this pair then dereference to the same address
            self.bind(a1, self.deref(a2))
            work += zip(reversed(args), range(a1 + len(args), a1, -1))

    def _join(self, t1, t2) -> int:
        t = self.h.lub(t1, t2)
        if t is None:
            raise UnifyFailure(
                f"{self.h.tname(t1)} and {self.h.tname(t2)} have no upper bound")
        return t

    # -- most general structures -------------------------------------------------

    def build_most_general_fs(self, t) -> int:
        """Build a node of type *t* whose arguments are unexpanded VAR cells."""
        tid = self.h.tid(t)
        base = len(self.heap)
        self.heap += [(STR, tid)] + [(VAR, v) for v in self.h.approps[tid]]
        return base

    def _expand(self, a, t):
        """Bind the VAR cell at *a*, of type *t*, to a new node of type t."""
        base = self.build_most_general_fs(t)
        self.bind(a, base)
        return base, self.cell(base)

    # -- building and reading back ------------------------------------------------

    def build(self, roots) -> list[int]:
        """Build term graphs on the heap via query code, in a register file
        of its own; sharing between the given roots is preserved."""
        eqs = terms.flatten(terms.MRS(list(roots)))
        regs = {}
        self.execute(compiler.compile_query(eqs), regs)
        return [regs[r] for r in eqs.roots]

    def build_snapshot(self, snap: RegSnapshot) -> list[int]:
        """Append a snapshot's cells to the heap; returns the address of
        each root."""
        base = len(self.heap)
        self.heap.extend([(REF, c[1] + base) if c[0] is REF else c for c in snap.cells])
        return [base + o for o in snap.roots]

    def build_term(self, term) -> int:
        return self.build([term])[0]

    def extract(self, addr):
        return self.extract_multi([addr])[0]

    def extract_multi(self, addrs) -> list:
        """Read dereferenced graphs back as normal-form terms.

        Nodes reachable more than once get tags, numbered in the order
        they are first met again; sharing across the given roots is kept.
        VAR cells read back as the most general term of their type,
        self-references as the most general term of bot.  The graph is
        walked depth first from an explicit stack, so a result of any
        depth can be read.
        """
        h = self.h
        arities = h.arities
        deref = self.deref
        built = {}
        tags = 0
        out = []
        # each stack entry is (argument list of the parent, address); the
        # roots, and a node's arguments, are popped, and so appended, in order
        stack = [(out, a) for a in reversed(addrs)]
        while stack:
            args, a = stack.pop()
            a = deref(a)
            t = built.get(a)
            if t is not None:
                if t.tag is None:
                    tags += 1
                    t.tag = str(tags)
                args.append(terms.BackRef(t.tag))
                continue
            c = self.cell(a)
            if c[0] is STR:
                t = terms.Node(h.names[c[1]], [])
                stack += [(t.args, a + k) for k in range(arities[c[1]], 0, -1)]
            else:
                t = terms.most_general_term(h, c[1] if c[0] is VAR else typesys.BOT)
            built[a] = t
            args.append(t)
        return out

    def snapshot_regs(self, regs, live) -> RegSnapshot:
        """Copy the structures in registers *live* of the register file
        *regs*, in that order, walking from an explicit stack (see
        ``RegSnapshot``).  Each register must be set to an address on the
        heap."""
        heap = self.heap
        for x in live:
            if not 0 <= regs.get(x, -1) < len(heap):
                raise MachineError(f"X{x} holds {regs.get(x, 'nothing')}, not a heap address")
        arities = self.h.arities
        offset = {}             # dereferenced heap address -> offset in the copy
        cells = []
        roots = []
        # each stack entry is (the arc cell of the copy that points at the
        # address, or -1 for a root, address); roots, and a node's arcs,
        # are popped in order, so each root is copied before the next
        stack = [(-1, regs[i]) for i in reversed(live)]
        try:
            while stack:
                arc, a = stack.pop()
                c = heap[a]
                while c[0] is REF and c[1] != a:
                    a = c[1]
                    c = heap[a]
                o = offset.get(a)
                if o is None:
                    o = offset[a] = len(cells)
                    if c[0] is STR:
                        n = arities[c[1]]
                        cells += [c] + [None] * n
                        stack.extend([(o + k, a + k) for k in range(n, 0, -1)])
                    else:
                        cells.append((REF, o) if c[0] is REF else c)
                if arc < 0:
                    roots.append(o)
                else:
                    cells[arc] = (REF, o)
        except TypeError:
            # c was an arc slot no put_arc wrote, None; caught once here
            # rather than tested on every cell
            raise MachineError(f"arc slot {a} read before it was written") from None
        return RegSnapshot(tuple(cells), tuple(roots))

    def restore_regs(self, snap: RegSnapshot, live) -> dict:
        """Append a snapshot's cells to the heap; returns the register file
        that points registers *live*, one per root in order, at their
        structures."""
        if len(live) != len(snap.roots):
            raise MachineError(f"{len(live)} registers for a copy of {len(snap.roots)} roots")
        return dict(zip(live, self.build_snapshot(snap)))

    def element_copy(self, code, held, root) -> RegSnapshot:
        """The copy of a rule's body element, built by running its linked
        program *code* once in write mode: each register of *held* is a
        ``VAR bot`` placeholder and a *root* that no earlier element set
        is an unbound cell, so each get_structure builds the node it would
        otherwise match (Aït-Kaci 1991, ch. 2).  The copy's roots are
        *held*, whose placeholders lie at offsets 0, 1, ..., then *root*,
        then the other registers the code sets, in register order.  A cell
        the code leaves unbound is refused, as ``walk`` would read its
        offset as a type."""
        regs = {}
        for x in held + (root,):
            if x not in regs:
                regs[x] = len(self.heap)
                self.heap.append((VAR, self.h.bot) if x in held else (REF, regs[x]))
        self.execute(code, regs)
        snap = self.snapshot_regs(regs, held + (root,) + tuple(sorted(regs.keys() - held - {root})))
        if any(c == (REF, o) for o, c in enumerate(snap.cells)):
            raise MachineError("the body element's code leaves a cell of its copy unbound")
        return snap

    # -- inspection -------------------------------------------------------------

    def dump(self) -> str:
        lines = []
        for i, c in enumerate(self.heap):
            if c is None:
                lines.append(f"{i}: ---")
            elif c[0] is REF:
                lines.append(f"{i}: REF {c[1]}")
            else:
                lines.append(f"{i}: {c[0]} {self.h.tname(c[1])}")
        return "\n".join(lines)


# -- subsumption on copies ------------------------------------------------------

def walk(general, specific, h, active=RegSnapshot((), ())):
    """Walk the copy *general* against the copy *specific*, from the
    general root that follows the placeholders for the roots of the
    *active* copy and from the specific copy's first root.  Returns None
    when the two cannot unify; else, when the general copy subsumes the
    specific one, the map from each general offset the walk reaches to
    its specific offset, or to a virtual cell below a specific VAR; else
    False.

    The general copy is a rule's body element (``RuleInfo.elements``),
    whose offsets 0, 1, ... are placeholders for the active copy's roots,
    or the start term.  A placeholder is checked against the active
    copy's node where its parent meets it, and not walked.  Types are
    compared by their masks: t and u have an upper bound in common when
    ``ups[t] & ups[u]`` is not empty, and t subsumes u when ``ups[u]``
    lies within ``ups[t]``.  A feature's arc is found by the specific
    node's type, so features a subtype adds and values it narrows are
    read where they lie; a feature the specific node lacks ends its
    branch.  A VAR cell is the most general structure of its type, as the
    machine's ``_unify`` takes it: a general VAR ends its branch, and a
    specific VAR u reads as a node whose every feature k holds a VAR cell
    of ``approps[u][k]``, shared with nothing.  The map makes sharing in
    the general copy sharing in the specific one; a general node met
    again at another specific node, or at a virtual one, only has its
    type checked, as the walk goes below each general node once, so it
    ends on cycles and costs at most the general copy's arcs.  Copies of
    heads and of the start term hold no unbound cell, as query code fills
    every slot, and ``element_copy`` refuses a body element's copy that
    holds one."""
    ups = h.ups
    features = h.type_features
    gcells = general.cells
    scells = specific.cells
    held = len(active.roots)
    g = general.roots[held]
    s = specific.roots[0]
    c = scells[s]
    if g < held:
        # the element's root is a register an earlier element set
        a = active.cells[active.roots[g]]
        return None if a[0] is not REF and not ups[a[1]] & ups[c[1]] else False
    tag, t = gcells[g]
    common = ups[t] & ups[c[1]]
    if not common:
        return None
    subsumes = common == ups[c[1]]
    mapped = {g: s}
    # each pair on the stack has been checked, and its arcs are to walk.  A
    # node's arcs are met from the last and pushed, so its first arc is
    # walked first, in the order of the element's program code
    stack = [(g, s, c, t)] if tag is STR else []
    while stack:
        g, s, c, t = stack.pop()
        n = len(features[t])
        if c[0] is STR and c[1] == t:
            # nodes of one type have their arcs at the same positions
            arcs = zip(gcells[g + n:g:-1], scells[s + n:s:-1])
        else:
            arcs = _arcs(gcells, g, t, scells, s, c, h)
        for (_, g), (tag, to) in arcs:
            c = scells[to] if tag is REF else to
            if g < held:
                a = active.cells[active.roots[g]]
                if a[0] is not REF and not ups[a[1]] & ups[c[1]]:
                    return None
                continue
            first = g not in mapped
            if first:
                mapped[g] = to
            elif mapped[g] == to and to is not c:
                continue
            else:
                # a second specific node, or a virtual one: its type is
                # checked, but the walk goes below each general node once
                subsumes = False
            tag, t = gcells[g]
            u = ups[c[1]]
            common = ups[t] & u
            if not common:
                return None
            if common != u:
                subsumes = False
            if first and tag is STR and features[t]:
                stack.append((g, to, c, t))
    return subsumes and mapped


def _arcs(gcells, g, t, scells, s, c, h):
    """The arcs of the general node at *g*, of type t, from the last, each
    next to the arc for the same feature of the specific node *c* at *s*,
    or to (None, a virtual cell) where *c* is a VAR; a feature the
    specific node's type lacks is left out."""
    fs = h.type_features[c[1]]
    arcs = []
    for arc, f in enumerate(h.type_features[t], g + 1):
        if f in fs:
            k = fs.index(f)
            arcs.append((gcells[arc], scells[s + 1 + k] if c[0] is STR
                         else (None, (VAR, h.approps[c[1]][k]))))
    return arcs[::-1]

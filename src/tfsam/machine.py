"""The abstract machine: a heap of tagged cells plus the unification engine.

Heap cells are (tag, value) pairs: ``STR t`` starts a node of type t whose
arc cells occupy the following arity(t) addresses, ``REF a`` points at
address a (a cell pointing at itself stands for a value that is not known
yet), and ``VAR t`` is a most general structure of type t that has not
been expanded into cells.  Binding never mutates in place without going
through the trail, so any prefix of work can be undone exactly.

Unifying two nodes looks up the plan for their pair of types (the
hierarchy makes it on the pair's first unification and keeps it), builds
the result skeleton at the top of the heap, binds both operands to it,
and then settles the argument pairs the plan scheduled, depth first,
from a worklist instead of recursing.  Binding both operands before their
arguments is what makes unification of cyclic structures terminate: when
a cycle leads back to the pair being unified, both sides dereference to
the same skeleton and the pair is already settled.

Instructions are linked before they run: ``link`` resolves every type name
to its id, checks every arity against the hierarchy and builds the node
cells once, and ``execute`` runs the resulting flat ops in a single
dispatch loop.  The grammar's code is linked when it is compiled; a
plain instruction list is linked on entry to ``execute``, so nothing runs
unless all of it links.

Structures leave the heap as copies of its cells (``RegSnapshot``), not
as code: a chart edge is such a copy, and restoring it appends the cells
again, rebased to the top of the heap.
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
    stack: int


# Opcodes of linked code.  A linked op is a tuple (opcode, a, b, c) whose
# operands are ready to use: c is the register an op sets or reads, and
#   PUT_NODE       a = the node's cells: its STR cell, then an empty slot
#                      per feature;
#   PUT_VAR        a = the VAR cell;
#   PUT_ARC        a = the node's register, b = the arc's offset,
#                  c = the target's register;
#   GET_STRUCTURE  a = the STR cell to build if the register is unbound
#                      (its type id also selects the plan),
#                  b = the type's arity.
PUT_NODE, PUT_VAR, PUT_ARC, GET_STRUCTURE, UNIFY_VARIABLE, UNIFY_VALUE = range(6)


class Linked:
    """Instructions linked against one hierarchy: one op per instruction."""
    __slots__ = ("ops", "h")

    def __init__(self, ops, h):
        self.ops = ops
        self.h = h

    def __len__(self):
        return len(self.ops)


def link(instrs, h) -> Linked:
    """Link compiled instructions against hierarchy *h*.

    Type names become ids, node cells are built, and put_node and
    get_structure arities are checked against the hierarchy, once.  Control
    instructions are refused here, so code that links runs without any
    further checks on the instructions themselves.  Every term built from
    query code is linked first, so this loop is kept lean: it dispatches
    on the exact class, several times faster than ``match``, and looks
    names up in the hierarchy's table directly."""
    ids = h.ids
    arities = h.arities
    ops = []
    append = ops.append
    try:
        for ins in instrs:
            cls = type(ins)
            if cls is compiler.PutArc:
                append((PUT_ARC, ins.reg, ins.offset, ins.target))
            elif cls is compiler.PutNode:
                t = ids[ins.type]
                if ins.arity != arities[t]:
                    raise _arity_error("put_node", ins)
                append((PUT_NODE, ((STR, t),) + (None,) * ins.arity, None, ins.reg))
            elif cls is compiler.GetStructure:
                t = ids[ins.type]
                if ins.arity != arities[t]:
                    raise _arity_error("get_structure", ins)
                append((GET_STRUCTURE, (STR, t), ins.arity, ins.reg))
            elif cls is compiler.UnifyVariable:
                append((UNIFY_VARIABLE, None, None, ins.reg))
            elif cls is compiler.UnifyValue:
                append((UNIFY_VALUE, None, None, ins.reg))
            elif cls is compiler.PutVar:
                append((PUT_VAR, (VAR, ids[ins.type]), None, ins.reg))
            else:
                raise MachineError(f"instruction {ins!r} is only valid under the parser")
    except KeyError:
        h.tid(ins.type)       # an unknown type name: raises the hierarchy's SpecError
        raise
    return Linked(tuple(ops), h)


def _arity_error(op, ins):
    return MachineError(f"{op} arity {ins.arity} does not match arity({ins.type})")


class RegSnapshot(NamedTuple):
    """Heap-independent copy of the structures in registers ``live``.

    ``cells`` holds every cell reachable from those registers,
    dereferenced, in first-visit order over ordered arcs, with each REF
    cell's address rebased to 0: a node is its STR cell followed by one
    REF per arc, a VAR cell stays unexpanded and an unbound cell is a REF
    to itself.  ``roots`` holds the offset of each register's structure.
    Restoring the copy appends the cells at the top of the heap, adding
    the base to every REF.

    The walk visits nodes in an order fixed by the structure alone, so
    the copy is a canonical form: two snapshots compare and hash equal
    exactly when their live registers match and their structures are
    isomorphic, sharing across registers included.  The parser uses
    snapshots as chart edges, as their duplicate keys and as keys of the
    combines it has already run.  A snapshot is a ``NamedTuple`` and
    compares and hashes like the tuple of its three fields, in C.
    """
    live: tuple[int, ...]
    cells: tuple
    roots: tuple[int, ...]


class MachineState:
    def __init__(self, hierarchy, path_compression=True, eager=False):
        self.h = hierarchy
        self.heap = []
        self.regs = {}
        self.stack = []          # (action, address), action is "copy" or "unify"
        self.trail = []          # (address, previous cell)
        self.path_compression = path_compression
        self.eager = eager

    # -- cells and registers ----------------------------------------------

    @property
    def top(self):
        return len(self.heap)

    def cell(self, a):
        try:
            c = self.heap[a]
        except IndexError:
            raise MachineError(f"address {a} beyond heap top {self.top}") from None
        if c is None:
            raise MachineError(f"arc slot {a} read before it was written")
        return c

    def _set(self, a, cell):
        self.trail.append((a, self.heap[a]))
        self.heap[a] = cell

    def reg(self, i):
        a = self.regs.get(i)
        if a is None:
            raise MachineError(f"register X{i} is unset")
        return a

    def set_reg(self, i, a):
        self.regs[i] = a

    # -- trail ---------------------------------------------------------------

    def checkpoint(self) -> Mark:
        return Mark(len(self.heap), len(self.trail), len(self.stack))

    def undo(self, mark: Mark):
        if (mark.trail > len(self.trail) or mark.heap > len(self.heap)
                or mark.stack > len(self.stack)):
            raise MachineError("undo mark out of order")
        while len(self.trail) > mark.trail:
            a, old = self.trail.pop()
            self.heap[a] = old
        del self.heap[mark.heap:]
        del self.stack[mark.stack:]

    def deref(self, a) -> int:
        path = []
        while True:
            c = self.cell(a)
            if c[0] is not REF or c[1] == a:
                break
            path.append(a)
            a = c[1]
        if self.path_compression and len(path) > 1:
            for p in path[:-1]:
                self._set(p, (REF, a))
        return a

    def bind(self, a, target):
        self._set(a, (REF, target))

    # -- instruction execution ------------------------------------------------

    def execute(self, code, regs=None):
        """Run *code* in register file *regs* (the machine's own by default).

        *code* is either ``Linked`` code or a plain instruction list, which
        is linked first; either way every instruction is checked against
        the hierarchy before the first one writes anything."""
        if type(code) is not Linked:
            code = link(code, self.h)
        elif code.h is not self.h:
            raise MachineError("code was linked against another hierarchy")
        r = self.regs if regs is None else regs
        heap = self.heap
        trail = self.trail
        stack = self.stack
        for op, a, b, c in code.ops:
            if op == PUT_ARC:
                try:
                    addr = r[a] + b
                    target = r[c]
                except KeyError:
                    raise MachineError("put_arc register is unset") from None
                trail.append((addr, heap[addr]))
                heap[addr] = (REF, target)
            elif op == PUT_NODE:
                r[c] = len(heap)
                heap.extend(a)
            elif op == GET_STRUCTURE:
                self._get_structure(a, b, c, r)
            elif op == UNIFY_VARIABLE:
                if not stack:
                    raise MachineError("unify_variable on an empty stack")
                r[c] = stack.pop()[1]
            elif op == UNIFY_VALUE:
                if not stack:
                    raise MachineError("unify_value on an empty stack")
                if c not in r:
                    raise MachineError(f"register X{c} is unset")
                action, addr = stack.pop()
                self._unify([(action, addr, r[c])])
            elif op == PUT_VAR:
                r[c] = len(heap)
                heap.append(a)

    def _get_structure(self, node, n, xi, r):
        """The get_structure op: match register *xi* against a node whose
        STR cell is *node* and whose type has *n* features."""
        if xi not in r:
            raise MachineError(f"register X{xi} is unset")
        addr = self.deref(r[xi])
        r[xi] = addr
        c = self.cell(addr)
        if c[0] is REF:
            # value not known yet: build the most general skeleton of the
            # type and schedule a copy action per argument, popped in
            # argument order
            base = len(self.heap)
            self.heap.append(node)
            for j in range(1, n + 1):
                self.heap.append((REF, base + j))
            for j in range(n, 0, -1):
                self.stack.append(("copy", base + j))
            self.bind(addr, base)
            return
        if c[0] is VAR:
            base = self.build_most_general_fs(c[1])
            self.bind(addr, base)
            addr = base
            c = self.cell(addr)
        self.exec_plan(self.h.plans[node[1]][c[1]], addr)

    # -- plans ---------------------------------------------------------------

    def exec_plan(self, plan, addr):
        """Apply a unification plan at *addr*, whose node has the plan's
        right type.  Schedules one stack entry per feature of the left
        type, in an order that pops back in the left's feature order."""
        if plan.result is None:
            raise UnifyFailure(
                f"{self.h.tname(plan.left)} and {self.h.tname(plan.right)} "
                f"have no upper bound")
        if plan.result == plan.right and self.h.arities[plan.left] == 0:
            return
        base = len(self.heap)
        self.heap.append((STR, plan.result))
        pending = []
        fills = []
        # dispatch on the exact class, as ``link`` does: several times
        # faster than ``match``
        for step in plan.steps:
            cell = len(self.heap)
            cls = type(step)
            if cls is typesys.RightOnly:
                self.heap.append((REF, addr + step.pos))
            elif cls is typesys.LeftOnly:
                self.heap.append((REF, cell))
                pending.append(("copy", cell))
            elif cls is typesys.Both:
                self.heap.append((REF, addr + step.pos))
                pending.append(("unify", cell))
            elif cls is typesys.Introduced:
                if self.eager:
                    self.heap.append((REF, cell))
                    fills.append((cell, step.vtype))
                else:
                    self.heap.append((VAR, step.vtype))
        for cell, vtype in fills:
            self._set(cell, (REF, self._build_eager(vtype, frozenset())))
        self.stack.extend(reversed(pending))
        self.bind(addr, base)

    # -- unification -----------------------------------------------------------

    def unify(self, a1, a2) -> bool:
        try:
            self._unify([("unify", a1, a2)])
            return True
        except UnifyFailure:
            return False

    def _unify(self, work):
        """Settle a worklist of ``(action, cell, address)`` items until it is
        empty.  An item settles when popped, not when pushed, since an earlier
        item can bind a pending copy cell through a cycle: a ``"copy"`` cell
        still unbound is pointed at the address, any other item unifies both.
        A node pair's argument entries move from the stack to the worklist
        reversed, so they settle depth first and in argument order."""
        while work:
            action, a1, a2 = work.pop()
            if action == "copy" and self.heap[a1] == (REF, a1):
                self._set(a1, (REF, a2))
                continue
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
                t = self._join(c1[1], c2[1])
                self._set(a1, (VAR, t))
                self.bind(a2, a1)
                continue
            if c1[0] is VAR:
                if self._join(c1[1], c2[1]) == c2[1]:
                    self.bind(a1, a2)
                    continue
                base = self.build_most_general_fs(c1[1])
                self.bind(a1, base)
                a1, c1 = base, self.cell(base)
            elif c2[0] is VAR:
                if self._join(c1[1], c2[1]) == c1[1]:
                    self.bind(a2, a1)
                    continue
                base = self.build_most_general_fs(c2[1])
                self.bind(a2, base)
                a2, c2 = base, self.cell(base)
            self.exec_plan(self.h.plans[c1[1]][c2[1]], a2)
            # bind the left operand to the result before settling arguments;
            # cycles back into this pair then dereference to the same address
            self.bind(a1, self.deref(a2))
            n = self.h.arities[c1[1]]
            for i in range(n, 0, -1):
                work.append(self.stack[-i] + (a1 + i,))
            del self.stack[len(self.stack) - n:]

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
        if self.eager:
            return self._build_eager(tid, frozenset())
        base = len(self.heap)
        self.heap.append((STR, tid))
        for v in self.h.approps[tid]:
            self.heap.append((VAR, v))
        return base

    def _build_eager(self, tid, on_branch):
        if tid in on_branch:
            raise MachineError(
                f"appropriateness loop at type {self.h.tname(tid)}; "
                f"eager expansion cannot terminate")
        base = len(self.heap)
        vals = self.h.approps[tid]
        self.heap.append((STR, tid))
        self.heap.extend([None] * len(vals))
        for k, v in enumerate(vals, start=1):
            sub = self._build_eager(v, on_branch | {tid})
            self._set(base + k, (REF, sub))
        return base

    # -- building and reading back ------------------------------------------------

    def build(self, roots) -> list[int]:
        """Build term graphs on the heap via query code, in a scratch
        register file; sharing between the given roots is preserved."""
        eqs = terms.flatten(terms.MRS(list(roots)))
        scratch = {}
        self.execute(compiler.compile_query(eqs), scratch)
        return [scratch[r] for r in eqs.roots]

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
                for k in range(arities[c[1]], 0, -1):
                    stack.append((t.args, a + k))
            else:
                t = terms.most_general_term(h, c[1] if c[0] is VAR else typesys.BOT)
            built[a] = t
            args.append(t)
        return out

    def snapshot_regs(self, live) -> RegSnapshot:
        """Copy the structures in registers *live*, walking from an
        explicit stack (see ``RegSnapshot``)."""
        heap = self.heap
        arities = self.h.arities
        offset = {}             # dereferenced heap address -> offset in the copy
        cells = []
        roots = []
        # each stack entry is (the arc cell of the copy that points at the
        # address, or -1 for a root, address); roots, and a node's arcs,
        # are popped in order, so each root is copied before the next
        stack = [(-1, self.regs[i]) for i in reversed(live)]
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
                    cells.append(c)
                    cells.extend([None] * n)
                    stack.extend([(o + k, a + k) for k in range(n, 0, -1)])
                else:
                    cells.append((REF, o) if c[0] is REF else c)
            if arc < 0:
                roots.append(o)
            else:
                cells[arc] = (REF, o)
        return RegSnapshot(tuple(live), tuple(cells), tuple(roots))

    def restore_regs(self, snap: RegSnapshot):
        self.regs = dict(zip(snap.live, self.build_snapshot(snap)))

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

"""The abstract machine: a heap of tagged cells plus the unification engine.

Heap cells are (tag, value) pairs: ``STR t`` starts a node of type t whose
arc cells occupy the following arity(t) addresses, ``REF a`` points at
address a (a cell pointing at itself stands for a value that is not known
yet), and ``VAR t`` is a most general structure of type t that has not
been expanded into cells.  Binding never mutates in place without going
through the trail, so any prefix of work can be undone exactly.

Unifying two nodes looks up the precomputed plan for their pair of types,
builds the result skeleton at the top of the heap, binds both operands to
it, and then settles the argument pairs the plan scheduled, depth first,
from a worklist instead of recursing.  Binding both operands before their
arguments is what makes unification of cyclic structures terminate: when
a cycle leads back to the pair being unified, both sides dereference to
the same skeleton and the pair is already settled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class RegSnapshot:
    """Heap-independent copy of the live registers, restorable later.

    ``roots`` holds the contents of registers ``live`` read back as terms.
    The constructor flattens and compiles them once into query code that
    rebuilds every root with its sharing (``code``), plus the scratch
    register holding each root (``root_regs``).  Restoring only executes
    that code; a snapshot with no live registers, such as a chart edge's
    head, is built with ``build_snapshot``.

    Flattening numbers registers in first-visit order over ordered arcs
    and emits one equation per node, so ``code`` and ``root_regs`` are a
    canonical form: two snapshots compare and hash equal exactly when
    their live registers match and their roots are isomorphic
    (``terms.iso_roots``).  The parser uses snapshots as duplicate keys.
    """
    live: tuple[int, ...]
    roots: tuple = field(compare=False)
    code: tuple = field(init=False, repr=False)
    root_regs: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        eqs = terms.flatten(terms.MRS(list(self.roots)))
        object.__setattr__(self, "code", tuple(compiler.compile_query(eqs)))
        object.__setattr__(self, "root_regs", tuple(eqs.roots))


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

    def execute(self, instrs, regs=None):
        for ins in instrs:
            self.exec_instr(ins, regs)

    def exec_instr(self, ins, regs=None) -> None:
        r = self.regs if regs is None else regs
        match ins:
            case compiler.PutNode(t, n, xi):
                self.exec_put_node(t, n, xi, r)
            case compiler.PutVar(t, xi):
                r[xi] = len(self.heap)
                self.heap.append((VAR, self.h.tid(t)))
            case compiler.PutArc(xi, k, xj):
                self.exec_put_arc(xi, k, xj, r)
            case compiler.GetStructure(t, n, xi):
                self.exec_get_structure(t, n, xi, r)
            case compiler.UnifyVariable(xi):
                self.exec_unify_variable(xi, r)
            case compiler.UnifyValue(xi):
                self.exec_unify_value(xi, r)
            case _:
                raise MachineError(f"instruction {ins!r} is only valid under the parser")

    def exec_put_node(self, t, n, xi, regs=None):
        r = self.regs if regs is None else regs
        tid = self.h.tid(t)
        if n != self.h.arity(tid):
            raise MachineError(f"put_node arity {n} does not match arity({t})")
        r[xi] = len(self.heap)
        self.heap.append((STR, tid))
        self.heap.extend([None] * n)

    def exec_put_arc(self, xi, k, xj, regs=None):
        r = self.regs if regs is None else regs
        if xi not in r or xj not in r:
            raise MachineError("put_arc register is unset")
        self._set(r[xi] + k, (REF, r[xj]))

    def exec_get_structure(self, t, n, xi, regs=None):
        r = self.regs if regs is None else regs
        tid = self.h.tid(t)
        if n != self.h.arity(tid):
            raise MachineError(f"get_structure arity {n} does not match arity({t})")
        if xi not in r:
            raise MachineError(f"register X{xi} is unset")
        addr = self.deref(r[xi])
        r[xi] = addr
        c = self.cell(addr)
        if c[0] is REF:
            # value not known yet: build the most general skeleton of t and
            # schedule a copy action per argument, popped in argument order
            base = len(self.heap)
            self.heap.append((STR, tid))
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
        self.exec_plan(self.h.plan(tid, c[1]), addr)

    def exec_unify_variable(self, xi, regs=None):
        r = self.regs if regs is None else regs
        if not self.stack:
            raise MachineError("unify_variable on an empty stack")
        _, addr = self.stack.pop()
        r[xi] = addr

    def exec_unify_value(self, xi, regs=None):
        r = self.regs if regs is None else regs
        if not self.stack:
            raise MachineError("unify_value on an empty stack")
        if xi not in r:
            raise MachineError(f"register X{xi} is unset")
        action, addr = self.stack.pop()
        self._unify([(action, addr, r[xi])])

    # -- plans ---------------------------------------------------------------

    def exec_plan(self, plan, addr):
        """Apply a unification plan at *addr*, whose node has the plan's
        right type.  Schedules one stack entry per feature of the left
        type, in an order that pops back in the left's feature order."""
        if plan.result is None:
            raise UnifyFailure(
                f"{self.h.tname(plan.left)} and {self.h.tname(plan.right)} "
                f"have no upper bound")
        if plan.result == plan.right and self.h.arity(plan.left) == 0:
            return
        base = len(self.heap)
        self.heap.append((STR, plan.result))
        pending = []
        fills = []
        for step in plan.steps:
            cell = len(self.heap)
            match step:
                case typesys.RightOnly(pos):
                    self.heap.append((REF, addr + pos))
                case typesys.LeftOnly():
                    self.heap.append((REF, cell))
                    pending.append(("copy", cell))
                case typesys.Both(pos):
                    self.heap.append((REF, addr + pos))
                    pending.append(("unify", cell))
                case typesys.Introduced(vtype):
                    if self.eager:
                        self.heap.append((REF, cell))
                        fills.append((cell, vtype))
                    else:
                        self.heap.append((VAR, vtype))
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
            self.exec_plan(self.h.plan(c1[1], c2[1]), a2)
            # bind the left operand to the result before settling arguments;
            # cycles back into this pair then dereference to the same address
            self.bind(a1, self.deref(a2))
            n = self.h.arity(c1[1])
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
        for v in self.h.approp_list(tid):
            self.heap.append((VAR, v))
        return base

    def _build_eager(self, tid, on_branch):
        if tid in on_branch:
            raise MachineError(
                f"appropriateness loop at type {self.h.tname(tid)}; "
                f"eager expansion cannot terminate")
        base = len(self.heap)
        vals = self.h.approp_list(tid)
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
        return self.build_snapshot(RegSnapshot((), tuple(roots)))

    def build_snapshot(self, snap: RegSnapshot) -> list[int]:
        """Execute a snapshot's compiled code in a scratch register file;
        returns the address of each root."""
        scratch = {}
        self.execute(snap.code, scratch)
        return [scratch[r] for r in snap.root_regs]

    def build_term(self, term) -> int:
        return self.build([term])[0]

    def extract(self, addr):
        return self.extract_multi([addr])[0]

    def extract_multi(self, addrs) -> list:
        """Read dereferenced graphs back as normal-form terms.

        Nodes reachable more than once get tags, numbered in first-visit
        order; sharing across the given roots is kept.  VAR cells read
        back as the most general term of their type, self-references as
        the most general term of bot.
        """
        shared = []
        visited = set()
        for root in addrs:
            stack = [self.deref(root)]
            while stack:
                a = stack.pop()
                if a in visited:
                    if a not in shared:
                        shared.append(a)
                    continue
                visited.add(a)
                c = self.cell(a)
                if c[0] is STR:
                    n = self.h.arity(c[1])
                    for k in range(n, 0, -1):
                        stack.append(self.deref(a + k))
        tags = {a: str(i + 1) for i, a in enumerate(shared)}
        built = {}

        def read(a):
            if a in built:
                return terms.BackRef(tags[a])
            c = self.cell(a)
            if c[0] is STR:
                node = terms.Node(self.h.tname(c[1]), [], tags.get(a))
                built[a] = node
                n = self.h.arity(c[1])
                node.args = [read(self.deref(a + k)) for k in range(1, n + 1)]
                return node
            t = terms.most_general_term(self.h, c[1]) if c[0] is VAR \
                else terms.most_general_term(self.h, "bot")
            t.tag = tags.get(a)
            built[a] = t
            return t

        return [read(self.deref(root)) for root in addrs]

    def snapshot_regs(self) -> RegSnapshot:
        live = tuple(sorted(i for i, a in self.regs.items() if a is not None))
        roots = self.extract_multi([self.regs[i] for i in live])
        return RegSnapshot(live, tuple(roots))

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

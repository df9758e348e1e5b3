"""Bottom-up chart parser driving the abstract machine.

The chart is an (n+1) x (n+1) table of edge sets.  An active edge is a
rule with its first ``dot`` body elements already matched; a complete
edge is a finished head.  Instead of heap pointers an edge carries a copy
of heap cells (``machine.RegSnapshot``): an active edge of its registers,
a complete edge of its head alone.  Edges thus stay valid after the heap
is rewound, and a head is read back as a term only where it is printed or
checked against the start term.  A word's seed edges are the copies its
lexical entries made when the grammar compiled (``LexEntry.snapshot``),
so a parse runs rule code only: the pieces ``compile_grammar`` linked,
one per body element and head.  The parser never reads the listing.

Combining an active edge ending at k with a complete edge spanning (k, j)
appends the active edge's copy to the heap to restore its registers,
appends the complete edge's copy as a fresh instance of its head, points
the next body element's root register at it, and executes that element's
program code.  Whatever the outcome, the heap is rewound to the
checkpoint afterwards; a new edge leaves only as a copy.

Before that, a quick check (after Kiefer et al. 1999, "A bag of useful
techniques for efficient and robust parsing", and Malouf, Carroll and
Copestake 2000) refuses most combines that would fail, without touching
the heap.  ``compile_grammar`` reads off each body element's program
code the type each get_structure requires at a feature path from the
element's root (leaving out types no well-typed node there can clash
with), and the path of each unify_value of a register the active edge
already holds.  The check walks the complete edge's copy along each
path, resolving every feature by the type of the node it reaches, and
gives up on a path that leads below a VAR or an unbound cell or along a
feature the node's type lacks.  Where it reaches a node, the node's type must have an upper
bound in common with the required type, or with the type of the
register's node in the active edge's copy.  This is sound: unification
only makes types more specific, so a node whose type has no upper bound
in common with one of these makes the code fail whatever else happens.
A combine the check lets through runs on the machine as before, which
stays the judge of it; a refused one is remembered as failed.

The chart is filled in order of span, by width from 1 to n and from left
to right, with no agenda: Kay 1980 ("Algorithm schemata and data
structures in syntactic processing") shows that the order an agenda
imposes is free.  A span (i, j) first combines the active edges of each
(i, k) with the complete edges of (k, j), cells already closed, then
closes itself under the dot-0 active edges of (i, i).  A cell's edges
stand in the order they were made: a word's seeds, the splits k from
left to right (each active edge of (i, k) against the complete edges of
(k, j) in turn), then the closure.  Duplicate edges (same cell, rule,
dot, and isomorphic saved structures) are dropped, so the chart grows to
a fixed point.  A copy is a canonical form of its structures, so
duplicates are found by a set lookup on a key built from it, not by
comparing structures.

Each distinct combine runs on the machine once per parse.  Its memo is
kept in rows local to the parse: an active edge sits in its cell next to
the row of its rule, dot and copy, found once when the edge is added and
shared by every active edge with those three, and the row maps a complete
edge's copy to the key of the edge the combine made, or to None when the
combine failed.  A later combine with the same inputs makes its edge from
the stored key, over its own span, without touching the machine.  This
is sound because ``_combine`` reads nothing else: it appends both copies
at the top of the heap, runs the rule's linked pieces for that dot from
the restored registers alone, copies the result canonically and rewinds.
The spans only label the new edge, and the heap below the checkpoint is
never reached from the restored registers.  The rows are dropped when the
parse returns, so nothing grows across parses.

A parse has one limit, ``max_items``: it raises ``LimitExceeded`` once
the chart holds more edges.  ``ParseResult.pops`` counts the edges taken
up, each once: every edge but the dot-0 active edges, which only wait in
their cells, so the pops never outnumber the items.

Within one parse every distinct copy is one object.  A dict local to the
parse maps each copy to its canonical object; a seed's copy and the copy
of each machine combine's edge are swapped for it, so a copy is hashed
once where it is made, not on every proposal.  A complete edge sits in
its cell next to ``id()`` of its copy, which the rows key on, and an
edge's key within its cell is its label, or its rule id and dot, with
``id()`` of its copy.  Every edge a span's combines make lands in that
span, so the duplicate check is one set per span, and a proposal is one
dict read, a test for None and a set lookup; an edge object is built
only for a key not yet in the cell.  This is sound: two canonical copies
are the same object exactly when they are equal, and the dict holds
every canonical copy until the parse returns, so no ``id()`` is reused
while a key that holds it is alive.  Equal keys in one cell therefore
mean equal edges, as ``ActiveEdge.key`` and ``CompleteEdge.key`` define
them.  The seeds need no keys, as no rule's label is a lexical entry's
or an input's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import machine, terms
from .machine import REF, STR

EMPTY_SNAPSHOT = machine.RegSnapshot((), (), ())
MISSING = object()      # a memo row's answer for a combine not yet run


class UnknownWordError(Exception):
    def __init__(self, word, position):
        super().__init__(f"word {word!r} (position {position + 1}) is not in the lexicon")
        self.word = word
        self.position = position


class LimitExceeded(Exception):
    def __init__(self, what, limit):
        super().__init__(f"parse exceeded the {what} limit of {limit}")
        self.what = what
        self.limit = limit


@dataclass(eq=False)
class ActiveEdge:
    i: int
    j: int
    info: object            # RuleInfo of the rule being matched
    dot: int                # body elements already matched
    snapshot: machine.RegSnapshot

    @property
    def key(self):
        """Equal for two edges exactly when one duplicates the other."""
        return (self.i, self.j, self.info.rule_id, self.dot, self.snapshot)


@dataclass(eq=False)
class CompleteEdge:
    i: int
    j: int
    source: str             # rule label or lexical entry label
    snapshot: machine.RegSnapshot   # a copy of the head alone
    h: object = field(repr=False)   # the hierarchy of the copy's type ids

    @property
    def head(self):
        """The head, read back from its copy as a term."""
        m = machine.MachineState(self.h)
        return m.extract(m.build_snapshot(self.snapshot)[0])

    @property
    def key(self):
        """Equal for two edges exactly when one duplicates the other."""
        return (self.i, self.j, self.source, self.snapshot)


class Chart:
    def __init__(self, n):
        self.n = n
        self.cells = {}

    def cell(self, i, j):
        return self.cells.get((i, j), [])

    def dump(self) -> str:
        lines = []
        for i, j in sorted(self.cells):
            lines.append(f"({i},{j}):")
            for e in self.cells[(i, j)]:
                if isinstance(e, ActiveEdge):
                    lines.append(f"  {e.info.label} @ {e.dot}")
                else:
                    lines.append(f"  {e.source}: {terms.print_term(e.head)}")
        return "\n".join(lines)


@dataclass
class ParseResult:
    """``heads`` follow the order of chart cell (0, n); ``pops`` counts the
    edges taken up, each once: ``items - len(words) * len(rules)``."""
    words: list
    accepted: bool
    heads: list             # spanning heads compatible with the start term
    items: int
    pops: int
    chart: Chart


class ChartParser:
    def __init__(self, grammar, max_items=100_000, verify_undo=False):
        if max_items < 1:
            raise ValueError(f"the chart item limit must be at least 1, not {max_items}")
        self.grammar = grammar
        self.max_items = max_items
        self.verify_undo = verify_undo

    def parse(self, words) -> ParseResult:
        """Parse a sequence of words through the grammar's lexicon."""
        words = list(words)
        if not words:
            raise ValueError("input must contain at least one word")
        h = self.grammar.hierarchy
        seeds = []
        for i, w in enumerate(words):
            entries = self.grammar.code.lexicon.get(w)
            if not entries:
                raise UnknownWordError(w, i)
            seeds += [CompleteEdge(i, i + 1, e.label, e.snapshot, h) for e in entries]
        return self._run(machine.MachineState(h), words, seeds)

    def parse_terms(self, roots) -> ParseResult:
        """Parse an input given directly as terms, one per position."""
        roots = list(roots)
        if not roots:
            raise ValueError("input must contain at least one term")
        m = machine.MachineState(self.grammar.hierarchy)
        seeds = []
        for i, root in enumerate(roots):
            snap = m.snapshot_regs({0: m.build_term(root)}, [0])
            seeds.append(CompleteEdge(i, i + 1, f"input{i}", snap, m.h))
        return self._run(m, [terms.print_term(r) for r in roots], seeds)

    def _run(self, m, words, seeds) -> ParseResult:
        n = len(words)
        chart = Chart(n)
        cells = chart.cells
        limit = self.max_items
        # each cell's active edges next to their memo rows, and its complete
        # edges next to id() of their copies, in chart order
        actives = {}
        completes = {}
        canon = {EMPTY_SNAPSHOT: EMPTY_SNAPSHOT}    # copy -> its canonical object
        copies = {}     # id(canonical copy) -> the copy
        # (rule id, dot, id(active copy)) -> memo row: id(complete copy) ->
        # the new edge's key within its cell, or None when the combine fails
        rows = {}
        items = 0

        def add(edge):
            nonlocal items
            span = (edge.i, edge.j)
            cells.setdefault(span, []).append(edge)
            if isinstance(edge, ActiveEdge):
                row_key = (edge.info.rule_id, edge.dot, id(edge.snapshot))
                row = rows.get(row_key)
                if row is None:
                    row = rows[row_key] = {}
                actives.setdefault(span, []).append((edge, row))
            else:
                completes.setdefault(span, []).append((id(edge.snapshot), edge))
            items += 1
            if items > limit:
                raise LimitExceeded("chart item", limit)

        def propose(seen, active, complete, cid, row, key):
            """A proposal whose key is not in its cell yet: on a memo miss
            run the combine, else make the edge the row names."""
            info = active.info
            dot = active.dot + 1
            done = dot == len(info.body_code)
            if key is MISSING:
                new = self._combine(m, active, complete)
                if new is None:
                    row[cid] = None
                    return
                snap = new.snapshot = canon.setdefault(new.snapshot, new.snapshot)
                copies[id(snap)] = snap
                key = row[cid] = (info.label, id(snap)) if done else (info.rule_id, dot, id(snap))
                if key in seen:
                    return
            elif done:
                new = CompleteEdge(active.i, complete.j, info.label, copies[key[-1]], m.h)
            else:
                new = ActiveEdge(active.i, complete.j, info, dot, copies[key[-1]])
            seen.add(key)
            add(new)

        for e in seeds:
            e.snapshot = canon.setdefault(e.snapshot, e.snapshot)
            add(e)
        for i in range(n):
            for info in self.grammar.code.rules:
                add(ActiveEdge(i, i, info, 0, EMPTY_SNAPSHOT))

        for width in range(1, n + 1):
            for i in range(n - width + 1):
                j = i + width
                seen = set()    # the keys of the edges combines made in (i, j)
                for k in range(i + 1, j):
                    right = completes.get((k, j))
                    if right is None:
                        continue
                    for a, row in actives.get((i, k), ()):
                        for cid, c in right:
                            key = row.get(cid, MISSING)
                            if key is not None and key not in seen:
                                propose(seen, a, c, cid, row, key)
                # the closure: this list grows while it is iterated, on purpose
                for cid, c in completes.get((i, j), ()):
                    for a, row in actives.get((i, i), ()):
                        key = row.get(cid, MISSING)
                        if key is not None and key not in seen:
                            propose(seen, a, c, cid, row, key)

        heads = [self._start_compatible(m, e) for _, e in completes.get((0, n), ())]
        heads = [h for h in heads if h is not None]
        pops = items - n * len(self.grammar.code.rules)
        return ParseResult(words, bool(heads), heads, items, pops, chart)

    def _combine(self, m, active, complete):
        """The fundamental rule: match a complete head against the next
        body element of an active edge.  Returns the new edge, or None."""
        info = active.info
        if _clashes(info.checks[active.dot], active.snapshot, complete.snapshot, m.h):
            return None
        mark = m.checkpoint()
        before = list(m.heap) if self.verify_undo else None
        try:
            regs = m.restore_regs(active.snapshot)
            head_addr = m.build_snapshot(complete.snapshot)[0]
            x = info.body_root_regs[active.dot]
            if info.body_root_shared[active.dot]:
                # this element's root was already built by an earlier one
                if not m.unify(regs[x], head_addr):
                    raise machine.UnifyFailure
            else:
                regs[x] = head_addr
            m.execute(info.body_code[active.dot], regs)
            dot = active.dot + 1
            if dot == len(info.body_code):
                m.execute(info.head_code, regs)
                new = CompleteEdge(active.i, complete.j, info.label,
                                   m.snapshot_regs(regs, [info.head_root_reg]), m.h)
            else:
                new = ActiveEdge(active.i, complete.j, info, dot,
                                 m.snapshot_regs(regs, sorted(regs)))
        except machine.UnifyFailure:
            new = None
        m.undo(mark)
        if before is not None:
            _check_undo(m, mark, before)
        return new

    def _start_compatible(self, m, edge):
        """The complete *edge*'s head as a term when the start term
        subsumes it (unifying the two gives back something isomorphic to
        the head), else None."""
        mark = m.checkpoint()
        before = list(m.heap) if self.verify_undo else None
        try:
            a_start = m.build_snapshot(self.grammar.code.start)[0]
            a_head = m.build_snapshot(edge.snapshot)[0]
            # the copy's arcs point straight at their targets, so this
            # readout compresses no chain and writes nothing
            head = m.extract(a_head)
            if not m.unify(a_start, a_head):
                return None
            return head if terms.iso(m.extract(a_head), head) else None
        finally:
            m.undo(mark)
            if before is not None:
                _check_undo(m, mark, before)


def _clashes(check, active, complete, h):
    """The quick check: True when the *complete* copy has, at a path the
    next body element's code reads, a type with no upper bound in common
    with the type the code requires there or with the node of the
    register the code unifies there, read from the *active* copy."""
    types, values = check
    cells = complete.cells
    root = complete.roots[0]
    ups = h.ups
    features = h.type_features
    for path, t in types:
        c = _cell_at(cells, root, path, features)
        if c is not None and not ups[c[1]] & ups[t]:
            return True
    for path, r in values:
        c = _cell_at(cells, root, path, features)
        if c is not None:
            held = active.cells[active.roots[active.live.index(r)]]
            if held[0] is not REF and not ups[c[1]] & ups[held[1]]:
                return True
    return False


def _cell_at(cells, o, path, features):
    """The STR or VAR cell at *path* from offset *o* of a copy, or None
    where the path leads below a VAR or an unbound cell, along a feature
    the node's type lacks, or to an unbound cell."""
    c = cells[o]
    for f in path:
        if c[0] is not STR:
            return None
        fs = features[c[1]]
        if f not in fs:
            return None
        o = cells[o + 1 + fs.index(f)][1]
        c = cells[o]
    return None if c[0] is REF else c


def _check_undo(m, mark, before):
    """Raise unless undoing to *mark* restored the heap to *before* cell
    for cell and cut the trail back to the mark."""
    if m.heap != before:
        raise machine.MachineError("undo left the heap changed")
    if len(m.trail) != mark.trail:
        raise machine.MachineError("undo left the trail longer than its mark")

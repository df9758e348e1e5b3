"""Bottom-up chart parser driving the abstract machine.

The chart is an (n+1) x (n+1) table of edge sets.  An active edge is a
rule with its first ``dot`` body elements already matched; a complete
edge is a finished head.  Instead of heap pointers an edge carries a
copy of heap cells (``machine.RegSnapshot``): an active edge of its
registers, a complete edge of its head alone.  A copy holds structures,
not register numbers: the registers an active edge holds are fixed by
its rule and dot, and ``RuleInfo.held`` lists them, sorted, once per
dot, so the copy's k-th root is the k-th register of that list.  A
head's register means nothing once the rule is done, so equal heads from
different rules or lexical entries are one copy and share the memo
entries keyed on it.  Edges thus stay valid after the heap is rewound,
and a head is read back as a term only where it is printed or accepted.
A word's seed edges are the copies its lexical entries made when the
grammar compiled (``LexEntry.snapshot``), so a parse runs rule code
only: the pieces ``compile_grammar`` linked, one per body element and
head.  The parser never reads the listing.  Rule code runs only in
spans of two words or more once a word has been parsed, as its cell is
kept with the grammar (below).

Combining an active edge ending at k with a complete edge spanning
(k, j) appends the active edge's copy to the heap to restore the
registers its rule and dot list, appends the complete edge's copy as a
fresh instance of its head, points the next body element's root register
at it (or unifies the two, where an earlier element set that register),
and executes that element's program code.  Whatever the outcome, the
heap is rewound to the checkpoint afterwards; a new edge leaves only as
a copy.

Before that, a quick check (after Kiefer et al. 1999, "A bag of useful
techniques for efficient and robust parsing", and Malouf, Carroll and
Copestake 2000) refuses most combines that would fail, without touching
the heap.  ``compile_grammar`` reads off each body element's program
code the type each get_structure requires at a feature path from the
element's root (leaving out types no well-typed node there can clash
with), and the path of each unify_value of a register the active edge
already holds, next to that register's index in ``RuleInfo.held``, by
which the check reads its root off the active edge's copy.  The check
walks the complete edge's copy along each path, resolving every feature
by the type of the node it reaches, and gives up on a path that leads
below a VAR or an unbound cell or along a feature the node's type lacks.
Where it reaches a node, the node's type must have an upper bound in
common with the required type, or with the type of the register's node
in the active edge's copy.  This is sound: unification only makes types
more specific, so a node whose type has no upper bound in common with
one of these makes the code fail whatever else happens.  A combine the
check lets through runs on the machine as before, which stays the judge
of it, but for the dot-0 combines below; a refused one is remembered as
failed.

In a rule of two or more body elements, a dot-0 combine the check lets
through is first tested for a match that writes nothing (after Tomabechi
1991, "Quasi-destructive graph unification", which copies nothing where
unification changes nothing).  ``compile_grammar`` keeps a copy of the
first element built by its query code (``RuleInfo.first``), and one
subsumption walk over it and the daughter's copy (``_subsumption_map``)
maps each of the element's registers to the daughter's offset it would
hold.  When the walk accepts and no register maps below a VAR, the
element's program code would write nothing: each get_structure meets a
node whose type its own subsumes, which the plan keeps (a VAR one only
where the element's node has no arcs), and each unify_value meets the
node its register already holds.  The copy the machine would then make
from the registers is the daughter's cells, as a copy is canonical from
its root and the element's root is the first register, so the new active
edge's copy is those cells with the registers' offsets as roots, made
without the heap; it shares the daughter's cells.  Any other dot-0
combine runs on the machine as before.

The chart is filled in order of span, by width from 1 to n and from left
to right, with no agenda: Kay 1980 ("Algorithm schemata and data
structures in syntactic processing") shows that the order an agenda
imposes is free.  A span (i, j) first combines the active edges of each
(i, k) with the complete edges of (k, j), cells already closed, then
closes itself under the dot-0 active edges of (i, i).  Those edges enter
every (i, i) as one list, all ``n * len(rules)`` of them counted in one
step.  A cell's edges stand in the order they were made: a word's seeds,
the splits k from left to right (each active edge of (i, k) against the
complete edges of (k, j) in turn), then the closure.  Duplicate edges
(same cell, rule, dot, and isomorphic saved structures) are dropped, so
the chart grows to a fixed point.  A copy is a canonical form of its
structures, so duplicates are found by the identity of edges made once
per parse (below), not by comparing structures.

A width-1 cell is a word's seeds closed under the dot-0 edges, so the
grammar and the word alone fix it.  The first parse that closes it keeps
it with the grammar (``CodeArea.word_cells``): one (copy, label,
RuleInfo or None, dot) per edge, in cell order.  Later parses replay
it, each edge made and added as the closure would make and add it, so
canonical copies, edge identity, the item count and the limit behave
as before; a memo function over the static part of the input (Michie
1968, "'Memo' functions and machine learning").  A closure cut short by
the item limit keeps nothing.  The kept cells stay with the grammar and
never change, one per lexicon word at most.  An input of terms is not
words, so it neither reads nor fills them.

Each distinct combine runs at most once per parse.  Its memo is kept in
rows local to the parse, one per active edge, and a row maps a complete
edge's copy to the edge the combine made, or to None when the combine
failed.  A later combine with the same inputs adds that edge to its own
cell without touching the machine.  This is sound because ``_combine``
reads nothing else: it reads the two copies alone for a match, and
otherwise appends both copies at the top of the heap, runs the rule's
linked pieces for that dot from the restored registers alone, copies
the result canonically and rewinds, and returns the copy.  The heap
below the checkpoint is never reached from the restored registers, and
no span reaches the machine.  The rows are dropped when the parse
returns, and a replayed word cell brings none back: a wider span that
reaches a dot-0 edge with a copy of that cell runs the combine again and
gets the same edge.  So only the word cells grow across parses, bounded
by the lexicon.

A spanning head is accepted when the start term subsumes it.  That is
tested on the copies alone, the start copy the grammar made when it
loaded (``CodeArea.start``) and the head's, in one walk over both
(``_subsumes``), and only an accepted head is read back.  The walk so
serves two callers, this filter and the dot-0 match above.  So
``_combine`` is the only code of the parser that touches a parse's
heap, and ``verify_undo`` checks the heap and the trail there.

A parse has one limit, ``max_items``: it raises ``LimitExceeded`` once
the chart holds more edges.  ``ParseResult.pops`` counts the edges taken
up, each once: every edge but the dot-0 active edges, which only wait in
their cells, so the pops never outnumber the items.

An edge holds no span, as the cell that holds it states one: an active
edge is its rule, dot and copy, a complete edge its label and copy.
Within one parse every distinct copy is one object, and so is every
distinct edge.  A dict local to the parse maps each copy to its
canonical object, and another maps an edge's label, or its rule id and
dot, with ``id()`` of its canonical copy, to the edge; the seeds, the
dot-0 active edges, every combine's result and every replayed edge are
made through them, so a combine's copy is hashed once, where it is
made, and one edge object sits in every cell it belongs to: a word's
seed in each cell of that word, a rule's dot-0 edge in every (i, i).  A
complete edge sits in its cell next to ``id()`` of its copy, which the
rows key on.  Every edge a span's combines make lands in that span, so
the duplicate check is one identity set of edges per span, and a
proposal is one dict read, a test for None and a set lookup.  This is
sound: two canonical copies are the same object exactly when they are
equal, and the dict holds every canonical copy until the parse returns,
so no ``id()`` is reused while a key that holds it is alive.  Two edges
of one cell are therefore one object exactly when they have equal keys,
as ``ActiveEdge.key`` and ``CompleteEdge.key`` define them, and no
combine makes a seed, as no rule's label is a lexical entry's or an
input's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import machine, terms
from .machine import REF, STR, VAR

EMPTY_SNAPSHOT = machine.RegSnapshot((), ())
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
    info: object            # RuleInfo of the rule being matched
    dot: int                # body elements already matched
    snapshot: machine.RegSnapshot

    @property
    def key(self):
        """Equal for two edges of one cell exactly when one duplicates the other."""
        return (self.info.rule_id, self.dot, self.snapshot)


@dataclass(eq=False)
class CompleteEdge:
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
        """Equal for two edges of one cell exactly when one duplicates the other."""
        return (self.source, self.snapshot)


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
        lexicon = self.grammar.code.lexicon
        seeds = []
        for i, w in enumerate(words):
            entries = lexicon.get(w)
            if not entries:
                raise UnknownWordError(w, i)
            seeds.append([(e.label, e.snapshot) for e in entries])
        return self._run(machine.MachineState(self.grammar.hierarchy), words, seeds,
                         self.grammar.code.word_cells)

    def parse_terms(self, roots) -> ParseResult:
        """Parse an input given directly as terms, one per position."""
        roots = list(roots)
        if not roots:
            raise ValueError("input must contain at least one term")
        m = machine.MachineState(self.grammar.hierarchy)
        seeds = [[(f"input{i}", m.snapshot_regs({0: m.build_term(root)}, [0]))]
                 for i, root in enumerate(roots)]
        return self._run(m, [terms.print_term(r) for r in roots], seeds)

    def _run(self, m, words, seeds, word_cells=None) -> ParseResult:
        """Fill the chart of *words* from *seeds*, a list per position of
        (label, copy) pairs.  *word_cells*, the grammar's kept width-1
        cells by word, is read and filled when given."""
        n = len(words)
        chart = Chart(n)
        cells = chart.cells
        limit = self.max_items
        rules = self.grammar.code.rules
        # each cell's active edges next to their memo rows, and its complete
        # edges next to id() of their copies, in chart order
        actives = {}
        completes = {}
        canon = {EMPTY_SNAPSHOT: EMPTY_SNAPSHOT}    # copy -> its canonical object
        edges = {}      # (label or (rule id, dot), id(canonical copy)) -> the edge
        # active edge -> memo row: id(complete copy) -> the edge the
        # combine made, or None when it fails
        rows = {}
        items = 0

        def edge(snap, label, info=None, dot=0):
            """The parse's one complete edge of *label*, or active edge of
            *info* at *dot* when *info* is given, with this copy."""
            snap = canon.setdefault(snap, snap)
            key = (label if info is None else (info.rule_id, dot), id(snap))
            e = edges.get(key)
            if e is None:
                if info is None:
                    e = edges[key] = CompleteEdge(label, snap, m.h)
                else:
                    e = edges[key] = ActiveEdge(info, dot, snap)
                    rows[e] = {}
            return e

        def add(span, e):
            nonlocal items
            cells.setdefault(span, []).append(e)
            if type(e) is ActiveEdge:
                actives.setdefault(span, []).append((e, rows[e]))
            else:
                completes.setdefault(span, []).append((id(e.snapshot), e))
            items += 1
            if items > limit:
                raise LimitExceeded("chart item", limit)

        def propose(span, seen, active, complete, cid, row, new):
            """A proposal whose edge is not in its cell yet: on a memo miss
            run the combine first."""
            if new is MISSING:
                snap = self._combine(m, active, complete)
                info = active.info
                dot = active.dot + 1
                new = row[cid] = None if snap is None else edge(
                    snap, info.label, info if dot < len(info.body_code) else None, dot)
                if new is None or new in seen:
                    return
            seen.add(new)
            add(span, new)

        def close(i, span, seen):
            """Close *span*, starting at *i*, under the dot-0 active edges
            of (i, i)."""
            # this list grows while it is iterated, on purpose
            for cid, c in completes.get(span, ()):
                for a, row in actives.get((i, i), ()):
                    new = row.get(cid, MISSING)
                    if new is not None and new not in seen:
                        propose(span, seen, a, c, cid, row, new)

        # the dot-0 edges enter every (i, i) as one list, counted at once
        dot0 = [edge(EMPTY_SNAPSHOT, info.label, info) for info in rules]
        if dot0:
            dot0_rows = [(e, rows[e]) for e in dot0]
            for i in range(n):
                cells[(i, i)] = list(dot0)
                actives[(i, i)] = dot0_rows
            items = n * len(dot0)
            if items > limit:
                raise LimitExceeded("chart item", limit)

        # width 1: a word's cell is its seeds closed under the dot-0 edges,
        # which the grammar and the word alone fix.  Replay the cell the
        # word's first parse kept, or build it and keep it once its closure
        # has finished; a LimitExceeded on the way keeps nothing
        for i, w in enumerate(words):
            span = (i, i + 1)
            kept = None if word_cells is None else word_cells.get(w)
            if kept is not None:
                for spec in kept:
                    add(span, edge(*spec))
                continue
            for label, snap in seeds[i]:
                add(span, edge(snap, label))
            close(i, span, set())
            if word_cells is not None:
                word_cells[w] = tuple(
                    (e.snapshot, e.info.label, e.info, e.dot) if type(e) is ActiveEdge
                    else (e.snapshot, e.source, None, 0) for e in cells[span])

        for width in range(2, n + 1):
            for i in range(n - width + 1):
                j = i + width
                span = (i, j)
                seen = set()    # the edges combines put in this span
                for k in range(i + 1, j):
                    right = completes.get((k, j))
                    if right is None:
                        continue
                    for a, row in actives.get((i, k), ()):
                        for cid, c in right:
                            new = row.get(cid, MISSING)
                            if new is not None and new not in seen:
                                propose(span, seen, a, c, cid, row, new)
                close(i, span, seen)

        start = self.grammar.code.start
        heads = [e.head for _, e in completes.get((0, n), ()) if _subsumes(start, e.snapshot, m.h)]
        pops = items - n * len(rules)
        return ParseResult(words, bool(heads), heads, items, pops, chart)

    def _combine(self, m, active, complete):
        """The fundamental rule: match a complete head against the next
        body element of an active edge.  Returns the new edge's copy (its
        registers, or its head alone once the body is matched), or None.
        A dot-0 match the first element's copy subsumes is read off the
        daughter's copy; any other runs on the machine."""
        info = active.info
        if _clashes(info.checks[active.dot], active.snapshot, complete.snapshot, m.h):
            return None
        if active.dot == 0 and info.first is not None:
            # a daughter the element subsumes is matched without a write:
            # the machine's copy is the daughter's, re-rooted at the
            # element's registers, unless one maps to a virtual cell (a
            # tuple) below a VAR, which the machine would expand
            mapped = _subsumption_map(info.first, complete.snapshot, m.h)
            if mapped is not None:
                roots = tuple(map(mapped.__getitem__, info.first.roots))
                if tuple not in map(type, roots):
                    return machine.RegSnapshot(complete.snapshot.cells, roots)
        mark = m.checkpoint()
        before = list(m.heap) if self.verify_undo else None
        try:
            regs = m.restore_regs(active.snapshot, info.held[active.dot])
            head_addr = m.build_snapshot(complete.snapshot)[0]
            x = info.body_root_regs[active.dot]
            # a root an earlier element built must unify with the head
            if x in regs and not m.unify(regs[x], head_addr):
                raise machine.UnifyFailure
            regs.setdefault(x, head_addr)
            m.execute(info.body_code[active.dot], regs)
            if active.dot + 1 == len(info.body_code):
                m.execute(info.head_code, regs)
                new = m.snapshot_regs(regs, [info.head_root_reg])
            else:
                new = m.snapshot_regs(regs, info.held[active.dot + 1])
        except machine.UnifyFailure:
            new = None
        m.undo(mark)
        if before is not None and m.heap != before:
            raise machine.MachineError("undo left the heap changed")
        if before is not None and len(m.trail) != mark.trail:
            raise machine.MachineError("undo left the trail longer than its mark")
        return new


def _subsumes(general, specific, h):
    """True when the copy *general* subsumes the copy *specific* (see
    ``_subsumption_map``)."""
    return _subsumption_map(general, specific, h) is not None


def _subsumption_map(general, specific, h):
    """When the copy *general* subsumes the copy *specific*, tested in one
    walk over both from their first roots (as Malouf, Carroll and
    Copestake 2000 test it, in one pass over two graphs), the map from
    each offset of the general copy the walk reaches to its specific
    offset, or to a virtual cell below a specific VAR; else None.

    A map from offsets of the general copy to offsets of the specific one
    makes sharing in the general copy sharing in the specific one.  Types
    are compared by their masks: t subsumes u when ``ups[u]`` lies within
    ``ups[t]``.  A feature's arc is found by the specific node's type, so
    features a subtype adds and values it narrows are read where they lie.
    A VAR cell is the most general structure of its type, as the
    machine's ``_unify`` takes it: a general VAR t ends its branch, as
    every well-typed node of a type at least t is an instance of it, and a
    specific VAR u reads as a node whose every feature k holds a VAR cell
    of ``approps[u][k]``.
    Those virtual cells are shared with nothing, so sharing in the general
    copy that reaches below a specific VAR fails.  Copies of heads, of the
    start term and of a rule's first element hold no unbound cell: query
    code fills every slot, and every register of program code gets its
    own get_structure."""
    ups = h.ups
    features = h.type_features
    gcells = general.cells
    scells = specific.cells
    # general offset -> specific offset, or the virtual cell below a specific VAR
    mapped = {}
    stack = [(general.roots[0], specific.roots[0])]
    while stack:
        g, s = stack.pop()
        if g in mapped:
            if type(s) is tuple or mapped[g] != s:
                return None
            continue
        mapped[g] = s
        c = s if type(s) is tuple else scells[s]
        tag, t = gcells[g]
        if ups[t] | ups[c[1]] != ups[t]:
            return None
        if tag is STR:
            fs = features[c[1]]
            for arc, f in enumerate(features[t], g + 1):
                k = fs.index(f)
                stack.append((gcells[arc][1], scells[s + 1 + k][1] if c[0] is STR
                              else (VAR, h.approps[c[1]][k])))
    return mapped


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
    for path, k in values:
        c = _cell_at(cells, root, path, features)
        held = active.cells[active.roots[k]]
        if c is not None and held[0] is not REF and not ups[c[1]] & ups[held[1]]:
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

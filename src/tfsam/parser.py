"""Bottom-up chart parser driving the abstract machine.

The chart is an (n+1) x (n+1) table of edge sets.  An active edge is a
rule with its first ``dot`` body elements matched, a complete edge a
finished head.  An edge carries no heap pointers but a copy of heap
cells (``machine.RegSnapshot``): an active edge of the registers its
rule and dot hold, which ``RuleInfo.held`` lists, sorted, so the copy's
k-th root is the k-th register of that list; a complete edge of its
head alone, so equal heads from different rules or lexical entries are
one copy.  Edges thus stay valid after the heap is rewound.  A word's
lexicon entry (``CodeArea.lexicon``) holds its seeds as ``(copy, label)``
pairs, the copies its lexical entries made when the grammar compiled,
and a parse takes that list as it is, so it runs rule code only, the
pieces ``compile_grammar`` linked, and never reads the listing.

A combine of an active edge ending at k with a complete edge spanning
(k, j) first hands the next body element's copy (``RuleInfo.elements``)
and the daughter's to the machine's walk over two copies
(``machine.walk``), which refuses a combine whose unification must fail
without touching the heap.  At dot 0 of a rule of two or more body
elements, where the element subsumes the daughter and no register maps
below a daughter VAR, the element's code would write nothing (after
Tomabechi 1991, "Quasi-destructive graph unification"), so the new
active edge's copy is the daughter's cells with the registers' offsets
as roots, and shares them.  Any other combine runs on the machine, which
judges it: the active edge's copy is appended to restore its registers,
the daughter's as a fresh instance, the element's root register points
at it (or unifies with it, where an earlier element set that register),
the element's code runs, and the result is copied before the heap is
rewound to the checkpoint.  So the parser holds spans, edges, the memo
and the word cells, and reads no cell of a copy.

The chart is filled in order of span, by width from 1 to n and from left
to right, with no agenda (Kay 1980, "Algorithm schemata and data
structures in syntactic processing").  A span (i, j) combines the active
edges of each (i, k) with the complete edges of (k, j), split by split,
then closes itself under the dot-0 active edges of (i, i), which enter
every (i, i) as one list.  A width-1 cell is a word's seeds closed under
the dot-0 edges, fixed by the grammar and the word, so the first parse
that closes it keeps it with the grammar (``CodeArea.word_cells``) and
later parses replay it edge by edge; a closure cut short by the item
limit keeps nothing, and an input of terms neither reads nor fills them.

A span reads only some of its splits (after Schmid 2004, "Efficient
parsing of highly ambiguous context-free grammars with bit vectors").
Each parse keeps, per start i, the bit mask of the ends k of each active
edge in a cell (i, k), and per end j the mask of the starts k of each
complete copy in a cell (k, j), with the union of each side's masks, so
bit k of both masks of a pair marks a split where the pair meets.  A
span visits only the splits both unions mark.  When two or more are
marked and its start and end hold no more edge pairs than it has splits,
it visits only the splits where some pair first meets, the lowest bit of
the pair's two masks ANDed; finding those costs a step per pair, so a
span with more pairs than splits visits every marked split.  A split it
skips holds no pair, or only pairs met at an earlier split of the span,
whose memo entry is set and whose edge, if any, is in the span already:
the skip changes no cell, no order of edges and no combine.

Each distinct combine runs at most once per parse: a memo row per active
edge maps a complete edge's copy to the edge the combine made, or to
None.  This is sound because ``_combine`` reads the two copies and the
grammar alone: the walk reads the copies, and the machine runs the
rule's linked code from the restored registers, which never reach the
heap below the checkpoint.  The rows are dropped when the parse returns.
Within one parse every distinct copy is one object and so is every
distinct edge, interned by label or (rule id, dot) with ``id()`` of the
canonical copy, so a duplicate is found by identity per span.  The
canonicalising dict holds every copy until the parse returns, so no
``id()`` is reused while a key holds it.

A spanning head is accepted when the start term subsumes it, tested by
the same walk over the start copy the grammar made when it loaded
(``CodeArea.start``) and the head's; only an accepted head is read back.
So ``_combine`` is the only code of the parser that touches a parse's
heap, and ``verify_undo`` checks the heap and the trail there.  A parse
raises ``LimitExceeded`` once the chart holds more than ``max_items``
edges; ``ParseResult.pops`` counts every edge but the dot-0 ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import machine, terms

EMPTY_SNAPSHOT = machine.RegSnapshot((), ())
MISSING = object()      # a memo row's answer for a combine not yet run
MAX_ITEMS = 100_000     # the chart item limit unless the caller sets one


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
    edges taken up, each once: ``items - n * len(rules)`` for n words."""
    accepted: bool
    heads: list             # spanning heads compatible with the start term
    items: int
    pops: int
    chart: Chart


class ChartParser:
    def __init__(self, grammar, max_items=MAX_ITEMS, verify_undo=False):
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
            if w not in lexicon:
                raise UnknownWordError(w, i)
            seeds.append(lexicon[w])
        return self._run(machine.MachineState(self.grammar.hierarchy), words, seeds,
                         self.grammar.code.word_cells)

    def parse_terms(self, roots) -> ParseResult:
        """Parse an input given directly as terms, one per position."""
        roots = list(roots)
        if not roots:
            raise ValueError("input must contain at least one term")
        m = machine.MachineState(self.grammar.hierarchy)
        seeds = [[(m.snapshot_regs({0: m.build_term(root)}, [0]), f"input{i}")]
                 for i, root in enumerate(roots)]
        return self._run(m, roots, seeds)

    def _run(self, m, words, seeds, word_cells=None) -> ParseResult:
        """Fill the chart of *words* from *seeds*, a list per position of
        (copy, label) specs of complete edges, the form ``edge`` takes, a
        lexicon entry holds and a kept cell's entries have.  *word_cells*,
        the grammar's kept width-1 cells by word, is read and filled when
        given; without it *words* is read only for its length."""
        n = len(words)
        chart = Chart(n)
        cells = chart.cells
        limit = self.max_items
        rules = self.grammar.code.rules
        # cell (i, k) by position i * stride + k: slots holds its chart list,
        # and, in chart order, actives its active edges next to their memo
        # rows and completes its complete edges next to id() of their
        # copies.  amasks[i] maps an active edge starting at i to the bit
        # mask of its ends, and ends[i] is the union of those masks;
        # cmasks[j] maps id() of a complete copy ending at j to the mask of
        # its starts, and starts[j] is their union
        stride = n + 1
        slots = [None] * (stride * stride)
        actives = [None] * (stride * stride)
        completes = [None] * (stride * stride)
        amasks = [{} for _ in range(stride)]
        cmasks = [{} for _ in range(stride)]
        ends = [0] * stride
        starts = [0] * stride
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

        def add(i, j, e):
            nonlocal items
            at = i * stride + j
            cell = slots[at]
            if cell is None:
                cell = slots[at] = cells[(i, j)] = []
                actives[at], completes[at] = [], []
            cell.append(e)
            if type(e) is ActiveEdge:
                actives[at].append((e, rows[e]))
                masks = amasks[i]
                masks[e] = masks.get(e, 0) | 1 << j
                ends[i] |= 1 << j
            else:
                cid = id(e.snapshot)
                completes[at].append((cid, e))
                masks = cmasks[j]
                masks[cid] = masks.get(cid, 0) | 1 << i
                starts[j] |= 1 << i
            items += 1
            if items > limit:
                raise LimitExceeded("chart item", limit)

        def propose(i, j, seen, active, complete, cid, row, new):
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
            add(i, j, new)

        def close(i, j, seen):
            """Close span (i, j) under the dot-0 active edges of (i, i)."""
            dot0 = actives[i * stride + i] or ()
            # this list grows while it is iterated, on purpose
            for cid, c in completes[i * stride + j] or ():
                for a, row in dot0:
                    new = row.get(cid, MISSING)
                    if new is not None and new not in seen:
                        propose(i, j, seen, a, c, cid, row, new)

        # the dot-0 edges enter every (i, i) as one list, counted at once
        dot0 = [edge(EMPTY_SNAPSHOT, info.label, info) for info in rules]
        if dot0:
            dot0_rows = [(e, rows[e]) for e in dot0]
            for i in range(n):
                cells[(i, i)] = slots[i * stride + i] = list(dot0)
                actives[i * stride + i] = dot0_rows
            items = n * len(dot0)
            if items > limit:
                raise LimitExceeded("chart item", limit)

        # width 1: a word's cell is its seeds closed under the dot-0 edges,
        # which the grammar and the word alone fix.  Replay the cell the
        # word's first parse kept, or build it and keep it once its closure
        # has finished; a LimitExceeded on the way keeps nothing
        for i, w in enumerate(words):
            kept = None if word_cells is None else word_cells.get(w)
            for spec in seeds[i] if kept is None else kept:
                add(i, i + 1, edge(*spec))
            if kept is None:
                close(i, i + 1, set())
                if word_cells is not None:
                    word_cells[w] = tuple(
                        (e.snapshot, e.info.label, e.info, e.dot) if type(e) is ActiveEdge
                        else (e.snapshot, e.source, None, 0) for e in cells[(i, i + 1)])

        for width in range(2, n + 1):
            for i in range(n - width + 1):
                j = i + width
                # the splits k whose cells (i, k) and (k, j) hold edges to combine
                splits = ends[i] & starts[j]
                if not splits:
                    continue
                if splits & (splits - 1):
                    left, right = amasks[i].values(), cmasks[j].values()
                    if len(left) * len(right) <= width - 1:
                        # only the splits where some edge pair first meets:
                        # for each pair, the lowest bit its masks share
                        splits = 0
                        for a in left:
                            for c in right:
                                both = a & c
                                splits |= both & -both
                seen = set()    # the edges combines put in this span
                while splits:
                    k = (splits & -splits).bit_length() - 1
                    splits &= splits - 1
                    right = completes[k * stride + j]
                    for a, row in actives[i * stride + k]:
                        for cid, c in right:
                            new = row.get(cid, MISSING)
                            if new is not None and new not in seen:
                                propose(i, j, seen, a, c, cid, row, new)
                close(i, j, seen)

        start = self.grammar.code.start
        heads = [e.head for _, e in completes[n] or ()     # cell (0, n)
                 if machine.walk(start, e.snapshot, m.h)]
        pops = items - n * len(rules)
        return ParseResult(bool(heads), heads, items, pops, chart)

    def _combine(self, m, active, complete):
        """The fundamental rule: match a complete head against the next
        body element of an active edge.  Returns the new edge's copy (its
        registers, or its head alone once the body is matched), or None.
        The walk over the element's copy and the daughter's refuses a
        combine that must fail, and reads off a dot-0 match the element
        subsumes; any other combine runs on the machine."""
        info = active.info
        mapped = machine.walk(info.elements[active.dot], complete.snapshot, m.h, active.snapshot)
        if mapped is None:
            return None
        if mapped and active.dot == 0 and len(info.body_code) > 1:
            # a daughter the element subsumes is matched without a write:
            # the machine's copy is the daughter's, re-rooted at the
            # element's registers, unless one maps to a virtual cell (a
            # tuple) below a VAR, which the machine would expand
            roots = tuple(map(mapped.__getitem__, info.elements[0].roots))
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

"""Bottom-up chart parser driving the abstract machine.

The chart is an (n+1) x (n+1) table of edge sets.  An active edge is a
rule with its first ``dot`` body elements matched, a complete edge a
finished head.  An edge carries no heap pointers but a copy of heap
cells (``machine.RegSnapshot``): an active edge of the registers its
rule and dot hold, which ``RuleInfo.held`` lists, sorted, so the copy's
k-th root is the k-th register of that list; a complete edge of its
head alone, so equal heads from different rules or lexical entries are
one copy.  Edges thus stay valid after the heap is rewound.  A word's
seed edges are the copies its lexical entries made when the grammar
compiled, so a parse runs rule code only, the pieces ``compile_grammar``
linked, and never reads the listing.

A combine of an active edge ending at k with a complete edge spanning
(k, j) first walks the next body element's copy (``RuleInfo.elements``)
against the daughter's, both from their roots, in one pass over the two
graphs (``_walk``, after Malouf, Carroll and Copestake 2000, "Efficient
feature structure operations without compilation"; the element's copy
stands for the feature paths Kiefer et al. 1999, "A bag of useful
techniques for efficient and robust parsing", read off a grammar for
their quick check).  The walk refuses the combine where a node pair's
types have no upper bound in common, or where a placeholder of a
register the active edge holds meets a daughter node with none in common
with that register's node in the active copy: unification only makes
types more specific, so the element's code would fail.  A refused
combine touches no heap.  At dot 0 of a rule of two or more body
elements, where the element subsumes the daughter and no register maps
below a daughter VAR, the element's code would write nothing (after
Tomabechi 1991, "Quasi-destructive graph unification"), so the new
active edge's copy is the daughter's cells with the registers' offsets
as roots, and shares them.  Any other combine runs on the machine, which
judges it: the active edge's copy is appended to restore its registers,
the daughter's as a fresh instance, the element's root register points
at it (or unifies with it, where an earlier element set that register),
the element's code runs, and the result is copied before the heap is
rewound to the checkpoint.

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
        heads = [e.head for _, e in completes.get((0, n), ()) if _walk(start, e.snapshot, m.h)]
        pops = items - n * len(rules)
        return ParseResult(words, bool(heads), heads, items, pops, chart)

    def _combine(self, m, active, complete):
        """The fundamental rule: match a complete head against the next
        body element of an active edge.  Returns the new edge's copy (its
        registers, or its head alone once the body is matched), or None.
        The walk over the element's copy and the daughter's refuses a
        combine that must fail, and reads off a dot-0 match the element
        subsumes; any other combine runs on the machine."""
        info = active.info
        mapped = _walk(info.elements[active.dot], complete.snapshot, m.h, active.snapshot)
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


def _walk(general, specific, h, active=EMPTY_SNAPSHOT):
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
    heads, of the start term and of body elements hold no unbound cell:
    query code fills every slot."""
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

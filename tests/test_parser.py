import gc
import hashlib
import importlib.util
import random
import weakref
from pathlib import Path

import pytest

from tfsam import compiler, grammar, machine, parser, terms, typesys
from tfsam.parser import (MAX_ITEMS, ActiveEdge, ChartParser, CompleteEdge, LimitExceeded,
                          UnknownWordError)
from tfsam.terms import iso, parse_term

import oracle
from conftest import (AGREEMENT_GRAMMAR, AMBIGUOUS_GRAMMAR, CHAIN_GRAMMAR, EXAMPLE_SPEC, HPSG_GRAMMAR,
                      LEXICON_ONLY_GRAMMAR, LOOP_SPEC, SELF_FEEDING_GRAMMAR, SPAN_WIDTH_GRAMMAR,
                      TOY_GRAMMAR)


def _complete(source, text, h):
    """A complete edge whose head is *text*, built on a machine and copied."""
    m = machine.MachineState(h)
    snap = m.snapshot_regs({1: m.build_term(parse_term(text, h))}, [1])
    return CompleteEdge(source, snap, h)


def _key(e):
    """Equal for two edges of one cell exactly when one duplicates the other."""
    if isinstance(e, ActiveEdge):
        return (e.info.rule_id, e.dot, e.snapshot)
    return (e.source, e.snapshot)


def test_toy_parse_accepts(toy_grammar):
    p = ChartParser(toy_grammar, verify_undo=True)
    result = p.parse(["w1", "w2"])
    assert result.accepted
    assert len(result.heads) == 1
    assert iso(result.heads[0], parse_term("a(d2,d)", toy_grammar.hierarchy))


def test_toy_parse_rejects_swapped_words(toy_grammar):
    result = ChartParser(toy_grammar, verify_undo=True).parse(["w2", "w1"])
    assert not result.accepted
    assert result.heads == []


def test_rule_head_copies_reentrant_value(toy_grammar):
    # the head's second argument is tagged to the first body element's,
    # so a more specific input value must surface in the parse head
    h = toy_grammar.hierarchy
    p = ChartParser(toy_grammar, verify_undo=True)
    result = p.parse_terms([parse_term("a(d2,d1)", h), parse_term("d1", h)])
    assert result.accepted
    assert iso(result.heads[0], parse_term("a(d2,d1)", h))
    spanning = [e for e in result.chart.cell(0, 2)
                if isinstance(e, CompleteEdge)]
    assert len(spanning) == 1
    assert spanning[0].source == "rule0"


def test_initial_chart_contents(toy_grammar):
    result = ChartParser(toy_grammar).parse(["w1", "w2"])
    for i in range(2):
        dot0 = [e for e in result.chart.cell(i, i)
                if isinstance(e, ActiveEdge) and e.dot == 0]
        assert len(dot0) == 1
        assert dot0[0].info.label == "rule0"
    assert result.chart.cell(2, 2) == []
    lexical = [e for e in result.chart.cell(0, 1) if isinstance(e, CompleteEdge)]
    assert [e.source for e in lexical] == ["lex_w1"]


def test_unary_chain_edge_meets_later_complete(chain_grammar):
    # rule tq, tx => ts can only advance past tx after the unary rule
    # tp => tq has produced tq in the unary closure of the first word's cell
    result = ChartParser(chain_grammar, verify_undo=True).parse(["p", "x"])
    assert result.accepted
    assert iso(result.heads[0], parse_term("ts", chain_grammar.hierarchy))


def test_a_grammar_without_rules_parses_single_words():
    g = grammar.load_grammar(LEXICON_ONLY_GRAMMAR)
    p = ChartParser(g, verify_undo=True)
    one = p.parse(["w"])
    assert [terms.print_term(h) for h in one.heads] == ["a"]
    assert (one.items, one.pops) == (1, 1)
    two = p.parse(["w", "w"])
    assert not two.accepted
    assert (two.items, two.pops) == (2, 2)


def test_heads_follow_the_span_order():
    # cells fill by width, left to right; a cell's edges stand in the
    # order they were made (splits left to right, then the closure), and
    # the heads in the order of cell (0, n)
    g = grammar.load_grammar(oracle.random_grammar(random.Random(98)))
    result = ChartParser(g, verify_undo=True).parse(["w2", "w0", "w0"])
    spanning = [e.head for e in result.chart.cell(0, 3) if isinstance(e, CompleteEdge)]
    assert ([terms.print_term(h) for h in result.heads] == [terms.print_term(h) for h in spanning]
            == ["t4", "t3", "t5", "t4", "t3", "t5"])


def test_a_cells_edges_follow_the_split_order():
    # the edge of split k = 1 stands before the edge of split k = 2; no
    # conftest grammar makes distinct edges from two splits of one span
    g = grammar.load_grammar(oracle.random_grammar(random.Random(220)))
    result = ChartParser(g, verify_undo=True).parse(["w0", "w2", "w1"])
    spanning = [(e.source, terms.print_term(e.head)) for e in result.chart.cell(0, 3)
                if isinstance(e, CompleteEdge)]
    assert spanning == [("rule0", "#1 t3(#1,t1)"), ("rule1", "#1 t3(#1,t1)")]
    assert [terms.print_term(h) for h in result.heads] == [h for _, h in spanning]


def test_ambiguity_yields_distinct_heads(ambiguous_grammar):
    result = ChartParser(ambiguous_grammar, verify_undo=True).parse(["w1", "w2"])
    assert result.accepted
    assert len(result.heads) == 2
    assert not iso(result.heads[0], result.heads[1])
    spanning = [e for e in result.chart.cell(0, 2) if isinstance(e, CompleteEdge)]
    assert len(spanning) == 2


def test_self_feeding_rule_reaches_fixed_point(self_feeding_grammar):
    result = ChartParser(self_feeding_grammar, verify_undo=True).parse(["q"])
    assert result.accepted
    # lexical tq plus the rule-derived duplicate and one active edge or so
    assert result.items <= 6
    assert result.pops <= 6


def test_duplicate_heads_are_suppressed(self_feeding_grammar):
    result = ChartParser(self_feeding_grammar).parse(["q"])
    completes = [e for e in result.chart.cell(0, 1) if isinstance(e, CompleteEdge)]
    assert sorted(e.source for e in completes) == ["lex_q", "rule0"]


def test_start_term_filters_spanning_heads():
    g = grammar.load_grammar(EXAMPLE_SPEC + """
        lex w1 => a(d2,d).
        lex w2 => d.
        rule a(bot,#3 d), d => a(d2,#3).
        start => a(d2,d1).
    """)
    result = ChartParser(g).parse(["w1", "w2"])
    assert not result.accepted
    spanning = [e for e in result.chart.cell(0, 2) if isinstance(e, CompleteEdge)]
    assert len(spanning) == 1    # derived, but more general than the start term


def test_start_term_is_built_once_when_the_grammar_loads(ambiguous_grammar, monkeypatch):
    # the start term is kept as a copy, so a parse of words builds nothing
    # from terms, even for the spanning heads it checks against the start
    def refuse(*args):
        raise AssertionError("a term was built during the parse")

    monkeypatch.setattr(terms, "flatten", refuse)
    result = ChartParser(ambiguous_grammar, verify_undo=True).parse(["w1", "w2"])
    assert len(result.heads) == 2
    assert ambiguous_grammar.code.start.cells == ((machine.STR, 0),)


def test_a_parse_runs_only_rule_code(toy_grammar, monkeypatch):
    # a word's seed edges are the copies its lexical entries made when the
    # grammar compiled, so the machine runs no lexical code during a parse
    rule_code = {id(c) for info in toy_grammar.code.rules
                 for c in info.body_code + [info.head_code]}
    ran = []
    execute = machine.MachineState.execute

    def recorded(self, code, regs):
        ran.append(code)
        return execute(self, code, regs)

    monkeypatch.setattr(machine.MachineState, "execute", recorded)
    result = ChartParser(toy_grammar, verify_undo=True).parse(["w1", "w2"])
    assert result.accepted
    assert ran and all(id(c) in rule_code for c in ran)


def test_shared_body_root_must_unify_with_both_elements(monkeypatch):
    # the second element's root is the placeholder of the register the
    # first set, so the walk checks the daughter against the active
    # copy's node there: e(d,d) has no upper bound in common with a and is
    # refused before the machine runs, and a(d2,d) goes on to the machine
    g = grammar.load_grammar(EXAMPLE_SPEC + """
        rule #1 a(bot,d), #1 => a(d2,d).
        start => bot.
    """)
    h = g.hierarchy
    log = []
    combine = ChartParser._combine
    restore = machine.MachineState.restore_regs

    def logged(p, m, active, complete):
        log.append((active.dot, terms.print_term(complete.head)))
        new = combine(p, m, active, complete)
        log.append("refused" if new is None else "made")
        return new

    def restored(m, snap, live):
        log.append("restore_regs")
        return restore(m, snap, live)

    monkeypatch.setattr(ChartParser, "_combine", logged)
    monkeypatch.setattr(machine.MachineState, "restore_regs", restored)
    p = ChartParser(g, verify_undo=True)
    same = p.parse_terms([parse_term("a(d2,d)", h), parse_term("a(d2,d)", h)])
    assert same.accepted
    at = log.index((1, "a(d2,d)"))
    assert log[at + 1:at + 3] == ["restore_regs", "made"]
    log.clear()
    clash = p.parse_terms([parse_term("a(d2,d)", h), parse_term("e(d,d)", h)])
    assert not clash.accepted
    at = log.index((1, "e(d,d)"))
    assert log[at + 1] == "refused" and "restore_regs" not in log


def test_unknown_word_is_reported_with_position(toy_grammar):
    with pytest.raises(UnknownWordError) as err:
        ChartParser(toy_grammar).parse(["w1", "zz"])
    assert err.value.word == "zz"
    assert err.value.position == 1
    assert "position 2" in str(err.value)


def test_empty_input_is_rejected(toy_grammar):
    with pytest.raises(ValueError):
        ChartParser(toy_grammar).parse([])
    with pytest.raises(ValueError):
        ChartParser(toy_grammar).parse_terms([])


def test_item_limit(toy_grammar):
    with pytest.raises(LimitExceeded) as err:
        ChartParser(toy_grammar, max_items=1).parse(["w1", "w2"])
    assert err.value.what == "chart item"
    with pytest.raises(ValueError, match="at least 1"):
        ChartParser(toy_grammar, max_items=0)


@pytest.mark.parametrize("fixture,sentence", [
    ("toy_grammar", "w1 w2"), ("toy_grammar", "w2 w1"), ("ambiguous_grammar", "w1 w2"),
    ("chain_grammar", "p x"), ("self_feeding_grammar", "q"), ("self_feeding_grammar", "q q"),
    ("lexicon_only", "w w w"), ("agreement_grammar", "w w w"),
    ("agreement_grammar", "v w v v w w"), ("agreement_grammar", " ".join(["w"] * 24)),
    ("hpsg_grammar", "kim sees dogs"), ("hpsg_grammar", "kim and kim sees dogs and dogs")])
def test_item_limit_is_exact(request, fixture, sentence):
    # a chart of exactly max_items edges parses; one edge fewer is refused
    if fixture == "lexicon_only":
        g = grammar.load_grammar(LEXICON_ONLY_GRAMMAR)
    else:
        g = request.getfixturevalue(fixture)
    words = sentence.split()
    full = ChartParser(g).parse(words)
    limited = ChartParser(g, max_items=full.items).parse(words)
    assert (limited.items, limited.chart.dump()) == (full.items, full.chart.dump())
    with pytest.raises(LimitExceeded):
        ChartParser(g, max_items=full.items - 1).parse(words)


def test_parse_is_deterministic(ambiguous_grammar):
    p = ChartParser(ambiguous_grammar)
    first = p.parse(["w1", "w2"])
    second = p.parse(["w1", "w2"])
    assert first.items == second.items
    assert first.pops == second.pops
    assert terms.iso_roots(first.heads, second.heads)


def test_chart_dump(toy_grammar):
    result = ChartParser(toy_grammar).parse(["w1", "w2"])
    dump = result.chart.dump()
    assert "(0,0):" in dump
    assert "rule0 @ 0" in dump
    assert "lex_w1: a(d2,d)" in dump
    assert "rule0: a(d2,d)" in dump


def test_parse_terms_labels_positions(toy_grammar):
    h = toy_grammar.hierarchy
    result = ChartParser(toy_grammar).parse_terms(
        [parse_term("a(d2,d)", h), parse_term("d", h)])
    dump = result.chart.dump()
    assert "input0: a(d2,d)" in dump
    assert "input1: d" in dump


def test_combine_rewinds_heap_even_on_success(toy_grammar):
    p = ChartParser(toy_grammar)
    m = machine.MachineState(toy_grammar.hierarchy)
    h = toy_grammar.hierarchy
    info = toy_grammar.code.rules[0]
    active = ActiveEdge(info, 0, parser.EMPTY_SNAPSHOT)
    complete = _complete("lex_w1", "a(d2,d)", h)
    before = list(m.heap)
    new = p._combine(m, active, complete)
    assert isinstance(new, machine.RegSnapshot)
    assert len(new.roots) > 1    # an active edge's registers, not a head alone
    assert m.heap == before
    failing = _complete("lex_w2", "d", h)
    assert p._combine(m, active, failing) is None
    assert m.heap == before


# -- pinned behaviour ---------------------------------------------------------------

PINNED = [
    ("toy_grammar", "w1 w2", 7, 5, 1, """\
(0,0):
  rule0 @ 0
(0,1):
  lex_w1: a(d2,d)
  rule0 @ 1
(0,2):
  rule0: a(d2,d)
  rule0 @ 1
(1,1):
  rule0 @ 0
(1,2):
  lex_w2: d"""),
    ("toy_grammar", "w2 w1", 5, 3, 0, """\
(0,0):
  rule0 @ 0
(0,1):
  lex_w2: d
(1,1):
  rule0 @ 0
(1,2):
  lex_w1: a(d2,d)
  rule0 @ 1"""),
    # (0,2) holds two active edges per rule: one has consumed the lexical
    # a(d2,d), the other the derived b(d,d), so neither duplicates the other
    ("ambiguous_grammar", "w1 w2", 14, 10, 2, """\
(0,0):
  rule0 @ 0
  rule1 @ 0
(0,1):
  lex_w1: a(d2,d)
  rule0 @ 1
  rule1 @ 1
(0,2):
  rule0: a(d2,d)
  rule1: b(d,d)
  rule0 @ 1
  rule1 @ 1
  rule0 @ 1
  rule1 @ 1
(1,1):
  rule0 @ 0
  rule1 @ 0
(1,2):
  lex_w2: d"""),
    ("chain_grammar", "p x", 9, 5, 1, """\
(0,0):
  rule0 @ 0
  rule1 @ 0
(0,1):
  lex_p: tp
  rule0: tq
  rule1 @ 1
(0,2):
  rule1: ts
(1,1):
  rule0 @ 0
  rule1 @ 0
(1,2):
  lex_x: tx"""),
    ("self_feeding_grammar", "q", 3, 2, 2, """\
(0,0):
  rule0 @ 0
(0,1):
  lex_q: tq
  rule0: tq"""),
    ("self_feeding_grammar", "q q", 6, 4, 0, """\
(0,0):
  rule0 @ 0
(0,1):
  lex_q: tq
  rule0: tq
(1,1):
  rule0 @ 0
(1,2):
  lex_q: tq
  rule0: tq"""),
]


@pytest.mark.parametrize("fixture,sentence,items,pops,heads,dump", PINNED)
def test_pinned_parses(request, fixture, sentence, items, pops, heads, dump):
    g = request.getfixturevalue(fixture)
    result = ChartParser(g, verify_undo=True).parse(sentence.split())
    assert (result.items, result.pops, len(result.heads)) == (items, pops, heads)
    assert result.chart.dump() == dump


def test_hand_built_edges_combine_like_parsed_ones(toy_grammar):
    h = toy_grammar.hierarchy
    p = ChartParser(toy_grammar, verify_undo=True)
    m = machine.MachineState(h)
    info = toy_grammar.code.rules[0]
    start = ActiveEdge(info, 0, parser.EMPTY_SNAPSHOT)
    # a complete edge may be built from any term, tags and all
    mid_copy = p._combine(m, start, _complete("lex_w1", "a(d2,#5 d)", h))
    assert isinstance(mid_copy, machine.RegSnapshot)
    mid = ActiveEdge(info, 1, mid_copy)
    done_copy = p._combine(m, mid, _complete("lex_w2", "d", h))
    assert isinstance(done_copy, machine.RegSnapshot)
    done = CompleteEdge(info.label, done_copy, h)
    assert done.source == "rule0"
    assert terms.print_term(done.head) == "a(d2,d)"
    chart = p.parse(["w1", "w2"]).chart
    assert _key(mid) in {_key(e) for e in chart.cell(0, 1)}
    assert _key(done) in {_key(e) for e in chart.cell(0, 2)}
    assert machine.walk(toy_grammar.code.start, done_copy, h)
    assert m.heap == [] and m.trail == []


# -- verify_undo ----------------------------------------------------------------------

def _undo_keeping_top_cell(m, mark):
    while len(m.trail) > mark.trail:
        a, old = m.trail.pop()
        m.heap[a] = old
    del m.heap[mark.heap + 1:]


def _undo_keeping_trail(m, mark):
    for a, old in reversed(m.trail[mark.trail:]):
        m.heap[a] = old
    del m.heap[mark.heap:]


@pytest.mark.parametrize("broken", [_undo_keeping_top_cell, _undo_keeping_trail])
def test_verify_undo_catches_a_broken_undo(toy_grammar, monkeypatch, broken):
    h = toy_grammar.hierarchy
    p = ChartParser(toy_grammar, verify_undo=True)
    info = toy_grammar.code.rules[0]
    active = ActiveEdge(info, 0, parser.EMPTY_SNAPSHOT)
    # the rule reads an a node where the head has a g node, so the result
    # is a new node and the head's node is bound to it through the trail;
    # a head of type a would be kept, and an undo that forgets the trail
    # would have nothing to forget
    complete = _complete("lex_w1", "g(d)", h)
    written = []        # the trail entries each broken undo had to take back

    def broken_machine():
        m = machine.MachineState(h)

        def undo(mark):
            written.append(len(m.trail) - mark.trail)
            broken(m, mark)
        monkeypatch.setattr(m, "undo", undo)
        return m

    with pytest.raises(machine.MachineError, match="undo left"):
        p._combine(broken_machine(), active, complete)
    assert written.pop() > 0
    # without the check the same breakage goes unnoticed
    assert isinstance(ChartParser(toy_grammar)._combine(broken_machine(), active, complete),
                      machine.RegSnapshot)
    assert written.pop() > 0


LOOP_GRAMMAR = LOOP_SPEC + """
lex q => t(~t).
rule #1 bot => #1.
start => t(~t).
"""


def test_unexpanded_leaf_reaches_a_fixed_point():
    # a ~t leaf stays one VAR cell in every copy, so the rule's edge over
    # its own result is a duplicate; when each copy expanded the leaf one
    # level further, the chart grew until the item limit stopped it
    g = grammar.load_grammar(LOOP_GRAMMAR)
    result = ChartParser(g, max_items=8, verify_undo=True).parse(["q"])
    assert (result.items, result.pops) == (3, 2)
    assert [terms.print_term(head) for head in result.heads] == ["t(t(~t))"] * 2
    assert result.chart.dump() == "(0,0):\n  rule0 @ 0\n(0,1):\n  lex_q: t(t(~t))\n  rule0: t(t(~t))"


def test_a_head_equal_to_the_start_term_under_a_loop_is_accepted():
    # the start term t(t(~t)) and the head t(~t) are both the most general
    # structure of t; read back, the head prints as the start term does
    g = grammar.load_grammar(LOOP_SPEC + "lex w => t(~t).\nstart => t(t(~t)).\n")
    result = ChartParser(g, verify_undo=True).parse(["w"])
    assert [terms.print_term(head) for head in result.heads] == ["t(t(~t))"]


# -- the per-parse memo of combines --------------------------------------------------

AGREEMENT_SENTENCES = ["w", "w v", "w w w", "v w v v", "w w w w w",
                       "v v v v v v", "w w v w w w w", "v v v v v v v v"]


def _random_closure_case(seed):
    """A seeded random grammar's text and a sentence of one to four of its
    words w0, w1, w2."""
    rng = random.Random(seed)
    text = oracle.random_grammar(rng)
    return text, " ".join(f"w{rng.randrange(3)}" for _ in range(rng.randint(1, 4)))


RANDOM_CLOSURE_CASES = {f"random{seed}": _random_closure_case(seed) for seed in range(20)}

# the pinned sentences of the conftest grammars, named by their fixtures,
# then the grammars given here by their text
CLOSURE_TEXTS = {"loop": LOOP_GRAMMAR, "agreement": AGREEMENT_GRAMMAR,
                 **{name: text for name, (text, _) in RANDOM_CLOSURE_CASES.items()}}
CLOSURE_CASES = (list(dict.fromkeys((fixture, sentence) for fixture, sentence, *_ in PINNED))
                 + [("loop", "q")]
                 + [("agreement", sentence) for sentence in AGREEMENT_SENTENCES]
                 + [(name, sentence) for name, (_, sentence) in RANDOM_CLOSURE_CASES.items()])


@pytest.mark.parametrize("name,sentence", CLOSURE_CASES)
def test_chart_is_closed_under_the_fundamental_rule(request, name, sentence):
    # every combine of an active edge with a complete edge to its right,
    # run afresh on a fresh machine, fails or gives an edge already in the
    # chart: answering repeated combines from the memo loses no edge
    text = CLOSURE_TEXTS.get(name)
    g = request.getfixturevalue(name) if text is None else grammar.load_grammar(text)
    chart = ChartParser(g, verify_undo=True).parse(sentence.split()).chart
    keys = {(span, _key(e)) for span, cell in chart.cells.items() for e in cell}
    p = ChartParser(g, verify_undo=True)
    tried = 0
    for (i, k), cell in list(chart.cells.items()):
        for a in cell:
            if not isinstance(a, ActiveEdge):
                continue
            info = a.info
            dot = a.dot + 1
            for j in range(k + 1, chart.n + 1):
                for c in chart.cell(k, j):
                    if isinstance(c, CompleteEdge):
                        new = p._combine(machine.MachineState(g.hierarchy), a, c)
                        key = ((info.label, new) if dot == len(info.body_code)
                               else (info.rule_id, dot, new))
                        assert new is None or ((i, j), key) in keys, (a, c)
                        tried += 1
    assert tried


def test_each_distinct_combine_runs_once(monkeypatch):
    # a uniform sentence repeats the same few combines over every span;
    # only the first of each is tried (by the quick check, then on the
    # machine), so the count does not grow with the sentence.  A later
    # parse starts its memo afresh but replays the w cell the first one
    # kept: only the combines of wider spans run, the two of rule1 @ 1 and
    # the two dot-0 ones on s(sg) in the closure of (0, 2), whose outcomes
    # the replay does not carry over
    g = grammar.load_grammar(AGREEMENT_GRAMMAR)
    calls = []
    combine = ChartParser._combine

    def counted(p, m, active, complete):
        calls.append((active, complete))
        return combine(p, m, active, complete)

    monkeypatch.setattr(ChartParser, "_combine", counted)
    p = ChartParser(g, verify_undo=True)
    counts = []
    for n in (4, 8, 8):
        calls.clear()
        result = p.parse(["w"] * n)
        assert [terms.print_term(head) for head in result.heads] == ["s(sg)"]
        counts.append(len(calls))
    assert counts == [6, 4, 4]


# -- word cells kept on the grammar ---------------------------------------------------

# every conftest grammar by its text, with sentences that repeat words
GRAMMAR_TEXTS = {"toy": TOY_GRAMMAR, "ambiguous": AMBIGUOUS_GRAMMAR, "chain": CHAIN_GRAMMAR,
                 "self_feeding": SELF_FEEDING_GRAMMAR, "lexicon_only": LEXICON_ONLY_GRAMMAR,
                 "agreement": AGREEMENT_GRAMMAR, "hpsg": HPSG_GRAMMAR,
                 "span_width": SPAN_WIDTH_GRAMMAR}
WARM_CASES = [("toy", "w1 w2 w2"), ("toy", "w2 w1 w1 w2"), ("ambiguous", "w1 w2 w1 w2"),
              ("chain", "p x p x"), ("chain", "p p x"), ("self_feeding", "q q q"),
              ("lexicon_only", "w w"), ("agreement", "w v w w v"),
              ("hpsg", "kim sees kim and kim"), ("hpsg", "kim and kim sees dogs and dogs")]


def _outcome(result):
    return (result.items, result.pops, [terms.print_term(h) for h in result.heads],
            result.chart.dump())


@pytest.mark.parametrize("name,sentence", WARM_CASES)
def test_a_warm_parse_equals_a_cold_one(name, sentence):
    # the first parse on a grammar keeps each word's cell, and later ones
    # replay it: the same parse again, and on another grammar the parse
    # after one of the reversed sentence, whose cells these words share
    words = sentence.split()
    g = grammar.load_grammar(GRAMMAR_TEXTS[name])
    p = ChartParser(g, verify_undo=True)
    cold = _outcome(p.parse(words))
    assert _outcome(p.parse(words)) == cold
    other = grammar.load_grammar(GRAMMAR_TEXTS[name])
    ChartParser(other, verify_undo=True).parse(words[::-1])
    assert _outcome(ChartParser(other, verify_undo=True).parse(words)) == cold


@pytest.mark.parametrize("name,sentence", WARM_CASES)
def test_a_warm_parse_runs_no_dot0_combine_on_a_seed(monkeypatch, name, sentence):
    # a seed sits only in its word's cell, whose closure the first parse
    # ran and later ones replay
    g = grammar.load_grammar(GRAMMAR_TEXTS[name])
    words = sentence.split()
    seeds = {label for w in words for _, label in g.code.lexicon[w]}
    tried = []
    combine = ChartParser._combine

    def counted(p, m, active, complete):
        tried.append((active.dot, complete.source))
        return combine(p, m, active, complete)

    monkeypatch.setattr(ChartParser, "_combine", counted)
    on_seeds = []
    for _ in range(2):
        tried.clear()
        ChartParser(g, verify_undo=True).parse(words)
        on_seeds.append(sum(dot == 0 and source in seeds for dot, source in tried))
    assert on_seeds[1] == 0
    assert on_seeds[0] > 0 or not g.code.rules


def test_word_cells_hold_one_entry_per_distinct_word_parsed():
    # a word's cell is kept on its first parse and never changed; an input
    # of terms is not words, so it neither reads nor fills them
    g = grammar.load_grammar(HPSG_GRAMMAR)
    p = ChartParser(g)
    kim = parse_term("sign(sg, noun, nil, human, nil)", g.hierarchy)
    p.parse_terms([kim])
    assert g.code.word_cells == {}
    parsed = set()
    for sentence in HPSG_SENTENCES:
        kept = dict(g.code.word_cells)
        p.parse(sentence.split())
        parsed.update(sentence.split())
        assert set(g.code.word_cells) == parsed
        assert all(g.code.word_cells[w] is cell for w, cell in kept.items())
    kept = dict(g.code.word_cells)
    p.parse_terms([kim, kim])
    assert g.code.word_cells == kept
    # a cell holds its word's seeds first, in entry order, then its closure
    for w, cell in kept.items():
        seeds = g.code.lexicon[w]
        assert [(copy, label) for copy, label, _, _ in cell[:len(seeds)]] == seeds


@pytest.mark.parametrize("name,sentence", [("chain", "p x p"), ("agreement", "w v w"),
                                           ("hpsg", "kim sees kim and kim")])
def test_a_cell_is_kept_only_once_its_closure_finishes(name, sentence):
    # under each item limit below the chart's size, a cold parse keeps the
    # cells of the words whose closure finished before the limit was hit,
    # each as a full parse keeps it, and a warm parse raises as the cold
    # one does
    text = GRAMMAR_TEXTS[name]
    words = sentence.split()
    warm = grammar.load_grammar(text)
    full = ChartParser(warm).parse(words)
    reference = warm.code.word_cells
    for limit in range(1, full.items):
        closed = set()
        items = len(words) * len(warm.code.rules)
        for w in words:
            items += len(reference[w])
            if items > limit:
                break
            closed.add(w)
        cold = grammar.load_grammar(text)
        with pytest.raises(LimitExceeded):
            ChartParser(cold, max_items=limit).parse(words)
        assert cold.code.word_cells == {w: reference[w] for w in closed}
        with pytest.raises(LimitExceeded):
            ChartParser(warm, max_items=limit).parse(words)
    assert _outcome(ChartParser(warm, max_items=full.items).parse(words)) == _outcome(full)


@pytest.mark.parametrize("sentence", ["w w w w w w w w", "w v w w"])
def test_a_duplicate_proposal_builds_no_edge(monkeypatch, sentence):
    # every edge object made during a parse goes into the chart, none twice
    # in one cell, and the identity keys of the parse agree with the edges'
    # value keys: no two edges of a cell have equal keys
    g = grammar.load_grammar(AGREEMENT_GRAMMAR)
    built = []
    for cls in (ActiveEdge, CompleteEdge):
        def counted(self, *args, init=cls.__init__, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    result = ChartParser(g, verify_undo=True).parse(sentence.split())
    cells = result.chart.cells.values()
    assert {id(e) for e in built} == {id(e) for cell in cells for e in cell}
    assert all(len({id(e) for e in cell}) == len(cell) for cell in cells)
    assert sum(len({_key(e) for e in cell}) for cell in cells) == result.items
    assert len(built) < result.items


def test_an_edge_is_one_object_in_every_cell_it_belongs_to(agreement_grammar):
    # an edge is its rule, dot and copy, or its label and copy; the cell
    # states its span, so a parse makes each edge once, whatever its cells
    result = ChartParser(agreement_grammar, verify_undo=True).parse(["w", "w", "w"])
    cell = result.chart.cell
    seed = [e for e in cell(0, 1) if isinstance(e, CompleteEdge) and e.source == "lex_w"]
    assert len(seed) == 1
    assert all(seed[0] in cell(i, i + 1) for i in (1, 2))
    dot0 = cell(0, 0)
    assert [e.info.label for e in dot0] == [info.label for info in agreement_grammar.code.rules]
    assert all(len(cell(i, i)) == len(dot0) and all(a is b for a, b in zip(cell(i, i), dot0))
               for i in (1, 2))


def test_equal_heads_from_different_rules_are_one_copy(agreement_grammar):
    # rule 0 makes s(sg) from register 3 and rule 1 from register 4; a copy
    # does not record its registers, so both heads are one canonical copy
    # and share the memo entries keyed on it
    result = ChartParser(agreement_grammar, verify_undo=True).parse(["w", "w"])
    cell = result.chart.cell
    (by_rule0,) = [e for e in cell(0, 1) if isinstance(e, CompleteEdge) and e.source == "rule0"]
    (by_rule1,) = [e for e in cell(0, 2) if isinstance(e, CompleteEdge) and e.source == "rule1"]
    assert terms.print_term(by_rule0.head) == terms.print_term(by_rule1.head) == "s(sg)"
    assert by_rule0.snapshot is by_rule1.snapshot
    assert [info.head_root_reg for info in agreement_grammar.code.rules] == [3, 4]


def test_no_hierarchy_outlives_its_grammar():
    # linked code and complete edges hold their hierarchy, so nothing that
    # lives longer than the grammar, such as the module's empty snapshot,
    # may keep any
    g = grammar.load_grammar(TOY_GRAMMAR)
    result = ChartParser(g).parse(["w1", "w2"])
    assert result.accepted
    result = ChartParser(g).parse_terms([parse_term("a(d2,d1)", g.hierarchy),
                                         parse_term("d1", g.hierarchy)])
    assert result.accepted
    ref = weakref.ref(g.hierarchy)
    del g, result
    gc.collect()
    assert ref() is None


# -- refusal by the walk -------------------------------------------------------------

HPSG_SENTENCES = ["kim sleeps", "dogs sleeps", "sleeps kim", "rock sleeps",
                  "kim sees rex", "rex pats kim", "kim pats kim", "kim and rex sleeps",
                  "kim sees kim and kim", "kim and kim sees dogs and dogs"]
WALK_CASES = ([("toy_grammar", s) for s in ("w1 w2", "w2 w1", "w1 w2 w2", "w2 w2 w1")]
              + [("agreement_grammar", s) for s in AGREEMENT_SENTENCES]
              + [("hpsg_grammar", s) for s in HPSG_SENTENCES])


@pytest.mark.parametrize("name,sentence", WALK_CASES)
def test_the_walks_refusals_change_no_parse(monkeypatch, name, sentence):
    # a combine the walk refuses fails on the machine too, so a walk
    # that never refuses changes no count, head or chart.  Each outcome
    # loads its grammar afresh, so it runs the combines of the word cells
    # too rather than replaying them
    refused = []
    walk = machine.walk

    def check(*args):
        mapped = walk(*args)
        refused.append(mapped is None)
        return mapped

    def never_refuses(*args):
        mapped = walk(*args)
        return False if mapped is None else mapped

    def outcome():
        g = grammar.load_grammar(GRAMMAR_TEXTS[name.removesuffix("_grammar")])
        return _outcome(ChartParser(g, verify_undo=True).parse(sentence.split()))

    monkeypatch.setattr(machine, "walk", check)
    checked = outcome()
    monkeypatch.setattr(machine, "walk", never_refuses)
    assert outcome() == checked
    if name == "hpsg_grammar" and sentence != "kim sleeps":
        assert any(refused) and not all(refused)


def test_a_refused_combine_never_reaches_the_machine(monkeypatch):
    # on "w v" the s + s combine clashes in agreement and every other
    # one that fails in category: the walk refuses them before
    # restore_regs or execute runs.  Of the combines it lets through, the
    # two whose daughter s(#1 agr) subsumes are read off the daughter's
    # copy and run nothing, and the others run on the machine.  The
    # grammar is loaded afresh, so no word cell is replayed, and no head
    # spans the sentence, so the start filter walks nothing
    g = grammar.load_grammar(AGREEMENT_GRAMMAR)
    log = []
    walk = machine.walk

    def check(*args):
        mapped = walk(*args)
        log.append("refused" if mapped is None else "passed")
        return mapped

    monkeypatch.setattr(machine, "walk", check)
    for name in ("restore_regs", "execute"):
        def run(m, *args, name=name, f=getattr(machine.MachineState, name)):
            log.append(name)
            return f(m, *args)
        monkeypatch.setattr(machine.MachineState, name, run)
    combine = ChartParser._combine

    def tried(p, m, active, complete):
        log.append((active.info.label, active.dot, terms.print_term(complete.head)))
        return combine(p, m, active, complete)

    monkeypatch.setattr(ChartParser, "_combine", tried)
    result = ChartParser(g, verify_undo=True).parse(["w", "v"])
    assert result.heads == []
    runs = []       # (the combine tried, what it ran)
    for entry in log:
        if isinstance(entry, tuple):
            runs.append((entry, []))
        else:
            runs[-1][1].append(entry)
    assert sorted(c for c, ran in runs if ran == ["refused"]) == [
        ("rule0", 0, "s(pl)"), ("rule0", 0, "s(sg)"),
        ("rule1", 0, "np(pl)"), ("rule1", 0, "np(sg)"),
        ("rule1", 1, "np(pl)"), ("rule1", 1, "s(pl)")]
    passed = [ran for _, ran in runs if ran != ["refused"]]
    assert len(passed) == 4
    assert sorted(c for c, ran in runs if ran == ["passed"]) == [
        ("rule1", 0, "s(pl)"), ("rule1", 0, "s(sg)")]
    assert all(ran[:3] == ["passed", "restore_regs", "execute"]
               for ran in passed if ran != ["passed"])


def test_the_walk_refuses_only_failing_unifications():
    # b as a rule's one body element against a copy of a, over random
    # pairs: every pair the walk refuses fails to unify in the reference
    # unifier
    rng = random.Random(13)
    refused = fails = pairs = 0
    for _ in range(80):
        h, _ = oracle.random_hierarchy(rng, allow_loops=True)
        for _ in range(25):
            a, b = oracle.random_pair(rng, h)
            if "~" in terms.print_term(b):
                continue    # program code refuses unexpanded leaves
            rule = terms.MRS([b, terms.Node("bot")], is_rule=True)
            element = compiler.compile_grammar(h, [rule], {}).rules[0].elements[0]
            m = machine.MachineState(h)
            snap = m.snapshot_regs({1: m.build_term(a)}, [1])
            fail = oracle.unify_terms(h, a, b) is None
            if machine.walk(element, snap, h) is None:
                assert fail, (terms.print_term(a), terms.print_term(b))
                refused += 1
            fails += fail
            pairs += 1
    assert pairs > 1000 and refused > fails // 2


def test_a_held_register_refuses_only_failing_unifications():
    # random two-element rules whose second element shares a tag with the
    # first, at dot 1: the active edge is the machine's dot-0 combine
    # with a random daughter a0, and every combine with a random daughter
    # a1 that the walk refuses fails in the reference unifier, which
    # unifies both elements with both daughters at once.  A refusal by a
    # held register is one that a walk whose placeholders meet unbound
    # cells would not make
    rng = random.Random(27)
    counts = {"compared": 0, "refused": 0, "refused by a held register": 0}
    for _ in range(350):
        h, _ = oracle.random_hierarchy(rng, allow_loops=rng.random() < 0.5)
        roots = oracle._random_roots(rng, h, 2) + [terms.Node("bot")]
        rule = terms.MRS(roots, is_rule=True)
        code = compiler.compile_grammar(h, [rule], {})
        info = code.rules[0]
        eqs = terms.flatten(rule)
        second = eqs.equations[eqs.boundaries[0]:eqs.boundaries[1]]
        if not ({r for eq in second for r in eq.args} | {eqs.roots[1]}) & set(info.held[1]):
            continue    # the second element shares no tag with the first
        p = ChartParser(grammar.Grammar(h, [rule], {}, None, code), verify_undo=True)
        m = machine.MachineState(h)
        unbound = machine.RegSnapshot(tuple((machine.REF, k) for k in range(len(info.held[1]))),
                                      tuple(range(len(info.held[1]))))
        for _ in range(10):
            a0 = oracle.random_term(rng, h, 6)
            active = p._combine(m, ActiveEdge(info, 0, parser.EMPTY_SNAPSHOT),
                                _complete("a0", terms.print_term(a0), h))
            if active is None:
                continue
            for _ in range(3):
                a1 = oracle.random_term(rng, h, 6)
                daughter = _complete("a1", terms.print_term(a1), h).snapshot
                counts["compared"] += 1
                if machine.walk(info.elements[1], daughter, h, active) is not None:
                    continue
                unified = oracle.unify_scopes(h, [roots[:2], [a0], [a1]], [(0, 2), (1, 3)], 0)
                assert unified is None, (terms.print_mrs(rule), terms.print_term(a0),
                                      terms.print_term(a1))
                counts["refused"] += 1
                counts["refused by a held register"] += (
                    machine.walk(info.elements[1], daughter, h, unbound) is not None)
    assert counts["compared"] >= 1200, counts
    assert counts["refused"] >= 500 and counts["refused by a held register"] >= 400, counts


# -- the start filter: subsumption on copies -----------------------------------------

FILTER_SPECS = {
    # t's only feature loops back to t; x's value is an agr
    "loop": """
        bot sub [t, x, agr].
        t sub [] intro [f: t].
        x sub [] intro [g: agr].
        agr sub [sg].
        sg sub [].
    """,
    # q adds k, which comes before p's m and n; w narrows v's f from c to d
    "subtypes": """
        bot sub [p, v, c].
        p sub [q] intro [m: bot, n: bot].
        q sub [] intro [k: c].
        v sub [w] intro [f: c].
        w sub [] intro [f: d].
        c sub [d].
        d sub [].
    """,
}
FILTER_CASES = [
    # (hierarchy, start term, head, whether the start term subsumes the head)
    ("loop", "t(t(~t))", "t(~t)", True),
    ("loop", "x(bot)", "~x", True),
    ("loop", "x(sg)", "~x", False),
    ("loop", "#1 t(#1)", "t(~t)", False),
    ("loop", "#1 t(#1)", "#1 t(#1)", True),
    # sharing in the general term that the specific one lacks
    ("subtypes", "p(#1 c,#1)", "p(c,c)", False),
    ("subtypes", "p(#1 bot,#1)", "~p", False),
    # sharing only in the specific term
    ("subtypes", "p(c,c)", "p(#1 c,#1)", True),
    # a value that a subtype narrows
    ("subtypes", "v(d)", "~w", True),
    ("subtypes", "v(c)", "w(d)", True),
    ("subtypes", "w(d)", "v(c)", False),
    # features that a subtype adds
    ("subtypes", "p(c,d)", "q(c,c,d)", True),
    ("subtypes", "p(d,c)", "q(d,c,d)", False),
    ("subtypes", "p(c,bot)", "~q", False),
    ("subtypes", "p(bot,bot)", "~q", True),
]


@pytest.mark.parametrize("spec,start,head,expected", FILTER_CASES)
def test_start_filter_cases(spec, start, head, expected):
    h = typesys.load_hierarchy(FILTER_SPECS[spec])
    general = _complete("start", start, h).snapshot
    specific = _complete("head", head, h).snapshot
    assert bool(machine.walk(general, specific, h)) is expected
    assert oracle.subsumes_terms(h, parse_term(start, h), parse_term(head, h)) is expected


def test_subsumption_walk_agrees_with_the_references_on_random_pairs():
    # seeded random pairs, half over hierarchies with appropriateness
    # loops, each compared both ways, and each term against the pair's
    # unification read off the heap; the old start filter cuts loops as
    # the readout does, so it is compared on loop-free hierarchies only
    compared = accepted = 0
    for seed in range(1300):
        rng = random.Random(seed)
        loops = seed % 2 == 1
        h, _ = oracle.random_hierarchy(rng, allow_loops=loops)
        a, b = oracle.random_pair(rng, h)
        m = machine.MachineState(h)
        pa, pb = m.build_term(a), m.build_term(b)
        copies = [(a, m.snapshot_regs({0: pa}, [0])), (b, m.snapshot_regs({0: pb}, [0]))]
        cases = [(copies[0], copies[1]), (copies[1], copies[0])]
        if m.unify(pa, pb):
            u = (m.extract(pa), m.snapshot_regs({0: pa}, [0]))
            cases += [(copies[0], u), (copies[1], u)]
        for (g, g_copy), (s, s_copy) in cases:
            walk = bool(machine.walk(g_copy, s_copy, h))
            case = (seed, terms.print_term(g), terms.print_term(s))
            assert walk == oracle.subsumes_terms(h, g, s), case
            if not loops:
                old = oracle.start_compatible(machine.MachineState(h), g_copy, s_copy)
                assert walk == old, case
            compared += 1
            accepted += walk
    assert compared >= 4000 and compared // 4 < accepted < compared


def _complete_copies(g, words):
    """The distinct copies of the complete edges of the chart of *words*,
    the spanning heads' among them."""
    chart = ChartParser(g, max_items=300, verify_undo=True).parse(words).chart
    return list(dict.fromkeys(e.snapshot for cell in chart.cells.values() for e in cell
                              if isinstance(e, CompleteEdge)))


def _compare_with_the_old_start_filter(g, words, counts):
    """Compare the walk with the old start filter on every ordered pair of
    the start copy and the complete copies of the chart of *words*, and
    add the pairs and the accepted ones to *counts*."""
    copies = [g.code.start] + _complete_copies(g, words)
    m = machine.MachineState(g.hierarchy)
    for general in copies:
        for specific in copies:
            walk = bool(machine.walk(general, specific, g.hierarchy))
            assert walk == oracle.start_compatible(m, general, specific), words
            counts[0] += 1
            counts[1] += walk


def test_subsumption_walk_agrees_with_the_old_start_filter_on_grammars():
    # the start copy and the complete copies of the conftest grammars'
    # sentences' charts, and of random grammars' charts, pair by pair, the
    # start copy against the spanning heads among them
    counts = [0, 0]
    for name, sentence in (WARM_CASES + [("hpsg", s) for s in HPSG_SENTENCES]
                           + [("agreement", s) for s in AGREEMENT_SENTENCES]):
        _compare_with_the_old_start_filter(
            grammar.load_grammar(GRAMMAR_TEXTS[name]), sentence.split(), counts)
    assert counts[0] >= 500 and counts[0] // 10 < counts[1] < counts[0]
    counts = [0, 0]
    for seed in range(200):
        rng = random.Random(seed)
        g = grammar.load_grammar(oracle.random_grammar(rng))
        words = [rng.choice(list(g.lexicon)) for _ in range(rng.randint(1, 3))]
        try:
            _compare_with_the_old_start_filter(g, words, counts)
        except LimitExceeded:
            continue
    assert counts[0] >= 2000 and counts[0] // 4 < counts[1] < counts[0]


# -- dot-0 combines read off the daughter's copy ------------------------------------

_COMBINE = ChartParser._combine


def _machine_combine(p, m, active, complete):
    """The combine as the machine runs it, with the walk left out."""
    walk = machine.walk
    machine.walk = lambda *args: False
    try:
        return _COMBINE(p, m, active, complete)
    finally:
        machine.walk = walk


def _dot0_path(info, complete, new, h):
    """How the walk answered a dot-0 combine of a rule of two or more body
    elements that gave *new*: "matched" (the copy shares the daughter's
    cells), "below a VAR" (the element subsumes the daughter, but a
    register maps below a daughter VAR, which the machine expands),
    "refused", or "machine"."""
    mapped = machine.walk(info.elements[0], complete.snapshot, h)
    if mapped is None:
        return "refused"
    if not mapped:
        return "machine"
    return "matched" if new is not None and new.cells is complete.snapshot.cells else "below a VAR"


def _check_dot0_combines(monkeypatch, counts):
    """Make every dot-0 combine of a rule of two or more body elements
    assert that its copy equals the machine's, and count in *counts* how
    the walk answered each."""

    def checked(p, m, active, complete):
        new = _COMBINE(p, m, active, complete)
        if active.dot == 0 and len(active.info.body_code) > 1:
            assert new == _machine_combine(p, m, active, complete), (
                active.info.label, terms.print_term(complete.head))
            counts[_dot0_path(active.info, complete, new, m.h)] += 1
        return new

    monkeypatch.setattr(ChartParser, "_combine", checked)


def _parse_deep_sentences():
    """The seed-1 sentences of the benchmark's parse-deep workload, and its
    grammar's text."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    wl = workloads.ParseDeep(1)
    return wl.grammar_text, [list(words) for words in wl.ops]


def test_a_matched_dot0_combine_gives_the_machines_copy(monkeypatch):
    # the conftest grammars' sentences, parse-deep's seed-1 sentences and
    # 300 random grammars, half of them under appropriateness loops, every
    # one of which loads; each grammar is loaded afresh, so its word cells
    # run their combines too.  A dot-0 combine the walk neither refuses
    # nor matches runs on the machine, the ones below a VAR among them
    counts = dict.fromkeys(["matched", "below a VAR", "machine", "refused"], 0)
    _check_dot0_combines(monkeypatch, counts)
    for name, sentence in (WARM_CASES + [("hpsg", s) for s in HPSG_SENTENCES]
                           + [("agreement", s) for s in AGREEMENT_SENTENCES]):
        g = grammar.load_grammar(GRAMMAR_TEXTS[name])
        ChartParser(g, verify_undo=True).parse(sentence.split())
    assert counts["matched"] >= 50 and counts["machine"] + counts["below a VAR"] >= 1, counts
    counts.update(dict.fromkeys(counts, 0))
    text, sentences = _parse_deep_sentences()
    g = grammar.load_grammar(text)
    assert len(sentences) == 104
    for words in sentences:
        ChartParser(g, verify_undo=True).parse(words)
    assert counts["matched"] >= 300, counts
    counts.update(dict.fromkeys(counts, 0))
    for loops in (False, True):
        for seed in range(150):
            rng = random.Random(seed)
            g = grammar.load_grammar(oracle.random_grammar(rng, allow_loops=loops))
            for _ in range(3):
                words = [rng.choice(list(g.lexicon)) for _ in range(rng.randint(1, 4))]
                try:
                    ChartParser(g, max_items=300, verify_undo=True).parse(words)
                except LimitExceeded:
                    pass
    assert counts["matched"] >= 1000 and counts["machine"] + counts["below a VAR"] >= 500, counts
    assert counts["below a VAR"] >= 5, counts


def test_a_matched_dot0_combine_gives_the_machines_copy_on_random_pairs():
    # the program code of b as a rule's first element against a copy of
    # a, and against the most general structure of a's type, over random
    # pairs, half of them under appropriateness loops
    rng = random.Random(25)
    counts = dict.fromkeys(["matched", "below a VAR", "machine", "refused"], 0)
    for k in range(120):
        h, _ = oracle.random_hierarchy(rng, allow_loops=k % 2 == 1)
        for _ in range(25):
            a, b = oracle.random_pair(rng, h)
            if "~" in terms.print_term(b):
                continue    # program code refuses unexpanded leaves
            rule = terms.MRS([b, terms.Node("bot"), terms.Node("bot")], is_rule=True)
            code = compiler.compile_grammar(h, [rule], {})
            p = ChartParser(grammar.Grammar(h, [rule], {}, None, code), verify_undo=True)
            active = ActiveEdge(code.rules[0], 0, parser.EMPTY_SNAPSHOT)
            for daughter in dict.fromkeys([terms.print_term(a), "~" + a.type]):
                complete = _complete("a", daughter, h)
                m = machine.MachineState(h)
                new = p._combine(m, active, complete)
                assert new == _machine_combine(p, m, active, complete), (
                    daughter, terms.print_term(b))
                counts[_dot0_path(code.rules[0], complete, new, h)] += 1
    assert min(counts.values()) >= 100, counts


# LOOP_SPEC's t and u next to a type with two arcs
DOT0_SPEC = """
bot sub [t, p, c].
t sub [u] intro [f: t].
u sub [].
p sub [] intro [m: c, n: c].
c sub [d].
d sub [].
"""
DOT0_CASES = [
    # (first body element, daughter, path): "matched" reads the daughter's
    # copy, "refused" runs nothing, and on "machine" (the element does not
    # subsume the daughter) and "below a VAR" (it does, but a register
    # lies below a VAR of the daughter, which the machine expands) the
    # machine runs
    ("p(c,c)", "~p", "below a VAR"),
    # the element shares what the daughter keeps apart
    ("#1 t(#1)", "u(t(~t))", "machine"),
    # the element's type is more specific than the daughter's
    ("#1 u(#1)", "#1 t(#1)", "machine"),
    # a cyclic daughter, and sharing only in the daughter
    ("#1 t(#1)", "#1 t(#1)", "matched"),
    ("p(c,c)", "p(#1 d,#1)", "matched"),
    # types with no upper bound in common, at a node and at a VAR
    ("p(c,c)", "t(~t)", "refused"),
    ("p(c,c)", "~t", "refused"),
]


@pytest.mark.parametrize("element,daughter,path", DOT0_CASES)
def test_dot0_combine_cases(element, daughter, path):
    g = grammar.load_grammar(DOT0_SPEC + f"rule {element}, bot => bot.\nstart => bot.\n")
    info = g.code.rules[0]
    complete = _complete("d", daughter, g.hierarchy)
    active = ActiveEdge(info, 0, parser.EMPTY_SNAPSHOT)
    m = machine.MachineState(g.hierarchy)
    p = ChartParser(g, verify_undo=True)
    new = p._combine(m, active, complete)
    assert new == _machine_combine(p, m, active, complete)
    assert (new is None) is (path == "refused")
    assert (new is not None and new.cells is complete.snapshot.cells) is (path == "matched")
    assert _dot0_path(info, complete, new, g.hierarchy) == path


# -- against the reference parser ------------------------------------------------

def _same_up_to_iso(xs, ys):
    """Every (label, term) of each list has an iso partner in the other."""
    def covered(a, b):
        return all(any(la == lb and iso(x, y) for lb, y in b) for la, x in a)
    return covered(xs, ys) and covered(ys, xs)


def _reference_cases():
    """The grammar of an appropriateness loop whose start term subsumes
    the head t(~t) of its one word, then random grammars over random
    loop-free hierarchies, three sentences of up to four words each."""
    yield "loop", grammar.load_grammar(LOOP_SPEC + "lex w => t(~t).\nstart => t(t(~t)).\n"), ["w"]
    for seed in range(60):
        rng = random.Random(seed)
        g = grammar.load_grammar(oracle.random_grammar(rng))
        for _ in range(3):
            yield seed, g, [rng.choice(list(g.lexicon)) for _ in range(rng.randint(1, 4))]


def test_parser_agrees_with_the_reference_parser():
    # a sentence that hits the limit on either side is skipped, and the
    # skips of each side are counted
    compared = accepted = derived = 0
    skipped = {"ChartParser": 0, "reference_parse": 0}
    for seed, g, words in _reference_cases():
        try:
            result = ChartParser(g, max_items=2000, verify_undo=True).parse(words)
        except LimitExceeded:
            skipped["ChartParser"] += 1
            continue
        reference = oracle.reference_parse(g, words)
        if reference is None:
            skipped["reference_parse"] += 1
            continue
        chart, heads = reference
        if seed == "loop":
            assert [terms.print_term(x) for x in result.heads] == ["t(t(~t))"]
            assert [terms.print_term(x) for x in heads] == ["t(t(~t))"]
        assert _same_up_to_iso([(0, x) for x in result.heads],
                               [(0, x) for x in heads]), (seed, words)
        spans = set(chart) | {span for span, cell in result.chart.cells.items()
                              if any(isinstance(e, CompleteEdge) for e in cell)}
        for i, j in spans:
            got = [(e.source, e.head) for e in result.chart.cell(i, j)
                   if isinstance(e, CompleteEdge)]
            assert _same_up_to_iso(got, chart.get((i, j), [])), (seed, words, (i, j))
        compared += 1
        accepted += result.accepted
        derived += any(e.source.startswith("rule") for cell in result.chart.cells.values()
                       for e in cell if isinstance(e, CompleteEdge))
    # today no sentence of the 181 takes the limit path on either side
    assert sum(skipped.values()) <= 18, f"skipped: {skipped}"
    assert compared >= 150 and accepted >= 30 and derived >= 60, (
        f"compared {compared}, accepted {accepted}, derived {derived}, skipped: {skipped}")


# -- outcomes pinned by a golden file ------------------------------------------------

OUTCOMES = Path(__file__).resolve().parent / "golden" / "parser_outcomes.txt"
OUTCOME_CASES = WARM_CASES + [("agreement", " ".join(["w"] * 12)), ("agreement", "v w v v w w v w"),
                              ("span_width", " ".join(["a"] * 12))]


class _CountingParser(ChartParser):
    """A parser that counts the combines it runs."""
    combines = 0

    def _combine(self, m, active, complete):
        self.combines += 1
        return super()._combine(m, active, complete)


def _outcome_line(g, name, words, max_items=MAX_ITEMS):
    """One line of the golden file: a parse's items, pops, combines, a hash
    of its chart and its heads, or its combines and the limit it hit."""
    p = _CountingParser(g, max_items=max_items)
    try:
        result = p.parse(words)
    except LimitExceeded as e:
        return f"{name} {' '.join(words)}: combines {p.combines}, {e}"
    chart = hashlib.sha256(result.chart.dump().encode()).hexdigest()[:16]
    heads = " ".join(terms.print_term(h) for h in result.heads)
    return (f"{name} {' '.join(words)}: items {result.items}, pops {result.pops}, "
            f"combines {p.combines}, chart {chart}, heads {heads or '-'}")


def outcome_lines():
    """The conftest grammars and the span-width grammar on sentences that
    repeat words, then 150 random grammars, half under appropriateness
    loops, each on one word three times, on five words and on seven, at
    150 items.
    Each grammar is loaded once, so a later sentence replays the word
    cells an earlier one kept."""
    lines = []
    for name, sentence in OUTCOME_CASES:
        lines.append(_outcome_line(grammar.load_grammar(GRAMMAR_TEXTS[name]), name, sentence.split()))
    for loops in (False, True):
        for seed in range(75):
            rng = random.Random(seed)
            g = grammar.load_grammar(oracle.random_grammar(rng, allow_loops=loops))
            words = list(g.lexicon)
            name = f"seed {seed}{' loops' if loops else ''}"
            for n in (3, 5, 7):
                sentence = [rng.choice(words)] * 3 if n == 3 else [rng.choice(words) for _ in range(n)]
                lines.append(_outcome_line(g, name, sentence, max_items=150))
    return lines


def test_parses_keep_their_pinned_outcomes():
    # the golden file holds the outcomes of the parser that visited every
    # split of every span; a change of span order must keep every one
    lines = outcome_lines()
    assert sum("limit" in line for line in lines) >= 4
    assert lines == OUTCOMES.read_text(encoding="utf-8").splitlines()

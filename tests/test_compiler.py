import importlib.util
import random
from pathlib import Path

import pytest

import conftest
import oracle
from tfsam import compiler, grammar, machine, terms
from tfsam.compiler import (
    CompileError, EndRule, GetStructure, MoveDot, NextItem, PutArc, PutNode,
    PutVar, StartRule, UnifyValue, UnifyVariable, compile_grammar,
    compile_program, compile_query, compile_rule_with_info,
    disassemble, rule_listing,
)
from tfsam.parser import ChartParser
from tfsam.terms import flatten, parse_mrs, parse_term


def test_query_emits_nodes_then_arcs(example_hierarchy):
    eqs = flatten(parse_term("a(#1 d1,#1)", example_hierarchy))
    assert compile_query(eqs) == [
        PutNode("a", 2, 1),
        PutNode("d1", 0, 2),
        PutArc(1, 1, 2),
        PutArc(1, 2, 2),
    ]


def test_query_arc_may_point_at_its_own_node(example_hierarchy):
    eqs = flatten(parse_term("#1 g(#1)", example_hierarchy))
    assert compile_query(eqs) == [PutNode("g", 1, 1), PutArc(1, 1, 1)]


def test_query_most_general_leaf_becomes_put_var(loop_hierarchy):
    eqs = flatten(parse_term("t(~t)", loop_hierarchy))
    assert compile_query(eqs) == [
        PutNode("t", 1, 1),
        PutVar("t", 2),
        PutArc(1, 1, 2),
    ]


def test_program_first_occurrence_is_variable_then_value(example_hierarchy):
    eqs = flatten(parse_term("a(#1 d1,#1)", example_hierarchy))
    assert compile_program(eqs) == [
        GetStructure("a", 2, 1),
        UnifyVariable(2),
        UnifyValue(2),
        GetStructure("d1", 0, 2),
    ]


def test_program_rejects_most_general_leaf(loop_hierarchy):
    eqs = flatten(parse_term("t(~t)", loop_hierarchy))
    with pytest.raises(CompileError, match="~"):
        compile_program(eqs)


def test_program_seen_set_spans_fragments(example_hierarchy):
    first = flatten(parse_term("d", example_hierarchy))
    seen = set()
    compile_program(first, seen)
    # X1 was consumed by the first fragment, so a later equation using it
    # must compile to unify_value
    eqs = terms.EquationSet([terms.Equation(2, "a", (3, 1))], [2], [])
    out = compile_program(eqs, seen)
    assert out == [GetStructure("a", 2, 2), UnifyVariable(3), UnifyValue(1)]


def test_rule_layout(example_hierarchy):
    rule = parse_mrs("a(bot,#3 d), d => a(d2,#3)", example_hierarchy)
    info = compile_rule_with_info(rule, rule_id=0, label="rule0")
    assert info.body_code == [
        [GetStructure("a", 2, 1),
         UnifyVariable(2),
         UnifyVariable(3),
         GetStructure("bot", 0, 2),
         GetStructure("d", 0, 3)],
        [GetStructure("d", 0, 4)],
    ]
    assert info.head_code == [
        PutNode("a", 2, 5),
        PutNode("d2", 0, 6),
        PutArc(5, 1, 6),
        PutArc(5, 2, 3),   # reentrancy with the first body element
    ]
    assert info.body_root_regs == [1, 4]
    assert info.held == [(), (1, 2, 3)]
    assert info.head_root_reg == 5
    # the listing wraps the same pieces in the control instructions
    assert rule_listing(info.body_code, info.head_code) == [
        StartRule(2),
        *info.body_code[0],
        MoveDot(),
        NextItem(),
        *info.body_code[1],
        MoveDot(),
        NextItem(),
        *info.head_code,
        EndRule(),
    ]


def test_rule_marks_body_root_bound_by_earlier_fragment(example_hierarchy):
    rule = parse_mrs("#1 a(bot,d), #1 => a(d2,d)", example_hierarchy)
    info = compile_rule_with_info(rule, 0, "rule0")
    assert info.body_root_regs == [1, 1]
    assert info.held == [(), (1, 2, 3)]
    assert info.body_root_regs[1] in info.held[1]
    # the second fragment has no equations of its own
    assert info.body_code[1] == []


def test_a_rule_keeps_a_copy_of_each_body_element(example_hierarchy):
    # an element's copy holds a put_var bot placeholder, at offsets 0, 1,
    # ..., for each register an active edge holds before it; its roots are
    # those registers, then the element's root and the other registers it
    # sets, so at dot 0 they are held[1].  A root an earlier element set
    # is that register's placeholder
    h = example_hierarchy
    rules = [parse_mrs("a(bot,#3 d), a(bot,#3) => d", h), parse_mrs("#1 a(bot,d), #1 => d", h)]
    shared, held_root = compile_grammar(h, rules, {}).rules
    STR, REF, VAR = machine.STR, machine.REF, machine.VAR
    a, bot, d = h.tid("a"), h.tid("bot"), h.tid("d")
    first = machine.RegSnapshot(((STR, a), (REF, 3), (REF, 4), (STR, bot), (STR, d)), (0, 3, 4))
    assert shared.held == held_root.held == [(), (1, 2, 3)]
    assert shared.elements[0] == held_root.elements[0] == first
    assert shared.elements[1] == machine.RegSnapshot(
        ((VAR, bot),) * 3 + ((STR, a), (REF, 6), (REF, 2), (STR, bot)), (0, 1, 2, 3, 6))
    assert held_root.elements[1] == machine.RegSnapshot(((VAR, bot),) * 3, (0, 1, 2, 0))


def _query_code_element_copies(h, rule):
    """Each body element's copy as query code builds it: a put_var bot per
    register an active edge holds before the element, then the element's
    equations as query code, run on a fresh machine and copied with the
    held registers, the element's root, then the registers it sets."""
    eqs = flatten(rule)
    bounds = [0] + eqs.boundaries
    seen = set()
    copies = []
    for k, x in enumerate(eqs.roots[:len(rule.roots) - 1]):
        held = tuple(sorted(seen))
        frag = terms.EquationSet(eqs.equations[bounds[k]:bounds[k + 1]], [x], [])
        compile_program(frag, seen)
        m = machine.MachineState(h)
        regs = {}
        m.execute([PutVar("bot", r) for r in held] + compile_query(frag), regs)
        sets = tuple(sorted(seen.difference(held, [x])))
        copies.append(m.snapshot_regs(regs, held + (x,) + sets))
    return copies


def _workload_grammar(name):
    """The text of the benchmark's seed-1 grammar of workload *name*."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return getattr(workloads, name)(1).grammar_text


def test_every_element_copy_is_the_one_query_code_builds():
    # the machine builds each element's copy from its linked program code,
    # which must give the copy query code with placeholders builds, over
    # the conftest grammars, the benchmark's parse grammars and 400 random
    # grammars, the odd seeds under appropriateness loops
    texts = [conftest.TOY_GRAMMAR, conftest.AMBIGUOUS_GRAMMAR, conftest.CHAIN_GRAMMAR,
             conftest.SELF_FEEDING_GRAMMAR, conftest.LEXICON_ONLY_GRAMMAR,
             conftest.AGREEMENT_GRAMMAR, conftest.HPSG_GRAMMAR,
             _workload_grammar("ParseDeep"), _workload_grammar("ParseAmbig")]
    texts += [oracle.random_grammar(random.Random(seed), allow_loops=seed % 2 == 1)
              for seed in range(400)]
    copies = 0
    for text in texts:
        g = grammar.load_grammar(text)
        for rule, info in zip(g.rules, g.code.rules, strict=True):
            assert info.elements == _query_code_element_copies(g.hierarchy, rule), text
            copies += len(info.elements)
    assert len(texts) == 409 and copies == 1844


def test_rule_needs_body_and_head(example_hierarchy):
    not_a_rule = parse_mrs("d, d1", example_hierarchy)
    with pytest.raises(CompileError, match="body"):
        compile_rule_with_info(not_a_rule, 0, "r")


def _lexical_copy(h, term):
    """The copy of X1 after running the query code of *term* on a fresh machine."""
    m = machine.MachineState(h)
    regs = {}
    m.execute(compile_query(flatten(term)), regs)
    return m.snapshot_regs(regs, [1])


def test_grammar_code_area_labels(toy_grammar):
    code = toy_grammar.code
    assert code.labels["rule0"] == 0
    assert set(code.labels) == {"rule0", "lex_w1", "lex_w2"}
    assert [info.label for info in code.rules] == ["rule0"]
    w1_copy, w1_label = code.lexicon["w1"][0]
    assert w1_label == "lex_w1"
    assert w1_copy == _lexical_copy(toy_grammar.hierarchy, toy_grammar.lexicon["w1"][0])
    assert code.instrs[code.labels["lex_w1"]] == PutNode("a", 2, 1)
    assert code.labels["lex_w2"] == code.labels["lex_w1"] + 5


def test_grammar_links_the_code_the_parser_runs(toy_grammar):
    # each rule element's code is its compiled piece, linked against the
    # grammar's hierarchy, and each lexical entry holds the copy its query
    # code builds; the listing wraps the same pieces, each rule's in its
    # control instructions, followed by the lexical query code
    code = toy_grammar.code
    h = toy_grammar.hierarchy
    linked, pieces, listing = [], [], []
    for rule, info in zip(toy_grammar.rules, code.rules, strict=True):
        fresh = compile_rule_with_info(rule, info.rule_id, info.label)
        linked += info.body_code + [info.head_code]
        pieces += fresh.body_code + [fresh.head_code]
        listing += rule_listing(fresh.body_code, fresh.head_code)
    for piece, instrs in zip(linked, pieces, strict=True):
        assert isinstance(piece, machine.Linked) and piece.h is h
        assert piece.ops == machine.link(instrs, h).ops
    for word, entries in toy_grammar.lexicon.items():
        for (copy, _), term in zip(code.lexicon[word], entries, strict=True):
            assert copy == _lexical_copy(h, term)
            listing += compile_query(flatten(term))
    assert code.instrs == listing


def test_grammar_numbers_homonyms(example_hierarchy):
    rules = [parse_mrs("d => d", example_hierarchy)]
    lexicon = {"w": [parse_term("d", example_hierarchy),
                     parse_term("d1", example_hierarchy)]}
    code = compile_grammar(example_hierarchy, rules, lexicon)
    assert [label for _, label in code.lexicon["w"]] == ["lex_w.1", "lex_w.2"]
    # in file order: the k-th pair is the copy of the k-th entry
    assert [copy for copy, _ in code.lexicon["w"]] == [
        _lexical_copy(example_hierarchy, term) for term in lexicon["w"]]


def test_homonym_labels_leave_room_for_other_words(example_hierarchy):
    # two entries for w once took the label of w_1's only entry
    h = example_hierarchy
    lexicon = {"w": [parse_term("d", h), parse_term("d1", h)], "w_1": [parse_term("d2", h)]}
    code = compile_grammar(h, [parse_mrs("d => d", h)], lexicon)
    labels = [label for entries in code.lexicon.values() for _, label in entries]
    assert labels == ["lex_w.1", "lex_w.2", "lex_w_1"]
    assert list(code.labels) == ["rule0"] + labels


def _eager_listing(g):
    """The listing of grammar *g* and its labels, made as the code area
    once made them on load: each rule's pieces in their control
    instructions, then each lexical entry's query code, in file order."""
    instrs, labels = [], {}
    for i, rule in enumerate(g.rules):
        labels[f"rule{i}"] = len(instrs)
        info = compile_rule_with_info(rule, i, f"rule{i}")
        instrs += rule_listing(info.body_code, info.head_code)
    for word, entries in g.lexicon.items():
        for k, term in enumerate(entries):
            labels[f"lex_{word}" if len(entries) == 1 else f"lex_{word}.{k + 1}"] = len(instrs)
            instrs += compile_query(flatten(term))
    return instrs, labels


def test_the_listing_is_made_when_first_read(monkeypatch):
    # a load compiles query code for rule heads only, a parse for nothing,
    # and the first read of the listing or its labels makes both, equal to
    # the eager listing; machine.term_copy copies the lexical entries and
    # the start term as query code and snapshot_regs would
    from test_cli import PARSE_GRAMMARS, PARSE_SENTENCES
    texts = [(text, PARSE_SENTENCES[name].split()) for name, text in PARSE_GRAMMARS.items()]
    for seed in range(40):
        text = oracle.random_grammar(random.Random(seed), allow_loops=seed % 2 == 1)
        words = [line.split()[1] for line in text.splitlines() if line.startswith("lex ")]
        if len(set(words)) < len(words):
            texts.append((text, None))
    calls = []
    real = compiler.compile_query
    monkeypatch.setattr(compiler, "compile_query", lambda eqs: calls.append(1) or real(eqs))
    homonyms = 0
    for n, (text, words) in enumerate(texts):
        calls.clear()
        g = grammar.load_grammar(text)
        assert len(calls) == len(g.rules), text
        if words:
            ChartParser(g).parse(words)
            assert len(calls) == len(g.rules), text
        entries = sum(len(v) for v in g.lexicon.values())
        homonyms += entries > len(g.lexicon)
        eager = _eager_listing(g)
        calls.clear()
        if n % 2:
            labels, instrs = g.code.labels, g.code.instrs
        else:
            instrs, labels = g.code.instrs, g.code.labels
        assert len(calls) == entries, text
        assert (instrs, labels) == eager, text
        # made once: later reads see the same list and dict
        assert g.code.instrs is instrs and g.code.labels is labels and len(calls) == entries
        for word, entries in g.lexicon.items():
            for (copy, _), term in zip(g.code.lexicon[word], entries, strict=True):
                assert copy == _lexical_copy(g.hierarchy, term), text
        m = machine.MachineState(g.hierarchy)
        assert g.code.start == m.snapshot_regs({0: m.build_term(g.start)}, [0]), text
    assert homonyms == len(texts) - len(PARSE_GRAMMARS) >= 30


def test_disassemble_golden(example_hierarchy):
    eqs = flatten(parse_term("a(#1 d1,#1)", example_hierarchy))
    assert disassemble(compile_program(eqs)) == (
        "get_structure a/2,X1\n"
        "unify_variable X2\n"
        "unify_value X2\n"
        "get_structure d1/0,X2"
    )


def test_a_code_area_refuses_a_duplicate_label():
    code = compiler.CodeArea()
    code.add_label("rule0")
    with pytest.raises(CompileError, match="duplicate label 'rule0'"):
        code.add_label("rule0")


# Each instruction's and an equation's repr, which error messages embed,
# and the positional fields format_instruction matches on.
RECORDS = [
    (PutNode("a", 2, 1), "PutNode(type='a', arity=2, reg=1)", ("type", "arity", "reg")),
    (PutVar("t", 3), "PutVar(type='t', reg=3)", ("type", "reg")),
    (PutArc(1, 2, 3), "PutArc(reg=1, offset=2, target=3)", ("reg", "offset", "target")),
    (GetStructure("a", 2, 1), "GetStructure(type='a', arity=2, reg=1)",
     ("type", "arity", "reg")),
    (UnifyVariable(4), "UnifyVariable(reg=4)", ("reg",)),
    (UnifyValue(4), "UnifyValue(reg=4)", ("reg",)),
    (StartRule(2), "StartRule(body_len=2)", ("body_len",)),
    (MoveDot(), "MoveDot()", ()),
    (NextItem(), "NextItem()", ()),
    (EndRule(), "EndRule()", ()),
    (terms.Equation(1, "a", (2, 3)), "Equation(reg=1, type='a', args=(2, 3))",
     ("reg", "type", "args")),
]


@pytest.mark.parametrize("record,text,fields", RECORDS, ids=[r[1] for r in RECORDS])
def test_records_keep_their_repr_match_args_and_equality(record, text, fields):
    assert repr(record) == text
    assert type(record).__match_args__ == fields
    assert record == type(record)(*(getattr(record, f) for f in fields))


@pytest.mark.parametrize("record", [r[0] for r in RECORDS], ids=[r[1] for r in RECORDS])
def test_records_are_slotted(record):
    # query code makes about two instructions per term node
    assert not hasattr(record, "__dict__")


def test_records_of_different_classes_differ():
    assert PutNode("a", 2, 1) != GetStructure("a", 2, 1)
    assert UnifyVariable(1) != UnifyValue(1)
    assert MoveDot() != NextItem()


def test_format_instruction_refuses_an_unknown_instruction():
    with pytest.raises(CompileError, match="unknown instruction 'nope'"):
        compiler.format_instruction("nope")


def test_disassemble_lists_a_label_after_the_last_instruction():
    code = compiler.CodeArea()
    code.add_label("first")
    code.instrs += [PutNode("d", 0, 1)]
    code.add_label("end")
    assert disassemble(code) == "first:\nput_node d/0,X1\nend:"

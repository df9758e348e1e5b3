import pytest

from tfsam import compiler, machine, terms
from tfsam.compiler import (
    Advance, CompileError, EndRule, GetStructure, MoveDot, NextItem, PutArc,
    PutNode, PutVar, StartRule, UnifyValue, UnifyVariable, assemble,
    compile_grammar, compile_input, compile_program, compile_query,
    compile_rule_with_info, disassemble,
)
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
    instrs, info = compile_rule_with_info(rule, rule_id=0, label="rule0", base=0)
    assert instrs == [
        StartRule(2),
        GetStructure("a", 2, 1),
        UnifyVariable(2),
        UnifyVariable(3),
        GetStructure("bot", 0, 2),
        GetStructure("d", 0, 3),
        MoveDot(),
        NextItem(),
        GetStructure("d", 0, 4),
        MoveDot(),
        NextItem(),
        PutNode("a", 2, 5),
        PutNode("d2", 0, 6),
        PutArc(5, 1, 6),
        PutArc(5, 2, 3),   # reentrancy with the first body element
        EndRule(),
    ]
    assert info.start == 0
    assert info.body_len == 2
    assert info.frag_starts == [1, 8]
    assert info.head_start == 11
    assert info.end == 15
    assert info.body_root_regs == [1, 4]
    assert info.body_root_shared == [False, False]
    assert info.head_root_reg == 5


def test_rule_layout_respects_base_offset(example_hierarchy):
    rule = parse_mrs("a(bot,#3 d), d => a(d2,#3)", example_hierarchy)
    _, info = compile_rule_with_info(rule, rule_id=1, label="rule1", base=40)
    assert info.start == 40
    assert info.frag_starts == [41, 48]
    assert info.head_start == 51
    assert info.end == 55


def test_rule_marks_body_root_bound_by_earlier_fragment(example_hierarchy):
    rule = parse_mrs("#1 a(bot,d), #1 => a(d2,d)", example_hierarchy)
    instrs, info = compile_rule_with_info(rule, 0, "rule0", base=0)
    assert info.body_root_regs == [1, 1]
    assert info.body_root_shared == [False, True]
    # the second fragment has no equations of its own
    assert instrs[info.frag_starts[1]:info.frag_starts[1] + 2] == [
        MoveDot(), NextItem(),
    ]


def test_rule_needs_body_and_head(example_hierarchy):
    not_a_rule = parse_mrs("d, d1", example_hierarchy)
    with pytest.raises(CompileError, match="body"):
        compile_rule_with_info(not_a_rule, 0, "r", 0)


def test_input_words_are_independent(example_hierarchy):
    words = parse_mrs("a(d2,d), d", example_hierarchy)
    assert compile_input(words) == [
        Advance(),
        PutNode("a", 2, 1),
        PutNode("d2", 0, 2),
        PutNode("d", 0, 3),
        PutArc(1, 1, 2),
        PutArc(1, 2, 3),
        Advance(),
        PutNode("d", 0, 1),
    ]


def test_grammar_code_area_labels(toy_grammar):
    code = toy_grammar.code
    assert code.labels["rule0"] == 0
    assert set(code.labels) == {"rule0", "lex_w1", "lex_w2"}
    assert [info.label for info in code.rules] == ["rule0"]
    w1 = code.lexicon["w1"][0]
    assert w1.root_reg == 1
    assert code.instrs[w1.start] == PutNode("a", 2, 1)
    assert w1.length == 5


def test_grammar_links_the_code_the_parser_runs(toy_grammar):
    # each rule element's code is its stretch of the code area without the
    # control instructions, linked against the grammar's hierarchy
    code = toy_grammar.code
    h = toy_grammar.hierarchy
    info = code.rules[0]
    ends = [start - 2 for start in info.frag_starts[1:]] + [info.head_start - 2]
    stretches = [code.instrs[a:b] for a, b in zip(info.frag_starts, ends)]
    stretches.append(code.instrs[info.head_start:info.end])
    pieces = info.body_code + [info.head_code]
    pieces += [e.code for entries in code.lexicon.values() for e in entries]
    stretches += [code.instrs[e.start:e.start + e.length]
                  for entries in code.lexicon.values() for e in entries]
    for piece, stretch in zip(pieces, stretches, strict=True):
        assert isinstance(piece, machine.Linked) and piece.h is h
        assert piece.ops == machine.link(stretch, h).ops


def test_grammar_numbers_homonyms(example_hierarchy):
    rules = [parse_mrs("d => d", example_hierarchy)]
    lexicon = {"w": [parse_term("d", example_hierarchy),
                     parse_term("d1", example_hierarchy)]}
    code = compile_grammar(example_hierarchy, rules, lexicon)
    assert [e.label for e in code.lexicon["w"]] == ["lex_w_1", "lex_w_2"]
    assert [e.index for e in code.lexicon["w"]] == [0, 1]


def test_disassemble_golden(example_hierarchy):
    eqs = flatten(parse_term("a(#1 d1,#1)", example_hierarchy))
    assert disassemble(compile_program(eqs)) == (
        "get_structure a/2,X1\n"
        "unify_variable X2\n"
        "unify_value X2\n"
        "get_structure d1/0,X2"
    )


def test_disassemble_assemble_round_trip(toy_grammar):
    listing = disassemble(toy_grammar.code)
    code = assemble(listing)
    assert code.instrs == toy_grammar.code.instrs
    assert code.labels == toy_grammar.code.labels
    assert disassemble(code) == listing


def test_assemble_rejects_garbage():
    with pytest.raises(CompileError, match="unknown instruction"):
        assemble("jump X1")
    with pytest.raises(CompileError, match="bad register"):
        assemble("unify_value Y1")
    with pytest.raises(CompileError, match="cannot parse"):
        assemble("put_node a,X1")

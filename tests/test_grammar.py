import re
from functools import partial

import pytest

from tfsam import grammar, parser, scan, terms, typesys
from tfsam.grammar import GrammarError, load_grammar, load_hierarchy_only

from conftest import EXAMPLE_SPEC, TOY_GRAMMAR
from test_cli import PARSE_GRAMMARS, PARSE_SENTENCES


def test_load_toy_grammar(toy_grammar):
    g = toy_grammar
    assert g.hierarchy.n_types == 9
    assert len(g.rules) == 1
    assert list(g.lexicon) == ["w1", "w2"]
    assert terms.print_term(g.lexicon["w1"][0]) == "a(d2,d)"
    assert terms.print_term(g.start) == "a(bot,bot)"
    assert terms.print_mrs(g.rules[0]) == "a(bot,#3 d), d => a(d2,#3)"
    assert g.code.rules[0].label == "rule0"


def test_clause_order_is_free():
    shuffled = """
    start => d.
    lex w => d.
    bot sub [d].
    rule d => d.
    d sub [].
    """
    g = load_grammar(shuffled)
    assert g.hierarchy.n_types == 2
    assert len(g.rules) == 1
    assert list(g.lexicon) == ["w"]


def test_homonyms_accumulate_in_file_order():
    g = load_grammar(EXAMPLE_SPEC + """
        lex w => d1.
        lex w => d2.
        rule d => d.
        start => bot.
    """)
    assert [terms.print_term(t) for t in g.lexicon["w"]] == ["d1", "d2"]


def test_comments_are_ignored():
    g = load_grammar(TOY_GRAMMAR.replace("lex w1", "% comment line\nlex w1"))
    assert list(g.lexicon) == ["w1", "w2"]


def _reject(text, fragment):
    with pytest.raises(GrammarError) as err:
        load_grammar(text)
    assert fragment in str(err.value)


def test_missing_start_clause():
    _reject(EXAMPLE_SPEC + "lex w => d.\nrule d => d.\n", "no start clause")


def test_duplicate_start_clause():
    _reject(EXAMPLE_SPEC + "rule d => d.\nstart => bot.\nstart => d.\n",
            "more than one start clause")


def test_rule_without_arrow():
    _reject(EXAMPLE_SPEC + "rule d, d1.\nstart => bot.\n",
            "a rule needs '=>' before its head")
    # after the head, only the clause's period may follow
    _reject(EXAMPLE_SPEC + "rule d => d d1.\nstart => bot.\n",
            "expected '.', found 'd1'")


def test_ill_typed_lexical_entry():
    _reject(EXAMPLE_SPEC + "lex w => a(bot,bot).\nstart => bot.\n",
            "lexical entry for 'w' is not totally well-typed")


def test_ill_typed_rule():
    _reject(EXAMPLE_SPEC + "rule a(bot,bot) => d.\nstart => bot.\n",
            "rule 0 is not totally well-typed")


def test_start_term_may_be_general():
    # the start term is not required to be totally well-typed
    g = load_grammar(EXAMPLE_SPEC + "rule d => d.\nstart => a(bot,bot).\n")
    assert terms.print_term(g.start) == "a(bot,bot)"


@pytest.mark.parametrize("text", ["", "% only a comment\n", "  \n"])
def test_empty_input(text):
    assert load_hierarchy_only(text).names == ["bot"]
    assert typesys.load_hierarchy(text).names == ["bot"]
    _reject(text, "grammar has no start clause")


def test_unterminated_clause():
    _reject(EXAMPLE_SPEC + "start => bot", "clause not ended with '.'")


def test_unknown_type_in_rule():
    # term-level problems keep their own error type but share the base
    with pytest.raises(scan.SourceError, match="unknown type 'zz'"):
        load_grammar(EXAMPLE_SPEC + "rule zz => d.\nstart => bot.\n")


def test_hierarchy_errors_surface_as_grammar_errors():
    _reject("bot sub [x].\nbot sub [].\nstart => bot.\n",
            "duplicate characterization of type 'bot'")
    _reject("bot sub [x, y].\nx sub [z].\ny sub [z].\nz sub [].\n"
            "x2 sub [].\nstart => bot.\n", "not subsumed by 'bot'")


def test_type_named_like_keyword_is_allowed():
    # 'rule sub [...]' is a type clause; 'rule <term>' is a rule, also
    # when its first type is named sub, and 'lex sub =>' is a word's entry
    text = """
    bot sub [rule, lex, start, intro, sub, t].
    rule sub [].
    lex sub [].
    start sub [].
    intro sub [].
    sub sub [].
    t sub [] intro [f: sub].
    rule rule => rule.
    rule sub => t(sub).
    lex w => lex.
    lex sub => sub.
    start => bot.
    """
    g = load_grammar(text)
    names = {"bot", "rule", "lex", "start", "intro", "sub", "t"}
    assert set(g.hierarchy.names) == set(load_hierarchy_only(text).names) == names
    assert [terms.print_mrs(r) for r in g.rules] == ["rule => rule", "sub => t(sub)"]
    assert list(g.lexicon) == ["w", "sub"]
    heads = parser.ChartParser(g).parse(["sub"]).heads
    assert sorted(map(terms.print_term, heads)) == ["sub", "t(sub)"]


@pytest.mark.parametrize("name", sorted(PARSE_GRAMMARS))
def test_a_type_and_a_word_renamed_sub_parse_alike(name):
    # the type named first in the first rule and the sentence's first
    # word, each renamed sub throughout: the renamed grammar reads
    # 'rule sub' and 'lex sub =>', and its parse is the original's
    text, sentence = PARSE_GRAMMARS[name], PARSE_SENTENCES[name]
    texts = scan.tokenize(text).texts
    typ, word = texts[texts.index("rule") + 1], sentence.split()[0]
    ids = load_hierarchy_only(text).ids
    assert typ in ids and word not in ids and "sub" not in ids
    rename = partial(re.compile(rf"(?<!\w)(?:{typ}|{word})(?!\w)").sub, "sub")

    def parse(text, sentence):
        result = parser.ChartParser(load_grammar(text)).parse(sentence.split())
        return result.items, result.pops, [terms.print_term(h) for h in result.heads]

    items, pops, heads = parse(text, sentence)
    assert "rule sub" in rename(text) and "lex sub =>" in rename(text)
    assert parse(rename(text), rename(sentence)) == (items, pops, list(map(rename, heads)))


@pytest.mark.parametrize("text,message", [
    (EXAMPLE_SPEC + "rule zz => d.\nstart => bot.\n",
     "unknown type 'zz' (line 11, column 6)"),
    ("start => bot.\r\n% c\r\n  lex w => a(d, #1).\r\n" + EXAMPLE_SPEC,
     "tag #1 is never defined (line 3, column 17)"),
    ("lex w => d.\n" + EXAMPLE_SPEC + "start => bot.\nstart => d.\n",
     "more than one start clause (line 13, column 1)"),
])
def test_errors_of_the_second_pass_carry_their_positions(text, message):
    # the second pass reads each clause from the token index the first
    # pass kept, and a position is computed from that index
    with pytest.raises(scan.SourceError) as err:
        load_grammar(text)
    assert str(err.value) == message


def test_load_hierarchy_only_skips_grammar_clauses():
    h = load_hierarchy_only(TOY_GRAMMAR)
    assert h.n_types == 9
    assert h.tid("a") is not None


def test_load_hierarchy_only_accepts_bare_spec():
    h = load_hierarchy_only(EXAMPLE_SPEC)
    assert h.n_types == 9

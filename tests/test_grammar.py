import pytest

from tfsam import grammar, scan, terms, typesys
from tfsam.grammar import GrammarError, load_grammar, load_hierarchy_only

from conftest import EXAMPLE_SPEC, TOY_GRAMMAR


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
    # 'rule sub [...]' is a type clause; only 'rule <term>' is a rule
    g = load_grammar("""
    bot sub [rule, lex].
    rule sub [].
    lex sub [].
    rule rule => rule.
    lex w => lex.
    start => bot.
    """)
    assert set(g.hierarchy.names) == {"bot", "rule", "lex"}
    assert len(g.rules) == 1


def test_load_hierarchy_only_skips_grammar_clauses():
    h = load_hierarchy_only(TOY_GRAMMAR)
    assert h.n_types == 9
    assert h.tid("a") is not None


def test_load_hierarchy_only_accepts_bare_spec():
    h = load_hierarchy_only(EXAMPLE_SPEC)
    assert h.n_types == 9

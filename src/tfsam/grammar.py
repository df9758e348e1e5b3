"""Grammar files: a type hierarchy plus rules, a lexicon and a start symbol.

A grammar file mixes four kinds of clauses, each ended by a period, in any
order:

    t sub [s1,s2] intro [f: v].      % type characterization
    rule body1, body2 => head.       % phrase structure rule over terms
    lex word => term.                % lexical entry
    start => term.                   % what a spanning head must be an instance of

Rule and lexicon terms must be totally well-typed.  The start term is
only parsed, not checked: it is usually more general than any derivable
head (e.g. a bare type).  The parser accepts a spanning head only when
the start term subsumes it; a head that merely unifies with the start
term, but is more general than it, is not accepted.  An unexpanded
``~t`` counts as the most general structure of t on either side.  The
start term is copied once, when the grammar loads, in one walk over the
term (``machine.term_copy``), and its copy (``CodeArea.start``) is
walked against each spanning head's copy; it is never restored on a
heap.  Lexical entries are copies too, made by the same walk when the
grammar compiles, and a word's lexicon entry (``CodeArea.lexicon``)
holds its seeds as ``(copy, label)`` pairs, which the parser takes as
the word's seed edges, so a parse runs rule code only.  A load runs no
query code for data, and it compiles no lexical entry: the listing
(``CodeArea.instrs``) is made when it is first read.  A word's chart
cell, its seeds closed under the rules, is kept with the grammar too
(``CodeArea.word_cells``), but lazily: the first parse of the word
makes it, so loading a grammar pays for no cell.

A clause is a type clause exactly when it reads ``name sub [``, so a
word or a type may be named ``sub``, ``rule``, ``lex``, ``start`` or
``intro``.

``scan.tokenize`` returns the one cursor over a file, and the cursor
reads the file in two passes: the first parses the type clauses in place
and validates the hierarchy, and the second goes back to each rule,
lexicon and start clause, whose terms need the hierarchy's types.
The first pass keeps the token index of each other clause and skips to
the period that ends it, comparing token texts only; a line and column
are computed for a type statement's subject and for an error, and for
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import compiler, machine, scan, terms, typesys

_KEYWORDS = ("rule", "lex", "start")


class GrammarError(scan.SourceError):
    pass


@dataclass
class Grammar:
    hierarchy: typesys.TypeHierarchy
    rules: list[terms.MRS]
    lexicon: dict[str, list]      # word -> list of terms, file order
    start: object
    code: compiler.CodeArea


def load_grammar(text) -> Grammar:
    cur, hierarchy, grammar_clauses = _read_types(text)
    rules = []
    lexicon = {}
    start = None
    for at in grammar_clauses:
        cur.i = at
        keyword = cur.next()
        if keyword == "rule":
            mrs = terms.parse_mrs_tokens(cur, hierarchy, stop=(".",))
            cur.expect(".")
            if not mrs.is_rule:
                cur.fail("a rule needs '=>' before its head", at)
            _require_well_typed(cur, hierarchy, mrs, f"rule {len(rules)}", at)
            rules.append(mrs)
        elif keyword == "lex":
            word = cur.expect_name("a word")
            cur.expect("=>")
            term = terms.parse_term_tokens(cur, hierarchy)
            cur.expect(".")
            _require_well_typed(cur, hierarchy, term, f"lexical entry for {word!r}", at)
            lexicon.setdefault(word, []).append(term)
        else:
            cur.expect("=>")
            term = terms.parse_term_tokens(cur, hierarchy)
            cur.expect(".")
            if start is not None:
                cur.fail("more than one start clause", at)
            start = term
    if start is None:
        raise GrammarError("grammar has no start clause")

    code = compiler.compile_grammar(hierarchy, rules, lexicon)
    code.start = machine.term_copy([start], hierarchy)
    return Grammar(hierarchy, rules, lexicon, start, code)


def load_hierarchy_only(text) -> typesys.TypeHierarchy:
    """The type section of a grammar file; other clauses are ignored.

    Also accepts a bare type-spec file, which is a grammar file with
    nothing but type clauses.
    """
    return _read_types(text)[1]


def _read_types(text):
    """The first pass over a grammar file.  Returns a cursor over its
    tokens, the hierarchy of its type clauses and the token index of each
    other clause, in file order."""
    cur = scan.tokenize(text, error=GrammarError)
    texts = cur.texts
    # every clause ends with a period: anything after the last one is an
    # unended clause, reported before any other error
    k = len(texts) - 1
    while k > 0 and texts[k - 1] != ".":
        k -= 1
    if k != len(texts) - 1:
        cur.fail("clause not ended with '.'", k)

    statements = []
    grammar_clauses = []
    while not cur.at_end():
        if cur.peek() in _KEYWORDS and texts[cur.i + 1:cur.i + 3] != ["sub", "["]:
            grammar_clauses.append(cur.i)
            cur.i = texts.index(".", cur.i) + 1
        else:
            statements.append(typesys.parse_statement(cur))
    try:
        hierarchy = typesys.validate(typesys.TypeSpec(tuple(statements)))
    except typesys.SpecError as e:
        raise GrammarError(e.message, e.line, e.col) from None
    return cur, hierarchy, grammar_clauses


def _require_well_typed(cur, hierarchy, t, what, at):
    """Raise at token *at* unless *t* is totally well-typed."""
    violations = terms.well_typed_check(hierarchy, t)
    if violations:
        detail = "; ".join(str(v) for v in violations)
        cur.fail(f"{what} is not totally well-typed: {detail}", at)

"""Grammar files: a type hierarchy plus rules, a lexicon and a start symbol.

A grammar file mixes four kinds of clauses, each ended by a period, in any
order:

    t sub [s1,s2] intro [f: v].      % type characterization
    rule body1, body2 => head.       % phrase structure rule over terms
    lex word => term.                % lexical entry
    start => term.                   % what a spanning head must unify with

Rule and lexicon terms must be totally well-typed.  The start term is only
parsed, not checked: it is usually more general than any derivable head
(e.g. a bare type), and the parser unifies it against candidates anyway.
It is built once, when the grammar loads, and the parser restores that
copy (``CodeArea.start``) for every spanning head it checks.
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
    clauses = _split_clauses(scan.tokenize(text, error=GrammarError))
    type_clauses = []
    grammar_clauses = []
    for clause in clauses:
        if _is_grammar_clause(clause):
            grammar_clauses.append(clause)
        else:
            type_clauses.append(clause)
    hierarchy = _build_hierarchy(type_clauses)

    rules = []
    lexicon = {}
    start = None
    for clause in grammar_clauses:
        cur = _cursor(clause)
        keyword = cur.next()
        if keyword.text == "rule":
            mrs = terms.parse_mrs_tokens(cur, hierarchy, stop=(".",))
            cur.expect(".")
            if not mrs.is_rule:
                raise GrammarError("a rule needs '=>' before its head",
                                   keyword.line, keyword.col)
            _require_well_typed(hierarchy, mrs, f"rule {len(rules)}", keyword)
            rules.append(mrs)
        elif keyword.text == "lex":
            word = cur.expect_name("a word").text
            cur.expect("=>")
            term = terms.parse_term_tokens(cur, hierarchy)
            cur.expect(".")
            _require_well_typed(hierarchy, term, f"lexical entry for {word!r}", keyword)
            lexicon.setdefault(word, []).append(term)
        else:
            cur.expect("=>")
            term = terms.parse_term_tokens(cur, hierarchy)
            cur.expect(".")
            if start is not None:
                raise GrammarError("more than one start clause", keyword.line, keyword.col)
            start = term
    if start is None:
        raise GrammarError("grammar has no start clause")

    code = compiler.compile_grammar(hierarchy, rules, lexicon)
    m = machine.MachineState(hierarchy)
    m.regs = {0: m.build_term(start)}
    code.start = m.snapshot_regs([0])
    return Grammar(hierarchy, rules, lexicon, start, code)


def load_hierarchy_only(text) -> typesys.TypeHierarchy:
    """The type section of a grammar file; other clauses are ignored.

    Also accepts a bare type-spec file, which is a grammar file with
    nothing but type clauses.
    """
    clauses = _split_clauses(scan.tokenize(text, error=GrammarError))
    return _build_hierarchy([c for c in clauses if not _is_grammar_clause(c)])


def _is_grammar_clause(clause) -> bool:
    head = clause[0]
    return (head.kind == scan.NAME and head.text in _KEYWORDS
            and clause[1].text != "sub")


def _split_clauses(tokens):
    clauses = []
    current = []
    for tok in tokens:
        if tok.kind == scan.END:
            break
        current.append(tok)
        if tok.text == ".":
            clauses.append(current)
            current = []
    if current:
        raise GrammarError("clause not ended with '.'", current[0].line, current[0].col)
    return clauses


def _cursor(clause):
    last = clause[-1]
    end = scan.Token(scan.END, "", last.line, last.col + len(last.text))
    return scan.Cursor(clause + [end], error=GrammarError)


def _build_hierarchy(type_clauses):
    statements = []
    seen = {}
    for clause in type_clauses:
        st = typesys.parse_statement(_cursor(clause))
        if st.name in seen:
            raise GrammarError(f"duplicate characterization of type {st.name!r}",
                               st.line, st.col)
        seen[st.name] = st
        statements.append(st)
    try:
        return typesys.validate(typesys.TypeSpec(tuple(statements)))
    except typesys.SpecError as e:
        raise GrammarError(e.message, e.line, e.col) from None


def _require_well_typed(hierarchy, t, what, tok):
    violations = terms.well_typed_check(hierarchy, t)
    if violations:
        detail = "; ".join(str(v) for v in violations)
        raise GrammarError(f"{what} is not totally well-typed: {detail}",
                           tok.line, tok.col)

import importlib.util
import random
from pathlib import Path

import pytest

import conftest
import oracle
from tfsam import grammar, scan, terms, typesys
from test_cli import GRAMMARS

NAMES = ["bot", "a", "d2", "_", "x_1", "42", "é", "straße", "Ωmega", "日本", "٣"]
PUNCT = ["[", "]", "(", ")", ",", ":", ".", "#", "~", "=>"]
GAPS = [" ", "", "\t", "\n", "\r\n", "  \r\n\t", "% a comment, $ and all\n",
        "%\r\n", "%=> [x]"]
BAD = ["$", "=", "@", "!", "\f", "\v", "\u00a0", "\x00"]


def read(text):
    """The text, line and column of each token of *text*, or the error's
    message and position."""
    try:
        cur = scan.tokenize(text)
    except scan.SourceError as e:
        return (e.message, e.line, e.col)
    return [(tok, *cur.position(i)) for i, tok in enumerate(cur.texts)]


def read_reference(text):
    """``read`` by the reference tokenizer, whose kind of each token must
    follow from its text: END exactly for the last token, and punct
    exactly for a text in ``scan.PUNCTUATION``."""
    try:
        tokens = oracle.tokenize(text)
    except scan.SourceError as e:
        return (e.message, e.line, e.col)
    last = len(tokens) - 1
    assert [kind for kind, *_ in tokens] == [
        oracle.END if i == last else oracle.PUNCT if tok in scan.PUNCTUATION else oracle.NAME
        for i, (_, tok, _, _) in enumerate(tokens)]
    return [tok[1:] for tok in tokens]


def random_text(rng):
    pieces = [rng.choice(rng.choice([NAMES, PUNCT, GAPS])) for _ in range(rng.randint(0, 30))]
    if rng.random() < 0.5:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(BAD))
    return "".join(pieces)


TEXTS = {**GRAMMARS, "example_spec": conftest.EXAMPLE_SPEC, "loop_spec": conftest.LOOP_SPEC}


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS)
def test_tokens_of_the_test_grammars_match_the_reference(text):
    tokens = read(text)
    assert isinstance(tokens, list) and len(tokens) > 1
    assert tokens == read_reference(text)


def test_tokens_and_errors_of_random_texts_match_the_reference():
    rng = random.Random(8)
    texts = [random_text(rng) for _ in range(600)]
    results = [read(t) for t in texts]
    assert results == [read_reference(t) for t in texts]
    # both outcomes occur, and errors on lines after the first
    assert sum(isinstance(r, tuple) for r in results) > 100
    assert sum(isinstance(r, list) for r in results) > 100
    assert any(isinstance(r, tuple) and r[1] > 2 for r in results)


# gaps put between the tokens of a type spec: blanks, blank lines, CRLF
# and comments, each able to separate two names
SPACERS = [" ", "\t", "\r\n", "\n\n", "\r\n\r\n  ", " % a comment, $ and all\r\n",
           "\n% a whole line\n\t", "%\n"]


def spaced_hierarchy_texts(seed, n):
    rng = random.Random(seed)
    texts = []
    for _ in range(n):
        _, text = oracle.random_hierarchy(rng, allow_loops=True)
        tokens = oracle.tokenize(text)[:-1]
        texts.append("".join(rng.choice(SPACERS) + tok[1] for tok in tokens)
                     + rng.choice(["", *SPACERS]))
    return texts


def test_statement_positions_are_those_of_their_subject_tokens():
    # positions are computed from offsets on demand; the reference counts
    # lines and columns as it reads
    for text in spaced_hierarchy_texts(29, 200):
        tokens = oracle.tokenize(text)
        assert read(text) == read_reference(text)
        subjects = [tokens[0]] + [tokens[i + 1] for i, tok in enumerate(tokens[:-2])
                                  if tok[1] == "."]
        statements = typesys.parse_type_spec(text).statements
        assert [(st.name, st.line, st.col) for st in statements] == \
            [(name, line, col) for _, name, line, col in subjects]
        assert max(st.line for st in statements) > len(statements)


def test_the_end_token_and_errors_far_into_a_crlf_text():
    text = "".join(f"t{i} sub [].\r\n" for i in range(2000)) + "% a late comment\r\n  t7 sub []."
    tokens = read(text)
    assert tokens == read_reference(text) and tokens[-1] == ("", 2002, 13)
    with pytest.raises(typesys.SpecError) as e:
        typesys.load_hierarchy(text)
    assert (e.value.line, e.value.col) == (2002, 3)


READERS = {
    "load_hierarchy": lambda h: typesys.load_hierarchy(conftest.EXAMPLE_SPEC),
    "load_hierarchy_only": lambda h: grammar.load_hierarchy_only(conftest.TOY_GRAMMAR),
    "load_grammar": lambda h: grammar.load_grammar(conftest.TOY_GRAMMAR),
    "parse_type_spec": lambda h: typesys.parse_type_spec(conftest.EXAMPLE_SPEC),
    "parse_term": lambda h: terms.parse_term("a(#1 d1,#1)", h),
    "parse_mrs": lambda h: terms.parse_mrs("a(bot,#3 d), d => a(d2,#3)", h),
}


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS)
def test_each_reader_tokenizes_once_through_the_module_attribute(monkeypatch, reader,
                                                                 example_hierarchy):
    # the benchmark's tracer times reading by wrapping scan.tokenize
    calls = []
    tokenize = scan.tokenize

    def counted(text, *args, **kwargs):
        calls.append(text)
        return tokenize(text, *args, **kwargs)

    monkeypatch.setattr(scan, "tokenize", counted)
    reader(example_hierarchy)
    assert len(calls) == 1


def test_the_benchmark_tracer_times_tokenize():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tr = tracing.Tracer()
    with tr:
        grammar.load_grammar(conftest.TOY_GRAMMAR)
    calls, _, inclusive = tr.summarize()
    assert calls["scan.tokenize"] == 1 and inclusive["scan.tokenize"] > 0

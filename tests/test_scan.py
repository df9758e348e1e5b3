import random

import pytest

import conftest
import oracle
from tfsam import scan
from test_cli import GRAMMARS

NAMES = ["bot", "a", "d2", "_", "x_1", "42", "é", "straße", "Ωmega", "日本", "٣"]
PUNCT = ["[", "]", "(", ")", ",", ":", ".", "#", "~", "=>"]
GAPS = [" ", "", "\t", "\n", "\r\n", "  \r\n\t", "% a comment, $ and all\n",
        "%\r\n", "%=> [x]"]
BAD = ["$", "=", "@", "!", "\f", "\v", "\u00a0", "\x00"]


def read(tokenize, text):
    """The tokens of *text* as 4-tuples, or the error's message and position."""
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except scan.SourceError as e:
        return (e.message, e.line, e.col)


def random_text(rng):
    pieces = [rng.choice(rng.choice([NAMES, PUNCT, GAPS])) for _ in range(rng.randint(0, 30))]
    if rng.random() < 0.5:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(BAD))
    return "".join(pieces)


TEXTS = {**GRAMMARS, "example_spec": conftest.EXAMPLE_SPEC, "loop_spec": conftest.LOOP_SPEC}


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS)
def test_tokens_of_the_test_grammars_match_the_reference(text):
    tokens = read(scan.tokenize, text)
    assert isinstance(tokens, list) and len(tokens) > 1
    assert tokens == read(oracle.tokenize, text)


def test_tokens_and_errors_of_random_texts_match_the_reference():
    rng = random.Random(8)
    texts = [random_text(rng) for _ in range(600)]
    results = [read(scan.tokenize, t) for t in texts]
    assert results == [read(oracle.tokenize, t) for t in texts]
    # both outcomes occur, and errors on lines after the first
    assert sum(isinstance(r, tuple) for r in results) > 100
    assert sum(isinstance(r, list) for r in results) > 100
    assert any(isinstance(r, tuple) and r[1] > 2 for r in results)


def test_token_is_a_named_four_tuple():
    tok = scan.tokenize("\r\n\tab")[0]
    assert tok == (scan.NAME, "ab", 2, 2) == scan.Token(scan.NAME, "ab", 2, 2)
    assert (tok.kind, tok.text, tok.line, tok.col) == tuple(tok)

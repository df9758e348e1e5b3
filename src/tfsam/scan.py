"""Tokenizer shared by the type-spec, term and grammar-file parsers.

The surface syntax is small: names (types, features, words, tag names),
a handful of punctuation marks, the arrow ``=>`` and ``%`` comments that
run to end of line.  One pattern reads all of it: its alternatives are a
newline, blanks and comments (skipped), a name, a punctuation mark, and
any other character, which is an error.  Every token carries its source
position so errors can point at the offending character.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class SourceError(Exception):
    """An error with a position in the input text."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + where)


NAME = "name"
PUNCT = "punct"
END = "end"

_TOKEN_RE = re.compile(r"(?P<newline>\n)|[ \t\r]+|%[^\n]*"
                       r"|(?P<name>\w+)|(?P<punct>=>|[\[\](),:.#~])|(?P<bad>.)")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(text, error=SourceError):
    """Return the list of tokens in *text*, ending with a synthetic END token."""
    tokens = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == NAME or kind == PUNCT:
            tokens.append(Token(kind, m.group(), line, m.start() - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "bad":
            raise error(f"unexpected character {m.group()!r}", line, m.start() - line_start + 1)
    tokens.append(Token(END, "", line, len(text) - line_start + 1))
    return tokens


class Cursor:
    """A peekable pointer into a token list."""

    def __init__(self, tokens, error=SourceError):
        self.tokens = tokens
        self.i = 0
        self.error = error

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok.kind != END:
            self.i += 1
        return tok

    def at(self, text):
        return self.tokens[self.i].text == text

    def at_name(self):
        return self.tokens[self.i].kind == NAME

    def at_end(self):
        return self.tokens[self.i].kind == END

    def expect(self, text, what=None):
        tok = self.next()
        if tok.text != text:
            found = "end of input" if tok.kind == END else repr(tok.text)
            raise self.error(f"expected {what or repr(text)}, found {found}", tok.line, tok.col)
        return tok

    def expect_name(self, what="a name"):
        tok = self.next()
        if tok.kind != NAME:
            found = "end of input" if tok.kind == END else repr(tok.text)
            raise self.error(f"expected {what}, found {found}", tok.line, tok.col)
        return tok

    def fail(self, message):
        tok = self.peek()
        raise self.error(message, tok.line, tok.col)

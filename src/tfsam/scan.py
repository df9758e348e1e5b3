"""Tokenizer shared by the type-spec, term and grammar-file parsers.

The surface syntax is small: names (types, features, words, tag names),
a handful of punctuation marks, the arrow ``=>`` and ``%`` comments that
run to end of line.  One pattern reads all of it in one ``findall``
pass: each match is a gap of blanks and comments, then a name, a
punctuation mark or the end of the text, or else any other character,
which is an error.

A text's tokens are kept as two lists, their texts and the offsets where
they end (``Tokens``); no object is made per token.  The readers and
``Cursor`` compare texts, and a reader keeps a token's index where it may
need its position later.  A line and column are computed from the
offset, by bisecting the offsets where the text's lines start, only when
an error, a type statement or a caller asks for them.  Indexing or
iterating ``Tokens`` still gives a ``Token(kind, text, line, col)``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from operator import itemgetter
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

PUNCTUATION = frozenset(("=>", "[", "]", "(", ")", ",", ":", ".", "#", "~"))

# One match per token: a gap of blanks and comments, then the token's
# text (group 2), which is empty at the end of the text, or else a look
# at a character no token takes (group 3), so that the match ends where
# that character starts.  Group 1 is the whole match: the lengths of
# the matches add up to the offsets where tokens end.
_TOKEN_RE = re.compile(r"((?:[ \t\r\n]+|%[^\n]*)*(?:(=>|\w+|[\[\](),:.#~]|\Z)|(?=(.))))")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


class Tokens(Sequence):
    """The tokens of *source*, ending with a synthetic END token whose
    text, and only its text, is empty."""

    def __init__(self, source, found):
        self.source = source
        self.texts = list(map(itemgetter(1), found))
        self._ends = list(accumulate(map(len, map(itemgetter(0), found))))
        self._line_starts = None

    def __len__(self):
        return len(self.texts)

    def __getitem__(self, i):
        text = self.texts[i]
        if i < 0:
            i += len(self.texts)
        kind = END if i == len(self.texts) - 1 else PUNCT if text in PUNCTUATION else NAME
        return Token(kind, text, *self.position(i))

    def position(self, i):
        """The line and column of token *i*, both counted from 1."""
        start = self._ends[i] - len(self.texts[i])
        if self._line_starts is None:
            lengths = (len(line) + 1 for line in self.source.split("\n"))
            self._line_starts = list(accumulate(lengths, initial=0))
        line = bisect_right(self._line_starts, start)
        return line, start - self._line_starts[line - 1] + 1


def tokenize(text, error=SourceError) -> Tokens:
    """The tokens of *text*, ending with a synthetic END token."""
    found = _TOKEN_RE.findall(text)
    if len(found) > 1 and found[-2][1:] == ("", ""):
        del found[-1]       # a text that ends in a gap matches its end twice
    tokens = Tokens(text, found)
    # a character no token takes leaves the empty text before END
    bad = tokens.texts.index("")
    if bad < len(found) - 1:
        raise error(f"unexpected character {found[bad][2]!r}", *tokens.position(bad))
    return tokens


class Cursor:
    """A pointer into a text's tokens that reads their texts.  ``i`` is the
    index of the next token, and ``position(i)`` the line and column of
    token *i*."""

    def __init__(self, tokens, error=SourceError):
        self.texts = tokens.texts
        self.position = tokens.position
        self.i = 0
        self.error = error

    def peek(self):
        return self.texts[self.i]

    def next(self):
        text = self.texts[self.i]
        if text:
            self.i += 1
        return text

    def at(self, text):
        return self.texts[self.i] == text

    def at_name(self):
        text = self.texts[self.i]
        return text != "" and text not in PUNCTUATION

    def at_end(self):
        return self.texts[self.i] == ""

    def expect(self, text, what=None):
        if self.texts[self.i] != text:
            self.fail(f"expected {what or repr(text)}, found {self._found()}")
        self.i += 1

    def expect_name(self, what="a name"):
        name = self.texts[self.i]
        if name == "" or name in PUNCTUATION:
            self.fail(f"expected {what}, found {self._found()}")
        self.i += 1
        return name

    def fail(self, message, i=None):
        """Raise the cursor's error at token *i*, by default the next one."""
        raise self.error(message, *self.position(self.i if i is None else i))

    def _found(self):
        text = self.texts[self.i]
        return repr(text) if text else "end of input"

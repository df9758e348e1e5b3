"""Tokenizer shared by the type-spec, term and grammar-file parsers.

The surface syntax is small: names (types, features, words, tag names),
a handful of punctuation marks, the arrow ``=>`` and ``%`` comments that
run to end of line.  One pattern reads all of it in one ``findall``
pass: each match is a gap of blanks and comments, then a name, a
punctuation mark or the end of the text, or else any other character,
which is an error.

``tokenize`` returns the one ``Cursor`` over a text.  It keeps the
tokens as two lists, their texts and the offsets where they end; no
object is made per token.  The readers compare texts, and a reader keeps
a token's index where it may need its position later.  A line and
column are computed from the offset, by bisecting the offsets where the
text's lines start, only when an error, a type statement or a caller
asks for them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter


class SourceError(Exception):
    """An error with a position in the input text."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + where)


PUNCTUATION = frozenset(("=>", "[", "]", "(", ")", ",", ":", ".", "#", "~"))

# One match per token: a gap of blanks and comments, then the token's
# text (group 2), which is empty at the end of the text, or else a look
# at a character no token takes (group 3), so that the match ends where
# that character starts.  Group 1 is the whole match: the lengths of
# the matches add up to the offsets where tokens end.
_TOKEN_RE = re.compile(r"((?:[ \t\r\n]+|%[^\n]*)*(?:(=>|\w+|[\[\](),:.#~]|\Z)|(?=(.))))")


def tokenize(text, error=SourceError) -> Cursor:
    """A cursor at the first token of *text*; raises *error* at a
    character no token takes."""
    found = _TOKEN_RE.findall(text)
    if len(found) > 1 and found[-2][1:] == ("", ""):
        del found[-1]       # a text that ends in a gap matches its end twice
    cur = Cursor(text, found, error)
    # a character no token takes leaves the empty text before the end
    bad = cur.texts.index("")
    if bad < len(found) - 1:
        cur.fail(f"unexpected character {found[bad][2]!r}", bad)
    return cur


class Cursor:
    """The tokens of a text and a pointer into them.  ``texts`` are the
    tokens' texts, ending with the empty text of a synthetic end token;
    ``i`` is the index of the next token, and ``position(i)`` the line and
    column of token *i*."""

    def __init__(self, source, found, error):
        self.source = source
        self.texts = list(map(itemgetter(1), found))
        self._ends = list(accumulate(map(len, map(itemgetter(0), found))))
        self._line_starts = None
        self.i = 0
        self.error = error

    def position(self, i):
        """The line and column of token *i*, both counted from 1."""
        start = self._ends[i] - len(self.texts[i])
        if self._line_starts is None:
            lengths = (len(line) + 1 for line in self.source.split("\n"))
            self._line_starts = list(accumulate(lengths, initial=0))
        line = bisect_right(self._line_starts, start)
        return line, start - self._line_starts[line - 1] + 1

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

    def expect(self, text):
        if self.texts[self.i] != text:
            self.fail(f"expected {text!r}, found {self._found()}")
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

"""The lexer as it was before whitespace joined the token pattern: one
match per run of whitespace and one per token.  `surface._lex` must
give the same tokens, or raise the same error, on any text.
"""

from __future__ import annotations

import re

from pedacc.surface import _KEYWORDS, _position, _Syn

# One alternative per token class, tried in order; `bad` takes any other
# character, so the matches tile the text.
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+)
  | (?P<comment>--[^\n]*)
  | (?P<word>[^\W\d][\w']*)
  | (?P<number>\d+)
  | (?P<punct>:=|=>|->|[():,])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def lex(text: str, starts: list[int]) -> list[tuple[str, str, int]]:
    toks = []
    # the eof token counts its column from the start of a comment that
    # ends the text
    eof_at = len(text)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        at, word = m.start(), m.group()
        if kind == "word" and (word[0].isalpha() or word[0] == "_"):
            toks.append(("kw" if word in _KEYWORDS else "ident", word, at))
        elif kind == "number" or kind == "punct":
            toks.append((kind, word, at))
        elif kind == "comment":
            if m.end() == len(text):
                eof_at = at
        else:
            raise _Syn(f"unexpected character {word[0]!r}", _position(starts, at))
    toks.append(("eof", "", eof_at))
    return toks

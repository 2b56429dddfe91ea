"""The reading of a source text as it was before names resolved in the
parser, for differential tests: the parser leaves every name no binder
binds `Free`, and `elaborate` then substitutes, declaration by
declaration, each definition's body and each built-in that no earlier
declaration takes.  `surface.elaborate(surface.parse(text))` must give
the same environment and commands, or the same `Diagnostic`.
"""

from __future__ import annotations

import functools
import re
import unicodedata

from pedacc import prelude
from pedacc.prelude import numeral
from pedacc.surface import (
    _BINDERS,
    _NAMING,
    _ONE_TERM,
    _SORTS,
    MAX_LITERAL,
    AssumeDecl,
    CheckCmd,
    DefineDecl,
    EvalCmd,
    InhabitCmd,
    NormalizeCmd,
    SetMotivationCmd,
    SourceDecl,
    SourcePos,
    _position,
    _quote,
    _Syn,
    _Token,
)
from pedacc.terms import (
    App,
    Bound,
    Environment,
    Free,
    Prod,
    Term,
    free_vars,
    subst_simultaneous,
)
from reference_lexer import lex


class _Parser:
    def __init__(self, text: str):
        self.end = len(text)
        # the offset at which each line starts, for `_position`
        self.starts = [0, *(m.end() for m in re.finditer("\n", text))]
        self.toks = lex(text, self.starts)
        self.i = 0

    def pos(self, tok: _Token) -> SourcePos:
        kind, _, at = tok
        return _position(self.starts, at, self.end if kind == "eof" else None)

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept(self, kind: str, text: str) -> bool:
        """Consume the next token if it is this one; say whether it was."""
        t = self.toks[self.i]
        if t[0] == kind and t[1] == text:
            self.i += 1
            return True
        return False

    def expect(self, kind: str, text: str | None = None) -> _Token:
        t = self.peek()
        if t[0] != kind or (text is not None and t[1] != text):
            want = text if text is not None else kind
            raise _Syn(f"expected {want!r}, found {_quote(t[1] or t[0])}", self.pos(t))
        return self.next()

    # declarations

    def decls(self) -> list[SourceDecl]:
        out: list[SourceDecl] = []
        while self.peek()[0] != "eof":
            out.append(self.decl())
        return out

    def decl(self) -> SourceDecl:
        kind, word, _ = t = self.next()
        pos = self.pos(t)
        if kind != "kw":
            raise _Syn(f"expected a declaration keyword, found {_quote(word)}", pos)
        if word in _NAMING:
            sep, cls = _NAMING[word]
            name = self.expect("ident")[1]
            self.expect("punct", sep)
            body = self.expr([])
            if cls is AssumeDecl:
                witness = self.expr([]) if self.accept("kw", "by") else None
                return AssumeDecl(name, body, witness, pos)
            return cls(name, body, pos)
        if word == "check":
            subject = self.expr([])
            expected = self.expr([]) if self.accept("punct", ":") else None
            return CheckCmd(subject, expected, pos)
        if word in _ONE_TERM:
            return _ONE_TERM[word](self.expr([]), pos)
        raise _Syn(f"{_quote(word)} cannot start a declaration", pos)

    # expressions; `binders` is the stack of surface names, innermost last

    def expr(self, binders: list[str]) -> Term:
        kind, word, _ = self.peek()
        if kind == "kw" and word in _BINDERS:
            self.next()
            sep, cls = _BINDERS[word]
            name = self.expect("ident")[1]
            self.expect("punct", ":")
            dom = self.expr(binders)
            self.expect("punct", sep)
            return cls(dom, self.expr(binders + [name]))
        left = self.app(binders)
        if self.accept("punct", "->"):
            # non-dependent product: the codomain never mentions the binder,
            # parse it one level out and shift
            return Prod(left, self.expr(binders + ["->"]))
        return left

    def app(self, binders: list[str]) -> Term:
        t = self.atom(binders)
        while True:
            kind, word, _ = self.peek()
            if (kind == "ident" or kind == "number"
                    or (kind == "punct" and word == "(")
                    or (kind == "kw" and word in _SORTS)):
                t = App(t, self.atom(binders))
            else:
                return t

    def atom(self, binders: list[str]) -> Term:
        kind, word, _ = t = self.next()
        if kind == "kw" and word in _SORTS:
            return _SORTS[word]
        if kind == "ident":
            for depth, name in enumerate(reversed(binders)):
                if name == word:
                    return Bound(depth)
            return Free(word)
        if kind == "number":
            # decided from the digits: `int` refuses a long enough run
            cut = max(0, len(word) - len(str(MAX_LITERAL)))
            head, tail = word[:cut], word[cut:]
            if any(unicodedata.digit(c) for c in head) or int(tail) > MAX_LITERAL:
                raise _Syn(f"number literal above {MAX_LITERAL}", self.pos(t))
            return numeral(int(tail))
        if kind == "punct" and word == "(":
            inner = self.expr(binders)
            self.expect("punct", ")")
            return inner
        raise _Syn(f"expected a term, found {_quote(word or kind)}", self.pos(t))


def read(text: str):
    """`elaborate(parse(text))` as it was: the environment and commands,
    or the first `Diagnostic`."""
    try:
        decls = _Parser(text).decls()
    except _Syn as e:
        return e.diagnostic("parse")
    return _elaborate(decls, builtins(), {})


@functools.cache
def builtins():
    defs = {}
    _elaborate(_Parser(prelude.SOURCE).decls(), {}, defs)
    return {name: defs[name] for name in prelude.BUILTINS}


def _elaborate(decls, builtins, defs):
    env = Environment()
    commands = []
    motivated = set()

    def resolve(t, pos):
        names = free_vars(t)
        bindings = [(n, defs[n]) for n in names if n in defs]
        bindings += [(n, builtins[n]) for n in names
                     if n not in defs and n not in env.names() and n in builtins]
        t = subst_simultaneous(t, bindings)
        for n in sorted(free_vars(t)):
            if env.lookup(n) is None:
                raise _Syn(f"unbound name {_quote(n)}", pos)
        return t

    try:
        for d in decls:
            if isinstance(d, (AssumeDecl, DefineDecl)):
                if d.name in defs or env.lookup(d.name) is not None:
                    raise _Syn(f"duplicate name {_quote(d.name)}", d.pos)
            if isinstance(d, AssumeDecl):
                ty = resolve(d.ty, d.pos)
                witness = resolve(d.witness, d.pos) if d.witness is not None else None
                env = env.extended(d.name, ty, witness)
            elif isinstance(d, DefineDecl):
                defs[d.name] = resolve(d.body, d.pos)
            elif isinstance(d, CheckCmd):
                expected = (resolve(d.expected, d.pos)
                            if d.expected is not None else None)
                commands.append(d._replace(subject=resolve(d.subject, d.pos),
                                           expected=expected))
            elif isinstance(d, InhabitCmd):
                commands.append(d._replace(goal=resolve(d.goal, d.pos)))
            elif isinstance(d, (NormalizeCmd, EvalCmd)):
                commands.append(d._replace(subject=resolve(d.subject, d.pos)))
            elif isinstance(d, SetMotivationCmd):
                if env.lookup(d.name) is None:
                    raise _Syn(f"motivation for a name never assumed: {_quote(d.name)}",
                               d.pos)
                if d.name in motivated:
                    raise _Syn(f"duplicate motivation for {_quote(d.name)}", d.pos)
                motivated.add(d.name)
                commands.append(d._replace(body=resolve(d.body, d.pos)))
            else:
                raise TypeError(f"not a declaration: {d!r}")
    except _Syn as e:
        return e.diagnostic("resolve")
    return env, tuple(commands)

"""Concrete syntax: parsing, printing, and elaboration to kernel terms.

The grammar is small and LL(1):

    decl  := 'assume' IDENT ':' expr ('by' expr)?
           | 'def' IDENT ':=' expr
           | 'check' expr (':' expr)?
           | 'inhabit' expr
           | 'normalize' expr
           | 'eval' expr
           | 'motivation' IDENT ':=' expr
    expr  := 'forall' IDENT ':' expr ',' expr
           | 'fun' IDENT ':' expr '=>' expr
           | app ('->' expr)?
    app   := atom+
    atom  := 'Prop' | 'Type' | IDENT | NUMBER | '(' expr ')'

`--` starts a comment running to end of line.  `A -> B` is sugar for a
product whose body does not use its binder.  A number literal expands
to `prelude.numeral`; one above `MAX_LITERAL` is a parse error.  Binders
are resolved to indices during parsing, so expression fields of
declarations are ordinary kernel terms whose free variables are names
still to be resolved by `elaborate`, last against `prelude.SOURCE`.

The printer (`render_term`) is the inverse: deterministic, with binder names
drawn by `terms.fresh_name` from fixed pools (types get A, B, C...,
functions f, g, h..., other terms x, y, z...), so parsing its output
recovers the original term.  Free names print as they are: the kernel
opens binders under those same pool names.  It reads the facts each term
node carries: a product whose body's mask has no bit 0 prints as an
arrow, and the text of a subterm is memoized under the node, the names
its loose indices print as and, only when it holds a named binder, the
names taken around it.
"""

from __future__ import annotations

import bisect
import functools
import re
import unicodedata
from collections import namedtuple
from collections.abc import Callable

from . import prelude
from .kernel import Diagnostic, Judgment, WellFormed
from .prelude import numeral
from .terms import (
    Abs,
    App,
    Bound,
    Environment,
    Free,
    PROP,
    Prod,
    SortConst,
    TYPE,
    Term,
    free_vars,
    fresh_name,
    subst_simultaneous,
)


# Positions, declarations and commands are immutable named tuples (see
# `kernel`).


class SourcePos(namedtuple("SourcePos", "line column offset")):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"{self.line}:{self.column}"


# --- declarations ----------------------------------------------------------


class AssumeDecl(namedtuple("AssumeDecl", "name ty witness pos")):
    __slots__ = ()  # `witness` is a term, or None


class DefineDecl(namedtuple("DefineDecl", "name body pos")):
    __slots__ = ()


# Every other declaration is a command: `parse` yields it with its names
# unresolved, and `elaborate` returns a resolved copy.


class CheckCmd(namedtuple("CheckCmd", "subject expected pos")):
    __slots__ = ()  # `expected` is a term, or None


class InhabitCmd(namedtuple("InhabitCmd", "goal pos")):
    __slots__ = ()


class NormalizeCmd(namedtuple("NormalizeCmd", "subject pos")):
    __slots__ = ()


class EvalCmd(namedtuple("EvalCmd", "subject pos")):
    __slots__ = ()


class SetMotivationCmd(namedtuple("SetMotivationCmd", "name body pos")):
    __slots__ = ()


Command = (CheckCmd | InhabitCmd | NormalizeCmd | EvalCmd | SetMotivationCmd)

SourceDecl = AssumeDecl | DefineDecl | Command


# --- lexer ------------------------------------------------------------------

_KEYWORDS = frozenset({
    "assume", "def", "check", "inhabit", "normalize", "eval",
    "motivation", "by", "forall", "fun", "Prop", "Type",
})

# One alternative per token class, tried in order; `bad` takes any other
# character, so the matches tile the text.  A word starts with a letter or
# `_` (checked after the match: `[^\W\d]` also admits a few non-letters,
# such as superscript digits); a number is a run of the decimal digits
# `int` reads.
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+)
  | (?P<comment>--[^\n]*)
  | (?P<word>[^\W\d][\w']*)
  | (?P<number>\d+)
  | (?P<punct>:=|=>|->|[():,])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# the largest number literal: its numeral, of a million nodes, takes
# seconds and hundreds of megabytes to build and evaluate
MAX_LITERAL = 1_000_000

# A token is (kind, text, offset): kind is kw, ident, number, punct or eof.
# Its position is worked out only when a declaration or an error needs it.
_Token = tuple[str, str, int]


class _Syn(Exception):
    def __init__(self, message: str, pos: SourcePos):
        super().__init__(message)
        self.message = message
        self.pos = pos

    def diagnostic(self, rule: str) -> Diagnostic:
        return Diagnostic(rule, self.message, (self.pos.line, self.pos.column, self.pos.offset))


def _cut(text: str, limit: int) -> str:
    """`text` for a message: its first `limit` characters, then `…`."""
    return text if len(text) <= limit else text[:limit] + "…"


def _quote(word: str) -> str:
    return repr(_cut(word, 40))


def _position(starts: list[int], at: int, offset: int | None = None) -> SourcePos:
    """The position of offset `at` in the text whose lines start at
    `starts`, reported at `offset` if given."""
    line = bisect.bisect_right(starts, at)
    return SourcePos(line, at - starts[line - 1] + 1, at if offset is None else offset)


def _lex(text: str, starts: list[int]) -> list[_Token]:
    toks: list[_Token] = []
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


# --- parser -----------------------------------------------------------------

# the declarations that name a term: keyword, name, separator, term (and,
# for `assume`, an optional `by` witness)
_NAMING = {"assume": (":", AssumeDecl), "def": (":=", DefineDecl),
           "motivation": (":=", SetMotivationCmd)}
# the commands that are a keyword and one term
_ONE_TERM = {"inhabit": InhabitCmd, "normalize": NormalizeCmd, "eval": EvalCmd}
# the binders: keyword, name, `:`, domain, separator, body
_BINDERS = {"forall": (",", Prod), "fun": ("=>", Abs)}
_SORTS = {"Prop": PROP, "Type": TYPE}


class _Parser:
    def __init__(self, text: str):
        self.end = len(text)
        # the offset at which each line starts, for `_position`
        self.starts = [0, *(m.end() for m in re.finditer("\n", text))]
        self.toks = _lex(text, self.starts)
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


def parse(text: str) -> list[SourceDecl] | Diagnostic:
    """Parse source text into declarations, or a position-tagged syntax
    Diagnostic."""
    try:
        return _Parser(text).decls()
    except _Syn as e:
        return e.diagnostic("parse")


def parse_term(text: str) -> Term | Diagnostic:
    """Parse a single expression (no declarations)."""
    try:
        p = _Parser(text)
        t = p.expr([])
        tok = p.peek()
        if tok[0] != "eof":
            raise _Syn(f"trailing input {_quote(tok[1])}", p.pos(tok))
        return t
    except _Syn as e:
        return e.diagnostic("parse")


# --- printer ----------------------------------------------------------------

# precedence contexts, loosest to tightest
_EXPR, _ARROW, _APP, _ATOM = 0, 1, 2, 3


def _loose_names(mask: int, binders: list[str]) -> tuple[str, ...]:
    """The text of each loose index in `mask`, lowest first, under
    `binders`."""
    n = len(binders)
    names = []
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        names.append(binders[-1 - i] if i < n else f"?{i - n}")
        mask ^= low
    return tuple(names)


def _render_term(t: Term, binders: list[str], scope: frozenset[str], prec: int,
                 memo: dict) -> str:
    """`binders` names the enclosing binders, innermost last ("->" for an
    arrow's), and grows and shrinks as binders are entered and left;
    `scope` holds the names a new binder must avoid: the free names and
    the enclosing binders' names.

    A node's text depends only on the node, on what its loose indices
    print as and, if it holds a named binder, on `scope`, so `memo` keeps
    it under those (parentheses are added after, for `prec`).  A subterm
    met again in the same context is not walked again."""
    kind = type(t)
    if kind is Free:
        return t.name
    if kind is Bound:
        i, n = t.index, len(binders)
        return binders[-1 - i] if i < n else f"?{i - n}"
    if kind is SortConst:
        return t.sort.value
    key = (t, _loose_names(t.mask, binders)) if t.mask else t
    if t.named:
        key = (key, scope)
    if kind is App:
        have = _APP
    elif kind is Prod and not t.body.mask & 1:
        have = _ARROW
    else:
        have = _EXPR
    s = memo.get(key)
    if s is None:
        if have == _APP:
            s = (f"{_render_term(t.fun, binders, scope, _APP, memo)} "
                 f"{_render_term(t.arg, binders, scope, _ATOM, memo)}")
        elif have == _ARROW:
            dom = _render_term(t.domain, binders, scope, _APP, memo)
            binders.append("->")
            s = f"{dom} -> {_render_term(t.body, binders, scope, _ARROW, memo)}"
            binders.pop()
        else:
            name = fresh_name(scope, t.domain)
            dom = _render_term(t.domain, binders, scope, _ARROW, memo)
            binders.append(name)
            body = _render_term(t.body, binders, scope | {name}, _EXPR, memo)
            binders.pop()
            s = (f"fun {name} : {dom} => {body}" if kind is Abs
                 else f"forall {name} : {dom}, {body}")
        memo[key] = s
    return f"({s})" if have < prec else s


def render_term(t: Term, memo: dict | None = None) -> str:
    """Deterministic concrete syntax for a kernel term.

    A caller printing many terms can pass one `memo` dict for all of them:
    each subterm is then rendered once per context it is printed in."""
    return _render_term(t, [], free_vars(t), _EXPR, {} if memo is None else memo)


def render_judgment(j: Judgment,
                    render: Callable[[Term], str] = render_term,
                    envs: dict | None = None) -> str:
    """One-line concrete form of a judgment; `render` prints its terms.

    A caller printing many judgments can pass a memoized `render_term`,
    and one `envs` dict for all of them, in which the printed environment
    is kept per (interned) `Environment`, so judgments in one environment
    build it once.
    """
    if envs is None:
        envs = {}
    env_s = envs.get(j.env)
    if env_s is None:
        env_s = envs[j.env] = _render_env(j.env, render)
    if isinstance(j, WellFormed):
        return f"wf {env_s}"
    return f"{env_s} |- {render(j.subject)} : {render(j.ty)}"


def _render_env(env: Environment, render: Callable[[Term], str]) -> str:
    return "[" + ", ".join([f"{e.name} : {render(e.ty)}" for e in env]) + "]"


def render_diagnostic(d: Diagnostic) -> str:
    """One error report, with its position and any term mismatch."""
    where = ""
    if d.rule in ("parse", "resolve") and len(d.position) >= 2:
        where = f" at line {d.position[0]}, column {d.position[1]}"
    elif d.position:
        where = " at " + ".".join(str(p) for p in d.position)
    out = f"error[{d.rule}]: {d.message}{where}"
    # a certificate keeps the whole term; a message quotes its start
    if d.expected is not None:
        out += f"\n  expected: {_cut(render_term(d.expected), 200)}"
    if d.found is not None:
        out += f"\n  found:    {_cut(render_term(d.found), 200)}"
    return out


# --- elaboration ------------------------------------------------------------


def elaborate(decls: list[SourceDecl],
              ) -> tuple[Environment, tuple[Command, ...]] | Diagnostic:
    """Resolve names and expand definitions.

    Assumptions accumulate into an Environment (with witness annotations
    when given); everything else becomes a kernel command.  Definitions
    are transparent: occurrences are replaced by their bodies, so the
    kernel never sees a defined name.  A name neither defined nor assumed
    resolves to the built-in of that name, if there is one.
    """
    return _elaborate(decls, _builtins(), {})


@functools.cache  # built on first use, not at import: set-up stays cheap
def _builtins() -> dict[str, Term]:
    """The terms of the names in `prelude.BUILTINS`, defined by
    `prelude.SOURCE`."""
    defs: dict[str, Term] = {}
    _elaborate(parse(prelude.SOURCE), {}, defs)
    return {name: defs[name] for name in prelude.BUILTINS}


def _elaborate(decls: list[SourceDecl], builtins: dict[str, Term],
               defs: dict[str, Term],
               ) -> tuple[Environment, tuple[Command, ...]] | Diagnostic:
    """`elaborate` with these built-ins, entering each definition into `defs`."""
    env = Environment()
    commands: list[Command] = []
    motivated: set[str] = set()

    def resolve(t: Term, pos: SourcePos) -> Term:
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

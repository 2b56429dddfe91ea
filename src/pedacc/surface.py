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
to `prelude.numeral`; one above `MAX_LITERAL` is a parse error.  Names
resolve as the parser builds each term: a binder's to an index, an
earlier definition's to its body, and a built-in's, unless an earlier
declaration takes it, to its term from `prelude.SOURCE`.  The free names
left are hypotheses, which `elaborate` checks were assumed in time.

The parser keeps one stack of the binders it is inside, and each name's
depths in it, so a name finds its binder in one step at any depth.

The printer (`render_term`) is the inverse: deterministic, with binder names
drawn from fixed pools (types get A, B, C..., functions f, g, h..., other
terms x, y, z..., then each with 1, 2, ... appended), so parsing its output
recovers the original term.  A binder takes the first candidate of its
pool that is neither a free name of the term nor an enclosing binder's
name; `terms.fresh_name` finds it from the candidate after the last one an
enclosing binder took (see `_past`), so naming a binder neither rescans
its pool nor copies the names around it.  Free names print as they are:
the kernel opens binders under those same pool names.  The printer reads
the facts each term node carries: a product whose body's mask has no bit
0 prints as an arrow, and the text of a subterm is memoized under the
node, the names its loose indices print as and, only when it holds a
named binder, the names taken around it.
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
    candidate,
    fresh_name,
    pool_of,
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


# Every other declaration is a command, which `elaborate` returns as
# `parse` built it.


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

# Each match is one token and the whitespace in front of it, so the
# matches tile the text: one alternative per token class, `bad` for any
# other character, and the empty end of the text, which ends the
# whitespace after the last token (the run is taken whole: `bad` never
# gets a character of it back).  A word starts with a letter or `_`
# (checked after the match: `[^\W\d]` also admits a few non-letters, such
# as superscript digits); a number is a run of the decimal digits `int`
# reads.
_TOKEN = re.compile(r"""
    [ \t\r\n]*+
    (?: (?P<word>[^\W\d][\w']*)
      | (?P<punct>:=|=>|->|[():,])
      | (?P<number>\d+)
      | (?P<comment>--[^\n]*)
      | (?P<bad>.)
      | \Z )
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
    end = eof_at = len(text)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # the end of the text
            break
        word, at = m[kind], m.start(kind)
        if kind == "word" and (word[0].isalpha() or word[0] == "_"):
            toks.append(("kw" if word in _KEYWORDS else "ident", word, at))
        elif kind == "number" or kind == "punct":
            toks.append((kind, word, at))
        elif kind == "comment":
            if m.end() == end:
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
_SORT_NAMES = {PROP: "Prop", TYPE: "Type"}


class _Parser:
    def __init__(self, text: str, names: dict[str, Term]):
        self.end = len(text)
        # the offset at which each line starts, for `_position`
        self.starts = [0, *(m.end() for m in re.finditer("\n", text))]
        self.toks = _lex(text, self.starts)
        self.i = 0
        # the surface names of the enclosing binders, innermost last, and
        # each name's positions in that stack: so a name finds its
        # innermost binder in one step, at any depth
        self.binders: list[str] = []
        self.depths: dict[str, list[int]] = {}
        # the term a name no binder binds stands for, if any: each
        # declaration updates it as it ends, so its name counts from the
        # next declaration on
        self.names = dict(names)

    def pos(self, tok: _Token) -> SourcePos:
        kind, _, at = tok
        return _position(self.starts, at, self.end if kind == "eof" else None)

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
        t = self.toks[self.i]
        if t[0] != kind or (text is not None and t[1] != text):
            want = text if text is not None else kind
            raise _Syn(f"expected {want!r}, found {_quote(t[1] or t[0])}", self.pos(t))
        return self.next()

    # declarations

    def decls(self) -> list[SourceDecl]:
        out: list[SourceDecl] = []
        while self.toks[self.i][0] != "eof":
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
            body = self.expr()
            if cls is AssumeDecl:
                witness = self.expr() if self.accept("kw", "by") else None
                self.names.pop(name, None)
                return AssumeDecl(name, body, witness, pos)
            if cls is DefineDecl:
                self.names[name] = body
            return cls(name, body, pos)
        if word == "check":
            subject = self.expr()
            expected = self.expr() if self.accept("punct", ":") else None
            return CheckCmd(subject, expected, pos)
        if word in _ONE_TERM:
            return _ONE_TERM[word](self.expr(), pos)
        raise _Syn(f"{_quote(word)} cannot start a declaration", pos)

    # expressions

    def bound(self, name: str) -> Term:
        """The body of a binder of `name` ("->" for an arrow's, which no
        name reads)."""
        self.depths.setdefault(name, []).append(len(self.binders))
        self.binders.append(name)
        body = self.expr()
        self.depths[self.binders.pop()].pop()
        return body

    def expr(self) -> Term:
        kind, word, _ = self.toks[self.i]
        if kind == "kw" and word in _BINDERS:
            self.next()
            sep, cls = _BINDERS[word]
            name = self.expect("ident")[1]
            self.expect("punct", ":")
            dom = self.expr()
            self.expect("punct", sep)
            return cls(dom, self.bound(name))
        left = self.app()
        if self.accept("punct", "->"):
            # non-dependent product: the codomain never mentions the binder,
            # parse it one level out and shift
            return Prod(left, self.bound("->"))
        return left

    def app(self) -> Term:
        t = self.atom()
        while True:
            kind, word, _ = self.toks[self.i]
            if (kind == "ident" or kind == "number"
                    or (kind == "punct" and word == "(")
                    or (kind == "kw" and word in _SORTS)):
                t = App(t, self.atom())
            else:
                return t

    def atom(self) -> Term:
        kind, word, _ = t = self.next()
        if kind == "kw" and word in _SORTS:
            return _SORTS[word]
        if kind == "ident":
            at = self.depths.get(word)
            if at:
                return Bound(len(self.binders) - 1 - at[-1])
            # a definition's body or a built-in holds no loose index, so
            # it goes in as it is at any depth
            return self.names.get(word) or Free(word)
        if kind == "number":
            # decided from the digits: `int` refuses a long enough run
            cut = max(0, len(word) - len(str(MAX_LITERAL)))
            head, tail = word[:cut], word[cut:]
            if any(unicodedata.digit(c) for c in head) or int(tail) > MAX_LITERAL:
                raise _Syn(f"number literal above {MAX_LITERAL}", self.pos(t))
            return numeral(int(tail))
        if kind == "punct" and word == "(":
            inner = self.expr()
            self.expect("punct", ")")
            return inner
        raise _Syn(f"expected a term, found {_quote(word or kind)}", self.pos(t))


@functools.cache  # built on first use, not at import: set-up stays cheap
def _builtins() -> dict[str, Term]:
    """The terms of the names in `prelude.BUILTINS`: the bodies of their
    definitions in `prelude.SOURCE`, read with no built-ins."""
    p = _Parser(prelude.SOURCE, {})
    p.decls()
    return {name: p.names[name] for name in prelude.BUILTINS}


def parse(text: str) -> list[SourceDecl] | Diagnostic:
    """Parse source text into declarations, or a position-tagged syntax
    Diagnostic.

    A name no binder binds becomes the body of the definition of that
    name made earlier in the text; else, unless an earlier declaration
    takes the name, the built-in of that name; else it stays `Free`.
    """
    try:
        return _Parser(text, _builtins()).decls()
    except _Syn as e:
        return e.diagnostic("parse")


def parse_term(text: str) -> Term | Diagnostic:
    """Parse a single expression (no declarations).  Its free names stay
    `Free`, built-ins' too: they are hypotheses in a printed term."""
    try:
        p = _Parser(text, {})
        t = p.expr()
        tok = p.toks[p.i]
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


def _render_term(t: Term, binders: list[str], scope: tuple | None, prec: int,
                 memo: dict) -> str:
    """`binders` names the enclosing binders, innermost last ("->" for an
    arrow's), and grows and shrinks as binders are entered and left.
    `scope` stands for the names a new binder must avoid, the free names
    of the term printed and the enclosing binders' names (see `_past`).

    A node's text depends only on the node, on what its loose indices
    print as and, if it holds a named binder, on `scope`, so `memo` keeps
    it under those (parentheses are added after, for `prec`).  A subterm
    met again in the same context is not walked again, save the binders
    inside a chain (see `_render_binders`)."""
    kind = type(t)
    if kind is Free:
        return t.name
    if kind is Bound:
        i, n = t.index, len(binders)
        return binders[-1 - i] if i < n else f"?{i - n}"
    if kind is SortConst:
        return _SORT_NAMES[t]
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
            s = _render_binders(t, binders, scope, memo)
        memo[key] = s
    return f"({s})" if have < prec else s


def _render_binders(t: Abs | Prod, binders: list[str], scope: tuple, memo: dict) -> str:
    """The text of a named binder, and of the chain of named binders that
    is its body, its body's body, and so on, in one loop: the chain's text
    is joined once, not once per binder, so a deep one costs time linear
    in its length.  Each binder takes the first free candidate of its pool
    in the scope of the binders around it."""
    pieces = []
    depth = len(binders)
    while True:
        pool = pool_of(t.domain)
        at = scope[pool + 1]
        name = candidate(pool, at)
        dom = _render_term(t.domain, binders, scope, _ARROW, memo)
        pieces.append(f"fun {name} : {dom} => " if type(t) is Abs
                      else f"forall {name} : {dom}, ")
        binders.append(name)
        scope = _past(scope, pool, at + 1)
        t = t.body
        if not (type(t) is Abs or type(t) is Prod and t.body.mask & 1):
            break
    pieces.append(_render_term(t, binders, scope, _EXPR, memo))
    del binders[depth:]
    return "".join(pieces)


def _past(scope: tuple, pool: int, start: int) -> tuple:
    """`scope` once the candidates of `pool` before `start` are taken.

    A scope is the free names not yet passed, then, per name pool, the
    index of its first candidate that is free.  A binder takes that
    candidate, so along one path a pool's names are taken in candidate
    order, and the next free one is the first from there on that is not a
    free name.  The free names passed on the way are dropped, since every
    candidate before the free one is taken: so one set of names to avoid
    is one scope, and one memo key, however it came about."""
    rest, i = scope[0], start
    if rest and candidate(pool, i) in rest:
        i = fresh_name(pool, i + 1, rest)[1]
        rest = rest.difference([candidate(pool, j) for j in range(start, i)])
    inner = list(scope)
    inner[0], inner[pool + 1] = rest, i
    return tuple(inner)


def render_term(t: Term, memo: dict | None = None) -> str:
    """Deterministic concrete syntax for a kernel term.

    A caller printing many terms can pass one `memo` dict for all of them:
    each subterm is then rendered once per context it is printed in."""
    if memo is None:
        memo = {}
    scope = None
    if t.named:  # else no binder of it takes a name
        # the scope of a set of free names is kept under that set
        scope = memo.get(t.fv)
        if scope is None:
            scope = memo[t.fv] = _past(_past(_past((t.fv, 0, 0, 0), 0, 0), 1, 0), 2, 0)
    return _render_term(t, [], scope, _EXPR, memo)


def render_judgment(j: Judgment,
                    render: Callable[[Term], str] = render_term,
                    rows: dict | None = None) -> str:
    """One-line concrete form of a judgment; `render` prints its terms.

    With no `rows` table, the line holds its environment in full:
    ``[x : A, y : B] |- t : T``, or ``wf [x : A, y : B]``.  With one (see
    `render_rows`), it cites the environment's row instead: ``#k |- t :
    T``.  A ``wf`` line whose environment has no row yet, though its
    parent has, gives it one: ``wf #k = #j, y : B``.
    """
    if rows is None:
        env_s = "[" + ", ".join([f"{e.name} : {render(e.ty)}" for e in j.env]) + "]"
    elif isinstance(j, WellFormed) and j.env not in rows:
        (env_s,) = render_rows(j.env, render, rows)
    else:
        env_s = rows[j.env]
    if isinstance(j, WellFormed):
        return f"wf {env_s}"
    return f"{env_s} |- {render(j.subject)} : {render(j.ty)}"


def render_rows(env: Environment | None, render: Callable[[Term], str],
                rows: dict) -> list[str]:
    """The rows that `env` and its ancestors lack in `rows`, oldest first,
    each entered there (an environment keys the text that cites it).

    Rows are numbered in the order they are made: ``#k = []`` for the
    empty environment, else ``#k = #j, y : B``, the row of its parent and
    its last entry.  So a row comes after its parent's, and an environment
    printed once is cited by every line in it.
    """
    newer = []
    while env is not None and env not in rows:
        newer.append(env)
        env = env.parent
    out = []
    for env in reversed(newer):
        k = rows[env] = f"#{len(rows)}"
        if env.parent is None:
            out.append(f"{k} = []")
        else:
            out.append(f"{k} = {rows[env.parent]}, {env.last.name} : {render(env.last.ty)}")
    return out


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
    """Collect the assumptions and commands, and check their names.

    Names resolve in `parse`, which puts each definition's body and each
    built-in in its name's place; this substitutes nothing.  It checks
    that no name is declared twice, that each motivation line names an
    assumed hypothesis once, and that each free name left was assumed by
    an earlier declaration.  Assumptions accumulate into an Environment
    (with witness annotations when given); every other declaration but a
    definition is a kernel command, returned as it is.
    """
    env = Environment()
    assumed: set[str] = set()
    defined: set[str] = set()
    commands: list[Command] = []
    motivated: set[str] = set()
    try:
        for d in decls:
            if isinstance(d, (AssumeDecl, DefineDecl)):
                if d.name in defined or d.name in assumed:
                    raise _Syn(f"duplicate name {_quote(d.name)}", d.pos)
            elif isinstance(d, SetMotivationCmd):
                if d.name not in assumed:
                    raise _Syn(f"motivation for a name never assumed: {_quote(d.name)}",
                               d.pos)
                if d.name in motivated:
                    raise _Syn(f"duplicate motivation for {_quote(d.name)}", d.pos)
                motivated.add(d.name)
            elif not isinstance(d, SourceDecl):
                raise TypeError(f"not a declaration: {d!r}")
            # its terms, in field order
            for t in d[:-1]:
                if isinstance(t, Term) and not t.fv <= assumed:
                    raise _Syn(f"unbound name {_quote(min(t.fv - assumed))}", d.pos)
            if isinstance(d, AssumeDecl):
                env = env.extended(d.name, d.ty, d.witness)
                assumed.add(d.name)
            elif isinstance(d, DefineDecl):
                defined.add(d.name)
            else:
                commands.append(d)
    except _Syn as e:
        return e.diagnostic("resolve")
    return env, tuple(commands)

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
product whose body does not use its binder.  Number literals expand to
the standard library numerals.  Binders are resolved to indices during
parsing, so expression fields of declarations are ordinary kernel terms
whose free variables are names still to be resolved by `elaborate`.

The printer (`render`) is the inverse: deterministic, with binder names
drawn by `terms.fresh_name` from fixed pools (types get A, B, C...,
functions f, g, h..., other terms x, y, z...), so parsing its output
recovers the original term.  Free names print as they are: the kernel
opens binders under those same pool names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .kernel import Diagnostic, Judgment, WellFormed
from .prelude import (
    bot_type,
    factorial,
    fst_term,
    id_term,
    iter_term,
    nat_type,
    numeral,
    pair_term,
    plus,
    pred,
    rec_term,
    snd_term,
    succ,
    times,
    top_type,
    zero,
)
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


@dataclass(frozen=True)
class SourcePos:
    line: int
    column: int
    offset: int

    def __repr__(self) -> str:
        return f"{self.line}:{self.column}"


# --- declarations ----------------------------------------------------------


@dataclass(frozen=True)
class AssumeDecl:
    name: str
    ty: Term
    witness: Term | None
    pos: SourcePos


@dataclass(frozen=True)
class DefineDecl:
    name: str
    body: Term
    pos: SourcePos


# Every other declaration is a command: `parse` yields it with its names
# unresolved, and `elaborate` returns a resolved copy.


@dataclass(frozen=True)
class CheckCmd:
    subject: Term
    expected: Term | None
    pos: SourcePos


@dataclass(frozen=True)
class InhabitCmd:
    goal: Term
    pos: SourcePos


@dataclass(frozen=True)
class NormalizeCmd:
    subject: Term
    pos: SourcePos


@dataclass(frozen=True)
class EvalCmd:
    subject: Term
    pos: SourcePos


@dataclass(frozen=True)
class SetMotivationCmd:
    name: str
    body: Term
    pos: SourcePos


Command = (CheckCmd | InhabitCmd | NormalizeCmd | EvalCmd | SetMotivationCmd)

SourceDecl = AssumeDecl | DefineDecl | Command


# --- lexer ------------------------------------------------------------------

_KEYWORDS = frozenset({
    "assume", "def", "check", "inhabit", "normalize", "eval",
    "motivation", "by", "forall", "fun", "Prop", "Type",
})

_PUNCT = (":=", "=>", "->", "(", ")", ":", ",")


@dataclass(frozen=True)
class _Token:
    kind: str     # kw | ident | number | punct | eof
    text: str
    pos: SourcePos


class _Syn(Exception):
    def __init__(self, message: str, pos: SourcePos):
        super().__init__(message)
        self.message = message
        self.pos = pos


def _lex(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def pos() -> SourcePos:
        return SourcePos(line, col, i)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1; line += 1; col = 1
            continue
        if c in " \t\r":
            i += 1; col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            p = pos()
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            toks.append(_Token("kw" if word in _KEYWORDS else "ident", word, p))
            col += j - i; i = j
            continue
        if c.isdigit():
            p = pos()
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("number", text[i:j], p))
            col += j - i; i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                toks.append(_Token("punct", punct, pos()))
                col += len(punct); i += len(punct)
                break
        else:
            raise _Syn(f"unexpected character {c!r}", pos())
    toks.append(_Token("eof", "", pos()))
    return toks


# --- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise _Syn(f"expected {want!r}, found {t.text or t.kind!r}", t.pos)
        return self.next()

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def at_kw(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text == text

    # declarations

    def decls(self) -> list[SourceDecl]:
        out: list[SourceDecl] = []
        while self.peek().kind != "eof":
            out.append(self.decl())
        return out

    def decl(self) -> SourceDecl:
        t = self.peek()
        if t.kind != "kw":
            raise _Syn(f"expected a declaration keyword, found {t.text!r}", t.pos)
        if t.text == "assume":
            self.next()
            name = self.expect("ident").text
            self.expect("punct", ":")
            ty = self.expr([])
            witness = None
            if self.at_kw("by"):
                self.next()
                witness = self.expr([])
            return AssumeDecl(name, ty, witness, t.pos)
        if t.text == "def":
            self.next()
            name = self.expect("ident").text
            self.expect("punct", ":=")
            return DefineDecl(name, self.expr([]), t.pos)
        if t.text == "check":
            self.next()
            subject = self.expr([])
            expected = None
            if self.at_punct(":"):
                self.next()
                expected = self.expr([])
            return CheckCmd(subject, expected, t.pos)
        if t.text == "inhabit":
            self.next()
            return InhabitCmd(self.expr([]), t.pos)
        if t.text == "normalize":
            self.next()
            return NormalizeCmd(self.expr([]), t.pos)
        if t.text == "eval":
            self.next()
            return EvalCmd(self.expr([]), t.pos)
        if t.text == "motivation":
            self.next()
            name = self.expect("ident").text
            self.expect("punct", ":=")
            return SetMotivationCmd(name, self.expr([]), t.pos)
        raise _Syn(f"{t.text!r} cannot start a declaration", t.pos)

    # expressions; `binders` is the stack of surface names, innermost last

    def expr(self, binders: list[str]) -> Term:
        t = self.peek()
        if self.at_kw("forall"):
            self.next()
            name = self.expect("ident").text
            self.expect("punct", ":")
            dom = self.expr(binders)
            self.expect("punct", ",")
            body = self.expr(binders + [name])
            return Prod(dom, body)
        if self.at_kw("fun"):
            self.next()
            name = self.expect("ident").text
            self.expect("punct", ":")
            dom = self.expr(binders)
            self.expect("punct", "=>")
            body = self.expr(binders + [name])
            return Abs(dom, body)
        left = self.app(binders)
        if self.at_punct("->"):
            self.next()
            # non-dependent product: the codomain never mentions the binder,
            # parse it one level out and shift
            body = self.expr(binders + ["->"])
            return Prod(left, body)
        return left

    def app(self, binders: list[str]) -> Term:
        t = self.atom(binders)
        while True:
            nxt = self.peek()
            if (nxt.kind in ("ident", "number")
                    or (nxt.kind == "punct" and nxt.text == "(")
                    or (nxt.kind == "kw" and nxt.text in ("Prop", "Type"))):
                t = App(t, self.atom(binders))
            else:
                return t

    def atom(self, binders: list[str]) -> Term:
        t = self.next()
        if t.kind == "kw" and t.text == "Prop":
            return PROP
        if t.kind == "kw" and t.text == "Type":
            return TYPE
        if t.kind == "ident":
            for depth, name in enumerate(reversed(binders)):
                if name == t.text:
                    return Bound(depth)
            return Free(t.text)
        if t.kind == "number":
            return numeral(int(t.text))
        if t.kind == "punct" and t.text == "(":
            inner = self.expr(binders)
            self.expect("punct", ")")
            return inner
        raise _Syn(f"expected a term, found {t.text or t.kind!r}", t.pos)


def parse(text: str) -> list[SourceDecl] | Diagnostic:
    """Parse source text into declarations, or a position-tagged syntax
    Diagnostic."""
    try:
        return _Parser(_lex(text)).decls()
    except _Syn as e:
        return Diagnostic("parse", e.message, (e.pos.line, e.pos.column, e.pos.offset))


def parse_term(text: str) -> Term | Diagnostic:
    """Parse a single expression (no declarations)."""
    try:
        p = _Parser(_lex(text))
        t = p.expr([])
        tok = p.peek()
        if tok.kind != "eof":
            raise _Syn(f"trailing input {tok.text!r}", tok.pos)
        return t
    except _Syn as e:
        return Diagnostic("parse", e.message, (e.pos.line, e.pos.column, e.pos.offset))


# --- printer ----------------------------------------------------------------

# precedence contexts, loosest to tightest
_EXPR, _ARROW, _APP, _ATOM = 0, 1, 2, 3


def _uses_top(t: Term, depth: int = 0) -> bool:
    if isinstance(t, Bound):
        return t.index == depth
    if isinstance(t, App):
        return _uses_top(t.fun, depth) or _uses_top(t.arg, depth)
    if isinstance(t, (Abs, Prod)):
        return _uses_top(t.domain, depth) or _uses_top(t.body, depth + 1)
    return False


def _wrap(s: str, have: int, want: int) -> str:
    return f"({s})" if have < want else s


def _render_term(t: Term, binders: list[str], scope: set[str], prec: int) -> str:
    """`binders` names the enclosing binders, innermost last ("->" for an
    arrow's); `scope` holds the names a new binder must avoid: the free
    names and the enclosing binders' names.  Both grow on entering a
    binder and are restored on leaving it."""
    if isinstance(t, SortConst):
        return t.sort.value
    if isinstance(t, Bound):
        if t.index < len(binders):
            return binders[-1 - t.index]
        return f"?{t.index - len(binders)}"
    if isinstance(t, Free):
        return t.name
    if isinstance(t, App):
        f = _render_term(t.fun, binders, scope, _APP)
        a = _render_term(t.arg, binders, scope, _ATOM)
        return _wrap(f"{f} {a}", _APP, prec)
    if isinstance(t, Prod) and not _uses_top(t.body):
        dom = _render_term(t.domain, binders, scope, _APP)
        binders.append("->")
        body = _render_term(t.body, binders, scope, _ARROW)
        binders.pop()
        return _wrap(f"{dom} -> {body}", _ARROW, prec)
    if isinstance(t, (Abs, Prod)):
        name = fresh_name(scope, t.domain)
        dom = _render_term(t.domain, binders, scope, _ARROW)
        binders.append(name)
        scope.add(name)  # a name not in scope, so remove restores it
        body = _render_term(t.body, binders, scope, _EXPR)
        scope.remove(name)
        binders.pop()
        if isinstance(t, Abs):
            return _wrap(f"fun {name} : {dom} => {body}", _EXPR, prec)
        return _wrap(f"forall {name} : {dom}, {body}", _EXPR, prec)
    raise TypeError(f"not a term: {t!r}")


def render_term(t: Term) -> str:
    """Deterministic concrete syntax for a kernel term."""
    return _render_term(t, [], set(free_vars(t)), _EXPR)


def render(obj: Term | SourceDecl) -> str:
    """Concrete syntax for a term or a declaration."""
    if isinstance(obj, AssumeDecl):
        s = f"assume {obj.name} : {render_term(obj.ty)}"
        if obj.witness is not None:
            s += f" by {render_term(obj.witness)}"
        return s
    if isinstance(obj, DefineDecl):
        return f"def {obj.name} := {render_term(obj.body)}"
    if isinstance(obj, CheckCmd):
        s = f"check {render_term(obj.subject)}"
        if obj.expected is not None:
            s += f" : {render_term(obj.expected)}"
        return s
    if isinstance(obj, InhabitCmd):
        return f"inhabit {render_term(obj.goal)}"
    if isinstance(obj, NormalizeCmd):
        return f"normalize {render_term(obj.subject)}"
    if isinstance(obj, EvalCmd):
        return f"eval {render_term(obj.subject)}"
    if isinstance(obj, SetMotivationCmd):
        return f"motivation {obj.name} := {render_term(obj.body)}"
    return render_term(obj)


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
    if d.expected is not None:
        out += f"\n  expected: {render_term(d.expected)}"
    if d.found is not None:
        out += f"\n  found:    {render_term(d.found)}"
    return out


# --- elaboration ------------------------------------------------------------

# names every source file may use without defining; user declarations
# shadow them silently
BUILTINS: dict[str, Term] = {
    "nat": nat_type,
    "top": top_type,
    "bot": bot_type,
    "id": id_term,
    "zero": zero,
    "succ": succ,
    "plus": plus,
    "times": times,
    "pred": pred,
    "factorial": factorial,
    "iter": iter_term,
    "rec": rec_term,
    "pair": pair_term,
    "fst": fst_term,
    "snd": snd_term,
}


def elaborate(decls: list[SourceDecl],
              ) -> tuple[Environment, tuple[Command, ...]] | Diagnostic:
    """Resolve names and expand definitions.

    Assumptions accumulate into an Environment (with witness annotations
    when given); everything else becomes a kernel command.  Definitions
    are transparent: occurrences are replaced by their bodies, so the
    kernel never sees a defined name.
    """
    env = Environment()
    defs: dict[str, Term] = {}
    commands: list[Command] = []
    motivated: set[str] = set()

    def resolve(t: Term, pos: SourcePos) -> Term:
        names = free_vars(t)
        bindings = [(n, defs[n]) for n in names if n in defs]
        bindings += [(n, BUILTINS[n]) for n in names
                     if n not in defs and n not in env.names() and n in BUILTINS]
        t = subst_simultaneous(t, bindings)
        for n in sorted(free_vars(t)):
            if env.lookup(n) is None:
                raise _Syn(f"unbound name {n!r}", pos)
        return t

    try:
        for d in decls:
            if isinstance(d, (AssumeDecl, DefineDecl)):
                if d.name in defs or env.lookup(d.name) is not None:
                    raise _Syn(f"duplicate name {d.name!r}", d.pos)
            if isinstance(d, AssumeDecl):
                ty = resolve(d.ty, d.pos)
                witness = resolve(d.witness, d.pos) if d.witness is not None else None
                env = env.extended(d.name, ty, witness)
            elif isinstance(d, DefineDecl):
                defs[d.name] = resolve(d.body, d.pos)
            elif isinstance(d, CheckCmd):
                expected = (resolve(d.expected, d.pos)
                            if d.expected is not None else None)
                commands.append(replace(d, subject=resolve(d.subject, d.pos),
                                        expected=expected))
            elif isinstance(d, InhabitCmd):
                commands.append(replace(d, goal=resolve(d.goal, d.pos)))
            elif isinstance(d, (NormalizeCmd, EvalCmd)):
                commands.append(replace(d, subject=resolve(d.subject, d.pos)))
            elif isinstance(d, SetMotivationCmd):
                if env.lookup(d.name) is None:
                    raise _Syn(f"motivation for a name never assumed: {d.name!r}",
                               d.pos)
                if d.name in motivated:
                    raise _Syn(f"duplicate motivation for {d.name!r}", d.pos)
                motivated.add(d.name)
                commands.append(replace(d, body=resolve(d.body, d.pos)))
            else:
                raise TypeError(f"not a declaration: {d!r}")
    except _Syn as e:
        return Diagnostic("resolve", e.message,
                          (e.pos.line, e.pos.column, e.pos.offset))
    return env, tuple(commands)

"""The plain recursive printer, kept as a reference for `surface.render_term`.

It walks every node of the term, with no memo, asks whether a product's
body uses its binder by walking that body again, and names each binder
by `fresh_name`, which scans the binder's pool from its first candidate.
The tests check that the memoized printer, and the kernel and the search
that open binders, give the same names and text.

`render` prints a declaration through the shipped term printer, for the
tests that parse printed declarations back.  `expand_rows` turns the
lines `check` prints, which cite each environment by its row, back into
lines that hold each environment in full.
"""

from __future__ import annotations

from pedacc import surface
from pedacc.surface import (
    AssumeDecl,
    CheckCmd,
    DefineDecl,
    EvalCmd,
    InhabitCmd,
    NormalizeCmd,
    SetMotivationCmd,
    SourceDecl,
)
from pedacc.terms import (
    _POOL_FUN,
    _POOL_SORT,
    _POOL_TERM,
    Abs,
    App,
    Bound,
    Free,
    Prod,
    SortConst,
    Term,
    free_vars,
)

# precedence contexts, loosest to tightest
_EXPR, _ARROW, _APP, _ATOM = 0, 1, 2, 3


def fresh_name(taken, domain: Term) -> str:
    """The first name not in `taken` from the pool for a binder of
    `domain`, then from that pool with 1, 2, ... appended."""
    pool = (_POOL_SORT if isinstance(domain, SortConst)
            else _POOL_FUN if isinstance(domain, Prod) else _POOL_TERM)
    for name in pool:
        if name not in taken:
            return name
    k = 1
    while True:
        for name in pool:
            if f"{name}{k}" not in taken:
                return f"{name}{k}"
        k += 1


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
    render_term = surface.render_term
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


def expand_rows(stdout: str) -> str:
    """`check`'s stdout with every environment row put back where it is
    cited: a ``ctx`` line is dropped, a ``wf #k = ...`` line reads ``wf
    [...]`` and a ``#k |- t : T`` line ``[...] |- t : T``.  Raises
    `ValueError` on a row cited before it is printed, printed twice, or
    not built from an earlier row."""
    envs: dict[str, str] = {}
    lines = []
    for line in stdout.splitlines():
        if not line:  # between two derivations
            lines.append(line)
            continue
        label, text = line[:11].rstrip(), line[12:]
        wf = text.startswith("wf ")
        cite, _, rest = text[3 if wf else 0:].partition(" ")
        if rest.startswith("= "):
            if cite in envs or cite != f"#{len(envs)}":
                raise ValueError(f"row {cite} out of order: {line!r}")
            row = rest[2:]
            if row == "[]":
                env = "[]"
            else:
                parent, _, entry = row.partition(", ")
                if parent not in envs:
                    raise ValueError(f"row {cite} built on an unknown row: {line!r}")
                env = f"[{entry}]" if envs[parent] == "[]" else f"{envs[parent][:-1]}, {entry}]"
            envs[cite] = env
            if label == "ctx":
                continue
            if not wf:
                raise ValueError(f"a row on a line that is not wf: {line!r}")
            rest = ""
        elif cite not in envs:
            raise ValueError(f"row {cite} cited before it is printed: {line!r}")
        text = f"wf {envs[cite]}" if wf else f"{envs[cite]} {rest}"
        lines.append(f"{label:<11} {text}")
    return "".join(line + "\n" for line in lines)

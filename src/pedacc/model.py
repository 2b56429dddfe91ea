"""A two-valued model that proves some witness goals uninhabited.

In the proof-irrelevant model of the calculus, `Prop` is {0, 1} and every
proof is one point (Miquel & Werner, *The Not So Simple Proof-Irrelevant
Model of CC*, TYPES 2002).  A kind `K1 -> ... -> Kn -> Prop` is the finite
set of function tables from its domains to {0, 1}; a product over a kind
is the minimum over its elements, and a product over a proposition is
implication.  The model is sound: whatever a term inhabits is 1 under
every valuation that makes each hypothesis 1.  So a valuation of the
environment's type variables that makes every hypothesis 1 and the goal 0
shows that no witness exists, whatever the search budget.

`refute` decides only a fragment, and answers None outside it: a kind
whose domain is a proposition (it can be empty) or depends on a variable,
an abstraction inside a type, or more work than `MAX_VALUATIONS`.
"""

from __future__ import annotations

from itertools import product

from .reduction import FuelExhausted, normalize
from .terms import App, Bound, Environment, Free, PROP, Prod, Term, free_vars

# valuations of the environment, elements of any one kind, and elements
# and valuations visited by one `refute` call, at most
MAX_VALUATIONS = 4096

# what a bound proof variable stands for; it never occurs in a type
_PROOF = object()

Valuation = tuple[tuple[str, object], ...]


class _Outside(Exception):
    """The term lies outside the fragment the model decides, or deciding
    it would cost more than the budget."""


class _Tables:
    """The elements of each kind met so far, their positions, and what is
    left of one `refute` call's budget: a product over a kind visits every
    element at every valuation, so nested products multiply."""

    __slots__ = ("elements", "index", "left")

    def __init__(self):
        self.elements: dict = {}
        self.index: dict = {}
        self.left = MAX_VALUATIONS

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _Outside


def _is_kind(t: Term) -> bool:
    while type(t) is Prod:
        t = t.body
    return t is PROP


def _elements(kind: Term, tables: _Tables) -> tuple:
    """The kind's elements: 0 and 1 for Prop, and for `D -> K` the tables
    of K-elements indexed like D's elements."""
    got = tables.elements.get(kind)
    if got is None:
        if kind is PROP:
            got = (0, 1)
        elif type(kind) is Prod and _is_kind(kind.domain) and not kind.body.mask:
            dom = _elements(kind.domain, tables)
            cod = _elements(kind.body, tables)
            if len(cod) ** len(dom) > MAX_VALUATIONS:
                raise _Outside
            got = tuple(product(cod, repeat=len(dom)))
        else:
            raise _Outside  # dependent, or over a proposition
        tables.elements[kind] = got
        tables.index[kind] = {v: i for i, v in enumerate(got)}
    return got


def _value(t: Term, rho: dict, bound: tuple, tables: _Tables) -> tuple[object, Term]:
    """The value of a type-level normal form, with its kind."""
    tt = type(t)
    if tt is Free or tt is Bound:
        if tt is Free:
            got = rho.get(t.name)
        else:
            got = bound[-1 - t.index] if t.index < len(bound) else None
        if got is None or got is _PROOF:
            raise _Outside  # a proof, or a variable left out of the valuation
        return got
    if tt is App:
        f, kind = _value(t.fun, rho, bound, tables)
        if type(kind) is not Prod:
            raise _Outside
        _elements(kind.domain, tables)
        a, a_kind = _value(t.arg, rho, bound, tables)
        if a_kind is not kind.domain:
            raise _Outside
        return f[tables.index[kind.domain][a]], kind.body
    if tt is Prod:
        if _is_kind(t.domain):
            for v in _elements(t.domain, tables):
                tables.spend()
                if not _prop(t.body, rho, bound + ((v, t.domain),), tables):
                    return 0, PROP
            return 1, PROP
        if not _prop(t.domain, rho, bound, tables):
            return 1, PROP  # nothing to apply it to: vacuously true
        return _prop(t.body, rho, bound + (_PROOF,), tables), PROP
    raise _Outside  # an abstraction, or a sort where a type was expected


def _prop(t: Term, rho: dict, bound: tuple, tables: _Tables) -> int:
    v, kind = _value(t, rho, bound, tables)
    if kind is not PROP:
        raise _Outside
    return v


def refute(env: Environment, goal: Term, fuel: int) -> Valuation | None:
    """A valuation under which every hypothesis of `env` is 1 and `goal`
    is 0, or None when there is none or the question lies outside the
    fragment.

    The valuation gives, in environment order, the value of each type
    variable that the goal or a hypothesis mentions; a variable of sort
    Prop gets 0 or 1, one of a higher kind a function table.  Running out
    of fuel or of the interpreter's stack is None, and so is visiting more
    than `MAX_VALUATIONS` valuations and elements of kinds in all: the
    question is then left to the search.
    """
    try:
        goal = normalize(goal, fuel)
        types = [(e.name, normalize(e.ty, fuel)) for e in env]
    except FuelExhausted:
        return None
    if _is_kind(goal):
        return None  # every kind is inhabited
    mentioned = free_vars(goal).union(
        *(free_vars(ty) for _, ty in types if not _is_kind(ty)))
    tables = _Tables()
    # the variables to enumerate, each with the hypotheses that come before
    # the next one: those can be checked as soon as it has its value
    variables: list[tuple[str, Term, tuple]] = []
    checks: list[list[Term]] = [[]]
    size = 1
    try:
        for name, ty in types:
            if not _is_kind(ty):
                checks[-1].append(ty)
            elif name in mentioned:
                elements = _elements(ty, tables)
                size *= len(elements)
                if size > MAX_VALUATIONS:
                    return None
                variables.append((name, ty, elements))
                checks.append([])
        return _countermodel(0, variables, checks, goal, {}, tables)
    except (_Outside, RecursionError):  # or nested past the interpreter's stack
        return None


def _countermodel(i: int, variables: list, checks: list, goal: Term,
                  rho: dict, tables: _Tables) -> Valuation | None:
    # backtracking over the variables in order; len(variables) <=
    # log2(MAX_VALUATIONS) deep, and each leaf spends from the budget
    if not all(_prop(ty, rho, (), tables) for ty in checks[i]):
        return None
    if i == len(variables):
        tables.spend()
        if _prop(goal, rho, (), tables):
            return None
        return tuple((name, rho[name][0]) for name, _, _ in variables)
    name, kind, elements = variables[i]
    for v in elements:
        rho[name] = (v, kind)
        found = _countermodel(i + 1, variables, checks, goal, rho, tables)
        if found is not None:
            return found
    del rho[name]
    return None

"""Core term syntax: locally nameless lambda terms with two sorts.

Bound variables are De Bruijn indices counted from the nearest enclosing
binder; variables introduced by an environment entry or by opening a
binder are named ``Free`` references.  Every constructor is a frozen
dataclass, so terms compare structurally and can key memo tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence, Union


class Sort(Enum):
    PROP = "Prop"
    TYPE = "Type"

    def __str__(self) -> str:
        return self.value


# Terms are compared and hashed structurally, and they key every memo
# table in the checker, so equality fast-paths on identity and on a hash
# cached at the node (kept out of the field list via object.__setattr__).


@dataclass(frozen=True, eq=False)
class SortConst:
    sort: Sort

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not SortConst:
            return NotImplemented
        return self.sort is other.sort

    def __hash__(self):
        return hash(self.sort) ^ 0x5317



@dataclass(frozen=True, eq=False)
class Bound:
    index: int

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Bound:
            return NotImplemented
        return self.index == other.index

    def __hash__(self):
        return self.index ^ 0xB0B0D



@dataclass(frozen=True, eq=False)
class Free:
    name: str

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Free:
            return NotImplemented
        return self.name == other.name

    def __hash__(self):
        # str caches its own hash, nothing to store here
        return hash(self.name) ^ 0xF4EE



@dataclass(frozen=True, eq=False)
class App:
    fun: "Term"
    arg: "Term"

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not App:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return self.fun == other.fun and self.arg == other.arg

    def __hash__(self):
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((0xA99, self.fun, self.arg))
            object.__setattr__(self, "_h", h)
        return h



@dataclass(frozen=True, eq=False)
class Abs:
    domain: "Term"
    body: "Term"

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Abs:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return self.domain == other.domain and self.body == other.body

    def __hash__(self):
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((0xAB5, self.domain, self.body))
            object.__setattr__(self, "_h", h)
        return h



@dataclass(frozen=True, eq=False)
class Prod:
    domain: "Term"
    body: "Term"

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Prod:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return self.domain == other.domain and self.body == other.body

    def __hash__(self):
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((0x960D, self.domain, self.body))
            object.__setattr__(self, "_h", h)
        return h



Term = Union[SortConst, Bound, Free, App, Abs, Prod]

PROP = SortConst(Sort.PROP)
TYPE = SortConst(Sort.TYPE)

# Machine-generated variable names start with this prefix; the surface
# syntax rejects it, so generated names can never collide with user ones.
FRESH_PREFIX = "$"


def arrow(a: Term, b: Term) -> Term:
    """Non-dependent product ``a -> b`` (the body ignores the binder)."""
    return Prod(a, lift(b, 0, 1))


def apps(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = App(fun, a)
    return fun


# ---------------------------------------------------------------------------
# index arithmetic


def lift(t: Term, cutoff: int, amount: int) -> Term:
    """Add `amount` to every bound index that is `cutoff` or higher."""
    match t:
        case Bound(i):
            return Bound(i + amount) if i >= cutoff else t
        case App(f, a):
            return App(lift(f, cutoff, amount), lift(a, cutoff, amount))
        case Abs(d, b):
            return Abs(lift(d, cutoff, amount), lift(b, cutoff + 1, amount))
        case Prod(d, b):
            return Prod(lift(d, cutoff, amount), lift(b, cutoff + 1, amount))
        case _:
            return t


def subst(t: Term, target: str | int, u: Term) -> Term:
    """Capture-avoiding substitution.

    A `str` target replaces the free variable of that name.  An `int`
    target replaces the bound variable with that index as seen from the
    top of `t` and renumbers higher indices downward, the way a beta
    contraction consumes the binder that used to bind it.
    """
    if isinstance(target, str):

        def go_free(t: Term, depth: int) -> Term:
            match t:
                case Free(n) if n == target:
                    return lift(u, 0, depth)
                case App(f, a):
                    return App(go_free(f, depth), go_free(a, depth))
                case Abs(d, b):
                    return Abs(go_free(d, depth), go_free(b, depth + 1))
                case Prod(d, b):
                    return Prod(go_free(d, depth), go_free(b, depth + 1))
                case _:
                    return t

        return go_free(t, 0)

    def go_bound(t: Term, depth: int) -> Term:
        match t:
            case Bound(i):
                if i == target + depth:
                    return lift(u, 0, depth)
                return Bound(i - 1) if i > target + depth else t
            case App(f, a):
                return App(go_bound(f, depth), go_bound(a, depth))
            case Abs(d, b):
                return Abs(go_bound(d, depth), go_bound(b, depth + 1))
            case Prod(d, b):
                return Prod(go_bound(d, depth), go_bound(b, depth + 1))
            case _:
                return t

    return go_bound(t, 0)


def subst_simultaneous(t: Term, bindings: Sequence[tuple[str, Term]]) -> Term:
    """Replace several free variables in one pass over the term."""
    if not bindings:
        return t
    table = {}
    for name, value in bindings:
        if name in table:
            raise ValueError(f"duplicate variable in bindings: {name}")
        table[name] = value

    def go(t: Term, depth: int) -> Term:
        match t:
            case Free(n) if n in table:
                return lift(table[n], 0, depth)
            case App(f, a):
                return App(go(f, depth), go(a, depth))
            case Abs(d, b):
                return Abs(go(d, depth), go(b, depth + 1))
            case Prod(d, b):
                return Prod(go(d, depth), go(b, depth + 1))
            case _:
                return t

    return go(t, 0)


def free_vars(t: Term) -> set[str]:
    match t:
        case Free(n):
            return {n}
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case Abs(d, b) | Prod(d, b):
            return free_vars(d) | free_vars(b)
        case _:
            return set()


def is_closed(t: Term) -> bool:
    return not free_vars(t)


# ---------------------------------------------------------------------------
# binder opening and closing


def open_binder(body: Term, name: str) -> Term:
    """Instantiate the outermost binder slot of `body` with a free name."""
    return subst(body, 0, Free(name))


def close_binder(t: Term, name: str) -> Term:
    """Abstract the free variable `name`, producing a body for a new binder."""

    def go(t: Term, depth: int) -> Term:
        match t:
            case Free(n) if n == name:
                return Bound(depth)
            case Bound(i):
                return Bound(i + 1) if i >= depth else t
            case App(f, a):
                return App(go(f, depth), go(a, depth))
            case Abs(d, b):
                return Abs(go(d, depth), go(b, depth + 1))
            case Prod(d, b):
                return Prod(go(d, depth), go(b, depth + 1))
            case _:
                return t

    return go(t, 0)


def fresh_name(taken: Iterable[str], base: str = "x") -> str:
    """Deterministic fresh name avoiding `taken`, using the reserved prefix."""
    used = set(taken)
    k = 0
    while f"{FRESH_PREFIX}{base}{k}" in used:
        k += 1
    return f"{FRESH_PREFIX}{base}{k}"


# ---------------------------------------------------------------------------
# environments


@dataclass(frozen=True)
class EnvEntry:
    name: str
    ty: Term
    witness: Term | None = None


@dataclass(frozen=True, eq=False)
class Environment:
    entries: tuple[EnvEntry, ...] = ()

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Environment:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        h = self.__dict__.get("_h")
        if h is None:
            h = hash(self.entries)
            object.__setattr__(self, "_h", h)
        return h

    def __iter__(self) -> Iterator[EnvEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def lookup(self, name: str) -> EnvEntry | None:
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def extended(self, name: str, ty: Term, witness: Term | None = None) -> "Environment":
        return Environment(self.entries + (EnvEntry(name, ty, witness),))

    def prefix(self, length: int) -> "Environment":
        return Environment(self.entries[:length])


def env_of(*pairs: tuple[str, Term]) -> Environment:
    return Environment(tuple(EnvEntry(n, t) for n, t in pairs))

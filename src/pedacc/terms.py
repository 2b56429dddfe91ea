"""Core term syntax: locally nameless lambda terms with two sorts.

Bound variables are De Bruijn indices counted from the nearest enclosing
binder; variables introduced by an environment entry or by opening a
binder are named ``Free`` references.

Terms are hash-consed: a constructor returns the one live node with those
fields, so equal terms are the same object, and ``==`` and ``hash`` are
the identity ones every object has.  Terms are immutable and can key memo
tables; build them only through their constructors.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence, Union


class Sort(Enum):
    PROP = "Prop"
    TYPE = "Type"

    def __str__(self) -> str:
        return self.value


# Every live node, keyed by its class and fields.  A composite node is keyed
# by the id()s of its children; they stay valid as long as the entry does,
# because the node holds its children and its entry goes when it dies.  The
# values are weak references, so the table keeps no term alive.
_TABLE: dict[tuple, "_Ref"] = {}


class _Ref(weakref.ref):
    """A weak reference that carries its table key: `weakref.KeyedRef`
    without that class's constructors, which run as Python code."""

    __slots__ = ("key",)


def _drop(ref: _Ref, table: dict = _TABLE) -> None:
    # The key may be bound to a newer node already: a cyclic collection
    # clears a dead node's reference before it calls this.
    if table.get(ref.key) is ref:
        del table[ref.key]


def _add(cls: type, key: tuple, lb: int, *values) -> "Term":
    """Make and enter the node for a key that has no live node."""
    t = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(t, name, value)
    object.__setattr__(t, "lb", lb)
    ref = _TABLE[key] = _Ref(t, _drop)
    ref.key = key
    return t


class _Node:
    """Immutable, hash-consed term node.

    A constructor returns the live node that `_TABLE` holds for its key,
    or makes and enters a new one.  ``lb`` is one more than the highest
    bound index that is loose in the node (0 when it has none): index
    arithmetic returns a subterm as it is when no index there can change.
    """

    __slots__ = ("lb", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class SortConst(_Node):
    __slots__ = __match_args__ = ("sort",)

    def __new__(cls, sort: Sort):
        key = (cls, sort)
        ref = _TABLE.get(key)
        return (ref and ref()) or _add(cls, key, 0, sort)


class Bound(_Node):
    __slots__ = __match_args__ = ("index",)

    def __new__(cls, index: int):
        key = (cls, index)
        ref = _TABLE.get(key)
        return (ref and ref()) or _add(cls, key, index + 1, index)


class Free(_Node):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _TABLE.get(key)
        return (ref and ref()) or _add(cls, key, 0, name)


class App(_Node):
    __slots__ = __match_args__ = ("fun", "arg")

    def __new__(cls, fun: "Term", arg: "Term"):
        key = (cls, id(fun), id(arg))
        ref = _TABLE.get(key)
        return (ref and ref()) or _add(cls, key, max(fun.lb, arg.lb), fun, arg)


class _Binder(_Node):
    __slots__ = __match_args__ = ("domain", "body")

    def __new__(cls, domain: "Term", body: "Term"):
        key = (cls, id(domain), id(body))
        ref = _TABLE.get(key)
        return (ref and ref()) or _add(cls, key, max(domain.lb, body.lb - 1),
                                       domain, body)


class Abs(_Binder):
    __slots__ = ()


class Prod(_Binder):
    __slots__ = ()


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
    if t.lb <= cutoff:
        return t
    match t:
        case Bound(i):
            return Bound(i + amount)
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
        return subst_simultaneous(t, [(target, u)])

    def go_bound(t: Term, depth: int) -> Term:
        if t.lb <= target + depth:
            return t
        match t:
            case Bound(i):
                if i == target + depth:
                    return lift(u, 0, depth)
                return Bound(i - 1)
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
    return subst_simultaneous(lift(t, 0, 1), [(name, Bound(0))])


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

    # the checker keys its memos on environments, so the hash is cached

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

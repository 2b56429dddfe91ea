"""Core term syntax: locally nameless lambda terms with two sorts.

Bound variables are De Bruijn indices counted from the nearest enclosing
binder; variables introduced by an environment entry or by opening a
binder are named ``Free`` references.  Whoever opens a binder (the
kernel, the witness search) names it by
`fresh_name`: the first name of the domain's pool that is neither in the
environment nor free in the body.  The printer draws bound names from the
same pools, so a hypothesis has one name wherever it is shown.

Terms are hash-consed: a constructor returns the one live node with those
fields, so equal terms are the same object, and ``==`` and ``hash`` are
the identity ones every object has.  Terms are immutable and can key memo
tables; build them only through their constructors.  Each node also
carries four facts set from its children when it is made (see `_Node`):
its loose bound indices, its free names, whether it is beta-normal, and
whether it holds a named binder; one that is not normal keeps its normal
form once it has one.  Environments and their entries are interned the
same way.
"""

from __future__ import annotations

import weakref
from collections.abc import Container, Iterable, Iterator, Sequence
from enum import Enum


class Sort(Enum):
    PROP = "Prop"
    TYPE = "Type"

    def __str__(self) -> str:
        return self.value


# Every live term node, environment entry and environment, keyed by its
# class and fields.  A composite object is keyed by the id()s of its parts;
# they stay valid as long as the entry does, because the object holds its
# parts and its entry goes when it dies.  The values are weak references,
# so the table keeps nothing alive.
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


def _enter(obj, key: tuple):
    """Enter `obj` as the live object for `key`, which has none."""
    ref = _TABLE[key] = _Ref(obj, _drop)
    ref.key = key
    return obj


def _add(cls: type, key: tuple, *values):
    """Make and enter the object for a key that has no live one, with
    `values` for its `__match_args__` fields."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return _enter(obj, key)


class _Interned:
    """Immutable object that a constructor returns from `_TABLE`: the
    live one for its key, or a new one that it enters."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _Node(_Interned):
    """Immutable, hash-consed term node.

    Every node carries four facts about itself, each set when the node
    is made, from its children's, in O(1):

    - ``mask``: its loose bound indices, bit i set when index i occurs
      free in the node.  Index arithmetic returns a subterm as it is when
      no index there can change, and a product whose body's bit 0 is
      clear does not use its binder (it prints as an arrow).
    - ``fv``: its free names, a `frozenset` shared with a child whose
      names are all of them; every closed node shares one empty set.
    - ``nf``: the node is beta-normal, with no application of an
      abstraction anywhere inside it.  Normalizing it gives it back.
    - ``named``: the node holds a binder that prints with a name: an
      abstraction, or a product whose body uses its binder.  Only such a
      node's text depends on which names are taken around it.

    A leaf's facts are constants of its class, except a `Bound`'s mask
    and a `Free`'s names, which are its own.

    An application or binder that is not normal gets ``normal``, the one
    field set after it is made, when `reduction.normalize` first succeeds
    on it: the pair (its normal form, the contractions that took).
    """

    __slots__ = ()


_NO_NAMES: frozenset[str] = frozenset()


class SortConst(_Node):
    __slots__ = __match_args__ = ("sort",)
    mask, fv, nf, named = 0, _NO_NAMES, True, False

    def __new__(cls, sort: Sort):
        key = (cls, sort)
        ref = _TABLE.get(key)
        return (ref and ref()) or _add(cls, key, sort)


class Bound(_Node):
    __slots__ = ("index", "mask")
    __match_args__ = ("index",)
    fv, nf, named = _NO_NAMES, True, False

    def __new__(cls, index: int):
        key = (cls, index)
        ref = _TABLE.get(key)
        t = ref and ref()
        if t is None:
            t = _add(cls, key, index)
            object.__setattr__(t, "mask", 1 << index)
        return t


class Free(_Node):
    __slots__ = ("name", "fv")
    __match_args__ = ("name",)
    mask, nf, named = 0, True, False

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _TABLE.get(key)
        t = ref and ref()
        if t is None:
            t = _add(cls, key, name)
            object.__setattr__(t, "fv", frozenset((name,)))
        return t


# Applications and binders are most of the nodes made (NbE's read-back
# builds one per node it quotes), so each makes its own, with no loop
# over its fields.


class App(_Node):
    __slots__ = ("fun", "arg", "mask", "fv", "nf", "named", "normal")
    __match_args__ = ("fun", "arg")

    def __new__(cls, fun: "Term", arg: "Term"):
        key = (cls, id(fun), id(arg))
        ref = _TABLE.get(key)
        t = ref and ref()
        if t is None:
            t = object.__new__(cls)
            put = object.__setattr__
            put(t, "fun", fun)
            put(t, "arg", arg)
            put(t, "mask", fun.mask | arg.mask)
            a, b = fun.fv, arg.fv  # a child's set when it is the union
            put(t, "fv", a if b <= a else b if a <= b else a | b)
            put(t, "nf", fun.nf and arg.nf and type(fun) is not Abs)
            put(t, "named", fun.named or arg.named)
            _enter(t, key)
        return t


class _Binder(_Node):
    __slots__ = ("domain", "body", "mask", "fv", "nf", "named", "normal")
    __match_args__ = ("domain", "body")

    def __new__(cls, domain: "Term", body: "Term"):
        key = (cls, id(domain), id(body))
        ref = _TABLE.get(key)
        t = ref and ref()
        if t is None:
            t = object.__new__(cls)
            put = object.__setattr__
            put(t, "domain", domain)
            put(t, "body", body)
            put(t, "mask", domain.mask | body.mask >> 1)
            a, b = domain.fv, body.fv
            put(t, "fv", a if b <= a else b if a <= b else a | b)
            put(t, "nf", domain.nf and body.nf)
            put(t, "named", (cls is Abs or domain.named or body.named
                             or body.mask & 1 == 1))
            _enter(t, key)
        return t


class Abs(_Binder):
    __slots__ = ()


class Prod(_Binder):
    __slots__ = ()


Term = SortConst | Bound | Free | App | Abs | Prod

PROP = SortConst(Sort.PROP)
TYPE = SortConst(Sort.TYPE)


# ---------------------------------------------------------------------------
# index arithmetic


def _rebuild(t: Term, depth: int, keep, leaf) -> Term:
    """The one walk of index arithmetic and substitution: `t` as it is
    when `keep(t, depth)` holds, else an application or a binder rebuilt
    from its children, a binder's body at `depth + 1`, and any other node
    as `leaf(t, depth)` makes it."""
    if keep(t, depth):
        return t
    kind = type(t)
    if kind is App:
        return App(_rebuild(t.fun, depth, keep, leaf), _rebuild(t.arg, depth, keep, leaf))
    if kind is Abs or kind is Prod:
        return kind(_rebuild(t.domain, depth, keep, leaf),
                    _rebuild(t.body, depth + 1, keep, leaf))
    return leaf(t, depth)


def _no_index_from(t: Term, depth: int) -> bool:
    """No loose index of `t` is `depth` or higher: none can change."""
    return not t.mask >> depth


def lift(t: Term, cutoff: int, amount: int) -> Term:
    """Add `amount` to every bound index that is `cutoff` or higher."""
    return _rebuild(t, cutoff, _no_index_from, lambda b, depth: Bound(b.index + amount))


def subst(t: Term, target: int, u: Term) -> Term:
    """Capture-avoiding substitution of `u` for the bound variable with
    index `target` as seen from the top of `t`; higher indices are
    renumbered downward, the way a beta contraction consumes the binder
    that used to bind it.  `subst_simultaneous` replaces free variables.
    """
    def leaf(b: Bound, depth: int) -> Term:
        # `depth` counts from `target`: the index the target has here
        return lift(u, 0, depth - target) if b.index == depth else Bound(b.index - 1)

    return _rebuild(t, target, _no_index_from, leaf)


def subst_simultaneous(t: Term, bindings: Sequence[tuple[str, Term]]) -> Term:
    """Replace several free variables in one pass over the term.

    A subterm in which none of the names occurs is returned as it is.
    """
    if not bindings:
        return t
    table = {}
    for name, value in bindings:
        if name in table:
            raise ValueError(f"duplicate variable in bindings: {name}")
        table[name] = value
    return _rebuild(t, 0, lambda s, depth: s.fv.isdisjoint(table),
                    lambda v, depth: lift(table[v.name], 0, depth))


def free_vars(t: Term) -> frozenset[str]:
    """The names of the free variables of `t`: its `fv` fact, shared with
    every caller (and often with a subterm), hence a `frozenset`: build a
    new set rather than mutate it."""
    return t.fv


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


# Name pools for opened binders: a sort domain gets a type name, a
# product domain a function name, anything else a term name.  None is a
# keyword of the surface syntax.
_POOL_SORT = ("A", "B", "C", "D", "E", "F", "G", "H", "K", "L", "M", "N",
              "P", "Q", "R", "S", "T", "U", "V", "W")
_POOL_FUN = ("f", "g", "h", "k", "m", "p", "q", "r")
_POOL_TERM = ("x", "y", "z", "u", "v", "w", "s", "t", "a", "b", "c", "d", "e")


def fresh_name(taken: Container[str], domain: Term) -> str:
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


# ---------------------------------------------------------------------------
# environments


class EnvEntry(_Interned):
    """One hypothesis: a name, its type and, optionally, a `by` witness.

    Interned like terms: the constructor returns the live entry with
    those fields, so ``==`` and ``hash`` are the identity ones.
    """

    __slots__ = __match_args__ = ("name", "ty", "witness")

    def __new__(cls, name: str, ty: Term, witness: Term | None = None):
        key = (cls, name, id(ty), id(witness))
        ref = _TABLE.get(key)
        return (ref and ref()) or _add(cls, key, name, ty, witness)


class Environment(_Interned):
    """A typing context: interned cons cells, oldest entry first.

    An environment is its `parent` (None for the empty one) extended by
    one entry, `last`.  The constructor and `_cons` return the live cell
    for a (parent, last) pair, so equal environments are one object,
    ``==`` and ``hash`` are the identity ones, and `extended` is O(1).
    The entries and names tuples are built on first use and kept (the
    checker asks for an environment's names at each binder it opens).
    `Environment(entries)` builds the chain for a sequence of entries;
    `Environment()` is the empty environment.
    """

    __slots__ = ("parent", "last", "_len", "_entries", "_names")
    __match_args__ = ("parent", "last")

    def __new__(cls, entries: Iterable[EnvEntry] = ()):
        env = _cons(None, None)
        for e in entries:
            env = _cons(env, e)
        return env

    def __reduce__(self):
        return Environment, (self.entries,)

    def __repr__(self) -> str:
        return f"Environment({self.entries!r})"

    @property
    def entries(self) -> tuple[EnvEntry, ...]:
        got = self._entries
        if got is None:
            # from the nearest cell that has its tuple (the empty one
            # does); a loop, not recursion, since environments may be deep
            env, newer = self, []
            while env._entries is None:
                newer.append(env.last)
                env = env.parent
            got = env._entries + tuple(reversed(newer))
            object.__setattr__(self, "_entries", got)
        return got

    def __iter__(self) -> Iterator[EnvEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return self._len

    def names(self) -> tuple[str, ...]:
        got = self._names
        if got is None:
            got = tuple(e.name for e in self.entries)
            object.__setattr__(self, "_names", got)
        return got

    def lookup(self, name: str) -> EnvEntry | None:
        """The first entry with this name, or None."""
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def extended(self, name: str, ty: Term, witness: Term | None = None) -> "Environment":
        return _cons(self, EnvEntry(name, ty, witness))


def _cons(parent: Environment | None, last: EnvEntry | None) -> Environment:
    """The live environment `parent` extended by `last`; (None, None) is
    the empty one.  The cell holds both, so their ids key it safely."""
    key = (Environment, id(parent), id(last))
    ref = _TABLE.get(key)
    env = ref and ref()
    if env is None:  # not `or`: the empty environment is falsy
        env = _add(Environment, key, parent, last)
        object.__setattr__(env, "_len", 0 if parent is None else parent._len + 1)
        object.__setattr__(env, "_entries", () if parent is None else None)
        object.__setattr__(env, "_names", None)
    return env


"""Beta normalization and convertibility, by evaluation.

`normalize` is the one reducer: it evaluates a term into closures, with
arguments delayed and memoized, and reads the value back as a term
(normalization by evaluation).  Substituting into the tree instead would
copy it at every contraction, which is hopeless for iterator arithmetic.
Fuel counts the function applications actually performed (shared
arguments tick once); exhausting the budget raises, a partially reduced
term is never returned silently.  Two terms are convertible when their
normal forms are equal.
"""

from __future__ import annotations

from .terms import Abs, App, Bound, Free, Prod, SortConst, Term

DEFAULT_FUEL = 100_000


class FuelExhausted(Exception):
    def __init__(self, budget: int, term: Term):
        super().__init__(f"no normal form within {budget} reduction steps")
        self.budget = budget
        self.term = term


class _Steps:
    __slots__ = ("left", "budget", "root")

    def __init__(self, fuel: int, root: Term):
        self.budget = fuel
        self.left = fuel
        self.root = root

    def tick(self) -> None:
        if self.left <= 0:
            raise FuelExhausted(self.budget, self.root)
        self.left -= 1


# ---------------------------------------------------------------------------
# the evaluator behind normalize


class _Thunk:
    __slots__ = ("term", "env", "value")

    def __init__(self, term, env, value=None):
        self.term = term
        self.env = env
        self.value = value


class _VSort:
    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term


class _VAbs:
    __slots__ = ("domain", "body", "env")

    def __init__(self, domain, body, env):
        self.domain = domain
        self.body = body
        self.env = env


class _VProd(_VAbs):
    pass


class _VNe:
    # head: ("lvl", level) | ("free", name) | ("dangle", j) | ("stuck", value)
    __slots__ = ("head", "spine")

    def __init__(self, head, spine):
        self.head = head
        self.spine = spine


def _force(th: _Thunk, steps: _Steps):
    if th.value is None:
        th.value = _eval(th.term, th.env, steps)
        th.term = th.env = None
    return th.value


def _eval(t: Term, env: tuple, steps: _Steps):
    match t:
        case SortConst(_):
            return _VSort(t)
        case Free(name):
            return _VNe(("free", name), ())
        case Bound(i):
            if i < len(env):
                return _force(env[-1 - i], steps)
            return _VNe(("dangle", i - len(env)), ())
        case Abs(d, b):
            return _VAbs(_Thunk(d, env), b, env)
        case Prod(d, b):
            return _VProd(_Thunk(d, env), b, env)
        case App(f, a):
            return _apply(_eval(f, env, steps), _Thunk(a, env), steps)
    raise TypeError(f"not a term: {t!r}")


def _apply(fv, arg: _Thunk, steps: _Steps):
    if type(fv) is _VAbs:
        steps.tick()
        return _eval(fv.body, fv.env + (arg,), steps)
    if type(fv) is _VNe:
        return _VNe(fv.head, fv.spine + (arg,))
    return _VNe(("stuck", fv), (arg,))  # ill-typed application; keep it inert


def _quote(v, depth: int, steps: _Steps) -> Term:
    if type(v) is _VSort:
        return v.term
    if type(v) is _VAbs or type(v) is _VProd:
        dom = _quote(_force(v.domain, steps), depth, steps)
        var = _Thunk(None, None, _VNe(("lvl", depth), ()))
        body = _quote(_eval(v.body, v.env + (var,), steps), depth + 1, steps)
        return Abs(dom, body) if type(v) is _VAbs else Prod(dom, body)
    kind, payload = v.head
    if kind == "lvl":
        t = Bound(depth - 1 - payload)
    elif kind == "free":
        t = Free(payload)
    elif kind == "dangle":
        t = Bound(depth + payload)
    else:
        t = _quote(payload, depth, steps)
    for arg in v.spine:
        t = App(t, _quote(_force(arg, steps), depth, steps))
    return t


# Checking asks for the same normal forms over and over (types of shared
# subterms, convertibility probes), so successful results are cached.
# Keyed by fuel as well: a small budget that exhausts must keep doing so.
_NF_CACHE: dict[tuple[Term, int], Term] = {}
_NF_CACHE_LIMIT = 1 << 18


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    key = (t, fuel)
    got = _NF_CACHE.get(key)
    if got is None:
        steps = _Steps(fuel, t)
        got = _quote(_eval(t, (), steps), 0, steps)
        if len(_NF_CACHE) >= _NF_CACHE_LIMIT:
            _NF_CACHE.clear()
        _NF_CACHE[key] = got
        _NF_CACHE[(got, fuel)] = got
    return got


def convertible(a: Term, b: Term, fuel: int = DEFAULT_FUEL) -> bool:
    if a == b:
        return True
    return normalize(a, fuel) == normalize(b, fuel)

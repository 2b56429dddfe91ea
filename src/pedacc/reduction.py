"""Beta normalization and convertibility, by evaluation.

`normalize` is the one reducer: it evaluates a term into closures, with
arguments delayed and memoized, and reads the value back as a term
(normalization by evaluation).  Substituting into the tree instead would
copy it at every contraction, which is hopeless for iterator arithmetic.
Fuel counts the function applications actually performed (shared
arguments tick once); exhausting the budget raises, a partially reduced
term is never returned silently.  Two terms are convertible when their
normal forms are equal.

Checking asks for the same normal forms over and over (types of shared
subterms, convertibility probes), so results go into a `memo` dict that
the caller owns and drops when its work is done: a `Checker`, one search
oracle, one `inhabit_search` or `verify_derivation` call, one CLI verb.
Without one, a call gets a fresh memo of its own.  Nothing is kept from
call to call at module level, so a normal form lives only as long as its
owner.  Keys carry the fuel as well as the term: a small budget that
exhausts must keep doing so, whatever a larger one has already found.
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
    # dispatch on the node type, commonest first: a structural `match`
    # costs several times more per node, and App is most of every term
    tt = type(t)
    while tt is App:
        fv = _eval(t.fun, env, steps)
        arg = _Thunk(t.arg, env)
        if type(fv) is _VAbs:
            # a contraction continues in this frame, so a term that keeps
            # contracting (omega) runs out of fuel, not out of stack
            steps.tick()
            t, env = fv.body, fv.env + (arg,)
            tt = type(t)
            continue
        if type(fv) is _VNe:
            return _VNe(fv.head, fv.spine + (arg,))
        return _VNe(("stuck", fv), (arg,))  # ill-typed application; keep it inert
    if tt is Bound:
        if t.index < len(env):
            return _force(env[-1 - t.index], steps)
        return _VNe(("dangle", t.index - len(env)), ())
    if tt is Abs:
        return _VAbs(_Thunk(t.domain, env), t.body, env)
    if tt is Prod:
        return _VProd(_Thunk(t.domain, env), t.body, env)
    if tt is Free:
        return _VNe(("free", t.name), ())
    if tt is SortConst:
        return t  # a sort is its own value
    raise TypeError(f"not a term: {t!r}")


def _quote(v, depth: int, steps: _Steps) -> Term:
    if type(v) is SortConst:
        return v
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


def normalize(t: Term, fuel: int = DEFAULT_FUEL, memo: dict | None = None) -> Term:
    memo = {} if memo is None else memo
    key = (t, fuel)
    got = memo.get(key)
    if got is None:
        steps = _Steps(fuel, t)
        got = _quote(_eval(t, (), steps), 0, steps)
        memo[key] = got
        memo[(got, fuel)] = got
    return got


def convertible(a: Term, b: Term, fuel: int = DEFAULT_FUEL,
                memo: dict | None = None) -> bool:
    if a == b:
        return True
    return normalize(a, fuel, memo) == normalize(b, fuel, memo)

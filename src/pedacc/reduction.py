"""Beta normalization and convertibility, by evaluation.

`normalize` is the one reducer: it evaluates a term into closures, with
arguments delayed and memoized, and reads the value back as a term
(normalization by evaluation).  Substituting into the tree instead would
copy it at every contraction, which is hopeless for iterator arithmetic.
Fuel counts the function applications actually performed (shared
arguments tick once); exhausting the budget raises, a partially reduced
term is never returned silently.  Two terms are convertible when their
normal forms are equal.

The evaluator is a lazy Krivine-style machine with update frames
(Sestoft, *Deriving a Lazy Abstract Machine*, JFP 1997).  It walks down
the function position of an application, pushing the pending arguments on
a local stack, and applies the head to them in the same loop: an
abstraction, or a variable bound to one, contracts and the loop goes on
with its body; any other head takes the remaining arguments as its spine.
A variable whose thunk is unforced pushes an update frame, the thunk and
the pending spine, and the loop goes on with the thunk's term; the value
it reaches is stored in the thunk and applied to that spine.  So neither
a long spine, nor a long chain of contractions, nor a chain of thunks
each forcing the next deepens the Python stack.  An argument that is a
variable reuses that variable's thunk, and one that needs no evaluation
(a closed abstraction or product, a sort, a free name) is passed already
forced.  A closure keeps its binder node and environment, and evaluates its
domain only when read back, once.  A closed abstraction drops its
environment when it contracts.  What still recurses is reading back a
term.  A number needs no term: `to_natural` quotes only a numeral's three
binder domains, then walks the value's `f`-spine in a loop, forcing each
argument where the read-back would: a prefix of what `normalize` forces,
in the same order, so it never needs more fuel, and on a numeral the same.

Every term node knows whether it is beta-normal (`terms._Node.nf`), so a
normal term is its own normal form: `normalize` returns it with no
evaluation, whatever the fuel, and `convertible` tells two distinct normal
terms apart at once.  The read-back returns a closure's node as it is
when that node is normal and reads no variable of its environment.

A node that is not normal keeps its normal form once it has one
(`terms._Node.normal`), with the number of contractions it took
(Filliâtre and Conchon, *Type-Safe Modular Hash-Consing*, 2006): a term
and every copy of it are one node, so whoever holds the term holds its
normal form, and it goes when the node does.  A later call returns it
when its fuel covers that count, and raises otherwise without evaluating:
the machine is deterministic, so a fresh run would run out at the same
contraction.  Running out of fuel stores nothing.
"""

from __future__ import annotations

from .terms import PROP, Abs, App, Bound, Free, Prod, SortConst, Term

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


# ---------------------------------------------------------------------------
# the evaluator behind normalize


class _VAbs:
    # the binder node and its environment; `dom` memoizes the domain's
    # value, which only _quote reads, so a shared closure evaluates it once
    __slots__ = ("node", "env", "dom")

    def __init__(self, node, env):
        self.node = node
        self.env = env
        self.dom = None


class _VProd(_VAbs):
    pass


class _VNe:
    # head: ("lvl", level) | ("free", name) | ("dangle", j) | ("stuck", value)
    __slots__ = ("head", "spine")

    def __init__(self, head, spine):
        self.head = head
        self.spine = spine


# A thunk is a list [value, term, env], value None until it is forced: a
# list, so making one runs no __init__.  _FORCE in env (thunk,) forces it.
_FORCE = Bound(0)


def _force(th: list, steps: _Steps):
    return th[0] if th[0] is not None else _eval(_FORCE, (th,), steps)


def _eval(t: Term, env: tuple, steps: _Steps):
    left = steps.left  # fuel, written back before every return and raise
    args = []  # pending arguments of the spine, the next one to apply last
    frames = []  # (thunk being forced, the spine pending when it was met)
    while True:
        # dispatch on the node type, commonest first: a structural `match`
        # costs several times more per node, and App is most of every term
        tt = type(t)
        while tt is App:
            a = t.arg
            ta = type(a)
            if ta is Bound:
                try:
                    args.append(env[-1 - a.index])  # the variable's own thunk
                except IndexError:
                    args.append([None, a, env])
            elif ta is App:
                args.append([None, a, env])
            elif (ta is Abs or ta is Prod) and not a.mask:
                # a closed binder's value needs no evaluation, nor its env
                args.append([(_VAbs if ta is Abs else _VProd)(a, ()), None, None])
            elif ta is SortConst:
                args.append([a, None, None])
            elif ta is Free:
                args.append([_VNe(("free", a.name), ()), None, None])
            else:
                args.append([None, a, env])
            t = t.fun
            tt = type(t)
        if tt is Abs and args:
            node = t
        else:
            if tt is Bound:
                try:
                    th = env[-1 - t.index]
                except IndexError:
                    v = _VNe(("dangle", t.index - len(env)), ())
                else:
                    v = th[0]
                    if v is None:  # force it here, and resume the spine after
                        frames.append((th, args))
                        t, env, args = th[1], th[2], []
                        continue
            elif tt is Abs or tt is Prod:
                v = (_VAbs if tt is Abs else _VProd)(t, env)
            elif tt is Free:
                v = _VNe(("free", t.name), ())
            elif tt is SortConst:
                v = t  # a sort is its own value
            else:
                raise TypeError(f"not a term: {t!r}")
            # apply v to the pending spine; a value with none updates the
            # thunk whose forcing it ends, and that thunk's spine is next
            while type(v) is not _VAbs or not args:
                if args:
                    args.reverse()
                    if type(v) is _VNe:
                        v = _VNe(v.head, v.spine + tuple(args))
                    else:
                        v = _VNe(("stuck", v), tuple(args))  # ill-typed; keep it inert
                if not frames:
                    steps.left = left
                    return v
                th, args = frames.pop()
                th[0], th[1], th[2] = v, None, None
            node, env = v.node, v.env
        # a contraction continues in this frame, so a term that keeps
        # contracting (omega) runs out of fuel, not out of stack
        if left <= 0:
            steps.left = left
            raise FuelExhausted(steps.budget, steps.root)
        left -= 1
        # a closed abstraction needs none of its environment: dropping it
        # keeps a chain of closed redexes from copying an ever longer tuple
        t, env = node.body, (args.pop(),) if not node.mask else env + (args.pop(),)


def _quote(v, depth: int, steps: _Steps) -> Term:
    if type(v) is SortConst:
        return v
    if type(v) is _VAbs or type(v) is _VProd:
        node = v.node
        if node.nf and not node.mask:
            return node  # its environment binds nothing it reads
        if v.dom is None:
            v.dom = _eval(node.domain, v.env, steps)
        dom = _quote(v.dom, depth, steps)
        var = [_VNe(("lvl", depth), ()), None, None]
        body = _quote(_eval(node.body, v.env + (var,), steps), depth + 1, steps)
        return type(node)(dom, body)
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


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    if t.nf:
        return t
    got = getattr(t, "normal", None)
    if got is None:
        steps = _Steps(fuel, t)
        got = _quote(_eval(t, (), steps), 0, steps), fuel - steps.left
        object.__setattr__(t, "normal", got)
    elif got[1] > fuel:
        raise FuelExhausted(fuel, t)
    return got[0]


def convertible(a: Term, b: Term, fuel: int = DEFAULT_FUEL) -> bool:
    if a == b:
        return True
    if a.nf and b.nf:
        return False  # two normal forms, and a term has one
    return normalize(a, fuel) == normalize(b, fuel)


# the binder domains of a numeral, fun A : Prop => fun x : A => fun f : A -> A
_NUMERAL_DOMAINS = (PROP, Bound(0), Prod(Bound(1), Bound(2)))


def to_natural(t: Term, fuel: int = DEFAULT_FUEL) -> int | None:
    """The number whose numeral is t's normal form, or None if that normal
    form is no numeral.  It needs no more fuel than `normalize`, and on a
    numeral the same."""
    steps = _Steps(fuel, t)
    v = _eval(t, (), steps)
    for depth, want in enumerate(_NUMERAL_DOMAINS):
        if type(v) is not _VAbs:
            return None
        if v.dom is None:
            v.dom = _eval(v.node.domain, v.env, steps)
        if _quote(v.dom, depth, steps) != want:
            return None
        var = [_VNe(("lvl", depth), ()), None, None]
        v = _eval(v.node.body, v.env + (var,), steps)
    k = 0  # the spine f (f (... x)): f is level 2 and x level 1
    while type(v) is _VNe and v.head == ("lvl", 2) and len(v.spine) == 1:
        v = _force(v.spine[0], steps)
        k += 1
    return k if type(v) is _VNe and v.head == ("lvl", 1) and not v.spine else None

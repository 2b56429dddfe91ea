"""Reference reducers that work by literal substitution.

The checker reduces only through `pedacc.reduction.normalize`
(normalization by evaluation).  The strategies here walk the term tree
and substitute, one contraction at a time, so the tests can cross-check
`normalize` against independent implementations and measure reduction
graphs.
"""

from __future__ import annotations

from harness import one_step_reducts
from pedacc.reduction import DEFAULT_FUEL, FuelExhausted
from pedacc.terms import Abs, App, Prod, Term, subst


class ReductionBoundExceeded(Exception):
    pass


class _Steps:
    """Counts contractions and raises `FuelExhausted` past the budget."""

    def __init__(self, fuel: int, root: Term):
        self.budget = fuel
        self.left = fuel
        self.root = root

    def tick(self) -> None:
        if self.left <= 0:
            raise FuelExhausted(self.budget, self.root)
        self.left -= 1


def beta_step(t: Term) -> Term | None:
    """Contract the leftmost-outermost redex, or return None if normal."""
    match t:
        case App(Abs(_, body), arg):
            return subst(body, 0, arg)
        case App(f, a):
            f2 = beta_step(f)
            if f2 is not None:
                return App(f2, a)
            a2 = beta_step(a)
            return App(f, a2) if a2 is not None else None
        case Abs(d, b):
            d2 = beta_step(d)
            if d2 is not None:
                return Abs(d2, b)
            b2 = beta_step(b)
            return Abs(d, b2) if b2 is not None else None
        case Prod(d, b):
            d2 = beta_step(d)
            if d2 is not None:
                return Prod(d2, b)
            b2 = beta_step(b)
            return Prod(d, b2) if b2 is not None else None
        case _:
            return None


def _whnf(t: Term, steps: _Steps) -> Term:
    while True:
        match t:
            case App(f, a):
                f2 = _whnf(f, steps)
                if isinstance(f2, Abs):
                    steps.tick()
                    t = subst(f2.body, 0, a)
                    continue
                return App(f2, a) if f2 is not f else t
            case _:
                return t


def whnf(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Weak head normal form by normal-order substitution."""
    return _whnf(t, _Steps(fuel, t))


def _nf(t: Term, steps: _Steps) -> Term:
    t = _whnf(t, steps)
    match t:
        case App(f, a):
            # head is stable here, so the spine parts normalize independently
            return App(_nf(f, steps), _nf(a, steps))
        case Abs(d, b):
            return Abs(_nf(d, steps), _nf(b, steps))
        case Prod(d, b):
            return Prod(_nf(d, steps), _nf(b, steps))
        case _:
            return t


def normalize_by_substitution(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Normal-order normalization by literal substitution; agrees with
    `normalize` everywhere."""
    return _nf(t, _Steps(fuel, t))


def _nf_inner(t: Term, steps: _Steps) -> Term:
    match t:
        case App(f, a):
            a2 = _nf_inner(a, steps)
            f2 = _nf_inner(f, steps)
            if isinstance(f2, Abs):
                steps.tick()
                return _nf_inner(subst(f2.body, 0, a2), steps)
            return App(f2, a2)
        case Abs(d, b):
            return Abs(_nf_inner(d, steps), _nf_inner(b, steps))
        case Prod(d, b):
            return Prod(_nf_inner(d, steps), _nf_inner(b, steps))
        case _:
            return t


def normalize_applicative(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Rightmost-innermost normalization; agrees with `normalize` on
    normalizing terms."""
    return _nf_inner(t, _Steps(fuel, t))


def longest_reduction_length(t: Term, bound: int = 1000) -> int:
    """Length of the longest reduction sequence starting at `t`.

    Walks the whole reduction graph, so only usable on small terms.
    Raises ReductionBoundExceeded if any path exceeds `bound` steps or
    the graph contains a cycle (a non-normalizing term).
    """
    memo: dict[Term, int] = {}
    active: set[Term] = set()

    def go(t: Term) -> int:
        if t in memo:
            return memo[t]
        if t in active:
            raise ReductionBoundExceeded("cyclic reduction path")
        active.add(t)
        best = 0
        for r in one_step_reducts(t):
            n = 1 + go(r)
            if n > best:
                best = n
            if best > bound:
                raise ReductionBoundExceeded(f"longest reduction exceeds {bound}")
        active.discard(t)
        memo[t] = best
        return best

    return go(t)

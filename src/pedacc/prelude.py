"""Arithmetic prelude: impredicative numbers, iterator, pairs, recursor.

Numbers are typed by the polymorphic iteration scheme

    nat := forall A : Prop, A -> (A -> A) -> A

so a number *is* its iterator: ``n T b s`` runs ``s`` n times on ``b``.
The recursor is obtained the classical way, by iterating on pairs
``(counter, accumulator)`` and projecting the accumulator.  Pairs over a
simple type ``T`` are Church-style, at type ``(T -> T -> T) -> T``; since
both components must share the type ``T``, the number component is first
embedded into ``T`` by an encoder ``enc(T)`` with left inverse ``dec(T)``.

Everything here is a closed kernel term (or a builder returning one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .reduction import DEFAULT_FUEL, normalize
from .terms import (
    Abs,
    App,
    Bound,
    Free,
    PROP,
    Prod,
    Term,
    apps,
    arrow,
    close_binder,
    free_vars,
    fresh_name,
    lift,
    subst,
)

# -- core closed types and terms --------------------------------------------

#: forall A : Prop, A -> (A -> A) -> A
nat_type: Term = Prod(PROP, Prod(Bound(0), Prod(Prod(Bound(1), Bound(2)), Bound(2))))

#: fun A : Prop => fun x : A => fun f : A -> A => x
zero: Term = Abs(PROP, Abs(Bound(0), Abs(Prod(Bound(1), Bound(2)), Bound(1))))

#: fun n : nat => fun A => fun x => fun f => f (n A x f)
succ: Term = Abs(
    nat_type,
    Abs(
        PROP,
        Abs(
            Bound(0),
            Abs(
                Prod(Bound(1), Bound(2)),
                App(Bound(0), apps(Bound(3), Bound(2), Bound(1), Bound(0))),
            ),
        ),
    ),
)

#: forall A : Prop, A -> A
top_type: Term = Prod(PROP, Prod(Bound(0), Bound(1)))

#: fun A : Prop => fun x : A => x, the canonical proof of top_type
id_term: Term = Abs(PROP, Abs(Bound(0), Bound(0)))

#: forall A : Prop, A
bot_type: Term = Prod(PROP, Bound(0))


def numeral(k: int) -> Term:
    """The normal-form number k: fun A => fun x => fun f => f (f ... x)."""
    if k < 0:
        raise ValueError("numeral wants a non-negative integer")
    body: Term = Bound(1)
    for _ in range(k):
        body = App(Bound(0), body)
    return Abs(PROP, Abs(Bound(0), Abs(Prod(Bound(1), Bound(2)), body)))


def to_natural(t: Term, fuel: int = DEFAULT_FUEL, memo: dict | None = None) -> Optional[int]:
    """Read a number back from a term, or None if its normal form is not
    a numeral.  `memo` is a normal-form memo, as for `normalize`."""
    nf = normalize(t, fuel, memo)
    match nf:
        case Abs(domain=d0, body=Abs(domain=Bound(0), body=Abs(domain=Prod(Bound(1), Bound(2)), body=spine))) if d0 == PROP:
            k = 0
            while True:
                match spine:
                    case Bound(1):
                        return k
                    case App(fun=Bound(0), arg=inner):
                        k += 1
                        spine = inner
                    case _:
                        return None
        case _:
            return None


def leibniz_eq(a: Term, x: Term, y: Term) -> Term:
    """Equality of x and y at type a, as indiscernibility:
    forall Q : a -> Prop, Q x -> Q y."""
    x1 = lift(x, 0, 1)
    y1 = lift(y, 0, 1)
    return Prod(arrow(a, PROP), arrow(App(Bound(0), x1), App(Bound(0), y1)))


def refl_term(a: Term, x: Term) -> Term:
    """fun Q : a -> Prop => fun h : Q x => h, proving leibniz_eq(a, x, x)."""
    return Abs(arrow(a, PROP), Abs(App(Bound(0), lift(x, 0, 1)), Bound(0)))


# -- simple types over nat ---------------------------------------------------


@dataclass(frozen=True)
class Nat:
    def __repr__(self) -> str:
        return "Nat"


@dataclass(frozen=True)
class Arrow:
    domain: "SimpleType"
    codomain: "SimpleType"

    def __repr__(self) -> str:
        return f"({self.domain!r} -> {self.codomain!r})"


SimpleType = Union[Nat, Arrow]

NAT = Nat()


def decode(t: SimpleType) -> Term:
    if isinstance(t, Nat):
        return nat_type
    return arrow(decode(t.domain), decode(t.codomain))


def enc(t: SimpleType) -> Term:
    """Closed term of type nat -> T embedding numbers into T.

    At nat it is the identity; at an arrow type the number hides in a
    constant function.
    """
    if isinstance(t, Nat):
        return Abs(nat_type, Bound(0))
    return Abs(nat_type, Abs(decode(t.domain), App(enc(t.codomain), Bound(1))))


def dec(t: SimpleType) -> Term:
    """Closed term of type T -> nat, a left inverse of enc(t) on numerals.

    An arrow is decoded by applying it to a canonical inhabitant of its
    domain and decoding the result.
    """
    if isinstance(t, Nat):
        return Abs(nat_type, Bound(0))
    return Abs(decode(t), App(dec(t.codomain), App(Bound(0), inhabitant(t.domain))))


# -- pairs of a number and a T -----------------------------------------------


def pair_type(t: SimpleType) -> Term:
    """(T -> T -> T) -> T, the home of number/T pairs."""
    d = decode(t)
    return arrow(arrow(d, arrow(d, d)), d)


def pair(t: SimpleType, n: Term, u: Term) -> Term:
    """The pair of n : nat and u : T, stored as fun f => f (enc n) u."""
    d = decode(t)
    return Abs(
        arrow(d, arrow(d, d)),
        apps(Bound(0), App(enc(t), lift(n, 0, 1)), lift(u, 0, 1)),
    )


def proj1(t: SimpleType, c: Term) -> Term:
    """First projection, decoded back to a number."""
    d = decode(t)
    return App(dec(t), App(c, Abs(d, Abs(d, Bound(1)))))


def proj2(t: SimpleType, c: Term) -> Term:
    """Second projection."""
    d = decode(t)
    return App(c, Abs(d, Abs(d, Bound(0))))


# -- iteration and primitive recursion ----------------------------------------


def iterate(ty: Term, n: Term, base: Term, step_body: Term) -> Term:
    """n-fold iteration at type ty: builds ``n ty base (fun y : ty => step_body)``.

    step_body is the step with its argument as dangling index 0.
    """
    return apps(n, ty, base, Abs(ty, step_body))


def rec(t: SimpleType, n: Term, base: Term, step_body: Term) -> Term:
    """Primitive recursion at simple type T by iterating on pairs.

    step_body has the counter as dangling index 1 and the previous result
    as dangling index 0.  Builds

        snd (n (pairT) (0, base) (fun z => (succ (fst z), step (fst z) (snd z))))

    so the counter tracks the recursion depth and the accumulator folds
    the step.  n, base, step_body must carry no other dangling indices.
    """
    z = fresh_name(free_vars(n) | free_vars(base) | free_vars(step_body), pair_type(t))
    zf = Free(z)
    prev_n = proj1(t, zf)
    prev_u = proj2(t, zf)
    inst = subst_pair(step_body, prev_n, prev_u)
    stepped = pair(t, App(succ, prev_n), inst)
    step_fun = Abs(pair_type(t), close_binder(stepped, z))
    start = pair(t, zero, base)
    return proj2(t, apps(n, pair_type(t), start, step_fun))


def subst_pair(body: Term, first: Term, second: Term) -> Term:
    """Fill dangling indices 1 and 0 of body with first and second."""
    return subst(subst(body, 0, second), 0, first)


# -- arithmetic ----------------------------------------------------------------

#: fun m => fun n => m nat n succ
plus: Term = Abs(nat_type, Abs(nat_type, apps(Bound(1), nat_type, Bound(0), succ)))

#: fun m => fun n => m nat zero (plus n)
times: Term = Abs(
    nat_type, Abs(nat_type, apps(Bound(1), nat_type, zero, App(plus, Bound(0))))
)


def _close1(domain: Term, body_of: Callable[[Term], Term]) -> Term:
    name = fresh_name((), domain)
    return Abs(domain, close_binder(body_of(Free(name)), name))


#: predecessor, by recursion with step (x, y) -> x
pred: Term = _close1(nat_type, lambda n: rec(NAT, n, zero, Bound(1)))

#: factorial, by recursion with step (x, y) -> times (succ x) y
factorial: Term = _close1(
    nat_type,
    lambda n: rec(NAT, n, numeral(1), apps(times, App(succ, Bound(1)), Bound(0))),
)

#: fun T : Prop => fun n : nat => fun b : T => fun s : T -> T => n T b s
iter_term: Term = Abs(
    PROP,
    Abs(
        nat_type,
        Abs(
            Bound(1),
            Abs(
                Prod(Bound(2), Bound(3)),
                apps(Bound(2), Bound(3), Bound(1), Bound(0)),
            ),
        ),
    ),
)


def _rec_term() -> Term:
    step_type = arrow(nat_type, arrow(nat_type, nat_type))
    n = fresh_name((), nat_type)
    b = fresh_name({n}, nat_type)
    s = fresh_name({n, b}, step_type)
    core = rec(NAT, Free(n), Free(b), apps(Free(s), Bound(1), Bound(0)))
    t = Abs(step_type, close_binder(core, s))
    t = Abs(nat_type, close_binder(t, b))
    return Abs(nat_type, close_binder(t, n))


#: the recursor at T = nat, as a single closed term
rec_term: Term = _rec_term()

#: pairing, projections at T = nat, as closed terms
pair_term: Term = Abs(nat_type, Abs(nat_type, pair(NAT, Bound(1), Bound(0))))
fst_term: Term = Abs(pair_type(NAT), proj1(NAT, Bound(0)))
snd_term: Term = Abs(pair_type(NAT), proj2(NAT, Bound(0)))


# -- inhabitation of simple types ----------------------------------------------


def inhabitant(t: SimpleType) -> Term:
    """A canonical closed inhabitant: zero at nat, constant functions above."""
    if isinstance(t, Nat):
        return zero
    return Abs(decode(t.domain), inhabitant(t.codomain))


def prelude_corpus() -> list[tuple[str, Term]]:
    """Named closed functions used by the self-test suites.  Every term
    has a product type, so each is fair game for the motivation engine."""
    nn = Arrow(NAT, NAT)
    return [
        ("id", id_term),
        ("zero", zero),
        ("one", numeral(1)),
        ("two", numeral(2)),
        ("five", numeral(5)),
        ("succ", succ),
        ("plus", plus),
        ("times", times),
        ("pred", pred),
        ("factorial", factorial),
        ("iter", iter_term),
        ("rec", rec_term),
        ("pair", pair_term),
        ("fst", fst_term),
        ("snd", snd_term),
        ("enc_nat", enc(NAT)),
        ("enc_fun", enc(nn)),
        ("dec_fun", dec(nn)),
        ("enc_fun2", enc(Arrow(nn, NAT))),
        ("refl_zero", refl_term(nat_type, zero)),
    ]

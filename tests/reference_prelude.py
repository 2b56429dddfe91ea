"""The built-ins as kernel terms, the reference for `pedacc.prelude.SOURCE`:
hand-built de Bruijn trees (with the `arrow` and `apps` builders the tests
share), and System T style builders over simple types.
A pair over a simple type T lives at (T -> T -> T) -> T, its number
embedded into T by enc(T), with left inverse dec(T); primitive recursion
iterates on such pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from pedacc.prelude import numeral, top_type
from pedacc.terms import (
    Abs, App, Bound, Free, PROP, Prod, Term, close_binder, free_vars, lift, subst,
)
from reference_render import fresh_name


def arrow(a: Term, b: Term) -> Term:
    """Non-dependent product ``a -> b`` (the body ignores the binder)."""
    return Prod(a, lift(b, 0, 1))


def apps(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = App(fun, a)
    return fun


# -- core closed types and terms --------------------------------------------

#: forall A : Prop, A -> (A -> A) -> A
nat_type: Term = Prod(PROP, Prod(Bound(0), Prod(Prod(Bound(1), Bound(2)), Bound(2))))
#: fun A : Prop => fun x : A => fun f : A -> A => x
zero: Term = Abs(PROP, Abs(Bound(0), Abs(Prod(Bound(1), Bound(2)), Bound(1))))
#: fun n : nat => fun A => fun x => fun f => f (n A x f)
succ: Term = Abs(nat_type, Abs(PROP, Abs(Bound(0), Abs(
    Prod(Bound(1), Bound(2)), App(Bound(0), apps(Bound(3), Bound(2), Bound(1), Bound(0)))))))
#: fun A : Prop => fun x : A => x, the canonical proof of top_type
id_term: Term = Abs(PROP, Abs(Bound(0), Bound(0)))
#: forall A : Prop, A
bot_type: Term = Prod(PROP, Bound(0))


def leibniz_eq(a: Term, x: Term, y: Term) -> Term:
    """Equality of x and y at type a, as indiscernibility:
    forall Q : a -> Prop, Q x -> Q y."""
    return Prod(arrow(a, PROP),
                arrow(App(Bound(0), lift(x, 0, 1)), App(Bound(0), lift(y, 0, 1))))


def refl_term(a: Term, x: Term) -> Term:
    """fun Q : a -> Prop => fun h : Q x => h, proving leibniz_eq(a, x, x)."""
    return Abs(arrow(a, PROP), Abs(App(Bound(0), lift(x, 0, 1)), Bound(0)))


# -- simple types over nat ---------------------------------------------------


@dataclass(frozen=True)
class Nat:
    pass


@dataclass(frozen=True)
class Arrow:
    domain: "SimpleType"
    codomain: "SimpleType"


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


def inhabitant(t: SimpleType) -> Term:
    """A canonical closed inhabitant: zero at nat, constant functions above."""
    if isinstance(t, Nat):
        return zero
    return Abs(decode(t.domain), inhabitant(t.codomain))


# -- pairs of a number and a T -----------------------------------------------


def pair_type(t: SimpleType) -> Term:
    """(T -> T -> T) -> T, the home of number/T pairs."""
    d = decode(t)
    return arrow(arrow(d, arrow(d, d)), d)


def pair(t: SimpleType, n: Term, u: Term) -> Term:
    """The pair of n : nat and u : T, stored as fun f => f (enc n) u."""
    d = decode(t)
    return Abs(arrow(d, arrow(d, d)),
               apps(Bound(0), App(enc(t), lift(n, 0, 1)), lift(u, 0, 1)))


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
    the step.  Any other dangling index of step_body, counted from 2, and
    of n and base, counted from 0, refers to binders around the result.
    """
    z = fresh_name(free_vars(n) | free_vars(base) | free_vars(step_body), pair_type(t))
    zf = Free(z)
    prev_n = proj1(t, zf)
    # fill dangling indices 1 and 0 of step_body with the two projections
    inst = subst(subst(step_body, 0, proj2(t, zf)), 0, prev_n)
    stepped = pair(t, App(succ, prev_n), inst)
    step_fun = Abs(pair_type(t), close_binder(stepped, z))
    start = pair(t, zero, base)
    return proj2(t, apps(n, pair_type(t), start, step_fun))


# -- arithmetic ----------------------------------------------------------------

#: fun m => fun n => m nat n succ
plus: Term = Abs(nat_type, Abs(nat_type, apps(Bound(1), nat_type, Bound(0), succ)))
#: fun m => fun n => m nat zero (plus n)
times: Term = Abs(nat_type, Abs(nat_type, apps(Bound(1), nat_type, zero, App(plus, Bound(0)))))
#: predecessor, by recursion with step (x, y) -> x
pred: Term = Abs(nat_type, rec(NAT, Bound(0), zero, Bound(1)))
#: factorial, by recursion with step (x, y) -> times (succ x) y
factorial: Term = Abs(nat_type, rec(
    NAT, Bound(0), numeral(1), apps(times, App(succ, Bound(1)), Bound(0))))
#: fun T : Prop => fun n : nat => fun b : T => fun s : T -> T => n T b s
iter_term: Term = Abs(PROP, Abs(nat_type, Abs(Bound(1), Abs(
    Prod(Bound(2), Bound(3)), apps(Bound(2), Bound(3), Bound(1), Bound(0))))))
#: the recursor at T = nat, as a single closed term
rec_term: Term = Abs(nat_type, Abs(nat_type, Abs(arrow(nat_type, arrow(nat_type, nat_type)),
    rec(NAT, Bound(2), Bound(1), apps(Bound(2), Bound(1), Bound(0))))))
#: pairing, projections at T = nat, as closed terms
pair_term: Term = Abs(nat_type, Abs(nat_type, pair(NAT, Bound(1), Bound(0))))
fst_term: Term = Abs(pair_type(NAT), proj1(NAT, Bound(0)))
snd_term: Term = Abs(pair_type(NAT), proj2(NAT, Bound(0)))

#: the built-in names of the surface language, and their terms
BUILTINS: dict[str, Term] = {
    "nat": nat_type, "top": top_type, "bot": bot_type, "id": id_term, "zero": zero,
    "succ": succ, "plus": plus, "times": times, "pred": pred, "factorial": factorial,
    "iter": iter_term, "rec": rec_term, "pair": pair_term, "fst": fst_term, "snd": snd_term,
}


def read_normal_numeral(nf: Term) -> int | None:
    """The number a normal form is the numeral of, or None: the term walk
    that `pedacc.prelude.to_natural` reads off the evaluator's value."""
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


def prelude_corpus() -> list[tuple[str, Term]]:
    """Named closed functions used by the self-test suites.  Every term
    has a product type, so each is fair game for the motivation engine."""
    nn = Arrow(NAT, NAT)
    return [
        ("id", id_term), ("zero", zero), ("one", numeral(1)), ("two", numeral(2)),
        ("five", numeral(5)), ("succ", succ), ("plus", plus), ("times", times),
        ("pred", pred), ("factorial", factorial), ("iter", iter_term), ("rec", rec_term),
        ("pair", pair_term), ("fst", fst_term), ("snd", snd_term), ("enc_nat", enc(NAT)),
        ("enc_fun", enc(nn)), ("dec_fun", dec(nn)), ("enc_fun2", enc(Arrow(nn, NAT))),
        ("refl_zero", refl_term(nat_type, zero)),
    ]

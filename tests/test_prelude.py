from __future__ import annotations

import pytest

from harness import gen_typed_term
from pedacc import inhabit, surface
from pedacc.kernel import Derivation, SystemMode, check_type, infer_type, verify_derivation
from pedacc.prelude import numeral, to_natural, top_type
from pedacc.reduction import normalize
from pedacc.terms import (
    PROP,
    TYPE,
    Abs,
    App,
    Bound,
    Environment,
    Free,
    Prod,
    is_closed,
)
from reference_prelude import (
    BUILTINS,
    NAT,
    Arrow,
    apps,
    arrow,
    dec,
    decode,
    enc,
    factorial,
    fst_term,
    id_term,
    inhabitant,
    iter_term,
    iterate,
    leibniz_eq,
    nat_type,
    pair,
    pair_term,
    pair_type,
    plus,
    pred,
    prelude_corpus,
    proj1,
    proj2,
    read_normal_numeral,
    rec,
    rec_term,
    refl_term,
    snd_term,
    succ,
    times,
    zero,
)

NN = Arrow(NAT, NAT)
NNN = Arrow(NAT, NN)

# frozen de Bruijn spellings: everything else is defined against these
FROZEN = {
    "nat": Prod(PROP, Prod(Bound(0), Prod(Prod(Bound(1), Bound(2)), Bound(2)))),
    "zero": Abs(PROP, Abs(Bound(0), Abs(Prod(Bound(1), Bound(2)), Bound(1)))),
    "top": Prod(PROP, Prod(Bound(0), Bound(1))),
    "id": Abs(PROP, Abs(Bound(0), Bound(0))),
    "bot": Prod(PROP, Bound(0)),
}


def test_frozen_spellings():
    from reference_prelude import bot_type
    assert nat_type == FROZEN["nat"]
    assert zero == FROZEN["zero"]
    assert top_type == FROZEN["top"]
    assert id_term == FROZEN["id"]
    assert bot_type == FROZEN["bot"]


def test_the_shipped_builtins_are_the_reference_terms():
    shipped = surface._builtins()
    assert shipped.keys() == BUILTINS.keys()
    for name, term in [*BUILTINS.items(), *FROZEN.items()]:
        assert shipped[name] is term, name
    # the type the witness search proves Prop by
    assert shipped["top"] is top_type is inhabit.top_type


def test_numeral_readback_roundtrip():
    for k in range(11):
        assert to_natural(numeral(k)) == k
    assert to_natural(App(succ, numeral(5))) == 6
    assert to_natural(id_term) is None
    with pytest.raises(ValueError):
        numeral(-1)


def numeral_body(domains, body):
    """fun A : d0 => fun x : d1 => fun f : d2 => body."""
    for d in reversed(domains):
        body = Abs(d, body)
    return body


NUMERAL_DOMAINS = (PROP, Bound(0), Prod(Bound(1), Bound(2)))
F, X = Bound(0), Bound(1)


@pytest.mark.parametrize("seed", range(200))
def test_the_reader_agrees_with_the_reference_on_generated_terms(seed):
    t, ty = gen_typed_term(seed)
    got = to_natural(t)
    assert got == read_normal_numeral(normalize(t))
    assert (got is not None) == (ty == nat_type)  # every nat is a numeral


@pytest.mark.parametrize("term, value", [
    # the domain of A is a redex, whose value is Prop
    (numeral_body((App(Abs(TYPE, Bound(0)), PROP), *NUMERAL_DOMAINS[1:]), App(F, X)), 1),
    # a redex under the binders: (fun g : A -> A => g (g x)) f
    (numeral_body(NUMERAL_DOMAINS,
                  App(Abs(Prod(Bound(2), Bound(3)), App(Bound(0), App(Bound(0), Bound(2)))), F)), 2),
    # near-numerals: a wrong domain of each binder
    (numeral_body((TYPE, *NUMERAL_DOMAINS[1:]), X), None),
    (numeral_body((PROP, Prod(Bound(0), Bound(1)), NUMERAL_DOMAINS[2]), X), None),
    (numeral_body((*NUMERAL_DOMAINS[:2], Prod(Bound(1), Bound(1))), X), None),
    # f given two arguments, x applied, A as the head, a free head
    (numeral_body(NUMERAL_DOMAINS, apps(F, X, X)), None),
    (numeral_body(NUMERAL_DOMAINS, App(F, App(X, X))), None),
    (numeral_body(NUMERAL_DOMAINS, App(F, App(Bound(2), X))), None),
    (numeral_body(NUMERAL_DOMAINS, App(F, Free("a"))), None),
    # f itself, a product, fewer binders, no binder
    (numeral_body(NUMERAL_DOMAINS, F), None),
    (nat_type, None),
    (id_term, None),
    (Free("n"), None),
])
def test_the_reader_agrees_with_the_reference_on_near_numerals(term, value):
    assert to_natural(term) == read_normal_numeral(normalize(term)) == value


def test_zero_is_numeral_zero():
    assert zero == numeral(0)


@pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (2, 3), (4, 4)])
def test_plus_spot_checks(m, n):
    assert to_natural(apps(plus, numeral(m), numeral(n))) == m + n


@pytest.mark.parametrize("m,n", [(0, 5), (2, 3), (3, 3)])
def test_times_spot_checks(m, n):
    assert to_natural(apps(times, numeral(m), numeral(n))) == m * n


def test_pred_spot_checks():
    assert to_natural(App(pred, numeral(0))) == 0
    for k in range(1, 7):
        assert to_natural(App(pred, numeral(k))) == k - 1


def test_factorial_small():
    assert to_natural(App(factorial, numeral(0))) == 1
    assert to_natural(App(factorial, numeral(3))) == 6


def test_iteration_unfolds_to_repeated_application():
    # n-fold iteration of succ from zero is just n
    t = iterate(nat_type, numeral(3), zero, App(succ, Bound(0)))
    assert to_natural(t) == 3
    # and the packaged iterator term agrees
    t2 = apps(iter_term, nat_type, numeral(3), zero, succ)
    assert to_natural(t2) == 3


def test_pair_projections():
    c = pair(NAT, numeral(2), numeral(7))
    assert to_natural(proj1(NAT, c)) == 2
    assert to_natural(proj2(NAT, c)) == 7
    # packaged closed terms
    c2 = apps(pair_term, numeral(4), numeral(9))
    assert to_natural(App(fst_term, c2)) == 4
    assert to_natural(App(snd_term, c2)) == 9


def test_recursor_equations():
    # rec base step 0 = base, rec base step (succ n) = step n (rec ... n)
    base = numeral(9)
    got = rec(NAT, numeral(0), base, Bound(1))
    assert to_natural(got) == 9
    # step (x, y) -> x: recursion computes the predecessor
    got = rec(NAT, numeral(5), zero, Bound(1))
    assert to_natural(got) == 4
    # the packaged recursor: rec_term n base (fun x y => x)
    k = Abs(nat_type, Abs(nat_type, Bound(1)))
    assert to_natural(apps(rec_term, numeral(5), zero, k)) == 4


@pytest.mark.parametrize("ty", [NAT, NN, NNN, Arrow(NN, NAT)])
def test_encode_decode_left_inverse(ty):
    for k in range(4):
        round_tripped = App(dec(ty), App(enc(ty), numeral(k)))
        assert to_natural(round_tripped) == k


def inhabit_simple_type(t, oracle) -> tuple:
    """`inhabitant(t)` with its derivation in the restricted system."""
    term = inhabitant(t)
    d = check_type(Environment(), term, decode(t), SystemMode.CCR, oracle)
    assert isinstance(d, Derivation), d.message
    return term, d


@pytest.mark.parametrize("ty", [NAT, NN, Arrow(NN, NN), NNN])
def test_simple_type_inhabitation(ty, oracle):
    term, d = inhabit_simple_type(ty, oracle)
    assert is_closed(term)
    assert verify_derivation(d) == []
    assert normalize(term) == normalize(inhabitant(ty))


def test_prelude_corpus_is_twenty_closed_product_functions(oracle):
    corpus = prelude_corpus()
    assert len(corpus) == 20
    assert len({name for name, _ in corpus}) == 20
    for name, term in corpus:
        assert is_closed(term), name
        ty = infer_type(Environment(), term, SystemMode.CCR, oracle).conclusion.ty
        assert isinstance(normalize(ty), Prod), name


def test_reflexivity_proves_leibniz_equality(oracle):
    eq = leibniz_eq(nat_type, zero, zero)
    d = check_type(Environment(), refl_term(nat_type, zero), eq,
                   SystemMode.CCR, oracle)
    assert isinstance(d, Derivation)


def test_arithmetic_types(oracle):
    nn = arrow(nat_type, nat_type)
    for term, ty in [
        (succ, nn),
        (plus, arrow(nat_type, nn)),
        (times, arrow(nat_type, nn)),
        (pred, nn),
        (factorial, nn),
        (pair_term, arrow(nat_type, arrow(nat_type, pair_type(NAT)))),
        (fst_term, arrow(pair_type(NAT), nat_type)),
        (snd_term, arrow(pair_type(NAT), nat_type)),
    ]:
        assert isinstance(
            check_type(Environment(), term, ty, SystemMode.CCR, oracle),
            Derivation)

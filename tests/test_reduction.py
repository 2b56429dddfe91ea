from __future__ import annotations

import gc
import sys
import weakref

import pytest

from harness import gen_typed_term, one_step_reducts
from pedacc import reduction
from pedacc.prelude import numeral, to_natural
from pedacc.reduction import FuelExhausted, convertible, normalize
from pedacc.terms import PROP, TYPE, Abs, App, Bound, Free, Prod
from reference_prelude import apps, factorial, nat_type, plus, pred, times, zero
from reference_reduction import (
    beta_step,
    longest_reduction_length,
    normalize_applicative,
    normalize_by_substitution,
    whnf,
)

IDENT = Abs(PROP, Bound(0))
OMEGA = App(Abs(PROP, App(Bound(0), Bound(0))),
            Abs(PROP, App(Bound(0), Bound(0))))


def test_beta_contracts_a_redex():
    assert normalize(App(IDENT, Free("a"))) == Free("a")


def test_normalizes_under_binders():
    t = Abs(PROP, App(IDENT, Bound(0)))
    assert normalize(t) == Abs(PROP, Bound(0))


def test_normal_form_is_fixed_point():
    t = apps(plus, numeral(2), numeral(2))
    nf = normalize(t)
    assert normalize(nf) == nf
    assert beta_step(nf) is None


def test_arithmetic_redex():
    assert normalize(apps(plus, numeral(2), numeral(3))) == numeral(5)
    assert normalize(apps(times, numeral(3), numeral(3))) == numeral(9)


@pytest.mark.parametrize("seed", range(100))
def test_strategies_agree(seed):
    t, _ = gen_typed_term(seed)
    a = normalize(t)
    b = normalize_by_substitution(t)
    c = normalize_applicative(t)
    assert a == b == c


def test_strategies_agree_on_handcrafted():
    cases = [
        App(IDENT, App(IDENT, PROP)),
        Abs(PROP, App(Abs(PROP, Bound(1)), Bound(0))),
        Prod(PROP, App(IDENT, Bound(0))),
        apps(times, numeral(4), apps(plus, numeral(1), numeral(1))),
    ]
    for t in cases:
        assert normalize(t) == normalize_by_substitution(t)


@pytest.mark.parametrize("t, nf", [
    (App(PROP, PROP), App(PROP, PROP)),              # normal, so returned as it is
    (App(App(IDENT, PROP), PROP), App(PROP, PROP)),  # a stuck head stays inert
    (App(Abs(PROP, Bound(1)), PROP), Bound(0)),      # a dangling index reads back
])
def test_stuck_and_dangling_heads(t, nf):
    assert normalize(t) == normalize_by_substitution(t) == normalize_applicative(t) == nf


def test_confluence_on_random_corpus():
    # 500 generated terms, two independent strategies, one answer
    for seed in range(500):
        t, _ = gen_typed_term(seed + 10_000)
        assert normalize(t) == normalize_by_substitution(t)


def test_whnf_stops_at_head():
    inner = App(IDENT, PROP)
    t = App(Abs(PROP, Abs(PROP, App(Bound(0), inner))), PROP)
    w = whnf(t)
    # head is exposed, the argument redex is untouched
    assert isinstance(w, Abs)
    assert inner in _all_subterms(w)


def _all_subterms(t):
    out = {t}
    match t:
        case App(f, a):
            out |= _all_subterms(f) | _all_subterms(a)
        case Abs(d, b) | Prod(d, b):
            out |= _all_subterms(d) | _all_subterms(b)
    return out


def test_one_step_reducts_enumerates_each_redex():
    t = App(IDENT, App(IDENT, Free("a")))
    rs = one_step_reducts(t)
    assert len(rs) == 2
    assert App(IDENT, Free("a")) in rs
    for r in rs:
        assert normalize(r) == Free("a")


def test_no_reducts_means_normal():
    for seed in range(40):
        t, _ = gen_typed_term(seed)
        if beta_step(t) is None:
            assert longest_reduction_length(t) == 0
            assert one_step_reducts(t) == []


def test_longest_reduction_decreases_along_steps():
    t = apps(plus, numeral(2), numeral(1))
    n = longest_reduction_length(t)
    assert n > 0
    stepped = beta_step(t)
    assert longest_reduction_length(stepped) < n


def test_convertible():
    assert convertible(apps(plus, numeral(2), numeral(3)), numeral(5))
    assert not convertible(numeral(4), numeral(5))
    assert convertible(PROP, PROP)


def test_fuel_exhaustion_raises():
    with pytest.raises(FuelExhausted):
        normalize(OMEGA, fuel=1000)


def test_fuel_counts_are_term_size_insensitive_for_normal_terms():
    # normal terms normalize under any positive fuel
    assert normalize(numeral(6), fuel=5) == numeral(6)


def test_a_normal_form_is_freed_once_its_caller_drops_it():
    # the free name is this test's own, so no other code holds the result
    nf = normalize(apps(plus, numeral(2), Free("freed_once_dropped")))
    ref = weakref.ref(nf)
    del nf
    gc.collect()
    assert ref() is None


def test_a_normal_term_is_its_own_normal_form_with_no_work():
    normal = [IDENT, Free("a"), Bound(3), App(PROP, Free("a")),
              Prod(PROP, App(Bound(0), Bound(2))), numeral(3)]
    for seed in range(200):
        t, _ = gen_typed_term(seed)
        normal += [u for u in (t, normalize(t)) if beta_step(u) is None]
    for t in normal:
        assert t.nf
        # no evaluation, so no fuel: a budget of 0 is enough
        assert normalize(t, 0) is t
    assert not convertible(numeral(2), numeral(3), 0)
    # nothing was worth keeping: a normal node stores no normal form
    assert all(getattr(t, "normal", None) is None for t in normal)


@pytest.fixture
def shallow_stack():
    """A recursion limit far below the depth of the terms the test builds,
    so a reducer that recursed on their depth fails."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    yield
    sys.setrecursionlimit(limit)


def test_a_long_spine_is_evaluated_in_one_frame(shallow_stack):
    t = apps(Free("f"), *[Free("a")] * 100_000)
    assert normalize(t) is t


def test_a_chain_of_forwarding_redexes_is_evaluated_in_one_frame(shallow_stack):
    # (fun x => (fun y => ... (fun z => z) ... y) x) a, built bottom-up.
    # Each redex forwards a variable, so every argument is the one thunk of
    # `a`.  A reducer that wraps each forwarded variable in a thunk of its
    # own keeps every environment of the chain alive, quadratic memory, so
    # the chain is kept to ten times the stack's depth.
    n = 10_000
    body = Bound(0)
    for _ in range(n - 1):
        body = App(Abs(PROP, body), Bound(0))
    t = App(Abs(PROP, body), Free("a"))
    assert normalize(t, n) == Free("a")


def test_a_chain_of_thunks_each_forcing_the_next_is_forced_in_one_frame(shallow_stack):
    # numeral n on the identity: its value is x, under n thunks of f (...),
    # each of which forces the next before it is done
    t = apps(numeral(20_000), nat_type, zero, Abs(nat_type, Bound(0)))
    assert to_natural(t, 1_000_000) == 0
    assert normalize(t, 1_000_000) == zero


def test_running_out_of_fuel_while_forcing_leaves_no_half_forced_thunk():
    # the budget runs out inside nested forcings; a larger budget then
    # finds the normal form afresh
    t = apps(numeral(50), nat_type, zero, Abs(nat_type, Bound(0)))
    with pytest.raises(FuelExhausted):
        normalize(t, 30)
    assert normalize(t, 53) == zero
    with pytest.raises(FuelExhausted):
        normalize(t, 52)


# the least fuel that normalizes each term: a reducer that moved a tick
# would shift one of these
@pytest.mark.parametrize("term, least", [
    (apps(factorial, numeral(4)), 378),
    (apps(times, numeral(7), numeral(9)), 286),
    (apps(pred, numeral(10)), 103),
    (apps(plus, numeral(20), numeral(30)), 85),
    # one abstraction quoted twice, with a redex in its domain: the domain
    # is evaluated once per value, not once per quote
    (App(Abs(PROP, apps(Free("k"), Bound(0), Bound(0))),
         Abs(App(Abs(TYPE, Bound(0)), PROP), Bound(0))), 2),
    # arguments that need no evaluation, then applied as heads or passed on
    (apps(Abs(PROP, apps(Bound(0), Bound(0), Free("a"))), IDENT), 3),
    (App(Abs(PROP, apps(Free("k"), Bound(0), Bound(0))), Abs(PROP, App(IDENT, Bound(0)))), 3),
    (apps(Abs(PROP, apps(Bound(0), numeral(2), numeral(3))), plus), 14),
    (apps(Abs(PROP, Abs(PROP, apps(Bound(0), Bound(1), numeral(2)))), numeral(3), plus), 19),
    (App(Abs(TYPE, App(Bound(0), Free("a"))), Prod(PROP, Bound(0))), 1),
    (App(Abs(TYPE, Abs(Bound(0), App(Free("g"), Bound(1)))), Prod(PROP, App(IDENT, Bound(0)))), 3),
    (App(Abs(TYPE, App(Bound(0), Free("a"))), PROP), 1),
    (apps(Abs(TYPE, Abs(Bound(0), apps(Free("g"), Bound(1), Bound(1)))), PROP), 1),
    (apps(Abs(PROP, apps(Bound(0), App(IDENT, Free("a")))), Free("f")), 2),
    (apps(Abs(PROP, Abs(PROP, apps(Free("g"), Bound(1), Bound(0)))), Free("f"), Free("a")), 2),
    (App(Abs(PROP, App(Bound(0), App(IDENT, Free("a")))), Bound(3)), 2),
    (Abs(PROP, App(Abs(PROP, apps(Free("g"), Bound(0), Bound(2))), Bound(4))), 1),
    (apps(numeral(50), nat_type, zero, Abs(nat_type, Bound(0))), 53),
])
def test_fuel_boundary(term, least):
    assert normalize(term, least) == normalize(term)
    with pytest.raises(FuelExhausted):
        normalize(term, least - 1)


# A term keeps its normal form once found, with the fuel it took.  Each
# pinned term is live for the whole session, so it may keep a normal form
# from another test already: the test's own application of a fresh free
# name to it has none yet, and needs the same fuel.
@pytest.mark.parametrize("pinned, least", test_fuel_boundary.pytestmark[0].args[1])
def test_a_stored_normal_form_keeps_fuel_exact(monkeypatch, pinned, least):
    found_first = App(Free("found_first"), pinned)
    failed_first = App(Free("failed_first"), pinned)
    # a failure stores nothing: the least fuel still succeeds after it
    with pytest.raises(FuelExhausted):
        normalize(failed_first, least - 1)
    assert normalize(failed_first, least) == App(Free("failed_first"), normalize(pinned))
    nf = normalize(found_first)

    def no_evaluation(*args):
        raise AssertionError("evaluated a term that keeps its normal form")

    # from now on every answer comes from the stored normal forms
    monkeypatch.setattr(reduction, "_eval", no_evaluation)
    for t in (found_first, failed_first):
        with pytest.raises(FuelExhausted) as e:
            normalize(t, least - 1)
        assert e.value.budget == least - 1 and e.value.term is t
        assert normalize(t, least) is normalize(t)
    assert normalize(found_first, least) is nf
    with pytest.raises(FuelExhausted):
        convertible(found_first, nf, least - 1)


# reading a number forces what its read-back forces, in the same order, so
# it needs exactly the fuel that normalize does
@pytest.mark.parametrize("term, least, value", [
    (apps(factorial, numeral(4)), 378, 24),
    (apps(times, numeral(7), numeral(9)), 286, 63),
    (apps(pred, numeral(10)), 103, 9),
    (apps(plus, numeral(20), numeral(30)), 85, 50),
    # arguments that need no evaluation, then applied as heads or passed on
    (apps(numeral(4), nat_type, zero, Abs(nat_type, Bound(0))), 7, 0),
    (apps(Abs(PROP, apps(Bound(0), numeral(2), numeral(3))), plus), 14, 5),
    (apps(Abs(PROP, apps(numeral(3), nat_type, numeral(2), Bound(0))),
          Abs(nat_type, apps(plus, Bound(0), numeral(1)))), 58, 5),
    (App(Abs(TYPE, numeral(3)), Prod(PROP, Bound(0))), 1, 3),
    (apps(Abs(TYPE, App(Abs(TYPE, numeral(2)), Bound(0))), PROP), 2, 2),
    (App(Abs(PROP, apps(plus, numeral(2), numeral(2))), Free("a")), 14, 4),
    (apps(Abs(PROP, App(Bound(0), numeral(2))), Free("f")), 1, None),
    (App(Abs(PROP, apps(plus, numeral(1), numeral(2))), Bound(2)), 10, 3),
    (apps(Abs(PROP, App(Bound(0), numeral(2))), Bound(2)), 1, None),
])
def test_reading_a_number_needs_the_fuel_of_its_normal_form(term, least, value):
    assert to_natural(term, least) == value
    with pytest.raises(FuelExhausted):
        to_natural(term, least - 1)


@pytest.mark.parametrize("term, value", [
    (apps(plus, numeral(20_000), numeral(20_000)), 40_000),
    (apps(times, numeral(200), numeral(200)), 40_000),
    (apps(pred, numeral(5_000)), 4_999),
])
def test_a_long_numeral_is_read_in_one_frame(shallow_stack, term, value):
    assert to_natural(term, 1_000_000) == value

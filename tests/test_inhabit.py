from __future__ import annotations

from pedacc.inhabit import (
    inhabit_search,
    make_search_oracle,
    motivate_env,
    motivate_judgment,
    usefulness_argument,
)
from pedacc.kernel import (
    Checker,
    Derivation,
    Diagnostic,
    Motivation,
    SystemMode,
    check_motivated_env,
    check_type,
    check_wf,
    infer_type,
    verify_derivation,
)
from pedacc.prelude import to_natural, top_type
from pedacc.reduction import convertible
from pedacc.terms import (
    PROP,
    Abs,
    App,
    Bound,
    Environment,
    Free,
    Prod,
    close_binder,
    is_closed,
)
from harness import env_of
from reference_prelude import arrow, bot_type, id_term, nat_type, succ

CC = SystemMode.CC
CCR = SystemMode.CCR


def test_search_proves_top():
    d = inhabit_search(Environment(), top_type)
    assert isinstance(d, Derivation)
    assert convertible(d.conclusion.subject, id_term)
    assert verify_derivation(d) == []


def test_search_does_not_prove_bottom():
    got = inhabit_search(Environment(), bot_type, depth=12)
    assert isinstance(got, Diagnostic)
    assert (got.rule, got.message) == (
        "inhabit", "no inhabitant of forall A : Prop, A found: no witness exists")


def test_search_uses_hypotheses():
    env = env_of(("A", PROP), ("f", arrow(Free("A"), Free("A"))),
                 ("x", Free("A")))
    found = inhabit_search(env, Free("A"))
    assert isinstance(found, Derivation)
    assert check_type(env, found.conclusion.subject, Free("A"), CC) is not None


def test_readback_reuses_the_product_witness(oracle):
    # the derivation of a restricted product stores the body witness;
    # turning it into a function is pure bookkeeping
    (mot,) = motivate_env(env_of(("x", top_type)), oracle)
    node = Checker(CCR, oracle).infer(Environment(), top_type)
    assert node.rule == "prod_r"
    binder = node.premises[1].conclusion.env.last.name
    term = Abs(top_type.domain, close_binder(node.premises[0].conclusion.subject, binder))
    assert mot.conclusion.subject == term
    assert is_closed(term)
    assert isinstance(check_type(Environment(), term, top_type, CC), Derivation)


def test_motivate_env_gives_top_for_prop(oracle):
    # Prop's own derivation is an ax node, which top inhabits
    (mot,) = motivate_env(env_of(("A", PROP)), oracle)
    assert mot.conclusion.subject == top_type


def test_motivate_env_produces_closed_rechecking_witnesses(oracle):
    env = env_of(("A", PROP), ("x", Free("A")),
                 ("f", arrow(Free("A"), Free("A"))))
    res = motivate_env(env, oracle)
    assert not isinstance(res, Diagnostic)
    assert len(res) == 3
    motivation = Motivation(tuple((e.name, d.conclusion.subject) for e, d in zip(env, res)))
    for _, w in motivation.assignments:
        assert is_closed(w)
    # and the motivation validates through the standalone checker
    assert not isinstance(check_motivated_env(env, motivation), Diagnostic)


def test_check_motivated_env_rejects_wrong_candidates():
    env = env_of(("A", PROP), ("x", Free("A")))
    bad = Motivation((("A", top_type), ("x", top_type)))
    assert isinstance(check_motivated_env(env, bad), Diagnostic)


def test_motivate_env_rejects_an_ill_formed_env_as_check_wf_does(oracle):
    env = env_of(("A", PROP), ("x", Free("B")))
    got = motivate_env(env, oracle)
    assert got == check_wf(env, CCR, oracle)
    assert (got.rule, got.message) == ("var", "unbound variable B")


def test_motivate_judgment_closes_the_subject(oracle):
    env = env_of(("A", PROP), ("x", Free("A")),
                 ("f", arrow(Free("A"), Free("A"))))
    d = infer_type(env, App(Free("f"), Free("x")), CCR, oracle)
    res, final = motivate_judgment(d, oracle)
    assert not isinstance(res, Diagnostic)
    assert isinstance(final, Derivation)
    assert len(final.conclusion.env) == 0
    assert is_closed(final.conclusion.subject)


def test_usefulness_gives_an_argument_for_succ(oracle):
    d = infer_type(Environment(), succ, CCR, oracle)
    arg_d = usefulness_argument(d, oracle)
    u = arg_d.conclusion.subject
    assert to_natural(u) is not None
    assert isinstance(check_type(Environment(), u, nat_type, CC), Derivation)
    assert verify_derivation(arg_d) == []


def test_usefulness_gives_an_argument_for_id(oracle):
    d = infer_type(Environment(), id_term, CCR, oracle)
    u = usefulness_argument(d, oracle).conclusion.subject
    # id's domain is Prop itself, so the argument is a proposition
    assert isinstance(check_type(Environment(), u, PROP, CC), Derivation)


def test_oracle_results_are_deterministic():
    a = make_search_oracle()
    b = make_search_oracle()
    env = env_of(("A", PROP), ("x", Free("A")))
    goal = arrow(Free("A"), Free("A"))
    assert a(env, goal) == b(env, goal) == a(env, goal)


def test_inhabit_search_out_of_fuel_is_a_diagnostic():
    # (fun B : Prop => B) (forall A : Prop, A -> A)
    goal = App(Abs(PROP, Bound(0)), top_type)
    got = inhabit_search(Environment(), goal, fuel=0)
    assert isinstance(got, Diagnostic)
    assert got.rule == "fuel"
    assert got.found == goal
    # the search finds h at fuel 1, but checking the goal needs a normal
    # form of its domain, which takes 2 steps
    ident = Abs(PROP, Bound(0))
    dom = App(ident, App(ident, Free("A")))
    env = env_of(("A", PROP), ("h2", dom), ("h", Free("A")))
    goal = App(Abs(dom, Free("A")), Free("h2"))
    got = inhabit_search(env, goal, fuel=1)
    assert isinstance(got, Diagnostic)
    assert got.rule == "fuel"
    assert inhabit_search(env, goal, fuel=2).conclusion.subject == Free("h")


def test_motivate_env_out_of_fuel_is_a_diagnostic(oracle):
    # x : forall y : Prop, (fun B : Prop => B -> B) y
    env = env_of(("x", Prod(PROP, App(Abs(PROP, arrow(Bound(0), Bound(0))),
                                      Bound(0)))))
    assert isinstance(check_wf(env, CCR, oracle), Derivation)
    got = motivate_env(env, oracle, fuel=0)
    assert isinstance(got, Diagnostic)
    assert got.rule == "fuel"
    # x : (fun B : Prop => B -> B) ((fun C : Prop => C -> C) top) is well
    # formed without fuel; normalizing the substituted type needs a step
    double = Abs(PROP, arrow(Bound(0), Bound(0)))
    env = env_of(("x", App(double, App(double, top_type))))
    assert isinstance(check_wf(env, CCR, oracle, fuel=0), Derivation)
    got = motivate_env(env, oracle, fuel=0)
    assert isinstance(got, Diagnostic)
    assert got.rule == "fuel"
    assert not isinstance(motivate_env(env, oracle), Diagnostic)


def test_oracle_misses_are_cached_not_sticky():
    oracle = make_search_oracle(depth=2)
    assert oracle(Environment(), bot_type) is None
    assert oracle(Environment(), top_type) is not None

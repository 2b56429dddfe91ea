from __future__ import annotations

import inspect
import io
import json
import pickle
import sys
from collections import Counter
from pathlib import Path

import pytest

from harness import (
    DEMO_REJECTS,
    NORMALIZED_PRODUCTS,
    distinct_nodes,
    env_of,
    naive_p_examples,
)
from pedacc import cli, kernel, reduction
from pedacc.inhabit import make_search_oracle
from pedacc.kernel import (
    Checker,
    Derivation,
    Diagnostic,
    HasType,
    Motivation,
    SystemMode,
    WellFormed,
    check_motivated_env,
    check_type,
    check_wf,
    contract_derivation,
    infer_type,
    iter_nodes,
    relabel_restricted_products,
    verify_derivation,
    verify_derivations,
    write_certificate,
)
from pedacc.prelude import numeral, top_type
from pedacc.reduction import normalize
from pedacc.surface import (
    AssumeDecl,
    CheckCmd,
    DefineDecl,
    EvalCmd,
    InhabitCmd,
    NormalizeCmd,
    SetMotivationCmd,
    SourcePos,
    elaborate,
    parse,
    render_term,
)
from pedacc.terms import (
    PROP,
    TYPE,
    Abs,
    App,
    Bound,
    Environment,
    Free,
    Prod,
    subst_simultaneous,
)
from reference_prelude import (
    arrow,
    bot_type,
    factorial,
    id_term,
    nat_type,
    prelude_corpus,
    times,
)

DEMOS = Path(__file__).resolve().parent.parent / "demos"

CC = SystemMode.CC
CCR = SystemMode.CCR
NAIVE = SystemMode.NAIVE

# the canonical eight-step script: identity against its polymorphic type
GOLDEN_RULES = [
    "env1", "ax", "env2", "var", "env2", "var", "abs+prod_r", "abs+prod_r",
]


def test_identity_derivation_rule_sequence(oracle):
    d = check_type(Environment(), id_term, top_type, CCR, oracle)
    assert isinstance(d, Derivation)
    assert [label for label, _ in contract_derivation(d)] == GOLDEN_RULES
    assert verify_derivation(d) == []


def test_identity_type_inference_agrees_between_systems(oracle):
    for mode in (CC, CCR):
        d = infer_type(Environment(), id_term, mode, oracle)
        assert d.conclusion.ty == top_type
        assert verify_derivation(d) == []


def test_top_sort_is_not_typable():
    res = infer_type(Environment(), TYPE, CC)
    assert isinstance(res, Diagnostic)
    assert "not typable" in res.message


def test_unbound_variable_is_reported():
    res = infer_type(Environment(), Free("ghost"), CC)
    assert isinstance(res, Diagnostic)
    assert "ghost" in res.message


@pytest.mark.parametrize("mode", [CC, CCR, NAIVE])
@pytest.mark.parametrize("name", ["$x0", "x", "A"])
def test_an_unbound_name_is_never_captured(oracle, mode, name):
    # the binder is opened at a name that is not free in its body
    res = infer_type(Environment(), Abs(PROP, Free(name)), mode, oracle)
    assert isinstance(res, Diagnostic)
    assert (res.rule, res.message) == ("var", f"unbound variable {name}")


@pytest.mark.parametrize("rule", ["abs", "prod"])
def test_verify_derivation_flags_a_binder_opened_at_a_free_name(rule):
    # `fun _ : Prop => x` (or `forall`) in [], its binder opened as x: the
    # premise [x : Prop] |- x : Prop then reads the free x as the binder
    opened = env_of(("x", PROP))
    body = infer_type(opened, Free("x"), CC)
    sort = infer_type(opened, PROP, CC)
    if rule == "abs":
        c = HasType(Environment(), Abs(PROP, Free("x")), arrow(PROP, PROP))
        mutant, problem = Derivation(rule, c, (body, sort), CC), "abs premises do"
    else:
        c = HasType(Environment(), Prod(PROP, Free("x")), PROP)
        mutant, problem = Derivation(rule, c, (body,), CC), "prod premise does"
    assert verify_derivation(mutant) == [f"{problem} not match conclusion"]


def test_dangling_index_is_reported():
    res = infer_type(Environment(), Bound(3), CC)
    assert isinstance(res, Diagnostic)


def test_application_mismatch_carries_both_types(oracle):
    good = App(App(id_term, top_type), id_term)
    assert isinstance(infer_type(Environment(), good, CC), Derivation)
    # id's first argument must be a proposition, not a proof
    res = infer_type(Environment(), App(id_term, id_term), CC)
    assert isinstance(res, Diagnostic)
    assert res.expected is not None and res.found is not None


def test_duplicate_environment_name():
    env = Environment((*env_of(("A", PROP)).entries,
                       *env_of(("A", PROP)).entries))
    res = check_wf(env, CC)
    assert isinstance(res, Diagnostic)
    assert "duplicate" in res.message


def test_conversion_node_appears_for_reducible_annotation(oracle):
    # annotate the binder with a type that only reduces to top -> top
    redex_ty = App(Abs(PROP, arrow(Bound(0), Bound(0))), top_type)
    t = Abs(redex_ty, Bound(0))
    d = infer_type(Environment(), t, CC, oracle)
    rules = {n.rule for n in iter_nodes(d)}
    assert "conv" in rules
    assert verify_derivation(d) == []


def test_wf_check_rejects_absurd_hypothesis_only_in_restricted_mode(oracle):
    env = env_of(("h", Prod(PROP, Bound(0))))
    assert isinstance(check_wf(env, CC, oracle), Derivation)
    res = check_wf(env, CCR, oracle)
    assert isinstance(res, Diagnostic)
    assert res.rule == "prod_r"


def test_naive_mode_has_no_wf_judgment():
    with pytest.raises(ValueError):
        check_wf(Environment(), NAIVE)


def test_naive_examples_split_the_systems(oracle):
    # three stock judgments: naive accepts them, the full system rejects
    # their environments
    examples = naive_p_examples()
    assert len(examples) == 3
    for judgment, motivation in examples:
        got = check_type(judgment.env, judgment.subject, judgment.ty,
                         NAIVE, oracle, motivation=motivation)
        assert isinstance(got, Derivation), got
        assert verify_derivation(got) == []
        rejected = check_wf(judgment.env, CC, oracle)
        assert isinstance(rejected, Diagnostic)


def test_naive_rejects_uncovered_motivation():
    env = env_of(("A", PROP))
    got = check_motivated_env(env, Motivation(()), NAIVE)
    assert isinstance(got, Diagnostic)
    assert got.message == ("motivation does not cover the environment "
                           "(have (), need ('A',))")
    assert got.position == ()
    # the cascade under a naive axiom says the same
    judged = check_type(env, PROP, TYPE, NAIVE)
    assert isinstance(judged, Diagnostic)
    assert judged.message == got.message


def test_naive_rejects_open_motivation_terms(oracle):
    env = env_of(("A", PROP), ("h", arrow(Free("A"), Free("A"))))
    open_id = Abs(Free("A"), Bound(0))
    sigma = Motivation((("A", top_type), ("h", open_id)))
    got = check_motivated_env(env, sigma, NAIVE, oracle)
    assert isinstance(got, Diagnostic)
    assert got.message == "motivation term for h is not closed"
    assert got.position == ("env", "h")
    assert got.found == open_id
    # the cascade under a naive axiom shares the check
    judged = check_type(env, PROP, TYPE, NAIVE, oracle, motivation=sigma)
    assert isinstance(judged, Diagnostic)
    assert (judged.message, judged.position) == (got.message, ("h",))


def test_a_motivation_of_a_repeated_name_is_a_diagnostic(oracle):
    # once a ValueError from the substitution of the earlier entries
    env = env_of(("A", PROP), ("A", PROP))
    sigma = Motivation((("A", top_type), ("A", top_type)))
    for judged in (infer_type(env, Abs(PROP, PROP), NAIVE, oracle, motivation=sigma),
                   check_type(env, PROP, TYPE, NAIVE, oracle, motivation=sigma)):
        assert isinstance(judged, Diagnostic)
        assert (judged.rule, judged.message) == ("p-var", "duplicate variable A")
    env = env_of(("A", PROP), ("A", PROP), ("x", Free("A")))
    sigma = Motivation((*sigma.assignments, ("x", id_term)))
    for mode in (CC, CCR):
        got = check_motivated_env(env, sigma, mode, oracle)
        assert isinstance(got, Diagnostic)
        assert (got.rule, got.message, got.position) == (
            "p-var", "duplicate variable A", ("env", "A"))


def test_restricted_derivations_embed_into_the_full_system(oracle):
    for name, term in prelude_corpus()[:8]:
        d = infer_type(Environment(), term, CCR, oracle)
        full = relabel_restricted_products(d)
        assert verify_derivation(full) == [], name
        assert full.mode is CC
        # and the full system agrees on the type directly
        direct = infer_type(Environment(), term, CC)
        assert direct.conclusion.ty == d.conclusion.ty, name


def test_substitution_preserves_typing(oracle):
    env = env_of(("A", PROP))
    t = Abs(Free("A"), Bound(0))
    ty = infer_type(env, t, CC).conclusion.ty
    for closed in (top_type, nat_type):
        sub = [("A", closed)]
        d = check_type(Environment(), subst_simultaneous(t, sub),
                       subst_simultaneous(ty, sub), CC)
        assert isinstance(d, Derivation)


def test_prod_r_witnesses_are_stored_in_normal_form(oracle):
    # the hint applied to the binder is a redex; the witness is its normal form
    env, _ = elaborate(parse(
        "assume h : forall A : Prop, A -> A "
        "by fun A : Prop => fun x : A => (fun z : A => z) x"))
    d = check_wf(env, CCR, oracle)
    outer = [n for n in iter_nodes(d)
             if n.rule == "prod_r" and n.conclusion.subject == env.entries[0].ty]
    assert [render_term(n.premises[0].conclusion.subject) for n in outer] == ["fun x : A => x"]
    assert verify_derivation(d) == []
    # so are those of the products that type abstractions, whose bodies
    # the corpus often writes as redexes
    stray = []
    for name, term in prelude_corpus():
        d = infer_type(Environment(), term, CCR, oracle)
        stray += [(name, render_term(w)) for n in iter_nodes(d) if n.rule == "prod_r"
                  for w in [n.premises[0].conclusion.subject] if normalize(w) != w]
    assert stray == []


@pytest.mark.parametrize("body", ["a", "a a", "Type"])
def test_a_product_whose_body_fails_fails_as_in_cc_with_no_search(body):
    # `a` is a proof, not a proposition, and the other two have no type:
    # ccr reports the body's failure as cc does, before it spends a
    # witness search on it
    goals = []

    def oracle(env, goal):
        goals.append(goal)
        return None

    env, cmds = elaborate(parse(f"assume A : Prop\nassume a : A\ncheck forall x : A, {body}"))
    cc = infer_type(env, cmds[-1].subject, CC, oracle)
    ccr = infer_type(env, cmds[-1].subject, CCR, oracle)
    assert isinstance(cc, Diagnostic) and isinstance(ccr, Diagnostic)
    if body == "a":
        assert (cc.rule, cc.message, cc.position, cc.found) == (
            "prod", "product body is not a type", (1,), Free("A"))
    assert (ccr.rule, ccr.message, ccr.position, ccr.found) == (
        "prod_r" if cc.rule == "prod" else cc.rule, cc.message, cc.position, cc.found)
    assert goals == []


# each a judgment ccr once rejected for a missing witness, where cc rejects
# it for another cause
CC_REJECTS_TOO = [
    "assume A : Prop\nassume a : A\ncheck forall x : A, forall y : A, a",
    "assume A : Prop\nassume B : Prop\ncheck Prop -> (forall x : A, x)",
    "assume A : Prop\nassume B : Prop\ncheck (Prop -> A) Prop",
    "assume A : Prop\nassume B : Prop\ncheck fun f : Prop -> A => Prop",
]


@pytest.mark.parametrize("source", CC_REJECTS_TOO)
def test_ccr_reports_the_cc_diagnostic_when_cc_rejects_too(oracle, source):
    env, cmds = elaborate(parse(source))
    cc = infer_type(env, cmds[-1].subject, CC, oracle)
    ccr = infer_type(env, cmds[-1].subject, CCR, oracle)
    assert isinstance(cc, Diagnostic) and isinstance(ccr, Diagnostic)
    assert cc.rule != "prod_r" and "witness" not in ccr.message
    assert (ccr.rule, ccr.message, ccr.position, ccr.found) == (
        "prod_r" if cc.rule == "prod" else cc.rule, cc.message, cc.position, cc.found)


def test_ccr_keeps_its_diagnostic_when_cc_accepts_or_runs_out_of_fuel(oracle):
    # cc accepts `A -> B`: the missing witness is the one failure; with no
    # fuel, cc cannot reduce the redex in the domain of `x`
    env, cmds = elaborate(parse(
        "assume A : Prop\nassume B : Prop\ncheck A -> B\n"
        "check fun f : A -> B => fun x : (fun T : Prop => T) A => x"))
    accepted, out_of_fuel = (infer_type(env, c.subject, CC, oracle, fuel=0) for c in cmds)
    assert isinstance(accepted, Derivation) and out_of_fuel.rule == "fuel"
    for cmd in cmds:
        got = infer_type(env, cmd.subject, CCR, oracle, fuel=0)
        assert got.rule == "prod_r" and got.message.startswith("cannot form product: ")


def test_ccr_keeps_its_diagnostic_when_cc_goes_deeper_than_the_stack(oracle):
    # ccr fails at the domain `A -> B`; cc goes on into a tower of binders
    # deeper than the stack allows, so the diagnostic stays ccr's
    env, cmds = elaborate(parse("assume A : Prop\nassume B : Prop\ncheck fun f : A -> B => "
                                + "fun x : A => " * 400 + "x"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        got = infer_type(env, cmds[-1].subject, CCR, oracle)
    finally:
        sys.setrecursionlimit(limit)
    assert got.rule == "prod_r" and got.message.startswith("cannot form product: ")


def test_an_abstraction_hint_beyond_the_fuel_witnesses_as_written():
    # at fuel 2 the body of the outer abstraction has no normal form, so
    # its type's product takes the body as written for its witness
    idz = Abs(Free("A"), Bound(0))
    t = Abs(Free("A"), Abs(Free("A"), App(idz, App(idz, App(idz, Bound(0))))))
    got = infer_type(env_of(("A", PROP), ("a", Free("A"))), t, CCR, oracle=None, fuel=2)
    assert not isinstance(got, Diagnostic), got.message
    assert got.conclusion.ty == arrow(Free("A"), arrow(Free("A"), Free("A")))
    assert verify_derivation(got) == []
    assert any(normalize(w) != w for n in iter_nodes(got) if n.rule == "prod_r"
               for w in [n.premises[0].conclusion.subject])


def test_a_hint_beyond_the_fuel_falls_back_to_the_oracle(oracle):
    # the subject is the hint for `nat`; its normal form, the numeral
    # 160000, needs more than the default fuel
    subject = App(App(times, numeral(400)), numeral(400))
    d = check_type(Environment(), subject, nat_type, CCR, oracle)
    assert isinstance(d, Derivation)
    assert d.conclusion.ty == nat_type


def test_a_divergent_ill_typed_hint_falls_back_to_the_oracle(oracle):
    env, _ = elaborate(parse(
        "assume h : forall A : Prop, A -> A "
        "by fun A : Prop => fun x : A => (fun y : Prop => y y) (fun y : Prop => y y)"))
    d = check_wf(env, CCR, oracle)
    assert isinstance(d, Derivation)
    assert verify_derivation(d) == []


_REDEX = App(Abs(PROP, Bound(0)), Free("A"))


@pytest.mark.parametrize("call", [
    lambda: check_type(env_of(("A", PROP), ("x", Free("A"))), Free("x"), _REDEX,
                       CC, fuel=0),
    lambda: infer_type(env_of(("A", PROP), ("x", _REDEX)), Free("x"), CC, fuel=0),
    lambda: check_wf(env_of(("A", PROP), ("x", _REDEX),
                            ("y", App(Abs(Free("A"), Free("A")), Free("x")))),
                     CC, fuel=0),
    lambda: check_motivated_env(env_of(("A", PROP), ("x", _REDEX)),
                                Motivation((("A", top_type), ("x", id_term))),
                                CC, fuel=0),
], ids=["check_type", "infer_type", "check_wf",
        "check_motivated_env"])
def test_running_out_of_fuel_is_a_diagnostic(call):
    got = call()
    assert isinstance(got, Diagnostic)
    assert got.rule == "fuel"


def test_every_checker_and_the_oracle_share_one_evaluation(monkeypatch):
    # a computed hypothesis type under a name no other test uses, so that
    # no live term keeps its normal form yet
    name = "P_evaluated_once"
    ty = App(Free(name), App(factorial, numeral(4)))
    env = env_of((name, arrow(nat_type, PROP)), ("x", ty))
    sigma = Motivation(((name, Abs(nat_type, top_type)), ("x", id_term)))
    runs: list = []  # the evaluations whose root is the type
    evaluate = reduction._eval

    def counting(t, env, steps):
        if steps.root is ty and not any(s is steps for s in runs):
            runs.append(steps)
        return evaluate(t, env, steps)

    monkeypatch.setattr(reduction, "_eval", counting)
    for mode in (CC, CCR, NAIVE):
        checker = Checker(mode, make_search_oracle())
        got = checker.infer(env, Free("x"), sigma if mode is NAIVE else None)
        assert isinstance(got, Derivation), got
        assert got.conclusion.ty == App(Free(name), numeral(24))
    assert make_search_oracle()(env, ty) == Free("x")
    # the type keeps its normal form: one evaluation serves them all
    assert len(runs) == 1


def test_naive_and_restricted_checkers_judge_through_their_cc_checker(monkeypatch, oracle):
    made: list[Checker] = []

    class Recording(Checker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    # the cascade builds its cc checker through the module's name
    monkeypatch.setattr(kernel, "Checker", Recording)
    judgment, motivation = naive_p_examples()[1]
    # naivep checks the cascade in cc; ccr rejects the environment, which
    # cc rejects too, so its cc checker judges it again for the diagnostic
    for mode, verdict in ((NAIVE, Derivation), (CCR, Diagnostic)):
        made.clear()
        outer = Recording(mode, oracle)
        got = outer.check(judgment.env, judgment.subject, judgment.ty, motivation)
        assert isinstance(got, verdict), got
        inner = [c for c in made if c is not outer]
        assert inner and all(c._memo for c in inner)


def test_a_cascade_infers_each_motivation_term_once_per_checker(monkeypatch, oracle):
    inferred: Counter = Counter()
    infer_raw = Checker._infer_raw

    def counting(self, ctx, t, hint, pos):
        if self.mode is CC and len(ctx.env) == 0:
            inferred[t, hint] += 1
        return infer_raw(self, ctx, t, hint, pos)

    monkeypatch.setattr(Checker, "_infer_raw", counting)
    env = env_of(("A", PROP), ("a", Free("A")))
    sigma = Motivation((("A", top_type), ("a", id_term)))
    # `a` under two binders: three environments, so three cascades
    term = Abs(PROP, Abs(Bound(0), Free("a")))
    got = Checker(NAIVE, oracle).infer(env, term, sigma)
    assert isinstance(got, Derivation), got
    assert inferred[top_type, None] == inferred[id_term, None] == 1
    assert set(inferred.values()) == {1}


def test_a_cascade_grows_one_check_per_entry(monkeypatch, oracle):
    # fun A : Prop => fun x : A -> A => ... (n times) => x: each binder's
    # cascade is its parent's plus one check of the new entry
    n = 50
    term = Bound(0)
    for k in reversed(range(n)):
        term = Abs(Prod(Bound(k), Bound(k + 1)), term)
    checks = Counter()
    check = Checker._check

    def counting(self, *args):
        checks[self.mode] += 1
        return check(self, *args)

    monkeypatch.setattr(Checker, "_check", counting)
    got = infer_type(Environment(), Abs(PROP, term), NAIVE, oracle)
    assert isinstance(got, Derivation), got
    assert checks[CC] <= 2 * (n + 1)


@pytest.mark.parametrize("mode", [CC, CCR, NAIVE])
def test_a_failure_comes_back_at_the_later_judgments_position(monkeypatch, oracle, mode):
    env = env_of(("A", PROP), ("a", Free("A")))
    sigma = Motivation((("A", top_type), ("a", id_term))) if mode is NAIVE else None
    bad = App(Free("a"), Free("a"))
    checker = Checker(mode, oracle)
    first = checker.infer(env, bad, sigma)
    assert isinstance(first, Diagnostic) and first.position == (0,)
    derived = []
    infer_raw = Checker._infer_raw

    def recording(self, ctx, t, hint, pos):
        if self is checker:
            derived.append(t)
        return infer_raw(self, ctx, t, hint, pos)

    monkeypatch.setattr(Checker, "_infer_raw", recording)
    # the same failure, one application deeper, comes from the memo
    later = checker.infer(env, App(bad, Free("a")), sigma)
    assert bad not in derived
    assert later == infer_type(env, App(bad, Free("a")), mode, oracle, motivation=sigma)
    assert later.position == (0, 0)


def test_abstractions_over_one_domain_share_the_binders_context(oracle):
    env = env_of(("A", PROP), ("a", Free("A")))
    checker = Checker(CCR, oracle)
    wf_nodes = set()
    for body in (Bound(0), Free("a")):  # fun x : A => x, fun x : A => a
        d = checker.infer(env, Abs(Free("A"), body))
        wf_nodes |= {id(n) for n in iter_nodes(d)
                     if n.rule == "env2" and len(n.conclusion.env) == 3}
    assert len(wf_nodes) == 1


@pytest.mark.parametrize("mode, term", [
    (CC, Free("x")),
    (CCR, Free("x")),
    (CC, arrow(Free("A"), Free("A"))),
    (CCR, arrow(Free("A"), Free("A"))),
], ids=["cc-var", "ccr-var", "cc-product", "ccr-product"])
def test_a_judgment_inferred_under_two_hints_is_one_derivation(oracle, mode, term):
    # only a restricted product reads its hint; these name a and b, past A
    env = env_of(("A", PROP), ("x", Free("A")), ("a", Free("A")), ("b", Free("A")))
    checker = Checker(mode, oracle)
    ctx = checker.root_ctx(env)
    first = checker._infer(ctx, term, Abs(Free("A"), Free("a")), ())
    second = checker._infer(ctx, term, Abs(Free("A"), Free("b")), ())
    if mode is CC or not isinstance(term, Prod):
        assert second is first
        return
    # a's hint forms the product in [A, x, a]; b's, in the whole
    # environment, cites that formation
    formed = first.premises[0]
    assert (formed.rule, formed.conclusion.env) == ("prod_r", env.parent)
    assert formed.premises[0].conclusion.subject == Free("a")
    assert (second.rule, second.premises[0]) == ("weak", formed)
    assert second.premises[0] is formed and verify_derivation(second) == []


# ---------------------------------------------------------------------------
# weakening: each judgment is derived in the shortest environment that
# binds its names, and cited further in by one weak node


def test_a_term_is_derived_in_the_shortest_environment_that_binds_it(oracle):
    a = Free("A")
    env = env_of(("A", PROP), ("a", a), ("b", a))
    for mode in (CC, CCR):
        checker = Checker(mode, oracle)
        d = checker.infer(env, Abs(a, Bound(0)))
        assert d.rule == "weak" and verify_derivation(d) == []
        thin, wf = (p.conclusion for p in d.premises)
        assert thin.env == env_of(("A", PROP)) and wf == WellFormed(env)
        assert (thin.subject, thin.ty) == (d.conclusion.subject, d.conclusion.ty)
        # one derivation in the prefix serves every longer environment
        d2 = checker.infer(env.parent, Abs(a, Bound(0)))
        assert d2.rule == "weak" and d2.premises[0] is d.premises[0]
        # sorts and variables keep their one step in their own environment
        for term, rule in ((PROP, "ax"), (a, "var")):
            d = checker.infer(env, term)
            assert d.rule == rule and d.conclusion.env == env


def test_the_naive_system_derives_a_closed_subterm_once_and_weakens_it(oracle):
    env = env_of(("A", PROP), ("a", Free("A")))
    sigma = Motivation((("A", top_type), ("a", id_term)))
    d = infer_type(env, App(App(id_term, Free("A")), Free("a")), NAIVE, oracle,
                   motivation=sigma)
    assert verify_derivation(d) == []
    naive = [n for n in iter_nodes(d) if n.mode is NAIVE]
    # id is derived once, in the empty prefix, and cited in [A] by a weak node
    [derived] = [n for n in naive if n.conclusion.subject == id_term and n.rule != "weak"]
    assert derived.rule == "abs" and derived.conclusion.env == Environment()
    [weak] = [n for n in naive if n.rule == "weak" and n.conclusion.subject == id_term]
    assert weak.conclusion.env == env.parent and weak.premises[0] is derived
    # id A, derived in [A], is cited in [A, a] by a weak node whose later
    # premises are [A, a]'s cascade, the one the p-var of a cites
    [weak] = [n for n in naive if n.rule == "weak" and n.conclusion.env == env]
    assert weak.premises[0].conclusion.env == env.parent
    [p_var] = [n for n in naive if n.rule == "p-var" and n.conclusion.env == env]
    assert weak.premises[1:] == p_var.premises
    cascade = check_motivated_env(env, sigma, CC)
    assert [p.conclusion for p in weak.premises[1:]] == [p.conclusion for p in cascade]
    # nat : Prop is formed once in factorial, in [], and cited under its
    # binders by weak nodes
    d = infer_type(Environment(), factorial, NAIVE, oracle)
    assert verify_derivation(d) == []
    nat = [n for n in iter_nodes(d) if n.mode is NAIVE and n.conclusion.subject == nat_type]
    [formed] = [n for n in nat if n.rule != "weak"]
    assert formed.rule == "prod" and formed.conclusion.env == Environment()
    assert len(nat) > 1


def test_restricted_factorial_is_a_small_derivation(oracle):
    # every candidate witness under factorial's binders is derived once, in
    # the environment its names need, not again under each binder around it
    d = infer_type(Environment(), factorial, CCR, oracle)
    assert sum(1 for _ in iter_nodes(d)) <= 400
    assert verify_derivation(d) == []


# A -> B names A and B only, but only b inhabits B
_WITNESS_PAST_ITS_NAMES = """\
assume A : Prop
assume B : Prop
assume b : B
check A -> B : Prop
"""


def test_a_product_whose_witness_lies_past_its_names_is_formed_in_the_whole_environment(
        tmp_path, capsys, oracle):
    src = tmp_path / "f.ped"
    src.write_text(_WITNESS_PAST_ITS_NAMES, encoding="utf-8")
    cert = tmp_path / "c.json"
    assert cli.main(["check", str(src), "--system", "ccr",
                     "--emit-derivation", str(cert)]) == 0
    capsys.readouterr()
    assert json.loads(cert.read_text(encoding="utf-8"))["status"] == "ok"
    env, cmds = elaborate(parse(_WITNESS_PAST_ITS_NAMES))
    check = cmds[-1]
    # the binding prefix [A, B] has no witness, so the product is formed
    # in the whole environment, with b
    assert check_type(env.parent, check.subject, check.expected, CCR, oracle).rule == "prod_r"
    d = check_type(env, check.subject, check.expected, CCR, oracle)
    assert isinstance(d, Derivation) and verify_derivation(d) == []
    assert (d.rule, d.conclusion.env, d.premises[0].conclusion.subject) == ("prod_r", env, Free("b"))


# top -> top is formed for y, in []; z's hint names x, a later hypothesis,
# and w's is y's, under B
_HINTS = """\
assume x : top by id
assume y : top -> top by fun a : top => a
assume z : top -> top by fun a : top => x
assume B : Prop
assume w : top -> top by fun a : top => a
"""
_TOP_TO_TOP = "(forall A : Prop, A -> A) -> (forall A : Prop, A -> A)"


def test_a_product_formed_in_its_names_prefix_is_cited_under_any_later_hint(
        tmp_path, capsys, oracle):
    src = tmp_path / "hints.ped"
    src.write_text(_HINTS, encoding="utf-8")
    cert = tmp_path / "c.json"
    assert cli.main(["check", str(src), "--system", "ccr",
                     "--emit-derivation", str(cert)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16
    rows = json.loads(cert.read_text(encoding="utf-8"))["derivations"][0]["nodes"]
    assert [(r["rule"], r["conclusion"]["env"]) for r in rows
            if r["conclusion"].get("term") == _TOP_TO_TOP and r["rule"] != "weak"] == [
        ("prod_r", [])]
    env, _ = elaborate(parse(_HINTS))
    d = check_wf(env, CCR, oracle)
    assert isinstance(d, Derivation) and verify_derivation(d) == []
    formed = [n for n in iter_nodes(d) if n.rule == "prod_r"
              and render_term(n.conclusion.subject) == _TOP_TO_TOP]
    assert len(formed) == 1 and formed[0].conclusion.env == Environment()
    # z's entry, in [x, y], and w's, in [x, y, z, B], cite it as y's does, in [x]
    cited = [n for n in iter_nodes(d) if n.rule == "weak"
             and render_term(n.conclusion.subject) == _TOP_TO_TOP]
    assert [n.conclusion.env.names() for n in cited] == [
        ("x",), ("x", "y"), ("x", "y", "z", "B")]
    assert all(n.premises[0] is formed[0] for n in cited)


def test_the_by_example_of_a_later_hint_is_what_motivate_prints(tmp_path, capsys):
    # z's witness is its own hint's, not y's, formed under the same product
    src = tmp_path / "hints.ped"
    src.write_text(_HINTS, encoding="utf-8")
    assert cli.main(["motivate", str(src)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x := fun A : Prop => fun x : A => x",
        "y := fun f : (forall A : Prop, A -> A) => f",
        "z := fun f : (forall A : Prop, A -> A) => fun A : Prop => fun x : A => x",
        "B := forall A : Prop, A -> A",
        "w := fun f : (forall A : Prop, A -> A) => f",
    ]


def test_verify_derivation_flags_forged_weak_nodes(oracle):
    a = Free("A")
    env = env_of(("A", PROP), ("a", a), ("b", a))
    term = Abs(a, Bound(0))
    checker = Checker(CCR, oracle)
    d = checker.infer(env, term)
    assert d.rule == "weak" and verify_derivation(d) == []
    thin, wf = d.premises
    c, prefix = d.conclusion, thin.conclusion.env
    elsewhere = checker.infer(env_of(("A", PROP), ("b", a)), term)
    in_cc = Checker(CC).infer(prefix, term)
    whole = thin._replace(conclusion=thin.conclusion._replace(env=env))
    mismatch = "weak premises do not match conclusion"
    mutants = [
        (d._replace(premises=(elsewhere, wf)), mismatch),  # not a prefix
        (d._replace(premises=(whole, wf)), mismatch),  # not a proper one
        (d._replace(conclusion=c._replace(subject=Abs(a, Free("a")))),
         mismatch),
        (d._replace(conclusion=c._replace(ty=arrow(a, PROP))),
         mismatch),
        (d._replace(premises=(thin, checker.root_ctx(prefix).wf)), mismatch),
        # a naive weak node cites a cascade, not a well-formedness judgment
        (d._replace(mode=NAIVE), "weak cascade has wrong length"),
        (d._replace(premises=(in_cc, wf)),
         f"{in_cc.rule} node of mode cc inside a ccr derivation"),
    ]
    for mutant, problem in mutants:
        assert problem in verify_derivation(mutant)


def test_naive_names_an_unmotivated_binder_by_its_domain(oracle):
    # top's binder ranges over Prop; with no oracle nothing motivates it
    got = check_motivated_env(env_of(("A", PROP)), Motivation((("A", top_type),)), NAIVE)
    assert isinstance(got, Diagnostic)
    assert (got.rule, got.expected) == ("p-var", PROP)
    assert got.message == "cannot motivate the binder's domain: no witness oracle was supplied"
    # an oracle that misses says why
    got = check_type(Environment(), Abs(bot_type, Bound(0)), arrow(bot_type, bot_type),
                     NAIVE, oracle)
    assert isinstance(got, Diagnostic)
    assert got.expected == bot_type
    assert got.message == "cannot motivate the binder's domain: no witness exists"


def test_verify_derivation_flags_a_forged_node():
    bogus = Derivation("ax", HasType(Environment(), PROP, PROP), (), CC)
    assert verify_derivation(bogus) != []
    wrong_rule = Derivation("var", WellFormed(Environment()), (), NAIVE)
    assert verify_derivation(wrong_rule) != []


def test_verify_derivation_flags_a_derivation_that_mixes_modes(oracle):
    # ccr rejects this environment: nothing inhabits forall A : Prop, A
    env = env_of(("h", Prod(PROP, Bound(0))))
    assert check_wf(env, CCR, oracle).rule == "prod_r"
    d = check_wf(env, CC)
    assert isinstance(d, Derivation) and verify_derivation(d) == []
    relabelled = d._replace(mode=CCR)
    assert verify_derivation(relabelled) == [
        "prod node of mode cc inside a ccr derivation"]
    # a forged node in a stray mode, and one under it, have their schemas
    # checked too
    (prod,) = d.premises
    forged = Derivation("ax", HasType(Environment(), PROP, PROP), (), CC)
    under = relabelled._replace(premises=(prod._replace(premises=(forged,)),))
    assert sorted(verify_derivation(under)) == [
        "ax node is missing premises", "prod node of mode cc inside a ccr derivation",
        "prod premise does not match conclusion"]


def test_one_shared_audit_reports_what_per_root_audits_report(oracle):
    env = env_of(("h", Prod(PROP, Bound(0))))
    d = check_wf(env, CC)
    mixed = d._replace(mode=CCR)
    forged = Derivation("ax", HasType(Environment(), PROP, PROP), (), CC)
    good = check_type(Environment(), id_term, top_type, CCR, oracle)
    # the relabelled root shares every premise with the cc one
    roots = [d, mixed, good, forged, relabel_restricted_products(good)]
    per_root = [p for r in roots for p in verify_derivation(r)]
    assert "prod node of mode cc inside a ccr derivation" in per_root
    assert set(verify_derivations(roots)) == set(per_root)
    # roots that share no node: the same problems, as many times
    apart = [mixed, forged]
    assert sorted(verify_derivations(apart)) == sorted(
        p for r in apart for p in verify_derivation(r))
    assert verify_derivations([d, good]) == []


def test_contract_derivation_prints_each_judgment_once(oracle):
    # id appears twice in the subject, so its subderivation is shared
    d = check_type(Environment(), App(App(id_term, top_type), id_term),
                   top_type, CCR, oracle)
    lines = contract_derivation(d)
    assert len(lines) == len({(label, j) for label, j in lines})
    assert len(lines) > len(GOLDEN_RULES)


def _certificate(derivations, render=render_term) -> str:
    fh = io.StringIO()
    write_certificate(fh, derivations, render)
    return fh.getvalue()


def test_certificate_is_a_postordered_node_table(oracle):
    d = check_type(Environment(), id_term, top_type, CCR, oracle)
    (table,) = json.loads(_certificate([d]))["derivations"]
    nodes = table["nodes"]
    assert table["root"] == len(nodes) - 1
    for i, node in enumerate(nodes):
        assert all(p < i for p in node["premises"])
        assert node["rule"]
        assert node["mode"] in ("cc", "ccr", "naivep")
    # witness annotations survive serialization on product formations
    assert any("witness" in n for n in nodes)


def _plain_table(d: Derivation, render) -> dict:
    """The node table written the plain way: every term and every
    environment entry of every node rendered afresh."""
    index: dict[int, int] = {}
    nodes: list[dict] = []

    def visit(node: Derivation) -> int:
        if id(node) not in index:
            premises = [visit(p) for p in node.premises]
            c = node.conclusion
            conclusion = {
                "judgment": "wf" if isinstance(c, WellFormed) else "hastype",
                "env": [{"name": e.name, "type": render(e.ty)} for e in c.env],
            }
            if isinstance(c, HasType):
                conclusion["term"] = render(c.subject)
                conclusion["type"] = render(c.ty)
            entry = {"rule": node.rule, "mode": node.mode.value,
                     "conclusion": conclusion, "premises": premises}
            if node.rule == "prod_r":
                entry["witness"] = render(node.premises[0].conclusion.subject)
            if node.mode is NAIVE and node.rule in ("p-ax", "p-var", "weak"):
                # a naive weak node's cascade follows its prefix derivation
                cascade = node.premises[node.rule == "weak":]
                entry["motivation"] = [{"name": e.name, "term": render(p.conclusion.subject)}
                                       for e, p in zip(c.env, cascade)]
            index[id(node)] = len(nodes)
            nodes.append(entry)
        return index[id(node)]

    return {"root": visit(d), "nodes": nodes}


def _plain_certificate(derivations) -> str:
    return json.dumps({"status": "ok",
                       "derivations": [_plain_table(d, render_term)
                                       for d in derivations]},
                      separators=(",", ":")) + "\n"


@pytest.mark.parametrize("mode", [CC, CCR, NAIVE])
def test_certificate_matches_the_plain_encoding(oracle, mode):
    motivation = Motivation(()) if mode is NAIVE else None
    derivations = [infer_type(Environment(), term, mode, oracle,
                              motivation=motivation)
                   for _, term in prelude_corpus()]
    # one certificate per derivation, and one for all of them, whose
    # derivations share the call's rendered terms and environments
    for d in derivations:
        assert _certificate([d]) == _plain_certificate([d])
    assert _certificate(derivations) == _plain_certificate(derivations)


@pytest.mark.parametrize("demo, system", [
    (demo, system)
    for demo in sorted(p.name for p in DEMOS.glob("*.ped"))
    for system in ("cc", "ccr", "naivep")
    if (demo, system) not in DEMO_REJECTS
])
def test_demo_certificates_match_the_plain_encoding(tmp_path, capsys,
                                                    monkeypatch, demo, system):
    made = []

    def recording(fh, derivations, render):
        made.extend(derivations)
        write_certificate(fh, made, render)

    monkeypatch.setattr(cli, "write_certificate", recording)
    cert = tmp_path / "c.json"
    assert cli.main(["check", str(DEMOS / demo), "--system", system,
                     "--emit-derivation", str(cert)]) == 0
    capsys.readouterr()
    assert cert.read_text(encoding="utf-8") == _plain_certificate(made)


def _terms_and_envs(derivations) -> tuple[set, set]:
    terms, envs = set(), set()
    for node in distinct_nodes(derivations):
        envs.add(node.conclusion.env)
        terms.update(e.ty for e in node.conclusion.env)
        if isinstance(node.conclusion, HasType):
            terms.update((node.conclusion.subject, node.conclusion.ty))
        if node.rule == "prod_r":
            terms.add(node.premises[0].conclusion.subject)
        if node.rule in ("p-ax", "p-var"):
            terms.update(p.conclusion.subject for p in node.premises)
    return terms, envs


def test_certificate_renders_each_distinct_term_once(oracle):
    derivations = [infer_type(Environment(), factorial, CCR, oracle),
                   infer_type(Environment(), times, CCR, oracle)]
    calls: Counter = Counter()

    def counting_render(t):
        calls[t] += 1
        return render_term(t)

    _certificate(derivations, counting_render)
    terms, _ = _terms_and_envs(derivations)
    assert set(calls) == terms
    assert max(calls.values()) == 1


def test_certificate_encodes_each_environment_once(monkeypatch, oracle):
    derivations = [infer_type(Environment(), factorial, CCR, oracle),
                   infer_type(Environment(), times, CCR, oracle)]
    calls: Counter = Counter()
    encode = kernel._env_json

    def counting_env_json(env, string):
        calls[env] += 1
        return encode(env, string)

    monkeypatch.setattr(kernel, "_env_json", counting_env_json)
    _certificate(derivations)
    _, envs = _terms_and_envs(derivations)
    assert set(calls) == envs
    assert max(calls.values()) == 1


def test_walks_over_a_deep_derivation_do_not_recurse():
    # fun x : Prop => ... => fun x : Prop => x, 600 binders deep: each
    # level is an abs node over a weak node, so the spine is 1,200 deep
    t = Bound(0)
    for _ in range(600):
        t = Abs(PROP, t)
    d = infer_type(Environment(), t, CC)
    assert isinstance(d, Derivation)
    fh = io.StringIO()
    recursed = False
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        nodes = list(iter_nodes(d))
        lines = contract_derivation(d)
        full = relabel_restricted_products(d)
        # the printer recurses over the term, the writer must not
        write_certificate(fh, [d], lambda t: type(t).__name__)
    except RecursionError:
        recursed = True
    finally:
        sys.setrecursionlimit(limit)
    assert not recursed, "a walk over the derivation recursed"
    assert len(nodes) > 2400 and id(nodes[-1]) == id(d)
    assert [label for label, _ in lines[-1:]] == ["abs"]
    assert full.mode is CC and verify_derivation(full) == []
    (table,) = json.loads(fh.getvalue())["derivations"]
    assert len(table["nodes"]) == len(nodes)


@pytest.mark.parametrize("name", sorted(NORMALIZED_PRODUCTS))
def test_a_subject_whose_type_normalizes_to_a_product_checks_in_ccr(oracle, name):
    # the sort of the normal type is derived with no hint from a normal
    # variable or application, whose own judgment is still in progress
    env, cmds = elaborate(parse(NORMALIZED_PRODUCTS[name]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        d = infer_type(env, cmds[-1].subject, CCR, oracle)
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(d, Derivation), d
    assert verify_derivation(d) == []


def test_a_redex_is_the_hint_for_the_sort_of_its_normalized_type():
    # the redex cannot occur in the normal form of itself applied to the
    # binder, so it stays the hint, and with no oracle its body's `b` is
    # the witness of A -> A
    env, cmds = elaborate(parse(NORMALIZED_PRODUCTS["redex.ped"]))
    d = infer_type(env, cmds[-1].subject, CCR, oracle=None)
    assert isinstance(d, Derivation), d
    assert d.conclusion.ty == arrow(Free("A"), Free("A"))
    assert verify_derivation(d) == []
    witnesses = {n.premises[0].conclusion.subject for n in iter_nodes(d) if n.rule == "prod_r"}
    assert witnesses == {Free("b")}


def test_the_repr_of_a_deep_derivation_counts_its_premises():
    # unfolding the shared premises would print a conclusion per path
    # through the DAG: about n**2 paths here, each with a term of up to n
    # binders
    t = Bound(0)
    for _ in range(2000):
        t = Abs(PROP, t)
    d = infer_type(Environment(), t, CC)
    text = repr(d)
    assert text.startswith("Derivation(rule='abs', conclusion=HasType(")
    assert text.endswith(", premises=2)")
    # the conclusion is shown whole, and it is linear in the binders
    assert len(text) < 200 * 2000


def test_motivation_helpers():
    m = Motivation((("A", top_type), ("x", id_term)))
    assert m.names() == ("A", "x")
    assert m.extended("y", top_type).names() == ("A", "x", "y")


_POS = SourcePos(2, 5, 9)
_EMPTY = Environment()
_AX = Derivation("ax", HasType(_EMPTY, PROP, TYPE))
_DIAGNOSTIC = Diagnostic("app", "argument type mismatch")
# one record of each class, a field and a new value for it
_RECORDS = [
    (WellFormed(_EMPTY), "env", env_of(("A", PROP))),
    (HasType(_EMPTY, PROP, TYPE), "subject", top_type),
    (Motivation(()), "assignments", (("A", top_type),)),
    (_AX, "rule", "var"),
    (_DIAGNOSTIC, "message", "fuel exhausted"),
    (kernel._Ctx(_EMPTY, _AX), "motivation", Motivation(())),
    (_POS, "line", 3),
    (AssumeDecl("A", PROP, None, _POS), "witness", top_type),
    (DefineDecl("I", id_term, _POS), "name", "J"),
    (CheckCmd(id_term, None, _POS), "expected", top_type),
    (InhabitCmd(top_type, _POS), "goal", PROP),
    (NormalizeCmd(id_term, _POS), "subject", top_type),
    (EvalCmd(id_term, _POS), "pos", SourcePos(1, 1, 0)),
    (SetMotivationCmd("A", top_type, _POS), "body", id_term),
]


@pytest.mark.parametrize("record, field, value", _RECORDS,
                         ids=[type(r).__name__ for r, _, _ in _RECORDS])
def test_records_are_immutable_values(record, field, value):
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    old = getattr(record, field)
    edited = record._replace(**{field: value})
    assert type(edited) is type(record) and getattr(edited, field) == value
    assert getattr(record, field) == old != value
    assert pickle.loads(pickle.dumps(record)) == record


def test_record_defaults_and_reprs():
    assert _AX.premises == () and _AX.mode is CC
    assert (_DIAGNOSTIC.position, _DIAGNOSTIC.expected, _DIAGNOSTIC.found) == ((), None, None)
    assert repr(_AX._replace(premises=(_AX, _AX))).endswith(", premises=2)")
    assert repr(_POS) == "2:5"

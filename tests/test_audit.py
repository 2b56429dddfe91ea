"""Mutation tests for the derivation auditor.

Every derivation `check` certifies for the demos, in each system, is
mutated node by node: its conclusion or a premise replaced by a judgment
of the other form (well-formedness for typing, or back), its mode
flipped, two of its premises swapped, a premise dropped, and its
conclusion's subject or type replaced by another term of the same
derivations.  A mutant is audited where the node stood:
cited by one node that cites the original, or as a root.  So is a
`naivep` derivation with ``weak`` nodes, which no demo yields, and
targeted mutants of such a node break each of its conditions, as they do
for a ``ccr`` ``weak`` node that cites a product formed further in.  Targeted
mutants reach the problems no such edit produces.  Every mutant must be reported,
and every problem message `_verify_node` can append must be produced.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import inspect
import io
import re
from pathlib import Path

import pytest

from harness import distinct_nodes, env_of
from pedacc import cli, kernel
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
    infer_type,
    verify_derivation,
)
from pedacc.prelude import top_type
from reference_prelude import id_term, prelude_corpus
from pedacc.terms import (
    PROP, TYPE, Abs, App, Bound, Environment, Free, Prod, open_binder,
)

CC, CCR, NAIVE = SystemMode.CC, SystemMode.CCR, SystemMode.NAIVE
DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.fixture(scope="module")
def certified(tmp_path_factory) -> list[Derivation]:
    """Every derivation `check` certifies for the demos, in each system."""
    made: list[Derivation] = []

    def keep(fh, result, render):
        if not isinstance(result, Diagnostic):
            made.extend(result)

    cert = str(tmp_path_factory.mktemp("audit") / "c.json")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "write_certificate", keep)
        for demo in sorted(DEMOS.glob("*.ped")):
            for system in ("cc", "ccr", "naivep"):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(["check", str(demo), "--system", system,
                              "--emit-derivation", cert])
    return made


def _in_place(node: Derivation, mutant: Derivation, parent: Derivation | None) -> list[str]:
    """What the auditor reports of `mutant` standing where `node` stood:
    cited by `parent` in its place, or as a root when `parent` is None."""
    if parent is None:
        return verify_derivation(mutant)
    premises = tuple(mutant if p is node else p for p in parent.premises)
    return verify_derivation(dataclasses.replace(parent, premises=premises))


def _mutants(node: Derivation, is_root: bool, terms: list,
             other_form: dict) -> list[tuple[str, Derivation]]:
    """(name, mutant) for each edit of `node`.  A replaced subject or type
    becomes the first of `terms` that makes the node unsound;
    `other_form[env, form]` is a node that concludes, in `env`, the
    judgment form other than `form`."""
    c, premises = node.conclusion, node.premises
    out = []
    # every rule fixes the form of its conclusion and of each premise
    other = other_form.get((c.env, type(c)))
    if other is not None:
        out.append(("form", dataclasses.replace(node, conclusion=other.conclusion)))
    for i, p in enumerate(premises):
        other = other_form.get((p.conclusion.env, type(p.conclusion)))
        if other is not None:
            out.append((f"form {i}", dataclasses.replace(
                node, premises=premises[:i] + (other,) + premises[i + 1:])))
    for mode in SystemMode:
        # a root with no premises holds in every system that has its rule
        if mode is not node.mode and not (
                is_root and not premises and node.rule in kernel._RULES_BY_MODE[mode]):
            out.append((f"mode {mode.value}", dataclasses.replace(node, mode=mode)))
    for i in range(len(premises)):
        for j in range(i + 1, len(premises)):
            a, b = premises[i].conclusion, premises[j].conclusion
            # premises of one environment and type may swap soundly: two
            # cascade terms of one type are another motivation
            if (a.env, getattr(a, "ty", None)) != (b.env, getattr(b, "ty", None)):
                swapped = list(premises)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                out.append((f"swap {i} {j}", dataclasses.replace(node, premises=tuple(swapped))))
        out.append((f"drop {i}", dataclasses.replace(
            node, premises=premises[:i] + premises[i + 1:])))
    if isinstance(c, HasType):
        # a hypothesis of the node's type is the one other subject a var
        # node may soundly conclude
        same_type = {Free(e.name) for e in c.env if e.ty == c.ty}
        for field, old in (("subject", c.subject), ("ty", c.ty)):
            new = next(t for t in terms if t is not old and t not in same_type)
            out.append((f"{field} := {new!r}", dataclasses.replace(
                node, conclusion=dataclasses.replace(c, **{field: new}))))
    return out


def _edited(roots: list[Derivation]) -> list[tuple[str, list[str]]]:
    """(what was mutated, the problems reported) for every edit of every
    distinct node of the derivations `roots`."""
    order: list[Derivation] = []
    parent: dict[int, Derivation] = {}
    for node in distinct_nodes(roots):
        order.append(node)
        for p in node.premises:
            parent.setdefault(id(p), node)
    terms = list(dict.fromkeys(t for n in order if isinstance(n.conclusion, HasType)
                               for t in (n.conclusion.subject, n.conclusion.ty)))
    form = {WellFormed: HasType, HasType: WellFormed}
    other_form = {(n.conclusion.env, form[type(n.conclusion)]): n for n in order}
    out = []
    for k, node in enumerate(order):
        # each node tries the terms from its own place in the list on
        edits = _mutants(node, id(node) not in parent, terms[k % len(terms):] + terms,
                         other_form)
        for name, mutant in edits:
            out.append((f"{node!r}: {name}",
                        _in_place(node, mutant, parent.get(id(node)))))
    return out


@pytest.fixture(scope="module")
def generic(certified) -> list[tuple[str, list[str]]]:
    """`_edited` of the certified derivations."""
    return _edited(certified)


def _targeted(oracle) -> list[tuple[Derivation, str]]:
    """(mutant, the problem it must yield as a root) for the problems no
    edit of a certified node produces.  Most break one condition of their
    rule, keep the others and cite sound premises, so each condition of
    the auditor's that sound premises can violate is needed."""
    a, fa = Free("A"), Free("a")
    env = env_of(("A", PROP), ("a", a))
    with_b = env.extended("B", PROP)
    sigma = Motivation((("A", top_type), ("a", Abs(PROP, Abs(Bound(0), Bound(0))))))
    p_ax = check_type(env, PROP, TYPE, NAIVE, oracle, motivation=sigma)
    p_var = infer_type(env, fa, NAIVE, oracle, motivation=sigma)
    ax, ax_A = infer_type(env, PROP, CC), infer_type(env.parent, PROP, CC)
    var, var_b = infer_type(env, fa, CC), infer_type(with_b, fa, CC)
    var_A = infer_type(env.parent, a, CC)
    # in the environment their names need, so no weak step cites them
    abs_ = infer_type(env.parent, Abs(a, Bound(0)), CC)
    prod = infer_type(env.parent, Prod(a, a), CC)
    kind = infer_type(env.parent, Prod(a, PROP), CC)
    bot = infer_type(Environment(), Prod(PROP, Bound(0)), CC)
    weak = infer_type(env, Abs(a, Bound(0)), CC)
    app = infer_type(env, App(Abs(a, Bound(0)), fa), CC)
    prod_r = infer_type(Environment(), top_type, CCR, oracle)
    # (fun x : Prop => x) A converts to A, so checking a against it is one step
    conv = check_type(env, fa, App(Abs(PROP, Bound(0)), a), CC)
    # a closed term derived in a longer environment than a cascade's
    thinned = infer_type(env_of(("B", PROP)), top_type, CC)
    # the witness of top's body, with a hypothesis it does not need
    pw = prod_r.premises[0].conclusion
    witness_past = infer_type(pw.env.extended("B", PROP), pw.subject, CCR, oracle)
    # an abstraction cited in [A, a, c] from [A, c], which is no prefix of it
    weak_3 = infer_type(env.extended("c", PROP), Abs(a, Bound(0)), CC)
    beside = infer_type(env.parent.extended("c", PROP), Abs(a, Bound(0)), CC)
    ax_inner = infer_type(abs_.premises[0].conclusion.env, PROP, CC)
    sound = (p_ax, p_var, ax, ax_A, var, var_A, var_b, abs_, prod, kind, bot, weak, app,
             prod_r, conv, thinned, witness_past, weak_3, beside, ax_inner)
    assert [d.rule for d in sound] == [
        "p-ax", "p-var", "ax", "ax", "var", "var", "var", "abs", "prod", "prod", "prod",
        "weak", "app", "prod_r", "conv", "weak", "weak", "weak", "weak", "ax"]
    assert all(verify_derivation(d) == [] for d in sound)

    def concluding(d: Derivation, **fields) -> Derivation:
        return dataclasses.replace(d, conclusion=dataclasses.replace(d.conclusion, **fields))

    def citing(d: Derivation, *premises: Derivation) -> Derivation:
        return dataclasses.replace(d, premises=premises)

    def capturing(d: Derivation, opened: int) -> Derivation:
        """`d` with its binder's name, as its premise opened it, left free
        in the body of its subject."""
        t, x = d.conclusion.subject, d.premises[opened].conclusion.env.last.name
        return concluding(d, subject=type(t)(t.domain, open_binder(t.body, x)))

    env2, abs_bad, prod_bad = ("env2 premise does not match conclusion",
                               "abs premises do not match conclusion",
                               "prod premise does not match conclusion")
    prod_r_bad, app_bad, conv_bad, weak_bad = ("prod_r premises do not match conclusion",
                                               "app premises do not match conclusion",
                                               "conv premises do not match conclusion",
                                               "weak premises do not match conclusion")
    return [
        (Derivation("env1", WellFormed(env), (), CC),
         "env1 must conclude the empty environment"),
        (Derivation("env1", WellFormed(Environment()), (ax_A.premises[0],), CC),
         "env1 must conclude the empty environment"),
        # A bound twice; an entry that is no type; [A] extended to [B, C]
        (Derivation("env2", WellFormed(env.parent.extended("A", PROP)), (ax_A,), CC), env2),
        (Derivation("env2", WellFormed(env.extended("y", fa)), (var,), CC), env2),
        (Derivation("env2", WellFormed(env_of(("B", PROP), ("C", PROP))), (ax_A,), CC), env2),
        (Derivation("env2", HasType(env, fa, a), (var_A,), CC), env2),
        # an entry whose premise derives another type, or no type
        (Derivation("env2", WellFormed(env), (ax_A,), CC), env2),
        (Derivation("env2", WellFormed(env), (ax_A.premises[0],), CC), env2),
        (concluding(ax, ty=PROP), "ax node malformed"),
        (concluding(ax, subject=a), "ax node malformed"),
        (citing(ax, ax_A.premises[0]), "ax node malformed"),
        (citing(ax), "ax node is missing premises"),
        (concluding(var, ty=PROP), "var node malformed"),
        (citing(var, ax_A.premises[0]), "var node malformed"),
        (dataclasses.replace(var, mode=NAIVE), "rule var not part of mode naivep"),
        (concluding(abs_, ty=PROP), "abs node malformed"),
        # fun x : A => x : A -> A, concluded as Prop -> A or as A -> Prop,
        (concluding(abs_, ty=Prod(PROP, a)), abs_bad),
        (concluding(abs_, ty=Prod(a, PROP)), abs_bad),
        # as fun x : Prop => x : Prop -> A, as fun x : A => A, in []
        (concluding(abs_, subject=Abs(PROP, Bound(0)), ty=Prod(PROP, a)), abs_bad),
        (concluding(abs_, subject=Abs(a, a)), abs_bad),
        (concluding(abs_, env=Environment()), abs_bad),
        (capturing(abs_, 0), abs_bad),
        # the body's type sorted in the abstraction's environment; Prop sorted
        (citing(abs_, abs_.premises[0], var_A), abs_bad),
        (citing(abs_, abs_.premises[0], ax_inner), abs_bad),
        (concluding(prod, ty=a), "prod node malformed"),
        # A -> Prop : Prop; Prop -> A, A -> Prop, each from A -> A's premise
        (concluding(kind, ty=PROP), prod_bad),
        (concluding(prod, subject=Prod(PROP, a)), prod_bad),
        (concluding(prod, subject=Prod(a, PROP)), prod_bad),
        (concluding(prod, env=Environment()), prod_bad),
        (capturing(bot, 0), prod_bad),
        (concluding(prod_r, ty=a), "prod_r node malformed"),
        # the first premise derives the body, not a witness; in a longer env
        (citing(prod_r, prod_r.premises[1], prod_r.premises[1]), prod_r_bad),
        (citing(prod_r, witness_past, prod_r.premises[1]), prod_r_bad),
        # top's premises under another domain, body, environment; captured
        (concluding(prod_r, subject=Prod(TYPE, top_type.body)), prod_r_bad),
        (concluding(prod_r, subject=Prod(PROP, Bound(0))), prod_r_bad),
        (concluding(prod_r, env=env_of(("B", PROP))), prod_r_bad),
        (capturing(prod_r, 1), prod_r_bad),
        # the application's type, its argument at a type convertible to the
        # domain, its argument derived in a longer environment
        (concluding(app, ty=PROP), app_bad),
        (citing(app, app.premises[0], conv), app_bad),
        (citing(app, app.premises[0], var_b), app_bad),
        (citing(app, infer_type(with_b, app.conclusion.subject.fun, CC), var), app_bad),
        # another function and another argument of the same types; no term
        (citing(app, infer_type(env, Abs(a, fa), CC), app.premises[1]), app_bad),
        (citing(app, app.premises[0], app), app_bad),
        (citing(app, app.premises[0], var.premises[0]), app_bad),
        # a : A converted to Prop; its premises in a longer environment
        (concluding(conv, ty=PROP), conv_bad),
        (citing(concluding(conv, ty=PROP), conv.premises[0], ax), conv_bad),
        (citing(conv, var_b, conv.premises[1]), conv_bad),
        (citing(conv, conv.premises[0], var.premises[0]), conv_bad),
        (citing(conv, conv.premises[0], infer_type(with_b, conv.conclusion.ty, CC)), conv_bad),
        # within one environment; from one that is no prefix; the shorter wf
        (citing(weak, weak, weak.premises[1]), weak_bad),
        (citing(weak_3, beside, weak_3.premises[1]), weak_bad),
        (citing(weak, weak.premises[0], ax_A.premises[0]), weak_bad),
        (concluding(weak, ty=Prod(a, PROP)), weak_bad),
        (dataclasses.replace(p_ax, conclusion=WellFormed(env)),
         "p-ax conclusion is not a typing judgment"),
        (concluding(p_ax, subject=a), "p-ax must conclude Prop : Type"),
        (concluding(p_ax, ty=PROP), "p-ax must conclude Prop : Type"),
        (concluding(p_var, ty=PROP), "p-var conclusion not in the environment"),
        (citing(p_var, *p_var.premises[:1]), "p-var cascade has wrong length"),
        # the cascade out of order; its first term derived under a hypothesis
        (citing(p_var, *p_var.premises[::-1]), "p-var cascade entry A malformed"),
        (citing(p_var, thinned, p_var.premises[1]), "p-var cascade entry A malformed"),
        # the same cascade for an environment that binds A twice
        (concluding(p_ax, env=env_of(("A", PROP), ("A", a))), "p-ax cascade entry A malformed"),
    ]


def _verify_node_messages() -> list[re.Pattern]:
    """Each problem message `_verify_node` can append, itself or through
    the cascade check it shares among the naive rules, as a pattern."""
    patterns = []
    for call in (node for f in (kernel._verify_node, kernel._verify_cascade)
                 for node in ast.walk(ast.parse(inspect.getsource(f)))):
        if (isinstance(call, ast.Call) and ast.unparse(call.func) == "problems.append"):
            [arg] = call.args
            parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
            patterns.append(re.compile("".join(
                re.escape(p.value) if isinstance(p, ast.Constant) else ".+"
                for p in parts)))
    return patterns


def test_every_edit_of_a_certified_node_is_reported(generic):
    assert len(generic) > 500
    assert [name for name, problems in generic if not problems] == []


def test_every_targeted_mutant_yields_its_problem(oracle):
    assert [(d, want) for d, want in _targeted(oracle) if want not in verify_derivation(d)] == []


def test_the_mutants_produce_every_problem_the_auditor_can_report(generic, oracle):
    produced = {p for _, problems in generic for p in problems}
    produced.update(want for _, want in _targeted(oracle))
    patterns = _verify_node_messages()
    assert len(patterns) == 20
    assert [p.pattern for p in patterns if not any(p.fullmatch(m) for m in produced)] == []


# [A : Prop, a : A] motivated by A := top, a := id
_A, _a = Free("A"), Free("a")
_ENV = env_of(("A", PROP), ("a", _A))
_SIGMA = Motivation((("A", top_type), ("a", id_term)))


def test_every_edit_of_a_naive_derivation_with_weak_nodes_is_reported(oracle):
    # id derived in [], cited in [A]; id A derived in [A], cited in [A, a]
    d = infer_type(_ENV, App(App(id_term, _A), _a), NAIVE, oracle, motivation=_SIGMA)
    assert sum(1 for n in distinct_nodes([d]) if n.rule == "weak" and n.mode is NAIVE) == 2
    edited = _edited([d])
    assert len(edited) > 100
    assert [name for name, problems in edited if not problems] == []


def test_every_naive_weak_mutant_is_rejected(oracle):
    weak = infer_type(_ENV, Abs(_A, Bound(0)), NAIVE, oracle, motivation=_SIGMA)
    assert weak.rule == "weak" and weak.mode is NAIVE
    thin, cascade = weak.premises[0], weak.premises[1:]
    assert thin.conclusion.env == _ENV.parent and len(cascade) == 2
    assert verify_derivation(weak) == []
    # the same abstraction cited in [A, a, c] from [A, c], no prefix of it
    longer = _ENV.extended("c", PROP)
    sigma_c = _SIGMA.extended("c", top_type)
    weak_3 = infer_type(longer, Abs(_A, Bound(0)), NAIVE, oracle, motivation=sigma_c)
    beside = infer_type(env_of(("A", PROP), ("c", PROP)), Abs(_A, Bound(0)), NAIVE, oracle,
                        motivation=Motivation((("A", top_type), ("c", top_type))))
    assert verify_derivation(weak_3) == [] and verify_derivation(beside) == []

    def concluding(d: Derivation, **fields) -> Derivation:
        return dataclasses.replace(d, conclusion=dataclasses.replace(d.conclusion, **fields))

    def citing(*premises: Derivation, d: Derivation = weak) -> Derivation:
        return dataclasses.replace(d, premises=premises)

    mismatch = "weak premises do not match conclusion"
    mutants = [
        # the premise's environment is no prefix, or the whole one
        (citing(beside, *weak_3.premises[1:], d=weak_3), mismatch),
        (citing(concluding(thin, env=_ENV), *cascade), mismatch),
        # another subject or type
        (concluding(weak, subject=Abs(_A, _A)), mismatch),
        (concluding(weak, ty=Prod(_A, PROP)), mismatch),
        # a cascade entry dropped, or two swapped
        (citing(thin, cascade[0]), "weak cascade has wrong length"),
        (citing(thin, cascade[1]), "weak cascade has wrong length"),
        (citing(thin, *cascade[::-1]), "weak cascade entry A malformed"),
        # the prefix's cascade, not the longer environment's
        (citing(thin, *check_motivated_env(_ENV.parent, Motivation(_SIGMA.assignments[:1]))),
         "weak cascade has wrong length"),
        # a cascade premise in naivep mode
        (citing(thin, dataclasses.replace(cascade[0], mode=NAIVE), cascade[1]),
         f"{cascade[0].rule} node of mode naivep inside a cc derivation"),
        # the first premise alone
        (citing(thin), "weak cascade has wrong length"),
        # the prefix derivation in cc
        (citing(Checker(CC).infer(thin.conclusion.env, thin.conclusion.subject), *cascade),
         "abs node of mode cc inside a naivep derivation"),
    ]
    assert [(d, want) for d, want in mutants if want not in verify_derivation(d)] == []


def test_every_ccr_weak_mutant_over_a_formed_product_is_rejected(oracle):
    # A -> A formed in [A]; a hint naming b, past A, cites it in [A, a, b]
    env = _ENV.extended("b", _A)
    arrow_a = Prod(_A, _A)
    checker = Checker(CCR, oracle)
    formed = checker.infer(_ENV.parent, arrow_a)
    weak = checker._infer(checker.root_ctx(env), arrow_a, Abs(_A, Free("b")), ())
    assert (formed.rule, weak.rule) == ("prod_r", "weak") and weak.premises[0] is formed
    assert verify_derivation(weak) == []

    def formed_in(where: Environment) -> Derivation:
        fresh = Checker(CCR, oracle)  # no formation in a shorter environment to cite
        return fresh._infer_raw(fresh.root_ctx(where), arrow_a, None, ())

    mismatch = "weak premises do not match conclusion"
    unwitnessed = dataclasses.replace(formed, premises=(formed.premises[1],) * 2)
    mutants = [
        # formed in [A, c], no prefix of [A, a, b], or in [A, a, b] itself
        (formed_in(env_of(("A", PROP), ("c", PROP))), mismatch),
        (formed_in(env), mismatch),
        # the witness premise derives A : Prop, which does not inhabit A
        (unwitnessed, "prod_r premises do not match conclusion"),
    ]
    assert all(d.rule == "prod_r" for d, _ in mutants)
    mutants = [(dataclasses.replace(weak, premises=(d, *weak.premises[1:])), want)
               for d, want in mutants]
    mutants.append((dataclasses.replace(
        weak, conclusion=dataclasses.replace(weak.conclusion, ty=TYPE)), mismatch))
    assert [(d, want) for d, want in mutants if want not in verify_derivation(d)] == []


def test_every_naive_derivation_of_the_prelude_corpus_audits(oracle):
    for name, term in prelude_corpus():
        # closed, then under two motivated hypotheses it does not name
        for env, sigma in ((Environment(), None), (_ENV, _SIGMA)):
            d = infer_type(env, term, NAIVE, oracle, motivation=sigma)
            assert isinstance(d, Derivation), (name, d)
            assert verify_derivation(d) == [], name

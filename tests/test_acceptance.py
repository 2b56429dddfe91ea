"""Acceptance gate: nine end-to-end checks over the kernel, the
motivation engine, the arithmetic prelude, and the generated suites of
`harness.py`.

Each test prints one PASS line with its measured quantities.  The tests
run in definition order and the last one audits every derivation the
earlier ones registered, so run the module as a whole.
"""

import math
import time
from pathlib import Path

from harness import (
    distinct_nodes,
    evaluate_case,
    gen_ccr_env,
    naive_p_examples,
    negative_corpus,
    subject_reduction_fuzz,
)
from pedacc import (
    PROP,
    TYPE,
    App,
    Bound,
    Checker,
    Derivation,
    Diagnostic,
    Environment,
    Free,
    SystemMode,
    check_type,
    check_wf,
    infer_type,
    motivate_env,
    normalize,
    relabel_restricted_products,
    usefulness_argument,
    verify_derivation,
    verify_derivations,
)
from pedacc.cli import main as cli_main
from pedacc.kernel import HasType
from pedacc.prelude import numeral, to_natural, top_type
from pedacc.surface import render_diagnostic, render_term
from pedacc.terms import is_closed, subst_simultaneous
from reference_prelude import (
    NAT,
    Arrow,
    apps,
    dec,
    decode,
    enc,
    factorial,
    id_term,
    iterate,
    pair,
    plus,
    pred,
    prelude_corpus,
    proj1,
    proj2,
    rec,
    times,
)
from reference_render import render_term as reference_render_term

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden"
DEMOS = ROOT.parent / "demos"

SIMPLE_TYPES = [
    NAT,
    Arrow(NAT, NAT),
    Arrow(NAT, Arrow(NAT, NAT)),
    Arrow(Arrow(NAT, NAT), NAT),
]

# Derivations accumulated by the earlier tests; the final invariant audit
# walks every distinct node exactly once.
_DERIVATIONS: list[Derivation] = []


def test_criterion_1_golden_rule_sequence(capsys, oracle):
    t0 = time.perf_counter()
    rc = cli_main(["check", str(DEMOS / "prelude.ped"), "--system", "ccr"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    golden = (GOLDEN / "criterion1_rules.txt").read_text()
    assert out.strip("\n").splitlines() == golden.strip("\n").splitlines()
    assert elapsed < 1.0

    # same judgment rebuilt in-process so the final audit sees it
    d = check_type(Environment(), id_term, top_type, SystemMode.CCR, oracle)
    assert isinstance(d, Derivation) and verify_derivation(d) == []
    _DERIVATIONS.append(d)
    print(f"PASS criterion 1: golden 8-rule sequence reproduced in {elapsed:.3f}s")


def test_criterion_2_poincare_sweep(oracle):
    t0 = time.perf_counter()
    recheck = Checker(SystemMode.CCR, oracle)
    failures: list[str] = []
    for seed in range(500):
        env, wf = gen_ccr_env(seed, 5)
        # containment: the full calculus accepts the environment, and the
        # derivation relabeled into it passes the auditor
        back = check_wf(env, SystemMode.CC, oracle)
        if isinstance(back, Diagnostic):
            failures.append(f"seed {seed}: cc re-check: {back.message}")
        problems = verify_derivation(relabel_restricted_products(wf))
        if problems:
            failures.append(f"seed {seed}: relabeled derivation: {problems[0]}")
        got = motivate_env(env, oracle)
        if isinstance(got, Diagnostic):
            failures.append(f"seed {seed}: {got.message}")
            continue
        _DERIVATIONS.append(wf)
        done = []
        for entry, mot in zip(env, got):
            name, witness = entry.name, mot.conclusion.subject
            if not is_closed(witness):
                failures.append(f"seed {seed}: witness for {name} is open")
            chk = recheck.check(
                Environment(), witness, subst_simultaneous(entry.ty, done))
            if isinstance(chk, Diagnostic):
                failures.append(
                    f"seed {seed}: {name} fails the empty-environment recheck")
            else:
                _DERIVATIONS.append(chk)
            done.append((name, witness))
    elapsed = time.perf_counter() - t0
    assert not failures, failures[:5]
    assert elapsed < 120.0
    print(f"PASS criterion 2: 500 environments motivated, all witnesses "
          f"closed and rechecked, all contained in the full calculus, "
          f"in {elapsed:.1f}s")


def test_criterion_3_usefulness_corpus(oracle):
    corpus = prelude_corpus()
    assert len(corpus) == 20
    failures: list[str] = []
    for name, term in corpus:
        res = infer_type(Environment(), term, SystemMode.CCR, oracle)
        if isinstance(res, Diagnostic):
            failures.append(f"{name}: does not type ({res.message})")
            continue
        arg = usefulness_argument(res, oracle)
        if isinstance(arg, Diagnostic):
            failures.append(f"{name}: no argument found ({arg.message})")
            continue
        _DERIVATIONS.append(res)
        _DERIVATIONS.append(arg)
    assert not failures, failures
    print("PASS criterion 3: usefulness argument found for all 20 corpus functions")


def test_criterion_4_reduction_laws():
    # base, step and u stay free so each equation is checked as a schema,
    # not at one particular instance
    base, step, u = Free("base"), Free("step"), Free("u")
    checked = 0
    for t in SIMPLE_TYPES:
        d = decode(t)

        # iterator: zero case, then one unfolding per successor
        assert normalize(iterate(d, numeral(0), base, App(step, Bound(0)))) == base
        checked += 1
        for n in range(6):
            lhs = normalize(iterate(d, numeral(n + 1), base, App(step, Bound(0))))
            rhs = normalize(App(step, iterate(d, numeral(n), base, App(step, Bound(0)))))
            assert lhs == rhs, (t, n)
            checked += 1

        # pair projections
        for n in range(7):
            c = pair(t, numeral(n), u)
            assert normalize(proj1(t, c)) == numeral(n), (t, n)
            assert normalize(proj2(t, c)) == u, (t, n)
            checked += 2

        # recursor: zero case, then the step sees the counter
        sb = apps(step, Bound(1), Bound(0))
        assert normalize(rec(t, numeral(0), base, sb)) == base
        checked += 1
        for n in range(6):
            lhs = normalize(rec(t, numeral(n + 1), base, sb))
            rhs = normalize(apps(step, numeral(n), rec(t, numeral(n), base, sb)))
            assert lhs == rhs, (t, n)
            checked += 1

        # decoding inverts encoding on numerals
        for n in range(7):
            assert normalize(App(dec(t), App(enc(t), numeral(n)))) == numeral(n), (t, n)
            checked += 1
    print(f"PASS criterion 4: {checked} law instances normalized identically "
          f"across {len(SIMPLE_TYPES)} simple types")


def test_criterion_5_arithmetic_oracle():
    t0 = time.perf_counter()
    for a in range(7):
        for b in range(7):
            s = normalize(apps(plus, numeral(a), numeral(b)))
            assert s == numeral(a + b) and to_natural(s) == a + b
            p = normalize(apps(times, numeral(a), numeral(b)))
            assert p == numeral(a * b) and to_natural(p) == a * b
    for a in range(7):
        q = normalize(App(pred, numeral(a)))
        assert q == numeral(max(a - 1, 0)) and to_natural(q) == max(a - 1, 0)
    for a in range(6):
        f = normalize(App(factorial, numeral(a)))
        assert f == numeral(math.factorial(a)) and to_natural(f) == math.factorial(a)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 5: plus/times/pred/factorial match machine "
          f"arithmetic on all inputs in {elapsed:.1f}s")


def test_criterion_6_negative_corpus(oracle):
    cases = negative_corpus()
    for case in cases:
        assert evaluate_case(case) == case.expected, case.label

    blocks = []
    for case in cases:
        if case.mode is not SystemMode.CCR:
            continue
        if isinstance(case.payload, Environment):
            got = check_wf(case.payload, SystemMode.CCR, oracle)
        else:
            j = case.payload
            got = check_type(j.env, j.subject, j.ty, SystemMode.CCR, oracle)
        assert isinstance(got, Diagnostic), case.label
        blocks.append(f"== {case.label}\n{render_diagnostic(got)}")
    golden = (GOLDEN / "criterion6_diagnostics.txt").read_text()
    assert "\n".join(blocks).rstrip("\n") == golden.rstrip("\n")

    # the full calculus accepts the same formations
    for case in cases:
        if case.mode is not SystemMode.CC:
            continue
        if isinstance(case.payload, Environment):
            d = check_wf(case.payload, SystemMode.CC, oracle)
        else:
            j = case.payload
            d = check_type(j.env, j.subject, j.ty, SystemMode.CC, oracle)
        assert isinstance(d, Derivation), case.label
        _DERIVATIONS.append(d)
    print("PASS criterion 6: restricted rejections match the golden "
          "diagnostics; the full calculus accepts all three")


def test_criterion_7_naive_judgments(oracle):
    for i, (j, sigma) in enumerate(naive_p_examples()):
        got = check_type(j.env, j.subject, j.ty, SystemMode.NAIVE, oracle,
                         motivation=sigma)
        assert isinstance(got, Derivation), f"example {i} rejected by the naive system"
        assert verify_derivation(got) == []
        _DERIVATIONS.append(got)
        cc = check_type(j.env, j.subject, j.ty, SystemMode.CC, oracle)
        assert isinstance(cc, Diagnostic), f"example {i} accepted by the full calculus"
    print("PASS criterion 7: all three naive judgments accepted with their "
          "motivations and rejected by the full calculus")


def test_criterion_8_subject_reduction():
    t0 = time.perf_counter()
    report = subject_reduction_fuzz(1000, keep=_DERIVATIONS)
    elapsed = time.perf_counter() - t0
    assert report.cases == 1000
    assert report.ok, report.failures[:5]
    print(f"PASS criterion 8: {report.reducts_checked} one-step reducts "
          f"rechecked over 1000 cases per mode, 0 failures, in {elapsed:.1f}s")


def _mentions_top_sort(t, clean: set) -> bool:
    """Whether the top sort occurs in `t`.  `clean` holds terms known not
    to mention it, and takes in every subterm of a `t` that does not:
    terms are shared, so each is walked once across calls."""
    from pedacc.terms import Abs, Prod

    stack, seen = [t], set()
    while stack:
        u = stack.pop()
        if u in clean or u in seen:
            continue
        if u == TYPE:
            return True
        seen.add(u)
        if isinstance(u, App):
            stack.append(u.fun)
            stack.append(u.arg)
        elif isinstance(u, (Abs, Prod)):
            stack.append(u.domain)
            stack.append(u.body)
    clean |= seen
    return False


def test_criterion_9_kernel_invariants(oracle):
    """Two structural invariants over every derivation the earlier tests
    produced: the top sort never occurs inside an environment or a checked
    subject, and every assigned type is the top sort or itself well-sorted.

    Naive-mode nodes are skipped: that system exists to accept judgments
    (environments mentioning the top sort among them) that the invariants
    rule out of the full and restricted calculi.  Its embedded cascade
    subderivations run in full-calculus mode and are audited.
    """
    assert _DERIVATIONS, "the earlier tests feed this audit; run the whole module"
    checkers: dict[SystemMode, Checker] = {}
    sorted_cache: dict = {}
    clean: set = set()

    def type_is_sorted(mode, env, ty) -> bool:
        key = (mode, env, ty)  # an Environment caches its hash
        hit = sorted_cache.get(key)
        if hit is None:
            checker = checkers.setdefault(mode, Checker(mode, oracle))
            res = checker.infer(env, ty)
            hit = not isinstance(res, Diagnostic) and res.conclusion.ty in (PROP, TYPE)
            sorted_cache[key] = hit
        return hit

    total = audited = 0
    violations: list[str] = []
    for node in distinct_nodes(_DERIVATIONS):
        total += 1
        if node.mode is SystemMode.NAIVE:
            continue
        audited += 1
        c = node.conclusion
        for entry in c.env:
            if _mentions_top_sort(entry.ty, clean):
                violations.append(
                    f"{node.rule}: top sort inside environment entry {entry.name}")
        if isinstance(c, HasType):
            if _mentions_top_sort(c.subject, clean):
                violations.append(f"{node.rule}: top sort inside a subject")
            if c.ty != TYPE and not type_is_sorted(node.mode, c.env, c.ty):
                violations.append(
                    f"{node.rule}: type neither the top sort nor well-sorted")
    assert not violations, violations[:5]
    # the auditor, which also holds every node to its root's mode
    problems = verify_derivations(_DERIVATIONS)
    assert not problems, problems[:5]
    print(f"PASS criterion 9: {audited} of {total} distinct derivation nodes "
          f"audited, 0 invariant violations; {len(_DERIVATIONS)} derivations "
          f"pass the auditor")


def test_memoized_rendering_matches_the_reference():
    """Every term of every derivation the earlier tests registered prints,
    through one memo for them all, as the plain recursive printer prints
    it."""
    assert _DERIVATIONS, "the earlier tests feed this check; run the whole module"
    terms: dict = {}  # insertion-ordered, so the run is the same each time
    for node in distinct_nodes(_DERIVATIONS):
        c = node.conclusion
        for entry in c.env:
            terms[entry.ty] = None
        if isinstance(c, HasType):
            terms[c.subject] = terms[c.ty] = None
        if node.rule == "prod_r":
            terms[node.premises[0].conclusion.subject] = None
    memo: dict = {}
    wrong = [t for t in terms if render_term(t, memo) != reference_render_term(t)]
    assert not wrong, wrong[:3]
    print(f"PASS memoized rendering: {len(terms)} distinct terms print as the "
          f"reference printer prints them")

"""Fixtures, generators, and differential suites over the three systems.

Generation works derivation-first: environments are grown by rules that
are valid in the restricted calculus by construction (each new product
type comes packaged with an inhabitant for its body), so the checker is
an after-the-fact validator rather than a rejection filter.  Negative
verdicts are always a checker rejection, whose message says whether the
two-valued model refuted the missing witness or the search ran out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .inhabit import (
    check_poincare,
    inhabit_search,
    make_search_oracle,
    motivate_env,
)
from .kernel import (
    Checker,
    Derivation,
    Diagnostic,
    HasType,
    Judgment,
    Motivation,
    SystemMode,
    check_motivated_env,
    check_type,
    check_wf,
    infer_type,
    naive_p_examples,
    relabel_restricted_products,
    verify_derivation,
)
from .prelude import (
    NAT,
    Arrow,
    SimpleType,
    bot_type,
    decode,
    id_term,
    leibniz_eq,
    nat_type,
    numeral,
    plus,
    pred,
    refl_term,
    succ,
    times,
    top_type,
)
from .reduction import DEFAULT_FUEL, convertible
from .terms import (
    Abs,
    App,
    Bound,
    Environment,
    EnvEntry,
    Free,
    PROP,
    Prod,
    Term,
    apps,
    arrow,
    env_of,
    is_closed,
    lift,
    subst,
)


@dataclass(frozen=True)
class GeneratedCase:
    """One test case: an environment or judgment, the mode to run it in,
    and the verdict the run should produce.  Regenerable from its seed."""
    seed: int
    payload: Environment | Judgment
    mode: SystemMode
    expected: str                       # "accept" | "reject"
    motivation: Motivation | None = None
    label: str = ""


# ---------------------------------------------------------------------------
# environment generation


def gen_ccr_env(seed: int, max_depth: int) -> tuple[Environment, Derivation]:
    """A random environment well-formed in the restricted system, with its
    derivation.

    Every entry type is either a sort, a proposition already in scope, or
    a (possibly iterated) arrow into a proposition whose inhabitant is
    known; arrow entries carry that inhabitant as a witness annotation.
    Depth 0 yields the empty environment.
    """
    rng = random.Random(seed)
    n = rng.randint(0, max_depth)

    entries: list[EnvEntry] = []
    props: list[Term] = [top_type]          # prop-sorted terms in scope
    inhabited: dict[Term, Term] = {top_type: id_term}

    for i in range(n):
        name = f"x{i}"
        kind = rng.choices(("sort", "hyp", "arrow"), weights=(3, 3, 4))[0]
        if kind == "sort":
            entries.append(EnvEntry(name, PROP))
            props.append(Free(name))
            continue
        if kind == "hyp":
            ty = rng.choice(props)
            entries.append(EnvEntry(name, ty, inhabited.get(ty)))
            inhabited[ty] = Free(name)
            continue
        # arrow: dom1 -> ... -> domk -> cod, cod known inhabited
        k = rng.randint(1, max(1, max_depth - 1))
        doms = [rng.choice(props) for _ in range(k)]
        cod = rng.choice(list(inhabited))
        ty = cod
        witness = inhabited[cod]
        for dom in reversed(doms):
            ty = arrow(dom, ty)
            witness = Abs(dom, lift(witness, 0, 1))
        entries.append(EnvEntry(name, ty, witness))
        props.append(ty)
        inhabited[ty] = Free(name)

    env = Environment(tuple(entries))
    d = check_wf(env, SystemMode.CCR, make_search_oracle())
    if isinstance(d, Diagnostic):
        raise AssertionError(
            f"generated environment failed its own mode (seed {seed}): {d.message}")
    return env, d


# ---------------------------------------------------------------------------
# typed-term generation

_NN = Arrow(NAT, NAT)
_NNN = Arrow(NAT, _NN)


def gen_typed_term(seed: int, size: int = 4) -> tuple[Term, Term]:
    """A closed term typable in both full and restricted modes, with its
    type.  Built by composing library arithmetic with deliberate beta
    redexes, so most outputs are reducible."""
    rng = random.Random(seed)
    pool: dict[SimpleType, list[Term]] = {
        NAT: [numeral(rng.randint(0, 4)) for _ in range(2)],
        _NN: [succ, pred, App(plus, numeral(rng.randint(0, 3))),
              Abs(nat_type, Bound(0))],
        _NNN: [plus, times],
    }

    def pick(ty: SimpleType) -> Term:
        return rng.choice(pool[ty])

    for _ in range(size):
        op = rng.choices(("apply", "redex", "wrap"), weights=(4, 3, 2))[0]
        if op == "apply":
            fty = rng.choice((_NN, _NNN))
            f, a = pick(fty), pick(NAT)
            pool[fty.codomain].append(App(f, a))
        elif op == "redex":
            tty = rng.choice((NAT, _NN))
            t = pick(tty)
            uty = rng.choice((NAT, _NN))
            u = pick(uty)
            pool[tty].append(App(Abs(decode(uty), lift(t, 0, 1)), u))
        else:
            f = pick(_NN)
            pool[_NN].append(Abs(nat_type, App(lift(f, 0, 1), Bound(0))))
    ty = rng.choice((NAT, _NN, _NNN))
    return pick(ty), decode(ty)


# ---------------------------------------------------------------------------
# negative fixtures


def _leibniz_env() -> Environment:
    return env_of(
        ("A", PROP),
        ("x", Free("A")),
        ("y", Free("A")),
        ("h", leibniz_eq(Free("A"), Free("x"), Free("y"))),
    )


def _leibniz_motivation() -> Motivation:
    return Motivation((
        ("A", nat_type),
        ("x", numeral(0)),
        ("y", numeral(0)),
        ("h", refl_term(nat_type, numeral(0))),
    ))


def _composition_judgment() -> Judgment:
    env = env_of(("A", PROP), ("B", PROP), ("C", PROP))
    a, b, c = Free("A"), Free("B"), Free("C")
    goal = arrow(arrow(a, b), arrow(arrow(b, c), arrow(a, c)))
    return HasType(env, goal, PROP)


def negative_corpus() -> list[GeneratedCase]:
    """Fixtures the restricted system must reject while the full one
    accepts: an equation hypothesis, the composition principle, and an
    absurd hypothesis."""
    leib = _leibniz_env()
    comp = _composition_judgment()
    bot_env = env_of(("h", bot_type))
    cases = [
        GeneratedCase(101, leib, SystemMode.CCR, "reject",
                      _leibniz_motivation(), "leibniz-hypothesis"),
        GeneratedCase(101, leib, SystemMode.CC, "accept",
                      _leibniz_motivation(), "leibniz-hypothesis"),
        GeneratedCase(102, comp, SystemMode.CCR, "reject", None, "composition-goal"),
        GeneratedCase(102, comp, SystemMode.CC, "accept", None, "composition-goal"),
        GeneratedCase(103, bot_env, SystemMode.CCR, "reject", None, "absurd-hypothesis"),
        GeneratedCase(103, bot_env, SystemMode.CC, "accept", None, "absurd-hypothesis"),
    ]
    return cases


def evaluate_case(case: GeneratedCase,
                  depth: int = 8, fuel: int = DEFAULT_FUEL) -> str:
    """Run one case in its mode and report \"accept\" or \"reject\"."""
    oracle = make_search_oracle(depth, fuel)
    if isinstance(case.payload, Environment):
        if case.mode is SystemMode.NAIVE:
            if case.motivation is None:
                return "reject"
            got = check_motivated_env(case.payload, case.motivation,
                                      SystemMode.NAIVE, oracle, fuel)
            return "reject" if isinstance(got, Diagnostic) else "accept"
        got = check_wf(case.payload, case.mode, oracle, fuel)
        return "reject" if isinstance(got, Diagnostic) else "accept"
    j = case.payload
    got = check_type(j.env, j.subject, j.ty, case.mode, oracle, fuel,
                     motivation=case.motivation)
    return "reject" if isinstance(got, Diagnostic) else "accept"


# ---------------------------------------------------------------------------
# differential reports


@dataclass(frozen=True)
class DifferentialReport:
    label: str
    cc: str                              # verdicts: "accept" | "reject"
    ccr: str
    naive: str | None                    # None when no motivation to try
    motivatable: bool
    poincare_holds: bool                 # ccr accept -> motivatable
    converse_holds: bool                 # motivatable & cc accept -> ccr accept
    expected_converse_failure: bool


def differential(case: GeneratedCase,
                 depth: int = 8, fuel: int = DEFAULT_FUEL) -> DifferentialReport:
    """Verdicts for one environment (or judgment) under all three systems,
    plus how the motivation biconditional fares on it.

    The restricted direction (acceptance implies a motivation cascade
    exists) is executed by actually constructing the cascade.  The
    converse can fail; cases carrying a known counterexample motivation
    are flagged as expected failures rather than errors.
    """
    oracle = make_search_oracle(depth, fuel)
    env = (case.payload if isinstance(case.payload, Environment)
           else case.payload.env)
    label = case.label or f"seed-{case.seed}"

    cc = "reject" if isinstance(check_wf(env, SystemMode.CC, oracle, fuel),
                                Diagnostic) else "accept"
    ccr_wf = check_wf(env, SystemMode.CCR, oracle, fuel)
    ccr = "reject" if isinstance(ccr_wf, Diagnostic) else "accept"

    motivatable = False
    if ccr == "accept":
        mr = motivate_env(ccr_wf, oracle, fuel)
        motivatable = not isinstance(mr, Diagnostic)
    if not motivatable and case.motivation is not None:
        motivatable = check_poincare(env, case.motivation, fuel)

    naive = None
    if case.motivation is not None:
        got = check_motivated_env(env, case.motivation, SystemMode.NAIVE,
                                  oracle, fuel)
        naive = "reject" if isinstance(got, Diagnostic) else "accept"

    poincare = (ccr != "accept") or motivatable
    converse = not (motivatable and cc == "accept") or ccr == "accept"
    expected_failure = case.label == "leibniz-hypothesis" and not converse
    return DifferentialReport(label, cc, ccr, naive, motivatable,
                              poincare, converse, expected_failure)


# ---------------------------------------------------------------------------
# subject reduction


@dataclass
class SubjectReductionReport:
    cases: int
    reducts_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def subject_reduction_fuzz(n_cases: int, seed: int = 0,
                           modes: tuple[SystemMode, ...] = (SystemMode.CC,
                                                            SystemMode.CCR),
                           fuel: int = DEFAULT_FUEL,
                           keep: list[Derivation] | None = None,
                           ) -> SubjectReductionReport:
    """Generate typed terms and check every one-step reduct at the
    original type.  Failures are collected in the report, never raised.

    Pass a list as `keep` to also collect every derivation built along
    the way (the invariant audits re-walk them).
    """
    oracle = make_search_oracle()
    # One checker per mode so the memo survives across cases; the generated
    # terms draw from a small pool of combinators and share most subterms.
    checkers = {mode: Checker(mode, oracle, fuel) for mode in modes}
    report = SubjectReductionReport(0, 0)
    for i in range(n_cases):
        term, ty = gen_typed_term(seed + i)
        report.cases += 1
        for mode in modes:
            checker = checkers[mode]
            res = checker.infer(Environment(), term)
            if isinstance(res, Diagnostic):
                report.failures.append(
                    f"seed {seed + i} [{mode.value}]: original failed: {res.message}")
                continue
            inferred, d = res
            if keep is not None:
                keep.append(d)
            if not convertible(inferred, ty, fuel):
                report.failures.append(
                    f"seed {seed + i} [{mode.value}]: type drifted from the label")
                continue
            for reduct in one_step_reducts(term):
                report.reducts_checked += 1
                chk = checker.check(Environment(), reduct, inferred)
                if isinstance(chk, Diagnostic):
                    report.failures.append(
                        f"seed {seed + i} [{mode.value}]: reduct lost the type: "
                        f"{chk.message}")
                elif keep is not None:
                    keep.append(chk)
    return report


def one_step_reducts(t: Term) -> list[Term]:
    """All terms reachable by contracting exactly one redex of `t`."""
    out: list[Term] = []
    match t:
        case App(f, a):
            if isinstance(f, Abs):
                out.append(subst(f.body, 0, a))
            out.extend(App(f2, a) for f2 in one_step_reducts(f))
            out.extend(App(f, a2) for a2 in one_step_reducts(a))
        case Abs(d, b):
            out.extend(Abs(d2, b) for d2 in one_step_reducts(d))
            out.extend(Abs(d, b2) for b2 in one_step_reducts(b))
        case Prod(d, b):
            out.extend(Prod(d2, b) for d2 in one_step_reducts(d))
            out.extend(Prod(d, b2) for b2 in one_step_reducts(b))
    return out


# ---------------------------------------------------------------------------
# the selftest driver


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_selftest(n_cases: int = 50, seed: int = 0,
                 fuel: int = DEFAULT_FUEL) -> list[SuiteResult]:
    """All suites at a configurable size.  The acceptance-scale run uses
    500 environments and 1000 reduction cases; the default is sized for
    an interactive check."""
    oracle = make_search_oracle()
    results: list[SuiteResult] = []

    poincare = SuiteResult("poincare", 0)
    containment = SuiteResult("containment", 0)
    for i in range(n_cases):
        env, d = gen_ccr_env(seed + i, 5)
        poincare.cases += 1
        mr = motivate_env(d, oracle, fuel)
        if isinstance(mr, Diagnostic):
            poincare.failures.append(f"seed {seed + i}: {mr.message}")
        else:
            for (name, t), dv in zip(mr.motivation.assignments, mr.derivations):
                if not is_closed(t):
                    poincare.failures.append(f"seed {seed + i}: open witness {name}")
                if len(dv.conclusion.env) != 0:
                    poincare.failures.append(
                        f"seed {seed + i}: witness {name} checked in non-empty env")
        containment.cases += 1
        back = check_wf(env, SystemMode.CC, oracle, fuel)
        if isinstance(back, Diagnostic):
            containment.failures.append(f"seed {seed + i}: CC re-check: {back.message}")
        relabeled = relabel_restricted_products(d)
        problems = verify_derivation(relabeled, fuel)
        if problems:
            containment.failures.append(
                f"seed {seed + i}: relabeled derivation: {problems[0]}")
    results += [poincare, containment]

    negative = SuiteResult("negative", 0)
    for case in negative_corpus():
        negative.cases += 1
        got = evaluate_case(case)
        if got != case.expected:
            negative.failures.append(
                f"{case.label} [{case.mode.value}]: wanted {case.expected}, got {got}")
    negative.cases += 1
    if inhabit_search(Environment(), bot_type, depth=12) is not None:
        negative.failures.append("search produced a term of the absurd type")
    results.append(negative)

    naive = SuiteResult("naive", 0)
    for idx, (judgment, sigma) in enumerate(naive_p_examples()):
        naive.cases += 1
        got = check_type(judgment.env, judgment.subject, judgment.ty,
                         SystemMode.NAIVE, oracle, fuel, motivation=sigma)
        if isinstance(got, Diagnostic):
            naive.failures.append(f"example {idx}: naive mode rejected: {got.message}")
        full = check_wf(judgment.env, SystemMode.CC, oracle, fuel)
        if not isinstance(full, Diagnostic):
            naive.failures.append(f"example {idx}: full calculus accepted the env")
    results.append(naive)

    sr = subject_reduction_fuzz(n_cases, seed, fuel=fuel)
    srr = SuiteResult("subject-reduction", sr.cases, sr.failures)
    results.append(srr)

    diff = SuiteResult("differential", 0)
    for i in range(min(n_cases, 20)):
        env, _ = gen_ccr_env(seed + i, 5)
        case = GeneratedCase(seed + i, env, SystemMode.CCR, "accept")
        diff.cases += 1
        rep = differential(case)
        if rep.ccr != "accept" or not rep.poincare_holds:
            diff.failures.append(f"seed {seed + i}: generated env fell out of the "
                                 f"restricted system")
    leib = differential(negative_corpus()[0])
    diff.cases += 1
    if not (leib.cc == "accept" and leib.ccr == "reject" and leib.motivatable
            and leib.expected_converse_failure):
        diff.failures.append("equation hypothesis: converse analysis went wrong")
    results.append(diff)
    return results


def render_selftest(results: list[SuiteResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'suite':<{width}}  cases  failures  status"]
    for r in results:
        status = "ok" if r.ok else "FAIL"
        lines.append(f"{r.name:<{width}}  {r.cases:>5}  {len(r.failures):>8}  {status}")
    for r in results:
        for f in r.failures[:10]:
            lines.append(f"  {r.name}: {f}")
    return "\n".join(lines)

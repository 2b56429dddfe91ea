"""Fixtures, generators, and differential suites over the three systems,
for the tests.

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
from typing import Iterator

from pedacc.inhabit import make_search_oracle, motivate_env
from pedacc.kernel import (
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
    iter_nodes,
)
from pedacc.prelude import numeral, top_type
from pedacc.reduction import DEFAULT_FUEL, convertible
from pedacc.terms import (
    Abs,
    App,
    Bound,
    Environment,
    EnvEntry,
    Free,
    PROP,
    Prod,
    TYPE,
    Term,
    lift,
    subst,
)
from reference_prelude import (
    NAT,
    Arrow,
    SimpleType,
    arrow,
    bot_type,
    decode,
    id_term,
    leibniz_eq,
    nat_type,
    plus,
    pred,
    refl_term,
    succ,
    times,
)


# the demos/ files and systems in which `check` rejects (exit 1); it
# accepts every other demo in every system
DEMO_REJECTS = frozenset({
    ("motivate.ped", "naivep"), ("naive.ped", "cc"), ("naive.ped", "ccr"),
})

# a variable, an application and both, each of a type that normalizes to a
# product, and a redex whose type does: sources that every system checks
NORMALIZED_PRODUCTS = {
    "app.ped": "assume A : Prop\nassume a : A\n"
               "assume g : A -> (fun T : Prop => T -> T) A\ncheck g a\n",
    "var.ped": "assume A : Prop\nassume f : (fun T : Prop => T -> T) A\ncheck f\n",
    "var-app.ped": "assume A : Prop\nassume a : A\n"
                   "assume f : (fun T : Prop => T -> T) A\ncheck f a\n",
    "redex.ped": "assume A : Prop\nassume b : A\n"
                 "check (fun T : Prop => fun y : T => b) ((fun S : Prop => S) A)\n",
}


def env_of(*pairs: tuple[str, Term]) -> Environment:
    """The environment of these (name, type) hypotheses, oldest first."""
    return Environment(EnvEntry(n, t) for n, t in pairs)


def distinct_nodes(roots) -> Iterator[Derivation]:
    """Each node reachable from the derivations `roots` once, after its
    premises: `iter_nodes` of each root in turn, not going under a node
    that an earlier root reached."""
    seen: set[int] = set()
    for root in roots:
        if id(root) in seen:
            continue
        for node in iter_nodes(root, lambda n: (p for p in n.premises if id(p) not in seen)):
            seen.add(id(node))
            yield node


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
        mr = motivate_env(env, oracle, fuel)
        motivatable = not isinstance(mr, Diagnostic)
    if not motivatable and case.motivation is not None:
        motivatable = not isinstance(
            check_motivated_env(env, case.motivation, SystemMode.CC, fuel=fuel),
            Diagnostic)

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
            inferred, d = res.conclusion.ty, res
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


_LEAVES = (PROP, TYPE, Bound(0), Bound(1), Free("a"), Free("b"), Free("c"))


def random_term(rng: random.Random, size: int, leaves: tuple = _LEAVES) -> Term:
    """A term of `size` leaves drawn from `leaves` (by default over the
    names a, b, c, with bound indices that may dangle), joined by
    applications and binders at random, so it may hold redexes."""
    if size <= 1:
        return rng.choice(leaves)
    left = rng.randint(1, size - 1)
    kind = rng.choice([App, Abs, Prod])
    return kind(random_term(rng, left, leaves), random_term(rng, size - left, leaves))


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
# naive-system fixtures


def naive_p_examples() -> list[tuple[Judgment, Motivation]]:
    """Three judgments the naive system accepts (under the paired
    motivations) although the full calculus rejects their environments.

    Each is ``env |- Prop : Type``; the interest is in the environments,
    whose entry types range over a sort, a beta-redex over a provable
    hypothesis, and a redex over an equation on numbers.
    """
    env_a = Environment((EnvEntry("x1", TYPE),))
    sigma_a = Motivation((("x1", PROP),))

    dom_b = arrow(top_type, Free("x1"))        # with x1 := top this is provable
    ty_b = App(Abs(dom_b, top_type), Abs(top_type, Bound(0)))
    env_b = Environment((EnvEntry("x1", PROP), EnvEntry("x2", ty_b)))
    sigma_b = Motivation((("x1", top_type), ("x2", id_term)))

    eq_c = leibniz_eq(nat_type, Free("x1"), numeral(0))
    refl_zero = Abs(
        Prod(nat_type, PROP),
        Abs(App(Bound(0), numeral(0)), Bound(0)),
    )
    ty_c = App(Abs(eq_c, top_type), refl_zero)
    env_c = Environment((EnvEntry("x1", nat_type), EnvEntry("x2", ty_c)))
    sigma_c = Motivation((("x1", numeral(0)), ("x2", id_term)))

    return [
        (HasType(env_a, PROP, TYPE), sigma_a),
        (HasType(env_b, PROP, TYPE), sigma_b),
        (HasType(env_c, PROP, TYPE), sigma_c),
    ]

"""The two-valued model (`model.refute`) and the oracle order it enables:
soundness against checked witnesses, the negative fixtures, and the
oracle's answers against a plain full search."""

from __future__ import annotations

import pytest

from harness import env_of, gen_ccr_env, negative_corpus
from pedacc.inhabit import (
    DEFAULT_SEARCH_BUDGET,
    DEFAULT_SEARCH_DEPTH,
    PROBE_BUDGET,
    SearchOracle,
    _search,
    make_search_oracle,
    motivate_env,
)
from pedacc.kernel import (
    Checker,
    Derivation,
    Diagnostic,
    SystemMode,
    check_type,
    check_wf,
    infer_type,
    iter_nodes,
)
from pedacc.model import MAX_VALUATIONS, refute
from pedacc.prelude import top_type
from pedacc.reduction import DEFAULT_FUEL, normalize
from pedacc.terms import (
    PROP,
    Abs,
    App,
    Bound,
    Environment,
    Free,
    Prod,
    subst_simultaneous,
)
from reference_prelude import arrow, bot_type, prelude_corpus

CC = SystemMode.CC
CCR = SystemMode.CCR
FUEL = DEFAULT_FUEL
SEEDS = range(500)  # criterion 2's environments
# and more for the soundness sweep: checking derives each judgment in the
# shortest environment that binds it, so criterion 2's environments alone
# hold too few distinct witnessed goals
MORE_SEEDS = range(500, 1000)


def _refuted(env: Environment, goal) -> bool:
    return refute(env, goal, FUEL) is not None


def _witnessed_goals(d: Derivation):
    """(environment, body) of every restricted product formation in `d`:
    its witness premise is a checked inhabitant of that body."""
    for node in iter_nodes(d):
        if node.rule == "prod_r":
            pw = node.premises[0].conclusion
            yield pw.env, pw.ty


def _goals(env: Environment) -> list:
    """Entry types, each proposition variable, and arrows between the
    propositions in scope: hits and misses of the search alike."""
    props = [Free(e.name) for e in env if e.ty == PROP] + [top_type, bot_type]
    goals = [e.ty for e in env] + props
    goals += [arrow(a, b) for a in props for b in props if a != b]
    return goals


# ---------------------------------------------------------------------------
# the model on its own


def test_the_absurd_and_the_unproved_are_refuted():
    env = env_of(("A", PROP), ("B", PROP), ("x", Free("A")))
    assert refute(env, Free("B"), FUEL) == (("A", 1), ("B", 0))
    assert refute(Environment(), bot_type, FUEL) == ()
    assert not _refuted(env, Free("A"))
    assert not _refuted(env, top_type)
    assert not _refuted(env, PROP)  # a kind: always inhabited


def test_higher_kinds_are_function_tables():
    pp = arrow(PROP, PROP)
    # P A does not give P bot: P := identity, A := 1
    env = env_of(("P", pp), ("A", PROP), ("h", App(Free("P"), Free("A"))))
    got = refute(env, App(Free("P"), bot_type), FUEL)
    assert got is not None
    tables = dict(got)
    assert tables["A"] == 1 and tables["P"][1] == 1 and tables["P"][0] == 0
    # but forall A, P A does: h bot inhabits it
    env = env_of(("P", pp), ("h", Prod(PROP, App(Free("P"), Bound(0)))))
    assert not _refuted(env, App(Free("P"), bot_type))
    # a product over a kind is a minimum over its tables
    assert _refuted(Environment(), Prod(pp, App(Bound(0), top_type)))
    assert not _refuted(Environment(),
                        Prod(pp, arrow(App(Bound(0), top_type), App(Bound(0), top_type))))


def test_outside_the_fragment_there_is_no_answer():
    a = Free("A")
    # a kind over a proposition, which may be empty
    env = env_of(("A", PROP), ("P", arrow(a, PROP)), ("x", a))
    assert not _refuted(env, App(Free("P"), Free("x")))
    # an abstraction inside a type
    env = env_of(("F", arrow(arrow(PROP, PROP), PROP)),
                 ("h", App(Free("F"), Abs(PROP, Bound(0)))))
    assert not _refuted(env, App(Free("F"), Abs(PROP, bot_type)))
    # more valuations than the cap: A1 -> ... -> An -> A0 mentions all
    def implications(n):
        env = env_of(*[(f"A{i}", PROP) for i in range(n + 1)])
        goal = Free("A0")
        for i in range(n, 0, -1):
            goal = arrow(Free(f"A{i}"), goal)
        return env, goal

    assert _refuted(*implications(MAX_VALUATIONS.bit_length() - 2))
    assert not _refuted(*implications(MAX_VALUATIONS.bit_length() - 1))
    # nor more work than the cap, however few the variables: each nested
    # product over a kind visits all of its elements
    k = arrow(PROP, arrow(PROP, arrow(PROP, PROP)))  # 256 tables
    t3 = App(App(App(Bound(0), top_type), top_type), top_type)
    assert _refuted(Environment(), Prod(k, t3))
    tautology = Prod(PROP, arrow(Bound(0), Bound(0)))
    assert not _refuted(Environment(), Prod(k, Prod(k, Prod(k, tautology))))
    # running out of fuel is no answer either
    redex = App(Abs(PROP, Bound(0)), bot_type)
    assert refute(Environment(), redex, 0) is None
    assert _refuted(Environment(), redex)


# ---------------------------------------------------------------------------
# soundness: nothing a checked witness inhabits is refuted


def test_refute_never_refutes_a_checked_witness(oracle):
    checked: set = set()
    cc = Checker(CC)

    def holds(env, goal):
        if (env, goal) not in checked:
            checked.add((env, goal))
            assert refute(env, goal, FUEL) is None, (env, goal)

    for seed in (*SEEDS, *MORE_SEEDS):
        env, wf = gen_ccr_env(seed, 5)
        # witnesses of the restricted formations: by hints and search hits
        for goal_env, goal in _witnessed_goals(wf):
            holds(goal_env, goal)
        # the by hints themselves, and the search's own hits
        for i, entry in enumerate(env):
            prefix = Environment(env.entries[:i])
            if entry.witness is not None and isinstance(
                    cc.check(prefix, entry.witness, entry.ty), Derivation):
                holds(prefix, entry.ty)
        for goal in _goals(env):
            # every hit the full search makes on these goals comes within
            # the probe's budget, and a miss would cost the full budget
            found = _search(env, normalize(goal), DEFAULT_SEARCH_DEPTH, FUEL,
                            [PROBE_BUDGET])
            if found is not None and isinstance(cc.check(env, found, goal), Derivation):
                holds(env, goal)
        # the motivation cascade: closed witnesses of closed types
        got = motivate_env(env, oracle)
        assert not isinstance(got, Diagnostic)
        done = []
        for entry, d in zip(env, got):
            holds(Environment(), subst_simultaneous(entry.ty, done))
            done.append((entry.name, d.conclusion.subject))
        for d in got:
            for goal_env, goal in _witnessed_goals(d):
                holds(goal_env, goal)
    for _, term in prelude_corpus():
        d = infer_type(Environment(), term, CCR, oracle)
        holds(Environment(), d.conclusion.ty)
        for goal_env, goal in _witnessed_goals(d):
            holds(goal_env, goal)
    assert len(checked) > 5000


# ---------------------------------------------------------------------------
# the negative fixtures


class _RecordingOracle(SearchOracle):
    def __init__(self):
        super().__init__(DEFAULT_SEARCH_DEPTH, FUEL)
        self.misses = []

    def __call__(self, env, goal):
        found = super().__call__(env, goal)
        if found is None:
            self.misses.append((env, goal))
        return found


@pytest.mark.parametrize("label, refuted, reason", [
    ("composition-goal", True, "no witness exists (B := 0)"),
    ("absurd-hypothesis", True, "no witness exists (A := 0)"),
    # the model identifies the proofs x and y, so it cannot tell them apart
    ("leibniz-hypothesis", False, "no witness within search depth 8"),
])
def test_negative_fixtures(label, refuted, reason):
    case = next(c for c in negative_corpus()
                if c.label == label and c.mode is CCR)
    oracle = _RecordingOracle()
    if isinstance(case.payload, Environment):
        got = check_wf(case.payload, CCR, oracle)
    else:
        j = case.payload
        got = check_type(j.env, j.subject, j.ty, CCR, oracle)
    assert isinstance(got, Diagnostic) and got.rule == "prod_r"
    assert got.message == f"cannot form product: {reason}"
    env, goal = oracle.misses[-1]
    assert goal == got.expected
    assert _refuted(env, goal) is refuted


def test_a_countermodel_shows_only_the_variables_bound_up_with_the_goal():
    # R reaches the goal Q through g and h; S shares no hypothesis with it
    p, q, r, s = Free("P"), Free("Q"), Free("R"), Free("S")
    env = env_of(("P", PROP), ("Q", PROP), ("R", PROP), ("S", PROP),
                 ("s", s), ("g", arrow(r, p)), ("h", arrow(p, q)))
    assert refute(env, q, FUEL) == (("P", 0), ("Q", 0), ("R", 0), ("S", 1))
    assert (make_search_oracle().miss_reason(env, q)
            == "no witness exists (P := 0, Q := 0, R := 0)")


def test_a_miss_the_model_cannot_refute_says_what_bounded_the_search():
    # the search walks every tree of depth 2; at depth 8 three heads
    # A -> A make more than 4000 nodes.  The model cannot read P, a kind
    # over a proposition.
    a = Free("A")
    env = env_of(("A", PROP), ("B", PROP), ("P", arrow(a, PROP)),
                 ("f1", arrow(a, a)), ("f2", arrow(a, a)), ("f3", arrow(a, a)),
                 ("g", Prod(a, arrow(App(Free("P"), Bound(0)), Free("B")))))
    assert (make_search_oracle(2, FUEL).miss_reason(env, Free("B"))
            == "no witness within search depth 2")
    assert (make_search_oracle(8, FUEL).miss_reason(env, Free("B"))
            == f"search cut off after {DEFAULT_SEARCH_BUDGET} nodes (depth 8)")


def test_a_rejected_candidate_is_no_miss_of_the_search():
    class _Rejected(SearchOracle):
        def _answer(self, env, goal):
            return PROP, None, False  # not a proof of anything

    a = Free("A")
    env = env_of(("A", PROP), ("h", arrow(a, a)))
    oracle = _Rejected(DEFAULT_SEARCH_DEPTH, FUEL)
    got = check_wf(env, CCR, oracle)
    assert got.rule == "prod_r"
    assert got.message == "cannot form product: no witness inhabits the body"


def test_a_foreign_oracle_keeps_the_plain_message():
    env = env_of(("h", bot_type))
    got = check_wf(env, CCR, lambda env, goal: None)
    assert got.message == "cannot form product: no witness inhabits the body"


# ---------------------------------------------------------------------------
# the oracle order changes no answer


def test_many_products_over_kinds_leave_the_goal_to_the_search():
    # forall A1 ... A70 : Prop, A70 -> A70: the probe runs out, the model
    # would visit 2^70 valuations, and the full search finds the identity
    goal = Prod(Bound(0), Bound(1))
    for _ in range(70):
        goal = Prod(PROP, goal)
    want = _search(Environment(), normalize(goal), DEFAULT_SEARCH_DEPTH, FUEL,
                   [DEFAULT_SEARCH_BUDGET])
    assert want is not None
    assert make_search_oracle()(Environment(), goal) is want
    # deeper still, the model gives up rather than overflow the stack
    for _ in range(600):
        goal = Prod(PROP, goal)
    assert refute(Environment(), goal, FUEL) is None


def test_the_oracle_answers_like_the_full_search():
    refuted = 0
    for seed in range(50):
        env, _ = gen_ccr_env(seed, 6)
        oracle = make_search_oracle()
        for goal in _goals(env):
            want = _search(env, normalize(goal), DEFAULT_SEARCH_DEPTH, FUEL,
                           [DEFAULT_SEARCH_BUDGET])
            assert oracle(env, goal) is want, (seed, goal)
            if want is None and oracle.miss_reason(env, goal).startswith("no witness exists"):
                refuted += 1
    assert refuted > 100

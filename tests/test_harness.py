"""The test generators and fixtures of `harness.py`, and the differential
between the three systems on them."""

from __future__ import annotations

from harness import (
    GeneratedCase,
    differential,
    evaluate_case,
    gen_ccr_env,
    gen_typed_term,
    negative_corpus,
    subject_reduction_fuzz,
)
from pedacc.kernel import Derivation, SystemMode, check_wf, infer_type
from pedacc.reduction import normalize
from pedacc.terms import Environment


def test_env_generation_is_deterministic():
    a, _ = gen_ccr_env(42, 5)
    b, _ = gen_ccr_env(42, 5)
    assert a == b
    c, _ = gen_ccr_env(43, 5)
    assert a != c or len(a) == 0


def test_generated_envs_are_restricted_wellformed(oracle):
    for seed in range(25):
        env, d = gen_ccr_env(seed, 5)
        assert len(env) <= 5
        assert isinstance(d, Derivation)
        assert d.mode is SystemMode.CCR
        # regenerating the derivation from the env agrees
        again = check_wf(env, SystemMode.CCR, oracle)
        assert isinstance(again, Derivation)


def test_generated_terms_carry_their_type(oracle):
    for seed in range(30):
        term, ty = gen_typed_term(seed)
        inferred = infer_type(Environment(), term, SystemMode.CC).conclusion.ty
        assert normalize(inferred) == normalize(ty), seed


def test_negative_corpus_verdicts():
    cases = negative_corpus()
    assert len(cases) == 6
    labels = {c.label for c in cases}
    assert labels == {"leibniz-hypothesis", "composition-goal",
                      "absurd-hypothesis"}
    for case in cases:
        assert evaluate_case(case) == case.expected, case.label


def test_leibniz_differential_shows_the_converse_failing():
    case = next(c for c in negative_corpus()
                if c.label == "leibniz-hypothesis" and c.mode is SystemMode.CCR)
    report = differential(case)
    assert report.cc == "accept"
    assert report.ccr == "reject"
    assert report.naive == "accept"
    assert report.motivatable
    assert report.poincare_holds
    # motivatable and CC-well-formed, yet rejected: the converse fails
    assert not report.converse_holds
    assert report.expected_converse_failure


def test_generated_envs_pass_the_differential():
    # every generated environment stays in the restricted system, and its
    # acceptance there comes with a motivation
    for seed in range(20):
        env, _ = gen_ccr_env(seed, 5)
        report = differential(GeneratedCase(seed, env, SystemMode.CCR, "accept"))
        assert report.ccr == "accept", seed
        assert report.poincare_holds, seed


def test_subject_reduction_fuzz_small():
    keep: list = []
    report = subject_reduction_fuzz(25, seed=5, keep=keep)
    assert report.ok
    assert report.cases == 25
    assert report.reducts_checked > 0
    assert len(keep) >= report.cases
    assert all(isinstance(d, Derivation) for d in keep)

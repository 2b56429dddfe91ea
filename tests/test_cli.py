from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from harness import DEMO_REJECTS, NORMALIZED_PRODUCTS
from pedacc import cli
from pedacc.cli import main
from pedacc.kernel import (
    Diagnostic,
    Motivation,
    SystemMode,
    check_motivated_env,
    verify_derivation,
    write_certificate,
)
from pedacc.surface import CheckCmd, elaborate, parse, parse_term
from pedacc.terms import free_vars

DEMOS = Path(__file__).resolve().parent.parent / "demos"
PRELUDE = str(DEMOS / "prelude.ped")


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_prints_the_rule_lines(capsys):
    assert main(["check", PRELUDE, "--system", "ccr"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["env1", "wf", "[]"]
    assert out[-1].startswith("abs+prod_r")
    assert len(out) == 8


def test_check_cc_relabels_abstractions(capsys):
    assert main(["check", PRELUDE, "--system", "cc"]) == 0
    out = capsys.readouterr().out
    assert "abs+prod_r" not in out
    assert "abs " in out


def test_check_failure_exits_one(tmp_path, capsys):
    f = _write(tmp_path, "bad.ped", "assume h : bot")
    assert main(["check", f, "--system", "ccr"]) == 1
    err = capsys.readouterr().err
    assert "error[prod_r]" in err
    # the same file is fine in the unrestricted system
    assert main(["check", f, "--system", "cc"]) == 0


def test_parse_error_exits_two(tmp_path, capsys):
    f = _write(tmp_path, "syntax.ped", "def x :=")
    assert main(["check", f]) == 2
    assert "error[parse]" in capsys.readouterr().err


def test_unbound_name_exits_two(tmp_path, capsys):
    f = _write(tmp_path, "scope.ped", "check mystery")
    assert main(["check", f]) == 2
    assert "error[resolve]" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["enc", "P", "first", "second"])
def test_the_prelude_helpers_stay_unbound(name, tmp_path, capsys):
    f = _write(tmp_path, "helper.ped", f"check {name}")
    assert main(["check", f]) == 2
    assert capsys.readouterr().err == (
        f"pedacc: error[resolve]: unbound name {name!r} at line 1, column 1\n")


def test_importing_the_cli_builds_no_builtin():
    code = "import pedacc.cli, pedacc.surface as s; print(s._builtins.cache_info().currsize)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(DEMOS.parent / "src")}, check=True)
    assert run.stdout == "0\n"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S: a site hook may import typing itself
    code = ("import sys, pedacc.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(DEMOS.parent / "src")}, check=True)
    assert run.stdout == "[]\n"


def test_missing_file_exits_two(capsys):
    assert main(["check", "no/such/file.ped"]) == 2


def test_emit_derivation_json(tmp_path, capsys):
    out_path = tmp_path / "d.json"
    assert main(["check", PRELUDE, "--emit-derivation", str(out_path)]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert data["status"] == "ok"
    (tree,) = data["derivations"]
    assert tree["nodes"][tree["root"]]["rule"] == "abs"
    assert tree["nodes"][tree["root"]]["conclusion"]["type"] == \
        "forall A : Prop, A -> A"


def test_emit_diagnostic_json(tmp_path, capsys):
    src = _write(tmp_path, "bad.ped", "assume h : bot")
    out_path = tmp_path / "d.json"
    assert main(["check", src, "--system", "ccr",
                 "--emit-derivation", str(out_path)]) == 1
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert data["status"] == "error"
    assert data["diagnostic"]["rule"] == "prod_r"


def test_fuel_exhaustion_writes_a_diagnostic(tmp_path, capsys):
    src = _write(tmp_path, "redex.ped",
                 "assume A : Prop\nassume x : A\ncheck x : (fun B : Prop => B) A")
    out_path = tmp_path / "d.json"
    assert main(["check", src, "--fuel", "0",
                 "--emit-derivation", str(out_path)]) == 1
    assert "error[fuel]" in capsys.readouterr().err
    data = json.loads(out_path.read_text())
    assert data["status"] == "error"
    assert data["diagnostic"]["rule"] == "fuel"


def test_unwritable_certificate_path_exits_two(capsys):
    bad = "/nonexistent/dir/c.json"
    assert main(["check", PRELUDE, "--emit-derivation", bad]) == 2
    err = capsys.readouterr().err
    assert err == f"pedacc: cannot write {bad}: No such file or directory\n"


def test_source_that_is_not_utf8_exits_two(tmp_path, capsys):
    src = tmp_path / "junk.ped"
    src.write_bytes(b"\xff\xfe")
    assert main(["check", str(src)]) == 2
    assert capsys.readouterr().err == f"pedacc: cannot read {src}: not UTF-8 text\n"


def _assert_compact(text: str) -> None:
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"


@pytest.mark.parametrize("system", ["cc", "ccr", "naivep"])
@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.ped")))
def test_certificates_are_written_in_compact_json(tmp_path, capsys, demo, system):
    cert = tmp_path / "c.json"
    main(["check", str(DEMOS / demo), "--system", system,
          "--emit-derivation", str(cert)])
    capsys.readouterr()
    _assert_compact(cert.read_text(encoding="utf-8"))


@pytest.mark.parametrize("system", ["cc", "ccr", "naivep"])
@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.ped")))
def test_every_certified_derivation_passes_the_auditor(tmp_path, capsys,
                                                       monkeypatch, demo, system):
    made = []
    calls = []

    def recording(fh, result, render):
        if not isinstance(result, Diagnostic):
            made.extend(result)
        calls.append(result)
        write_certificate(fh, result, render)

    monkeypatch.setattr(cli, "write_certificate", recording)
    rc = main(["check", str(DEMOS / demo), "--system", system,
               "--emit-derivation", str(tmp_path / "c.json")])
    capsys.readouterr()
    # every run writes its certificate, or its diagnostic, through the writer
    assert rc == (1 if (demo, system) in DEMO_REJECTS else 0)
    assert len(calls) == 1
    assert isinstance(calls[0], Diagnostic) == (rc != 0)
    # a naivep file with no check line certifies its motivation cascade,
    # which is a cc derivation per assumption: none when nothing is
    # assumed; every other accepted run certifies at least one
    env, cmds = elaborate(parse((DEMOS / demo).read_text(encoding="utf-8")))
    want = system
    if system == "naivep" and not any(isinstance(c, CheckCmd) for c in cmds):
        want = "cc"
    assert bool(made) == (rc == 0 and (want == system or bool(env.entries)))
    for d in made:
        assert d.mode.value == want
        assert verify_derivation(d) == []


def row_digests(tree: dict) -> list[bytes]:
    """One digest per row of a derivation's node table, of the tree the
    row unfolds to: a row's digest covers its own fields and, in order,
    its premises' digests, so it does not depend on which equal subtrees
    the table shares."""
    digests: list[bytes] = []
    for node in tree["nodes"]:  # premises come before their users
        fields = {k: v for k, v in node.items() if k != "premises"}
        h = hashlib.sha256(json.dumps(fields, sort_keys=True).encode())
        for i in node["premises"]:
            h.update(digests[i])
        digests.append(h.digest())
    return digests


def tree_digests(cert: dict) -> list[str]:
    """One digest per derivation of a certificate, of the tree its root
    unfolds to.  An error certificate gives its diagnostic rule."""
    if cert["status"] != "ok":
        return [f"error {cert['diagnostic']['rule']}"]
    return [row_digests(tree)[tree["root"]].hex() for tree in cert["derivations"]]


TREES = Path(__file__).resolve().parent / "golden" / "demo_trees.txt"


def demo_tree_lines(tmp_path) -> list[str]:
    """`DEMO SYSTEM DIGEST...` for every demo checked in every system."""
    lines = []
    for demo in sorted(p.name for p in DEMOS.glob("*.ped")):
        for system in ("cc", "ccr", "naivep"):
            cert = tmp_path / "c.json"
            main(["check", str(DEMOS / demo), "--system", system,
                  "--emit-derivation", str(cert)])
            digests = tree_digests(json.loads(cert.read_text(encoding="utf-8")))
            lines.append(" ".join([demo, system, *digests]))
    return lines


def test_demo_certificates_unfold_to_the_golden_trees(tmp_path, capsys):
    # a change to how nodes are shared changes a certificate's table but
    # must not change the tree it unfolds to
    assert demo_tree_lines(tmp_path) == TREES.read_text(encoding="utf-8").splitlines()
    capsys.readouterr()


# a naive judgment whose cascades share an entry, so they share its rows
REFL_ZERO = ("check fun Q : nat -> Prop => fun h : Q zero => h"
             " : forall Q : nat -> Prop, Q zero -> Q zero\n")


@pytest.mark.parametrize("system", ["cc", "ccr", "naivep"])
@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.ped")) + ["refl_zero"])
def test_certificates_hold_each_context_and_variable_once(tmp_path, capsys,
                                                          demo, system):
    # one context per environment and one memo key per judgment, products
    # and sorts included: no two rows of a table unfold to the same tree
    cert = tmp_path / "c.json"
    source = DEMOS / demo
    if demo == "refl_zero":
        source = _write(tmp_path, "refl_zero.ped", REFL_ZERO)
    main(["check", str(source), "--system", system,
          "--emit-derivation", str(cert)])
    capsys.readouterr()
    for tree in json.loads(cert.read_text(encoding="utf-8")).get("derivations", []):
        digests = row_digests(tree)
        counts = Counter(digests)
        assert [node["rule"] for node, digest in zip(tree["nodes"], digests)
                if counts[digest] > 1] == []


@pytest.mark.parametrize("system", ["cc", "ccr", "naivep"])
@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.ped")))
def test_certificates_parse_back(tmp_path, capsys, demo, system):
    # every term of a certificate parses, under the names its environment
    # gives: a witness under its premise's, which opens the product's binder
    cert = tmp_path / "c.json"
    main(["check", str(DEMOS / demo), "--system", system,
          "--emit-derivation", str(cert)])
    capsys.readouterr()

    def free_names(text):
        t = parse_term(text)
        assert not isinstance(t, Diagnostic), (text, t)
        return free_vars(t)

    for tree in json.loads(cert.read_text(encoding="utf-8")).get("derivations", []):
        nodes = tree["nodes"]
        for node in nodes:
            c = node["conclusion"]
            names = [e["name"] for e in c["env"]]
            texts = [e["type"] for e in c["env"]] + [c.get("term"), c.get("type")]
            for text in filter(None, texts):
                assert free_names(text) <= set(names), text
            if "witness" in node:
                opened = nodes[node["premises"][0]]["conclusion"]["env"]
                assert free_names(node["witness"]) <= {e["name"] for e in opened}
            for m in node.get("motivation", []):
                assert free_names(m["term"]) == set()


# an environment whose motivation needs a witness for a binder's domain
# that the cascade, a cc derivation, never asks for
_MOTIVATED_IDENTITY = """\
assume f : (forall A : Prop, A) -> (forall A : Prop, A)
motivation f := fun x : (forall A : Prop, A) => x
"""


def test_a_naive_file_checks_its_motivation_alike_with_or_without_checks(tmp_path,
                                                                          capsys):
    alone = _write(tmp_path, "alone.ped", _MOTIVATED_IDENTITY)
    checked = _write(tmp_path, "checked.ped", _MOTIVATED_IDENTITY + "check f\n")
    verdicts = [main(["check", path, "--system", "naivep"]) for path in (alone, checked)]
    capsys.readouterr()
    assert verdicts == [0, 0]


# the last declaration fails, on a subterm under a binder that the
# declarations before it also check
_CHECKS_THEN_A_FAILURE = """\
assume A : Prop
assume a : A
motivation A := top
motivation a := id
check fun f : A -> A => f
check (fun y : A => y) a
check (fun f : A -> A => f) (fun y : A => a a)
"""


@pytest.mark.parametrize("system", ["cc", "ccr", "naivep"])
def test_a_failure_after_other_declarations_reads_as_if_alone(tmp_path, capsys, system):
    # What checking the earlier declarations leaves behind must not change
    # the failure a later one reports.
    lines = _CHECKS_THEN_A_FAILURE.splitlines()
    alone = [line for i, line in enumerate(lines) if i < 4 or i == len(lines) - 1]
    outs = []
    for text in (alone, lines):
        f = _write(tmp_path, "f.ped", "\n".join(text))
        cert = tmp_path / "c.json"
        rc = main(["check", f, "--system", system, "--emit-derivation", str(cert)])
        outs.append((rc, capsys.readouterr(), cert.read_text(encoding="utf-8")))
    assert outs[0] == outs[1]
    assert outs[1][0] == 1
    assert "application of a non-function at 1.1.0" in outs[1][1].err


def test_several_declarations_certify_the_trees_they_certify_alone(tmp_path, capsys):
    checks = ["check id : top", "check (fun B : Prop => fun y : B => y) top id",
              "check fun B : Prop => fun y : B => y"]
    for system in ("cc", "ccr", "naivep"):
        trees = []
        for k, check in enumerate(checks):
            f = _write(tmp_path, "one.ped", check)
            cert = tmp_path / "c.json"
            assert main(["check", f, "--system", system, "--emit-derivation", str(cert)]) == 0
            trees += tree_digests(json.loads(cert.read_text(encoding="utf-8")))
        f = _write(tmp_path, "all.ped", "\n".join(checks))
        cert = tmp_path / "c.json"
        assert main(["check", f, "--system", system, "--emit-derivation", str(cert)]) == 0
        assert tree_digests(json.loads(cert.read_text(encoding="utf-8"))) == trees
    capsys.readouterr()


def test_error_certificates_are_written_in_compact_json(tmp_path, capsys):
    junk = tmp_path / "junk.ped"
    junk.write_bytes(b"\xff\xfe")
    cases = [(1, "prod_r", _write(tmp_path, "bad.ped", "assume h : bot"), []),
             (1, "fuel", _write(tmp_path, "redex.ped", "assume A : Prop\nassume x : A\n"
                                "check x : (fun B : Prop => B) A"), ["--fuel", "0"]),
             (2, "parse", _write(tmp_path, "syntax.ped", "check ("), []),
             (2, "resolve", _write(tmp_path, "scope.ped", "check mystery"), []),
             (2, "usage", str(tmp_path / "missing.ped"), []),
             (2, "usage", str(junk), [])]
    cert = tmp_path / "c.json"
    for rc, rule, src, extra in cases:
        assert main(["check", src, "--emit-derivation", str(cert), *extra]) == rc
        capsys.readouterr()
        text = cert.read_text(encoding="utf-8")
        assert json.loads(text)["status"] == "error"
        assert json.loads(text)["diagnostic"]["rule"] == rule
        _assert_compact(text)


def test_an_exit_two_overwrites_the_certificate_of_an_earlier_run(tmp_path, capsys):
    cert = tmp_path / "c.json"
    assert main(["check", PRELUDE, "--emit-derivation", str(cert)]) == 0
    capsys.readouterr()
    src = _write(tmp_path, "syntax.ped", "check (")
    assert main(["check", src, "--emit-derivation", str(cert)]) == 2
    err = capsys.readouterr().err
    assert err == "pedacc: error[parse]: expected a term, found 'eof' at line 1, column 8\n"
    assert json.loads(cert.read_text(encoding="utf-8")) == {
        "status": "error",
        "diagnostic": {"rule": "parse", "message": "expected a term, found 'eof'",
                       "position": [1, 8, 7]}}
    missing = str(tmp_path / "missing.ped")
    assert main(["check", missing, "--emit-derivation", str(cert)]) == 2
    message = f"cannot read {missing}: No such file or directory"
    assert capsys.readouterr().err == f"pedacc: {message}\n"
    assert json.loads(cert.read_text(encoding="utf-8")) == {
        "status": "error",
        "diagnostic": {"rule": "usage", "message": message, "position": []}}
    # a source that cannot be read is what is reported, not the certificate
    assert main(["check", missing, "--emit-derivation", "/nonexistent/dir/c.json"]) == 2
    assert capsys.readouterr().err == f"pedacc: {message}\n"


def test_a_term_nested_too_deeply_overwrites_the_certificate_of_an_earlier_run(
        tmp_path, capsys):
    cert = tmp_path / "c.json"
    assert main(["check", PRELUDE, "--emit-derivation", str(cert)]) == 0
    capsys.readouterr()
    src = _write(tmp_path, "deep.ped", "check " + "(" * 60_000 + "Prop" + ")" * 60_000)
    assert main(["check", src, "--emit-derivation", str(cert)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pedacc: term nests too deeply: ")
    assert err.count("\n") == 1
    assert json.loads(cert.read_text(encoding="utf-8")) == {
        "status": "error",
        "diagnostic": {"rule": "depth", "message": err[len("pedacc: "):-1],
                       "position": []}}


def test_certificates_are_ascii_and_read_back_non_ascii_names(tmp_path, capsys):
    src = _write(tmp_path, "lambda.ped", "assume λ : Prop")
    cert = tmp_path / "c.json"
    assert main(["check", src, "--emit-derivation", str(cert)]) == 0
    capsys.readouterr()
    raw = cert.read_bytes()
    assert raw.isascii()
    tree = json.loads(raw)["derivations"][0]
    assert tree["nodes"][tree["root"]]["conclusion"]["env"] == [
        {"name": "λ", "type": "Prop"}]


@pytest.mark.parametrize("argv", [
    ["normalize", PRELUDE, "--fuel", "-1"],
    ["check", PRELUDE, "--fuel", "-5"],
    ["check", PRELUDE, "--search-depth", "-1"],
    ["inhabit", str(DEMOS / "inhabit.ped"), "--search-depth", "-2"],
    ["motivate", str(DEMOS / "motivate.ped"), "--fuel", "-1"],
])
def test_negative_budgets_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be 0 or more" in err
    assert "fuel exhausted" not in err


def test_zero_budgets_are_accepted(capsys):
    assert main(["check", PRELUDE, "--system", "cc", "--fuel", "0",
                 "--search-depth", "0"]) == 0


# the printed derivation of `check id : top`, whose hypotheses are opened
# from binders under pool names
_ID_TOP_LINES = {
    "cc": [
        "env1        wf []",
        "ax          [] |- Prop : Type",
        "env2        wf [A : Prop]",
        "var         [A : Prop] |- A : Prop",
        "env2        wf [A : Prop, x : A]",
        "var         [A : Prop, x : A] |- x : A",
        "abs         [A : Prop] |- fun x : A => x : A -> A",
        "abs         [] |- fun A : Prop => fun x : A => x : forall A : Prop, A -> A",
    ],
    "ccr": [
        "env1        wf []",
        "ax          [] |- Prop : Type",
        "env2        wf [A : Prop]",
        "var         [A : Prop] |- A : Prop",
        "env2        wf [A : Prop, x : A]",
        "var         [A : Prop, x : A] |- x : A",
        "abs+prod_r  [A : Prop] |- fun x : A => x : A -> A",
        "abs+prod_r  [] |- fun A : Prop => fun x : A => x : forall A : Prop, A -> A",
    ],
    "naivep": [
        "env1        wf []",
        "ax          [] |- Prop : Type",
        "env2        wf [A : Prop]",
        "var         [A : Prop] |- A : Prop",
        "env2        wf [A : Prop, x : A]",
        "var         [A : Prop, x : A] |- A : Prop",
        "prod        [A : Prop] |- A -> A : Prop",
        "prod        [] |- forall A : Prop, A -> A : Prop",
        "var         [A : Prop, x : A] |- x : A",
        "abs         [A : Prop] |- fun x : A => x : A -> A",
        "abs         [] |- fun A : Prop => fun x : A => x : forall A : Prop, A -> A",
        "p-var       [A : Prop, x : A] |- x : A",
    ],
}


@pytest.mark.parametrize("system", sorted(_ID_TOP_LINES))
def test_printed_derivation_names_fresh_hypotheses(tmp_path, capsys, system):
    src = _write(tmp_path, "id.ped", "check id : top")
    cert = tmp_path / "d.json"
    assert main(["check", src, "--system", system,
                 "--emit-derivation", str(cert)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == _ID_TOP_LINES[system]
    # the certificate names the hypotheses as the printed lines do
    shown = {name for line in lines
             for name in re.findall(r"(?:\[|, )(\w+) : ", line.split("|-")[0])}
    (tree,) = json.loads(cert.read_text())["derivations"]
    names = {e["name"] for n in tree["nodes"] for e in n["conclusion"]["env"]}
    assert names == shown == {"A", "x"}


def test_naive_check_uses_file_motivations(tmp_path, capsys):
    assert main(["check", str(DEMOS / "naive.ped"), "--system", "naivep"]) == 0
    capsys.readouterr()
    assert main(["check", str(DEMOS / "naive.ped"), "--system", "cc"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("first, second", [("bot", "top"), ("top", "bot")])
def test_a_second_motivation_for_a_name_is_rejected(tmp_path, capsys, first, second):
    f = _write(tmp_path, "twice.ped",
               f"assume A : Prop\nmotivation A := {first}\nmotivation A := {second}")
    assert main(["check", f, "--system", "naivep"]) == 2
    assert capsys.readouterr().err == (
        "pedacc: error[resolve]: duplicate motivation for 'A' at line 3, column 1\n")


def test_motivate_prints_one_witness_per_name(capsys):
    assert main(["motivate", str(DEMOS / "motivate.ped")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert [line.split(" :=")[0] for line in out] == ["A", "x", "f"]


def test_motivate_rejects_unmotivatable_envs(tmp_path, capsys):
    f = _write(tmp_path, "bad.ped", "assume h : bot")
    assert main(["motivate", f]) == 1


# entry types that are redexes: the type the engine reads a witness off
# is the normal form of each
_DOUBLED = ("assume x : (fun B : Prop => B -> B) "
            "((fun C : Prop => C -> C) (forall A : Prop, A -> A))")
_HINTED = ("assume A : Prop\n"
           "assume f : (fun B : Prop => B -> B) A by fun x : A => x")


def test_motivate_out_of_fuel_normalizing_an_entry_type_is_a_diagnostic(tmp_path,
                                                                        capsys):
    # the environment checks without fuel; normalizing the substituted
    # entry type needs a step
    f = _write(tmp_path, "doubled.ped", _DOUBLED)
    assert main(["motivate", f, "--fuel", "0"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "error[fuel]: no normal form within 0 reduction steps"
    assert main(["motivate", f]) == 0
    assert capsys.readouterr().out == (
        "x := fun f : (forall A : Prop, A -> A) -> (forall A : Prop, A -> A) => "
        "fun g : (forall A : Prop, A -> A) => fun A : Prop => fun x : A => x\n")


def test_motivate_tries_the_by_hint_on_the_normal_form(tmp_path, capsys):
    f = _write(tmp_path, "hinted.ped", _HINTED)
    assert main(["motivate", f]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "f := fun f : (forall A : Prop, A -> A) => f")


@pytest.mark.parametrize("source", [
    *(pytest.param(p.read_text(encoding="utf-8"), id=p.name)
      for p in sorted(DEMOS.glob("*.ped"))),
    pytest.param(_DOUBLED, id="doubled"),
    pytest.param(_HINTED, id="hinted"),
])
def test_printed_motivations_motivate_the_environment(tmp_path, capsys, source):
    # read back as the benchmark reads them: each printed witness parses,
    # and together they motivate the environment in the full calculus
    code = main(["motivate", _write(tmp_path, "env.ped", source)])
    out = capsys.readouterr().out
    if code != 0:
        assert (code, out) == (1, "")
        return
    env, _ = elaborate(parse(source))
    assignments = []
    for line, name in zip(out.splitlines(), env.names(), strict=True):
        got, _, text = line.partition(" := ")
        assert got == name
        assignments.append((name, parse_term(text)))
    verdict = check_motivated_env(env, Motivation(tuple(assignments)), SystemMode.CC)
    assert not isinstance(verdict, Diagnostic), verdict


def test_a_refuted_witness_goal_names_its_countermodel(tmp_path, capsys):
    f = _write(tmp_path, "neg.ped",
               "assume Zb : Prop\nassume Zc : Prop\nassume zh : Zb -> Zc")
    assert main(["motivate", f]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error[prod_r]: cannot form product: no witness exists "
        "(Zc := 0) at env.2",
        "  expected: Zc"]


def test_inhabit_reports_findings_and_failures(tmp_path, capsys):
    assert main(["inhabit", str(DEMOS / "inhabit.ped")]) == 0
    out = capsys.readouterr().out
    assert "fun A : Prop => fun x : A => x : forall A : Prop, A -> A" in out
    f = _write(tmp_path, "hard.ped", "inhabit forall A : Prop, A")
    assert main(["inhabit", f]) == 1
    assert capsys.readouterr().err == (
        "error[inhabit]: no inhabitant of forall A : Prop, A found: no witness exists\n")
    f = _write(tmp_path, "deep.ped", "assume A : Prop\nassume B : Prop\n"
                                     "assume f : A -> B\nassume a : A\ninhabit B")
    assert main(["inhabit", f, "--search-depth", "0"]) == 1
    assert capsys.readouterr().err == ("error[inhabit]: no inhabitant of B found: "
                                       "no witness within search depth 0\n")


def test_inhabit_rejects_a_goal_that_is_not_a_type(tmp_path, capsys):
    f = _write(tmp_path, "omega.ped",
               "inhabit (fun x : Prop => x x) (fun x : Prop => x x)")
    assert main(["inhabit", f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "not a type: (fun A : Prop => A A) (fun A : Prop => A A): "
        "error[app]: application of a non-function at 0.1.0"]
    f = _write(tmp_path, "fun.ped", "inhabit fun x : Prop => x")
    assert main(["inhabit", f]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "not a type: fun A : Prop => A: error[sort]: its type is Prop -> Prop"]


def test_inhabit_out_of_fuel_prints_one_diagnostic_line(tmp_path, capsys):
    f = _write(tmp_path, "redex.ped",
               "inhabit (fun B : Prop => B) (forall A : Prop, A -> A)")
    assert main(["inhabit", f, "--fuel", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error[fuel]: no normal form within 0 reduction steps"]


def test_inhabit_without_goals_is_a_usage_error(tmp_path, capsys):
    f = _write(tmp_path, "empty.ped", "assume A : Prop")
    assert main(["inhabit", f]) == 2


def test_normalize_and_eval(tmp_path, capsys):
    f = _write(tmp_path, "calc.ped",
               "normalize (fun A : Prop => A) Prop\neval plus 2 3\neval id\n"
               "eval plus 20000 20000")
    assert main(["normalize", f]) == 0
    assert capsys.readouterr().out.strip() == "Prop"
    assert main(["eval", f]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # numerals read back as numbers, everything else as a term
    assert lines == ["5", "fun A : Prop => fun x : A => x", "40000"]


@pytest.mark.parametrize("verb", ["normalize", "eval"])
def test_a_term_that_keeps_contracting_runs_out_of_fuel(tmp_path, capsys, verb):
    f = _write(tmp_path, "omega.ped",
               f"{verb} (fun y : Prop => y y) (fun y : Prop => y y)")
    assert main([verb, f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "pedacc: fuel exhausted: no normal form within 100000 reduction steps"]


def test_a_term_too_deep_for_the_stack_gets_one_line(tmp_path, capsys):
    f = _write(tmp_path, "deep.ped", "eval " + "(" * 60_000 + "zero" + ")" * 60_000)
    assert main(["eval", f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("pedacc: term nests too deeply: ")


def test_eval_rejects_open_subjects(tmp_path, capsys):
    f = _write(tmp_path, "open.ped", "assume A : Prop\neval fun x : A => x")
    assert main(["eval", f]) == 2


def test_selftest_is_no_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{check,motivate,inhabit,normalize,eval}" in capsys.readouterr().out
    # the property suites run under pytest; the package ships no runner
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_calls_in_one_process_share_the_parser_not_its_results(tmp_path, capsys):
    f = _write(tmp_path, "arith.ped", "eval plus 2 3")
    assert main(["eval", f, "--fuel", "3"]) == 1
    assert "within 3 reduction steps" in capsys.readouterr().err
    assert main(["eval", f]) == 0  # the default fuel again
    assert capsys.readouterr().out == "5\n"
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == cli._parser.__wrapped__().format_help()
    assert main(["check", PRELUDE, "--system", "cc"]) == 0
    cc = capsys.readouterr().out
    assert main(["check", PRELUDE]) == 0  # the default system again
    assert "abs+prod_r" in capsys.readouterr().out and "abs+prod_r" not in cc
    assert cli._parser() is cli._parser()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing FILE
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["motivate", PRELUDE, "--system", "cc"])  # motivate has no --system
    assert exc.value.code == 2


# each verb's options with their defaults, besides its FILE
VERB_OPTIONS = {
    "check": {"fuel": 100000, "search_depth": 8, "system": "ccr", "emit_derivation": None},
    "motivate": {"fuel": 100000, "search_depth": 8},
    "inhabit": {"fuel": 100000, "search_depth": 8},
    "normalize": {"fuel": 100000},
    "eval": {"fuel": 100000},
}


@pytest.mark.parametrize("verb", sorted(VERB_OPTIONS))
def test_each_verb_takes_its_options_with_their_defaults(verb):
    args = vars(cli._parser().parse_args([verb, "FILE"]))
    assert callable(args.pop("run"))
    assert args == {"command": verb, "file": "FILE", **VERB_OPTIONS[verb]}


@pytest.mark.parametrize("argv", [["normalize", "FILE", "--search-depth", "1"],
                                  ["eval", "FILE", "--system", "cc"]])
def test_a_verb_refuses_an_option_it_does_not_take(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err


def _readme_examples():
    """Each fenced README block whose first line runs pedacc on a demo:
    the command's arguments and the block's remaining lines."""
    text = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```")[1::2]
    for block in blocks:
        lines = block.strip("\n").splitlines()
        if lines and lines[0].startswith("$ pedacc ") and " demos/" in lines[0]:
            yield lines[0].split()[2:], lines[1:]


README_EXAMPLES = list(_readme_examples())


def test_the_readme_shows_its_demo_examples():
    assert [argv[0] for argv, _ in README_EXAMPLES] == ["check", "motivate", "eval"]


@pytest.mark.parametrize("argv,want", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples_print_what_they_show(argv, want, capsys):
    argv = [str(DEMOS.parent / a) if a.startswith("demos/") else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == want


def test_the_readme_library_snippet_prints_what_it_shows(capsys):
    text = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    snippet = text.split("## Library")[1].split("```python\n")[1].split("```")[0]
    exec(snippet, {})
    want = [line.split("# ")[1] for line in snippet.splitlines() if "# " in line]
    assert want == ["abs", "forall A : Prop, A -> A"]
    assert capsys.readouterr().out.splitlines() == want


DIGESTS = Path(__file__).resolve().parent / "golden" / "demo_digests.json"
VERBS = (("check", "--system", "cc"), ("check", "--system", "ccr"),
         ("check", "--system", "naivep"), ("motivate",), ("inhabit",),
         ("normalize",), ("eval",))


def demo_digests(tmp_path) -> dict[str, list]:
    """`"DEMO VERB [--system S]"` -> [exit code, SHA-256 of stdout, of
    stderr, and, for `check`, of the certificate] for every demo and verb.
    Paths print as ``demos/NAME``, so the digests hold in any checkout."""
    out = {}
    cert = tmp_path / "c.json"
    with contextlib.chdir(DEMOS.parent):
        for demo in sorted(p.name for p in DEMOS.glob("*.ped")):
            for verb, *args in VERBS:
                argv = [verb, f"demos/{demo}", *args]
                if verb == "check":
                    argv += ["--emit-derivation", str(cert)]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = main(argv)
                row = [rc] + [hashlib.sha256(s.getvalue().encode()).hexdigest()
                              for s in (stdout, stderr)]
                if verb == "check":
                    row.append(hashlib.sha256(cert.read_bytes()).hexdigest())
                out[" ".join([verb, demo, *args])] = row
    return out


def test_every_demo_verb_and_system_prints_the_golden_bytes(tmp_path):
    # exit code, stdout, stderr and certificate bytes are pinned: a change
    # that means to keep the output must keep every one of them
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert demo_digests(tmp_path) == golden


JUNK = {"superscript": "check \u00b2\n".encode(), "arabic-indic": "check \u0663\n".encode(),
        "combining": "check A\u0301\n".encode(), "nul": b"check \x00\n",
        "invalid-utf8": b"check \xff\xfe\n"}


@pytest.mark.parametrize("junk", sorted(JUNK))
def test_junk_characters_end_in_a_message_through_every_verb(tmp_path, capsys, junk):
    path = tmp_path / "junk.ped"
    path.write_bytes(JUNK[junk])
    for verb, *args in VERBS:
        assert main([verb, str(path), *args]) in (0, 1, 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err


def test_a_superscript_digit_is_a_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "sup.ped", "check \u00b2\n")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err.startswith(
        "pedacc: error[parse]: unexpected character '\u00b2' at line 1, column 7")


@pytest.mark.parametrize("source, first_line", [
    ("check fun x : Prop => Prop", "error[abs]: abstraction body is a kind, not a term"),
    ("assume A : Prop\nassume a : A\ncheck forall x : A, a",
     "error[prod]: product body is not a type at 1"),
    ("assume A : Prop\nassume a : A\ncheck fun x : a => x", "error[prod]: expected a type at 0"),
    ("assume A : Prop\ncheck A : Type", "error[conv]: type mismatch"),
    ("assume A : Prop\nassume a : A\nassume y : a",
     "error[env2]: environment entry is not a type at env.2"),
])
def test_kernel_diagnostics_name_their_rule(tmp_path, capsys, source, first_line):
    f = _write(tmp_path, "bad.ped", source)
    assert main(["check", f, "--system", "cc"]) == 1
    assert capsys.readouterr().err.splitlines()[0] == first_line


@pytest.mark.parametrize("name", sorted(NORMALIZED_PRODUCTS))
@pytest.mark.parametrize("system", ["cc", "ccr"])
def test_a_subject_whose_type_normalizes_to_a_product_checks(tmp_path, capsys, name, system):
    f = _write(tmp_path, name, NORMALIZED_PRODUCTS[name])
    assert main(["check", f, "--system", system]) == 0
    assert capsys.readouterr().err == ""


def test_a_kernel_diagnostic_quotes_a_long_term_by_its_first_200_characters(tmp_path,
                                                                           capsys):
    name = "N" * 5000
    f = _write(tmp_path, "long.ped", f"assume {name} : Prop\nassume a : {name}\ncheck a : Prop")
    assert main(["check", f, "--system", "cc"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[1:] == ["  expected: Prop", f"  found:    {name[:200]}…"]
    assert max(len(line.encode()) for line in lines) <= 220
    # a short term keeps its exact text
    f = _write(tmp_path, "short.ped", "assume N : Prop\nassume a : N\ncheck a : Prop")
    assert main(["check", f, "--system", "cc"]) == 1
    assert capsys.readouterr().err.splitlines()[1:] == ["  expected: Prop", "  found:    N"]


def test_normalize_prints_a_stuck_application_as_it_is(tmp_path, capsys):
    f = _write(tmp_path, "stuck.ped", "normalize Prop Prop")
    assert main(["normalize", f]) == 0
    assert capsys.readouterr().out == "Prop Prop\n"


# one source per message that quotes a token or a name; {} is that token
_QUOTING = [
    ("def {} := Prop", "parse", "expected 'ident', found {} at line 1, column 5"),
    ("{}", "parse", "expected a declaration keyword, found {} at line 1, column 1"),
    ("check {}", "resolve", "unbound name {} at line 1, column 1"),
    ("assume {0} : Prop\nassume {0} : Prop", "resolve", "duplicate name {} at line 2, column 1"),
    ("motivation {} := Prop", "resolve",
     "motivation for a name never assumed: {} at line 1, column 1"),
    ("assume {0} : top\nmotivation {0} := id\nmotivation {0} := id", "resolve",
     "duplicate motivation for {} at line 3, column 1"),
]


@pytest.mark.parametrize("source, rule, message", _QUOTING)
def test_a_message_quotes_a_short_token_whole(tmp_path, capsys, source, rule, message):
    token = "1" if source.startswith("def") else "x" * 40
    f = _write(tmp_path, "short.ped", source.format(token))
    assert main(["check", f]) == 2
    assert capsys.readouterr().err == (
        f"pedacc: error[{rule}]: {message.format(repr(token))}\n")


@pytest.mark.parametrize("source, rule, message", _QUOTING)
def test_a_message_quotes_a_long_token_by_its_first_40_characters(tmp_path, capsys,
                                                                  source, rule, message):
    token = ("1" if source.startswith("def") else "x") * 5000
    f = _write(tmp_path, "long.ped", source.format(token))
    assert main(["check", f]) == 2
    err = capsys.readouterr().err
    assert err == f"pedacc: error[{rule}]: {message.format(repr(token[:40] + '…'))}\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("text, message", [
    ("Prop check", "trailing input 'check'"),
    ("check", "expected a term, found 'check'"),
])
def test_parse_term_quotes_the_token_it_stops_at(text, message):
    assert parse_term(text).message == message

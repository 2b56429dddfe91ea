from __future__ import annotations

import contextlib
import gc
import io
import random
import time
from pathlib import Path

import pytest

import reference_render
from reference_render import expand_rows, render
from harness import gen_typed_term, random_term
from pedacc import surface
from pedacc.cli import main
from pedacc.kernel import Diagnostic, HasType, SystemMode, infer_type, iter_nodes
from pedacc.prelude import numeral, top_type
from pedacc.surface import (
    AssumeDecl,
    CheckCmd,
    DefineDecl,
    SetMotivationCmd,
    elaborate,
    parse,
    parse_term,
    render_diagnostic,
    render_judgment,
    render_rows,
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
    Term,
)
from reference_prelude import apps, arrow, id_term, nat_type, plus

ROOT = Path(__file__).resolve().parent.parent


def test_parse_assume():
    decls = parse("assume A : Prop")
    assert len(decls) == 1
    d = decls[0]
    assert isinstance(d, AssumeDecl)
    assert d.name == "A" and d.ty == PROP and d.witness is None


def test_parse_define_builds_the_standard_type():
    decls = parse("def top := forall A : Prop, A -> A")
    assert isinstance(decls[0], DefineDecl)
    assert decls[0].body == top_type


def test_parse_fun_and_application():
    t = parse_term("fun A : Prop => fun x : A => x")
    assert t == id_term
    assert parse_term("(fun A : Prop => A) Prop") == App(Abs(PROP, Bound(0)), PROP)


def test_arrow_is_right_associative():
    t = parse_term("Prop -> Prop -> Prop")
    assert t == arrow(PROP, arrow(PROP, PROP))
    u = parse_term("(Prop -> Prop) -> Prop")
    assert u == arrow(arrow(PROP, PROP), PROP)


def test_application_binds_tighter_than_arrow():
    t = parse_term("fun f : Prop -> Prop => f Prop -> f Prop")
    assert isinstance(t, Abs)
    assert t.body == arrow(App(Bound(0), PROP), App(Bound(0), PROP))


def test_number_literals_are_numerals():
    assert parse_term("0") == numeral(0)
    assert parse_term("3") == numeral(3)


def test_comments_and_blank_lines():
    decls = parse("-- a comment\n\nassume A : Prop -- trailing\n")
    assert len(decls) == 1


def test_golden_rendering():
    assert render_term(id_term) == "fun A : Prop => fun x : A => x"
    assert render_term(top_type) == "forall A : Prop, A -> A"
    assert render_term(arrow(arrow(PROP, PROP), PROP)) == "(Prop -> Prop) -> Prop"
    assert render_term(TYPE) == "Type"


def test_dependent_products_render_with_forall():
    t = Prod(PROP, arrow(Bound(0), Bound(0)))
    assert render_term(t).startswith("forall")
    # non-dependent products use the arrow sugar
    assert "->" in render_term(arrow(PROP, PROP))
    assert "forall" not in render_term(arrow(PROP, PROP))


def test_parse_error_positions():
    out = parse("def x :=")
    assert isinstance(out, Diagnostic)
    assert out.rule == "parse"
    line, column, offset = out.position
    assert line == 1 and column > 1
    assert "line 1" in render_diagnostic(out)
    # a keyword that begins a term or follows `assume ... by`, but no declaration
    for source, word in [("by", "by"), ("forall x : Prop, x", "forall"), ("fun", "fun"),
                         ("Prop", "Prop"), ("Type", "Type")]:
        out = parse(source)
        assert isinstance(out, Diagnostic), source
        assert (out.rule, out.message, out.position) == (
            "parse", f"'{word}' cannot start a declaration", (1, 1, 0))


def test_keyword_cannot_be_a_name():
    assert isinstance(parse("assume forall : Prop"), Diagnostic)


@pytest.mark.parametrize("seed", range(200))
def test_roundtrip_random_terms(seed):
    t, _ = gen_typed_term(seed)
    assert parse_term(render_term(t)) == t


def test_roundtrip_terms_with_free_names():
    rng = random.Random(7)
    leaves = [Free("a"), Free("b"), PROP]
    for _ in range(50):
        t = rng.choice(leaves)
        for _ in range(rng.randint(1, 4)):
            t = rng.choice([
                Abs(PROP, t),
                arrow(PROP, t),
                App(Abs(PROP, t), rng.choice(leaves)),
            ])
        assert parse_term(render_term(t)) == t


def _corpus_programs():
    """Fifty small programs covering every declaration form."""
    programs = []
    for i in range(50):
        lines = [f"assume A{i} : Prop", f"assume x : A{i}"]
        if i % 2:
            lines.append(f"def twice := fun f : A{i} -> A{i} => fun y : A{i} => f (f y)")
        if i % 3 == 0:
            lines.append(f"check fun y : A{i} => y : A{i} -> A{i}")
        if i % 5 == 0:
            lines.append("inhabit forall B : Prop, B -> B")
            lines.append("normalize (fun B : Prop => B) Prop")
            lines.append(f"eval plus {i % 4} {i % 3}")
        programs.append("\n".join(lines))
    return programs


def test_declaration_roundtrip_corpus():
    for text in _corpus_programs():
        decls = parse(text)
        assert not isinstance(decls, Diagnostic), text
        printed = "\n".join(render(d) for d in decls)
        again = parse(printed)
        assert not isinstance(again, Diagnostic), printed
        assert [render(d) for d in again] == [render(d) for d in decls]


def test_elaborate_accumulates_assumes():
    env, cmds = elaborate(parse("assume A : Prop\nassume x : A"))
    assert env.names() == ("A", "x")
    assert env.lookup("x").ty == Free("A")
    assert cmds == ()


def test_elaborate_expands_definitions():
    env, cmds = elaborate(parse("def t := Prop -> Prop\ncheck fun x : t => x"))
    (cmd,) = cmds
    assert isinstance(cmd, CheckCmd)
    # the definition is gone from the kernel term
    assert cmd.subject == Abs(arrow(PROP, PROP), Bound(0))


def test_elaborate_witness_annotation():
    env, _ = elaborate(parse(
        "assume A : Prop by top\nassume x : A by id"))
    assert env.lookup("A").witness == top_type
    assert env.lookup("x").witness == id_term


def test_elaborate_rejects_unbound_names():
    out = elaborate(parse("assume x : mystery"))
    assert isinstance(out, Diagnostic)
    assert out.rule == "resolve"
    assert "mystery" in out.message


def test_elaborate_rejects_duplicates():
    out = elaborate(parse("assume A : Prop\nassume A : Prop"))
    assert isinstance(out, Diagnostic)


def test_motivation_lines_need_an_assumed_name():
    out = elaborate(parse("motivation ghost := zero"))
    assert isinstance(out, Diagnostic)
    env, cmds = elaborate(parse("assume n : nat\nmotivation n := zero"))
    (cmd,) = cmds
    assert isinstance(cmd, SetMotivationCmd)
    assert cmd.name == "n"


def test_builtins_resolve_and_user_names_shadow():
    env, cmds = elaborate(parse("check plus"))
    assert cmds[0].subject == plus
    env, cmds = elaborate(parse("def id := Prop\ncheck id"))
    assert cmds[0].subject == PROP
    env, cmds = elaborate(parse("check fun plus : Prop => plus"))
    assert cmds[0].subject == Abs(PROP, Bound(0))


def test_a_declarations_own_name_counts_from_the_next_declaration_on():
    # on the right of its own declaration a built-in's name is the built-in
    env, _ = elaborate(parse("assume nat : nat"))
    assert env.lookup("nat").ty == nat_type
    env, (cmd,) = elaborate(parse("def nat := nat -> nat\ncheck nat"))
    assert cmd.subject == arrow(nat_type, nat_type)
    # and one declared after a use is the built-in at that use
    env, (cmd,) = elaborate(parse("check top\nassume top : Prop"))
    assert cmd.subject == top_type
    assert env.lookup("top").ty == PROP


def test_a_motivation_line_declares_nothing():
    out = elaborate(parse("motivation top := id"))
    assert isinstance(out, Diagnostic) and out.rule == "resolve"
    assert out.message == "motivation for a name never assumed: 'top'"


def test_a_definition_cannot_name_a_later_assumption():
    out = elaborate(parse("assume A : Prop\ndef f := fun x : B => x\nassume B : Prop"))
    assert out == Diagnostic("resolve", "unbound name 'B'", (2, 1, 16))


def test_parse_term_leaves_a_builtins_name_free():
    # it reads printed terms back, whose free names are hypotheses
    assert parse_term("plus") == Free("plus")


def test_top_sort_in_a_subject_is_a_kernel_diagnostic():
    # parseable, but no typing rule admits it inside a term
    t = parse_term("fun x : Type => x")
    assert not isinstance(t, Diagnostic)
    res = infer_type(Environment(), t, SystemMode.CC)
    assert isinstance(res, Diagnostic)
    assert "not typable" in res.message


def test_render_judgment_names_fresh_hypotheses():
    from pedacc.kernel import check_type, contract_derivation
    d = check_type(Environment(), id_term, top_type, SystemMode.CC)
    lines = [render_judgment(j) for _, j in contract_derivation(d)]
    assert lines[0] == "wf []"
    assert "[A : Prop, x : A] |- x : A" in lines


@pytest.mark.parametrize("mode", [SystemMode.CC, SystemMode.CCR])
def test_render_judgment_shares_environments_through_its_memo(mode, oracle):
    # through one row table: each environment is printed once, as a row,
    # and the lines that cite it expand to the full lines
    from pedacc.kernel import WellFormed, contract_derivation
    from reference_prelude import factorial, times
    rows: dict = {}
    lines, full = [], []
    for term in (id_term, times, factorial):
        d = infer_type(Environment(), term, mode, oracle)
        judgments = [j for _, j in contract_derivation(d)]
        for j in judgments:
            env = j.env.parent if isinstance(j, WellFormed) else j.env
            lines += [f"{'ctx':<11} {row}" for row in render_rows(env, render_term, rows)]
            lines.append(f"{'x':<11} {render_judgment(j, rows=rows)}")
            full.append(f"{'x':<11} {render_judgment(j)}\n")
        # one row per environment, keyed on the interned environment
        assert {j.env for j in judgments} <= set(rows)
    assert expand_rows("\n".join(lines)) == "".join(full)
    assert len(set(rows.values())) == len(rows)


def test_eval_builtin_arithmetic_elaborates():
    env, cmds = elaborate(parse("eval plus 2 2"))
    assert cmds[0].subject == apps(plus, numeral(2), numeral(2))


def test_memoized_rendering_matches_the_reference_on_random_terms():
    # one memo for every term, as a check call shares it: a subterm met
    # under other binder names or another scope must not reuse a text.
    # The free names are pool names, so they are in the binders' way.
    leaves = (PROP, TYPE, Bound(0), Bound(1), Bound(3), Free("a"), Free("x"), Free("A"))
    rng = random.Random(41)
    memo: dict = {}
    for _ in range(1500):
        t = random_term(rng, rng.randint(1, 24), leaves)
        assert render_term(t, memo) == reference_render.render_term(t)
        assert render_term(t) == reference_render.render_term(t)


# free names that are candidates of the binders' pools, first ones and
# suffixed ones, so they stand in the binders' way at every depth
_IN_THE_WAY = tuple(Free(n) for n in ("x", "x1", "A2", "f", "B", "A", "y", "g1", "C", "x3"))


def _binder_chain(domain: Term, depth: int, rng: random.Random) -> Term:
    """`depth` nested binders of `domain`, past the pool's suffixed
    candidates, around a body of bound indices and names in the way."""
    body: Term = rng.choice(_IN_THE_WAY)
    for _ in range(8):
        body = App(body, rng.choice((Bound(rng.randrange(depth)), *_IN_THE_WAY)))
    for _ in range(depth):
        body = rng.choice((Abs, Prod))(domain, body)
    return body


def test_the_printer_names_binders_as_the_scanning_reference_does():
    rng = random.Random(36)
    leaves = (PROP, TYPE, Bound(0), Bound(1), Bound(2), *_IN_THE_WAY)
    terms = [random_term(rng, rng.randint(1, 40), leaves) for _ in range(2000)]
    for domain in (PROP, arrow(PROP, PROP), Free("A")):
        terms += [_binder_chain(domain, depth, rng) for depth in (25, 50, 70)]
    for seed in range(200):
        terms += gen_typed_term(seed)
    for demo in sorted((ROOT / "demos").glob("*.ped")):
        env, cmds = elaborate(parse(demo.read_text(encoding="utf-8")))
        terms += [e.ty for e in env] + [t for c in cmds for t in c[:-1] if isinstance(t, Term)]
        for c in cmds:
            if isinstance(c, CheckCmd):
                d = infer_type(env, c.subject, SystemMode.CC)
                terms += [t for n in iter_nodes(d) if isinstance(n.conclusion, HasType)
                          for t in (n.conclusion.subject, n.conclusion.ty)]
    memo: dict = {}  # one for every term, as a check call shares one
    for t in terms:
        want = reference_render.render_term(t)
        assert render_term(t, memo) == want
        assert render_term(t) == want


def test_normalize_prints_a_term_of_8000_nested_binders_in_linear_time(tmp_path):
    # naming a binder neither rescans its pool nor copies the printer's
    # scope; the scanning printer took 8.6 s
    src = tmp_path / "deep.ped"
    src.write_text("normalize " + "".join(f"fun x{i} : Prop => " for i in range(8000)) + "x0\n")
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["normalize", str(src)]) == 0
    assert time.perf_counter() - t0 < 3.0
    assert out.getvalue().startswith("fun A : Prop => fun B : Prop => ")
    assert " fun A1 : Prop => " in out.getvalue()


def test_nested_binders_parse_in_linear_time():
    # one binder stack, pushed and popped, and each name's depths in it:
    # no copy of the stack per binder and no scan of it per name (the
    # copying parser took 3.0 times as long for twice the binders)
    def best(n: int) -> float:
        text = "check " + "".join(f"fun x{i} : Prop => " for i in range(n)) + "x0 x1\n"
        parse(text)  # the first run makes the interned nodes
        times = []
        for _ in range(5):
            gc.disable()
            t0 = time.perf_counter()
            parse(text)
            times.append(time.perf_counter() - t0)
            gc.enable()
        return min(times)

    assert best(8000) <= 2.5 * best(4000)
    (cmd,) = parse("check fun x : Prop => fun y : x => fun x : y => x y")
    assert cmd.subject == Abs(PROP, Abs(Bound(0), Abs(Bound(0), App(Bound(0), Bound(1)))))


def test_render_calls_grow_linearly_on_binder_towers(monkeypatch, tmp_path):
    # each suffix of the tower is a line of the derivation; the memo
    # renders each once, where a plain walk renders each suffix anew
    calls = 0
    real = surface._render_term

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(surface, "_render_term", counting)
    towers = {"arrows": lambda n: "assume A : Prop\ncheck " + "A -> " * n + "A\n",
              "forall": lambda n: "check forall A : Prop, " + "A -> " * n + "A\n"}
    for make in towers.values():
        counts = []
        for n in (100, 200):
            path = tmp_path / "tower.ped"
            path.write_text(make(n))
            calls = 0
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["check", str(path), "--system", "cc"]) == 0
            counts.append(calls)
        assert counts[0] <= 6 * 100
        assert counts[1] <= 2 * counts[0] + 10


@pytest.mark.parametrize("char", ["²", "½", "́", "\x00"])
def test_a_character_outside_the_grammar_is_a_parse_error(char):
    for text in (char, f"check {char}", f"check 1{char}", f"def x{char} := {char}"):
        d = parse(text)
        assert isinstance(d, Diagnostic) and d.rule == "parse"
        assert d.message == f"unexpected character {char!r}"


def test_a_number_is_what_int_reads():
    # decimal digits of any script are a number; a superscript is not
    # (see test_a_character_outside_the_grammar_is_a_parse_error)
    (d,) = parse("check ٣")
    assert d.subject == numeral(3)


def test_a_number_literal_is_at_most_a_million(monkeypatch, tmp_path, capsys):
    # a stand-in numeral: the real one of a million takes seconds to build;
    # `parse` reads the built-ins first, so they are built before it
    surface._builtins()
    monkeypatch.setattr(surface, "numeral", lambda k: Free(f"n{k}"))
    for digits in ("1000000", "0001000000", "٠" * 5000 + "1000000"):
        assert parse(f"check {digits}")[0].subject == Free("n1000000")
    for digits in ("1000001", "1" * 5000, "٣000000", "1" + "0" * 4999):
        assert parse(f"check Prop\ncheck {digits}") == Diagnostic(
            "parse", "number literal above 1000000", (2, 7, 17))
    (tmp_path / "big.ped").write_text("check " + "1" * 5000)
    assert main(["eval", str(tmp_path / "big.ped")]) == 2
    assert "error[parse]: number literal above 1000000 at line 1" in capsys.readouterr().err


def test_a_number_literal_of_every_length_up_to_seven_digits_parses(monkeypatch):
    surface._builtins()  # with the real numerals, as above
    monkeypatch.setattr(surface, "numeral", lambda k: Free(f"n{k}"))
    for digits in range(1, 8):
        largest = min(10 ** digits - 1, 1_000_000)
        assert parse(f"check {largest}")[0].subject == Free(f"n{largest}")
    assert parse("check 1000001") == Diagnostic(
        "parse", "number literal above 1000000", (1, 7, 6))


def test_positions_count_lines_and_columns():
    decls = parse("-- c\ncheck Prop\n\n  assume A : Prop\r\ncheck A")
    assert [(d.pos.line, d.pos.column, d.pos.offset) for d in decls] == [
        (2, 1, 5), (4, 3, 19), (5, 1, 36)]
    # the end of the text after a final comment is reported at the
    # comment's column
    assert parse("check ( -- open").position == (1, 9, 15)
    assert parse("check (\n").position == (2, 1, 8)
    # a lexer error past line 1, and errors after a line that ends in \r\n:
    # a line starts after its \n, so the \r is the last column before it
    assert parse("check A\n\ncheck \u00b2").position == (3, 7, 15)
    assert parse("check A\r\ncheck \u00b2").position == (2, 7, 15)
    assert parse("check A\r\n  check (").position == (2, 10, 18)
    assert parse_term("A\r\n ->").position == (2, 4, 6)

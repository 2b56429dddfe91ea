"""The one-pass reading of a source text against the two-pass reference.

`surface` lexes with one match per token and resolves each name as the
parser builds the term; `reference_lexer` and `reference_surface` match
whitespace apart and substitute definitions and built-ins after the
parse.  Both must read every text alike: the same tokens, the same
environment and commands, or the same `Diagnostic`.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from pathlib import Path

import pytest

import reference_lexer
import reference_surface
from harness import perfbench_workloads
from pedacc import surface
from pedacc.kernel import Diagnostic
from pedacc.surface import _lex, _Syn, elaborate, parse

ROOT = Path(__file__).resolve().parent.parent


def _lexed(lex, text: str):
    starts = [0, *(m.end() for m in re.finditer("\n", text))]
    try:
        return lex(text, starts)
    except _Syn as e:
        return e.diagnostic("parse")


def _read(text: str):
    decls = parse(text)
    return decls if isinstance(decls, Diagnostic) else elaborate(decls)


# the pieces seeded texts are drawn from, pasted with no space between
# them, so that neighbours run together into longer tokens
_WORDS = ["assume", "def", "check", "inhabit", "normalize", "eval", "motivation", "by",
          "forall", "fun", "Prop", "Type", "x", "nat", "x'", "f''", "_a", "a_1", "é",
          "λx", "αβ", "ℕ", "0", "42", "٣", "2x", "A--c"]
_PUNCT = [":=", "=>", "->", "(", ")", ":", ",", ":=>", "-->"]
_SPACE = [" ", "  ", "\t", "\n", "\r\n", "\r", " \n \t"]
_COMMENTS = ["-- note\n", "--\n", "-- to the end", "--"]
_JUNK = ["\u00b2", "\u00bd", "\u0301", "\x00", "\ufeff", "-", "=", ">", "!", ".", "\x0b",
         "\u00a0"]


def _seeded_text(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(0, 14)):
        r = rng.random()
        pool = (_WORDS if r < 0.4 else _PUNCT if r < 0.6 else _SPACE if r < 0.85
                else _COMMENTS if r < 0.95 else _JUNK)
        pieces.append(rng.choice(pool))
    return "".join(pieces)


def test_the_lexer_agrees_with_the_reference_on_seeded_strings():
    rng = random.Random(35)
    seen = Counter()
    for _ in range(5000):
        text = _seeded_text(rng)
        want = _lexed(reference_lexer.lex, text)
        assert _lexed(_lex, text) == want, repr(text)
        seen[type(want).__name__] += 1
        if not isinstance(want, Diagnostic) and want[-1][2] != len(text):
            seen["ends in a comment"] += 1
    # both outcomes are common, and so is a comment that ends the text
    assert seen["list"] > 2000 and seen["Diagnostic"] > 1000
    assert seen["ends in a comment"] > 200


def test_the_builtins_are_the_references():
    assert surface._builtins() == reference_surface.builtins()


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.ped")))
def test_every_demo_reads_as_in_the_reference(demo):
    text = (ROOT / "demos" / demo).read_text(encoding="utf-8")
    assert _read(text) == reference_surface.read(text)


@pytest.mark.parametrize("seed", range(3))
def test_every_workload_source_reads_as_in_the_reference(seed):
    workloads = perfbench_workloads()
    for name in workloads.WORKLOADS:
        for item in workloads.generate(name, seed):
            assert _read(item.source) == reference_surface.read(item.source), item.id


# names a program declares, binds and uses: built-ins, prelude helpers
# that are no built-ins, and plain names
_NAMES = ["nat", "top", "id", "plus", "zero", "succ", "bot", "pred", "enc", "A", "B",
          "x", "f"]


def _term(rng: random.Random, leaves: list[str], depth: int) -> str:
    r = rng.random()
    if depth == 0 or r < 0.35:
        return rng.choice([*leaves, "Prop", "Prop", "Type", "0", "2"])
    if r < 0.55:
        binder = rng.choice(_NAMES)
        dom = _term(rng, leaves, depth - 1)
        body = _term(rng, [*leaves, binder, binder], depth - 1)
        return (f"fun {binder} : {dom} => {body}" if rng.random() < 0.5
                else f"forall {binder} : {dom}, {body}")
    if r < 0.7:
        return f"({_term(rng, leaves, depth - 1)}) -> {_term(rng, leaves, depth - 1)}"
    return f"({_term(rng, leaves, depth - 1)}) ({_term(rng, leaves, depth - 1)})"


def _seeded_program(rng: random.Random) -> str:
    """Declarations that use names before they are declared, after, and
    inside their own declaration."""
    lines = []
    declared: list[str] = []
    for _ in range(rng.randint(1, 8)):
        name = rng.choice(_NAMES)
        # mostly names a reader can resolve, now and then one it cannot;
        # the declared name itself, twice, in its own declaration
        leaves = [*declared, *rng.sample(_NAMES[:7], 3), name, name]
        if rng.random() < 0.1:
            leaves.append(rng.choice(_NAMES))
        term = _term(rng, leaves, rng.randint(0, 3))
        kind = rng.choice(["assume", "assume", "def", "def", "check", "inhabit",
                           "normalize", "eval", "motivation"])
        if kind == "assume":
            by = f" by {_term(rng, leaves, 1)}" if rng.random() < 0.3 else ""
            lines.append(f"assume {name} : {term}{by}")
        elif kind in ("def", "motivation"):
            lines.append(f"{kind} {name} := {term}")
        elif kind == "check":
            ty = f" : {_term(rng, leaves, 2)}" if rng.random() < 0.5 else ""
            lines.append(f"check {term}{ty}")
        else:
            lines.append(f"{kind} {term}")
        if kind in ("assume", "def"):
            declared.append(name)
    if rng.random() < 0.05:  # a syntax error somewhere
        at = rng.randrange(len(lines))
        lines[at] += rng.choice([" )", " :=", " \u00b2"])
    return "\n".join(lines)


def test_seeded_programs_that_shadow_names_read_as_in_the_reference():
    rng = random.Random(2012)
    seen = Counter()
    for _ in range(2000):
        text = _seeded_program(rng)
        want = reference_surface.read(text)
        assert _read(text) == want, text
        seen[want.rule if isinstance(want, Diagnostic) else "read"] += 1
    # each outcome is common: read, a resolve error, a parse error
    assert seen["read"] > 300 and seen["resolve"] > 300 and seen["parse"] > 30

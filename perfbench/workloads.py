"""Seeded generators for the three benchmark workloads.

Every item is one CLI call: a `.ped` source text, the verb arguments, and
the answer the call must produce.  Answers come from construction (the
generators know the type they built, the environment they grew, or the
integer they computed with Python arithmetic), never from running pedacc,
so a later change to the checker cannot move its own yardstick.  The same
(workload, seed) always yields byte-identical items.

Item mixes are fixed per workload (which items are heavy, which are known
rejects) so that totals vary little from seed to seed.  Inside that mix
the seed chooses the numerals and the shapes of environments; check-cert's
judgments and eval-arith's expressions keep one shape per slot (see
ARITH_JUDGMENTS and _slot_shape).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("check-cert", "motivate-envs", "eval-arith")

MODES = ("cc", "ccr", "naivep")


@dataclass(frozen=True)
class Item:
    """One CLI call and its known answer.

    `args` is the argv after the verb's FILE argument, which the runner
    supplies.  `expect` is "accept" (exit 0) or "reject" (exit 1).
    `answer` is what else the output must show: for `check`, the
    diagnostic rule of a reject; for `motivate`, the hypothesis names in
    order; for `eval`, the integer printed.
    """

    id: str
    verb: str
    source: str
    args: tuple[str, ...] = ()
    expect: str = "accept"
    answer: object = None


def generate(workload: str, seed: int) -> list[Item]:
    """The workload's items, in the order they run."""
    # str seeds hash through SHA-512, so this is stable across processes
    # and Python versions, unlike hash() of a tuple
    rng = random.Random(f"pedacc-bench/{workload}/{seed}")
    if workload == "check-cert":
        return _check_cert(rng)
    if workload == "motivate-envs":
        return _motivate_envs(rng)
    if workload == "eval-arith":
        return _eval_arith(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# check-cert


# The 20 functions of pedacc.prelude.prelude_corpus(), written in the
# surface language with the type each is checked against.  Built-in names
# expand to the same kernel terms as the corpus; the last five are spelled
# out because they have no built-in name.
PRELUDE_CORPUS: tuple[tuple[str, str, str], ...] = (
    ("id", "id", "top"),
    ("zero", "zero", "nat"),
    ("one", "1", "nat"),
    ("two", "2", "nat"),
    ("five", "5", "nat"),
    ("succ", "succ", "nat -> nat"),
    ("plus", "plus", "nat -> nat -> nat"),
    ("times", "times", "nat -> nat -> nat"),
    ("pred", "pred", "nat -> nat"),
    ("factorial", "factorial", "nat -> nat"),
    ("iter", "iter", "forall T : Prop, nat -> T -> (T -> T) -> T"),
    ("rec", "rec", "nat -> nat -> (nat -> nat -> nat) -> nat"),
    ("pair", "pair", "nat -> nat -> (nat -> nat -> nat) -> nat"),
    ("fst", "fst", "((nat -> nat -> nat) -> nat) -> nat"),
    ("snd", "snd", "((nat -> nat -> nat) -> nat) -> nat"),
    ("enc_nat", "fun n : nat => n", "nat -> nat"),
    ("enc_fun", "fun n : nat => fun x : nat => (fun m : nat => m) n",
     "nat -> nat -> nat"),
    ("dec_fun", "fun f : nat -> nat => (fun m : nat => m) (f zero)",
     "(nat -> nat) -> nat"),
    ("enc_fun2", "fun n : nat => fun f : nat -> nat => (fun m : nat => m) n",
     "nat -> (nat -> nat) -> nat"),
    ("refl_zero", "fun Q : nat -> Prop => fun h : Q zero => h",
     "forall Q : nat -> Prop, Q zero -> Q zero"),
)

# The three judgments the restricted system rejects and the full calculus
# accepts (pedacc.harness.negative_corpus), as source text.
NEGATIVE_FIXTURES: tuple[tuple[str, str], ...] = (
    ("leibniz-hypothesis",
     "assume A : Prop\nassume x : A\nassume y : A\n"
     "assume h : forall Q : A -> Prop, Q x -> Q y\n"),
    ("composition-goal",
     "assume A : Prop\nassume B : Prop\nassume C : Prop\n"
     "check (A -> B) -> (B -> C) -> A -> C : Prop\n"),
    ("absurd-hypothesis", "assume h : forall A : Prop, A\n"),
)

# Seeded judgments, each checked in all three modes.  Each one is
# built around one "anchor" function taken in rotation, because the anchor
# sets the cost in ccr (pred and times are an order of magnitude dearer
# than succ).  The shape of judgment k (which rewrites, where) is drawn
# from a generator fixed for slot k and only its numerals from the seed:
# several judgments sit near the workload's median latency, and shapes that
# changed with the seed moved that median by a fifth from run to run.
ARITH_JUDGMENTS = 14
_ANCHORS = ("plus", "times", "succ", "pred")
# rewrites around each anchor
ARITH_WRAPS = 2

_N, _NN, _NNN = "nat", "nat -> nat", "nat -> nat -> nat"


def _atom(text: str) -> str:
    return text if text.replace("_", "").isalnum() else f"({text})"


class _Draw:
    """Shape decisions from one generator, numerals from another."""

    def __init__(self, shape: random.Random, numerals: random.Random) -> None:
        self.shape = shape
        self.numerals = numerals
        self.binders = 0

    def numeral(self) -> str:
        return str(self.numerals.randint(0, 9))

    def binder(self) -> str:
        self.binders += 1
        return f"y{self.binders}"


def _light_nat(d: _Draw, depth: int) -> str:
    roll = d.shape.random()
    if depth <= 0 or roll < 0.5:
        return d.numeral()
    if roll < 0.75:
        return f"succ {_atom(_light_nat(d, depth - 1))}"
    return f"plus {_atom(_light_nat(d, depth - 1))} {_atom(_light_nat(d, depth - 1))}"


def _anchor_term(d: _Draw, anchor: str) -> tuple[str, str]:
    """The anchor, applied to zero, one or two light arguments."""
    types = (_NN, _N) if anchor in ("succ", "pred") else (_NNN, _NN, _N)
    applied = d.shape.randint(0, len(types) - 1)
    args = [_atom(_light_nat(d, 2)) for _ in range(applied)]
    return " ".join([anchor] + args), types[applied]


def _wrap(d: _Draw, text: str, ty: str) -> tuple[str, str]:
    """One typing-preserving rewrite that adds a beta-redex, an
    eta-expansion or an application around `text : ty`."""
    roll = d.shape.random()
    if roll < 0.35:
        # a redex whose binder is unused
        y = d.binder()
        dom, arg = d.shape.choice(((_N, None), (_NN, "succ"), (_NN, "plus 1")))
        arg = arg or _light_nat(d, 1)
        dom_text = dom if dom == _N else f"({dom})"
        return f"(fun {y} : {dom_text} => {text}) {_atom(arg)}", ty
    if roll < 0.65 and ty == _N:
        # a redex whose binder is used
        y = d.binder()
        body = d.shape.choice((f"succ {y}", f"plus {y} {d.numeral()}", y))
        return f"(fun {y} : nat => {body}) {_atom(text)}", _N
    if ty == _N:
        if d.shape.random() < 0.5:
            return f"succ {_atom(text)}", _N
        return f"plus {_atom(text)} {_atom(_light_nat(d, 1))}", _N
    if ty == _NN:
        if d.shape.random() < 0.5:
            y = d.binder()
            return f"fun {y} : nat => {_atom(text)} {y}", _NN
        return f"{_atom(text)} {_atom(_light_nat(d, 1))}", _N
    return f"{_atom(text)} {_atom(_light_nat(d, 1))}", _NN


def arith_judgment(d: _Draw, anchor: str) -> tuple[str, str]:
    """A closed, well-typed arithmetic term around `anchor`, and its type."""
    text, ty = _anchor_term(d, anchor)
    for _ in range(ARITH_WRAPS):
        text, ty = _wrap(d, text, ty)
    return text, ty


def _check_cert(rng: random.Random) -> list[Item]:
    items: list[Item] = []
    for mode in MODES:
        for name, term, ty in PRELUDE_CORPUS:
            items.append(Item(f"prelude/{name}/{mode}", "check",
                              f"check {term} : {ty}\n", ("--system", mode)))
    for k in range(ARITH_JUDGMENTS):
        anchor = _ANCHORS[k % len(_ANCHORS)]
        shape = random.Random(f"pedacc-bench/check-cert/shape/{k}")
        term, ty = arith_judgment(_Draw(shape, rng), anchor)
        for mode in MODES:
            items.append(Item(f"arith{k}/{anchor}/{mode}", "check",
                              f"check {term} : {ty}\n", ("--system", mode)))
    for name, source in NEGATIVE_FIXTURES:
        items.append(Item(f"negative/{name}/ccr", "check", source,
                          ("--system", "ccr"), expect="reject", answer="prod_r"))
        items.append(Item(f"negative/{name}/cc", "check", source,
                          ("--system", "cc")))
    return items


# ---------------------------------------------------------------------------
# motivate-envs

MOTIVATE_ENVS = 112
# every REJECT_EVERY-th environment gets an appended hypothesis whose body
# no witness inhabits
REJECT_EVERY = 4
# environment k has ENV_SIZES[k % 5] entries: depth about 8 on average,
# with the same mix of sizes for every seed
ENV_SIZES = (6, 7, 8, 9, 10)
# Environment k has between lo and hi characters of source per entry, with
# (lo, hi) = ENV_LENGTH_BANDS[(k // 5) % 8].  An environment's cost grows
# with its types' size, which is heavy-tailed: one seed drew a 5.2 kB
# environment, twice the size of any other in its list, and that single
# item moved the workload's 90th percentile and peak memory by a third.
# The bands split the natural distribution at its octiles, so every seed
# has the same mix of small and large environments; the last band stops
# at about its 97th percentile.
ENV_LENGTH_BANDS = ((0, 28), (29, 35), (36, 42), (43, 50), (51, 60), (61, 74),
                    (75, 100), (101, 180))


def restricted_env(rng: random.Random, size: int) -> tuple[list[str], list[str]]:
    """A restricted-calculus environment of `size` entries, as `assume`
    lines, and its hypothesis names.

    It is grown so that the restricted system accepts it: entries are
    sorts, propositions already in scope, or arrows into a proposition
    whose inhabitant is known, and arrow entries carry that inhabitant as
    their `by` witness.
    """
    lines: list[str] = []
    names: list[str] = []
    props = ["top"]
    inhabited = {"top": "id"}          # type text -> an inhabitant's text
    for i in range(size):
        name = f"x{i}"
        names.append(name)
        kind = rng.choices(("sort", "hyp", "arrow"), weights=(3, 3, 4))[0]
        if kind == "sort":
            lines.append(f"assume {name} : Prop")
            props.append(name)
            continue
        if kind == "hyp":
            ty = rng.choice(props)
            witness = inhabited.get(ty)
            by = f" by {witness}" if witness else ""
            lines.append(f"assume {name} : {ty}{by}")
            inhabited[ty] = name
            continue
        doms = [rng.choice(props) for _ in range(rng.randint(1, 3))]
        cod = rng.choice(list(inhabited))
        ty = " -> ".join([_arrow_dom(d) for d in doms] + [cod])
        witness = inhabited[cod]
        for j, dom in reversed(list(enumerate(doms))):
            witness = f"fun w{i}_{j} : {_arrow_dom(dom)} => {witness}"
        lines.append(f"assume {name} : {ty} by {witness}")
        props.append(ty)
        inhabited[ty] = name
    return lines, names


def _arrow_dom(ty: str) -> str:
    return f"({ty})" if "->" in ty else ty


def _motivate_envs(rng: random.Random) -> list[Item]:
    items = []
    for k in range(MOTIVATE_ENVS):
        size = ENV_SIZES[k % len(ENV_SIZES)]
        lo, hi = ENV_LENGTH_BANDS[k // len(ENV_SIZES) % len(ENV_LENGTH_BANDS)]
        while True:
            lines, names = restricted_env(rng, size)
            if lo * size <= len("\n".join(lines)) <= hi * size:
                break
        if k % REJECT_EVERY == REJECT_EVERY - 1:
            lines += ["assume Zb : Prop", "assume Zc : Prop", "assume zh : Zb -> Zc"]
            items.append(Item(f"env{k}/reject", "motivate", "\n".join(lines) + "\n",
                              expect="reject"))
        else:
            items.append(Item(f"env{k}", "motivate", "\n".join(lines) + "\n",
                              answer=tuple(names)))
    return items


# ---------------------------------------------------------------------------
# eval-arith

EVAL_EXPRS = 216
# values, final and intermediate, stay at or below this: `eval` overflows
# the C stack on numerals in the tens of thousands, which would make the
# workload unmeasurable
VALUE_CAP = 3000
# Expression k has its value in band k % 12 and the root operation
# (k // 12) % 3, so every band meets every operation.  Normalization cost
# grows with the value and is dearest under pred, so a fixed schedule keeps
# the latency distribution the same from seed to seed.  The bands are
# evenly spaced in log scale over one order of magnitude and a half: a
# wider range spreads the latencies so far that their median and 90th
# percentile move with every seed.  One band straddles 1000, so the
# printed output is not the same size for every seed.
VALUE_BANDS = ((100, 132), (133, 177), (178, 236), (237, 315), (316, 421),
               (422, 561), (562, 749), (750, 1080), (1081, 1333), (1334, 1777),
               (1778, 2370), (2371, VALUE_CAP))
ROOT_OPS = ("plus", "times", "pred")
_FACT = (1, 1, 2, 6, 24, 120, 720)
# draws of literals that must bring a slot's tree into its band at least
# once for the tree to be kept
SHAPE_TRIES = 20


def arith_expr(d: _Draw, depth: int, op: str | None = None) -> tuple[str, int, int]:
    """A closed expression over plus/times/pred/factorial and small
    literals, with its value by Python arithmetic and the largest value
    any of its subexpressions takes.  `op` fixes the root operation.  The
    tree comes from `d.shape` and the literals from `d.numerals`."""
    if op is None:
        if depth <= 0 or d.shape.random() < 0.25:
            n = d.numerals.randint(0, 60)
            return str(n), n, n
        op = d.shape.choices(("plus", "times", "pred", "factorial"), weights=(4, 4, 2, 1))[0]
    if op == "factorial":
        n = d.numerals.randint(0, len(_FACT) - 1)
        return f"factorial {n}", _FACT[n], _FACT[n]
    a, va, pa = arith_expr(d, depth - 1)
    if op == "pred":
        return f"pred {_atom(a)}", max(va - 1, 0), pa
    b, vb, pb = arith_expr(d, depth - 1)
    value = va + vb if op == "plus" else va * vb
    return f"{op} {_atom(a)} {_atom(b)}", value, max(pa, pb, value)


def _fits(expr: tuple[str, int, int], lo: int, hi: int) -> bool:
    _, value, peak = expr
    return lo <= value <= hi and peak <= VALUE_CAP


def _slot_shape(k: int, op: str, lo: int, hi: int) -> str:
    """The name of the shape generator of slot `k`: the first tree that
    some of SHAPE_TRIES draws of literals bring into the band.

    The seed then draws only the literals.  With trees drawn from the seed
    as well, two expressions of the same value and similar shape differed
    in cost by up to a factor of two, and the median moved by about a tenth
    from seed to seed."""
    for attempt in itertools.count():
        name = f"pedacc-bench/eval-arith/shape/{k}/{attempt}"
        numerals = random.Random(name + "/numerals")
        for _ in range(SHAPE_TRIES):
            if _fits(arith_expr(_Draw(random.Random(name), numerals), 3, op), lo, hi):
                return name


def _eval_arith(rng: random.Random) -> list[Item]:
    items = []
    for k in range(EVAL_EXPRS):
        lo, hi = VALUE_BANDS[k % len(VALUE_BANDS)]
        op = ROOT_OPS[k // len(VALUE_BANDS) % len(ROOT_OPS)]
        shape = _slot_shape(k, op, lo, hi)
        while True:
            expr = arith_expr(_Draw(random.Random(shape), rng), 3, op)
            if _fits(expr, lo, hi):
                break
        text, value, _ = expr
        items.append(Item(f"expr{k}/{op}/{lo}-{hi}", "eval", f"eval {text}\n",
                          answer=value))
    return items

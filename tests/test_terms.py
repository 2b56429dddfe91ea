from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
import weakref

import pytest

from harness import env_of, random_term
from pedacc import surface, terms
from pedacc.reduction import normalize
from pedacc.surface import elaborate, parse, parse_term
from pedacc.terms import (
    PROP,
    TYPE,
    Abs,
    App,
    Bound,
    EnvEntry,
    Environment,
    Free,
    Prod,
    close_binder,
    free_vars,
    fresh_name,
    is_closed,
    lift,
    open_binder,
    subst,
    subst_simultaneous,
)
from reference_prelude import apps, arrow
from reference_reduction import beta_step


def test_structural_equality_across_constructions():
    a = Abs(PROP, Abs(Bound(0), Bound(0)))
    b = Abs(PROP, Abs(Bound(0), Bound(0)))
    assert a is b
    assert a == b
    assert hash(a) == hash(b)
    assert a != Abs(PROP, Abs(Bound(0), Bound(1)))


def test_equal_terms_reached_by_different_paths_are_one_object():
    ident = Abs(PROP, Abs(Bound(0), Bound(0)))
    by_hand = App(ident, PROP)
    _, (cmd,) = elaborate(parse("check (fun A : Prop => fun x : A => x) Prop"))
    assert cmd.subject is by_hand
    # (fun B : Prop => ident) Prop contracts to ident, read back node by node
    assert normalize(App(Abs(PROP, ident), PROP)) is ident
    assert subst_simultaneous(App(Free("f"), PROP), [("f", ident)]) is by_hand
    assert subst(App(Bound(0), PROP), 0, ident) is by_hand
    assert copy.deepcopy(by_hand) is by_hand
    assert pickle.loads(pickle.dumps(by_hand)) is by_hand


def test_a_term_cannot_be_changed():
    t = App(Free("f"), PROP)
    with pytest.raises(AttributeError):
        t.fun = TYPE
    with pytest.raises(AttributeError):
        del t.arg
    # no per-node dict either: a node holds its fields and nothing else
    with pytest.raises(AttributeError):
        object.__setattr__(t, "_h", 0)
    assert t.fun is Free("f") and t.arg is PROP


def test_the_intern_table_keeps_no_term_alive():
    gc.collect()
    before = len(terms._TABLE)
    t = Abs(Free("only_in_the_table_test"), App(Bound(0), Bound(7)))
    assert len(terms._TABLE) > before
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
    assert len(terms._TABLE) == before


def test_repr_is_the_dataclass_text():
    assert repr(PROP) == "SortConst(sort=<Sort.PROP: 'Prop'>)"
    assert repr(Bound(0)) == "Bound(index=0)"
    assert repr(Free("$x0")) == "Free(name='$x0')"
    assert repr(App(Free("f"), Bound(1))) == (
        "App(fun=Free(name='f'), arg=Bound(index=1))")
    assert repr(Abs(TYPE, Bound(0))) == (
        "Abs(domain=SortConst(sort=<Sort.TYPE: 'Type'>), body=Bound(index=0))")
    assert repr(Prod(Free("A"), Free("B"))) == (
        "Prod(domain=Free(name='A'), body=Free(name='B'))")


def test_loose_bound_level():
    # the mask's bit i is set when index i is loose; its length is one
    # more than the highest loose index
    assert PROP.mask == Free("x").mask == 0
    assert Bound(3).mask == 0b1000 and Bound(3).mask.bit_length() == 4
    assert App(Bound(1), Free("x")).mask == 0b10
    # a binder hides its own index 0 from the levels above it
    assert Abs(PROP, Bound(0)).mask == 0
    assert Prod(Bound(0), App(Bound(0), Bound(2))).mask == 0b11


def test_sorts_are_distinct():
    assert PROP != TYPE
    assert PROP == PROP


def test_arrow_is_nondependent_product():
    t = arrow(PROP, Bound(0))
    # the codomain must not capture the new binder
    assert t == Prod(PROP, Bound(1))


def test_apps_folds_left():
    t = apps(Free("f"), Free("a"), Free("b"))
    assert t == App(App(Free("f"), Free("a")), Free("b"))
    assert apps(Free("f")) == Free("f")


def test_lift_respects_cutoff():
    t = Abs(PROP, App(Bound(0), Bound(1)))
    # index 0 is bound here, index 1 dangles and must shift
    assert lift(t, 0, 2) == Abs(PROP, App(Bound(0), Bound(3)))
    assert lift(Bound(0), 1, 5) == Bound(0)


def test_subst_index():
    body = App(Bound(0), Abs(PROP, Bound(1)))
    out = subst(body, 0, Free("u"))
    assert out == App(Free("u"), Abs(PROP, Free("u")))


def test_subst_lifts_replacement_under_binders():
    body = Abs(PROP, Bound(1))
    out = subst(body, 0, Abs(PROP, Bound(1)))
    # the dangling index inside the replacement must keep dangling
    assert out == Abs(PROP, Abs(PROP, Bound(2)))


def test_subst_by_name():
    t = Abs(PROP, App(Free("a"), Bound(0)))
    assert subst_simultaneous(t, [("a", PROP)]) == Abs(PROP, App(PROP, Bound(0)))
    assert subst_simultaneous(t, [("missing", PROP)]) == t


def test_open_close_binder_roundtrip():
    body = App(Bound(0), Abs(PROP, App(Bound(0), Bound(1))))
    opened = open_binder(body, "$v")
    assert Bound(0) not in _spine_atoms(opened)
    assert close_binder(opened, "$v") == body


def _spine_atoms(t):
    match t:
        case App(f, a):
            return _spine_atoms(f) | _spine_atoms(a)
        case _:
            return {t}


def test_free_vars_and_closedness():
    t = Abs(PROP, App(Free("f"), Bound(0)))
    assert free_vars(t) == {"f"}
    assert not is_closed(t)
    # closedness is about names; dangling indices are a kernel error instead
    assert is_closed(Abs(PROP, Bound(0)))


def _names(t) -> set[str]:
    """Free names by a plain walk, with nothing cached."""
    match t:
        case Free(n):
            return {n}
        case App(f, a):
            return _names(f) | _names(a)
        case Abs(d, b) | Prod(d, b):
            return _names(d) | _names(b)
        case _:
            return set()


def _subst_names(t, table: dict, depth: int = 0):
    """`subst_simultaneous` by a plain walk that visits every node."""
    match t:
        case Free(n) if n in table:
            return lift(table[n], 0, depth)
        case App(f, a):
            return App(_subst_names(f, table, depth), _subst_names(a, table, depth))
        case Abs(d, b):
            return Abs(_subst_names(d, table, depth), _subst_names(b, table, depth + 1))
        case Prod(d, b):
            return Prod(_subst_names(d, table, depth), _subst_names(b, table, depth + 1))
        case _:
            return t


def _lift_walk(t, cutoff: int, amount: int):
    """`lift` by a plain walk that visits every node."""
    match t:
        case Bound(i):
            return Bound(i + amount) if i >= cutoff else t
        case App(f, a):
            return App(_lift_walk(f, cutoff, amount), _lift_walk(a, cutoff, amount))
        case Abs(d, b):
            return Abs(_lift_walk(d, cutoff, amount), _lift_walk(b, cutoff + 1, amount))
        case Prod(d, b):
            return Prod(_lift_walk(d, cutoff, amount), _lift_walk(b, cutoff + 1, amount))
        case _:
            return t


def _subst_walk(t, target: int, u, depth: int = 0):
    """`subst` by a plain walk that visits every node."""
    match t:
        case Bound(i):
            if i == target + depth:
                return _lift_walk(u, 0, depth)
            return Bound(i - 1) if i > target + depth else t
        case App(f, a):
            return App(_subst_walk(f, target, u, depth), _subst_walk(a, target, u, depth))
        case Abs(d, b):
            return Abs(_subst_walk(d, target, u, depth), _subst_walk(b, target, u, depth + 1))
        case Prod(d, b):
            return Prod(_subst_walk(d, target, u, depth), _subst_walk(b, target, u, depth + 1))
        case _:
            return t


def _loose(t, depth: int = 0) -> set[int]:
    """Loose bound indices by a plain walk, with nothing cached."""
    match t:
        case Bound(i):
            return {i - depth} if i >= depth else set()
        case App(f, a):
            return _loose(f, depth) | _loose(a, depth)
        case Abs(d, b) | Prod(d, b):
            return _loose(d, depth) | _loose(b, depth + 1)
        case _:
            return set()


def _named(t) -> bool:
    """Whether a binder in `t` prints with a name, by a plain walk."""
    match t:
        case Abs():
            return True
        case Prod(d, b):
            return 0 in _loose(b) or _named(d) or _named(b)
        case App(f, a):
            return _named(f) or _named(a)
        case _:
            return False


def test_node_facts_agree_with_reference_walks():
    rng = random.Random(29)
    normal = 0
    for _ in range(2000):
        # lifted, so that some masks outgrow a machine word
        t = lift(random_term(rng, rng.randint(1, 30)), rng.randint(0, 1),
                 rng.choice([0, 1, 5, 70]))
        assert t.nf == (beta_step(t) is None)
        assert t.mask == sum(1 << i for i in _loose(t))
        assert t.named == _named(t)
        normal += t.nf
    assert 0 < normal < 2000  # both kinds were met


def test_free_vars_are_computed_once_per_node_and_shared():
    t = Abs(PROP, App(Free("f"), Bound(0)))
    got = free_vars(t)
    assert isinstance(got, frozenset)
    assert free_vars(t) is got
    # a node whose free names are one child's shares that child's set
    assert free_vars(App(Free("f"), PROP)) is free_vars(Free("f"))
    # closed terms share one empty set
    assert free_vars(PROP) is free_vars(Abs(PROP, Bound(0))) is free_vars(Bound(3))


def test_free_vars_and_is_closed_agree_with_an_uncached_walk():
    rng = random.Random(17)
    for _ in range(300):
        t = random_term(rng, rng.randint(1, 30))
        u = random_term(rng, rng.randint(1, 6))
        # and the nodes that substitution and NbE's read-back make
        made = [t, subst(t, 0, u), subst_simultaneous(t, [("a", u), ("c", Free("b"))]),
                normalize(t, 200)]
        # every node's fact is set, read before any `free_vars` call
        stack = list(made)
        while stack:
            s = stack.pop()
            assert s.fv == _names(s)
            match s:
                case App(f, a) | Abs(f, a) | Prod(f, a):
                    stack += (f, a)
        for s in made:
            assert free_vars(s) == _names(s)
            assert is_closed(s) == (not _names(s))


def test_subst_simultaneous_agrees_with_a_walk_over_every_node():
    rng = random.Random(23)
    for _ in range(300):
        t = random_term(rng, rng.randint(1, 30))
        u = random_term(rng, rng.randint(1, 6))
        # a term without the substituted names comes back as it is
        assert subst_simultaneous(t, [("absent", u)]) is t
        bindings = [("a", u), ("c", Free("b"))]
        assert subst_simultaneous(t, bindings) == _subst_names(t, dict(bindings))


# leaves whose indices dangle at the top and under a few binders
_INDEX_LEAVES = (PROP, Free("a"), Bound(0), Bound(1), Bound(2), Bound(3))


def test_lift_agrees_with_a_walk_over_every_node():
    rng = random.Random(31)
    for _ in range(300):
        t = random_term(rng, rng.randint(1, 30), _INDEX_LEAVES)
        cutoff, amount = rng.randint(0, 3), rng.randint(0, 3)
        assert lift(t, cutoff, amount) == _lift_walk(t, cutoff, amount)
    # no index at or above the cutoff: the term comes back as it is
    t = Abs(PROP, App(Bound(0), Bound(1)))
    assert lift(t, 2, 4) is t


def test_subst_agrees_with_a_walk_over_every_node():
    rng = random.Random(37)
    for _ in range(300):
        t = random_term(rng, rng.randint(1, 30), _INDEX_LEAVES)
        # the replacement may hold loose indices, which it keeps under binders
        u = random_term(rng, rng.randint(1, 6), _INDEX_LEAVES)
        target = rng.randint(0, 2)
        assert subst(t, target, u) == _subst_walk(t, target, u)
    # indices above the target are renumbered, those below kept
    assert subst(App(Bound(0), App(Bound(1), Bound(2))), 1, Free("u")) \
        == App(Bound(0), App(Free("u"), Bound(1)))


def test_free_vars_of_a_term_deeper_than_the_recursion_limit():
    t = Free("z")
    for _ in range(sys.getrecursionlimit() + 1000):
        t = App(Free("f"), t)
    assert free_vars(t) == {"f", "z"}
    assert not is_closed(t)


def test_fresh_name_avoids_taken():
    # the pool follows the domain's shape: a sort, a product, anything else
    assert [fresh_name((), d) for d in (PROP, TYPE, arrow(PROP, PROP), Free("A"))] \
        == ["A", "A", "f", "x"]
    assert fresh_name({"x", "y"}, Free("A")) == "z"
    # a fully taken pool starts over with a suffix
    for pool, domain in ((terms._POOL_SORT, PROP), (terms._POOL_FUN, arrow(PROP, PROP)),
                         (terms._POOL_TERM, Free("A"))):
        assert fresh_name(set(pool), domain) == f"{pool[0]}1"
        assert fresh_name(set(pool) | {f"{pool[0]}1"}, domain) == f"{pool[1]}1"
        taken: set[str] = set()
        for _ in range(3 * len(pool)):
            got = fresh_name(taken, domain)
            assert got not in taken
            taken.add(got)
        assert f"{pool[-1]}2" in taken


def test_no_pool_name_is_a_keyword():
    for name in terms._POOL_SORT + terms._POOL_FUN + terms._POOL_TERM:
        assert name not in surface._KEYWORDS
        assert parse_term(name) == Free(name)


def test_subst_simultaneous_is_parallel():
    t = App(Free("a"), Free("b"))
    out = subst_simultaneous(t, [("a", Free("b")), ("b", Free("a"))])
    # a sequential substitution would collapse both to the same name
    assert out == App(Free("b"), Free("a"))


def test_subst_simultaneous_rejects_duplicates():
    with pytest.raises(ValueError):
        subst_simultaneous(Free("a"), [("a", PROP), ("a", TYPE)])


def test_environment_lookup_and_prefix():
    env = env_of(("A", PROP), ("x", Free("A")))
    assert env.names() == ("A", "x")
    assert env.lookup("x").ty == Free("A")
    assert env.lookup("nope") is None
    assert Environment(env.entries[:1]) == env_of(("A", PROP))
    assert len(Environment()) == 0


def test_equal_environments_reached_by_different_paths_are_one_object():
    env = env_of(("A", PROP), ("x", Free("A")))
    by_steps = Environment().extended("A", PROP).extended("x", Free("A"))
    assert by_steps is env
    assert Environment(env.entries) is env
    assert env_of(("A", PROP), ("x", Free("A")), ("y", PROP)).parent is env
    assert Environment(env.entries[:1]) is env.parent is env_of(("A", PROP))
    assert env.parent.parent is Environment()
    assert copy.deepcopy(env) is env
    assert pickle.loads(pickle.dumps(env)) is env
    entry = env.last
    assert EnvEntry("x", Free("A")) is entry
    assert copy.deepcopy(entry) is entry
    assert pickle.loads(pickle.dumps(entry)) is entry
    assert EnvEntry("x", Free("A"), Free("w")) is not entry
    with pytest.raises(AttributeError):
        entry.name = "y"


def test_the_intern_table_keeps_no_environment_alive():
    gc.collect()
    before = len(terms._TABLE)
    env = env_of(("only_in_the_env_test", PROP)).extended("y", Free("z"))
    assert len(terms._TABLE) > before
    refs = [weakref.ref(env), weakref.ref(env.parent), weakref.ref(env.last)]
    env.lookup("y"), env.entries, env.names()  # fill the caches
    del env
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert len(terms._TABLE) == before


def test_lookup_returns_the_first_entry_of_a_name():
    env = env_of(("A", PROP), ("x", Free("A")), ("A", TYPE))
    assert env.lookup("A") is env.entries[0]
    assert env.parent.lookup("A") is env.entries[0]
    assert env.names() == ("A", "x", "A")


def test_environment_extended_preserves_original():
    env = env_of(("A", PROP))
    bigger = env.extended("x", Free("A"))
    assert len(env) == 1 and len(bigger) == 2
    assert bigger.entries[-1].witness is None
    with_w = env.extended("x", Free("A"), witness=Free("w"))
    assert with_w.entries[-1].witness == Free("w")

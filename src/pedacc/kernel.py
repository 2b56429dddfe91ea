"""Typing kernel for three systems sharing one syntax.

`CC` is the full calculus: products may be formed whenever the body is a
type.  `CCR` is the restricted calculus: forming a product additionally
demands an inhabitant ("witness") of the body, so hypotheses can never
become vacuous.  `NAIVE` drops environment checking entirely and instead
demands, at every axiom and variable use, a user-supplied motivation: a
list of closed terms inhabiting the environment types after substituting
the earlier motivation terms.

The checker is syntax-directed, and derives each judgment once: a product,
whether met as a term or as the type of an abstraction, is formed by one
memoized step.  An application, abstraction or product is derived in the
shortest prefix of its environment that binds its free names (and its
hint's), under the motivation cut to that prefix in ``naivep``, and cited
in any longer environment by one ``weak`` step, whose premises are that
derivation and what a leaf there cites: the longer environment's
well-formedness, or its motivation cascade.  Thinning holds in every PTS,
in CC_r too, since a longer environment loses no witness, and in the
naive system, whose leaves demand the cascade of the whole environment.
So a subterm met under many binders is derived once, and a restricted
product formed in a prefix of its own names is cited from there under a
hint that names later hypotheses.  The witness search is the one step
that reads hypotheses a term does not name; a product with no witness in
the prefix is formed in the whole environment instead.  Inferred types
and restricted-product witnesses are kept in normal form, save an
abstraction's body taken as written when its normal form cannot be checked,
as when the fuel runs out (see `Checker._find_witness`);
conversion nodes appear only where an inferred type is normalized, a
witness's type is converted to the product body, or `check` meets a given
type.  Every result is a full `Derivation` tree that can be re-checked node
by node with `verify_derivation`.
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from io import TextIOBase
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter

from .reduction import DEFAULT_FUEL, FuelExhausted, convertible, normalize
from .terms import (
    Abs,
    App,
    Bound,
    Environment,
    Free,
    PROP,
    Prod,
    SortConst,
    TYPE,
    Term,
    close_binder,
    free_vars,
    fresh_name,
    is_closed,
    open_binder,
    subst,
    subst_simultaneous,
)


class SystemMode(Enum):
    CC = "cc"
    CCR = "ccr"
    NAIVE = "naivep"


# The records below are immutable named tuples: fields are read by name,
# copied with `_replace`, compared and hashed by value.


class WellFormed(namedtuple("WellFormed", "env")):
    __slots__ = ()


class HasType(namedtuple("HasType", "env subject ty")):
    __slots__ = ()


Judgment = WellFormed | HasType


class Motivation(namedtuple("Motivation", "assignments")):
    """Ordered assignment of one closed term per environment variable:
    `assignments` is a tuple of (name, term) pairs."""

    __slots__ = ()

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.assignments)

    def extended(self, name: str, term: Term) -> "Motivation":
        return Motivation(self.assignments + ((name, term),))


class Derivation(namedtuple("Derivation", "rule conclusion premises mode",
                            defaults=((), SystemMode.CC))):
    """One rule application: a `rule` name, a `Judgment` concluded, a
    tuple of premise derivations and a `SystemMode`.  A ``prod_r`` node's
    witness is its first premise's subject; a ``p-ax``/``p-var`` node's
    motivation pairs its environment's names with its premises' subjects,
    a naive ``weak`` node's with those of its premises after the first
    (see `_cascade`)."""

    __slots__ = ()

    def __repr__(self) -> str:
        # premises are counted, not shown: they share subderivations, and
        # unfolding them grows with the paths through the DAG
        return (f"Derivation(rule={self.rule!r}, conclusion={self.conclusion!r}, "
                f"premises={len(self.premises)})")


class Diagnostic(namedtuple("Diagnostic", "rule message position expected found",
                            defaults=((), None, None))):
    __slots__ = ()  # `expected` and `found` are terms, or None


class CheckError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


WitnessOracle = Callable[[Environment, Term], Term | None]

_SORTS = (PROP, TYPE)
_BODY = ("prod", "product body is not a type", None)  # a product body's sort premise


def iter_nodes(
    d: Derivation,
    premises: Callable[[Derivation], Iterable[Derivation]] = attrgetter("premises"),
) -> Iterator[Derivation]:
    """Every distinct node reachable from `d` through `premises` (by
    default all of a node's premises), each exactly once and after the
    premises it reaches: in the order a recursive walk that visits them
    left to right finishes them, so `d` comes last.

    Derivations are DAGs (checking shares repeated subderivations), so
    the walk dedupes on identity; an explicit stack keeps deep spines
    clear of the recursion limit.
    """
    seen = {id(d)}
    stack = [(d, iter(premises(d)))]
    while stack:
        node, pending = stack[-1]
        for p in pending:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(premises(p))))
                break
        else:
            stack.pop()
            yield node


def _from_nearest(table: dict, key, parent: Callable, step: Callable):
    """`table[key]`.  When it is missing, it is built from the nearest
    ancestor of `key` (by `parent`) that `table` holds, by one
    ``step(value, key)`` per generation, oldest first, and each result is
    kept.  A loop, not recursion: the chain of ancestors may be long."""
    value, newer = table.get(key), []
    while value is None:
        newer.append(key)
        key = parent(key)
        value = table.get(key)
    for key in reversed(newer):
        value = table[key] = step(value, key)
    return value


def _shorter(key: tuple[Environment, tuple]) -> tuple[Environment, tuple]:
    return key[0].parent, key[1][:-1]  # one entry fewer


def _closed(ty: Term, assignments: Iterable[tuple[str, Term]]) -> Term:
    """`ty` with the motivation terms of the names it holds put in: only
    those assignments reach the substitution."""
    return subst_simultaneous(ty, [a for a in assignments if a[0] in ty.fv])


class _Ctx(namedtuple("_Ctx", "env wf motivation", defaults=(None,))):
    # `wf` is None in NAIVE mode, and `motivation` is None outside it
    __slots__ = ()


class Checker:
    """A type checker in one mode, with memos that live as long as it does.

    It caches each inference by (environment, motivation, term, and the
    hint of a restricted product) and one context per environment, file or
    binder: that environment's well-formedness derivation, built from its
    parent's context by one ``env2`` step (see `_from_nearest`).  So one
    checker derives each environment and each judgment once.  An
    application, abstraction or product is inferred under the key of the
    shortest prefix of the environment that binds the names of the term
    and its hint (and, in ``naivep``, the motivation cut to it); a longer
    environment caches one ``weak`` node citing that judgment.  Should the
    prefix lack a witness for some product in the term (a ``prod_r``
    failure), the term is inferred in the whole environment, whose extra
    hypotheses the witness search may use; any other failure stands.  A
    restricted product formed under two hints that find one witness is one
    node, and a ``weak`` node cites its first formation in any longer
    environment, whatever the hint there.  A ``ccr`` or ``naivep`` checker
    keeps one ``cc`` checker for ``ccr``'s diagnostics (see `_judge`) and
    ``naivep``'s cascades: the cascade of each motivation prefix is built
    from the prefix one entry shorter by one check, so each motivation
    entry is checked once.  A normal form stays on its term (see
    `reduction`), so all checkers share it.

    It keeps every result, failures too, for its life: a failure is
    kept with the position where it was first met, and one met again is
    reported at the position where the judgment at hand meets it.  The
    public entry points return type errors and running out of fuel as a
    `Diagnostic`.
    """

    def __init__(
        self,
        mode: SystemMode,
        oracle: WitnessOracle | None = None,
        fuel: int = DEFAULT_FUEL,
    ):
        self.mode = mode
        self.oracle = oracle
        self.fuel = fuel
        self._memo: dict = {}  # a Derivation, or (first position, Diagnostic)
        empty = Environment()
        self._ctxs = {empty: _Ctx(empty, Derivation("env1", WellFormed(empty), (), mode))}
        self._cascades: dict = {(empty, ()): ()}  # by (environment, assignments)
        self._formed: dict = {}  # prod_r nodes by (env, product, witness) and (env, product)
        if mode is not SystemMode.CC:
            self._cc = Checker(SystemMode.CC, fuel=fuel)

    # -- public entry points --------------------------------------------------

    def infer(
        self,
        env: Environment,
        term: Term,
        motivation: Motivation | None = None,
    ) -> Derivation | Diagnostic:
        return self._judge(
            lambda c: c._infer(c.root_ctx(env, motivation), term, None, ()))

    def check(
        self,
        env: Environment,
        term: Term,
        expected: Term,
        motivation: Motivation | None = None,
    ) -> Derivation | Diagnostic:
        return self._judge(
            lambda c: c._check(c.root_ctx(env, motivation), term, expected, ()))

    def _judge(self, run: Callable):
        """`run(self)`, with errors returned as a `Diagnostic`.  When ``ccr``
        rejects and ``run(self._cc)`` rejects too, not for lack of fuel, the
        ``cc`` diagnostic is returned, its ``prod`` read as ``prod_r``: so a
        ``ccr`` search miss means that only the witness is missing."""
        try:
            return run(self)
        except (CheckError, FuelExhausted) as e:
            diag = _diagnostic(e)
        if self.mode is SystemMode.CCR and diag.rule != "fuel":
            try:
                cc = self._cc._judge(run)
            except RecursionError:  # cc went deeper than ccr got: keep ccr's
                cc = None
            if isinstance(cc, Diagnostic) and cc.rule != "fuel":
                return cc._replace(rule="prod_r") if cc.rule == "prod" else cc
        return diag

    # -- context construction ------------------------------------------------

    def root_ctx(self, env: Environment, motivation: Motivation | None = None) -> _Ctx:
        if self.mode is SystemMode.NAIVE:
            return _Ctx(env, None, motivation or Motivation(()))
        return self._ctxs.get(env) or _from_nearest(self._ctxs, env, attrgetter("parent"),
                                                    self._extend_wf)

    def _extend_wf(self, ctx: _Ctx, env: Environment) -> _Ctx:
        """The context of `env`, `ctx`'s environment extended by one
        entry: its ``env2`` step."""
        entry, pos = env.last, ("env", len(ctx.env))
        if entry.name in ctx.env.names():
            raise CheckError(Diagnostic("env2", f"duplicate variable {entry.name}", pos))
        d = self._sort(ctx, entry.ty, entry.witness, pos,
                       "env2", "environment entry is not a type", None)
        return _Ctx(env, Derivation("env2", WellFormed(env), (d,), self.mode))

    def _extend(self, ctx: _Ctx, name: str, ty: Term, pos: tuple) -> _Ctx:
        """The context under a binder of domain `ty`, already checked to be
        a type: outside ``naivep``, the one context of the extended
        environment, whose ``env2`` step finds `ty`'s sort in the memo."""
        env2 = ctx.env.extended(name, ty)
        if self.mode is not SystemMode.NAIVE:
            return self.root_ctx(env2)
        closed_ty = _closed(ty, ctx.motivation.assignments)
        if self.oracle is None:
            reason = "no witness oracle was supplied"
        else:
            witness = self.oracle(Environment(), closed_ty)
            if witness is not None:
                return _Ctx(env2, None, ctx.motivation.extended(name, witness))
            why = getattr(self.oracle, "miss_reason", None)
            reason = why(Environment(), closed_ty) if why else "no closed witness found"
        raise CheckError(
            Diagnostic(
                "p-var",
                f"cannot motivate the binder's domain: {reason}",
                pos,
                expected=closed_ty,
            )
        )

    # -- NAIVE cascade -------------------------------------------------------

    def _motivate(self, env: Environment, motivation: Motivation,
                  pos: tuple, entry_pos: tuple) -> tuple[Derivation, ...]:
        """Check `motivation` against `env`: the i-th motivation term must
        be closed and check, in the empty environment, against the i-th
        entry type with the earlier variables replaced by their motivation
        terms.

        The cascade of each prefix is kept, so a cascade is its prefix's
        one entry shorter plus one check.  A diagnostic about the whole
        motivation sits at `pos`, one about an entry at `entry_pos`
        followed by the entry's name.
        """
        held = self._cascades.get((env, motivation.assignments))
        if held is not None:
            return held  # built before, so its names were checked then
        if motivation.names() != env.names():
            raise CheckError(
                Diagnostic(
                    "p-var",
                    "motivation does not cover the environment "
                    f"(have {motivation.names()}, need {env.names()})",
                    pos,
                )
            )
        empty = self.root_ctx(Environment())

        def step(cascade: tuple[Derivation, ...], key) -> tuple[Derivation, ...]:
            entry, assignments = key[0].last, key[1]
            mot_term, where = assignments[-1][1], entry_pos + (entry.name,)
            if entry.name in key[0].parent.names():
                raise CheckError(Diagnostic("p-var", f"duplicate variable {entry.name}", where))
            if not is_closed(mot_term):
                raise CheckError(Diagnostic(
                    "p-var", f"motivation term for {entry.name} is not closed", where,
                    found=mot_term))
            closed_ty = _closed(entry.ty, assignments[:-1])
            return cascade + (self._check(empty, mot_term, closed_ty, where),)

        return _from_nearest(self._cascades, (env, motivation.assignments), _shorter, step)

    def _cited(self, ctx: _Ctx, pos: tuple) -> tuple[Derivation, ...]:
        """What a leaf or a ``weak`` step in `ctx` cites of its
        environment: its well-formedness, or in ``naivep`` the cascade of
        its motivation."""
        if self.mode is not SystemMode.NAIVE:
            return (ctx.wf,)
        return self._cc._motivate(ctx.env, ctx.motivation, pos, pos)

    def _leaf(self, ctx: _Ctx, rule: str, judgment: HasType, pos: tuple) -> Derivation:
        """The node of a sort or variable, `rule` being ``ax`` or ``var``
        (``p-ax`` or ``p-var`` in ``naivep``)."""
        if self.mode is SystemMode.NAIVE:
            rule = "p-" + rule
        return Derivation(rule, judgment, self._cited(ctx, pos), self.mode)

    # -- inference -----------------------------------------------------------

    def _infer(self, ctx: _Ctx, t: Term, hint: Term | None, pos: tuple) -> Derivation:
        # failures memoize too: witness discovery probes lots of dead ends;
        # only a restricted product reads the hint, so only its key holds it
        if hint is not None and not (self.mode is SystemMode.CCR and isinstance(t, Prod)):
            hint = None
        key = (ctx.env, ctx.motivation, t, hint)
        cached = self._memo.get(key)
        if cached is not None:
            if isinstance(cached, Derivation):
                return cached
            # a failure leaving _infer(..., pos) is positioned under pos
            first, diag = cached
            raise CheckError(diag._replace(position=pos + diag.position[len(first):]))
        try:
            out = None
            if isinstance(t, (App, Abs, Prod)):
                out = self._weakened(ctx, t, hint, pos)
            if out is None:
                out = self._infer_raw(ctx, t, hint, pos)
        except CheckError as e:
            self._memo[key] = (pos, e.diagnostic)
            raise
        self._memo[key] = out
        return out

    def _weakened(self, ctx: _Ctx, t: Term, hint: Term | None,
                  pos: tuple) -> Derivation | None:
        """`t` inferred in the shortest prefix of `ctx`'s environment that
        binds its free names and its hint's (a restricted product, in a
        shorter one that formed it: see `_infer_raw`), and cited in `ctx` by
        one ``weak`` step.  None when that prefix is the whole environment,
        when a product in `t` has no witness in it, since the hypotheses past
        it may supply one, or when `ctx`'s motivation fails its cascade,
        which is built first: the leaf that meets it reports it, as without
        the step."""
        names = free_vars(t) if hint is None else free_vars(t) | free_vars(hint)
        prefix = ctx.env
        while prefix.parent is not None and prefix.last.name not in names:
            prefix = prefix.parent
        if prefix is ctx.env:
            return None
        try:
            cited = self._cited(ctx, pos)
        except (CheckError, FuelExhausted):
            return None
        # the motivation of the prefix's names; None outside naivep
        cut = ctx.motivation and Motivation(ctx.motivation.assignments[:len(prefix)])
        try:
            d = self._infer(self.root_ctx(prefix, cut), t, hint, pos)
        except CheckError as e:
            if e.diagnostic.rule != "prod_r":
                raise
            return None
        if d.rule == "weak":  # a ccr product formed further in: cite that formation
            d = d.premises[0]
        return Derivation("weak", HasType(ctx.env, t, d.conclusion.ty), (d, *cited), self.mode)

    def _infer_raw(self, ctx: _Ctx, t: Term, hint: Term | None, pos: tuple) -> Derivation:
        mode = self.mode
        match t:
            case SortConst(s) if t == PROP:
                return self._leaf(ctx, "ax", HasType(ctx.env, PROP, TYPE), pos)

            case SortConst(_):
                raise CheckError(Diagnostic("ax", "Type is not typable", pos, found=t))

            case Bound(i):
                raise CheckError(Diagnostic("var", f"dangling bound index {i}", pos))

            case Free(name):
                entry = ctx.env.lookup(name)
                if entry is None:
                    raise CheckError(Diagnostic("var", f"unbound variable {name}", pos))
                node = self._leaf(ctx, "var", HasType(ctx.env, t, entry.ty), pos)
                return self._normalized(ctx, t, entry.ty, node, pos)

            case Abs(domain, _):
                ctx2, body_open = self._open(ctx, t, pos)
                b = self._infer(ctx2, body_open, None, pos + (1,))
                b_ty = b.conclusion.ty
                if b_ty == TYPE:
                    raise CheckError(
                        Diagnostic("abs", "abstraction body is a kind, not a term",
                                   pos, found=b_ty)
                    )
                d_bsort = self._sort(ctx2, b_ty, body_open, pos + (1,))
                res_ty = Prod(domain, close_binder(b_ty, ctx2.env.last.name))
                node = Derivation("abs", HasType(ctx.env, t, res_ty), (b, d_bsort), mode)
                return self._normalized(ctx, t, res_ty, node, pos)

            case Prod():
                # thinning: a ccr product formed in a shorter prefix of its names is a type here
                prefix = ctx.env
                while mode is SystemMode.CCR and prefix.last and prefix.last.name not in t.fv:
                    prefix = prefix.parent
                    if (formed := self._formed.get((prefix, t))) is not None:
                        return Derivation("weak", HasType(ctx.env, t, formed.conclusion.ty),
                                          (formed, *self._cited(ctx, pos)), mode)
                ctx2, body_open = self._open(ctx, t, pos)
                # `_infer` reads a hint only for a restricted product, so any
                # other body has one derivation with or without the witness:
                # it is derived first, and in ccr one that is not a type
                # fails as such, before a witness search
                b = (None if mode is SystemMode.CCR and isinstance(body_open, Prod)
                     else self._sort(ctx2, body_open, None, pos + (1,), *_BODY))
                if mode is not SystemMode.CCR:
                    return Derivation("prod", HasType(ctx.env, t, b.conclusion.ty), (b,), mode)
                d_w = self._find_witness(ctx2, body_open, hint, pos)
                witness = d_w.conclusion.subject
                # two hints that find one witness form one product
                formed = self._formed.get((ctx.env, t, witness))
                if formed is not None:
                    return formed
                if b is None:
                    b = self._sort(ctx2, body_open, witness, pos + (1,), *_BODY)
                if d_w.conclusion.ty != body_open:
                    d_w = Derivation("conv", HasType(ctx2.env, witness, body_open), (d_w, b), mode)
                node = self._formed[(ctx.env, t, witness)] = Derivation(
                    "prod_r", HasType(ctx.env, t, b.conclusion.ty), (d_w, b), mode)
                self._formed.setdefault((ctx.env, t), node)  # the first one, for thinning
                return node

            case App(f, a):
                d_f = self._infer(ctx, f, None, pos + (0,))
                f_ty = d_f.conclusion.ty
                if not isinstance(f_ty, Prod):
                    raise CheckError(
                        Diagnostic("app", "application of a non-function",
                                   pos + (0,), found=f_ty)
                    )
                d_arg = self._infer(ctx, a, None, pos + (1,))
                if d_arg.conclusion.ty != f_ty.domain:  # both normal: convertible iff equal
                    raise CheckError(
                        Diagnostic("app", "argument type mismatch", pos + (1,),
                                   expected=f_ty.domain, found=d_arg.conclusion.ty)
                    )
                raw = subst(f_ty.body, 0, a)
                node = Derivation("app", HasType(ctx.env, t, raw), (d_f, d_arg), mode)
                return self._normalized(ctx, t, raw, node, pos)

        raise CheckError(Diagnostic("var", f"unrecognized term {t!r}", pos))

    # -- helpers -------------------------------------------------------------

    def _open(self, ctx: _Ctx, t: Abs | Prod, pos: tuple) -> tuple[_Ctx, Term]:
        """The binder step: check that `t`'s domain is a type, and return
        the context under the binder, named afresh, and the body opened at
        that name."""
        self._sort(ctx, t.domain, None, pos + (0,))
        x = fresh_name(set(ctx.env.names()) | free_vars(t.body), t.domain)
        return self._extend(ctx, x, t.domain, pos), open_binder(t.body, x)

    def _normalized(self, ctx: _Ctx, subject: Term, ty: Term, node: Derivation,
                    pos: tuple) -> Derivation:
        """Wrap `node` in a conversion so the reported type is normal.

        The subject is the hint for that type's sort, unless it is a normal
        variable or application: applied to the binder, such a subject
        stays inside the normal form, so its own judgment, still in
        progress, would run again and form the same product again, without
        end.  An abstraction's body is derived by now, and a subject that
        still reduces cannot occur in a normal form."""
        ty_nf = normalize(ty, self.fuel)
        if ty_nf == ty:
            return node
        hint = subject if isinstance(subject, Abs) or not subject.nf else None
        d_sort = self._sort(ctx, ty_nf, hint, pos)
        return Derivation("conv", HasType(ctx.env, subject, ty_nf), (node, d_sort), self.mode)

    def _sort(self, ctx: _Ctx, t: Term, hint: Term | None, pos: tuple, rule: str = "prod",
              message: str = "expected a type", expected: Term | None = PROP) -> Derivation:
        """The premise "`t` is a type": infer `t` at `pos` and require a sort,
        or raise ``Diagnostic(rule, message, pos, expected, found)``.  `hint`,
        an inhabitant of `t` when one is at hand, feeds witness extraction."""
        d = self._infer(ctx, t, hint, pos)
        if d.conclusion.ty not in _SORTS:
            raise CheckError(Diagnostic(rule, message, pos, expected, d.conclusion.ty))
        return d

    def _find_witness(self, ctx2: _Ctx, body_open: Term, hint: Term | None,
                      pos: tuple) -> Derivation:
        """Locate and re-check a witness inhabiting a product body, opened
        at the binder `ctx2` ends with: the derivation's subject.

        The hint (an inhabitant of the whole product: an annotation, or
        the abstraction the product types) is applied to the binder and
        tried first; the oracle only runs if that fails, since searching
        is far more expensive than checking.  The application is
        normalized before checking, so an abstraction hint costs no
        re-check of its binder tower and the witness is in normal
        form, like inferred types.  A hint whose application finds no
        normal form before the fuel or the interpreter's stack runs out
        is a failed candidate, like an ill-typed one; an abstraction
        hint's body as written is tried next (when the product types that
        abstraction, inferring it has already checked the body).  When
        that body is normal it is the application's normal form, and it
        is the one candidate the hint gives, found with no evaluation.
        """
        body_nf = normalize(body_open, self.fuel)
        binder = ctx2.env.last.name

        def candidates():
            if hint is not None:
                opened = open_binder(hint.body, binder) if isinstance(hint, Abs) else None
                if opened is None or not opened.nf:
                    try:
                        yield normalize(App(hint, Free(binder)), self.fuel)
                    except (FuelExhausted, RecursionError):
                        pass
                if opened is not None:
                    yield opened
            if self.oracle is not None:
                found = self.oracle(ctx2.env, body_open)
                if found is not None:
                    yield found

        for cand in candidates():
            try:
                d = self._infer(ctx2, cand, None, pos)
            except CheckError:
                continue
            if d.conclusion.ty == body_nf:
                return d
        # the standard oracle can say why it missed; it answers from its cache
        why = getattr(self.oracle, "miss_reason", None)
        reason = why(ctx2.env, body_open) if why else "no witness inhabits the body"
        raise CheckError(
            Diagnostic("prod_r", f"cannot form product: {reason}", pos, expected=body_open)
        )

    def _check(self, ctx: _Ctx, t: Term, expected: Term, pos: tuple) -> Derivation:
        d = self._infer(ctx, t, None, pos)
        found = d.conclusion.ty
        if expected == TYPE:
            if found == TYPE:
                return d
            raise CheckError(
                Diagnostic("conv", "type mismatch", pos, expected=TYPE, found=found)
            )
        d_sort = self._sort(ctx, expected, t, pos)
        if found == expected:
            return d
        if not convertible(found, expected, self.fuel):
            raise CheckError(
                Diagnostic("conv", "type mismatch", pos, expected=expected, found=found)
            )
        return Derivation("conv", HasType(ctx.env, t, expected), (d, d_sort), self.mode)


# ---------------------------------------------------------------------------
# public entry points


def _diagnostic(e: CheckError | FuelExhausted) -> Diagnostic:
    if isinstance(e, FuelExhausted):
        return Diagnostic("fuel", str(e), found=e.term)
    return e.diagnostic


def check_wf(
    env: Environment,
    mode: SystemMode = SystemMode.CC,
    oracle: WitnessOracle | None = None,
    fuel: int = DEFAULT_FUEL,
) -> Derivation | Diagnostic:
    """Derivation that `env` is a well-formed environment.

    Not defined for NAIVE mode, which has no well-formedness judgment;
    use `check_motivated_env` there.
    """
    if mode is SystemMode.NAIVE:
        raise ValueError("the naive system has no well-formedness judgment; "
                         "use check_motivated_env")
    checker = Checker(mode, oracle, fuel)
    return checker._judge(lambda c: c.root_ctx(env).wf)


def infer_type(
    env: Environment,
    term: Term,
    mode: SystemMode = SystemMode.CC,
    oracle: WitnessOracle | None = None,
    fuel: int = DEFAULT_FUEL,
    motivation: Motivation | None = None,
) -> Derivation | Diagnostic:
    """The derivation of `term`'s (normal-form) type, its conclusion's ``ty``."""
    return Checker(mode, oracle, fuel).infer(env, term, motivation)


def check_type(
    env: Environment,
    term: Term,
    expected: Term,
    mode: SystemMode = SystemMode.CC,
    oracle: WitnessOracle | None = None,
    fuel: int = DEFAULT_FUEL,
    motivation: Motivation | None = None,
) -> Derivation | Diagnostic:
    """Check `term` against `expected`, which must itself be well-sorted."""
    return Checker(mode, oracle, fuel).check(env, term, expected, motivation)


def check_motivated_env(
    env: Environment,
    motivation: Motivation,
    mode: SystemMode = SystemMode.CC,
    oracle: WitnessOracle | None = None,
    fuel: int = DEFAULT_FUEL,
) -> tuple[Derivation, ...] | Diagnostic:
    """Check a motivation against an environment.

    The i-th motivation term must be closed and check, in the empty
    environment, against the i-th environment type with all earlier
    variables replaced by their motivation terms.  Returns the cascade of
    derivations.
    """
    checker = Checker(mode, oracle, fuel)
    return checker._judge(lambda c: c._motivate(env, motivation, (), ("env",)))


# ---------------------------------------------------------------------------
# derivation auditing

_RULES_BY_MODE = {
    SystemMode.CC: {"env1", "env2", "ax", "var", "abs", "prod", "app", "conv", "weak"},
    SystemMode.CCR: {"env1", "env2", "ax", "var", "abs", "prod_r", "app", "conv", "weak"},
    SystemMode.NAIVE: {"p-ax", "p-var", "abs", "prod", "app", "conv", "weak"},
}


def _cascade(d: Derivation) -> tuple[Derivation, ...] | None:
    """The closed ``cc`` derivations that motivate the environment of a
    naive node: all premises of a ``p-ax`` or ``p-var``, and those after
    the first of a ``weak``.  None for any other node."""
    if d.mode is SystemMode.NAIVE and d.rule in ("p-ax", "p-var", "weak"):
        return d.premises[1 if d.rule == "weak" else 0:]
    return None


def _verify_cascade(rule: str, env: Environment, cascade: tuple[Derivation, ...],
                    problems: list[str], fuel: int) -> None:
    """Append a problem of `rule` unless `cascade` motivates `env`: one
    derivation per entry, in the empty environment, of the entry's type
    with the earlier names replaced by the earlier subjects, and no name
    bound twice."""
    if len(cascade) != len(env):
        problems.append(f"{rule} cascade has wrong length")
        return
    done: dict[str, Term] = {}
    for entry, pd in zip(env, cascade):
        pc = pd.conclusion
        if not (isinstance(pc, HasType) and len(pc.env) == 0 and entry.name not in done
                and convertible(pc.ty, _closed(entry.ty, done.items()), fuel)):
            problems.append(f"{rule} cascade entry {entry.name} malformed")
            return
        done[entry.name] = pc.subject


def _under_binder(c: HasType, p: HasType) -> bool:
    """Whether `p` is a judgment under the binder of `c`'s subject: its
    environment is `c`'s extended at the binder's domain by a name not
    free in the body, and its subject is that body opened at the name."""
    b, last = c.subject, p.env.last
    return (p.env.parent == c.env and last.ty == b.domain
            and last.name not in free_vars(b.body)
            and p.subject == open_binder(b.body, last.name))


def _verify_node(d: Derivation, problems: list[str], fuel: int) -> None:
    c = d.conclusion
    rules = _RULES_BY_MODE[d.mode]
    if d.rule not in rules:
        problems.append(f"rule {d.rule} not part of mode {d.mode.value}")
        return
    try:
        match d.rule:
            case "env1":
                if not (isinstance(c, WellFormed) and len(c.env) == 0 and not d.premises):
                    problems.append("env1 must conclude the empty environment")
            case "env2":
                p = d.premises[0].conclusion
                ok = (
                    isinstance(c, WellFormed)
                    and isinstance(p, HasType)
                    and len(c.env) == len(p.env) + 1
                    and c.env.entries[:-1] == p.env.entries
                    and c.env.entries[-1].ty == p.subject
                    and p.ty in _SORTS
                    and c.env.entries[-1].name not in p.env.names()
                )
                if not ok:
                    problems.append("env2 premise does not match conclusion")
            case "ax":
                p = d.premises[0].conclusion
                ok = (
                    isinstance(c, HasType) and c.subject == PROP and c.ty == TYPE
                    and isinstance(p, WellFormed) and p.env == c.env
                )
                if not ok:
                    problems.append("ax node malformed")
            case "var":
                p = d.premises[0].conclusion
                ok = (
                    isinstance(c, HasType) and isinstance(c.subject, Free)
                    and (entry := c.env.lookup(c.subject.name)) is not None and entry.ty == c.ty
                    and isinstance(p, WellFormed) and p.env == c.env
                )
                if not ok:
                    problems.append("var node malformed")
            case "abs":
                p0, p1 = d.premises[0].conclusion, d.premises[1].conclusion
                if not (isinstance(c, HasType) and isinstance(c.subject, Abs)
                        and isinstance(c.ty, Prod) and isinstance(p0, HasType)
                        and isinstance(p1, HasType)):
                    problems.append("abs node malformed")
                elif not (_under_binder(c, p0) and c.ty.domain == c.subject.domain
                          and p0.ty == open_binder(c.ty.body, p0.env.last.name)
                          and p1.env == p0.env and p1.subject == p0.ty and p1.ty in _SORTS):
                    problems.append("abs premises do not match conclusion")
            case "prod":
                p = d.premises[0].conclusion
                if not (isinstance(c, HasType) and isinstance(c.subject, Prod)
                        and c.ty in _SORTS and isinstance(p, HasType)):
                    problems.append("prod node malformed")
                elif not (_under_binder(c, p) and p.ty == c.ty):
                    problems.append("prod premise does not match conclusion")
            case "prod_r":
                pw, pb = d.premises[0].conclusion, d.premises[1].conclusion
                if not (isinstance(c, HasType) and isinstance(c.subject, Prod)
                        and c.ty in _SORTS and isinstance(pw, HasType)
                        and isinstance(pb, HasType)):
                    problems.append("prod_r node malformed")
                elif not (_under_binder(c, pb) and pb.ty == c.ty
                          and pw.env == pb.env and pw.ty == pb.subject):
                    problems.append("prod_r premises do not match conclusion")
            case "app":
                pf, pa = d.premises[0].conclusion, d.premises[1].conclusion
                ok = (
                    isinstance(c, HasType) and isinstance(c.subject, App)
                    and isinstance(pf, HasType) and isinstance(pa, HasType)
                    and pf.env == c.env and pa.env == c.env
                    and pf.subject == c.subject.fun
                    and pa.subject == c.subject.arg
                    and isinstance(pf.ty, Prod)
                    and pa.ty == pf.ty.domain
                    and c.ty == subst(pf.ty.body, 0, c.subject.arg)
                )
                if not ok:
                    problems.append("app premises do not match conclusion")
            case "conv":
                pt, ps = d.premises[0].conclusion, d.premises[1].conclusion
                ok = (
                    isinstance(c, HasType) and isinstance(pt, HasType)
                    and isinstance(ps, HasType)
                    and pt.env == c.env and ps.env == c.env
                    and pt.subject == c.subject
                    and ps.subject == c.ty
                    and ps.ty in _SORTS
                    and convertible(pt.ty, c.ty, fuel)
                )
                if not ok:
                    problems.append("conv premises do not match conclusion")
            case "weak":
                # the longer environment's well-formedness, or its cascade
                p, cascade = d.premises[0].conclusion, _cascade(d)
                w = d.premises[1].conclusion if cascade is None else None
                ok = (
                    isinstance(c, HasType) and isinstance(p, HasType)
                    and len(p.env) < len(c.env)
                    and c.env.entries[:len(p.env)] == p.env.entries
                    and p.subject == c.subject
                    and p.ty == c.ty
                    and (cascade is not None or isinstance(w, WellFormed) and w.env == c.env)
                )
                if not ok:
                    problems.append("weak premises do not match conclusion")
                elif cascade is not None:
                    _verify_cascade(d.rule, c.env, cascade, problems, fuel)
            case "p-ax" | "p-var":
                if not isinstance(c, HasType):
                    problems.append(f"{d.rule} conclusion is not a typing judgment")
                    return
                if d.rule == "p-ax":
                    if not (c.subject == PROP and c.ty == TYPE):
                        problems.append("p-ax must conclude Prop : Type")
                else:
                    entry = c.env.lookup(c.subject.name) if isinstance(c.subject, Free) else None
                    if entry is None or entry.ty != c.ty:
                        problems.append("p-var conclusion not in the environment")
                _verify_cascade(d.rule, c.env, d.premises, problems, fuel)
    except IndexError:
        problems.append(f"{d.rule} node is missing premises")


def verify_derivations(roots, fuel: int = DEFAULT_FUEL) -> list[str]:
    """Re-check every node of the derivations against its rule schema, and
    check that every node is in the mode its root expects: the root's
    own, except in the closed full-calculus cascade a naive ``p-ax``,
    ``p-var`` or ``weak`` cites, whose nodes are all ``cc``.

    One walk, on an explicit stack, visits each (node, expected mode) pair
    once.  The derivations may share subtrees: each distinct node's schema
    is checked once, so auditing many derivations together costs their
    distinct nodes, not their sum, and a problem in a node shared by
    several roots is reported once.  A node in a stray mode is reported;
    the nodes under it have their schemas checked but not their modes,
    which would repeat that report.  Returns a list of problems; an empty
    list means every tree is valid.
    """
    problems: list[str] = []
    checked: set[int] = set()
    seen: set[tuple[int, SystemMode | None]] = set()
    stack = [(d, d.mode) for d in reversed(list(roots))]
    while stack:
        node, mode = stack.pop()
        if (id(node), mode) in seen:
            continue
        seen.add((id(node), mode))
        if id(node) not in checked:
            checked.add(id(node))
            _verify_node(node, problems, fuel)
        spine = node.premises
        if mode is not None:  # None: under a stray node
            if node.mode is not mode:
                problems.append(f"{node.rule} node of mode {node.mode.value} "
                                f"inside a {mode.value} derivation")
                mode = None
            elif (cascade := _cascade(node)) is not None:
                spine = spine[:len(spine) - len(cascade)]
                stack.extend((p, SystemMode.CC) for p in reversed(cascade))
        stack.extend((p, mode) for p in reversed(spine))
    return problems


def verify_derivation(d: Derivation, fuel: int = DEFAULT_FUEL) -> list[str]:
    """`verify_derivations` of the one derivation `d`."""
    return verify_derivations((d,), fuel)


def relabel_restricted_products(d: Derivation) -> Derivation:
    """Map a restricted-calculus derivation into the full calculus:
    witness premises of product formations are dropped and every node is
    relabeled to CC mode."""
    out: dict[int, Derivation] = {}
    for node in iter_nodes(d):
        rule, premises = node.rule, node.premises
        if rule == "prod_r":
            rule, premises = "prod", premises[1:]
        out[id(node)] = Derivation(rule, node.conclusion, tuple(out[id(p)] for p in premises),
                                   SystemMode.CC)
    return out[id(d)]


# ---------------------------------------------------------------------------
# condensed display

# How many premises, from the first, carry the "spine" of a textbook
# proof (None: all, the cascade of a naive rule).  Sort bookkeeping
# (second premise of abs, conversion targets) is elided from display.
_SPINE_PREMISES = {
    "env1": 0, "env2": 1, "ax": 1, "var": 1, "abs": 1, "prod": 1, "prod_r": 2,
    "app": 2, "conv": 1, "weak": 1, "p-ax": None, "p-var": None,
}


def _spine(d: Derivation) -> tuple[Derivation, ...]:
    return d.premises[:_SPINE_PREMISES[d.rule]]


def contract_derivation(d: Derivation) -> list[tuple[str, Judgment]]:
    """Linearize a derivation: premises before conclusions, each judgment
    printed once.

    In restricted mode an abstraction line is labeled ``abs+prod_r``,
    since the rule that types the function also forms its product type.
    """
    lines: list[tuple[str, Judgment]] = []
    seen: set = set()
    for node in iter_nodes(d, premises=_spine):
        label = node.rule
        if label == "abs" and node.mode is SystemMode.CCR:
            label = "abs+prod_r"
        key = (label, node.conclusion)
        if key not in seen:
            seen.add(key)
            lines.append((label, node.conclusion))
    return lines


# ---------------------------------------------------------------------------
# serialization


def _env_json(env: Environment, string: Callable[[Term], str]) -> str:
    """The ``env`` array of a certificate conclusion, one ``{"name",
    "type"}`` object per entry; `string` gives a term's JSON string."""
    return "[" + ",".join([f'{{"name":{_json_str(e.name)},"type":{string(e.ty)}}}'
                           for e in env]) + "]"


def write_certificate(fh: TextIOBase, result: Iterable[Derivation] | Diagnostic,
                      render: Callable[[Term], str]) -> None:
    """Write the certificate of `result` to `fh` as compact ASCII JSON
    plus a final newline; `render` prints terms.

    For derivations the document is ``{"status":"ok","derivations":
    [...]}``, with one ``{"root": i, "nodes": [...]}`` table per
    derivation.  Derivations share subtrees, so a table lists each
    distinct node once, premises before conclusions (the root last), and
    gives premises as indices into the table.  A node reads ``{"rule",
    "mode", "conclusion": {"judgment", "env"[, "term", "type"]},
    "premises"[, "witness"][, "motivation"]}``, in the bytes
    ``json.dumps(node, separators=(",", ":"))`` would give; the last two
    are read off the premises (see `Derivation`).  For a
    diagnostic it is ``{"status":"error","diagnostic":{"rule",
    "message", "position"[, "expected"][, "found"]}}``.

    Nodes are written as text, one at a time, so the document is never
    whole in memory.  They share terms and environments as well, so in
    one call each distinct term is rendered and encoded once, and the
    ``env`` array of each distinct `Environment` is encoded once, then
    cited by every node that holds it.
    """
    if isinstance(result, Diagnostic):
        out = {"rule": result.rule, "message": result.message,
               "position": list(result.position)}
        if result.expected is not None:
            out["expected"] = render(result.expected)
        if result.found is not None:
            out["found"] = render(result.found)
        fh.write(json.dumps({"status": "error", "diagnostic": out},
                            separators=(",", ":")) + "\n")
        return

    # terms are hash-consed and environments interned: each keys itself
    string = functools.cache(lambda t: _json_str(render(t)))
    env_json = functools.cache(lambda env: _env_json(env, string))
    fh.write('{"status":"ok","derivations":[')
    for k, d in enumerate(result):
        order = list(iter_nodes(d))
        index = {id(node): i for i, node in enumerate(order)}
        fh.write(f'{"," if k else ""}{{"root":{len(order) - 1},"nodes":[')
        for i, node in enumerate(order):
            c = node.conclusion
            if isinstance(c, WellFormed):
                conclusion = f'{{"judgment":"wf","env":{env_json(c.env)}}}'
            else:
                conclusion = (f'{{"judgment":"hastype","env":{env_json(c.env)}'
                              f',"term":{string(c.subject)},"type":{string(c.ty)}}}')
            premises = ",".join([str(index[id(p)]) for p in node.premises])
            text = (f'{"," if i else ""}{{"rule":{_json_str(node.rule)}'
                    f',"mode":{_json_str(node.mode.value)},"conclusion":{conclusion}'
                    f',"premises":[{premises}]')
            if node.rule == "prod_r":
                text += f',"witness":{string(node.premises[0].conclusion.subject)}'
            elif (cascade := _cascade(node)) is not None:
                text += ',"motivation":[' + ",".join(
                    [f'{{"name":{_json_str(e.name)},"term":{string(p.conclusion.subject)}}}'
                     for e, p in zip(c.env, cascade)]) + "]"
            fh.write(text + "}")
        fh.write("]}")
    fh.write("]}\n")

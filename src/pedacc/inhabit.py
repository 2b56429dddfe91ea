"""Motivation engine: turning restricted-mode derivations into inhabitants.

The restricted calculus only forms a product when its body is witnessed,
so a derivation that some closed type is well-sorted already contains,
structurally, an inhabitant of that type.  `motivate_env` reads those
inhabitants back out, one per hypothesis of an environment: a closed
type's normal form is Prop, which `top` inhabits, or a product, whose
formation stores a witness of its body to abstract.  `motivate_judgment`
and `usefulness_argument` specialize it.

The engine builds candidates, not derivations: the checker that derived
the type re-checks every candidate from scratch against the type as
written, so the engine is a constructor of candidates, never a trusted
authority.

A small proof search (`inhabit_search`) backs the kernel's witness
oracle.  It is deliberately bounded and deterministic: introduce binders
while the goal is a product, close goals that are literally Prop with
`top`, and otherwise scan the environment, newest entries first, trying
bounded chains of applications.  Before a miss costs the whole budget,
the two-valued model of `model.py` gets the chance to show that no
witness exists.
"""

from __future__ import annotations

from .kernel import (
    Checker,
    Derivation,
    Diagnostic,
    HasType,
    Motivation,
    SystemMode,
    WitnessOracle,
    check_type,
    _diagnostic,
)
from .model import Valuation, _is_kind, refute
from .prelude import top_type
from .reduction import DEFAULT_FUEL, FuelExhausted, normalize
from .surface import render_term
from .terms import (
    Abs,
    App,
    Environment,
    EnvEntry,
    Free,
    PROP,
    Prod,
    Term,
    close_binder,
    fresh_name,
    free_vars,
    open_binder,
    subst,
    subst_simultaneous,
)

DEFAULT_SEARCH_DEPTH = 8

# introduction is structural, but a guard beats an infinite loop on an
# adversarial (ill-typed) goal
_MAX_INTROS = 128

# combined cap on search tree nodes per query; keeps worst cases bounded
# without affecting the easy finds
DEFAULT_SEARCH_BUDGET = 4000

# nodes of the first, short search: proofs the oracle finds take a few
# dozen nodes at most, and misses take the model's time, not the budget's
PROBE_BUDGET = 64

_Answer = tuple[Term | None, Valuation | None, bool]  # see `_decide`


# ---------------------------------------------------------------------------
# bounded proof search
#
# Goals are normalized once, where the search is entered, and stay normal:
# the domain of a normal product and its body opened at a fresh name are
# normal too.  So convertibility with a goal is equality of normal forms.


def _search(env: Environment, goal: Term, depth: int, fuel: int,
            budget: list[int], intros: int = 0) -> Term | None:
    if budget[0] <= 0:
        return None
    budget[0] -= 1

    if goal == PROP:
        return top_type

    if isinstance(goal, Prod):
        if intros >= _MAX_INTROS:
            return None
        x = fresh_name(set(env.names()) | free_vars(goal), goal.domain)
        sub = _search(env.extended(x, goal.domain), open_binder(goal.body, x),
                      depth, fuel, budget, intros + 1)
        if sub is None:
            return None
        return Abs(goal.domain, close_binder(sub, x))

    # neutral goal: an assumption may close it outright
    for entry in reversed(env.entries):
        if normalize(entry.ty, fuel) == goal:
            return Free(entry.name)

    # otherwise try assumption heads applied to searched arguments
    for entry in reversed(env.entries):
        found = _apply_head(env, Free(entry.name), normalize(entry.ty, fuel),
                            goal, depth, fuel, budget)
        if found is not None:
            return found
    return None


def _apply_head(env: Environment, head: Term, head_ty: Term, goal: Term,
                depth: int, fuel: int, budget: list[int]) -> Term | None:
    # head_ty, the type of head, is normal like the goal
    if budget[0] <= 0:
        return None
    budget[0] -= 1
    if head_ty == goal:
        return head
    if depth <= 0 or not isinstance(head_ty, Prod):
        return None
    dom = head_ty.domain
    if dom == PROP:
        # dependent head: instantiating with the goal itself comes first
        candidates = [goal]
        candidates += [Free(e.name) for e in reversed(env.entries)
                       if normalize(e.ty, fuel) == PROP]
        candidates.append(top_type)
    else:
        arg = _search(env, dom, depth - 1, fuel, budget)
        candidates = [] if arg is None else [arg]
    for arg in candidates:
        applied = normalize(subst(head_ty.body, 0, arg), fuel)
        found = _apply_head(env, App(head, arg), applied, goal, depth - 1,
                            fuel, budget)
        if found is not None:
            return found
    return None


def _decide(env: Environment, goal: Term, depth: int, fuel: int) -> _Answer:
    """The full search's answer for a normal goal, and on a miss the
    model's countermodel if it has one, or whether the budget cut the
    search short.

    The search is depth-first and deterministic, and its budget only cuts
    it short.  So a term the probe finds is the one the full search would
    find, and a probe that misses with budget to spare has walked the
    whole tree.  On any other miss the model runs first: if it refutes the
    goal, the full search could find nothing.  It also runs on a miss the
    probe settles, so that the miss can say why.
    """
    probe = [PROBE_BUDGET]
    found = _search(env, goal, depth, fuel, probe)
    if found is not None:
        return found, None, False
    valuation = refute(env, goal, fuel)
    if valuation is not None or probe[0] > 0:
        return None, valuation, False
    budget = [DEFAULT_SEARCH_BUDGET]
    found = _search(env, goal, depth, fuel, budget)
    return found, None, found is None and budget[0] <= 0


class SearchOracle:
    """The standard witness oracle: a probe of `PROBE_BUDGET` search
    nodes, then the two-valued model (`model.refute`), then the full
    search of `DEFAULT_SEARCH_BUDGET` nodes at `depth` (see `_decide`).
    None of these steps changes which term it returns.

    Each answer is cached per environment and goal, misses included, with
    the countermodel that settled a miss, if any: the same subgoals recur
    constantly while checking one derivation, and the kernel asks
    `miss_reason` about a miss right after it.  Normal forms stay on their
    terms (see `reduction`), shared with every checker.
    """

    def __init__(self, depth: int, fuel: int):
        self.depth = depth
        self.fuel = fuel
        self._cache: dict[tuple[Environment, Term], _Answer] = {}

    def _answer(self, env: Environment, goal: Term) -> _Answer:
        key = (env, goal)
        got = self._cache.get(key)
        if got is None:
            got = _decide(env, normalize(goal, self.fuel), self.depth, self.fuel)
            self._cache[key] = got
        return got

    def __call__(self, env: Environment, goal: Term) -> Term | None:
        return self._answer(env, goal)[0]

    def miss_reason(self, env: Environment, goal: Term) -> str:
        """Why no witness was found: the countermodel, or the bound that
        stopped the search.  A term the search found but the caller
        rejected is no miss of the search's.  The countermodel shows the
        variables of sort Prop that the goal mentions or that share a
        hypothesis with one shown: the rest play no part in refuting it."""
        term, valuation, cut = self._answer(env, goal)
        if term is not None:
            return "no witness inhabits the body"
        if valuation is None:
            if cut:
                return (f"search cut off after {DEFAULT_SEARCH_BUDGET} nodes "
                        f"(depth {self.depth})")
            return f"no witness within search depth {self.depth}"
        # refute normalized all of these, and each type keeps its normal form
        hypotheses = [free_vars(ty) for ty in (normalize(e.ty, self.fuel) for e in env)
                      if not _is_kind(ty)]
        names = set(free_vars(normalize(goal, self.fuel)))
        linked = True
        while linked:
            linked = [fv for fv in hypotheses if not fv.isdisjoint(names) and not fv <= names]
            names.update(*linked)
        shown = ", ".join(f"{name} := {v}" for name, v in valuation
                          if isinstance(v, int) and name in names)
        return f"no witness exists ({shown})" if shown else "no witness exists"


def make_search_oracle(depth: int = DEFAULT_SEARCH_DEPTH,
                       fuel: int = DEFAULT_FUEL) -> SearchOracle:
    """A `SearchOracle` with its own cache of answers."""
    return SearchOracle(depth, fuel)


def inhabit_search(env: Environment, goal: Term,
                   depth: int = DEFAULT_SEARCH_DEPTH,
                   fuel: int = DEFAULT_FUEL,
                   ) -> Derivation | Diagnostic:
    """Search for an inhabitant of `goal` and verify it from scratch: the
    derivation's subject is the inhabitant.

    The search is a `SearchOracle`'s (probe, model, full search), so a
    miss is a `Diagnostic(rule="inhabit")` that gives the oracle's
    `miss_reason`: the two-valued model shows no inhabitant exists, or the
    search found none at this depth or within `DEFAULT_SEARCH_BUDGET` nodes.
    Running out of fuel is a `Diagnostic(rule="fuel")`, and a found term
    that fails to check is the kernel's diagnostic.
    """
    oracle = SearchOracle(depth, fuel)
    try:
        term = oracle(env, goal)
    except FuelExhausted as e:
        return _diagnostic(e)
    if term is None:
        return Diagnostic("inhabit", f"no inhabitant of {render_term(goal)} found: "
                                     f"{oracle.miss_reason(env, goal)}")
    return check_type(env, term, goal, SystemMode.CC, fuel=fuel)


# ---------------------------------------------------------------------------
# motivating environments and judgments


def motivate_env(env: Environment,
                 oracle: WitnessOracle | None = None,
                 fuel: int = DEFAULT_FUEL,
                 ) -> tuple[Derivation, ...] | Diagnostic:
    """Check that `env` is well formed in the restricted system and
    construct the cascade: one closed term per entry, each checking
    against its entry type with all earlier variables substituted away.
    Returns the cascade the way `check_motivated_env` does: the i-th
    derivation's subject is the i-th entry's motivation term.

    Each substituted entry type is closed, so its normal form is Prop or
    a product.  The engine derives the sort of that normal form: Prop's
    ``ax`` node gives `top`, and a product's ``prod_r`` node gives its
    witness, its first premise's subject, abstracted over the binder.
    The entry's witness annotation (when present) is the hint for that
    product, so it is the first candidate witness.  The candidates are
    then checked against the entry types as written, as one cascade, by
    the code `check_motivated_env` runs.

    One restricted checker judges everything: the environment, each
    normal form and its sort, and the cascade, so the inferences they
    share are computed once.  A diagnostic is the one `Checker._judge`
    gives, where the judgment at hand met the failure; for an environment
    that is not well formed, the one `check_wf` gives.
    Running out of fuel is a `Diagnostic(rule="fuel")`.
    """
    checker = Checker(SystemMode.CCR, oracle or make_search_oracle(), fuel)
    wf = checker._judge(lambda c: c.root_ctx(env).wf)
    if isinstance(wf, Diagnostic):
        return wf
    sigma: list[tuple[str, Term]] = []
    for entry in env:
        closed_ty = subst_simultaneous(entry.ty, sigma)
        hint = None
        if entry.witness is not None:
            hint = subst_simultaneous(entry.witness, sigma)
        node = checker._judge(lambda c: c._sort(
            c.root_ctx(Environment()), normalize(closed_ty, c.fuel), hint,
            ("motivate", entry.name), "env2", f"entry {entry.name} is not a type", None))
        if isinstance(node, Diagnostic):
            return node
        if node.rule == "ax":
            term = top_type
        else:  # prod_r: a closed normal type with a sort is Prop or a product
            w = node.premises[0].conclusion
            term = Abs(node.conclusion.subject.domain, close_binder(w.subject, w.env.last.name))
        sigma.append((entry.name, term))
    return checker._judge(lambda c: c._motivate(env, Motivation(tuple(sigma)), (),
                                                ("motivate",)))


def motivate_judgment(d: Derivation,
                      oracle: WitnessOracle | None = None,
                      fuel: int = DEFAULT_FUEL,
                      ) -> tuple[tuple[Derivation, ...], Derivation] | Diagnostic:
    """From `d : env |- u : B`, motivate the environment and transport the
    judgment under the substitution: returns the cascade plus a derivation
    of `|- u[sigma] : B[sigma]`."""
    c = d.conclusion
    if not isinstance(c, HasType):
        raise ValueError("motivate_judgment wants a typing derivation")
    oracle = oracle or make_search_oracle()
    cascade = motivate_env(c.env, oracle, fuel)
    if isinstance(cascade, Diagnostic):
        return cascade
    bindings = [(e.name, m.conclusion.subject) for e, m in zip(c.env, cascade)]
    subject = subst_simultaneous(c.subject, bindings)
    ty = subst_simultaneous(c.ty, bindings)
    final = check_type(Environment(), subject, ty, d.mode, oracle, fuel)
    if isinstance(final, Diagnostic):
        return final
    return cascade, final


def usefulness_argument(d: Derivation,
                        oracle: WitnessOracle | None = None,
                        fuel: int = DEFAULT_FUEL,
                        ) -> Derivation | Diagnostic:
    """A function typed in the empty environment has an inhabited domain:
    from `d : |- f : forall x : A, B`, derive `|- u : A` for some `u`.

    This is the formal shape of "you may only speak of functions whose
    argument type is demonstrably non-empty".
    """
    c = d.conclusion
    if not isinstance(c, HasType) or len(c.env) != 0 or not isinstance(c.ty, Prod):
        raise ValueError(
            "usefulness_argument wants a closed derivation of a product type")
    cascade = motivate_env(Environment((EnvEntry("x", c.ty.domain),)), oracle, fuel)
    return cascade if isinstance(cascade, Diagnostic) else cascade[0]

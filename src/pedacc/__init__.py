"""Proof checker for a pedagogically restricted calculus of constructions.

The kernel checks three systems sharing one term language: the full
calculus, a restricted variant whose product formation demands a witness
inhabitant, and a naive system that instead asks for closed motivation
terms at the leaves.  Around the kernel: a normalizer, a bounded
inhabitation search backed by a two-valued model that refutes goals
no witness can inhabit, a constructive witness extractor for well-formed
restricted environments, a small surface language, and an arithmetic
prelude of iterator-encoded naturals written in it.
"""

from .inhabit import (
    SearchOracle,
    inhabit_search,
    make_search_oracle,
    motivate_env,
    motivate_judgment,
    usefulness_argument,
)
from .kernel import (
    Checker,
    Derivation,
    Diagnostic,
    Motivation,
    SystemMode,
    check_motivated_env,
    check_type,
    check_wf,
    contract_derivation,
    infer_type,
    iter_nodes,
    relabel_restricted_products,
    verify_derivation,
    verify_derivations,
)
from .model import refute
from .reduction import convertible, normalize
from .terms import (
    PROP,
    TYPE,
    Abs,
    App,
    Bound,
    EnvEntry,
    Environment,
    Free,
    Prod,
    SortConst,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Arithmetic prelude: the built-in names, defined in pedacc's own syntax.

`SOURCE` holds them as ``def`` declarations; `surface` parses and
elaborates it on first use.  Only the names in `BUILTINS` are visible to
source files: the helpers ``enc``, ``P``, ``first`` and ``second`` stay
unbound there.

A number is its own iterator, of type ``nat``: ``n T b s`` runs ``s``
n times on ``b``.  The recursor iterates on Church pairs (counter,
accumulator), of type ``P``, and keeps the accumulator.
"""

from __future__ import annotations

from . import reduction
from .terms import Abs, App, Bound, PROP, Prod, Term

SOURCE = """
def nat := forall A : Prop, A -> (A -> A) -> A
def top := forall A : Prop, A -> A
def bot := forall A : Prop, A
def id := fun A : Prop => fun x : A => x
def zero := fun A : Prop => fun x : A => fun f : A -> A => x
def succ := fun n : nat => fun A : Prop => fun x : A => fun f : A -> A => f (n A x f)
def plus := fun m : nat => fun n : nat => m nat n succ
def times := fun m : nat => fun n : nat => m nat zero (plus n)
def iter := fun T : Prop => fun n : nat => fun b : T => fun s : T -> T => n T b s

-- pairs of numbers, and their projections
def enc := fun k : nat => k
def P := (nat -> nat -> nat) -> nat
def first := fun x : nat => fun y : nat => x
def second := fun x : nat => fun y : nat => y
def pair := fun m : nat => fun n : nat => fun f : nat -> nat -> nat => f (enc m) n
def fst := fun c : P => enc (c first)
def snd := fun c : P => c second

-- recursion: iterate (counter, accumulator) -> (succ counter, step),
-- starting from (0, base), and keep the accumulator
def pred := fun n : nat =>
  n P (fun f : nat -> nat -> nat => f (enc zero) zero)
    (fun z : P => fun f : nat -> nat -> nat =>
       f (enc (succ (enc (z first)))) (enc (z first)))
    second
def factorial := fun n : nat =>
  n P (fun f : nat -> nat -> nat => f (enc zero) 1)
    (fun z : P => fun f : nat -> nat -> nat =>
       f (enc (succ (enc (z first)))) (times (succ (enc (z first))) (z second)))
    second
def rec := fun n : nat => fun b : nat => fun s : nat -> nat -> nat =>
  n P (fun f : nat -> nat -> nat => f (enc zero) b)
    (fun z : P => fun f : nat -> nat -> nat =>
       f (enc (succ (enc (z first)))) (s (enc (z first)) (z second)))
    second
"""

#: the names of SOURCE that every source file may use without defining
BUILTINS = ("nat", "top", "bot", "id", "zero", "succ", "plus", "times", "pred",
            "factorial", "iter", "rec", "pair", "fst", "snd")

#: forall A : Prop, A -> A, the type the witness search proves Prop by
top_type: Term = Prod(PROP, Prod(Bound(0), Bound(1)))


def numeral(k: int) -> Term:
    """The normal-form number k: fun A => fun x => fun f => f (f ... x)."""
    if k < 0:
        raise ValueError("numeral wants a non-negative integer")
    body: Term = Bound(1)
    for _ in range(k):
        body = App(Bound(0), body)
    return Abs(PROP, Abs(Bound(0), Abs(Prod(Bound(1), Bound(2)), body)))


#: reads a number off a term's value; it lives with the evaluator it reads
to_natural = reduction.to_natural

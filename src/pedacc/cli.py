"""Command line driver.

One source file per invocation.  Every subcommand first builds the file's
environment from its ``assume``/``def`` declarations; the subcommand then
decides which of the remaining declarations are acted on:

    check      run the ``check`` declarations (or, with none, check that
               the environment itself is well formed) and print the
               derivation, one rule per line, each environment once as
               a numbered row that the lines cite
    motivate   construct one closed witness per environment variable
    inhabit    run the ``inhabit`` declarations through bounded search,
               once ``cc`` has checked that the goal is a type
    normalize  print the normal form of each ``normalize`` subject
    eval       like normalize, but numerals are read back as integers

Exit status: 0 on success, 1 when a judgment fails to check (or a search
comes up empty, or a term runs out of fuel or nests deeper than the stack),
2 on usage, syntax, or name-resolution errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .inhabit import (
    DEFAULT_SEARCH_DEPTH,
    inhabit_search,
    make_search_oracle,
    motivate_env,
)
from .kernel import (
    CheckError,
    Derivation,
    Diagnostic,
    Motivation,
    SystemMode,
    WellFormed,
    check_motivated_env,
    check_type,
    check_wf,
    contract_derivation,
    infer_type,
    write_certificate,
)
from .reduction import DEFAULT_FUEL, FuelExhausted, normalize, to_natural
from .surface import (
    CheckCmd,
    EvalCmd,
    InhabitCmd,
    NormalizeCmd,
    SetMotivationCmd,
    elaborate,
    parse,
    render_diagnostic,
    render_judgment,
    render_rows,
    render_term,
)
from .terms import Environment, SortConst

# Deep terms produce deep recursion in the checker and the printer.
sys.setrecursionlimit(100000)


class _UsageError(Exception):
    """Exit 2 with `message`; `diagnostic` is what a certificate records."""

    def __init__(self, message: str, diagnostic: Diagnostic | None = None):
        super().__init__(message)
        self.diagnostic = diagnostic or Diagnostic("usage", message)


def _load(path: str):
    """Parse and elaborate a source file; raises _UsageError on any
    problem that predates the kernel."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise _UsageError(f"cannot read {path}: not UTF-8 text")
    decls = parse(text)
    if isinstance(decls, Diagnostic):
        raise _UsageError(render_diagnostic(decls), decls)
    out = elaborate(decls)
    if isinstance(out, Diagnostic):
        raise _UsageError(render_diagnostic(out), out)
    return out


def _file_motivation(env: Environment, cmds) -> Motivation:
    """Collect ``motivation x := t`` lines, ordered like the environment."""
    given = {c.name: c.body for c in cmds if isinstance(c, SetMotivationCmd)}
    return Motivation(tuple((n, given[n]) for n in env.names() if n in given))


def _emit(path: str | None, result: list[Derivation] | Diagnostic,
          render=None) -> None:
    """Write the certificate of `result` to `path` (if given): the
    derivations or the diagnostic, as `write_certificate` writes them with
    `render`, by default `render_term`.  ``python -m json.tool``
    pretty-prints it."""
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write_certificate(fh, result, render or render_term)
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e.strerror}")


def _print_derivation(d: Derivation, render, rows: dict) -> None:
    """One line per judgment, each citing its environment's row.  A row is
    printed just before the first line that cites it: by the ``wf`` line
    that concludes its environment, if that comes first, else on a line
    of its own, labelled ``ctx``."""
    lines = []
    for label, judgment in contract_derivation(d):
        env = judgment.env
        if env not in rows:
            lines += [f"{'ctx':<11} {row}" for row in render_rows(
                env.parent if isinstance(judgment, WellFormed) else env, render, rows)]
        lines.append(f"{label:<11} {render_judgment(judgment, render, rows)}")
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    try:
        env, cmds = _load(args.file)
    except _UsageError as e:
        # no stale certificate is left behind; the source's problem is the
        # one reported even when the certificate cannot be written either
        with contextlib.suppress(_UsageError):
            _emit(args.emit_derivation, e.diagnostic)
        raise
    mode = SystemMode(args.system)
    oracle = make_search_oracle(args.search_depth, args.fuel)
    motivation = _file_motivation(env, cmds) if mode is SystemMode.NAIVE else None

    derivations: list[Derivation] = []
    try:
        checks = [c for c in cmds if isinstance(c, CheckCmd)]
        if not checks:
            if mode is SystemMode.NAIVE:
                # the cascade under every p-ax and p-var is a cc derivation
                out = check_motivated_env(env, motivation, SystemMode.CC, fuel=args.fuel)
                if isinstance(out, Diagnostic):
                    raise CheckError(out)
                derivations.extend(out)
            else:
                d = check_wf(env, mode, oracle, args.fuel)
                if isinstance(d, Diagnostic):
                    raise CheckError(d)
                derivations.append(d)
        for cmd in checks:
            if cmd.expected is not None:
                res = check_type(env, cmd.subject, cmd.expected, mode,
                                 oracle, args.fuel, motivation)
            else:
                res = infer_type(env, cmd.subject, mode, oracle, args.fuel,
                                 motivation)
            if isinstance(res, Diagnostic):
                raise CheckError(res)
            derivations.append(res)
    except CheckError as e:
        print(render_diagnostic(e.diagnostic), file=sys.stderr)
        _emit(args.emit_derivation, e.diagnostic)
        return 1

    # memos for the whole call: the printed lines and the certificate
    # render the same terms and subterms over and over, and the lines of
    # every derivation cite one table of environment rows
    render = functools.cache(functools.partial(render_term, memo={}))
    rows: dict = {}
    for i, d in enumerate(derivations):
        if i:
            print()
        _print_derivation(d, render, rows)
    _emit(args.emit_derivation, derivations, render)
    return 0


def _cmd_motivate(args) -> int:
    env, _ = _load(args.file)
    res = motivate_env(env, make_search_oracle(args.search_depth, args.fuel), args.fuel)
    if isinstance(res, Diagnostic):
        print(render_diagnostic(res), file=sys.stderr)
        return 1
    for entry, d in zip(env, res):
        print(f"{entry.name} := {render_term(d.conclusion.subject)}")
    return 0


def _why_not_a_type(env: Environment, goal, fuel: int) -> str | None:
    """One line saying why `goal` is not a type in ``cc``, or None if it is.

    An ill-typed goal can send the search into a term that never
    normalizes, so each goal is checked before the search starts.
    """
    res = infer_type(env, goal, SystemMode.CC, fuel=fuel)
    if isinstance(res, Diagnostic):
        return render_diagnostic(res._replace(expected=None, found=None))
    if not isinstance(res.conclusion.ty, SortConst):
        return f"error[sort]: its type is {render_term(res.conclusion.ty)}"
    return None


def _cmd_inhabit(args) -> int:
    env, cmds = _load(args.file)
    goals = [c.goal for c in cmds if isinstance(c, InhabitCmd)]
    if not goals:
        raise _UsageError(f"{args.file} has no inhabit declarations")
    failures = 0
    for goal in goals:
        why = _why_not_a_type(env, goal, args.fuel)
        if why is not None:
            print(f"not a type: {render_term(goal)}: {why}", file=sys.stderr)
            failures += 1
            continue
        found = inhabit_search(env, goal, args.search_depth, args.fuel)
        if isinstance(found, Diagnostic):
            print(render_diagnostic(found._replace(found=None)), file=sys.stderr)
            failures += 1
        else:
            print(f"{render_term(found.conclusion.subject)} : {render_term(goal)}")
    return 1 if failures else 0


def _cmd_reduce(args) -> int:
    """Print each subject's normal form; eval prints a numeral as an integer."""
    verb = args.command
    env, cmds = _load(args.file)
    if env.entries:
        raise _UsageError(f"{verb} works on closed terms; {args.file} assumes variables")
    cls = EvalCmd if verb == "eval" else NormalizeCmd
    subjects = [c.subject for c in cmds if isinstance(c, cls)]
    if not subjects:
        raise _UsageError(f"{args.file} has no {verb} declarations")
    for subject in subjects:
        n = to_natural(subject, args.fuel) if cls is EvalCmd else None
        print(n if n is not None else render_term(normalize(subject, args.fuel)))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _budget(text: str) -> int:
    """An argparse type: a count of steps or a depth, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {n}")
    return n


# verb, help, runner, whether it takes --search-depth
_VERBS = (
    ("check", "check the file's judgments", _cmd_check, True),
    ("motivate", "construct closed witnesses for the environment", _cmd_motivate, True),
    ("inhabit", "search for inhabitants of the file's goals", _cmd_inhabit, True),
    ("normalize", "print normal forms", _cmd_reduce, False),
    ("eval", "normalize and read numerals back", _cmd_reduce, False),
)


@functools.cache  # built on first use, not at import: set-up stays cheap
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pedacc",
        description="Proof checker for the restricted calculus of constructions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, summary, run, searches in _VERBS:
        p = sub.add_parser(verb, help=summary)
        p.set_defaults(run=run)
        p.add_argument("file", metavar="FILE", help="source file to process")
        p.add_argument("--fuel", type=_budget, default=DEFAULT_FUEL, metavar="N",
                       help="reduction step budget (default %(default)s)")
        if searches:
            p.add_argument("--search-depth", type=_budget, default=DEFAULT_SEARCH_DEPTH,
                           metavar="N", help="witness search depth (default %(default)s)")
    check = sub.choices["check"]
    check.add_argument("--system", choices=[m.value for m in SystemMode], default="ccr",
                       help="type system to check in (default %(default)s)")
    check.add_argument("--emit-derivation", metavar="PATH",
                       help="write the derivation (or diagnostic) as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except _UsageError as e:
        print(f"pedacc: {e}", file=sys.stderr)
        return 2
    except FuelExhausted as e:  # only normalize and eval let it out
        print(f"pedacc: fuel exhausted: {e}", file=sys.stderr)
        return 1
    except RecursionError as e:  # the recursive passes over terms
        message = f"term nests too deeply: {e}"
        # a check leaves no stale certificate, nor a half-written one
        with contextlib.suppress(_UsageError):
            _emit(getattr(args, "emit_derivation", None), Diagnostic("depth", message))
        print(f"pedacc: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

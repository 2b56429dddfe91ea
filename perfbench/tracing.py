"""Spans at pedacc's layer boundaries, recorded from outside the program.

The traced run replaces named public functions in the modules that call
them (``setattr`` on the caller's module, so ``cli`` calling ``check_type``
goes through the wrapper while the kernel's own internal calls do not).
Nothing in ``src/`` is instrumented.  A name that is missing, renamed or
not callable is reported as absent and its layer reads 0; the run goes on.

Spans (name, start, end, parent, item) live in flat arrays while the run
is hot and are written out once it ends.  Every ``_s`` layer metric is a
self time: the span's duration minus the part its child spans cover, so
the layer times of an item add up to its wall time.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import Counter
from time import perf_counter

MODES = ("cc", "ccr", "naivep")

# (module, attribute, span name).  "kernel.check" spans are suffixed with
# the mode found among the call's arguments; the make_search_oracle entry
# wraps the oracle the factory returns, not the factory.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("pedacc.cli", "parse", "surface.parse"),
    ("pedacc.cli", "elaborate", "surface.elaborate"),
    ("pedacc.cli", "render_term", "surface.render"),
    ("pedacc.cli", "render_judgment", "surface.render"),
    ("pedacc.cli", "check_type", "kernel.check"),
    ("pedacc.cli", "infer_type", "kernel.check"),
    ("pedacc.cli", "check_wf", "kernel.check"),
    ("pedacc.cli", "check_motivated_env", "kernel.check"),
    ("pedacc.cli", "contract_derivation", "kernel.contract"),
    ("pedacc.cli", "derivation_to_dict", "kernel.emit"),
    ("pedacc.cli", "motivate_env", "inhabit.motivate"),
    ("pedacc.cli", "normalize", "reduction.normalize"),
    ("pedacc.cli", "to_natural", "prelude.readback"),
    ("pedacc.cli", "make_search_oracle", "inhabit.oracle"),
    ("pedacc.kernel", "normalize", "reduction.normalize"),
    ("pedacc.kernel", "convertible", "reduction.convertible"),
    ("pedacc.kernel", "whnf", "reduction.whnf"),
    ("pedacc.inhabit", "normalize", "reduction.normalize"),
    ("pedacc.inhabit", "convertible", "reduction.convertible"),
    ("pedacc.inhabit", "whnf", "reduction.whnf"),
)

# time spent counting derivation nodes after a kernel call; a span of its
# own so that it is charged to no layer
BOOKKEEPING = "trace.bookkeeping"

# per-layer metric -> the span names whose self times it sums
_TIMES = {
    "surface.parse_s": ("surface.parse",),
    "surface.elaborate_s": ("surface.elaborate",),
    "surface.render_s": ("surface.render",),
    "kernel.check_s.cc": ("kernel.check.cc",),
    "kernel.check_s.ccr": ("kernel.check.ccr",),
    "kernel.check_s.naivep": ("kernel.check.naivep",),
    "kernel.contract_s": ("kernel.contract",),
    "kernel.emit_s": ("kernel.emit",),
    "inhabit.oracle_s": ("inhabit.oracle",),
    "inhabit.motivate_s": ("inhabit.motivate",),
    "reduction.normalize_s": ("reduction.normalize",),
    "reduction.convertible_s": ("reduction.convertible",),
    "reduction.whnf_s": ("reduction.whnf",),
    "prelude.readback_s": ("prelude.readback",),
}
# per-layer metric -> the span names whose calls it counts
_CALLS = {
    "surface.render_calls": ("surface.render",),
    "kernel.check_calls": tuple(f"kernel.check.{m}" for m in (*MODES, "unknown")),
    "inhabit.oracle_calls": ("inhabit.oracle",),
    "reduction.normalize_calls": ("reduction.normalize",),
    "reduction.convertible_calls": ("reduction.convertible",),
    "reduction.whnf_calls": ("reduction.whnf",),
}

# every metric `Tracer.summary` returns, with its unit
METRIC_UNITS: dict[str, str] = {
    **{name: "s" for name in _TIMES},
    **{name: "count" for name in _CALLS},
    "cli.self_s": "s",
    "kernel.reject_share": "share",
    "kernel.derivation_nodes": "count",
    "inhabit.oracle_found_ratio": "share",
    "trace.absent_names": "count",
}


def _mode_of(args, kwargs) -> str:
    for a in (*args, *kwargs.values()):
        if type(a).__name__ == "SystemMode":
            return a.value
    return "unknown"


def _derivation_nodes(result) -> int:
    """Distinct derivation nodes in a kernel result (a derivation, a tuple
    holding derivations, or a diagnostic)."""
    if hasattr(result, "premises"):
        stack = [result]
    elif isinstance(result, tuple):
        stack = [x for x in result if hasattr(x, "premises")]
    else:
        return 0
    seen: set[int] = set()
    while stack:
        d = stack.pop()
        if id(d) not in seen:
            seen.add(id(d))
            stack.extend(d.premises)
    return len(seen)


class Tracer:
    """Records spans for the current item; `install` wraps the targets."""

    def __init__(self) -> None:
        self.item = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._item = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.rejects = 0
        self.nodes = 0
        self.found = 0
        self.absent: list[str] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self._start)
        self._name.append(nid)
        self._item.append(self.item)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(sid)
        self._start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self._end[sid] = perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return traced

    def _check_span(self, fn):
        def traced(*args, **kwargs):
            sid = self._open(f"kernel.check.{_mode_of(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            sid = self._open(BOOKKEEPING)
            if type(result).__name__ == "Diagnostic":
                self.rejects += 1
            self.nodes += _derivation_nodes(result)
            self._close(sid)
            return result
        return traced

    def _oracle_factory(self, factory):
        def traced_factory(*args, **kwargs):
            oracle = factory(*args, **kwargs)

            def traced_oracle(*a, **k):
                sid = self._open("inhabit.oracle")
                try:
                    found = oracle(*a, **k)
                finally:
                    self._close(sid)
                if found is not None:
                    self.found += 1
                return found
            return traced_oracle
        return traced_factory

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if name == "kernel.check":
                wrapper = self._check_span(fn)
            elif name == "inhabit.oracle":
                wrapper = self._oracle_factory(fn)
            else:
                wrapper = self._span(name, fn)
            self._originals.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    # -- results --------------------------------------------------------------

    def summary(self, item_walls: list[float]) -> dict[str, float]:
        """Per-layer metrics over all recorded items, given each item's
        wall time (from `main` called to returned)."""
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        covered = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self._parent[i]
            if p < 0:
                top += dur[i]
            else:
                covered[p] += dur[i]
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self._name[i]]
            self_time[name] += dur[i] - covered[i]
            calls[name] += 1

        out: dict[str, float] = {}
        for metric, names in _TIMES.items():
            out[metric] = sum(self_time[s] for s in names)
        for metric, names in _CALLS.items():
            out[metric] = sum(calls[s] for s in names)
        out["cli.self_s"] = sum(item_walls) - top
        checks = out["kernel.check_calls"]
        out["kernel.reject_share"] = self.rejects / checks if checks else 0.0
        out["kernel.derivation_nodes"] = self.nodes
        oracle_calls = out["inhabit.oracle_calls"]
        out["inhabit.oracle_found_ratio"] = self.found / oracle_calls if oracle_calls else 0.0
        out["trace.absent_names"] = len(self.absent)
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated lines:
        item, name, start_s, end_s, parent (span index, -1 for none)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("item\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for i in range(len(self._start)):
                fh.write(f"{self._item[i]}\t{names[self._name[i]]}\t"
                         f"{self._start[i]:.9f}\t{self._end[i]:.9f}\t{self._parent[i]}\n")

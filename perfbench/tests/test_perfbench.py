"""Tests of the benchmark itself: generators, known answers, checks,
tracing, and a smoke run of each workload.

    python3 -m pytest perfbench/tests -q

Run from the repository root.  The smoke runs take about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pedacc.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import OutputChecker  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402

# prelude items cheap enough for a unit test (factorial alone takes ~10 s in ccr)
CHEAP_PRELUDE = ("id", "zero", "two", "succ", "iter", "enc_fun", "refl_zero")


def _run(item, tmp_path) -> tuple[dict, str | None]:
    """Run one item through pedacc.cli.main the way child.py does."""
    src = tmp_path / "item.ped"
    src.write_text(item.source)
    argv = [item.verb, str(src), *item.args]
    cert = None
    if item.verb == "check":
        cert = str(tmp_path / "cert.json")
        argv += ["--emit-derivation", cert]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pedacc.cli.main(argv)
    return {"k": 0, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": None}, cert


def _tiny(workload: str, seed: int = 3) -> list:
    items = workloads.generate(workload, seed)
    if workload == "check-cert":
        return [i for i in items if i.id.startswith(("arith0/", "negative/"))
                or i.id.startswith("prelude/") and i.id.split("/")[1] in CHEAP_PRELUDE]
    return items[:7]


# -- generators ----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_items(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert [i.source for i in other] != [i.source for i in workloads.generate(workload, 7)]


def test_items_are_identical_across_processes():
    """Byte-identical inputs in a fresh interpreter with another hash seed."""
    code = ("import sys, json; sys.path.insert(0, sys.argv[1]); import workloads as w; "
            "print(json.dumps([[i.source for i in w.generate(n, 5)] for n in w.WORKLOADS]))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code, BENCH], env=env,
                         capture_output=True, text=True, check=True).stdout
    here = [[i.source for i in workloads.generate(n, 5)] for n in workloads.WORKLOADS]
    assert json.loads(out) == here


def test_item_mix_is_fixed():
    for seed in (0, 1):
        cert = workloads.generate("check-cert", seed)
        assert len(cert) >= 100
        assert sum(i.id.startswith("prelude/") for i in cert) == 60
        assert sum(i.expect == "reject" for i in cert) == 3
        envs = workloads.generate("motivate-envs", seed)
        assert len(envs) >= 100
        assert sum(i.expect == "reject" for i in envs) == len(envs) // workloads.REJECT_EVERY
        sizes, lengths = workloads.ENV_SIZES, workloads.ENV_LENGTH_BANDS
        for k, i in enumerate(envs):
            size = sizes[k % len(sizes)]
            lo, hi = lengths[k // len(sizes) % len(lengths)]
            base = i.source.splitlines()[:size]
            assert len(base) == len(i.answer or base) == size
            assert lo * size <= len("\n".join(base)) <= hi * size
        exprs = workloads.generate("eval-arith", seed)
        assert len(exprs) >= 100
        bands = workloads.VALUE_BANDS
        assert all(bands[k % len(bands)][0] <= i.answer <= bands[k % len(bands)][1]
                   for k, i in enumerate(exprs))
    # eval-arith's seed draws the literals; each slot keeps its tree
    trees = [[re.sub(r"\d+", "N", i.source) for i in workloads.generate("eval-arith", seed)]
             for seed in (0, 1)]
    assert trees[0] == trees[1]


# -- known answers and the checks ---------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_answers_hold_on_a_tiny_configuration(workload, tmp_path):
    checker = OutputChecker()
    for item in _tiny(workload):
        record, cert = _run(item, tmp_path)
        assert checker.check(item, record, cert) is None, item.id


def test_checks_catch_wrong_outputs(tmp_path):
    checker = OutputChecker()
    expr = workloads.generate("eval-arith", 1)[0]
    record, _ = _run(expr, tmp_path)
    wrong = workloads.Item(expr.id, "eval", expr.source, answer=expr.answer + 1)
    assert checker.check(wrong, record, None) is not None

    env = next(i for i in workloads.generate("motivate-envs", 1) if i.expect == "accept")
    record, _ = _run(env, tmp_path)
    swapped = workloads.Item(env.id, "motivate", env.source, answer=env.answer[::-1])
    assert checker.check(swapped, record, None) is not None
    # well-formed lines whose witnesses have the wrong types do not pass
    identity = "fun A : Prop => fun x : A => x"
    ill_typed = "".join(f"{name} := {identity}\n" for name in env.answer)
    assert checker.check(env, {**record, "stdout": ill_typed}, None) is not None
    assert checker.check(env, record, None) is None

    # a valid certificate for another judgment does not pass
    judged = workloads.Item("j", "check", "check zero : nat\n", ("--system", "cc"))
    record, cert = _run(judged, tmp_path)
    other = workloads.Item("j", "check", "check 1 : nat\n", ("--system", "cc"))
    assert checker.check(judged, record, cert) is None
    assert checker.check(other, record, cert) is not None
    # an item that raised is wrong whatever its output
    assert checker.check(judged, {**record, "error": "Traceback\nRecursionError"}, cert)


# -- tracing ---------------------------------------------------------------------


def test_tracer_tolerates_absent_names(monkeypatch, tmp_path):
    targets = tracing.TARGETS + (("pedacc.cli", "no_such_function", "surface.parse"),
                                 ("pedacc.no_such_module", "parse", "surface.parse"))
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        item = workloads.Item("e", "eval", "eval plus 2 3\n", answer=5)
        tracer.item = 0
        record, _ = _run(item, tmp_path)
    finally:
        tracer.uninstall()
    assert record["stdout"] == "5\n"
    assert "pedacc.cli.no_such_function" in tracer.absent
    assert "pedacc.no_such_module.parse" in tracer.absent
    summary = tracer.summary([1.0])
    assert set(summary) == set(tracing.METRIC_UNITS)
    assert summary["reduction.normalize_calls"] == 1
    assert summary["surface.parse_s"] > 0
    # uninstall restored the originals
    assert pedacc.cli.normalize.__module__ == "pedacc.reduction"


def test_self_times_cover_the_item(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.item = 0
        item = workloads.Item("c", "check", "check id : top\n", ("--system", "ccr"))
        import time
        t0 = time.perf_counter()
        _run(item, tmp_path)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    s = tracer.summary([wall])
    layer_time = sum(v for k, v in s.items() if tracing.METRIC_UNITS[k] == "s")
    assert s["kernel.check_calls"] == 1 and s["kernel.check_s.ccr"] > 0
    assert s["kernel.derivation_nodes"] > 0 and s["surface.render_calls"] > 0
    # layer self times plus the untraced remainder add up to the item
    assert 0 < layer_time <= wall


# -- the benchmark's entry point ------------------------------------------------------


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run():
    proc = _bench("--workload", "eval-arith", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(result["metrics"]) == per_layer
    assert result["metrics"]["reduction.normalize_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__", "tests"))
    proc = _bench("--workload", "eval-arith", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

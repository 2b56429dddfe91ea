"""One pass of benchmark items, run in a fresh process.

    python3 perfbench/child.py SPEC.json

The spec names the checkout's `src` directory, the items (CLI argv lists),
the range of them to run, and where to append results.  The child times
the import of `pedacc.cli` (set-up), then calls `pedacc.cli.main(argv)`
for each item in the range, in order, with stdout and stderr captured, so
items share the process the way repeated library use would: module-level
caches carry over, per-call ones do not.

After each item, outside its timed region, the child times a fixed
pure-Python loop (`reference`).  The parent uses these readings to correct
item times for the machine's speed at that moment; see run.py.

Each item's result is appended as one JSON line and flushed before the
next item starts, so a crash loses only the item that crashed; the parent
restarts the pass after it.  The last line carries the process's peak
resident memory and, on a traced pass, the per-layer summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


REFERENCE_ITERATIONS = 30_000


def reference() -> float:
    """Seconds taken by a fixed loop that touches no program state."""
    t0 = perf_counter()
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x += i
    return perf_counter() - t0


def _run_item(main, argv: list[str]) -> tuple[int | None, str, str, float, str | None]:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as e:           # argparse reports usage errors this way
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:                 # one bad item must not lose the pass
        rc = None
        error = traceback.format_exc(limit=3)[-2000:]
    latency = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), latency, error


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)

    refs = [reference() for _ in range(5)]
    t0 = perf_counter()
    import pedacc.cli as cli
    setup_s = perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"pedacc was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    items = spec["items"]
    keep_stdout = spec.get("keep_stdout", False)
    walls: list[float] = []
    with open(spec["results"], "a", encoding="utf-8") as res:
        res.write(json.dumps({"setup_s": setup_s, "ref_s": sorted(refs)[2]}) + "\n")
        res.flush()
        for k in range(spec.get("start", 0), spec.get("end", len(items))):
            if tracer is not None:
                tracer.item = k
            rc, out, err, latency, error = _run_item(cli.main, items[k])
            walls.append(latency)
            record = {"k": k, "rc": rc, "latency_s": latency, "ref_s": reference(),
                      "stdout_bytes": len(out.encode("utf-8")),
                      "stderr": err[:2000], "error": error}
            if keep_stdout:
                record["stdout"] = out
            res.write(json.dumps(record) + "\n")
            res.flush()

        done: dict = {"done": True,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None:
            tracer.uninstall()
            done["layers"] = tracer.summary(walls)
            done["absent"] = tracer.absent
            if spec.get("spans"):
                tracer.write(spec["spans"])
        res.write(json.dumps(done) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

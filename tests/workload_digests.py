"""Digests of every benchmark workload item's output, to compare two checkouts.

    python tests/workload_digests.py [--src SRC] [--seeds 1 13] > digests.txt

For each item of the three workloads of `perfbench/workloads.py`, at each
seed, the script runs the item's CLI call through `pedacc.cli.main` in this
process, as the benchmark's child process does, and prints one line:

    WORKLOAD SEED ITEM-ID EXIT-CODE SHA256(stdout) SHA256(stderr) SHA256(certificate)

The certificate digest is ``-`` for a verb that writes none.  `--src` names
the `src` directory whose `pedacc` runs (by default this checkout's), so
the same items run against another checkout's code with

    python tests/workload_digests.py --src OTHER/src > other.txt
    diff other.txt digests.txt

and an empty diff means equal exit codes, stdout, stderr and certificates.
The items come from this checkout's `perfbench`, which is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the src directory whose pedacc runs the items")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 13])
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), str(ROOT / "perfbench")]
    import workloads
    from pedacc import cli

    lines = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                for item in workloads.generate(name, seed):
                    Path("item.ped").write_text(item.source, encoding="utf-8")
                    cert = Path("item.json")
                    cert.unlink(missing_ok=True)
                    argv = [item.verb, "item.ped", *item.args]
                    if item.verb == "check":
                        argv += ["--emit-derivation", str(cert)]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            rc = cli.main(argv)
                        except SystemExit as e:  # argparse reports usage errors this way
                            rc = e.code
                    cert_sha = _sha(cert.read_bytes()) if cert.exists() else "-"
                    lines.append(" ".join([name, str(seed), item.id, str(rc),
                                           _sha(out.getvalue().encode()),
                                           _sha(err.getvalue().encode()), cert_sha]))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

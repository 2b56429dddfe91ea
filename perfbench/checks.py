"""Output checks, run after a pass and outside every timed region.

Each check returns None when the item's output matches its known answer,
and otherwise a one-line reason.  Certificates are read back through
pedacc's surface parser: a certificate is correct when it parses, says
`status: ok`, lists premises before the nodes that use them, and its root
concludes exactly the judgment the item's source asks for (or, for a
known reject, says `status: error` with the expected rule).  Motivations
are read back the same way and checked against the item's environment by
pedacc's kernel.
"""

from __future__ import annotations

import json


class OutputChecker:
    """Holds the pedacc modules the checks parse with; create it after
    the checkout's `src` is on sys.path."""

    def __init__(self) -> None:
        from pedacc import kernel, surface
        self.surface = surface
        self.kernel = kernel
        # (item, printed witnesses) -> verdict; passes repeat their items,
        # and checking witnesses costs more than printing them
        self._motivations: dict[tuple[object, str], str | None] = {}

    def check(self, item, record: dict, cert_path: str | None) -> str | None:
        if record.get("error"):
            return "raised: " + record["error"].strip().splitlines()[-1]
        rc = record.get("rc")
        want_rc = 0 if item.expect == "accept" else 1
        if rc != want_rc:
            return f"exit {rc}, expected {want_rc}: {record.get('stderr', '')[:200]!r}"
        if item.verb == "check":
            return self._certificate(item, cert_path)
        if item.verb == "motivate":
            return self._motivation(item, record)
        if item.verb == "eval":
            want = f"{item.answer}\n"
            got = record.get("stdout")
            return None if got == want else f"printed {got!r}, expected {want!r}"
        return f"no check for verb {item.verb!r}"

    # -- check --------------------------------------------------------------

    def _term(self, text: str):
        t = self.surface.parse_term(text)
        if isinstance(t, self.surface.Diagnostic):
            raise ValueError(f"unparsable term {text[:80]!r}: {t.message}")
        return t

    def _certificate(self, item, cert_path: str | None) -> str | None:
        try:
            with open(cert_path, encoding="utf-8") as fh:
                cert = json.load(fh)
        except (OSError, TypeError, ValueError) as e:
            return f"certificate unreadable: {e}"
        if item.expect == "reject":
            if cert.get("status") != "error":
                return f"certificate status {cert.get('status')!r}, expected 'error'"
            rule = cert.get("diagnostic", {}).get("rule")
            return None if rule == item.answer else f"rejected by {rule!r}, expected {item.answer!r}"
        if cert.get("status") != "ok":
            return f"certificate status {cert.get('status')!r}, expected 'ok'"

        env, cmds = self.surface.elaborate(self.surface.parse(item.source))
        want_env = [(e.name, e.ty) for e in env]
        checks = [c for c in cmds if isinstance(c, self.surface.CheckCmd)]
        derivations = cert.get("derivations", [])
        if len(derivations) != max(1, len(checks)):
            return f"{len(derivations)} derivations, expected {max(1, len(checks))}"
        try:
            for i, d in enumerate(derivations):
                nodes, root = d["nodes"], d["root"]
                for j, node in enumerate(nodes):
                    if any(not 0 <= p < j for p in node["premises"]):
                        return f"derivation {i}: node {j} cites a later premise"
                c = nodes[root]["conclusion"]
                got_env = [(e["name"], self._term(e["type"])) for e in c["env"]]
                if got_env != want_env:
                    return f"derivation {i}: root environment differs from the source's"
                if not checks:
                    if c["judgment"] != "wf":
                        return f"root concludes {c['judgment']!r}, expected 'wf'"
                    continue
                cmd = checks[i]
                if (c["judgment"] != "hastype"
                        or self._term(c["term"]) != cmd.subject
                        or self._term(c["type"]) != cmd.expected):
                    return f"derivation {i}: root does not conclude the checked judgment"
        except (KeyError, IndexError, TypeError, ValueError) as e:
            return f"malformed certificate: {e!r}"
        return None

    # -- motivate -----------------------------------------------------------

    def _motivation(self, item, record: dict) -> str | None:
        out = record.get("stdout", "")
        key = (item, out)
        if key not in self._motivations:
            self._motivations[key] = self._check_motivation(item, record)
        return self._motivations[key]

    def _check_motivation(self, item, record: dict) -> str | None:
        out = record.get("stdout", "")
        if item.expect == "reject":
            if out:
                return "a rejected environment printed witnesses"
            err = record.get("stderr", "")
            return None if err.startswith("error[") else f"no diagnostic: {err[:200]!r}"
        lines = out.splitlines()
        if len(lines) != len(item.answer):
            return f"{len(lines)} witness lines for {len(item.answer)} hypotheses"
        assignments = []
        for name, line in zip(item.answer, lines):
            got, sep, term = line.partition(" := ")
            if not sep or got != name:
                return f"line {line[:60]!r} does not motivate {name!r}"
            try:
                assignments.append((name, self._term(term)))
            except ValueError as e:
                return f"witness for {name}: {e}"
        # Each witness must be closed and check, in the empty environment,
        # against its hypothesis's type with the earlier witnesses
        # substituted.  The full calculus decides that as well as the
        # restricted one, without a witness search for each binder.
        env, _ = self.surface.elaborate(self.surface.parse(item.source))
        verdict = self.kernel.check_motivated_env(
            env, self.kernel.Motivation(tuple(assignments)), self.kernel.SystemMode.CC)
        if isinstance(verdict, self.kernel.Diagnostic):
            return f"witnesses do not motivate the environment: {verdict.message}"
        return None

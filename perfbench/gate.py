"""Correctness gate: exit codes and output-file digests against a reference.

The reference (``reference.json``, written only by ``record.py``) maps an
operation key to its expected exit code and the sha256 of every file it
writes.  An operation whose key is not in the reference is held to the exit
code 0 and to the digests of its own first run in the same benchmark run, so
a nondeterministic output still fails; the gate never adds to the reference.
"""

from __future__ import annotations

import hashlib
import json
import os


def load_reference(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def digest_files(directory, names) -> dict:
    out = {}
    for name in sorted(names):
        h = hashlib.sha256()
        with open(os.path.join(directory, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[name] = h.hexdigest()
    return out


def check(key, code, digests, reference, first_seen) -> list[str]:
    """Problems with one operation's result; empty when it passes.

    ``first_seen`` collects results of keys missing from ``reference`` and is
    updated in place on their first passing run."""
    expected = reference.get(key) or first_seen.get(key)
    source = "reference" if key in reference else "first run"
    problems = []
    want_code = expected["exit"] if expected else 0
    if code != want_code:
        problems.append(f"{key}: exit code {code}, {source} {want_code}")
    if expected is not None and digests != expected["files"]:
        diff = sorted(n for n in set(digests) | set(expected["files"])
                      if digests.get(n) != expected["files"].get(n))
        problems.append(f"{key}: outputs differ from {source}: {diff}")
    if expected is None and not problems:
        first_seen[key] = {"exit": code, "files": digests}
    return problems

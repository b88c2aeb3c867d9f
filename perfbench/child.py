"""Run one benchmark operation in this process under the layer tracer.

Usage::

    python3 perfbench/child.py TRACE_OUT.json OP_JSON

``OP_JSON`` is an operation as built by ``workloads.Op.spec``.  The process
exits with the operation's exit code and writes its per-layer figures (see
``tracer.layer_metrics``) and span count to ``TRACE_OUT.json``, also when
the operation raises.
"""

from __future__ import annotations

import json
import sys

import tracer


def run_op(spec: dict) -> int:
    if spec["kind"] == "cli":
        import padlab.cli
        return padlab.cli.main(spec["argv"])
    if spec["kind"] == "validate":
        from padlab import spaces
        spaces.validate_metric(spaces.parse_fixture(spec["fixture"]), seed=spec["seed"],
                               samples=spec["samples"])
        return 0
    raise ValueError(f"unknown op kind {spec['kind']!r}")


def main(argv) -> int:
    out_path, spec = argv[0], json.loads(argv[1])
    t = tracer.install()
    try:
        return run_op(spec)
    finally:
        t.restore()
        with open(out_path, "w") as fh:
            json.dump({"spans": len(t.spans), "layers": tracer.layer_metrics(t.spans)}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

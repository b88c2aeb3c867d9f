"""Record the reference exit codes and output digests of the benchmark's ops.

Usage, from the root of a padlab checkout::

    python3 perfbench/record.py [SEED ...]

For each workload and seed (default: 0-15, which holds every pinned and
held-out seed; see RATIONALE.md), and for the held-out carve seeds, runs the
op sequence twice in fresh processes unless all its ops are recorded.  Ops
already in ``perfbench/reference.json`` must match it; a new op must exit 0,
pass its semantic check and write byte-identical files on both runs, and is
then added.  Keys already present are never rewritten: to re-baseline on
purpose, delete them from the file first.  Prints the Moser-Tardos round
count of every carve op it runs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import gate
import run
import workloads

REFERENCE = os.path.join(run.BENCH_DIR, "reference.json")


def plans(seeds):
    for name, build in workloads.WORKLOADS.items():
        for seed in seeds:
            yield f"{name}-{seed}", lambda inputs, b=build, s=seed: b(s, inputs)
    yield "carve-held-out", lambda inputs: workloads.carve_seg3000(
        0, inputs, workloads.HELD_OUT_CARVE_SEEDS)


def record_plan(root, tag, build, reference) -> int:
    work = os.path.join(run.BENCH_DIR, ".work", f"record-{tag}-{os.getpid()}")
    bench = run.Benchmark(root, build(os.path.join(work, "inputs")), work, reference)
    if all(op.key in reference for op in bench.plan.ops + bench.plan.prep):
        return 0
    os.makedirs(work)
    try:
        bench.prepare()
        for attempt in range(2):
            seq_dir = os.path.join(work, f"seq{attempt}")
            os.makedirs(seq_dir)
            for op in bench.plan.ops:
                bench.run_op(op, seq_dir)
        for name in sorted(os.listdir(seq_dir)):
            if name.endswith(".meta.json"):
                with open(os.path.join(seq_dir, name)) as fh:
                    meta = json.load(fh)
                print(f"carve {meta['fixture']} seed={meta['seed']}: {meta['rounds']} rounds")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bench.problems:
        raise RuntimeError("\n".join(bench.problems))
    reference.update(bench.first_seen)
    return len(bench.first_seen)


def main(seeds) -> int:
    root = os.getcwd()
    reference = gate.load_reference(REFERENCE)
    added = 0
    try:
        for tag, build in plans(seeds):
            added += record_plan(root, tag, build, reference)
    except RuntimeError as exc:
        print(f"not recorded:\n{exc}", file=sys.stderr)
        return 1
    finally:
        with open(REFERENCE, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"added {added} ops; {len(reference)} in {os.path.relpath(REFERENCE, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or range(16)))

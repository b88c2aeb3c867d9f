"""padlab benchmark harness.

Usage, from the root of a padlab checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's operation sequence (see ``workloads.py``) again and
again for S seconds, each operation in a fresh child process and one process
at a time, and checks every operation's exit code and output bytes (see
``gate.py``).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``, medians over
  the sequences of the run (``setup_s``: over several cold set-up probes);
* ``--trace 1``: the per-layer metrics, from sequences whose children run
  each operation under ``tracer.py``, plus the tracing overhead against one
  untraced sequence of the same run.

A result file with every sample and a description of the machine is written
to ``perfbench/results/``.  Exits 2 without a result when the current
directory holds no padlab source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import gate
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MIN_SEQUENCES = 2       # untraced sequences per run, whatever --seconds says
SETUP_PROBES = 7        # cold set-up children per run; setup_s is their median
OP_TIMEOUT_S = 150      # a child still running after this is killed
RUN_BUDGET_S = 120      # no sequence starts later than this into the run
SETUP_PROBE_CODE = ("import sys, padlab.cli; from padlab.spaces import parse_fixture; "
                    "[parse_fixture(f) for f in sys.argv[1:]]")


@dataclass
class Sample:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def quartiles(values) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "max": values[-1]}


class Benchmark:
    def __init__(self, root, plan, work, reference):
        self.plan = plan
        self.work = work
        self.inputs = os.path.join(work, "inputs")
        self.env = workloads.child_env(root)
        self.reference = reference
        self.first_seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.log_path = os.path.join(work, "children.log")
        self._seq = 0

    # -- children ----------------------------------------------------------

    def run_child(self, cmd, cwd) -> Sample:
        """Spawn one child, wait for it, and read its own rusage."""
        with open(self.log_path, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss)

    def judge(self, op, code, directory, names):
        """Count one operation and record why it failed, if it did."""
        self.attempted += 1
        digests = gate.digest_files(directory, names)
        problems = gate.check(op.key, code, digests, self.reference, self.first_seen)
        if not problems and op.check is not None:
            try:
                msg = op.check(directory)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                msg = f"{op.key}: cannot read outputs: {exc}"
            if msg:
                problems.append(msg)
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def run_op(self, op, cwd, trace_out=None):
        """Run and judge one operation; returns its sample and output files."""
        before = set(os.listdir(cwd))
        if trace_out is None:
            cmd = op.command(BENCH_DIR)
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), trace_out,
                   json.dumps(op.spec)]
        sample = self.run_child(cmd, cwd)
        names = sorted(set(os.listdir(cwd)) - before)
        self.judge(op, sample.code, cwd, names)
        return sample, names

    # -- phases ------------------------------------------------------------

    def prepare(self) -> str:
        """Write configs, warm the bytecode cache, build untimed inputs.
        Returns the numpy version the children import."""
        os.makedirs(self.inputs)
        for name, doc in self.plan.configs.items():
            with open(os.path.join(self.inputs, name), "w") as fh:
                json.dump(doc, fh)
        warm = subprocess.run([sys.executable, "-c", "import padlab.cli, numpy; "
                               "print(numpy.__version__)"], cwd=self.work, env=self.env,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if warm.returncode != 0:
            self.problems.append(f"cannot import padlab: {warm.stderr.strip()[-500:]}")
        for op in self.plan.prep:
            self.run_op(op, self.inputs)
        return warm.stdout.strip() or None

    def setup_probes(self) -> list[float]:
        cmd = [sys.executable, "-c", SETUP_PROBE_CODE, *self.plan.fixtures]
        walls = []
        for _ in range(SETUP_PROBES):
            sample = self.run_child(cmd, self.work)
            self.attempted += 1
            if sample.code != 0:
                self.failed += 1
                self.problems.append(f"set-up probe exited {sample.code}")
            walls.append(sample.wall_s)
        return walls

    def sequence(self, traced=False) -> dict:
        self._seq += 1
        seq_dir = os.path.join(self.work, f"seq{self._seq}")
        trace_dir = os.path.join(self.work, f"trace{self._seq}")
        os.makedirs(seq_dir)
        os.makedirs(trace_dir)
        out = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "output_bytes": 0,
               "spans": 0, "layers": []}
        for k, op in enumerate(self.plan.ops):
            trace_out = os.path.join(trace_dir, f"op{k}.json") if traced else None
            sample, names = self.run_op(op, seq_dir, trace_out)
            out["wall_s"] += sample.wall_s
            out["cpu_s"] += sample.cpu_s
            out["peak_rss_mb"] = max(out["peak_rss_mb"], sample.maxrss_kb / 1024.0)
            out["output_bytes"] += sum(os.path.getsize(os.path.join(seq_dir, n))
                                       for n in names)
            if traced and os.path.exists(trace_out):
                with open(trace_out) as fh:
                    doc = json.load(fh)
                out["spans"] += doc["spans"]
                out["layers"].append(doc["layers"])
        shutil.rmtree(seq_dir)
        shutil.rmtree(trace_dir)
        return out

    def sequences(self, seconds, started, traced=False, minimum=1) -> list[dict]:
        runs, t0 = [], time.perf_counter()
        while (len(runs) < minimum or time.perf_counter() - t0 < seconds) \
                and time.perf_counter() - started < RUN_BUDGET_S:
            runs.append(self.sequence(traced))
        return runs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(seqs, setup_walls, attempted, failed) -> dict:
    return {
        "wall_s": statistics.median(s["wall_s"] for s in seqs),
        "cpu_s": statistics.median(s["cpu_s"] for s in seqs),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in seqs),
        "setup_s": statistics.median(setup_walls),
        "ops_ok_frac": (attempted - failed) / attempted,
    }


def per_layer(traced, untraced, names) -> dict:
    per_seq = []
    for s in traced:
        m = tracer.combine(s["layers"])
        m.update({"cli.output_bytes": s["output_bytes"], "trace.wall_s": s["wall_s"],
                  "trace.spans": s["spans"]})
        per_seq.append(tracer.finalize(m, names))
    out = {name: statistics.median(m[name] for m in per_seq) for name in names}
    base = statistics.median(s["wall_s"] for s in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - base
    out["trace.overhead_frac"] = out["trace.overhead_s"] / base
    return out


# ---------------------------------------------------------------------------
# Machine description
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _tree_sha256(top):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(top)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine(root, numpy_version) -> dict:
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _tree_sha256(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "padlab", "cli.py")):
        print("error: run from the root of a padlab checkout (no src/padlab/cli.py here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reference = gate.load_reference(os.path.join(BENCH_DIR, "reference.json"))
    work = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    bench = Benchmark(root, workloads.WORKLOADS[args.workload](args.seed,
                                                               os.path.join(work, "inputs")),
                      work, reference)
    os.makedirs(work)
    try:
        numpy_version = bench.prepare()
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine(root, numpy_version)}
        if args.trace:
            declared = spec["per_layer"]
            untraced = bench.sequences(0, started, minimum=1)
            traced = bench.sequences(args.seconds, started, traced=True)
            values = per_layer(traced, untraced, [m["name"] for m in declared])
            record["sequences"] = {"untraced": untraced, "traced": traced}
        else:
            declared = spec["end_to_end"]
            setup_walls = bench.setup_probes()
            seqs = bench.sequences(args.seconds, started, minimum=MIN_SEQUENCES)
            values = end_to_end(seqs, setup_walls, bench.attempted, bench.failed)
            record["sequences"] = seqs
            record["setup_s"] = setup_walls
            record["quartiles"] = {k: quartiles([s[k] for s in seqs])
                                   for k in ("wall_s", "cpu_s", "peak_rss_mb")}
            record["quartiles"]["setup_s"] = quartiles(setup_walls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": bench.failed == 0 and not bench.problems,
              "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    record.update(result)
    record["problems"] = bench.problems
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in bench.problems[:20]:
        print(f"FAILED {problem}")
    for key, q in record.get("quartiles", {}).items():
        print(f"{key}: median {q['median']:.4f} q1 {q['q1']:.4f} q3 {q['q3']:.4f} "
              f"n={q['n']}")
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"result file: {os.path.relpath(path, root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

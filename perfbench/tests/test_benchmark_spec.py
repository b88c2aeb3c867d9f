"""BENCHMARK.json against the harness, and the harness's refusal to run
without a source tree."""

import json
import os
import re
import shutil
import subprocess
import sys

from conftest import BENCH_DIR, ROOT

import tracer
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_and_workload_names():
    spec = _spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_traced_figure_is_declared():
    declared = {m["name"] for m in _spec()["per_layer"]}
    counters = {"build_net": {"net_size": 1}, "net_graph": {"max_degree": 1},
                "greedy_color": {"num_colors": 1}, "sample_texp": {"draws": 1},
                "sample_tgeo": {"draws": 1}, "dump_json": {"json_bytes": 1},
                "moser_tardos": {"rounds": 1, "initial_draws": 1, "useful_rounds": 1},
                "dist_row": {"entries": 1}, "dist_block": {"entries": 1}}
    every_span = [tracer.Span(name, layer, -1, counters=counters.get(name))
                  for layer, funcs in tracer.FUNCTIONS.items() for name in funcs]
    every_span += [tracer.Span(m, layer, -1, counters=counters.get(m))
                   for layer, _, m in tracer.METHODS]
    for s in every_span:
        s.rss0 = s.rss1 = 0
    produced = set(tracer.layer_metrics(every_span)) - set(tracer.RAW_KEYS)
    assert produced <= declared, produced - declared


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "metric_checks",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout

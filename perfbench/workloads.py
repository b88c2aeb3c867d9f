"""The benchmark's workloads: pinned padlab operations built from a seed.

Each workload turns ``--seed`` into a :class:`Plan`: the fixtures its set-up
probe parses, the config files it writes, untimed preparation ops and the
timed op sequence.  Every op runs in a fresh child process through a real
padlab entry point (``python3 -m padlab.cli ...``, or ``validate_metric``
for the one library-only check).  Sizes are chosen so that a sequence takes
a few seconds on one core; ``RATIONALE.md`` says why each workload exists
and how it was scaled from the acceptance configs.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass, field

# cutprob: the C3 config (segment:50000, M=9585) scaled by 1/5 in length and
# in the radius cap M, so the segment-to-M ratio and the law are unchanged.
CUTPROB_FIXTURE = "segment:10000"
CUTPROB_GRID = [{"kind": "tgeo", "b": 1.0, "p": 1 / 400, "M": 1917, "m": 2, "r": 9.0}]
CARVE_FIXTURE = "segment:3000"
CARVE_SCHEDULE = {"kind": "texp", "N": 3, "r": 3.0, "eps": 0.05, "D": 100.0}
# Moser-Tardos round counts are heavy-tailed across seeds (1 to 203 rounds
# over seeds 0-19 at D=100), so a seed-dependent window would make wall_s
# vary twofold between runs: every run carves the pinned seeds 0-4, and the
# held-out seeds 5-9 are checked when the reference is recorded.
CARVE_SEEDS = range(0, 5)
HELD_OUT_CARVE_SEEDS = range(5, 10)
CLOUD_POINTS = 4000
VALIDATE_FIXTURE = "grid:20x20:linf"
VALIDATE_SAMPLES = 10_000
GEN_FIXTURE = "heis:6"
GROWTH_FIXTURE = "heis:8"
GROWTH_RADII = "3,4,5,6"

# Thread-count variables of the BLAS/OpenMP runtimes numpy may load.
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env(root) -> dict:
    """The environment of every op process: padlab from ``root/src``, one
    thread everywhere, and no ``LAB_THREADS`` (it would override --threads)."""
    env = {k: v for k, v in os.environ.items() if k not in ("LAB_THREADS", "PYTHONPATH")}
    env.update({name: "1" for name in _ONE_THREAD})
    env["PYTHONPATH"] = os.path.join(os.path.abspath(root), "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Op:
    """One operation: ``key`` names it in the reference digests, ``spec`` is
    what ``child.py`` runs under the tracer, ``check`` reads its outputs in
    the sequence directory and returns a problem or None."""

    key: str
    spec: dict
    check: object = None

    def command(self, bench_dir) -> list[str]:
        """The untraced command line, run from the sequence directory."""
        py = sys.executable
        if self.spec["kind"] == "cli":
            return [py, "-m", "padlab.cli", *self.spec["argv"]]
        if self.spec["kind"] == "validate":
            code = ("import sys; from padlab.spaces import parse_fixture, validate_metric; "
                    "validate_metric(parse_fixture(sys.argv[1]), seed=int(sys.argv[2]), "
                    "samples=int(sys.argv[3]))")
            return [py, "-c", code, self.spec["fixture"], str(self.spec["seed"]),
                    str(self.spec["samples"])]
        if self.spec["kind"] == "tiled-cover":
            return [py, os.path.join(bench_dir, "inputs.py"), "tiled-cover",
                    str(self.spec["n"]), str(self.spec["seed"]), self.spec["out"]]
        raise ValueError(f"unknown op kind {self.spec['kind']!r}")


@dataclass
class Plan:
    fixtures: list            # parsed by the set-up probe
    ops: list                 # the timed sequence
    configs: dict = field(default_factory=dict)  # file name -> JSON document
    prep: list = field(default_factory=list)     # untimed, run in the inputs directory


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": ["--threads", "1", *argv]}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Semantic checks (the digest gate covers the exact bytes)
# ---------------------------------------------------------------------------


def _check_cutprob(out):
    def check(d):
        with open(os.path.join(d, out)) as fh:
            rows = list(csv.DictReader(fh))
        bad = [r["experiment"] for r in rows if r["pass"] != "true"]
        return f"cutprob rows without pass=true: {bad}" if bad or not rows else None
    return check


def _check_carve(base):
    def check(d):
        report = _read_json(os.path.join(d, base + ".verification.json"))
        return None if report.get("passed") is True else f"{base}: verification not passed"
    return check


def _check_cover(out, n):
    def check(d):
        doc = _read_json(os.path.join(d, out))
        covered = {p for layer in doc["layers"] for s in layer for p in s}
        if doc.get("kind") != "cover" or covered != set(range(n)):
            return f"{out}: not a cover of all {n} points"
        return None
    return check


def _check_padded(out):
    def check(d):
        doc = _read_json(os.path.join(d, out))
        return None if doc.get("kind") == "padded_decomposition" else f"{out}: wrong kind"
    return check


def _check_growth(out, radii):
    def check(d):
        with open(os.path.join(d, out)) as fh:
            gammas = [int(r["gamma_lower"]) for r in csv.DictReader(fh)]
        slope = _read_json(os.path.join(d, out + ".slope.json"))
        if len(gammas) != len(radii) or gammas != sorted(gammas) or not slope["slope_defined"]:
            return f"{out}: growth table not increasing over {len(radii)} radii"
        return None
    return check


def _check_gen(out, fixture):
    def check(d):
        side = _read_json(os.path.join(d, out + ".json"))
        return None if side.get("fixture") == fixture else f"{out}.json: wrong fixture"
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def cutprob_seg(seed: int, inputs: str) -> Plan:
    cfg = {"fixture": CUTPROB_FIXTURE, "net": {"eps": 1, "delta": 1}, "trials": 200,
           "centers": 100, "seed": seed, "grid": CUTPROB_GRID, "out": "cutprob.csv"}
    op = Op(f"cutprob {CUTPROB_FIXTURE} seed={seed}",
            _cli("cutprob", "--config", os.path.join(inputs, "cutprob.json")),
            _check_cutprob("cutprob.csv"))
    return Plan([CUTPROB_FIXTURE], [op], {"cutprob.json": cfg})


def carve_seg3000(seed: int, inputs: str, carve_seeds=CARVE_SEEDS) -> Plan:
    """The same ops for every ``seed`` (see ``CARVE_SEEDS``)."""
    configs, ops = {}, []
    for k in carve_seeds:
        name = f"carve{k}.json"
        configs[name] = {"fixture": CARVE_FIXTURE, "schedule": CARVE_SCHEDULE,
                         "seed": k, "out": f"carve{k}"}
        ops.append(Op(f"carve {CARVE_FIXTURE} seed={k}",
                      _cli("carve", "--config", os.path.join(inputs, name)),
                      _check_carve(f"carve{k}")))
    return Plan([CARVE_FIXTURE], ops, configs)


def roundtrip_cloud(seed: int, inputs: str) -> Plan:
    fixture = f"cloud:{CLOUD_POINTS}:2:seed={seed}"
    cover = os.path.join(inputs, "cover.json")
    prep = Op(f"tiled-cover {fixture}",
              {"kind": "tiled-cover", "n": CLOUD_POINTS, "seed": seed, "out": "cover.json"},
              _check_cover("cover.json", CLOUD_POINTS))
    ops = [
        Op(f"convert to-padded {fixture} R=0.04 r=0.01",
           _cli("convert", "--input", cover, "--direction", "to-padded",
                "--R", "0.04", "--r", "0.01", "--out", "padded.json"),
           _check_padded("padded.json")),
        Op(f"convert to-cover {fixture} R=0.04 r=0.01",
           _cli("convert", "--input", "padded.json", "--direction", "to-cover",
                "--out", "cover_back.json"),
           _check_cover("cover_back.json", CLOUD_POINTS)),
    ]
    return Plan([fixture], ops, prep=[prep])


def metric_checks(seed: int, inputs: str) -> Plan:
    ops = [
        Op(f"validate {VALIDATE_FIXTURE} seed={seed} samples={VALIDATE_SAMPLES}",
           {"kind": "validate", "fixture": VALIDATE_FIXTURE, "seed": seed,
            "samples": VALIDATE_SAMPLES}),
        Op(f"gen {GEN_FIXTURE}", _cli("gen", "--fixture", GEN_FIXTURE, "--out", "gen.txt"),
           _check_gen("gen.txt", GEN_FIXTURE)),
        Op(f"growth {GROWTH_FIXTURE} radii={GROWTH_RADII} seed={seed}",
           _cli("growth", "--fixture", GROWTH_FIXTURE, "--radii", GROWTH_RADII,
                "--seed", str(seed), "--out", "growth.csv"),
           _check_growth("growth.csv", GROWTH_RADII.split(","))),
    ]
    return Plan([VALIDATE_FIXTURE, GEN_FIXTURE, GROWTH_FIXTURE], ops)


WORKLOADS = {
    "cutprob_seg10k": cutprob_seg,
    "carve_seg3000": carve_seg3000,
    "roundtrip_cloud4k": roundtrip_cloud,
    "metric_checks": metric_checks,
}

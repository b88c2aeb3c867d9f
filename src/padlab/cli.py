"""Command-line front end.

Subcommands::

    gen       write a fixture file plus a JSON sidecar of measured constants
    carve     run the resampling pipeline and verify the claimed padding
    cutprob   Monte Carlo cut frequencies against the closed-form bounds
    growth    growth-function table and its log-log slope
    convert   grow a cover into a padded decomposition, or shrink one back
    lll-check evaluate the feasibility budget of a schedule

Exit codes: 0 = pass, 1 = a verified failure (a bound or verifier said no),
2 = usage or configuration error.  Identical config + seed produces
byte-identical output files: floats are capped at 12 significant digits,
JSON keys are sorted, and nothing timestamps itself.

``--threads`` spreads cutprob's probe centers within each chunk of trials
over at most one thread per CPU; it never changes results.  A config, a
cutprob ``net`` and a schedule refuse keys they do not read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .carving import CarveError, cut_probability_mc
from .decomposition import (_BOUND, ConfigError, VerificationFailure, _known_keys, _number,
                            _shown, _text, cover_from_json, cover_from_padded, cover_to_json,
                            decomposition_from_json, decomposition_to_json, dump_json,
                            padded_from_cover)
from .growth import _COVER_MATRIX_GUARD, doubling_constant_estimate, growth_table, loglog_slope
from .lll import (MoserTardosFailure, certify_decomposition, schedule_from_json,
                  schedule_to_json)
from .nets import build_net
from .spaces import CoordSpace, _near_blocks, parse_fixture

PASS, FAIL, USAGE = 0, 1, 2


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _run_fields(args, cfg: dict, *keys) -> tuple:
    """The fixture, seed and output path of a carve or cutprob run, whose config
    holds no key but these and ``keys``; a flag wins over its config key."""
    _known_keys(cfg, f"{args.command} config", ("fixture", "seed", "out", *keys))
    return (_text(args.fixture or cfg.get("fixture"), '"fixture"'),
            _number(cfg.get("seed", 0) if args.seed is None else args.seed, '"seed"',
                    "an integer >= 0", integer=True, low=0),
            _text(args.out or cfg.get("out"), '"out"'))


def _threads(args) -> int:
    return max(1, min(args.threads, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    """Write a fixture file and its sidecar.  Points go out at 12 significant digits,
    so a reloaded cloud's distances move by up to 1.6e-12.  Other spaces go out as
    their unit-distance pairs: that reloads a tree or an unweighted ``edges:`` input,
    but not a Heisenberg ball (geodesics leave it) nor a weighted ``edges:`` input."""
    space = parse_fixture(args.fixture)
    out = args.out
    sidecar = {"fixture": args.fixture, "n": space.n}
    if isinstance(space, CoordSpace):
        sidecar["format"] = "points"
        sidecar["metric"] = space.metric
        with open(out, "w") as fh:
            for row in space.coords:
                fh.write(" ".join(_fmt(float(v)) for v in row) + "\n")
    else:
        # graph metrics serialize as the unit-distance edge list
        sidecar["format"] = "edges"
        sidecar["metric"] = "graph"
        points = np.arange(space.n)
        with open(out, "w") as fh:
            # each row's unit-distance partners after it, in row-major order,
            # read against the candidates within distance 1
            for lo, hi, near in _near_blocks(space, points, np.nextafter(1.0, np.inf), points):
                rows = points[lo:hi]
                unit = (space.dist_block(rows, near) == 1.0) & (near > rows[:, None])
                i, j = np.nonzero(unit)
                fh.writelines(f"{p} {q}\n" for p, q in zip(rows[i].tolist(), near[j].tolist()))
    if space.n <= _COVER_MATRIX_GUARD:  # where the doubling estimate accepts the space
        diameter = float(space.diameter())
        sidecar["diameter"] = diameter
        span = max(1.0, diameter)
        radii = [r for r in (2.0, 4.0, 8.0, 16.0) if 2 * r <= span] or [max(span / 4, 1.0)]
        sidecar["doubling_estimate_lower"] = int(doubling_constant_estimate(space, radii))
        gradii = [r for r in (2.0, 4.0, 8.0) if r <= span] or [1.0]
        table = growth_table(space, gradii, trials=1, seed=0)
        sidecar["growth_table"] = {_fmt(r): int(v) for r, v in sorted(table.items())}
    dump_json(sidecar, out + ".json")
    print(f"wrote {out} and {out}.json ({space.n} points)")
    return PASS


# ---------------------------------------------------------------------------
# carve
# ---------------------------------------------------------------------------


def cmd_carve(args) -> int:
    cfg = _load_config(args.config)
    fixture, seed, out = _run_fields(args, cfg, "schedule", "max_rounds")
    schedule = schedule_from_json(cfg.get("schedule"))
    max_rounds = cfg.get("max_rounds")  # absent or null keeps the resampler's default
    if max_rounds is not None:
        max_rounds = _number(max_rounds, '"max_rounds"', "nonnegative", integer=True, low=0)
    net = build_net(parse_fixture(fixture), schedule.net_scale, schedule.net_scale)
    try:
        run = certify_decomposition(net, schedule, seed, max_rounds=max_rounds)
    except MoserTardosFailure as exc:
        dump_json({
            "outcome": "resampling_failure",
            "fixture": fixture,
            "schedule": schedule_to_json(schedule),
            "seed": seed,
            "rounds": exc.result.rounds,
            "residual_violations": exc.result.residual_violations,
            "violated_history": exc.result.violated_history,
        }, out + ".failure.json")
        print(f"resampling failed; report in {out}.failure.json", file=sys.stderr)
        return FAIL
    dump_json(decomposition_to_json(run.decomposition, fixture), out + ".decomposition.json")
    dump_json(run.report.to_jsonable(), out + ".verification.json")
    dump_json({"fixture": fixture, **run.meta}, out + ".meta.json")
    for k, layer in enumerate(run.partition_layers):
        layer.write_csv(f"{out}.layer{k}.csv")
    print(f"verified={run.report.passed} rounds={run.meta['rounds']} -> {out}.*.json")
    return PASS if run.report.passed else FAIL


# ---------------------------------------------------------------------------
# cutprob
# ---------------------------------------------------------------------------


def _cutprob_row(net, entry, schedule, trials, n_centers, seed, threads):
    law, probe = schedule.law(), schedule.probe_radius
    bound, regime = schedule.cut_bound()
    rng = np.random.default_rng([seed, 0xC3])
    centers = np.sort(rng.choice(net.members, min(n_centers, len(net.members)), replace=False))
    res = cut_probability_mc(net, law, probe, centers, trials, seed, threads=threads)
    params = ";".join(f"{k}={_fmt(entry[k])}" for k in sorted(entry))
    ok = "" if not regime else str(res.aggregate_freq <= bound + 3 * res.aggregate_se).lower()
    return {
        "params": params,
        "probe_radius": probe,
        "measured": res.aggregate_freq,
        "stderr": res.aggregate_se,
        "bound": bound,
        "regime": str(regime).lower(),
        "pass": ok,
    }


def cmd_cutprob(args) -> int:
    cfg = _load_config(args.config)
    fixture, seed, out = _run_fields(args, cfg, "net", "trials", "centers", "grid")
    grid = cfg.get("grid")
    if not isinstance(grid, list) or not grid:
        raise ConfigError("cutprob needs a nonempty grid list")
    net_cfg = cfg.get("net", {})
    if not isinstance(net_cfg, dict):
        raise ConfigError('cutprob "net" must hold a JSON object')
    _known_keys(net_cfg, 'cutprob "net"', ("eps", "delta"))
    eps, delta = (_number(net_cfg.get(key, 1.0), f'"{key}"', "a finite number > 0", above=0)
                  for key in ("eps", "delta"))
    trials = _number(cfg.get("trials", 100), '"trials"', "an integer >= 1", integer=True, low=1)
    n_centers = _number(cfg.get("centers", 50), '"centers"', "an integer >= 1",
                        integer=True, low=1)
    schedules = [schedule_from_json(entry) for entry in grid]  # refused before any work
    net = build_net(parse_fixture(fixture), eps, delta)
    rows = [{**_cutprob_row(net, entry, schedule, trials, n_centers, seed, _threads(args)),
             "experiment": f"cutprob-{k}"}
            for k, (entry, schedule) in enumerate(zip(grid, schedules))]
    cols = ["experiment", "fixture", "params", "probe_radius", "trials", "centers",
            "measured", "stderr", "bound", "regime", "pass"]
    with open(out, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            full = {**row, "fixture": fixture, "trials": trials, "centers": n_centers}
            fh.write(",".join(_fmt(full[c]) for c in cols) + "\n")
    failed = [r for r in rows if r["pass"] == "false"]
    print(f"wrote {out}: {len(rows)} rows, {len(failed)} failing")
    return FAIL if failed else PASS


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------


def cmd_growth(args) -> int:
    fixture = args.fixture
    seed = _number(args.seed or 0, '"seed"', "an integer >= 0", integer=True, low=0)
    trials = _number(args.trials, '"trials"', "an integer >= 1", integer=True, low=1)
    try:
        radii = [float(tok) for tok in args.radii.split(",") if tok]
    except ValueError:
        raise ConfigError(f"--radii must be comma-separated numbers, got {_shown(args.radii)}") \
            from None
    if not radii:
        raise ConfigError("growth needs a nonempty --radii list")
    space = parse_fixture(fixture)
    table = growth_table(space, radii, trials=trials, seed=seed)
    out = args.out or "growth.csv"
    with open(out, "w") as fh:
        fh.write("fixture,r,trials,gamma_lower\n")
        for r in sorted(table):
            fh.write(f"{fixture},{_fmt(r)},{trials},{table[r]}\n")
    slope = loglog_slope(sorted(table), [table[r] for r in sorted(table)])
    dump_json({"fixture": fixture, "radii": sorted(table),
               "slope": slope,
               "slope_defined": slope is not None}, out + ".slope.json")
    print(f"wrote {out}; slope={'undefined' if slope is None else _fmt(slope)}")
    return PASS


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    with open(args.input) as fh:
        doc = json.load(fh)
    out = args.out
    if out is None:
        raise ConfigError("convert needs --out")
    if args.direction == "to-padded":
        if args.R is None or args.r is None:
            raise ConfigError("to-padded needs --R and the net scale --r")
        R = _number(args.R, "--R", _BOUND, low=0)
        r = _number(args.r, "--r", "a finite number > 0", above=0)
        cover = cover_from_json(doc)
        pd = padded_from_cover(cover, build_net(cover.space, r, r), R)
        dump_json(decomposition_to_json(pd, doc["fixture"]), out)
        print(f"wrote {out}: ({_fmt(pd.R)}, {_fmt(pd.D)})-padded, {pd.m} layers")
        return PASS
    if args.R is not None or args.r is not None:  # --direction to-cover, the only other choice
        raise ConfigError("to-cover takes no --R or --r: the decomposition and its net fix both")
    pd = decomposition_from_json(doc)
    cover = cover_from_padded(pd)
    dump_json(cover_to_json(cover, doc["fixture"]), out)
    print(f"wrote {out}: ({_fmt(cover.r_disjoint)}, {_fmt(cover.D_bound)})-cover")
    return PASS


# ---------------------------------------------------------------------------
# lll-check
# ---------------------------------------------------------------------------


def cmd_lll_check(args) -> int:
    if args.schedule:
        doc = json.loads(args.schedule)
    elif args.config:
        doc = _load_config(args.config).get("schedule")
    else:
        raise ConfigError("lll-check needs --schedule or --config")
    schedule = schedule_from_json(doc)
    budget = schedule.budget()
    payload = {
        "schedule": schedule_to_json(schedule),
        "log_p_bound": budget.log_p_bound,
        "log_d_plus_one": budget.log_d_plus_one,
        "p_bound": budget.p_bound if np.isfinite(budget.p_bound) else None,
        "d_bound": budget.d_bound if np.isfinite(budget.d_bound) else None,
        "margin_log": budget.margin_log,
        "feasible": budget.feasible,
    }
    text = dump_json(payload, args.out)
    sys.stdout.write(text)
    return PASS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="padlab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--threads", type=int, default=1,
                    help="threads over cutprob's probe centers, at most one per CPU")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a fixture file plus a constants sidecar")
    p.add_argument("--fixture", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("carve", help="resample, carve, and verify the padding claim")
    p.add_argument("--config", required=True)
    p.add_argument("--fixture")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_carve)

    p = sub.add_parser("cutprob", help="Monte Carlo cut frequencies vs closed-form bounds")
    p.add_argument("--config", required=True)
    p.add_argument("--fixture")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cutprob)

    p = sub.add_parser("growth", help="growth table and log-log slope")
    p.add_argument("--fixture", required=True)
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("convert", help="cover -> padded decomposition or back")
    p.add_argument("--input", required=True)
    p.add_argument("--direction", required=True, choices=["to-padded", "to-cover"])
    p.add_argument("--R", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("lll-check", help="evaluate a schedule's feasibility budget")
    p.add_argument("--schedule", help="inline schedule JSON")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lll_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        sys.stderr.write(dump_json(exc.report.to_jsonable()))
        return FAIL
    except (ValueError, TypeError, OSError, KeyError, OverflowError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except CarveError as exc:
        print(f"carve error: {exc}", file=sys.stderr)
        return USAGE
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())

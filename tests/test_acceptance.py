"""Acceptance suite: one test per packaged quantitative claim.

Each test pins its tolerance and its runtime cap, exercises the library (or,
for the Monte Carlo batches, the CLI, so the determinism check in criterion 9
can compare real output files), and prints one PASS line.  Oracles are
independent of the code paths they judge: extended-precision arithmetic for
the feasibility budgets, word enumeration for the Heisenberg ball, exhaustive
covers for the doubling constants.

Criterion 4 encodes an end-to-end resampling run at a fixed aggressive
parameter point (window cap factor D = 20 on the 3001-point segment).  At
that point each probe ball is cut per layer with frequency about 1/3, so a
constraint is violated with probability about 0.11 while every resampling
step re-randomizes on the order of 180 neighboring constraints; the process
is supercritical and stalls near 140 violated constraints (it converges
comfortably for D >= 100, see test_lll.py).  The test asserts the stated
claim as written and is therefore expected to fail; it is kept red rather
than weakened.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

import padlab as pl
from padlab.cli import main as cli_main
from oracles import heisenberg_words, ks_distance, make_cover

mp.mp.dps = 60


def report(num, name, elapsed, cap, passed=True):
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {verdict} [{elapsed:.1f}s / cap {cap}s]")
    assert elapsed < cap, f"runtime {elapsed:.1f}s exceeds the {cap}s cap"


# ---------------------------------------------------------------------------
# 1. sampler fidelity
# ---------------------------------------------------------------------------


def test_c1_sampler_fidelity():
    t0 = time.time()
    texp = pl.TexpParams(0.1, 3.0, 50.0)
    samples = pl.sample_texp(texp, np.random.default_rng(101), 100_000)
    ks = ks_distance(samples, lambda z: pl.texp_cdf(texp, z))
    assert ks < 0.01, f"KS distance {ks}"

    tgeo = pl.TgeoParams(0.05, 100)
    draws = pl.sample_tgeo(tgeo, np.random.default_rng(102), 100_000)
    counts = np.bincount(draws, minlength=101)
    for n in range(1, 101):
        pn = pl.tgeo_pmf(tgeo, n)
        se = math.sqrt(pn * (1 - pn) / len(draws))
        assert abs(counts[n] / len(draws) - pn) <= 4 * se, f"value {n} off"
    report(1, "sampler fidelity", time.time() - t0, 5)


# ---------------------------------------------------------------------------
# 2. truncated-exponential tail and conditional bounds
# ---------------------------------------------------------------------------


def test_c2_texp_regime_bounds():
    t0 = time.time()
    violations = 0
    for l, M in [(1.0, 10.0), (3.0, 50.0), (0.5, 20.0)]:
        lams = np.linspace(2 / (M - l), 1 / l, 20)
        betas = np.linspace(l, M, 20)
        for lam in lams:
            params = pl.TexpParams(float(lam), l, M)
            assert params.in_estimate_regime
            for beta in betas:
                if pl.texp_tail(params, float(beta)) > 4 * math.exp(-lam * beta):
                    violations += 1
            for alpha in np.linspace(l, M / 2, 6):
                for beta in betas:
                    if beta < l or alpha + beta >= M:
                        continue
                    if pl.texp_conditional(params, float(alpha), float(beta)) > 2 * lam * beta:
                        violations += 1
    assert violations == 0
    report(2, "tail/conditional bounds", time.time() - t0, 1)


# ---------------------------------------------------------------------------
# 3. Monte Carlo cut frequency on the long segment (through the CLI)
# ---------------------------------------------------------------------------

C3_CONFIG = {
    "fixture": "segment:50000",
    "net": {"eps": 1, "delta": 1},
    "trials": 200,
    "centers": 100,
    "seed": 7,
    "grid": [{"kind": "tgeo", "b": 1.0, "p": 1 / 400, "M": 9585, "m": 2, "r": 9.0}],
}


def run_c3(tmp_path, tag):
    out = str(tmp_path / f"cutprob_{tag}.csv")
    cfg = tmp_path / f"cutprob_{tag}.json"
    cfg.write_text(json.dumps({**C3_CONFIG, "out": out}))
    code = cli_main(["cutprob", "--config", str(cfg)])
    return code, out


@pytest.fixture(scope="module")
def c3_first_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c3")
    t0 = time.time()
    code, out = run_c3(tmp, "a")
    return {"code": code, "out": out, "tmp": tmp, "elapsed": time.time() - t0}


def test_c3_cut_frequency_bound(c3_first_run):
    assert c3_first_run["code"] == 0
    header, row = open(c3_first_run["out"]).read().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    measured, se = float(rec["measured"]), float(rec["stderr"])
    assert rec["regime"] == "true" and rec["pass"] == "true"
    assert measured <= 0.45 + 3 * se, f"{measured} vs 0.45"
    report(3, "Monte Carlo cut bound", c3_first_run["elapsed"], 120)


# ---------------------------------------------------------------------------
# 4. end-to-end resampling at the pinned schedule (expected red; see module
#    docstring)
# ---------------------------------------------------------------------------

C4_SCHEDULE = {"kind": "texp", "N": 3, "r": 3.0, "eps": 0.05, "D": 20.0}
C4_SEEDS = list(range(20))


def run_c4(tmp_path, tag):
    outcomes = []
    for seed in C4_SEEDS:
        out = str(tmp_path / f"carve_{tag}_{seed}")
        cfg = tmp_path / f"carve_{tag}_{seed}.json"
        cfg.write_text(json.dumps({
            "fixture": "segment:3000", "schedule": C4_SCHEDULE, "seed": seed,
            "out": out, "max_rounds": 500,
        }))
        code = cli_main(["carve", "--config", str(cfg)])
        outcomes.append((seed, code, out))
    return outcomes


@pytest.fixture(scope="module")
def c4_first_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c4")
    t0 = time.time()
    outcomes = run_c4(tmp, "a")
    return {"outcomes": outcomes, "tmp": tmp, "elapsed": time.time() - t0}


def test_c4_end_to_end_resampling(c4_first_run):
    successes = 0
    for seed, code, out in c4_first_run["outcomes"]:
        if code == 0:
            successes += 1
            ver = json.load(open(out + ".verification.json"))
            assert ver["passed"] is True, f"seed {seed} verified false after success"
    passed = successes >= 18
    report(4, "end-to-end resampling at D=20", c4_first_run["elapsed"], 60,
           passed=passed)
    assert successes >= 18, (
        f"only {successes}/20 seeds converged within 500 rounds; the schedule "
        "is supercritical at D=20 (see the module docstring)")


# ---------------------------------------------------------------------------
# 5. conversion round trips on random 300-point spaces
# ---------------------------------------------------------------------------


def test_c5_round_trips():
    t0 = time.time()
    r, R = 1.0, 2.0
    R_pad = R + 2 * r
    for inst in range(30):
        space = pl.euclidean_cloud(300, 2, seed=1000 + inst, scale=100.0)
        net = pl.build_net(space, r, r)
        cover = make_cover(space, r, separation=2 * R_pad + r, seed=inst)
        assert pl.verify_cover(cover).passed
        pd = pl.padded_from_cover(cover, net, R_pad)
        assert (pd.R, pd.D) == (R_pad, 2 * R_pad + 2 * r + cover.D_bound)
        assert pl.verify_padded(pd, net, pd.R, pd.D).passed
        back = pl.cover_from_padded(pd)
        assert (back.r_disjoint, back.D_bound) == (R, pd.D)
        assert pl.verify_cover(back).passed
    report(5, "conversion round trips", time.time() - t0, 30)


# ---------------------------------------------------------------------------
# 6. net cardinality bounds from exhaustively verified constants
# ---------------------------------------------------------------------------


def test_c6_net_cardinality_bounds():
    t0 = time.time()
    # exhaustive doubling constant on a desk-size segment
    small = pl.integer_segment(300)
    mat = small.distance_matrix()
    N = 0
    for rr in (2.0, 4.0, 8.0, 16.0):
        for c in range(0, small.n, 3):
            target = np.nonzero(mat[c] < 2 * rr)[0]
            N = max(N, pl.optimal_cover_size(small, target, rr))
    assert N == 3

    space = pl.integer_segment(1000)
    logN = math.log2(N)
    for r in (1.0, 3.0):
        net = pl.build_net(space, r, r)
        for ratio in (2, 4, 8):
            R = ratio * r
            bound = N**2 * ratio**logN
            for c in range(space.n):
                assert pl.ball_net_count(net, c, R) <= bound

    # volume version: exhaustive volume doubling constant, then the mass bound
    ms_small = pl.MeasuredSpace.uniform(pl.integer_segment(200))
    radii = [k / 2 + 0.01 for k in range(1, 80)]
    CD = pl.volume_doubling_estimate(ms_small, radii)
    assert CD == pytest.approx(3.0)
    logCD = math.log2(CD)
    net = pl.build_net(space, 1.0, 1.0)
    for ratio in (2, 4, 8):
        bound = CD**5 * ratio**logCD
        for c in range(space.n):
            assert pl.ball_net_count(net, c, float(ratio)) <= bound
    report(6, "net cardinality bounds", time.time() - t0, 10)


# ---------------------------------------------------------------------------
# 7. feasibility-budget arithmetic against extended precision
# ---------------------------------------------------------------------------


def test_c7_schedule_arithmetic():
    t0 = time.time()
    D = 1e20
    eps = (D + 3) ** -0.9
    budget = pl.texp_csp_bounds(pl.TexpSchedule(N=2, r=1.0, eps=eps, D=D))
    assert budget.feasible
    Dm, em = mp.mpf(D), mp.mpf(eps)
    p1 = 4 * mp.mpf(8) * (Dm + 3) ** 1 * mp.e ** (-(Dm - mp.mpf(1.5)) * em) + 12 * em
    lp, ld = 2 * mp.log(p1), mp.log(16 * (Dm + 3))
    assert budget.log_p_bound == pytest.approx(float(lp), rel=1e-9)
    assert budget.log_d_plus_one == pytest.approx(float(ld), rel=1e-9)
    assert float(1 + lp + ld) < 0

    sched = pl.TgeoSchedule(b=1.0, eps=0.1)
    r = sched.r_min
    run = sched.run_at(r)
    assert run.p <= 1 / (4 * run.b + 5)
    tb = pl.tgeo_csp_bounds(run.b, r, run.m, run.p, run.M)
    assert tb.feasible
    lp2 = run.m * mp.log(20 * mp.mpf(r) * mp.mpf(run.p))
    ld2 = mp.mpf(run.b) * mp.log(2 * mp.mpf(run.M) + 2 * mp.mpf(r))
    assert tb.log_p_bound == pytest.approx(float(lp2), rel=1e-9)
    assert tb.log_d_plus_one == pytest.approx(float(ld2), rel=1e-9)
    assert float(1 + lp2 + ld2) < 0
    report(7, "feasibility-budget arithmetic", time.time() - t0, 1)


# ---------------------------------------------------------------------------
# 8. Heisenberg ball growth
# ---------------------------------------------------------------------------


def test_c8_heisenberg_growth():
    t0 = time.time()
    ball = pl.heisenberg_ball(12)
    oracle = heisenberg_words(4)
    assert ball.ball_sizes[:5] == oracle
    radii = np.arange(6, 13)
    sizes = [ball.ball_sizes[r] for r in radii]
    slope = pl.loglog_slope(radii, sizes)
    assert 3.0 <= slope <= 5.0, f"slope {slope}"
    report(8, "Heisenberg growth", time.time() - t0, 60)


# ---------------------------------------------------------------------------
# 9. determinism of the Monte Carlo batches
# ---------------------------------------------------------------------------


def test_c9_determinism(c3_first_run, c4_first_run):
    t0 = time.time()
    _, out_b = run_c3(c3_first_run["tmp"], "b")
    assert open(c3_first_run["out"], "rb").read() == open(out_b, "rb").read()

    second = run_c4(c4_first_run["tmp"], "b")
    for (seed, code_a, out_a), (_, code_b, out_b) in zip(c4_first_run["outcomes"], second):
        assert code_a == code_b
        for suffix in (".decomposition.json", ".verification.json", ".meta.json",
                       ".failure.json", ".layer0.csv", ".layer1.csv"):
            try:
                blob_a = open(out_a + suffix, "rb").read()
            except FileNotFoundError:
                continue
            blob_b = open(out_b + suffix, "rb").read()
            assert blob_a == blob_b, f"seed {seed}{suffix} differs"
    report(9, "byte-identical reruns", time.time() - t0, 300)

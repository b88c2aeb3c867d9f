import math
import re
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import padlab as pl
from padlab.decomposition import ConfigError

mp.mp.dps = 60


def mp_texp_logs(N, D, eps, m):
    N, D, eps = mp.mpf(N), mp.mpf(D), mp.mpf(eps)
    b = mp.log(N, 2)
    p1 = 4 * N**3 * (D + 3) ** b * mp.e ** (-(D - mp.mpf(1.5)) * eps) + 12 * eps
    return m * mp.log(p1), mp.log(N**4 * (D + 3) ** b)


def mp_tgeo_logs(b, r, m, p, M):
    b, r, p, M = mp.mpf(b), mp.mpf(r), mp.mpf(p), mp.mpf(M)
    return m * mp.log(20 * r * p), b * mp.log(2 * M + 2 * r)


class TestFeasibility:
    def test_worked_examples(self):
        assert pl.lll_feasible(0.1, 2) is True     # e * 0.1 * 3 = 0.8155
        assert pl.lll_feasible(0.5, 1) is False    # e * 0.5 * 2 = 2.718
        assert pl.lll_feasible(0.0, 10**9) is True

    def test_nan_bound_is_refused_not_infeasible(self):
        """A NaN bound raises instead of reading as "infeasible"; an infinite
        p bound, which LllBudget produces, is still a verdict."""
        for p, d in [(math.nan, 1.0), (0.1, math.nan), (math.nan, math.nan)]:
            with pytest.raises(ValueError, match="bounds must be nonnegative"):
                pl.lll_feasible(p, d)
        assert pl.lll_feasible(math.inf, 1.0) is False

    def test_boundary_is_conservative(self):
        d = 10.0
        p_star = 1 / (math.e * (d + 1))
        assert pl.lll_feasible(p_star, d) is False
        assert pl.lll_feasible(p_star * (1 - 1e-13), d) is False  # within slack
        assert pl.lll_feasible(p_star * (1 - 1e-9), d) is True

    def test_agrees_with_extended_precision_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = float(10 ** rng.uniform(-12, 0.5))
            d = float(10 ** rng.uniform(0, 12))
            oracle = mp.e * mp.mpf(p) * (mp.mpf(d) + 1) < 1
            margin = mp.e * mp.mpf(p) * (mp.mpf(d) + 1) - 1
            if abs(margin) < 1e-11:
                continue  # the deliberate conservative band
            assert pl.lll_feasible(p, d) == oracle


class TestTexpBounds:
    def test_huge_d_worked_example(self):
        D = 1e20
        eps = (D + 3) ** -0.9
        budget = pl.texp_csp_bounds(pl.TexpSchedule(N=2, r=1.0, eps=eps, D=D))
        assert budget.feasible
        lp, ld = mp_texp_logs(2, D, eps, 2)
        assert budget.log_p_bound == pytest.approx(float(lp), rel=1e-9)
        assert budget.log_d_plus_one == pytest.approx(float(ld), rel=1e-9)

    def test_eps_one_is_infeasible(self):
        budget = pl.texp_csp_bounds(pl.TexpSchedule(N=2, r=1.0, eps=1.0, D=50.0))
        assert budget.p_bound >= 12.0
        assert not budget.feasible

    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_feasibility_monotone_in_d(self, N):
        b = math.log2(N)
        m = math.floor(b) + 1
        rule = -(b / m + 0.3 * (1 - b / m))

        def feasible(D):
            eps = (D + 3) ** rule
            return pl.texp_csp_bounds(pl.TexpSchedule(N=N, r=1.0, eps=eps, D=D)).feasible

        D, _ = pl.find_min_D(N, m, alpha_prime=0.3 * (1 - b / m))
        for mult in (1.0, 10.0, 100.0):
            assert feasible(D * mult)

    def test_matches_oracle_across_grid(self):
        for N in (2, 4, 8):
            m = math.floor(math.log2(N)) + 1
            for D in (10.0, 1e5, 1e30, 1e80):
                eps = (D + 3) ** -0.9
                sched = pl.TexpSchedule(N=N, r=2.0, eps=eps, D=D)
                budget = pl.texp_csp_bounds(sched)
                lp, ld = mp_texp_logs(N, D, eps, m)
                assert budget.log_p_bound == pytest.approx(float(lp), rel=1e-9)
                assert budget.log_d_plus_one == pytest.approx(float(ld), rel=1e-9)


NAN = float("nan")
NAN_NET = pl.build_net(pl.integer_segment(30), 1, 1)


@pytest.mark.parametrize("call", [
    lambda: pl.net_graph(NAN_NET, NAN),
    lambda: pl.carve(pl.greedy_color(pl.NetGraph(NAN_NET, 1.0, NAN)),
                     pl.RadiusAssignment(np.full(len(NAN_NET), 2.0), 1.0, 3.0)),
    lambda: pl.CspInstance(NAN_NET, 2, pl.TexpParams(0.5, 1.0, 3.0), NAN, NAN),
    lambda: pl.TgeoSchedule(NAN, 1.0),
    lambda: pl.tgeo_csp_bounds(NAN, 9, 2, 0.01, 600),
    lambda: pl.tgeo_csp_bounds(0, math.inf, 1, 0.01, 100),
    lambda: pl.tgeo_csp_bounds(0, 10, 1, 0.01, math.inf),
], ids=["net_graph_M", "carve_band", "csp_radii", "tgeo_schedule_b", "tgeo_bounds_b",
        "tgeo_bounds_infinite_r", "tgeo_bounds_infinite_M"])
def test_nan_fails_the_library_checks(call):
    """A NaN bound or radius is refused where it comes in, not passed by a
    comparison that NaN fails both ways.  ``tgeo_csp_bounds`` also refuses an
    infinite r or M, with which b = 0 would report 0 * inf = NaN."""
    with pytest.raises(ValueError):
        call()


class TestTgeoBounds:
    def test_desk_scale_worked_example(self):
        budget = pl.tgeo_csp_bounds(b=1.0, r=9.0, m=2, p=1 / 400, M=9585)
        assert budget.p_bound == pytest.approx(0.45**2, rel=1e-12)
        assert budget.d_bound == pytest.approx(2 * 9585 + 2 * 9 - 1, rel=1e-12)
        assert not budget.feasible  # e * 0.2025 * 19188 is enormous

    def test_probability_cap(self):
        budget = pl.tgeo_csp_bounds(b=0.0, r=10.0, m=1, p=0.01, M=100)
        assert budget.p_bound >= 1.0  # 20 r p = 2
        assert not budget.feasible

    def test_rejects_p_above_estimate_cap(self):
        with pytest.raises(ValueError):
            pl.tgeo_csp_bounds(b=1.0, r=9.0, m=2, p=0.2, M=100)

    def test_guarantee_chain_feasible_at_r_min(self):
        sched = pl.TgeoSchedule(b=1.0, eps=0.1)
        assert sched.m == 2
        assert sched.alpha == pytest.approx(2.2)
        r = sched.r_min
        assert math.isfinite(r)
        run = sched.run_at(r)
        budget = pl.tgeo_csp_bounds(run.b, r, run.m, run.p, run.M)
        assert budget.feasible
        lp, ld = mp_tgeo_logs(run.b, r, run.m, run.p, run.M)
        assert budget.log_p_bound == pytest.approx(float(lp), rel=1e-9)
        assert budget.log_d_plus_one == pytest.approx(float(ld), rel=1e-9)

    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_estimate_cap_holds_automatically_at_r_min(self, b, eps):
        sched = pl.TgeoSchedule(b=b, eps=eps)
        r = sched.r_min
        if not math.isfinite(r):
            pytest.skip("r_min overflows float range for these parameters")
        assert sched.p_at(r) <= 1 / (4 * b + 5)


class TestFindMinD:
    def test_bracket_property(self):
        D, budget = pl.find_min_D(2, 2, alpha_prime=0.4)
        assert budget.feasible and D <= 1e20

        def feasible(Dv):
            eps = (Dv + 3) ** -(0.5 + 0.4)
            return pl.texp_csp_bounds(pl.TexpSchedule(N=2, r=1.0, eps=eps, D=Dv)).feasible

        assert feasible(D)
        assert not feasible(D / 4)

    def test_extended_precision_recheck(self):
        D, _ = pl.find_min_D(2, 2, alpha_prime=0.4)
        eps = (D + 3) ** -0.9
        lp, ld = mp_texp_logs(2, D, eps, 2)
        assert 1 + lp + ld < 0         # feasible in 60-digit arithmetic
        eps4 = (D / 4 + 3) ** -0.9
        lp4, ld4 = mp_texp_logs(2, D / 4, eps4, 2)
        assert 1 + lp4 + ld4 > 0

    def test_rejects_m_at_or_below_log2N(self):
        with pytest.raises(ValueError):
            pl.find_min_D(2, 1)
        with pytest.raises(ValueError):
            pl.find_min_D(4, 2)

    def test_gives_up_at_cap(self):
        with pytest.raises(RuntimeError):
            pl.find_min_D(2, 2, alpha_prime=0.4, D_cap=4.0)


class TestSchedules:
    def test_texp_derived_quantities(self):
        sched = pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=20.0)
        assert sched.lam == 0.05 / 9
        assert sched.M == 129.0 and sched.l == 9.0
        assert sched.m == 2 and sched.c == 86.0
        assert sched.probe_radius == 9.0
        assert sched.domain_radius == 138.0
        law = sched.law()
        assert (law.lam, law.l, law.M) == (sched.lam, 9.0, 129.0)

    def test_json_round_trip(self):
        for sched in (pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=20.0),
                      pl.TgeoRun(b=1.0, p=0.0025, M=9585, m=2, r=9.0)):
            doc = pl.schedule_to_json(sched)
            assert pl.schedule_from_json(doc) == sched

    @pytest.mark.parametrize("fields,message", [
        ({"r": 1e150, "D": 1e200}, "got M=inf and lam=1.66667e-152"),
        ({"r": 1e10, "eps": 5e-324}, "got M=2.03e+12 and lam=0"),
    ], ids=["overflowing_M", "underflowing_lam"])
    def test_texp_derived_quantities_are_checked(self, fields, message):
        """Finite, positive fields can still derive an infinite M or a zero
        rate; the schedule refuses them where they are computed."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            pl.TexpSchedule(**{"N": 3, "r": 3.0, "eps": 0.05, "D": 100.0, **fields})

    def test_tgeo_run_validation(self):
        with pytest.raises(ValueError):
            pl.TgeoRun(b=1.0, p=1.5, M=10, m=2, r=9.0)
        with pytest.raises(ValueError):
            pl.TgeoRun(b=-1.0, p=0.1, M=10, m=2, r=9.0)


def converging_schedule():
    # empirically safe regime for the resampler on segment:3000 (see the
    # criterion 4 notes in the acceptance module)
    return pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=100.0)


class TestMoserTardos:
    def test_empty_net_is_refused(self):
        """An empty net covers no point, and a radius floor below the net's
        covering radius can leave a point uncovered: the resampler, ``carve``
        and the cut probes refuse both in the same words, before any work."""
        space = pl.integer_segment(20)
        for members, eps, message in [
                ([], 1.0, "an empty net covers no point"),
                (range(0, 21, 4), 2.0, "need l >= net.eps for coverage, got l=1.0 < eps=2.0")]:
            net = pl.Net(space, np.array(members, dtype=np.intp), eps, eps)
            csp = pl.CspInstance(net, 2, pl.TexpParams(0.5, 1.0, 2.0), 1.0, 3.0)
            coloring = pl.greedy_color(pl.net_graph(net, 4.0))
            radii = pl.RadiusAssignment(np.full(len(members), 1.5), 1.0, 2.0)
            for run in (lambda: pl.moser_tardos(space, net, csp, seed=0),
                        lambda: pl.carve(coloring, radii),
                        lambda: pl.cut_probability_mc(net, csp.law, 1.0, [5], trials=2, seed=0)):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    run()

    def test_single_covering_ball_succeeds_in_zero_rounds(self):
        space = pl.integer_segment(20)
        net = pl.Net(space, np.array([10]), 21.0, 21.0)
        csp = pl.CspInstance(net, 1, pl.TexpParams(0.5, 21.0, 22.0), 3.0, 43.0)
        res = pl.moser_tardos(space, net, csp, seed=0)
        assert res.success and res.rounds == 0
        assert res.violated_history == [0]

    def test_refuses_a_space_or_csp_the_net_was_not_built_for(self):
        """On a copy of the segment stretched threefold, the net of the
        original would carve a different space; an equal but distinct space
        is refused too."""
        space = pl.integer_segment(30)
        net = pl.build_net(space, 2, 2)
        csp = pl.CspInstance(net, 1, pl.TexpParams(0.5, 2.0, 4.0), 1.0, 5.0)
        for other in (pl.CoordSpace(space.coords * 3), pl.integer_segment(30)):
            with pytest.raises(ValueError, match="net was built on a different space"):
                pl.moser_tardos(other, net, csp, seed=0)
        foreign = pl.CspInstance(pl.build_net(space, 2, 2), 1, csp.law, 1.0, 5.0)
        with pytest.raises(ValueError, match="csp was built for a different net"):
            pl.moser_tardos(space, net, foreign, seed=0)
        assert pl.moser_tardos(space, net, csp, seed=0, max_rounds=0).rounds == 0

    def test_deterministic_given_seed(self):
        space = pl.integer_segment(600)
        net = pl.build_net(space, 3, 3)
        sched = converging_schedule()
        csp = pl.csp_from_schedule(net, sched)
        a = pl.moser_tardos(space, net, csp, seed=5)
        b = pl.moser_tardos(space, net, csp, seed=5)
        assert a.rounds == b.rounds
        assert a.violated_history == b.violated_history
        for ta, tb in zip(a.assignments, b.assignments):
            assert np.array_equal(ta.t, tb.t)

    def test_success_implies_verified_padding(self):
        space = pl.integer_segment(1500)
        net = pl.build_net(space, 3, 3)
        sched = converging_schedule()
        for seed in range(3):
            run = pl.certify_decomposition(net, sched, seed)
            assert run.report.passed

    def test_failure_report_fields(self):
        space = pl.integer_segment(900)
        net = pl.build_net(space, 3, 3)
        sched = pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=20.0)  # supercritical
        csp = pl.csp_from_schedule(net, sched)
        res = pl.moser_tardos(space, net, csp, seed=1, max_rounds=30)
        assert not res.success
        assert res.rounds == 30
        assert res.residual_violations > 0
        assert len(res.violated_history) == 31

    def test_supercritical_point_measured(self):
        """Pins the numbers behind the expected-red acceptance check: at
        window cap D=20 on the segment, a probe ball is cut per layer with
        frequency near 1/3, so constraints are violated at a rate (~0.11)
        whose product with the ~180-constraint resampling footprint makes the
        dynamics supercritical."""
        space = pl.integer_segment(3000)
        net = pl.build_net(space, 3, 3)
        sched = pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=20.0)
        res = pl.cut_probability_mc(net, sched.law(), sched.probe_radius, net.members[5::10],
                                    trials=50, seed=0)
        assert 0.25 <= res.aggregate_freq <= 0.42
        # the per-constraint violation rate this implies, times the number of
        # constraints whose dependencies a resample re-randomizes, is >> 1
        violation = res.aggregate_freq**2
        footprint = 2 * (sched.domain_radius + sched.M) / 3
        assert violation * footprint > 5

    def test_resampling_is_local(self):
        """Changing the radii of one constraint's domain only moves points
        within reach of those members: rebuild both carves fully and diff."""
        space = pl.integer_segment(800)
        net = pl.build_net(space, 3, 3)
        sched = converging_schedule()
        law = sched.law()
        coloring = pl.greedy_color(pl.net_graph(net, 2 * sched.M))
        rng = np.random.default_rng(8)
        t0 = pl.sample_texp(law, rng, len(net.members))
        u = len(net.members) // 2
        member_dist = space.dist_block(net.members[u:u + 1], net.members)[0]
        dom = np.nonzero(member_dist < sched.domain_radius)[0]
        t1 = t0.copy()
        t1[dom] = pl.sample_texp(law, rng, len(dom))
        layer0 = pl.carve(coloring, pl.RadiusAssignment(t0, sched.l, sched.M))
        layer1 = pl.carve(coloring, pl.RadiusAssignment(t1, sched.l, sched.M))
        own0 = layer0.center_positions[layer0.cluster_of]
        own1 = layer1.center_positions[layer1.cluster_of]
        changed = np.nonzero(own0 != own1)[0]
        center = int(net.members[u])
        reach = 2 * sched.M + sched.domain_radius
        assert all(space.dist(center, int(p)) <= reach for p in changed)


INSTANCES = [("segment", 40.0), ("cloud", 6.0), ("cloud", 12.0), ("tree", 4.0)]


@pytest.fixture(scope="module")
def small_instances():
    """(space, net, csp) by (fixture, D): the segment at D=40 converges for
    some seeds within 40 rounds; the three-layer cloud stalls at D=6 and
    converges within a few rounds at D=12; the binary tree of depth 7 (a
    ``MatrixSpace``, whose candidates are every point) resamples at seeds 1
    and 2."""
    segment = pl.integer_segment(600)
    cloud = pl.euclidean_cloud(200, 2, seed=3, scale=30.0)
    tree = pl.balanced_tree(2, 7)
    nets = {"segment": (segment, pl.build_net(segment, 3, 3)),
            "cloud": (cloud, pl.build_net(cloud, 1, 1)),
            "tree": (tree, pl.build_net(tree, 1, 1))}
    scheds = {"segment": dict(N=3, r=3.0, eps=0.05), "cloud": dict(N=4, r=1.0, eps=0.05),
              "tree": dict(N=4, r=1.0, eps=0.3)}
    out = {}
    for kind, D in INSTANCES:
        space, net = nets[kind]
        sched = pl.TexpSchedule(**scheds[kind], D=D)
        out[kind, D] = (space, net, pl.csp_from_schedule(net, sched))
    return out


def dishonest_pair():
    """Members 0 and 10 of a segment, claiming covering radius 4.5 (point 5
    is 5 away) and separation 11 (so both get color 0).  A radius draw
    leaves point 5 uncovered, covered twice, or covered once, and only the
    last is a valid carving; a valid one always cuts one probe ball."""
    space = pl.integer_segment(10)
    net = pl.Net(space, np.array([0, 10]), 4.5, 11.0)
    law = pl.TexpParams(0.01, 4.5, 6.0)
    return space, net, pl.CspInstance(net, 1, law, probe_radius=6.0, domain_radius=12.0)


def test_resampler_refuses_a_net_coarser_than_the_law_lower_end():
    """A library caller may still build a net at r = 9 for a schedule whose
    law starts at 1: a point 8 away from every member could be left
    uncovered, so the resampler, and ``certify_decomposition`` through it,
    refuse it by name."""
    space = pl.integer_segment(300)
    run = pl.TgeoRun(b=1, p=0.02, M=40, m=2, r=9)
    assert run.net_scale == 1.0 and pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=100).net_scale == 3.0
    net = pl.build_net(space, run.r, run.r)
    message = re.escape("need l >= net.eps for coverage, got l=1.0 < eps=9.0")
    with pytest.raises(ValueError, match=message):
        pl.moser_tardos(space, net, pl.csp_from_schedule(net, run), 0)
    with pytest.raises(ValueError, match=message):
        pl.certify_decomposition(net, run, 0)


class TestIncrementalState:
    @given(st.sampled_from(INSTANCES), st.integers(0, 10_000), st.integers(0, 40))
    @example(("segment", 40.0), 1, 40)  # stalls
    @example(("cloud", 12.0), 0, 40)    # converges
    @example(("tree", 4.0), 1, 40)      # resamples every point each round
    @settings(max_examples=25, deadline=None)
    def test_residual_matches_fresh_recount(self, small_instances, config, seed, max_rounds):
        """After resampling, the incrementally kept violation count equals a
        recount that carves each final radius assignment from scratch and
        counts the probe balls cut in every layer; the layers the resampler
        returns are those fresh carvings."""
        space, net, csp = small_instances[config]
        res = pl.moser_tardos(space, net, csp, seed, max_rounds=max_rounds)
        coloring = pl.greedy_color(pl.net_graph(net, 2 * csp.law.M))
        layers = [pl.carve(coloring, a) for a in res.assignments]
        assert all(np.array_equal(kept.cluster_of, fresh.cluster_of)
                   and np.array_equal(kept.centers, fresh.centers)
                   for kept, fresh in zip(res.layers, layers, strict=True))
        fresh = sum(all(pl.is_cut(layer, int(c), csp.probe_radius) for layer in layers)
                    for c in net.members)
        assert res.residual_violations == fresh == res.violated_history[-1]
        assert res.success == (fresh == 0)

    @pytest.mark.parametrize("seed,message", [(0, "covered by no ball"),
                                              (8, "two same-color centers")])
    def test_recarve_raises_carve_errors(self, seed, message):
        """Both carving preconditions are checked on the points a round
        recarves: the initial carving of these seeds is valid, and a later
        redraw breaks it."""
        space, net, csp = dishonest_pair()
        assert not pl.moser_tardos(space, net, csp, seed, max_rounds=0).success
        with pytest.raises(pl.CarveError, match=message):
            pl.moser_tardos(space, net, csp, seed, max_rounds=50)


class TestCertify:
    def test_certified_run_contents(self):
        space = pl.integer_segment(1200)
        net = pl.build_net(space, 3, 3)
        sched = converging_schedule()
        run = pl.certify_decomposition(net, sched, seed=2)
        assert run.report.passed
        pd = run.decomposition
        assert pd.m == 2 and pd.R == 9.0 and pd.D == 2 * sched.M
        assert run.meta["seed"] == 2
        assert run.meta["schedule"]["kind"] == "texp"

    def test_colors_once_per_run(self, monkeypatch):
        import padlab.lll as lll_mod
        calls = []
        monkeypatch.setattr(lll_mod, "greedy_color",
                            lambda graph: calls.append(graph) or pl.greedy_color(graph))
        space = pl.integer_segment(600)
        run = pl.certify_decomposition(pl.build_net(space, 3, 3), converging_schedule(), seed=0)
        assert run.report.passed and len(calls) == 1

    def test_reuses_the_resampler_layers(self, monkeypatch):
        """Certification verifies the layers the resampler carved; it never
        carves them again."""
        calls = []
        original = pl.carve
        for module in [m for name, m in sys.modules.items() if name.startswith("padlab")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr,
                                        lambda *a, **k: calls.append(a) or original(*a, **k))
        space = pl.integer_segment(600)
        run = pl.certify_decomposition(pl.build_net(space, 3, 3), converging_schedule(), seed=0)
        assert run.report.passed and len(run.partition_layers) == 2
        assert calls == []

    def test_certify_on_planar_cloud(self):
        """The pipeline is not segment-specific: three-layer certification on
        a 400-point planar cloud."""
        space = pl.euclidean_cloud(400, 2, seed=3, scale=40.0)
        net = pl.build_net(space, 1, 1)
        sched = pl.TexpSchedule(N=4, r=1.0, eps=0.05, D=12.0)
        assert sched.m == 3
        for seed in range(3):
            run = pl.certify_decomposition(net, sched, seed, max_rounds=400)
            assert run.report.passed
            assert run.decomposition.m == 3
            assert run.decomposition.D == 2 * sched.M

    def test_single_layer_never_false_passes(self):
        """One layer cannot pad a segment needing two: the resampler fails,
        and certification refuses rather than producing a bogus pass."""
        space = pl.integer_segment(900)
        net = pl.build_net(space, 3, 3)
        law = pl.TexpParams(0.05 / 9, 9.0, 129.0)
        csp = pl.CspInstance(net, 1, law, probe_radius=9.0, domain_radius=138.0)
        res = pl.moser_tardos(space, net, csp, seed=0, max_rounds=120)
        assert not res.success

    def test_trivial_whole_space_schedule(self):
        space = pl.integer_segment(50)
        net = pl.Net(space, np.array([25]), 51.0, 51.0)
        run_law = pl.TexpParams(0.01, 51.0, 52.0)
        csp = pl.CspInstance(net, 1, run_law, probe_radius=26.0, domain_radius=78.0)
        res = pl.moser_tardos(space, net, csp, seed=0)
        assert res.success
        coloring = pl.greedy_color(pl.net_graph(net, 104.0))
        layer = pl.carve(coloring, res.assignments[0])
        pd = pl.PaddedDecomposition(net, [layer.cluster_sets()], R=26.0, D=104.0)
        assert pl.verify_padded(pd).passed


def _traced_peak(fn):
    """``fn()`` and the traced peak of the allocations it made."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def carve_seg3000_seed0():
    """The carve benchmark's seed-0 run: segment:3000, texp N=3 r=3 eps=0.05
    D=100 on the (3, 3)-net, whose owner table keeps 536,220 of the 3001 x
    406 entries within the radius cap."""
    net = pl.build_net(pl.integer_segment(3000), 3, 3)
    csp = pl.csp_from_schedule(net, pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=100.0))
    return net, csp, pl.moser_tardos(net.space, net, csp, 0)


def test_resampler_holds_the_owner_table_and_little_else(carve_seg3000_seed0):
    """The resampler's traced peak stays within 4 MiB of its owner table's
    536,220 kept entries at 4 bytes an entry (an int16 position and a uint16
    distance, the segment's distances being whole): 6.0 MiB.  It traced at
    3.3 MiB; with 12-byte entries (an int32 position and a float64 distance)
    it traced at 7.7 MiB."""
    net, csp, _ = carve_seg3000_seed0
    result, peak = _traced_peak(lambda: pl.moser_tardos(net.space, net, csp, 0))
    assert result.success
    assert peak < 4 * 536_220 + 4 * 2**20


def test_verifying_the_carve_reads_set_diameters_in_small_blocks(carve_seg3000_seed0):
    """Verifying the seed-0 decomposition holds one 125-row block of a set's
    diameter at a time: a traced peak of 2.5 MiB, where its 1165-point
    cluster read as one 1165 x 1165 block peaked at 10.6 MiB."""
    net, csp, result = carve_seg3000_seed0
    layers = [layer.cluster_sets() for layer in result.layers]
    assert max(len(s) for sets in layers for s in sets) == 1165
    pd = pl.PaddedDecomposition(net, layers, R=csp.probe_radius, D=2 * csp.law.window[1])
    report, peak = _traced_peak(lambda: pl.verify_padded(pd))
    assert report.passed
    assert peak < 4 * 2**20

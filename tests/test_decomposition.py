import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import padlab as pl
from padlab import decomposition, spaces
from oracles import (literal_verify_cover, literal_verify_padded, make_cover,
                     naive_verify_cover, naive_verify_padded, reference_ball_of_set,
                     reference_shrink_set)


def verify(layers, net, R, D):
    """``verify_padded`` of the decomposition of ``layers`` on ``net`` at (R, D)."""
    return pl.verify_padded(pl.PaddedDecomposition(net, layers, R, D))


def carve_layer(net, t_value, M):
    coloring = pl.greedy_color(pl.net_graph(net, 2 * M))
    radii = pl.RadiusAssignment(np.full(len(net.members), t_value), net.eps, M)
    return pl.carve(coloring, radii).cluster_sets()


class TestVerifyPadded:
    def setup_method(self):
        self.space = pl.integer_segment(9)
        self.net = pl.build_net(self.space, 3, 3)
        self.layer1 = carve_layer(self.net, 4.0, 5.0)

    def test_single_layer_fails_with_witness(self):
        report = verify([self.layer1], self.net, R=2.0, D=10.0)
        assert not report.passed
        assert not report.conditions["padding"]
        members = {w["member"] for w in report.witnesses if w["condition"] == "padding"}
        assert 6 in members

    def test_shifted_second_layer_passes(self):
        net_b = pl.Net(self.space, np.array([1, 4, 7]), 3.0, 3.0)
        layer2 = carve_layer(net_b, 4.0, 5.0)
        report = verify([self.layer1, layer2], self.net, R=2.0, D=10.0)
        assert report.passed

    def test_whole_space_single_cluster(self):
        layer = [np.arange(10)]
        report = verify([layer], self.net, R=9.0, D=9.0)
        assert report.passed

    def test_diameter_violation_witnessed(self):
        report = verify([self.layer1], self.net, R=1.0, D=2.0)
        assert not report.conditions["diameter"]
        assert any(w["condition"] == "diameter" and w["diameter"] > 2.0
                   for w in report.witnesses)

    def test_net_partition_checked_on_members_only(self):
        # overlapping off-net is fine; overlapping on a member is not
        ok = [np.array([0, 1, 2, 3, 4]), np.array([4, 5, 6, 7, 8, 9])]  # share point 4
        report = verify([ok], self.net, R=1.0, D=10.0)
        assert report.conditions["net_partition"]  # 4 is not a net member
        bad = [np.array([0, 1, 2, 3]), np.array([3, 4, 5, 6, 7, 8, 9])]  # share member 3
        report = verify([bad], self.net, R=1.0, D=10.0)
        assert not report.conditions["net_partition"]

    def test_witnesses_recheck_in_isolation(self):
        report = verify([self.layer1], self.net, R=2.0, D=3.0)
        for w in report.witnesses:
            if w["condition"] == "diameter":
                s = self.layer1[w["set"]]
                assert pl.set_diameter(self.space, s) == w["diameter"] > 3.0
            elif w["condition"] == "padding":
                x = w["member"]
                ball = set(self.space.ball(x, 2.0).tolist())
                for s in self.layer1:
                    ss = set(s.tolist())
                    assert not (x in ss and ball <= ss)

    def test_overlap_off_the_net_passes(self):
        """The definition asks one holder of each net member only, so an
        overlap at a non-net point passes; a carved layer needs no stricter
        check, since it holds every point exactly once."""
        layers = [[np.array([0, 1, 2, 3, 4]), np.array([4, 5, 6, 7, 8, 9])]]
        assert verify(layers, self.net, R=1.0, D=10.0).conditions["net_partition"]
        clean = carve_layer(self.net, 4.0, 5.0)
        assert sorted(np.concatenate(clean).tolist()) == list(range(self.space.n))

    def test_refuses_oversized_spaces(self):
        big = pl.integer_segment(30000)
        net = pl.Net(big, np.array([0]), 40000.0, 40000.0)
        with pytest.raises(ValueError):
            verify([[np.arange(big.n)]], net, R=1.0, D=50000.0)

    @pytest.mark.parametrize("R,D", [(math.nan, 20.0), (1.0, math.nan), (math.inf, 20.0),
                                     (1.0, -math.inf), (True, 20.0), (1.0, "20")])
    def test_refuses_bounds_that_are_not_finite_numbers(self, R, D):
        """With NaN bounds every comparison was false, so R = NaN and D = NaN
        passed where R = 5 and D = 1 fail; such bounds are refused when the
        decomposition is built."""
        space = pl.integer_segment(20)
        net = pl.build_net(space, 2, 2)
        layers = [[np.arange(10), np.arange(10, 21)]]
        assert not verify(layers, net, R=5.0, D=20.0).passed
        assert not verify(layers, net, R=1.0, D=1.0).passed
        with pytest.raises(ValueError, match="must be a finite number"):
            pl.PaddedDecomposition(net, layers, R=R, D=D)

    def test_padding_witnesses_past_the_limit_read_no_ball(self, monkeypatch):
        """On the all-singleton layer of segment:1499 with every point a
        member, each of the 1500 members is unpadded at R = 2.  The report
        keeps the first 1000 witnesses and only counts the other 500, so the
        verifier reads the balls of the first 1000 members and no other."""
        space = pl.integer_segment(1499)
        net = pl.Net(space, np.arange(space.n), 0.5, 1.0)
        calls = []
        ball = space.ball
        monkeypatch.setattr(space, "ball", lambda x, r: calls.append(x) or ball(x, r))
        report = verify([[np.array([p]) for p in range(space.n)]], net, R=2.0, D=1.0)
        doc = report.to_jsonable()
        assert len(doc["witnesses"]) == decomposition._WITNESS_LIMIT
        assert doc["omitted_witnesses"] == {"padding": space.n - decomposition._WITNESS_LIMIT}
        assert calls == list(range(decomposition._WITNESS_LIMIT))


class TestVerifyCover:
    def test_spaced_singletons_pass(self):
        space = pl.integer_segment(20)
        layers = [[np.array([p]) for p in range(c, 21, 3)] for c in range(3)]
        report = pl.verify_cover(pl.Cover(space, layers, r_disjoint=2.0, D_bound=0.0))
        assert report.passed

    def test_distance_exactly_at_threshold_fails(self):
        space = pl.integer_segment(10)
        layer = [[np.array([0]), np.array([4])]]
        cover = pl.Cover(space, layer + [[np.arange(11)]], r_disjoint=4.0, D_bound=10.0)
        report = pl.verify_cover(cover)
        assert not report.passed  # separation must strictly exceed 4
        assert any(w["condition"] == "disjointness" and w["distance"] == 4.0
                   for w in report.witnesses)

    def test_uncovered_point_witnessed(self):
        space = pl.integer_segment(5)
        cover = pl.Cover(space, [[np.array([0, 1, 2])]], 1.0, 5.0)
        report = pl.verify_cover(cover)
        assert {w["point"] for w in report.witnesses if w["condition"] == "coverage"} \
            == {3, 4, 5}

    def test_agreement_with_naive_double_loop(self):
        """Random small set systems: the packaged verifier accepts exactly
        what the double-loop oracle accepts."""
        rng = np.random.default_rng(17)
        for trial in range(40):
            space = pl.euclidean_cloud(30, 2, seed=trial, scale=4.0)
            k = int(rng.integers(2, 6))
            layers = []
            pts = rng.permutation(30)
            chunks = np.array_split(pts, k)
            per_layer = max(1, k // 2)
            layers = [[np.sort(c) for c in chunks[i::per_layer]]
                      for i in range(per_layer)]
            r_disj = float(rng.uniform(0.05, 1.0))
            D = float(rng.uniform(1.0, 5.0))
            cover = pl.Cover(space, layers, r_disj, D)
            assert pl.verify_cover(cover).passed == \
                naive_verify_cover(space, layers, r_disj, D)

    def test_memory_grows_with_the_points_not_the_pairs_of_sets(self):
        """3000 singleton sets in one layer: the check holds no sets-by-sets
        matrix, so its traced peak stays below 16 MB (one 3000 x 3000 float
        matrix is 72 MB)."""
        space = pl.integer_segment(2999)
        cover = pl.Cover(space, [[np.array([p]) for p in range(space.n)]],
                         r_disjoint=0.5, D_bound=0.0)
        tracemalloc.start()
        try:
            report = pl.verify_cover(cover)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 16 * 2**20


    def test_witnesses_beyond_the_limit_are_counted_not_held(self):
        """300 singleton sets of segment:299 at separation 2000: each of the
        44 850 pairs fails.  The report keeps the first 1000 witnesses in the
        order the pairs are checked, (a, b) ascending, counts the other
        43 850, and peaks below 4 MiB, where holding every witness took
        21 MiB (on 1000 singletons of segment:999, 499 500 witnesses rose
        235 MB).  A 7-entry block budget writes the same bytes."""
        space = pl.integer_segment(299)
        cover = pl.Cover(space, [[np.array([p]) for p in range(space.n)]],
                         r_disjoint=2000.0, D_bound=0.0)
        tracemalloc.start()
        try:
            report = pl.verify_cover(cover)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        every = [{"condition": "disjointness", "layer": 0, "sets": [a, b],
                  "distance": float(b - a), "required_exceeding": 2000.0}
                 for a in range(space.n) for b in range(a + 1, space.n)]
        doc = report.to_jsonable()
        assert doc["witnesses"] == every[:1000]
        with mock.patch.object(spaces, "_BLOCK_ENTRIES", 7):
            assert decomposition.dump_json(pl.verify_cover(cover).to_jsonable()) \
                == decomposition.dump_json(doc)
        assert doc["omitted_witnesses"] == {"disjointness": len(every) - 1000}
        assert not doc["passed"] and not doc["conditions"]["disjointness"]
        assert peak < 4 * 2**20
        one = pl.verify_cover(pl.Cover(space, [[np.arange(3)]], 2000.0, 2.0))
        assert "omitted_witnesses" not in one.to_jsonable()


class TestNaivePaddedAgreement:
    def test_random_systems_agree(self):
        rng = np.random.default_rng(23)
        space = pl.integer_segment(40)
        net = pl.build_net(space, 2, 2)
        for trial in range(30):
            cuts = np.sort(rng.choice(np.arange(2, 39), size=3, replace=False))
            layer1 = np.array_split(np.arange(41), cuts)
            shift = int(rng.integers(1, 6))
            layer2 = np.array_split(np.arange(41), np.clip(cuts + shift, 1, 40))
            R = float(rng.integers(1, 4))
            D = float(rng.integers(8, 41))
            layers = [layer1, layer2]
            mine = verify(layers, net, R, D).passed
            assert mine == naive_verify_padded(space, layers, net.members, R, D)


class TestShrink:
    def test_worked_example(self):
        space = pl.integer_segment(9)
        assert pl.shrink_set(space, np.arange(7), 3.0).tolist() == [0, 1, 2, 3, 4]

    def test_empty_complement_keeps_everything(self):
        space = pl.integer_segment(9)
        assert len(pl.shrink_set(space, np.arange(10), 1e9)) == 10

    def test_distance_to_empty_set_is_infinite(self):
        space = pl.integer_segment(5)
        assert pl.set_distance(space, [1], []) == np.inf

    def test_nan_margin_is_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            pl.shrink_set(pl.integer_segment(9), np.arange(4), float("nan"))


@st.composite
def coordinate_sets(draw):
    """A small segment, grid (exact gaps) or cloud (12-digit rounded gaps), a
    point set on it, and a radius equal to one of its distances, within 1e-13
    of one, or beyond every distance."""
    kind = draw(st.sampled_from(["segment", "grid", "cloud"]))
    if kind == "segment":
        space = pl.integer_segment(draw(st.integers(0, 30)))
    elif kind == "grid":
        space = pl.grid_2d(draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                           draw(st.sampled_from(["l1", "l2", "linf"])))
    else:
        space = pl.euclidean_cloud(draw(st.integers(1, 30)), draw(st.integers(1, 4)),
                                   seed=draw(st.integers(0, 1000)))
    points = draw(st.lists(st.integers(0, space.n - 1), max_size=space.n))
    gaps = np.unique(space.distance_matrix()).tolist() + [1e9]
    radius = draw(st.sampled_from(gaps)) + draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    return space, points, radius


@settings(max_examples=200, deadline=None)
@given(coordinate_sets())
def test_candidate_reads_match_whole_space_reads(system):
    """Reading only a set's candidates shrinks and grows it exactly as reading
    the whole complement and the whole space did."""
    space, points, radius = system
    assert np.array_equal(pl.shrink_set(space, points, radius),
                          reference_shrink_set(space, points, radius))
    s = np.unique(np.asarray(points, dtype=np.intp))
    sets = [s, s[1::2], s[:1]]  # one pass grows overlapping sets apart
    for got, want in zip(decomposition._grown(space, sets, radius), sets):
        assert np.array_equal(got, reference_ball_of_set(space, want, radius))


def small_space(draw):
    """A segment, an l1/l2/linf grid, a rounded cloud, a tree or a Heisenberg ball."""
    kind = draw(st.sampled_from(["segment", "grid", "cloud", "tree", "heis"]))
    if kind == "segment":
        return pl.integer_segment(draw(st.integers(0, 30)))
    if kind == "grid":
        return pl.grid_2d(draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                          draw(st.sampled_from(["l1", "l2", "linf"])))
    if kind == "cloud":
        return pl.euclidean_cloud(draw(st.integers(1, 30)), draw(st.integers(1, 3)),
                                  seed=draw(st.integers(0, 1000)))
    if kind == "tree":
        return pl.balanced_tree(draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    return pl.heisenberg_ball(draw(st.integers(1, 2)))


def radius_of(draw, space):
    """0, a distance of the space (within 1e-13), or beyond every distance."""
    gaps = np.unique(space.distance_matrix()).tolist() + [space.diameter() + 1.0]
    return draw(st.sampled_from(gaps)) + draw(st.sampled_from([0.0, 1e-13, -1e-13]))


# Block budgets giving ball blocks of 1, 3 and 125 centers.
BALL_BUDGETS = st.sampled_from([7, 2304, spaces._BLOCK_ENTRIES])


@st.composite
def set_pairs(draw):
    """A space, two point sets on it that are disjoint, overlapping, identical
    or (either one) empty, and a block budget as in ``shrink_layers``."""
    space = small_space(draw)
    a = draw(st.lists(st.integers(0, space.n - 1), max_size=space.n))
    relation = draw(st.sampled_from(["disjoint", "overlapping", "identical", "empty"]))
    if relation == "disjoint":
        rest = sorted(set(range(space.n)) - set(a))
        b = draw(st.lists(st.sampled_from(rest), max_size=len(rest))) if rest else []
    elif relation == "overlapping":
        b = a[:len(a) // 2 + 1] + draw(st.lists(st.integers(0, space.n - 1), max_size=5))
    else:
        b = list(a) if relation == "identical" else []
    pair = draw(st.permutations([a, b]))
    return space, pair[0], pair[1], draw(BALL_BUDGETS)


@settings(max_examples=200, deadline=None)
@given(set_pairs())
def test_set_distance_is_the_literal_minimum(system):
    """set_distance is the minimum over every pair of points, one from each
    set, and infinity when either set is empty."""
    space, a, b, budget = system
    mat = space.distance_matrix()
    want = min((float(mat[i, j]) for i in a for j in b), default=math.inf)
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        assert pl.set_distance(space, a, b) == want


@st.composite
def shrink_layers(draw):
    """A space, a layer of possibly empty, overlapping or whole-space sets, a
    margin and a block budget: 7, 2304 or the default number of entries,
    which gives ball blocks of 1, 3 or 125 centers."""
    space = small_space(draw)
    ids = st.lists(st.integers(0, space.n - 1), max_size=space.n)
    layer = draw(st.lists(ids | st.just(list(range(space.n))), max_size=5))
    return space, layer, radius_of(draw, space), draw(BALL_BUDGETS)


@settings(max_examples=200, deadline=None)
@given(shrink_layers())
def test_layer_shrink_matches_the_set_by_set_reference(system):
    """One ball pass over a layer shrinks each set, and shrink_set shrinks one,
    exactly as reading each set's whole complement did."""
    space, layer, margin, budget = system
    layer = [decomposition._as_index_array(s, space.n) for s in layer]
    want = [reference_shrink_set(space, s, margin).tolist() for s in layer]
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        assert [s.tolist() for s in decomposition._shrink_layer(space, layer, margin)] == want
        assert [pl.shrink_set(space, s, margin).tolist() for s in layer] == want


@st.composite
def padded_systems(draw):
    """A space, a net on it and 1-3 layers: each point joins one set, several
    or none (unless the layers partition the space), so members go uncovered
    or held twice and sets overlap off the net; layers may be empty.  R may
    be 0.  Ball blocks hold 1, 3 or 125 centers, as in ``shrink_layers``."""
    space = small_space(draw)
    scale = draw(st.sampled_from([0.5, 1.0, 2.0])) * max(space.diameter(), 1.0) / 4
    net = pl.build_net(space, scale, scale)
    partition = draw(st.booleans())
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1 if partition else 0, 4))
        holders = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=int(partition),
                                         max_size=1 if partition else 2) if k else
                                st.just([]), min_size=space.n, max_size=space.n))
        layers.append([[p for p in range(space.n) if j in holders[p]] for j in range(k)])
    D = draw(st.sampled_from([0.0, 1.0, space.diameter()]))
    return space, net, layers, radius_of(draw, space), D, draw(BALL_BUDGETS)


@settings(max_examples=200, deadline=None)
@given(padded_systems())
def test_padded_report_matches_the_per_member_oracle(system):
    """verify_padded's report, witnesses included, is the one a member-by-member
    loop over single open balls writes; a decomposition at a negative R is
    refused when it is built."""
    space, net, layers, R, D, budget = system
    if R < 0:  # drawn as 0 - 1e-13
        with pytest.raises(ValueError, match="R must be a finite number >= 0"):
            pl.PaddedDecomposition(net, layers, R, D)
        return
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        got = verify(layers, net, R, D).to_jsonable()
    assert got == literal_verify_padded(space, layers, net.members, R, D)


@st.composite
def cover_systems(draw):
    """A space and 0-3 layers of possibly empty, overlapping or whole-space
    sets, with a separation and a diameter bound each 0, a distance of the
    space (so sets touch at the bound), within 1e-13 of one, or beyond every
    distance."""
    space = small_space(draw)
    ids = st.lists(st.integers(0, space.n - 1), max_size=space.n)
    layers = draw(st.lists(st.lists(ids | st.just(list(range(space.n))), max_size=4),
                           max_size=3))
    return space, layers, abs(radius_of(draw, space)), abs(radius_of(draw, space))


@settings(max_examples=200, deadline=None)
@given(cover_systems())
def test_cover_report_matches_the_pair_by_pair_oracle(system):
    """verify_cover's report, witness distances included, is the one a loop
    over each pair of sets writes, under the default block budget and a
    7-entry one."""
    space, layers, r, D = system
    want = literal_verify_cover(space, layers, r, D)
    for budget in (spaces._BLOCK_ENTRIES, 7):
        with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
            assert pl.verify_cover(pl.Cover(space, layers, r, D)).to_jsonable() == want


class TestConversions:
    def test_singleton_cover_to_padded(self):
        """Layers of spaced singletons on the segment: growing by R and
        patching with unit balls yields a verified (R, 2R+2r)-padded
        decomposition."""
        space = pl.integer_segment(100)
        net = pl.build_net(space, 1, 1)
        R = 3.0
        layers = [[np.array([p]) for p in range(c, 101, 8)] for c in range(8)]
        cover = pl.Cover(space, layers, r_disjoint=7.0, D_bound=0.0)
        assert pl.verify_cover(cover).passed
        pd = pl.padded_from_cover(cover, net, R)
        assert pd.R == 3.0 and pd.D == 2 * R + 2 * 1 + 0.0
        assert pl.verify_padded(pd).passed

    def test_whole_space_cover_round_trip(self):
        space = pl.integer_segment(30)
        net = pl.build_net(space, 1, 1)
        cover = pl.Cover(space, [[np.arange(31)]], r_disjoint=9.0, D_bound=30.0)
        pd = pl.padded_from_cover(cover, net, R=4.0)
        assert pd.layers[0][0].tolist() == list(range(31))
        back = pl.cover_from_padded(pd)
        assert back.layers[0][0].tolist() == list(range(31))
        assert back.r_disjoint == 2.0 and back.D_bound == pd.D

    def test_rejects_insufficient_separation(self):
        space = pl.integer_segment(100)
        net = pl.build_net(space, 1, 1)
        layers = [[np.array([p]) for p in range(c, 101, 8)] for c in range(8)]
        cover = pl.Cover(space, layers, r_disjoint=7.0, D_bound=0.0)
        with pytest.raises(ValueError):
            pl.padded_from_cover(cover, net, R=3.5)  # needs separation 8

    def test_rejects_unverified_cover(self):
        space = pl.integer_segment(20)
        net = pl.build_net(space, 1, 1)
        cover = pl.Cover(space, [[np.array([0, 1])]], r_disjoint=5.0, D_bound=1.0)
        with pytest.raises(pl.VerificationFailure):
            pl.padded_from_cover(cover, net, R=1.0)  # misses most points

    def test_rejects_unverified_decomposition(self):
        space = pl.integer_segment(9)
        net = pl.build_net(space, 1, 1)
        pd = pl.PaddedDecomposition(net, [[np.arange(5), np.arange(5, 10)]],
                                    R=4.0, D=9.0)
        with pytest.raises(pl.VerificationFailure):
            pl.cover_from_padded(pd)

    def test_full_round_trip_on_cloud(self):
        space = pl.euclidean_cloud(300, 2, seed=0, scale=100.0)
        net = pl.build_net(space, 1, 1)
        r, R = 1.0, 2.0
        R_pad = R + 2 * r
        cover = make_cover(space, r, separation=2 * R_pad + r, seed=0)
        assert pl.verify_cover(cover).passed
        pd = pl.padded_from_cover(cover, net, R_pad)
        assert (pd.R, pd.D) == (R_pad, 2 * R_pad + 2 * r + cover.D_bound)
        back = pl.cover_from_padded(pd)
        assert (back.r_disjoint, back.D_bound) == (R, pd.D)
        assert pl.verify_cover(back).passed


@st.composite
def round_trip_cases(draw):
    """A segment, a small cloud or a tree with a net scale r, a padding
    radius R >= r and a cover seed.  The radii are multiples of a power of
    two, so the (R, D) bookkeeping is exact in floating point."""
    spec, unit = draw(st.one_of(
        st.builds(lambda n: (f"segment:{n}", 0.5), st.integers(1, 60)),
        st.builds(lambda n, s: (f"cloud:{n}:2:seed={s}", 1 / 16), st.integers(2, 40),
                  st.integers(0, 99)),
        st.sampled_from([("tree:2:3", 0.5), ("tree:2:4", 0.5), ("tree:3:3", 0.5)])))
    r = unit * draw(st.integers(1, 4))
    return spec, r, r + unit * draw(st.integers(0, 6)), draw(st.integers(0, 999))


@settings(max_examples=60, deadline=None)
@given(round_trip_cases())
def test_cover_and_padded_round_trips(case):
    """A verified (2(R + 2r) + r, 2r)-cover grows into an (R + 2r, D)-padded
    decomposition and shrinks back into an (R, D)-cover: both conversions
    succeed, both verifiers pass, the (R, D) bookkeeping holds, and each
    object comes back unchanged through its JSON writer and reader."""
    spec, r, R, seed = case
    space = pl.parse_fixture(spec)
    net = pl.build_net(space, r, r)
    R_pad = R + 2 * r
    cover = make_cover(space, r, separation=2 * R_pad + r, seed=seed)
    pd = pl.padded_from_cover(cover, net, R_pad)
    back = pl.cover_from_padded(pd)
    assert pl.verify_cover(cover).passed and pl.verify_cover(back).passed
    assert pl.verify_padded(pd).passed
    assert (pd.R, pd.D) == (R_pad, 2 * R_pad + 2 * r + cover.D_bound)
    assert (back.r_disjoint, back.D_bound) == (R, pd.D)
    for obj, write, read in ((cover, pl.cover_to_json, pl.cover_from_json),
                             (back, pl.cover_to_json, pl.cover_from_json),
                             (pd, pl.decomposition_to_json, pl.decomposition_from_json)):
        again = read(json.loads(decomposition.dump_json(write(obj, spec))))
        assert write(again, spec) == write(obj, spec)
    again = pl.decomposition_from_json(pl.decomposition_to_json(pd, spec))
    assert pl.verify_padded(again).passed


class TestSerialization:
    def test_cover_round_trip(self):
        space = pl.integer_segment(20)
        layers = [[np.array([p]) for p in range(c, 21, 3)] for c in range(3)]
        cover = pl.Cover(space, layers, 2.0, 0.0)
        doc = pl.cover_to_json(cover, "segment:20")
        text = json.dumps(doc, sort_keys=True)
        loaded = pl.cover_from_json(json.loads(text))
        assert loaded.r_disjoint == 2.0
        assert pl.verify_cover(loaded).passed

    def test_decomposition_round_trip(self):
        space = pl.integer_segment(9)
        net = pl.build_net(space, 3, 3)
        layer = carve_layer(net, 4.0, 5.0)
        pd = pl.PaddedDecomposition(net, [layer], R=1.0, D=8.0)
        doc = pl.decomposition_to_json(pd, "segment:9")
        loaded = pl.decomposition_from_json(json.loads(json.dumps(doc)))
        assert loaded.R == 1.0 and loaded.m == 1
        assert loaded.net.members.tolist() == [0, 3, 6, 9]
        assert [s.tolist() for s in loaded.layers[0]] == [s.tolist() for s in pd.layers[0]]

    def test_report_serializes_with_witnesses(self):
        space = pl.integer_segment(9)
        net = pl.build_net(space, 3, 3)
        layer = carve_layer(net, 4.0, 5.0)
        report = verify([layer], net, R=2.0, D=10.0)
        doc = report.to_jsonable()
        assert doc["passed"] is False
        json.dumps(doc)  # must be JSON-clean


class TestIndexArrays:
    @pytest.mark.parametrize("points", [
        np.array([0, 3, 4, 9], dtype=np.intp), np.array([9, 0, 3, 3], dtype=np.intp),
        np.array([2, 5], dtype=np.uint8), np.array([], dtype=np.intp),
        np.array([1.0, 4.0, 2.0]), [7, 1, 7], np.array([[4, 1], [1, 0]], dtype=np.intp),
    ], ids=["sorted_intp", "unsorted_intp", "sorted_uint8", "empty", "floats", "list",
            "two_dim"])
    def test_matches_unique_in_a_new_array(self, points):
        ids = decomposition._as_index_array(points, 10)
        assert ids.dtype == np.intp
        assert np.array_equal(ids, np.unique(np.asarray(points, dtype=np.intp)))
        if isinstance(points, np.ndarray):
            assert not np.shares_memory(ids, points)

    @pytest.mark.parametrize("points,bad", [
        ([-1, 2, 3], "-1"), ([0, 5, 10], "10"), ([0, 5, 12], "12"), ([-3, -2], "-3"),
        ([4, 3, -1], "-1"), ([11, 2], "11"),
    ])
    def test_out_of_range_intp_ids_raise(self, points, bad):
        """Sorted and unsorted intp arrays with negative or out-of-range ids
        raise the same error as the float path."""
        with pytest.raises(ValueError, match=f"integers in 0..9, got {bad}$"):
            decomposition._as_index_array(np.array(points, dtype=np.intp), 10)
        with pytest.raises(ValueError, match=f"integers in 0..9, got {bad}$"):
            decomposition._as_index_array([float(p) for p in points], 10)


class TestBlockBudget:
    def test_every_distance_block_fits_the_budget(self, monkeypatch):
        """With a tiny block budget, no distance block any verifier, conversion,
        set reduction, net, carving, cut probe, growth, ball, distance matrix
        or metric check asks for exceeds the budget, or one row when a row is
        wider, and each of them reads through ``dist_block``: a coordinate
        space's, or a Heisenberg ball's for its diameter, matrix and check.
        The resampler runs rounds, so its per-round domain reads are checked
        too."""
        budget = 20
        monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", budget)
        calls = []

        def recording(original):
            def dist_block(self, rows, cols=None):
                calls.append((len(rows), self.n if cols is None else len(cols)))
                return original(self, rows, cols)
            return dist_block

        for cls in (pl.CoordSpace, pl.HeisenbergBall):
            monkeypatch.setattr(cls, "dist_block", recording(cls.dist_block))
        space = pl.integer_segment(60)
        heis = pl.heisenberg_ball(3)
        cloud = pl.euclidean_cloud(50, 2, seed=1)
        net = pl.build_net(space, 1, 1)
        cloud_net = pl.build_net(cloud, 0.3, 0.2)
        cover = pl.Cover(space, [[np.array([p]) for p in range(c, 61, 8)] for c in range(8)],
                         r_disjoint=7.0, D_bound=0.0)
        pd = pl.padded_from_cover(cover, net, 3.0)
        coloring = pl.greedy_color(pl.net_graph(net, 6.0))
        radii = pl.RadiusAssignment(np.full(len(net.members), 2.0), 1.0, 3.0)
        csp = pl.CspInstance(net, 1, pl.TexpParams(0.5, 1.0, 3.0), 1.5, 4.0)
        layer = pl.carve(coloring, radii)
        ops = {
            "verify_cover": lambda: pl.verify_cover(cover),
            "verify_padded": lambda: pl.verify_padded(pd),
            "padded_from_cover": lambda: pl.padded_from_cover(cover, net, 3.0),
            "cover_from_padded": lambda: pl.cover_from_padded(pd),
            "set_diameter": lambda: pl.set_diameter(space, np.arange(61)),
            "set_distance": lambda: pl.set_distance(space, np.arange(30), np.arange(30, 61)),
            "shrink_set": lambda: pl.shrink_set(space, np.arange(40), 3.0),
            "shrink_set_2d": lambda: pl.shrink_set(cloud, np.arange(0, 50, 2), 0.2),
            "diameter": lambda: pl.integer_segment(60).diameter(),
            "build_net": lambda: pl.build_net(cloud, 0.3, 0.2),
            "net_graph": lambda: pl.net_graph(net, 6.0),
            "net_graph_2d": lambda: pl.net_graph(cloud_net, 0.5),
            "carve": lambda: pl.carve(coloring, radii),
            "moser_tardos": lambda: pl.moser_tardos(net, csp, seed=0, max_rounds=5),
            "growth_table": lambda: pl.growth_table(space, [2.0, 5.0], trials=2),
            "validate_metric": lambda: pl.validate_metric(space, exhaustive_limit=10,
                                                          samples=50),
            "validate_metric_exhaustive": lambda: pl.validate_metric(space),
            "distance_matrix": space.distance_matrix,
            "doubling_constant_estimate": lambda: pl.doubling_constant_estimate(
                space, [2.0, 5.0], centers=[0, 30]),
            "heis_diameter": heis.diameter,
            "heis_distance_matrix": heis.distance_matrix,
            "heis_validate_metric": lambda: pl.validate_metric(heis),
            "cut_probability_mc": lambda: pl.cut_probability_mc(
                net, pl.TgeoParams(0.2, 3), 4.0, [5, 30, 55], trials=3, seed=0),
            "is_cut": lambda: pl.is_cut(layer, 30, 4.0),
            "ball_net_count": lambda: pl.ball_net_count(net, 30, 5.0),
            "volume_doubling_estimate": lambda: pl.volume_doubling_estimate(
                pl.MeasuredSpace.uniform(space), [2.0, 3.0]),
            "ball": lambda: space.ball(30, 5.0),
        }
        for name, op in ops.items():
            calls.clear()
            op()
            assert calls, name
            assert all(rows * width <= max(budget, width) for rows, width in calls), name


@st.composite
def set_systems(draw):
    """A small cloud, a net on it, and 1-3 layers of possibly empty,
    overlapping or non-covering point sets."""
    n = draw(st.integers(2, 24))
    space = pl.euclidean_cloud(n, 2, seed=draw(st.integers(0, 1000)), scale=4.0)
    net = pl.build_net(space, draw(st.sampled_from([0.5, 1.0, 2.0])), 0.5)
    point_sets = st.lists(st.lists(st.integers(0, n - 1), max_size=n), max_size=5)
    layers = draw(st.lists(point_sets, min_size=1, max_size=3))
    return space, net, layers, draw(st.floats(0.1, 3.0)), draw(st.floats(0.5, 6.0))


@settings(max_examples=60, deadline=None)
@given(set_systems())
def test_reports_do_not_depend_on_the_block_budget(system):
    """Verifier reports and shrunk sets are the same under the default budget
    and under a 7-entry one (one or a few rows a block)."""
    space, net, layers, R, D = system

    def outputs():
        cover = pl.Cover(space, layers, r_disjoint=R, D_bound=D)
        return (pl.verify_cover(cover).to_jsonable(),
                verify(layers, net, R, D).to_jsonable(),
                [pl.shrink_set(space, s, R).tolist() for layer in layers for s in layer])

    assert spaces._BLOCK_ENTRIES == 4_000_000
    default = outputs()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_BLOCK_ENTRIES", 7)
        assert outputs() == default


class TestReaders:
    """The one set of readers that every value from a JSON document goes through."""

    @pytest.mark.parametrize("value,kwargs,want", [
        (4, {}, 4.0), (4.0, {"integer": True}, 4), (np.int64(3), {"integer": True}, 3),
        (np.float64(2.5), {}, 2.5), (-0.5, {}, -0.5), (0, {"low": 0}, 0.0),
        (10**300, {"integer": True, "low": 2}, 10**300), (1e-300, {"above": 0}, 1e-300),
    ])
    def test_number_reads_finite_numbers(self, value, kwargs, want):
        got = decomposition._number(value, "x", **kwargs)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("value,kwargs,message", [
        (True, {"integer": True}, "x must be an integer, got true"),
        (False, {}, "x must be a finite number, got false"),
        ("3", {}, 'x must be a finite number, got "3"'),
        (None, {"integer": True}, "x must be an integer, got null"),
        ([1], {}, "x must be a finite number, got [1]"),
        ({"a": 1}, {}, 'x must be a finite number, got {"a": 1}'),
        (2.5, {"integer": True}, "x must be an integer, got 2.5"),
        (math.inf, {"integer": True}, "x must be an integer, got infinity"),
        (math.nan, {"integer": True}, "x must be an integer, got nan"),
        (math.nan, {}, "x must be a finite number, got nan"),
        (-math.inf, {}, "x must be a finite number, got -infinity"),
        (-1, {"integer": True, "low": 0, "rule": "nonnegative"}, "x must be nonnegative, got -1"),
        (0.0, {"above": 0, "rule": "positive"}, "x must be positive, got 0.0"),
        (math.nan, {"above": 0, "rule": "positive and finite"},
         "x must be positive and finite, got nan"),
        ("1", {"above": 0, "rule": "positive and finite"}, 'x must be a finite number, got "1"'),
        (np.bool_(True), {}, "x must be a finite number, got true"),
        (10**400, {"integer": True, "low": 2, "rule": "an integer >= 2"},
         "x must be an integer >= 2, got an integer beyond float range"),
        (-10**400, {}, "x must be a finite number, got an integer beyond float range"),
    ])
    def test_number_refuses_with_one_message(self, value, kwargs, message):
        with pytest.raises(decomposition.ConfigError) as exc:
            decomposition._number(value, "x", **kwargs)
        assert str(exc.value) == message
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("value", ["", 5, None, True, ["a"]])
    def test_text_refuses_all_but_nonempty_strings(self, value):
        assert decomposition._text("segment:9", "fixture") == "segment:9"
        with pytest.raises(decomposition.ConfigError, match="fixture must be a nonempty string"):
            decomposition._text(value, "fixture")

    @pytest.mark.parametrize("points,shown", [
        ([0, True], "true"), ([0, "1"], '"1"'), ([None], "null"), ([0, [1]], "[1]"),
        (5, "5"), ("0", '"0"'), ({"0": 1}, '{"0": 1}'),
    ])
    def test_point_ids_refuse_what_is_not_a_number(self, points, shown):
        with pytest.raises(decomposition.ConfigError, match=f"got {re.escape(shown)}$"):
            decomposition._point_ids(points, 10)
        with pytest.raises(decomposition.ConfigError, match="a list of integers in 0..9"):
            decomposition._point_ids(np.array([True, False]), 10)

    def test_layers_are_read_in_one_pass(self, monkeypatch):
        calls = []
        original = decomposition._point_ids
        monkeypatch.setattr(decomposition, "_point_ids",
                            lambda points, n: calls.append(len(points)) or original(points, n))
        layers = decomposition._read_layers([[[3, 1.0], []], [[9, 0, 2]]], 10)
        assert calls == [5]
        assert [[s.tolist() for s in layer] for layer in layers] == [[[3, 1], []], [[9, 0, 2]]]
        for bad in ([[3]], [5], [[[1], 2]], {"a": 1}):
            with pytest.raises(decomposition.ConfigError, match="layers must be"):
                decomposition._read_layers(bad, 10)

    def test_dump_json_streams_the_text_it_returns(self, tmp_path):
        """Written to a file, the document is the text returned without one."""
        doc = {"b": [np.float64(1 / 3), np.int64(2)], "a": {"c": [[0, 1], []]}}
        path = tmp_path / "out.json"
        text = decomposition.dump_json(doc)
        assert decomposition.dump_json(doc, path) == path.read_text() == text
        assert text.endswith("]\n}\n") and '"b": [\n  0.333333333333,' in text

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_dump_json_refuses_non_finite_floats(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            decomposition.dump_json({"bound": [1.0, value]}, path)
        assert not path.exists()

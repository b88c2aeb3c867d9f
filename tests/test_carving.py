from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import padlab as pl
from padlab import carving, spaces
from padlab.carving import _first_cover, _probe_cuts
from oracles import (literal_carve, literal_is_cut, reference_first_cover,
                     reference_probe_cuts)


def path_graph_netgraph(n):
    space = pl.integer_segment(n - 1)
    net = pl.build_net(space, 1, 1)
    return pl.NetGraph(net, 1.0, 1.0)  # edges exactly at distance 1


class TestGreedyColor:
    def test_path_needs_two_colors(self):
        col = pl.greedy_color(path_graph_netgraph(5))
        assert col.num_colors == 2
        assert col.colors.tolist() == [0, 1, 0, 1, 0]

    def test_clique_needs_all_colors(self):
        space = pl.integer_segment(9)
        net = pl.build_net(space, 3, 3)
        col = pl.greedy_color(pl.net_graph(net, 10.0))
        assert col.num_colors == 4

    def test_random_bounded_degree_graphs_proper_within_bound(self):
        """200 random geometric band graphs: proper everywhere, and never
        more than max degree + 1 colors, checked against raw adjacency."""
        rng = np.random.default_rng(5)
        for trial in range(200):
            n = int(rng.integers(10, 40))
            space = pl.euclidean_cloud(n, 2, seed=trial, scale=6.0)
            net = pl.build_net(space, 1.0, 1.0)
            g = pl.net_graph(net, float(rng.uniform(1.5, 4.0)))
            col = pl.greedy_color(g)
            assert col.num_colors <= g.max_degree + 1
            mm = space.dist_block(net.members, net.members)
            for a in range(g.num_vertices()):
                for b in range(a + 1, g.num_vertices()):
                    if g.band_low <= mm[a, b] <= g.band_high:
                        assert col.colors[a] != col.colors[b]


PEEL_OFF_FIXTURES = [
    pl.integer_segment(99),
    pl.grid_2d(12, 12, "linf"),
    pl.euclidean_cloud(200, 2, seed=1, scale=12.0),
]


class TestCarve:
    def setup_method(self):
        self.space = pl.integer_segment(9)
        self.net = pl.build_net(self.space, 3, 3)
        self.coloring = pl.greedy_color(pl.net_graph(self.net, 10.0))

    def test_hand_simulation(self):
        radii = pl.RadiusAssignment(np.full(4, 4.0), 3.0, 5.0)
        layer = pl.carve(self.coloring, radii)
        assert [s.tolist() for s in layer.cluster_sets()] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert layer.centers.tolist() == [0, 3, 6]  # empty cluster of 9 dropped

    def test_single_ball_swallows_space(self):
        space = pl.integer_segment(20)
        net = pl.Net(space, np.array([10]), 21.0, 21.0)
        coloring = pl.greedy_color(pl.NetGraph(net, 21.0, 2 * 25.0))
        radii = pl.RadiusAssignment(np.array([25.0]), 21.0, 25.0)
        layer = pl.carve(coloring, radii)
        assert layer.num_clusters == 1
        assert layer.cluster_sets()[0].tolist() == list(range(21))

    def test_isolated_carving_every_point_own_cluster(self):
        space = pl.CoordSpace(np.arange(0, 50, 10.0))  # pairwise distance >= 10
        net = pl.build_net(space, 1, 1)
        radii = pl.RadiusAssignment(np.full(5, 1.0), 1.0, 2.0)
        coloring = pl.greedy_color(pl.net_graph(net, 2 * 2.0))
        layer = pl.carve(coloring, radii)
        assert layer.num_clusters == 5

    def test_total_partition(self):
        rng = np.random.default_rng(0)
        radii = pl.RadiusAssignment(rng.uniform(3, 5, 4), 3.0, 5.0)
        layer = pl.carve(self.coloring, radii)
        sets = layer.cluster_sets()
        combined = np.sort(np.concatenate(sets))
        assert combined.tolist() == list(range(10))

    def test_rejects_low_truncation_below_covering_radius(self):
        radii = pl.RadiusAssignment(np.full(4, 2.5), 2.0, 5.0)
        with pytest.raises(ValueError):
            pl.carve(self.coloring, radii)

    def test_rejects_coloring_with_short_band(self):
        radii = pl.RadiusAssignment(np.full(4, 4.0), 3.0, 8.0)  # needs band 16
        with pytest.raises(ValueError):
            pl.carve(self.coloring, radii)

    def test_detects_invalid_coloring(self):
        # force two same-color centers whose balls overlap
        bad = pl.Coloring(self.coloring.graph, np.zeros(4, dtype=np.int64), 1)
        radii = pl.RadiusAssignment(np.full(4, 4.0), 3.0, 5.0)
        with pytest.raises(pl.CarveError):
            pl.carve(bad, radii)

    def test_cluster_diameter_at_most_twice_cap(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            space = pl.euclidean_cloud(150, 2, seed=trial, scale=10.0)
            net = pl.build_net(space, 1, 1)
            M = 2.0
            coloring = pl.greedy_color(pl.net_graph(net, 2 * M))
            t = rng.uniform(1.0, M, len(net.members))
            layer = pl.carve(coloring, pl.RadiusAssignment(t, 1.0, M))
            for s in layer.cluster_sets():
                assert pl.set_diameter(space, s) <= 2 * M

    def test_partition_invariant_to_cluster_labels(self):
        rng = np.random.default_rng(9)
        t = rng.uniform(3, 5, 4)
        layer = pl.carve(self.coloring, pl.RadiusAssignment(t, 3.0, 5.0))
        as_sets = {frozenset(s.tolist()) for s in layer.cluster_sets()}
        again = pl.carve(self.coloring, pl.RadiusAssignment(t, 3.0, 5.0))
        assert {frozenset(s.tolist()) for s in again.cluster_sets()} == as_sets

    @pytest.mark.parametrize("fixture,block_rows", [
        (fixture, block_rows) for block_rows in (None, 7) for fixture in PEEL_OFF_FIXTURES
    ], ids=[s.label for s in PEEL_OFF_FIXTURES]
        + [f"{s.label}-7_rows_a_block" for s in PEEL_OFF_FIXTURES])
    def test_priority_rule_equals_inductive_peel_off(self, fixture, block_rows, monkeypatch):
        """50 random radius draws per fixture: the per-point priority rule
        and the literal color-by-color set difference agree everywhere.  With
        7 rows a block, the owner table is read in many blocks of different
        widths: rows near a fixture's edges, such as the segment's ends, hold
        fewer members than the rest."""
        net = pl.build_net(fixture, 1, 1)
        if block_rows is not None:
            monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", block_rows * len(net.members))
        M = 3.0
        coloring = pl.greedy_color(pl.net_graph(net, 2 * M))
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = rng.uniform(1.0, M, len(net.members))
            radii = pl.RadiusAssignment(t, 1.0, M)
            layer = pl.carve(coloring, radii)
            mine = layer.center_positions[layer.cluster_of]
            oracle = literal_carve(fixture, net.members, coloring.colors, t)
            assert np.array_equal(mine, oracle)

    def test_guard_on_oversized_instances(self, monkeypatch):
        """The owner table's guard refuses a space times net size above it,
        in the resampler and in a plain carve."""
        space = pl.integer_segment(20)
        net = pl.build_net(space, 1, 1)
        csp = pl.CspInstance(net, 1, pl.TexpParams(0.5, 1.0, 2.0), 1.0, 3.0)
        coloring = pl.greedy_color(pl.net_graph(net, 4.0))
        radii = pl.RadiusAssignment(np.full(len(net.members), 1.5), 1.0, 2.0)
        monkeypatch.setattr(carving, "_OWNER_TABLE_GUARD", 10)
        with pytest.raises(ValueError, match="owner table guard"):
            pl.moser_tardos(space, net, csp, seed=0)
        with pytest.raises(ValueError, match="owner table guard"):
            pl.carve(coloring, radii)

    def test_csv_serialization(self, tmp_path):
        radii = pl.RadiusAssignment(np.full(4, 4.0), 3.0, 5.0)
        layer = pl.carve(self.coloring, radii)
        path = tmp_path / "layer.csv"
        layer.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "point_id,cluster_id,center_id"
        assert lines[1] == "0,0,0"
        assert lines[5] == "4,1,3"


# columns on either side of the owner scan's chunk boundaries (16, 48, 112, 240)
EDGE_COLUMNS = [0, 1, 14, 15, 16, 17, 46, 47, 48, 49, 110, 111, 112, 113,
                238, 239, 240, 241, 298, 299]


@st.composite
def owner_tables(draw):
    """An owner table of random rows with first covers placed around the
    chunk boundaries, ``inf`` padding after each row's entries, a few
    tie-flagged rows and maybe one uncovered row, plus a row selection that
    is every row (``None``) or a list that may be empty, repeat or be
    unsorted."""
    width = draw(st.integers(1, 300))
    n_rows = draw(st.integers(1, 10))
    T = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    colors = rng.integers(0, draw(st.integers(1, T)), T)
    t = rng.uniform(1.0, 2.0, T)
    members = rng.integers(0, T, (n_rows, width))
    covering = rng.random((n_rows, width)) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    first = [draw(st.sampled_from(EDGE_COLUMNS) | st.integers(0, width - 1)) % width
             for _ in range(n_rows)]
    uncovered = draw(st.sets(st.integers(0, n_rows - 1), max_size=1))
    dists = np.where(covering, t[members] * rng.random((n_rows, width)),
                     t[members] + rng.integers(0, 2, (n_rows, width)))
    for i, c in enumerate(first):
        dists[i, :c] = t[members[i, :c]]  # not covering: balls are open
        if i not in uncovered:
            dists[i, c] = 0.5 * t[members[i, c]]
        length = draw(st.integers(c + 1, width))
        members[i, length:] = 0
        dists[i, length:] = np.inf
        if i in uncovered:
            dists[i, c:] = np.inf
    tie_rows = np.zeros(n_rows, dtype=bool)
    tie_rows[list(draw(st.sets(st.integers(0, n_rows - 1), max_size=2)))] = True
    rows = draw(st.none() | st.lists(st.integers(0, n_rows - 1), max_size=12))
    return members, dists, tie_rows, colors, t, rows


def _outcome(fn, *args):
    try:
        return fn(*args)
    except pl.CarveError as exc:
        return str(exc)


@given(owner_tables())
@settings(max_examples=300, deadline=None)
def test_chunked_first_cover_matches_full_width_scan(table):
    """The chunked in-place scan picks the owners of the full-width scan over
    the selected rows, and raises CarveError in the same cases with the same
    message."""
    members, dists, tie_rows, colors, t, rows = table
    picked = np.arange(len(members)) if rows is None else np.array(rows, dtype=np.intp)
    expected = _outcome(reference_first_cover, members[picked], dists[picked],
                        tie_rows[picked], colors, t)
    got = _outcome(_first_cover, members, dists, tie_rows, colors, t, rows)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, expected)


class TestIsCut:
    def setup_method(self):
        space = pl.integer_segment(9)
        net = pl.build_net(space, 3, 3)
        coloring = pl.greedy_color(pl.net_graph(net, 10.0))
        radii = pl.RadiusAssignment(np.full(4, 4.0), 3.0, 5.0)
        self.layer = pl.carve(coloring, radii)

    def test_hand_examples(self):
        assert pl.is_cut(self.layer, 6, 2.0) is True    # {5,6,7} spans two clusters
        assert pl.is_cut(self.layer, 1, 2.0) is False   # {0,1,2} inside the first

    def test_tiny_ball_never_cut(self):
        for c in range(10):
            assert pl.is_cut(self.layer, c, 0.5) is False

    def test_monotone_in_radius(self):
        for c in range(10):
            for r in (1.0, 2.0, 3.0, 5.0, 8.0):
                if pl.is_cut(self.layer, c, r):
                    assert pl.is_cut(self.layer, c, r + 1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            pl.is_cut(self.layer, 3, 0.0)

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="r must be positive"):
            pl.is_cut(self.layer, 3, float("nan"))


class TestCutProbabilityMc:
    def test_single_huge_ball_never_cuts(self):
        space = pl.integer_segment(20)
        net = pl.Net(space, np.array([10]), 21.0, 21.0)
        law = pl.TexpParams(0.5, 21.0, 22.0)
        res = pl.cut_probability_mc(net, law, 3.0, centers=[10], trials=1, seed=0)
        assert res.aggregate_freq == 0.0

    def test_matches_literal_carve_per_trial(self):
        """The lazy first-touching-ball evaluation equals carving the full
        layer with the inductive oracle, trial by trial, center by center."""
        space = pl.integer_segment(99)
        net = pl.build_net(space, 1, 1)
        law = pl.TgeoParams(0.05, 20)
        centers = np.arange(5, 95, 7)
        trials = 50
        res = pl.cut_probability_mc(net, law, 3.0, centers, trials, seed=13)
        coloring = pl.greedy_color(pl.net_graph(net, 40.0))
        for k in range(trials):
            t = pl.draw_radii(law, net, 13, k).t
            owner = literal_carve(space, net.members, coloring.colors, t)
            for j, c in enumerate(centers):
                assert res.cut_matrix[k, j] == literal_is_cut(space, owner, c, 3.0)

    def test_matches_carve_for_texp_law(self):
        space = pl.integer_segment(120)
        net = pl.build_net(space, 3, 3)
        law = pl.TexpParams(0.1, 9.0, 30.0)
        centers = net.members[2:-2:4]
        res = pl.cut_probability_mc(net, law, 9.0, centers, trials=25, seed=3)
        coloring = pl.greedy_color(pl.net_graph(net, 60.0))
        for k in range(25):
            radii = pl.draw_radii(law, net, 3, k)
            layer = pl.carve(coloring, radii)
            for j, c in enumerate(centers):
                assert res.cut_matrix[k, j] == pl.is_cut(layer, int(c), 9.0)

    def test_threads_do_not_change_results(self):
        space = pl.integer_segment(200)
        net = pl.build_net(space, 1, 1)
        law = pl.TgeoParams(0.1, 15)
        centers = np.arange(10, 190, 17)
        a = pl.cut_probability_mc(net, law, 4.0, centers, 30, 5)
        b = pl.cut_probability_mc(net, law, 4.0, centers, 30, 5, threads=4)
        assert np.array_equal(a.cut_matrix, b.cut_matrix)

    @pytest.mark.parametrize("coords,members,law,center", [
        ([0.0, 20.0], [0], pl.TgeoParams(0.5, 4), 1),            # no candidate
        ([0.0, 3.5], [0], pl.TexpParams(50.0, 1.0, 4.0), 1),     # none reaches
    ], ids=["no_candidate", "none_reaches"])
    def test_untouched_probe_raises(self, coords, members, law, center):
        """A hand-built net that does not cover the probe ball (its eps claims
        coverage it lacks) leaves the probe touched by no ball."""
        space = pl.CoordSpace(coords)
        net = pl.Net(space, np.array(members), 1.0, 1.0)
        with pytest.raises(pl.CarveError, match="touched by no ball"):
            pl.cut_probability_mc(net, law, 0.5, [center], 5, 0)

    def test_standard_errors_are_binomial(self):
        space = pl.integer_segment(200)
        net = pl.build_net(space, 1, 1)
        law = pl.TgeoParams(0.1, 15)
        res = pl.cut_probability_mc(net, law, 4.0, np.arange(20, 180, 16), 40, 2)
        f = res.per_center_freq
        assert np.allclose(res.per_center_se, np.sqrt(f * (1 - f) / 40))


def test_probe_scan_worked_example():
    """20 candidates past the first 16-column chunk, each its own color run
    but the last two, which share one; every ball touches at t > 1 and
    swallows at t > 3."""
    cand = np.arange(20)
    dmin, dmax = np.full(20, 1.0), np.full(20, 3.0)
    ends = np.r_[np.arange(1, 19), 20, 20]
    radii = np.ones((4, 20))
    radii[0, 18:] = [2.0, 4.0]   # first touch at 18; 19 ends its run and swallows
    radii[1, 18:] = [2.0, 2.0]   # first touch at 18; nothing in its run swallows
    radii[2, 19] = 4.0           # first touch in the last column, swallowing
    radii[3, [0, 19]] = [2.0, 4.0]  # first touch at 0; 19 is another color
    assert _probe_cuts(cand, dmin, dmax, ends, radii).tolist() == [False, True, False, True]
    with pytest.raises(pl.CarveError, match="touched by no ball"):
        _probe_cuts(cand, dmin, dmax, ends, np.ones((1, 20)))


@st.composite
def probe_cases(draw):
    """A unit net on an integer segment, a law on [1, M], a probe radius and
    a coloring: the greedy one (``None``) or a random one with 1-3 colors,
    whose color runs span many candidates.  Candidate counts and first
    touching columns fall on both sides of the scan's chunk edges (16, 48,
    112)."""
    n = draw(st.integers(20, 300))
    M = draw(st.sampled_from([8, 9, 24, 25, 56, 57, 113, 114]) | st.integers(2, 130))
    if draw(st.booleans()):
        law = pl.TgeoParams(draw(st.sampled_from([0.02, 0.3, 0.7])), M)
    else:
        law = pl.TexpParams(draw(st.sampled_from([0.05, 1.0, 5.0])), 1.0, float(M))
    probe = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.5, 8.0, 30.0]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # with one color and unit radii the first touching column is the center's
    # own position, so centers near the chunk edges put first touches there
    near_edge = draw(st.sampled_from([14, 15, 16, 17, 46, 47, 48, 49, 110, 111, 112, 113]))
    centers = np.union1d(rng.choice(n, size=draw(st.integers(0, 5)), replace=False),
                         [near_edge % n])
    trials = draw(st.integers(1, 40))
    k = draw(st.none() | st.integers(1, 3))
    return n, M, law, probe, centers, trials, seed, k


@given(probe_cases())
@settings(max_examples=200, deadline=None)
def test_probe_scan_matches_dense_evaluation(case):
    """The chunked first-touch scan gives the cut matrix of the dense
    evaluation over every candidate of every probe, for greedy colorings and
    for few-color ones with long same-color runs."""
    n, M, law, probe, centers, trials, seed, k = case
    space = pl.integer_segment(n - 1)
    net = pl.build_net(space, 1, 1)
    graph = pl.net_graph(net, 2 * M)
    if k is None:
        coloring = pl.greedy_color(graph)
    else:
        k = min(k, graph.max_degree + 1)
        colors = np.random.default_rng(seed).integers(0, k, len(net.members))
        coloring = pl.Coloring(graph, colors, k)
    # the greedy coloring is swapped for the drawn one where cut_probability_mc
    # builds it
    with mock.patch.object(carving, "greedy_color", lambda graph: coloring):
        res = pl.cut_probability_mc(net, law, probe, centers, trials, seed)
    radii = np.stack([pl.draw_radii(law, net, seed, t).t for t in range(trials)])
    expected = reference_probe_cuts(space, net, coloring.colors, M, probe, centers, radii)
    assert np.array_equal(res.cut_matrix, expected)


@st.composite
def carve_cases(draw):
    """A segment, a cloud or a tree; an honest (eps, eps)-net on it; a law of
    either kind whose window starts at or above eps; a trial seed and a probe
    radius R: a distance of the space (within 1e-13), 0 or beyond every
    distance."""
    kind = draw(st.sampled_from(["segment", "cloud", "tree"]))
    if kind == "segment":
        space = pl.integer_segment(draw(st.integers(0, 40)))
    elif kind == "cloud":
        space = pl.euclidean_cloud(draw(st.integers(1, 40)), draw(st.integers(1, 3)),
                                   seed=draw(st.integers(0, 1000)), scale=8.0)
    else:
        space = pl.balanced_tree(draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    if draw(st.booleans()):
        eps = draw(st.sampled_from([0.5, 1.0]))
        law = pl.TgeoParams(draw(st.sampled_from([0.05, 0.3, 0.7])), draw(st.integers(2, 12)))
    else:
        eps = draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]))
        l = eps * draw(st.sampled_from([1.0, 1.25, 2.0]))
        law = pl.TexpParams(draw(st.sampled_from([0.05, 1.0, 5.0])), l,
                            l + draw(st.sampled_from([0.5, 1.0, 3.0, 8.0])))
    gaps = [0.0] + np.unique(space.distance_matrix()).tolist() + [space.diameter() + 1.0]
    R = draw(st.sampled_from(gaps)) + draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    return space, pl.build_net(space, eps, eps), law, draw(st.integers(0, 2**16)), R


@given(carve_cases())
@settings(max_examples=150, deadline=None)
def test_carve_is_total_and_its_padding_verdict_matches_a_per_member_oracle(case):
    """On honest nets with radii drawn in a window that starts at the
    covering radius, ``carve`` raises no ``CarveError``: it returns a total
    partition, each point in the ball of its peel-off owner.  The padding
    verdict ``verify_padded`` gives that layer at R, and the members it
    names, are those of a per-member loop over single open balls."""
    space, net, law, seed, R = case
    l, M = law.window
    assert l >= net.eps
    radii = pl.draw_radii(law, net, seed, 0)
    coloring = pl.greedy_color(pl.net_graph(net, 2 * M))
    layer = pl.carve(coloring, radii)
    sets = layer.cluster_sets()
    assert np.array_equal(np.sort(np.concatenate(sets)), np.arange(space.n))
    owner = layer.center_positions[layer.cluster_of]
    assert np.array_equal(owner, literal_carve(space, net.members, coloring.colors, radii.t))
    report = pl.verify_padded([sets], net, R, 2 * M)
    assert report.conditions["net_partition"] and report.conditions["diameter"]
    cut = [int(x) for x in net.members if literal_is_cut(space, owner, x, R)]
    assert report.conditions["padding"] == (not cut)
    assert sorted(w["member"] for w in report.witnesses if w["condition"] == "padding") == cut

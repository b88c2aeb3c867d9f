import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import padlab as pl
from padlab import spaces
from padlab.nets import _band_pass
from oracles import literal_edges, reference_degrees, reference_greedy_color


def test_greedy_sweep_on_half_integer_line():
    space = pl.CoordSpace([0.0, 0.5, 1.0, 1.5, 2.0])
    net = pl.build_net(space, 1, 1)
    assert space.coords[net.members, 0].tolist() == [0.0, 1.0, 2.0]


def test_single_point_space():
    net = pl.build_net(pl.integer_segment(0), 5, 5)
    assert net.members.tolist() == [0]


def test_unit_net_on_integer_segment_is_everything():
    net = pl.build_net(pl.integer_segment(10), 1, 1)
    assert net.members.tolist() == list(range(11))


def test_rejects_delta_above_eps():
    with pytest.raises(ValueError):
        pl.build_net(pl.integer_segment(10), 1, 2)


def test_rejects_non_permutation_order():
    with pytest.raises(ValueError):
        pl.build_net(pl.integer_segment(4), 1, 1, order=[0, 0, 1, 2, 3])


def test_order_changes_members():
    space = pl.integer_segment(10)
    fwd = pl.build_net(space, 2, 2)
    rev = pl.build_net(space, 2, 2, order=np.arange(10, -1, -1))
    assert fwd.members.tolist() == [0, 2, 4, 6, 8, 10]
    assert rev.members.tolist() == [10, 8, 6, 4, 2, 0]


@pytest.mark.parametrize("space", [
    pl.integer_segment(60),
    pl.grid_2d(9, 9, "linf"),
    pl.euclidean_cloud(80, 2, seed=2),
    pl.balanced_tree(3, 3),
    pl.heisenberg_ball(3),
], ids=lambda s: s.label)
def test_net_invariants_under_random_orders(space):
    """At delta == eps and delta == eps / 2, every sweep order yields a
    delta-separated net that every point lies within delta of, so it covers
    at eps with no check after the sweep; its member index inverts
    ``members``."""
    rng = np.random.default_rng(11)
    eps = max(1.0, space.diameter() / 8)
    for delta in (eps, eps / 2):
        for _ in range(50):
            net = pl.build_net(space, eps, delta, order=rng.permutation(space.n))
            mm = space.dist_block(net.members, net.members)
            np.fill_diagonal(mm, np.inf)
            assert (mm >= delta).all()
            near = space.dist_block(np.arange(space.n), net.members).min(axis=1)
            assert (near < delta).all()
            assert np.array_equal(net.position_of[net.members], np.arange(len(net)))
            assert (net.position_of >= 0).sum() == len(net)


class TestNetGraph:
    def setup_method(self):
        self.space = pl.integer_segment(9)
        self.net = pl.build_net(self.space, 3, 3)  # members 0,3,6,9

    def test_complete_graph_at_wide_band(self):
        g = pl.net_graph(self.net, 10.0)
        assert sorted(literal_edges(g)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert g.max_degree == 3

    def test_path_at_narrow_band(self):
        g = pl.net_graph(self.net, 4.0)
        assert sorted(literal_edges(g)) == [(0, 1), (1, 2), (2, 3)]
        assert g.max_degree == 2

    def test_empty_band(self):
        space = pl.CoordSpace(np.array([0.0, 4.0, 8.0]))
        net = pl.build_net(space, 4, 4)
        g = pl.NetGraph(net, 4.5, 5.0)  # band [4.5, 5] misses every pair
        assert literal_edges(g) == []
        assert g.max_degree == 0

    def test_rejects_band_below_separation(self):
        with pytest.raises(ValueError):
            pl.net_graph(self.net, 3.0)

    def test_band_endpoints_inclusive(self):
        g = pl.net_graph(self.net, 9.0)
        assert (0, 3) in literal_edges(g)  # distance exactly 9 = M

    def test_degree_bound_on_clouds(self):
        """Band-graph degree obeys the ball-count bound N^2 (M/r)^{log2 N}
        driven by the exhaustively verified doubling constant."""
        spaces = [pl.euclidean_cloud(120, 2, seed=s, scale=10.0) for s in (0, 1)]
        N = 0
        for space in spaces:
            mat = space.distance_matrix()
            for r in (1.0, 2.0):
                for c in range(0, space.n, 7):
                    target = np.nonzero(mat[c] < 2 * r)[0]
                    N = max(N, pl.optimal_cover_size(space, target, r))
        for space in spaces:
            for r in (1.0, 2.0):
                net = pl.build_net(space, r, r)
                for M in (2 * r, 4 * r):
                    g = pl.net_graph(net, M)
                    bound = N**2 * (M / r) ** np.log2(N)
                    assert g.max_degree <= bound


class TestBallNetCount:
    def test_counts_strictly_inside(self):
        space = pl.integer_segment(10)
        net = pl.build_net(space, 1, 1)
        assert pl.ball_net_count(net, 5, 2.0) == 3  # 4, 5, 6

    def test_empty_when_radius_short(self):
        space = pl.CoordSpace([0.0, 0.5, 1.0])
        net = pl.Net(space, np.array([0, 2]), 1.0, 1.0)
        assert pl.ball_net_count(net, 1, 0.4) == 0

    def test_member_center_counts_itself(self):
        space = pl.integer_segment(10)
        net = pl.build_net(space, 3, 3)
        for R in (0.5, 1.0, 2.0):
            assert pl.ball_net_count(net, 3, R) >= 1

    def test_rejects_nonpositive_radius(self):
        space = pl.integer_segment(4)
        net = pl.build_net(space, 1, 1)
        with pytest.raises(ValueError):
            pl.ball_net_count(net, 0, 0.0)

    @pytest.mark.parametrize("center", [-1, 11, 1.5])
    def test_rejects_a_center_outside_the_point_ids(self, center):
        net = pl.build_net(pl.integer_segment(10), 1, 1)
        with pytest.raises(ValueError, match=f"center must be a point id in 0..10, got {center}"):
            pl.ball_net_count(net, center, 2.0)

    def test_rejects_nan_radius(self):
        space = pl.integer_segment(4)
        net = pl.build_net(space, 1, 1)
        with pytest.raises(ValueError, match="R must be positive"):
            pl.ball_net_count(net, 3, float("nan"))


@st.composite
def band_graphs(draw):
    """A small net over a coordinate space (l1/l2/linf, 1-3 dims, half-integer
    coordinates so distances land on band ends) or over a random symmetric
    integer matrix, a band and a distance-block budget down to one row per
    block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        space = pl.CoordSpace(rng.integers(0, 12, (n, dim)) / 2,
                              draw(st.sampled_from(["l1", "l2", "linf"])))
    else:
        mat = np.triu(rng.integers(1, 8, (n, n)), 1).astype(float)
        space = pl.MatrixSpace(mat + mat.T)
    members = rng.permutation(n)[:draw(st.integers(0, n))]
    low = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 6.0))
    high = low + draw(st.sampled_from([0.0, 1.0, 2.0, 4.0]) | st.floats(0.0, 8.0))
    T = len(members)
    budget = draw(st.sampled_from([1, 2, 3, 5, T, T + 1, 2 * T, 3 * T - 1, 10**6]))
    return pl.Net(space, members, 1.0, 1.0), low, high, max(1, budget)


@given(band_graphs())
@settings(max_examples=300, deadline=None)
def test_triangular_pass_matches_full_row_passes(case):
    """Degrees, max degree and greedy colors of the one triangular pass equal
    those of a full row per member, in index order, for blocks of one row up
    to the whole graph."""
    net, low, high, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_BLOCK_ENTRIES", budget)
        g = pl.NetGraph(net, low, high)
        coloring = pl.greedy_color(g)
        expected_degrees = reference_degrees(g)
        expected_colors = reference_greedy_color(g)
        degrees, colors = _band_pass(net, low, high)
    assert np.array_equal(g._degrees, expected_degrees)
    assert g.max_degree == (int(expected_degrees.max()) if len(net) else 0)
    assert np.array_equal(coloring.colors, expected_colors)
    assert coloring.num_colors == (int(expected_colors.max()) + 1 if len(net) else 0)
    assert np.array_equal(degrees, expected_degrees) and np.array_equal(colors, expected_colors)


@st.composite
def coordinate_runs(draw):
    """A small coordinate fixture (segment, l1/l2/linf grid or rounded
    cloud), a sweep order (index order or a drawn permutation), net radii,
    a radius cap M and a cut-probe set-up."""
    kind = draw(st.sampled_from(["segment", "grid", "cloud"]))
    if kind == "segment":
        space = pl.integer_segment(draw(st.integers(0, 60)))
    elif kind == "grid":
        space = pl.grid_2d(draw(st.integers(1, 8)), draw(st.integers(1, 8)),
                           draw(st.sampled_from(["l1", "l2", "linf"])))
    else:
        space = pl.euclidean_cloud(draw(st.integers(1, 50)), draw(st.integers(1, 3)),
                                   seed=draw(st.integers(0, 1000)),
                                   scale=draw(st.sampled_from([3.0, 10.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(space.n) if draw(st.booleans()) else None
    eps = draw(st.sampled_from([1.0, 1.5, 2.0]) | st.floats(0.3, 4.0))
    delta = eps * draw(st.sampled_from([1.0, 0.5]) | st.floats(0.2, 1.0))
    M = eps + draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]) | st.floats(0.1, 8.0))
    centers = rng.choice(space.n, draw(st.integers(1, min(5, space.n))), replace=False)
    probe = (draw(st.floats(0.3, 4.0)), centers, draw(st.integers(1, 5)), draw(st.integers(0, 99)))
    return space, order, eps, delta, M, probe


def _radius_bounded_outputs(space, order, eps, delta, M, probe):
    """Net members, band graph degrees and colors at M, and the cut matrix of
    a texp probe run with the window [eps, M]."""
    net = pl.build_net(space, eps, delta, order=order)
    graph = pl.net_graph(net, M)
    radius, centers, trials, seed = probe
    try:
        cut = pl.cut_probability_mc(net, pl.TexpParams(0.5, eps, M), radius, centers,
                                    trials, seed).cut_matrix.tolist()
    except pl.CarveError as exc:
        cut = str(exc)
    return net.members.tolist(), graph._degrees.tolist(), graph._colors.tolist(), cut


@settings(max_examples=150, deadline=None)
@given(coordinate_runs())
def test_radius_bounded_reads_match_reading_every_member(run):
    """The net sweep, the band pass and the probe set-up read only the members
    that ``candidates`` puts within their radius on a coordinate space.  Net
    members, degrees, colors and cut matrices equal those over the same
    distances as a ``MatrixSpace``, whose candidates are every point, under
    the default block budget and a 7-entry one."""
    space, order, eps, delta, M, probe = run
    whole = pl.MatrixSpace(space.distance_matrix())
    assert spaces._BLOCK_ENTRIES == 4_000_000
    expected = _radius_bounded_outputs(whole, order, eps, delta, M, probe)
    assert _radius_bounded_outputs(space, order, eps, delta, M, probe) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_BLOCK_ENTRIES", 7)
        assert _radius_bounded_outputs(space, order, eps, delta, M, probe) == expected
        assert _radius_bounded_outputs(whole, order, eps, delta, M, probe) == expected


def test_radius_bounded_reads_are_linear_on_a_segment(monkeypatch):
    """On ``segment:2000`` the net sweep at eps 1, the band pass up to 100 and
    a cut probe run with radius cap 20 read O(n * radius) distance entries:
    each block is read against the members its radius reaches, not against
    every earlier member (about n**2 / 2 = 2e6 entries per pass).  The budget
    is 40 000 entries, so every pass takes 12-row blocks."""
    monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", 40_000)
    entries = []
    original = pl.CoordSpace.dist_block

    def recording(self, rows, cols=None):
        entries.append(len(rows) * (self.n if cols is None else len(cols)))
        return original(self, rows, cols)

    monkeypatch.setattr(pl.CoordSpace, "dist_block", recording)
    space = pl.integer_segment(2000)
    n = space.n
    net = pl.build_net(space, 1, 1)
    sweep = sum(entries)
    entries.clear()
    pl.net_graph(net, 100)
    band = sum(entries)
    entries.clear()
    pl.cut_probability_mc(net, pl.TgeoParams(0.1, 20), 5.0, np.arange(10, 2000, 100),
                          trials=3, seed=0)
    probes = sum(entries)
    assert len(net) == n
    assert sweep <= 16 * n  # 12-row blocks: a 144-entry square and one earlier member each
    assert band <= 2 * n * (100 + 12)  # the rows, each against 100 earlier members at most
    assert probes <= 2 * n * (40 + 12) + 20 * 9 * 50  # the band pass to 40, then the probes

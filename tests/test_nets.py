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
    """With delta == eps every sweep order yields a valid net."""
    rng = np.random.default_rng(11)
    eps = max(1.0, space.diameter() / 8)
    for _ in range(50):
        net = pl.build_net(space, eps, eps, order=rng.permutation(space.n))
        mm = space.dist_block(net.members, net.members)
        np.fill_diagonal(mm, np.inf)
        assert (mm >= eps).all()
        near = space.dist_block(np.arange(space.n), net.members).min(axis=1)
        assert (near < eps).all()


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
        degrees, colors = _band_pass(net.space, net.members, low, high)
    assert np.array_equal(g._degrees, expected_degrees)
    assert g.max_degree == (int(expected_degrees.max()) if len(net) else 0)
    assert np.array_equal(coloring.colors, expected_colors)
    assert coloring.num_colors == (int(expected_colors.max()) + 1 if len(net) else 0)
    assert np.array_equal(degrees, expected_degrees) and np.array_equal(colors, expected_colors)

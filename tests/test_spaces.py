import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import padlab as pl
from padlab import carving, decomposition, growth, spaces
from oracles import (heisenberg_distances, heisenberg_words, literal_ball,
                     reference_dist_block, reference_dist_row, reference_heis_bfs,
                     reference_sampled_validate)


FIXTURES = [
    pl.integer_segment(40),
    pl.grid_2d(7, 5, "l1"),
    pl.grid_2d(6, 6, "l2"),
    pl.grid_2d(5, 8, "linf"),
    pl.euclidean_cloud(60, 2, seed=3),
    pl.euclidean_cloud(40, 3, seed=8),
    pl.balanced_tree(2, 4),
    pl.heisenberg_ball(3),
]


@pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.label)
def test_metric_axioms_exhaustive(space):
    pl.validate_metric(space)


def test_metric_axioms_sampled_on_large_fixture():
    pl.validate_metric(pl.integer_segment(500), exhaustive_limit=100, samples=2000)


def test_dist_block_matches_dist_row():
    """Blocks, rows and single distances of every fixture equal an oracle
    outside the kernel: the difference reduction of coordinate spaces, the
    tree's stored matrix, the BFS word lengths of a Heisenberg ball."""
    for space in FIXTURES:
        rows = np.array([0, space.n // 2, space.n - 1])
        if isinstance(space, pl.CoordSpace):
            want = np.stack([reference_dist_row(space, i) for i in rows])
        elif isinstance(space, pl.HeisenbergBall):
            want = heisenberg_distances(space.radius, rows, np.arange(space.n))
        else:
            want = space.matrix[rows]
        assert np.array_equal(space.dist_block(rows, np.arange(space.n)), want)
        for k, i in enumerate(rows):
            assert np.array_equal(space.dist_row(int(i)), want[k])
            assert space.dist(int(i), space.n - 1 - k) == want[k, space.n - 1 - k]


def test_open_ball_is_strict():
    seg = pl.integer_segment(10)
    assert seg.ball(5, 2.0).tolist() == [4, 5, 6]
    assert seg.ball(5, 2.0 + 1e-9).tolist() == [3, 4, 5, 6, 7]


def test_segment_basics():
    seg = pl.integer_segment(100)
    assert seg.n == 101
    assert seg.diameter() == 100.0
    assert seg.dist(3, 10) == 7.0


def test_grid_metrics_differ():
    l1 = pl.grid_2d(4, 4, "l1")
    l2 = pl.grid_2d(4, 4, "l2")
    linf = pl.grid_2d(4, 4, "linf")
    i, j = 0, 15  # corners (3,3) apart
    assert l1.dist(i, j) == 6.0
    assert l2.dist(i, j) == pytest.approx(np.sqrt(18.0))
    assert linf.dist(i, j) == 3.0
    assert linf.diameter() == 3.0


def test_cloud_distances_rounded_and_reproducible():
    a = pl.euclidean_cloud(30, 2, seed=5)
    b = pl.euclidean_cloud(30, 2, seed=5)
    assert np.array_equal(a.coords, b.coords)
    d = a.dist_row(0)
    assert np.array_equal(d, np.round(d, 12))
    assert not np.array_equal(a.coords, pl.euclidean_cloud(30, 2, seed=6).coords)


def test_balanced_tree_distances():
    t = pl.balanced_tree(2, 3)   # 15 nodes
    assert t.n == 15
    assert t.dist(0, 1) == 1.0
    assert t.dist(1, 2) == 2.0       # siblings via root
    assert t.dist(7, 8) == 2.0       # leaf siblings via node 3
    assert t.dist(7, 14) == 6.0      # leftmost to rightmost leaf
    assert t.diameter() == 6.0
    path = pl.balanced_tree(1, 4)    # branching 1 is a path
    assert path.matrix.tolist() == np.abs(np.subtract.outer(range(5), range(5))).tolist()


@pytest.mark.parametrize("branching,depth,nodes", [(10, 9, 1111111111), (2, 12, 8191),
                                                   (3, 40, 3 ** 41 // 2)])
def test_oversized_tree_is_refused_before_it_is_built(branching, depth, nodes):
    with pytest.raises(ValueError, match=f"tree with {nodes} nodes exceeds"):
        pl.balanced_tree(branching, depth)


@st.composite
def coord_spaces(draw):
    """A small coordinate space with 1-7 coordinates: an integer grid (exact
    gaps), a rounded Euclidean cloud, or real coordinates under any norm with
    or without 12-digit rounding."""
    n, dim = draw(st.integers(1, 20)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["grid", "cloud", "real"]))
    if kind == "cloud":
        return pl.euclidean_cloud(n, dim, seed=draw(st.integers(0, 1000)))
    values = st.integers(-5, 5).map(float) if kind == "grid" else st.floats(-1e3, 1e3)
    coords = draw(st.lists(st.lists(values, min_size=dim, max_size=dim), min_size=n, max_size=n))
    digits = None if kind == "grid" else draw(st.sampled_from([None, 12]))
    return pl.CoordSpace(np.array(coords), draw(st.sampled_from(["l1", "l2", "linf"])),
                         round_digits=digits)


@settings(max_examples=200, deadline=None)
@given(coord_spaces(), st.data())
def test_coordinate_kernel_is_bit_equal_to_the_difference_reduction(space, data):
    """Accumulating one coordinate at a time gives the same bits as reducing
    a (rows, cols, dim) difference array, empty rows or columns included."""
    ids = st.lists(st.integers(0, space.n - 1), max_size=9)
    rows, cols = data.draw(ids), data.draw(ids)
    for got, want in [(space.dist_block(rows, cols), reference_dist_block(space, rows, cols)),
                      (space.dist_block(rows), reference_dist_block(space, rows))]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for i in rows:
        assert space.dist_row(i).tobytes() == reference_dist_row(space, i).tobytes()


@settings(max_examples=200, deadline=None)
@given(coord_spaces(), st.data())
def test_candidates_hold_every_point_within_the_radius(space, data):
    """The candidates of a set are sorted unique ids that include every point
    at distance <= radius from the set, for radii equal to a distance of the
    space (exact grid gaps) or within 1e-13 of one (rounded cloud gaps)."""
    points = data.draw(st.lists(st.integers(0, space.n - 1), min_size=1, max_size=6))
    dist = space.dist_block(points)
    gap = data.draw(st.sampled_from(np.unique(dist).tolist()))
    radius = gap + data.draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    got = space.candidates(points, radius)
    assert np.array_equal(got, np.unique(got))
    assert np.isin(np.nonzero((dist <= radius).any(axis=0))[0], got).all()


@st.composite
def ball_spaces(draw):
    """A coordinate space under l1, l2 or linf in 1-3 dims (integer
    coordinates, or real ones with or without 12-digit rounding), the
    shortest-path metric of random integer edge weights, or a Heisenberg ball."""
    kind = draw(st.sampled_from(["coord", "matrix", "heis"]))
    if kind == "heis":
        return pl.heisenberg_ball(draw(st.integers(1, 3)))
    n = draw(st.integers(1, 40))
    if kind == "matrix":
        weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n * n, max_size=n * n)),
                           dtype=float).reshape(n, n)
        mat = np.minimum(weights, weights.T)
        np.fill_diagonal(mat, 0.0)
        for k in range(n):
            mat = np.minimum(mat, mat[:, k, None] + mat[None, k, :])
        return pl.MatrixSpace(mat)
    dim = draw(st.integers(1, 3))
    values = st.integers(-5, 5).map(float) | st.floats(-10.0, 10.0)
    coords = draw(st.lists(st.lists(values, min_size=dim, max_size=dim), min_size=n, max_size=n))
    return pl.CoordSpace(np.array(coords), draw(st.sampled_from(["l1", "l2", "linf"])),
                         round_digits=draw(st.sampled_from([None, 12])))


@settings(max_examples=200, deadline=None)
@given(ball_spaces(), st.data())
def test_blocked_balls_match_one_ball_per_center(space, data):
    """The blocked ball pass yields each center's sorted open ball once, in
    blocks of at most 1, 3 or 125 centers (budgets of 7, 2304 and the
    default number of entries): centers unsorted and repeated, r = 0, r equal
    to a distance, r above the diameter."""
    centers = data.draw(st.lists(st.integers(0, space.n - 1), max_size=2 * space.n))
    diameter = space.diameter()
    radius = data.draw(st.sampled_from([0.0, diameter + 1.0]
                                       + np.unique(space.distance_matrix()).tolist())
                       | st.floats(0.0, 2 * diameter + 1.0))
    budget, cap = data.draw(st.sampled_from([(7, 1), (2304, 3), (spaces._BLOCK_ENTRIES, 125)]))
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        blocks = list(spaces._ball_blocks(space, centers, radius))
        balls = spaces._balls(space, centers, radius)
    positions = [int(p) for block, _, _ in blocks for p in block]
    assert sorted(positions) == list(range(len(centers)))
    for block, ids, starts in blocks:
        assert len(block) <= cap and starts[0] == 0 and starts[-1] == len(ids)
        for k, p in enumerate(block):
            assert ids[starts[k]:starts[k + 1]].tolist() == literal_ball(space, centers[p], radius)
    assert [b.tolist() for b in balls] == [literal_ball(space, c, radius) for c in centers]
    for c in set(centers):
        assert space.ball(c, radius).tolist() == literal_ball(space, c, radius)


def test_balls_are_bounded_by_the_largest_matrix(monkeypatch):
    """The ids the balls hold count against the entries of the largest
    distance matrix the lab builds.  Under a 30-point guard (900 ids) on
    segment:100, whose net at scale 1 is every point, the 101 balls of
    radius 4 pass and so does the resampler probing them; those of radius
    10 are refused, in ``_balls`` and in the resampler."""
    monkeypatch.setattr(spaces, "_APSP_MAX_POINTS", 30)
    space = pl.integer_segment(100)
    net = pl.build_net(space, 1, 1)
    assert len(net.members) == space.n
    assert sum(len(b) for b in spaces._balls(space, np.arange(space.n), 4.0)) <= 900
    message = ("balls holding more than 900 point ids exceed the ball guard "
               "(the entries of a 30-point matrix)")
    for r, guarded in ((4, False), (10, True)):
        run = pl.TgeoRun(b=1, p=0.01, M=20, m=2, r=r)
        csp = pl.csp_from_schedule(net, run)
        if guarded:
            with pytest.raises(ValueError, match=re.escape(message)):
                spaces._balls(space, np.arange(space.n), r)
            with pytest.raises(ValueError, match=re.escape(message)):
                pl.moser_tardos(space, net, csp, 0, max_rounds=0)
        else:
            assert pl.moser_tardos(space, net, csp, 0, max_rounds=0).rounds == 0


def test_coordinate_ball_blocks_follow_the_first_coordinate():
    """On a coordinate space each block's centers are consecutive in
    first-coordinate order, so it reads only the slab of points near them: a
    block of 125 centers in index order would span the whole cloud."""
    space = pl.euclidean_cloud(500, 2, seed=4)
    centers = np.arange(0, 500, 2)
    first = space.coords[centers, 0]
    widths, original = [], pl.CoordSpace.dist_block

    def recording(self, rows, cols=None):
        widths.append(self.n if cols is None else len(cols))
        return original(self, rows, cols)

    with mock.patch.object(pl.CoordSpace, "dist_block", recording):
        blocks = list(spaces._ball_blocks(space, centers, 0.05))
    assert [len(p) for p, _, _ in blocks] == [125, 125]
    assert len(widths) == 2 and max(widths) < 300
    order = np.concatenate([p for p, _, _ in blocks])
    assert np.array_equal(order, np.argsort(first, kind="stable"))


@st.composite
def near_block_cases(draw):
    """A segment, an l1/l2/linf grid, a rounded cloud, a tree or a Heisenberg
    ball; rows (any order, repeats allowed); members with positions, and the
    other points in the order they join as members, one after each block; a
    radius equal to a distance (within 1e-13), 0 or beyond every distance;
    and a block budget of 7, 2304 or the default number of entries, which
    caps a block at 1, 3 or 125 rows."""
    kind = draw(st.sampled_from(["segment", "grid", "cloud", "tree", "heis"]))
    if kind == "segment":
        space = pl.integer_segment(draw(st.integers(0, 60)))
    elif kind == "grid":
        space = pl.grid_2d(draw(st.integers(1, 8)), draw(st.integers(1, 8)),
                           draw(st.sampled_from(["l1", "l2", "linf"])))
    elif kind == "cloud":
        space = pl.euclidean_cloud(draw(st.integers(1, 50)), draw(st.integers(1, 3)),
                                   seed=draw(st.integers(0, 1000)), scale=8.0)
    elif kind == "tree":
        space = pl.balanced_tree(draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    else:
        space = pl.heisenberg_ball(draw(st.integers(1, 2)))
    rows = np.array(draw(st.lists(st.integers(0, space.n - 1), max_size=3 * space.n)),
                    dtype=np.intp)
    points = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(space.n)
    split = draw(st.integers(0, space.n))
    radius = (draw(st.sampled_from([0.0, space.diameter() + 1.0]
                                   + np.unique(space.distance_matrix()).tolist()))
              + draw(st.sampled_from([0.0, 1e-13, -1e-13])))
    budget, cap = draw(st.sampled_from([(7, 1), (2304, 3), (spaces._BLOCK_ENTRIES, 125)]))
    return space, rows, points[:split], points[split:], max(radius, 0.0), budget, cap


@settings(max_examples=200, deadline=None)
@given(near_block_cases())
def test_near_blocks_partition_the_rows_and_hold_every_near_member(case):
    """The one reader of radius-bounded blocks: its blocks partition the rows
    in order, each within the row cap and, unless it is one row, within the
    budget against ``near``; ``near`` is ascending and holds the position of
    every member within the radius of the block, members that joined between
    blocks included."""
    space, rows, members, joining, radius, budget, cap = case
    mat = space.distance_matrix()
    position_of = np.full(space.n, -1, dtype=np.intp)
    position_of[members] = np.arange(len(members))
    end, count = 0, len(members)
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        for lo, hi, near in spaces._near_blocks(space, rows, radius, position_of):
            assert lo == end < hi <= lo + cap
            assert hi - lo == 1 or (hi - lo) * len(near) <= budget
            assert (np.diff(near) > 0).all() and set(near) <= set(position_of[position_of >= 0])
            close = (mat[rows[lo:hi]] < radius).any(axis=0) & (position_of >= 0)
            assert set(position_of[close]) <= set(near)
            end = hi
            if count < space.n:  # a member joins before the next block is read
                position_of[joining[count - len(members)]] = count
                count += 1
    assert end == len(rows)


@pytest.mark.parametrize("budget", [7, 2304, spaces._BLOCK_ENTRIES])
@given(st.sampled_from(FIXTURES), st.data())
@settings(max_examples=60, deadline=None)
def test_set_diameters_match_each_sets_pairs(budget, space, data):
    """One pass over a list of sets (empty, overlapping or repeating points,
    up to the whole space) gives each set's largest pairwise distance from
    the distance matrix, bit for bit, and ``set_diameter`` of each alone.  A
    2304-entry budget caps a block at 3 rows, so most sets are read alone,
    in blocks of their own rows."""
    point_sets = st.lists(st.integers(0, space.n - 1), max_size=space.n)
    sets = data.draw(st.lists(point_sets, max_size=8) | st.just([np.arange(space.n)]))
    mat = space.distance_matrix()
    want = [float(mat[np.ix_(s, s)].max()) if len(s) else 0.0 for s in sets]
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        got = spaces._set_diameters(space, sets)
        alone = [pl.set_diameter(space, s) for s in sets]
    assert got.dtype == np.float64 and got.tolist() == want == alone


def test_candidates_are_the_grown_bounding_box():
    seg = pl.integer_segment(100)
    assert seg.candidates([50, 52], 3.0).tolist() == list(range(47, 56))
    grid = pl.grid_2d(10, 10, "linf")
    assert grid.candidates([0], 1.0).tolist() == [0, 1, 10, 11]
    assert len(seg.candidates([], 3.0)) == 0
    tree = pl.balanced_tree(2, 2)
    assert tree.candidates([0], 1.0).tolist() == list(range(7))


def test_coordinate_block_peaks_near_its_output():
    """One coordinate at a time keeps a 2000 x 2000 block of a 2-d cloud
    within 2.5x its own bytes (a (rows, cols, dim) difference array cost ~5x)."""
    cloud = pl.euclidean_cloud(4000, 2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = cloud.dist_block(np.arange(2000), np.arange(2000, 4000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes


@pytest.fixture(scope="module")
def blocked_passes():
    """``name: (pass, block width, bytes it keeps, allowed blocks)`` of each
    blocked pass over full-width reads of 125 rows: one float64 block, plus
    the 2-d l2 kernel's one scratch block where the grid is read."""
    grid, seg = pl.grid_2d(60, 60, "l2"), pl.integer_segment(3000)
    heis_net = pl.build_net(pl.heisenberg_ball(8), 1.0, 1.0)
    seg_net = pl.build_net(seg, 1.0, 1.0)
    halves = [np.arange(1500), np.arange(1500, 3001)]
    zeros = np.zeros(len(seg_net), dtype=np.int64)
    return {
        "distance_matrix": (grid.distance_matrix, 3600, 3600 ** 2 * 8, 2.5),
        "volume_doubling": (lambda: pl.volume_doubling_estimate(
            pl.MeasuredSpace.uniform(grid), [40.0]), 3600, 0, 2.5),
        "max_ball_counts": (lambda: growth._max_ball_counts(heis_net, [3.0, 4.0]),
                            len(heis_net), 0, 1.5),
        "set_diameters": (lambda: spaces._set_diameters(seg, [np.arange(3001)]), 3001, 0, 1.5),
        "close_pairs": (lambda: list(decomposition._close_pairs(seg, halves, 0.5)), 1501, 0, 1.5),
        "probe_setup": (lambda: carving._probe_setup(seg_net, zeros, 5000.0, np.arange(3001)),
                        3001, 0, 1.5),
    }


@pytest.mark.parametrize("name", ["distance_matrix", "volume_doubling", "max_ball_counts",
                                  "set_diameters", "close_pairs", "probe_setup"])
def test_blocked_pass_holds_one_block(blocked_passes, name):
    """A blocked pass drops each block before it reads the next: a loop that
    still holds block k while the reader computes block k + 1 peaks a whole
    block higher (3.01 blocks over the matrix for ``distance_matrix``, 2.16
    blocks for ``_max_ball_counts``)."""
    fn, width, kept, allowed = blocked_passes[name]
    assert spaces._block_rows(width) == 125
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 125 * width * 8
    assert peak <= kept + allowed * block, (peak - kept) / block


class TestHeisenberg:
    def test_radius_one_is_identity_plus_generators(self):
        h = pl.heisenberg_ball(1)
        assert h.n == 5

    def test_bfs_matches_word_enumeration(self):
        h = pl.heisenberg_ball(4)
        assert h.ball_sizes == heisenberg_words(4)

    @pytest.mark.parametrize("radius", range(1, 9))
    def test_level_bfs_matches_a_dict_bfs(self, radius):
        """Elements, word lengths, ball sizes and the whole word-length table
        are those of a one-element-at-a-time BFS to word length 2 * radius,
        the ball sorted by (word length, a, b, c)."""
        length = reference_heis_bfs(2 * radius)
        h = pl.heisenberg_ball(radius)
        ball = sorted((d, g) for g, d in length.items() if d <= radius)
        assert h.elements.tolist() == [list(g) for _, g in ball]
        assert h.word_lengths.tolist() == [d for d, _ in ball]
        assert h.ball_sizes == np.cumsum(np.bincount([d for d, _ in ball])).tolist()
        table = np.full_like(h._table, spaces._HEIS_ABSENT)
        table[h._pack(np.array(list(length)))] = list(length.values())
        assert np.array_equal(h._table, table)

    def test_ball_sizes_monotone(self):
        h = pl.heisenberg_ball(8)
        assert all(a < b for a, b in zip(h.ball_sizes, h.ball_sizes[1:]))

    def test_distance_is_word_metric(self):
        h = pl.heisenberg_ball(3)
        # d(g, h) = word length of g^{-1} h; spot check against element norms
        for i in range(h.n):
            assert h.dist(0, i) == h.word_lengths[i]
        pl.validate_metric(h)

    def test_dist_block_matches_word_metric_oracle(self):
        h = pl.heisenberg_ball(3)
        everything = np.arange(h.n)
        assert np.array_equal(h.dist_block(everything),
                              heisenberg_distances(3, everything, everything))
        rng = np.random.default_rng(0)
        rows, cols = rng.integers(0, h.n, 9), rng.integers(0, h.n, 23)
        assert np.array_equal(h.dist_block(rows, cols), heisenberg_distances(3, rows, cols))
        assert h.dist_block(rows, []).shape == (9, 0)
        assert h.dist_block([], cols).shape == (0, 23)
        words = heisenberg_distances(3, everything, everything)
        for i in range(h.n):
            assert np.array_equal(h.dist_row(i), words[i])

    def test_out_of_table_query_is_an_index_error(self):
        h = pl.heisenberg_ball(2)
        h._table[h._table == 2] = spaces._HEIS_ABSENT
        assert h.dist_block([0], [1])[0, 0] == 1.0
        with pytest.raises(IndexError, match="outside the word-length table"):
            h.dist_row(0)

    def test_all_pairs_block_peaks_near_its_output(self):
        """Freeing its int64 keys before the float conversion keeps one
        all-pairs block within 1.25x its own bytes."""
        h = pl.heisenberg_ball(8)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = h.dist_block(np.arange(h.n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            pl.heisenberg_ball(0)
        with pytest.raises(ValueError):
            pl.heisenberg_ball(17)

    def test_group_law_convention(self):
        # (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b'): xy = (1,1,1) while
        # yx = (1,1,0), so both length-2 products appear and differ centrally
        h = pl.heisenberg_ball(2)
        elems = {tuple(e) for e in h.elements.tolist()}
        assert (1, 1, 1) in elems and (1, 1, 0) in elems


def test_point_file_round_trip(tmp_path):
    path = tmp_path / "pts.txt"
    space = pl.grid_2d(4, 3, "linf")
    with open(path, "w") as fh:
        for row in space.coords:
            fh.write(f"{row[0]} {row[1]}\n")
    loaded = pl.load_points(path, "linf")
    assert loaded.n == space.n
    assert np.array_equal(loaded.dist_row(0), space.dist_row(0))


def test_edge_list_unweighted_and_weighted(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    sp = pl.load_edge_list(path)
    assert sp.dist(0, 3) == 3.0
    path.write_text("0 1 2.5\n1 2 0.5\n0 2 4.0\n")
    sp = pl.load_edge_list(path)
    assert sp.dist(0, 2) == 3.0  # through vertex 1


def test_edge_list_rejects_disconnected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n2 3\n")
    with pytest.raises(ValueError):
        pl.load_edge_list(path)


@pytest.mark.parametrize("line,message", [
    ("1 -1", "negative vertex id"),  # would index vertex 1 from the end: a self-loop
    ("1 2 nan", "positive and finite"),
    ("1 2 inf", "positive and finite"),
])
def test_edge_list_rejects_bad_lines(tmp_path, line, message):
    path = tmp_path / "g.txt"
    path.write_text(f"0 1\n{line}\n")
    with pytest.raises(ValueError, match=message):
        pl.load_edge_list(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_point_file_rejects_non_finite_coordinates(tmp_path, token):
    path = tmp_path / "pts.txt"
    path.write_text(f"0 0\n1 {token}\n")
    with pytest.raises(ValueError, match="non-finite"):
        pl.load_points(path)


@pytest.mark.parametrize("spec,n", [
    ("segment:1000", 1001),
    ("grid:10x10:linf", 100),
    ("heis:2", 17),
    ("cloud:50:2:seed=7", 50),
    ("tree:3:2", 13),
])
def test_parse_fixture(spec, n):
    assert pl.parse_fixture(spec).n == n


def test_parse_fixture_rejects_garbage():
    for bad in ("segment", "segment:x", "grid:10", "nope:3", "cloud:10"):
        with pytest.raises(ValueError):
            pl.parse_fixture(bad)


def test_measured_space_requires_positive_mass():
    seg = pl.integer_segment(5)
    with pytest.raises(ValueError):
        pl.MeasuredSpace(seg, np.zeros(6))
    ms = pl.MeasuredSpace.uniform(seg)
    assert ms.mass[seg.ball(3, 1.5)].sum() == 3.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_measured_space_requires_finite_mass(bad):
    """An infinite mass would make a ball's mass ratio NaN, which ``max``
    drops: volume_doubling_estimate once read 2.33 past it."""
    mass = np.ones(11)
    mass[0] = bad
    with pytest.raises(ValueError, match="finite and strictly positive"):
        pl.MeasuredSpace(pl.integer_segment(10), mass)


@pytest.mark.parametrize("center", [-1, 21, 1.5, True])
def test_ball_refuses_a_center_outside_the_point_ids(center):
    """``-1`` would wrap to the last point: ball(-1, 1.5) was [19, 20]; 1.5
    and True were read as point 1."""
    with pytest.raises(ValueError, match=f"center must be a point id in 0..20, got {center}"):
        pl.integer_segment(20).ball(center, 1.5)


def test_validate_metric_catches_violations():
    bad = pl.MatrixSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(pl.MetricError):
        pl.validate_metric(bad)
    bad2 = pl.MatrixSpace(np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0]], dtype=float))
    with pytest.raises(pl.MetricError):
        pl.validate_metric(bad2)


@pytest.mark.filterwarnings("error")
def test_exhaustive_validation_refuses_an_infinite_distance():
    """An infinite distance would make the triangle slack 1e-9 * max infinite
    too, so it is refused before that."""
    inf = np.inf
    with pytest.raises(pl.MetricError, match="^non-finite distance$"):
        pl.validate_metric(pl.MatrixSpace([[0, 1, inf], [1, 0, 1], [inf, 1, 0]]))


@pytest.mark.parametrize("a,b,d,message", [
    (200, 250, 60.0, "d(200,250) > d(200,196) + d(196,250)"),
    (10, 20, 12.0, "d(10,20) > d(10,11) + d(11,20)"),
    (250, 130, 125.0, "d(130,250) > d(130,128) + d(128,250)"),
])
def test_exhaustive_triangle_check_names_the_first_failure(a, b, d, message):
    """A distance of a 300-point segment planted too long: the row chunks
    (125 rows) name the first failing (j, k) of the first failing i, as the
    check of whole n x n slacks did, also where j lies past the first
    chunk."""
    mat = pl.integer_segment(299).distance_matrix()
    mat[a, b] = mat[b, a] = d
    with pytest.raises(pl.MetricError, match=f"^triangle inequality fails: {re.escape(message)}$"):
        pl.validate_metric(pl.MatrixSpace(mat))


def test_exhaustive_validation_holds_one_chunk_of_slacks():
    """Checking all of segment:999 holds its 7.6 MiB matrix and one 125-row
    chunk of slacks: a traced peak under 11 MiB, where one n x n slack array
    for each point peaked at 23.0 MiB."""
    space = pl.integer_segment(999)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        pl.validate_metric(space, exhaustive_limit=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20


@pytest.mark.filterwarnings("error")
def test_sampled_validation_refuses_infinite_distances():
    """Off-diagonal distances all infinite keep every sampled triangle, so
    only the check of the values read refuses them, on the first triple."""
    mat = np.full((400, 400), np.inf)
    np.fill_diagonal(mat, 0.0)
    space = pl.MatrixSpace(mat)
    expected = _verdict(lambda: reference_sampled_validate(space))
    assert expected.startswith("negative or non-finite distance on triple")
    assert _verdict(lambda: pl.validate_metric(space)) == expected


@pytest.mark.filterwarnings("error")
def test_sampled_validation_refuses_a_negative_distance_inside_a_triangle():
    """d(3,7) = -1 on a 400-point segment: the first sampled triple that
    reads it, #51708 at seed 0, keeps its triangle (29 <= 33 - 1), so the
    check of the values read is what names it."""
    mat = pl.integer_segment(399).distance_matrix()
    mat[3, 7] = mat[7, 3] = -1.0
    space = pl.MatrixSpace(mat)
    expected = "negative or non-finite distance on triple (3,36,7)"
    assert _verdict(lambda: reference_sampled_validate(space)) == expected
    assert _verdict(lambda: pl.validate_metric(space)) == expected


def test_sampled_validation_reads_small_blocks():
    """A chunk of 41 triples reads one block of at most 123 x 123 distances,
    so 100k triples on 5001 points stay under 4 MiB, the 2.4 MB of sampled
    ids included (chunks of 666 triples peaked at 45 MiB)."""
    space = pl.integer_segment(5000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        pl.validate_metric(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("budget", [7, spaces._BLOCK_ENTRIES])
@pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.label)
def test_distance_matrix_stacks_the_kernel_rows(monkeypatch, space, budget):
    """The distance matrix, filled block by block, equals one kernel row per
    point byte for byte, under the default budget and a 7-entry one."""
    ids = np.arange(space.n)
    rows = np.concatenate([space.dist_block([i], ids) for i in ids])
    monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", budget)
    mat = space.distance_matrix()
    assert mat.dtype == rows.dtype and mat.shape == rows.shape
    assert mat.tobytes() == rows.tobytes()


class _Perturbed(pl.CoordSpace):
    """A coordinate space plus a fixed perturbation matrix in its kernel."""

    def __init__(self, coords, metric, extra):
        super().__init__(coords, metric)
        self.extra = extra

    def dist_block(self, rows, cols=None):
        cols = np.arange(self.n) if cols is None else np.asarray(cols, dtype=np.intp)
        rows = np.asarray(rows, dtype=np.intp)
        return super().dist_block(rows, cols) + self.extra[np.ix_(rows, cols)]


@st.composite
def flawed_spaces(draw):
    """A small l1/l2/linf space, as a coordinate space or as its matrix, with
    a few injected asymmetries, nonzero self distances or triangle breaks."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    coords = rng.integers(0, 6, size=(n, 2)).astype(float)
    metric = draw(st.sampled_from(["l1", "l2", "linf"]))
    extra = np.zeros((n, n))
    for flaw in draw(st.lists(st.sampled_from(["asymmetric", "diagonal", "triangle"]),
                              max_size=3)):
        a, b = rng.integers(0, n, 2)
        if flaw == "asymmetric":
            extra[a, b] += 0.5
        elif flaw == "diagonal":
            extra[a, a] += 0.25
        else:
            b = (a + 1) % n
            extra[a, b] = extra[b, a] = 100.0
    if draw(st.booleans()):
        return _Perturbed(coords, metric, extra)
    return pl.MatrixSpace(pl.CoordSpace(coords, metric).distance_matrix() + extra)


def _verdict(check):
    try:
        check()
    except pl.MetricError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(flawed_spaces(), st.integers(0, 1500), st.integers(0, 100),
       st.sampled_from([9, 9216, spaces._BLOCK_ENTRIES]))
def test_sampled_validation_matches_the_triple_loop(space, samples, seed, budget):
    """Chunked sampling names the same first failure (or none) as checking
    the triples one at a time, whatever the chunk size (1, 2 or 41 triples
    under these budgets) and however the sample count splits into chunks."""
    expected = _verdict(lambda: reference_sampled_validate(space, seed, samples))
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        got = _verdict(lambda: pl.validate_metric(space, seed, exhaustive_limit=0,
                                                  samples=samples))
    assert got == expected

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import padlab as pl
from padlab import carving, spaces
from padlab.carving import _first_cover, _probe_cuts
from padlab.decomposition import ConfigError, _ranges
from oracles import (literal_carve, literal_is_cut, literal_owner_table,
                     reference_first_cover, reference_probe_cuts)


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

    def test_guard_bounds_the_table_not_the_net(self, monkeypatch):
        """A guard at the table's kept entries, far below n * |net|, lets
        carve and the resampler run exactly as unguarded runs do; one entry
        less refuses both."""
        space = pl.integer_segment(60)
        net = pl.build_net(space, 1, 1)
        csp = pl.CspInstance(net, 1, pl.TexpParams(0.5, 1.0, 3.0), 1.5, 4.0)
        coloring = pl.greedy_color(pl.net_graph(net, 6.0))
        radii = pl.RadiusAssignment(np.linspace(1.0, 3.0, len(net.members)), 1.0, 3.0)
        entries = int(carving._owner_table(net, coloring.colors, 1.0, 3.0)[3].sum())
        assert entries < space.n * len(net.members) // 10

        def runs():
            layer = pl.carve(coloring, radii)
            result = pl.moser_tardos(space, net, csp, 0, max_rounds=40)
            return (layer.cluster_of.tolist(), layer.centers.tolist(), result.rounds,
                    result.violated_history, [a.t.tolist() for a in result.assignments],
                    [x.cluster_of.tolist() for x in result.layers])

        unguarded = runs()
        monkeypatch.setattr(carving, "_OWNER_TABLE_GUARD", entries)
        assert runs() == unguarded
        monkeypatch.setattr(carving, "_OWNER_TABLE_GUARD", entries - 1)
        with pytest.raises(ValueError, match="owner table guard"):
            pl.moser_tardos(space, net, csp, 0, max_rounds=40)
        with pytest.raises(ValueError, match="owner table guard"):
            pl.carve(coloring, radii)

    @pytest.mark.parametrize("t0", [3.0, 3.5], ids=["uncovered", "covered"])
    def test_a_row_without_sure_cover_ends_where_it_ends(self, t0):
        """A hand-made net claims a covering radius of 2.5, but point 3 lies
        3 from members 0 and 6.  Its row (members 0 and 6, no sure cover) is
        shorter than point 4's next to it, whose first entry is member 8, 4
        from point 4 but 5 from point 3, so point 3's window ends on an entry
        that ball 8 at radius 4.5 covers.  With ball 0 at radius 3 no ball
        covers point 3, and carve refuses; at 3.5 it covers it, and the layer
        is the peel-off's."""
        space = pl.integer_segment(10)
        net = pl.Net(space, np.array([8, 0, 6]), 2.5, 1.0)
        coloring = pl.greedy_color(pl.net_graph(net, 10.0))
        members, _, starts, lengths = carving._owner_table(net, coloring.colors, 2.5, 5.0)
        assert lengths[3] == 2 and lengths[4] == 3 and starts[4] == starts[3] + 2
        assert members.shape[1] == 3 and members[starts[3], 2] == 0  # member 8
        t = np.array([4.5, t0, 3.0])
        radii = pl.RadiusAssignment(t, 2.5, 5.0)
        if t0 == 3.0:
            with pytest.raises(pl.CarveError, match="covered by no ball"):
                pl.carve(coloring, radii)
        else:
            layer = pl.carve(coloring, radii)
            oracle = literal_carve(space, net.members, coloring.colors, t)
            assert np.array_equal(layer.center_positions[layer.cluster_of], oracle)
            assert oracle[3] == 1

    def test_csv_serialization(self, tmp_path):
        radii = pl.RadiusAssignment(np.full(4, 4.0), 3.0, 5.0)
        layer = pl.carve(self.coloring, radii)
        path = tmp_path / "layer.csv"
        layer.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "point_id,cluster_id,center_id"
        assert lines[1] == "0,0,0"
        assert lines[5] == "4,1,3"


@st.composite
def owner_table_cases(draw):
    """A segment, an l1/l2/linf grid, a rounded cloud, a tree or a Heisenberg
    ball; an honest net on it; a sure-cover radius up to a radius cap, each
    equal to one of its distances (within 1e-13) or beyond every distance;
    and the greedy coloring of the net or a random one with 1-3 colors, whose
    rows hold long same-color runs."""
    kind = draw(st.sampled_from(["segment", "grid", "cloud", "tree", "heis"]))
    if kind == "segment":
        space = pl.integer_segment(draw(st.integers(0, 40)))
    elif kind == "grid":
        space = pl.grid_2d(draw(st.integers(1, 7)), draw(st.integers(1, 7)),
                           draw(st.sampled_from(["l1", "l2", "linf"])))
    elif kind == "cloud":
        space = pl.euclidean_cloud(draw(st.integers(1, 40)), draw(st.integers(1, 3)),
                                   seed=draw(st.integers(0, 1000)), scale=8.0)
    elif kind == "tree":
        space = pl.balanced_tree(draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    else:
        space = pl.heisenberg_ball(draw(st.integers(1, 3)))
    gaps = np.unique(space.distance_matrix()).tolist()
    eps = max(draw(st.sampled_from(gaps)), 0.5)
    net = pl.build_net(space, eps, eps)
    l, M = sorted(draw(st.sampled_from(gaps + [space.diameter() + 1.0]))
                  + draw(st.sampled_from([0.0, 1e-13, -1e-13])) for _ in range(2))
    k = draw(st.none() | st.integers(1, 3))
    if k is None:
        colors = pl.greedy_color(pl.net_graph(net, 2 * max(M, eps))).colors
    else:
        colors = np.random.default_rng(draw(st.integers(0, 2**16))).integers(
            0, k, len(net.members))
    return net, colors, l, M


def _padding(kind):
    """The padding distance of an owner table storing distances as ``kind``."""
    return np.inf if kind == np.float64 else np.iinfo(kind).max


def _flat_table(table, M):
    """An owner table's rows back to back in point order and its row
    lengths, after checking its layout: flat storage holding each row once,
    back to back, then one longest row (at least one entry) of padding, read
    through windows of that width.  The padding is position 0 at the largest
    value of the distances' type, which exceeds the radius cap ``M``."""
    members, dists, starts, lengths = table
    total, width = int(lengths.sum()), max(1, int(lengths.max()))
    assert members.shape == dists.shape == (total + 1, width)
    entries = _ranges(starts, lengths)
    assert np.array_equal(np.sort(entries), np.arange(total))
    assert not members[total].any() and (dists[total] == _padding(dists.dtype)).all()
    assert _padding(dists.dtype) > M
    return members[entries, 0], dists[entries, 0], lengths


@pytest.mark.parametrize("budget", [spaces._BLOCK_ENTRIES, 7])
@given(owner_table_cases())
@settings(max_examples=100, deadline=None)
def test_owner_table_matches_the_literal_table(budget, case):
    """Built from radius-bounded row blocks, under the default budget and
    under 7 entries (one row a block), the owner table is entry for entry
    the literal one: rows cut at their sure cover's color run, members,
    distances, their element types and padding."""
    net, colors, l, M = case
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        got = _flat_table(carving._owner_table(net, colors, l, M), M)
    want = literal_owner_table(net.space, net.members, colors, l, M)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


ELEMENT_TYPE_CASES = {
    "segment": (lambda: pl.integer_segment(3000), 3.0, 609.0, np.uint16),
    "tree": (lambda: pl.balanced_tree(3, 4), 1.0, 3.0, np.uint8),
    "heis": (lambda: pl.heisenberg_ball(3), 1.0, 3.0, np.uint8),
    "grid_l1": (lambda: pl.grid_2d(12, 12, "l1"), 1.0, 4.0, np.uint8),
    "cap_255": (lambda: pl.integer_segment(600), 3.0, 255.0, np.uint16),
    "cloud": (lambda: pl.euclidean_cloud(200, 2, seed=1, scale=12.0), 1.0, 3.0, np.float64),
    "grid_l2": (lambda: pl.grid_2d(12, 12), 1.0, 4.0, np.float64),
    "halves": (lambda: pl.CoordSpace(np.arange(81) / 2), 1.0, 4.0, np.float64),
    "cap_65535": (lambda: pl.integer_segment(100), 3.0, 65535.0, np.float64),
}


@pytest.mark.parametrize("name", list(ELEMENT_TYPE_CASES))
def test_owner_table_stores_whole_distances_narrow(name):
    """Whole-number metrics (a segment, a tree, a Heisenberg ball, an l1
    grid) store their distances in the first of uint8 and uint16 whose
    maximum exceeds the radius cap M, which pads; a cloud, an l2 grid, a
    space of half-integers and a cap of 65535 keep float64 padded with
    infinity.  Positions are int16 below 2**15 members, and the owners of
    every row come back as intp."""
    make, eps, M, kind = ELEMENT_TYPE_CASES[name]
    net = pl.build_net(make(), eps, eps)
    colors = pl.greedy_color(pl.net_graph(net, 2 * M)).colors
    table = carving._owner_table(net, colors, eps, M)
    members, dists, _, _ = table
    assert members.dtype == np.int16 and dists.dtype == kind
    _flat_table(table, M)
    owners = _first_cover(table, colors, np.full(len(net.members), eps))
    assert owners.dtype == np.intp and len(owners) == net.space.n


@pytest.mark.parametrize("size,kind", [(2**15, np.int16), (2**15 + 1, np.int32)])
def test_owner_table_positions_hold_the_last_member(size, kind):
    """Every point of a segment a member: 2**15 members store their
    positions as int16, one more as int32, and the last position is kept."""
    space = pl.integer_segment(size - 1)
    net = pl.Net(space, np.arange(size), 1.0, 1.0)
    members, dists, _, _ = carving._owner_table(net, np.arange(size) % 3, 1.0, 2.0)
    assert members.dtype == kind and dists.dtype == np.uint8
    assert int(members[:, 0].max()) == size - 1


def test_owner_blocks_shrink_to_the_budget(monkeypatch):
    """A tree's candidates are every member, so two rows (the row cap at a
    budget of 1024 entries) against its 1023 members overrun the budget: the
    blocks shrink to one row each, and the table is the one-block table."""
    space = pl.balanced_tree(2, 9)
    net = pl.build_net(space, 1, 1)
    colors = pl.greedy_color(pl.net_graph(net, 6.0)).colors
    whole = carving._owner_table(net, colors, 1.5, 3.0)
    monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", 1024)
    calls = []
    original = pl.MatrixSpace.dist_block

    def recording(self, rows, cols=None):
        calls.append((len(rows), self.n if cols is None else len(cols)))
        return original(self, rows, cols)

    monkeypatch.setattr(pl.MatrixSpace, "dist_block", recording)
    blocked = carving._owner_table(net, colors, 1.5, 3.0)
    assert len(net.members) == 1023 and set(calls) == {(1, 1023)}
    for g, w in zip(_flat_table(blocked, 3.0), _flat_table(whole, 3.0)):
        assert np.array_equal(g, w)


def test_owner_table_peaks_near_its_own_bytes():
    """On segment:3000 with a (3, 3)-net and the carve benchmark's radii in
    [9, 609], the rows cut at their sure covers keep 536,220 of the
    3001 x 406 entries within the cap, in uint16; the same segment at half
    the spacing (and half the radii) keeps the same rows in float64.
    Building either table holds it and one row block: the traced peak stays
    below the bytes it returns plus 2.5x the float64 distances of the widest
    block (125 rows against 448 members).  The block, its masks and the
    copies of its kept entries come to ~2.16x in both layouts; holding two
    blocks at once came to ~2.91x, and every point's distances to the whole
    net would alone be ~54x."""
    for scale, kind in ((1.0, np.uint16), (0.5, np.float64)):
        space = pl.CoordSpace(np.arange(3001) * scale)
        l, M = 9.0 * scale, 609.0 * scale
        net = pl.build_net(space, 3 * scale, 3 * scale)
        colors = pl.greedy_color(pl.net_graph(net, 2 * M)).colors
        order = spaces._sweep_order(space, np.arange(space.n))
        width = max(len(near) for _, _, near in spaces._near_blocks(space, order, M,
                                                                    net.position_of))
        block = 8 * spaces._block_rows(width) * width
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = carving._owner_table(net, colors, l, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        members, dists, starts, lengths = out
        assert lengths.sum() == 536_220 and members.shape[1] == lengths.max()
        assert (width, block, dists.dtype) == (448, 448_000, kind)
        flat = len(members) - 1 + members.shape[1]  # the entries under the windows
        held = (members.itemsize + dists.itemsize) * flat + starts.nbytes + lengths.nbytes
        assert peak < held + 2.5 * block


# columns on either side of the owner scan's chunk boundaries (16, 48, 112, 240)
EDGE_COLUMNS = [0, 1, 14, 15, 16, 17, 46, 47, 48, 49, 110, 111, 112, 113,
                238, 239, 240, 241, 298, 299]


def _stored(rows, order):
    """Owner-table rows, each a ``(members, dists)`` pair, stored back to
    back in ``order`` and followed by one longest row of padding, as
    ``_owner_table`` returns them."""
    lengths = np.array([len(m) for m, _ in rows], dtype=np.intp)
    width = max(1, int(lengths.max()))
    starts = np.empty(len(rows), dtype=np.intp)
    starts[order] = np.cumsum(lengths[order]) - lengths[order]
    flat_members = np.concatenate([rows[i][0] for i in order] + [np.zeros(width)])
    flat_dists = np.concatenate([rows[i][1] for i in order] + [np.full(width, np.inf)])
    window = np.lib.stride_tricks.sliding_window_view
    return (window(flat_members.astype(np.int32), width), window(flat_dists, width),
            starts, lengths)


@st.composite
def owner_tables(draw):
    """Owner-table rows of 0-300 entries in (color, position) order, as
    ``_owner_table`` builds them, so each color is one run of a row; 1 to
    |net| colors, so long same-color runs occur; first covers placed around
    the chunk boundaries, more covering entries (of the owner's color among
    them) after them, and most rows ending on or after their first cover;
    maybe one uncovered row, whose window runs into the covering entries of
    the rows stored after it; the rows stored as :func:`_stored` stores
    them, in random order; and a row selection that is every row (``None``)
    or a list that may be empty, repeat or be unsorted."""
    n_rows = draw(st.integers(1, 10))
    T = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    colors = rng.integers(0, draw(st.integers(1, T)), T)
    t = rng.uniform(1.0, 2.0, T)
    p_cover = draw(st.sampled_from([0.0, 0.05, 0.5]))
    uncovered = draw(st.sets(st.integers(0, n_rows - 1), max_size=1))
    rows = []
    for i in range(n_rows):
        first = draw(st.sampled_from(EDGE_COLUMNS) | st.integers(0, 299))
        length = draw(st.sampled_from([first + 1, first + 2]) | st.integers(first + 1, 300))
        if i in uncovered:
            length = draw(st.sampled_from([0, first, length]))
        members = rng.integers(0, T, length)
        members = members[np.lexsort((members, colors[members]))]
        covering = rng.random(length) < p_cover
        dists = np.where(covering, t[members] * rng.random(length),
                         t[members] + rng.integers(0, 2, length))
        dists[:first] = t[members[:first]]  # not covering: balls are open
        if i in uncovered:
            dists[first:] = t[members[first:]]
        else:
            dists[first] = 0.5 * t[members[first]]
        rows.append((members, dists))
    table = _stored(rows, rng.permutation(n_rows))
    picked = draw(st.none() | st.lists(st.integers(0, n_rows - 1), max_size=12))
    return rows, table, colors, t, picked


def _outcome(fn, *args):
    try:
        return fn(*args)
    except pl.CarveError as exc:
        return str(exc)


@given(owner_tables())
@settings(max_examples=300, deadline=None)
def test_chunked_first_cover_matches_full_width_scan(case):
    """The chunked scan of each selected row's window picks the owners of a
    scan of the whole row, and raises CarveError in the same cases with the
    same message: a row covered by none of its own entries is covered by no
    ball, whatever the entries its window reads past its end."""
    rows, table, colors, t, picked = case
    selected = range(len(rows)) if picked is None else picked
    expected = _outcome(reference_first_cover, [rows[i] for i in selected], colors, t)
    got = _outcome(_first_cover, table, colors, t, picked)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.dtype == expected.dtype == np.intp
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("rows,expected", [
    ([([0, 1, 2, 3], [0.5, 1.0, 0.5, 0.5])], "two same-color centers cover one point"),
    ([([0, 1, 3], [0.5, 1.0, 0.5])], [0]),
    ([([0, 1], [0.5, 1.0]), ([2], [0.5])], [0, 2]),
], ids=["second_cover_in_the_run", "cover_past_the_run", "cover_past_the_row"])
def test_same_color_check_walks_the_owners_run(rows, expected):
    """Members 0-2 have color 0 and member 3 color 1, every radius is 1,
    and each row's owner is member 0.  A ball of color 0 covering the point
    two steps after the owner, past an entry at distance 1 that does not
    cover it, raises; a covering ball of the next color just past the
    owner's run does not, and neither does one of the owner's color in the
    next row's entries, just past the row's end."""
    rows = [(np.array(m), np.array(d)) for m, d in rows]
    colors, t = np.array([0, 0, 0, 1]), np.ones(4)
    table = _stored(rows, np.arange(len(rows)))
    for got in (_outcome(_first_cover, table, colors, t),
                _outcome(reference_first_cover, rows, colors, t)):
        if isinstance(expected, str):
            assert got.startswith(expected)
        else:
            assert got.tolist() == expected


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

    @pytest.mark.parametrize("trials,centers,message", [
        (0, [10], "trials must be an integer >= 1, got 0"),
        (3, [], "need at least one probe center"),
    ], ids=["no_trial", "no_center"])
    def test_empty_run_is_refused(self, trials, centers, message):
        """A call with no trial or no probe center is refused (the CLI
        refuses both by name before it builds a net)."""
        net = pl.build_net(pl.integer_segment(20), 1, 1)
        with pytest.raises(ValueError, match=message):
            pl.cut_probability_mc(net, pl.TgeoParams(0.5, 4), 3.0, centers, trials, seed=0)

    @pytest.mark.parametrize("trials,message", [
        (True, "an integer, got true"), (2.5, "an integer, got 2.5"),
        ("3", 'an integer, got "3"'),
    ], ids=["bool", "fractional", "string"])
    def test_trials_are_read_by_name(self, trials, message):
        """A bool is no trial count, and neither a fractional nor a string
        count is truncated or parsed (0 is the ``no_trial`` case above)."""
        net = pl.build_net(pl.integer_segment(20), 1, 1)
        with pytest.raises(ConfigError, match=f"^trials must be {message}$"):
            pl.cut_probability_mc(net, pl.TgeoParams(0.5, 4), 3.0, [10], trials, seed=0)

    @pytest.mark.parametrize("centers,shown", [([-1], "-1"), ([5, 21], "21")],
                             ids=["negative", "past_the_end"])
    def test_centers_outside_the_point_ids_are_refused(self, centers, shown):
        """A probe at -1 would wrap to the last point, and one at n would
        read past the end."""
        net = pl.build_net(pl.integer_segment(20), 1, 1)
        with pytest.raises(ValueError, match=f"point ids must be integers in 0..20, got {shown}"):
            pl.cut_probability_mc(net, pl.TgeoParams(0.5, 4), 3.0, centers, 3, seed=0)

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


def test_cut_probes_hold_one_set_up_at_a_time():
    """On the benchmark's scaled C3 config (segment:10000, the tgeo row at
    M = 1917, 100 probes, 200 trials in two chunks of 125) the traced peak of
    ``cut_probability_mc`` stays within 4 MiB of its 125-trial radii buffer:
    a probe's set-up lives only while it is evaluated (the 100 set-ups held
    together took 12.3 MB), and its extents are read in 125-row blocks
    (10.4 MiB; one 200-trial chunk peaked at 16.2 MiB)."""
    net = pl.build_net(pl.integer_segment(10000), 1, 1)
    schedule = pl.schedule_from_json({"kind": "tgeo", "b": 1.0, "p": 1 / 400, "M": 1917,
                                      "m": 2, "r": 9.0})
    centers = np.sort(np.random.default_rng([7, 0xC3]).choice(net.members, 100, replace=False))
    net.position_of  # the net's own index, built with the net
    tracemalloc.start()
    try:
        pl.cut_probability_mc(net, schedule.law(), schedule.probe_radius, centers, 200, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 125 * len(net) * 8 + 4 * 2**20


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


@pytest.mark.parametrize("trials_per_chunk", [None, 1, 3],
                         ids=["default_budget", "1_trial_a_chunk", "3_trials_a_chunk"])
@given(probe_cases())
@settings(max_examples=200, deadline=None)
def test_probe_scan_matches_dense_evaluation(trials_per_chunk, case):
    """The chunked first-touch scan gives the cut matrix of the dense
    evaluation over every candidate of every probe, for greedy colorings and
    for few-color ones with long same-color runs.  A block budget of 1 or 3
    trials' radii splits the trials into chunks, each of which sets its
    probes up again."""
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
    # builds it; a budget of max(k |net|, (16 k)**2) entries gives chunks of
    # k trials: a row cap of k, and room for k rows against the members
    budget = spaces._BLOCK_ENTRIES if trials_per_chunk is None \
        else max(trials_per_chunk * len(net.members), (16 * trials_per_chunk) ** 2)
    radii = np.stack([pl.draw_radii(law, net, seed, t).t for t in range(trials)])
    expected = reference_probe_cuts(space, net, coloring.colors, M, probe, centers, radii)
    with mock.patch.object(carving, "greedy_color", lambda graph: coloring), \
            mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        if trials_per_chunk is not None:
            assert spaces._block_rows(len(net.members)) == trials_per_chunk
        res = pl.cut_probability_mc(net, law, probe, centers, trials, seed)
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
    names, are those of a per-member loop over single open balls; a
    decomposition at a negative R is refused when it is built."""
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
    if R < 0:  # drawn as 0 - 1e-13
        with pytest.raises(ValueError, match="R must be a finite number >= 0"):
            pl.PaddedDecomposition(net, [sets], R, 2 * M)
        return
    report = pl.verify_padded(pl.PaddedDecomposition(net, [sets], R, 2 * M))
    assert report.conditions["net_partition"] and report.conditions["diameter"]
    cut = [int(x) for x in net.members if literal_is_cut(space, owner, x, R)]
    assert report.conditions["padding"] == (not cut)
    assert sorted(w["member"] for w in report.witnesses if w["condition"] == "padding") == cut

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import padlab as pl
from padlab import growth, spaces
from padlab.decomposition import ConfigError
from oracles import (literal_optimal_cover_size, reference_greedy_cover_size,
                     reference_growth_table)


class TestDoublingEstimate:
    def test_integer_segment_needs_three_balls(self):
        space = pl.integer_segment(1000)
        assert pl.doubling_constant_estimate(space, [4, 8, 16, 32]) == 3

    def test_single_point(self):
        assert pl.doubling_constant_estimate(pl.integer_segment(0), [1.0]) == 1

    def test_two_points_at_unit_distance(self):
        # B_2(x) = both points, but each open unit ball holds only its center,
        # so two balls are needed; exhaustive search agrees
        space = pl.CoordSpace([0.0, 1.0])
        assert pl.doubling_constant_estimate(space, [1.0]) == 2
        target = space.ball(0, 2.0)
        assert pl.optimal_cover_size(space, target, 1.0) == 2

    def test_greedy_matches_optimal_on_small_segment(self):
        space = pl.integer_segment(300)
        greedy = pl.doubling_constant_estimate(space, [4, 8, 16])
        worst_optimal = 0
        mat = space.distance_matrix()
        for r in (4.0, 8.0, 16.0):
            for c in range(0, space.n, 5):
                target = np.nonzero(mat[c] < 2 * r)[0]
                worst_optimal = max(worst_optimal,
                                    pl.optimal_cover_size(space, target, r))
        assert worst_optimal == 3
        assert greedy >= worst_optimal  # greedy is a lower estimate of N via max

    def test_repeated_cover_problem_is_solved_once(self, monkeypatch):
        """When every ball is the whole space, each center poses the same
        cover problem: one greedy cover per radius, and the answer is 1."""
        space = pl.euclidean_cloud(40, 2, seed=3, scale=1.0)
        assert space.diameter() < 2.0
        calls = []
        monkeypatch.setattr(growth, "_greedy_cover_size",
                            lambda covers: calls.append(covers.shape)
                            or reference_greedy_cover_size(covers))
        assert pl.doubling_constant_estimate(space, [2.0, 3.0]) == 1
        assert calls == [(40, 40), (40, 40)]

    @pytest.mark.parametrize("fixture,radii", [("segment:60", [1.0, 3.0, 50.0]),
                                               ("cloud:50:2", [0.2, 0.5, 2.0]),
                                               ("grid:6x6:linf", [1.0, 2.0]),
                                               ("heis:4", [1.0, 2.0, 3.0])])
    def test_matches_a_solve_per_center(self, fixture, radii):
        space = pl.parse_fixture(fixture)
        mat = space.distance_matrix()
        expected = max(reference_greedy_cover_size(
            mat[np.ix_(np.nonzero(mat[c] < 3 * r)[0], np.nonzero(mat[c] < 2 * r)[0])] < r)
            for r in radii for c in range(space.n))
        assert pl.doubling_constant_estimate(space, radii) == expected

    def test_rejects_empty_or_negative_radii(self):
        with pytest.raises(ValueError):
            pl.doubling_constant_estimate(pl.integer_segment(5), [])
        with pytest.raises(ValueError):
            pl.doubling_constant_estimate(pl.integer_segment(5), [-1.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.integers(0, 40), st.floats(0.0, 1.0), st.integers(0, 2**16))
def test_greedy_cover_matches_the_boolean_loop(rows, cols, density, seed):
    covers = np.random.default_rng(seed).random((rows, cols)) < density

    def outcome(cover_size):
        try:
            return cover_size(covers)
        except ValueError as exc:
            return str(exc)

    assert outcome(growth._greedy_cover_size) == outcome(reference_greedy_cover_size)


@st.composite
def cover_spaces(draw):
    """A small coordinate cloud under l1, l2 or linf (integer coordinates, so
    many distances tie), or the shortest-path metric of random integer edge
    weights as a MatrixSpace."""
    n = draw(st.integers(1, 18))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        values = st.integers(-4, 4).map(float) | st.floats(-10.0, 10.0)
        coords = draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                               min_size=n, max_size=n))
        return pl.CoordSpace(np.array(coords), draw(st.sampled_from(["l1", "l2", "linf"])))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n * n, max_size=n * n)),
                       dtype=float).reshape(n, n)
    mat = np.minimum(weights, weights.T)
    np.fill_diagonal(mat, 0.0)
    for k in range(n):
        mat = np.minimum(mat, mat[:, k, None] + mat[None, k, :])
    return pl.MatrixSpace(mat)


@settings(max_examples=150, deadline=None)
@given(cover_spaces(), st.data())
def test_estimate_is_the_largest_per_center_cover(space, data):
    """The estimate is the largest greedy cover of B_2r(c) by open r-balls
    centered within 3r of c, over every center and radius; some radii equal
    a pairwise distance, so a closed r-ball would change the answer."""
    mat = space.distance_matrix()
    gaps = np.unique(mat[mat > 0]).tolist()
    radius = st.floats(0.05, 12.0)
    if gaps:
        radius = radius | st.sampled_from(gaps)
    radii = data.draw(st.lists(radius, min_size=1, max_size=3))
    expected = max(reference_greedy_cover_size(
        mat[np.ix_(np.nonzero(mat[c] < 3 * r)[0], np.nonzero(mat[c] < 2 * r)[0])] < r)
        for r in radii for c in range(space.n))
    assert pl.doubling_constant_estimate(space, radii) == expected


@pytest.mark.parametrize("radii", [[2.0, float("nan")], [float("inf")], [float("-inf")]])
def test_non_finite_radii_are_rejected(radii):
    space = pl.integer_segment(10)
    with pytest.raises(ValueError, match="radii must be finite"):
        pl.growth_table(space, radii)
    with pytest.raises(ValueError, match="radii must be finite"):
        pl.doubling_constant_estimate(space, radii)
    with pytest.raises(ValueError, match="radii must be finite"):
        pl.volume_doubling_estimate(pl.MeasuredSpace.uniform(space), radii)


@pytest.mark.parametrize("centers,shown", [([-1], "-1"), ([9.7], "9.7"), ([11], "11"),
                                           ([0, 3, 10.5], "10.5")])
def test_centers_outside_the_point_ids_are_rejected(centers, shown):
    space = pl.integer_segment(10)
    message = f"point ids must be integers in 0..10, got {shown}"
    with pytest.raises(ValueError, match=message):
        pl.doubling_constant_estimate(space, [2.0], centers=centers)
    with pytest.raises(ValueError, match=message):
        pl.volume_doubling_estimate(pl.MeasuredSpace.uniform(space), [2.0], centers=centers)


@pytest.mark.parametrize("estimate", [
    lambda space, centers: pl.doubling_constant_estimate(space, [2.0], centers=centers),
    lambda space, centers: pl.volume_doubling_estimate(pl.MeasuredSpace.uniform(space), [2.0],
                                                       centers=centers),
], ids=["doubling_constant", "volume_doubling"])
def test_an_empty_center_sample_is_rejected(estimate):
    """No sampled center gives no constant: ``centers=[]`` is refused, not read as 0."""
    with pytest.raises(ValueError, match="centers must be None or a nonempty list"):
        estimate(pl.integer_segment(10), [])


def test_given_centers_match_their_integer_ids():
    space = pl.integer_segment(10)
    # B_4(0) = {0, 1, 2, 3} takes two open 2-balls
    assert pl.doubling_constant_estimate(space, [2.0], centers=[0.0, 10]) == 2
    ms = pl.MeasuredSpace.uniform(space)
    assert pl.volume_doubling_estimate(ms, [2.0], centers=[5.0]) == 7 / 3


def test_optimal_cover_size_brute_force_cases():
    space = pl.integer_segment(20)
    # covering {0..8} (open B_4.5 around 4) with radius-2 balls: each ball has
    # 3 points, 9 points to cover, so exactly 3
    target = space.ball(4, 4.5)
    assert len(target) == 9
    assert pl.optimal_cover_size(space, target, 2.0) == 3
    assert pl.optimal_cover_size(space, np.array([], dtype=int), 2.0) == 0


@settings(max_examples=100, deadline=None)
@given(cover_spaces().filter(lambda space: space.n <= 8), st.data())
def test_optimal_cover_size_matches_every_center_set(space, data):
    """Deduplicating and dropping dominated candidate balls keeps the exact
    minimum that trying every set of centers finds."""
    target = data.draw(st.lists(st.integers(0, space.n - 1), unique=True, max_size=space.n))
    gaps = np.unique(space.distance_matrix()).tolist()
    radius = data.draw(st.sampled_from(gaps[1:] or [1.0]) | st.floats(0.05, 12.0))
    assert pl.optimal_cover_size(space, target, radius) == \
        literal_optimal_cover_size(space, target, radius)


class TestVolumeDoubling:
    def test_segment_unit_masses(self):
        ms = pl.MeasuredSpace.uniform(pl.integer_segment(1000))
        # open balls: B_10(500) has 19 points, B_20(500) has 39
        ratio = pl.volume_doubling_estimate(ms, [10.0], centers=[500])
        assert ratio == pytest.approx(39 / 19)

    def test_grid_linf(self):
        space = pl.grid_2d(101, 101, "linf")
        ms = pl.MeasuredSpace.uniform(space)
        middle = 50 * 101 + 50
        # open balls: B_5 is a 9x9 block, B_10 a 19x19 block
        ratio = pl.volume_doubling_estimate(ms, [5.0], centers=[middle])
        assert ratio == pytest.approx(361 / 81)

    def test_single_point(self):
        ms = pl.MeasuredSpace.uniform(pl.integer_segment(0))
        assert pl.volume_doubling_estimate(ms, [1.0]) == 1.0

    def test_exhaustive_constant_on_segment_is_three(self):
        """Scanning all threshold radii gives the true volume doubling
        constant of the unit-mass segment: 3."""
        ms = pl.MeasuredSpace.uniform(pl.integer_segment(200))
        radii = [k / 2 + 0.01 for k in range(1, 80)]
        assert pl.volume_doubling_estimate(ms, radii) == pytest.approx(3.0)

    @pytest.mark.parametrize("space", [pl.euclidean_cloud(70, 2, seed=4, scale=6.0),
                                       pl.grid_2d(9, 7, "l1"), pl.heisenberg_ball(3),
                                       pl.balanced_tree(2, 5)], ids=lambda s: s.label)
    @pytest.mark.parametrize("budget", [7, spaces._BLOCK_ENTRIES])
    def test_matches_a_per_center_literal(self, monkeypatch, space, budget):
        """The estimate read in radius-bounded blocks is the largest ratio a
        per-center loop finds from whole distance rows, float for float, with
        uneven masses and centers that repeat and come out of order."""
        monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", budget)
        rng = np.random.default_rng(5)
        ms = pl.MeasuredSpace(space, rng.uniform(0.1, 3.0, space.n))
        radii = [0.8, 1.5, 2.5]
        for centers in (None, rng.integers(0, space.n, 12).tolist()):
            want = max(float(ms.mass[space.dist_row(c) < 2 * r].sum())
                       / float(ms.mass[space.dist_row(c) < r].sum())
                       for c in (range(space.n) if centers is None else centers)
                       for r in radii)
            assert pl.volume_doubling_estimate(ms, radii, centers=centers) == want


class TestGrowthFunction:
    def test_open_ball_count_on_segment(self):
        assert pl.growth_table(pl.integer_segment(200), [5.0], trials=2, seed=0) == {5.0: 9}

    def test_radius_one_sees_only_the_center(self):
        assert pl.growth_table(pl.integer_segment(50), [1.0], trials=2, seed=0) == {1.0: 1}

    def test_single_point(self):
        assert pl.growth_table(pl.integer_segment(0), [7.0]) == {7.0: 1}

    def test_rejects_empty_radii_as_its_siblings_do(self):
        with pytest.raises(ValueError, match="radii must be a nonempty list of positive reals"):
            pl.growth_table(pl.integer_segment(10), [])

    def test_rejects_radius_below_one(self):
        with pytest.raises(ValueError):
            pl.growth_table(pl.integer_segment(10), [0.5])

    @pytest.mark.parametrize("trials,message", [
        (True, "an integer, got true"), (2.5, "an integer, got 2.5"),
        (0, "an integer >= 1, got 0"), ("3", 'an integer, got "3"'),
    ], ids=["bool", "fractional", "zero", "string"])
    def test_trials_are_read_by_name(self, trials, message):
        """A bool is no trial count (``True`` built a one-trial table), and
        neither a fractional nor a string count is truncated or parsed."""
        with pytest.raises(ConfigError, match=f"^trials must be {message}$"):
            pl.growth_table(pl.integer_segment(20), [2.0], trials=trials)

    def test_segment_slope_is_roughly_linear(self):
        table = pl.growth_table(pl.integer_segment(10000), [8, 16, 32, 64],
                                trials=2, seed=0)
        slope = pl.loglog_slope(sorted(table), [table[r] for r in sorted(table)])
        assert 0.9 <= slope <= 1.1

    def test_shared_nets_match_one_radius_at_a_time(self):
        space = pl.grid_2d(15, 15, "l1")
        table = pl.growth_table(space, [2.0, 4.0], trials=2, seed=3)
        for r in (2.0, 4.0):
            assert table[r] == pl.growth_table(space, [r], trials=2, seed=3)[r]


@pytest.mark.parametrize("space", [pl.euclidean_cloud(70, 2, seed=4, scale=6.0),
                                   pl.grid_2d(9, 7, "linf"), pl.heisenberg_ball(3),
                                   pl.balanced_tree(2, 5)], ids=lambda s: s.label)
@pytest.mark.parametrize("budget", [50, spaces._BLOCK_ENTRIES])
def test_growth_table_matches_the_row_loop(monkeypatch, space, budget):
    monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", budget)
    rng = np.random.default_rng(0)
    for trials in (1, 3):
        radii = np.round(rng.uniform(1.0, 6.0, 4), 2).tolist() + [3.0, 3.0]
        seed = int(rng.integers(100))
        table = pl.growth_table(space, radii, trials=trials, seed=seed)
        expected = reference_growth_table(space, radii, trials=trials, seed=seed)
        assert list(table.items()) == list(expected.items())


def test_growth_table_holds_one_radius_bounded_block():
    """On ``heis:8`` (1793 points) the table's traced peak is its nets and a
    block of at most 125 rows, not a rows x members matrix (28 MiB when all
    rows were read against the net in one block)."""
    space = pl.heisenberg_ball(8)
    tracemalloc.start()
    try:
        table = pl.growth_table(space, [3, 4, 5, 6], trials=3, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table == reference_growth_table(space, [3, 4, 5, 6], trials=3, seed=7)
    assert peak < 8 * 2**20


def test_one_trial_imports_no_random_generator():
    """``gen`` builds one trial, in index order: a fresh process that builds a
    one-trial table never imports ``numpy.random``, whose import costs a bare
    process ~13 ms and ~6 MB."""
    src = str(Path(pl.__file__).resolve().parent.parent)
    code = ("import sys, padlab as pl; pl.growth_table(pl.heisenberg_ball(3), [2.0], trials=1); "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stdout.strip() == "False", proc.stderr[-2000:]


def test_loglog_slope_undefined_cases():
    assert pl.loglog_slope([2.0], [5.0]) is None
    assert pl.loglog_slope([2.0, 4.0], [0.0, 0.0]) is None
    assert pl.loglog_slope([1, 2, 4, 8], [1, 2, 4, 8]) is not None

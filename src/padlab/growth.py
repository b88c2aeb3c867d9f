"""Doubling and growth estimators.

These are empirical probes, not exact computations:

* :func:`doubling_constant_estimate` greedily covers 2r-balls by r-balls and
  reports the largest cover it needed.  That is no lower bound of the
  doubling constant: a greedy cover is never smaller than an optimal one
  (optimal covering is NP-hard in general), so at the sampled scales the
  figure can exceed the exact one - 10 against 7 on ``grid:20x20`` - while
  scales it does not sample can need more.
* :func:`optimal_cover_size` is the exhaustive companion for small targets;
  it is what tests use to pin exact doubling constants on desk-size fixtures.
* :func:`growth_table` approximates the unit-scale growth function by
  sweeping random greedy nets; a lower estimate, since the true value is a
  supremum over all unit nets.

The ball counts and mass ratios only need the points within the largest
radius read, so they read through ``spaces._near_blocks`` at that radius, one
bounded row block at a time, never a whole row against every point.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .decomposition import _number, _point_ids
from .nets import build_net
from .spaces import FiniteMetricSpace, MeasuredSpace, _near_blocks, _sweep_order

__all__ = [
    "doubling_constant_estimate",
    "optimal_cover_size",
    "volume_doubling_estimate",
    "growth_table",
    "loglog_slope",
]

_COVER_MATRIX_GUARD = 4000


def _radii(radii, rule: str = "finite positive reals", low: float | None = None) -> list:
    """``radii`` as a nonempty list of positive reals, each at least ``low`` if given."""
    radii = [_number(r, "radii", rule, low=low, above=0) for r in radii]
    if not radii:
        raise ValueError("radii must be a nonempty list of positive reals")
    return radii


def _centers(space: FiniteMetricSpace, centers) -> np.ndarray:
    """Every point for ``None``, else a nonempty list of point ids."""
    centers = np.arange(space.n) if centers is None else _point_ids(centers, space.n)
    if not len(centers):
        raise ValueError("centers must be None or a nonempty list of point ids")
    return centers


def _greedy_cover_size(covers) -> int:
    """Greedy max-coverage count of a boolean matrix (rows = centers, cols = targets)."""
    # float32 gains are exact integers below 2**24, so argmax ties break as on counts
    counts = covers.astype(np.float32)
    remaining = np.ones(covers.shape[1], dtype=np.float32)
    picks = 0
    while remaining.any():
        gain = counts @ remaining
        best = int(np.argmax(gain))
        if gain[best] == 0:
            raise ValueError("target point not coverable by any candidate ball")
        remaining[covers[best]] = 0
        picks += 1
    return picks


def doubling_constant_estimate(space: FiniteMetricSpace, radii, centers=None) -> int:
    """Largest greedy cover of any sampled B_2r by r-balls around space points.

    A greedy figure for the doubling constant N, not a bound of it: each
    greedy cover can exceed the optimal one, and unsampled scales can need
    more.  ``centers=None`` means every point; either way the space must be
    small enough (n <= 4000) for its distance matrix to fit in memory.

    Each radius r builds one boolean r-ball matrix ``mat < r`` (n**2 bytes:
    16 MB at the 4000-point guard, beside the 128 MB float64 distance
    matrix), and each center's cover problem is a row and column gather from
    it.  The matrix is freed before the next radius's is built.
    """
    radii = _radii(radii)
    centers = _centers(space, centers)
    if space.n > _COVER_MATRIX_GUARD:
        raise ValueError(
            f"n={space.n} exceeds the {_COVER_MATRIX_GUARD}-point matrix guard; "
            "pass an explicit centers sample on a smaller fixture instead")
    mat = space.distance_matrix()
    best = 0
    for r in radii:
        within = mat < r
        prev_cand = prev_target = None
        for c in centers:
            target = np.nonzero(mat[c] < 2 * r)[0]
            # only points within 3r of c can center a useful r-ball
            cand = np.nonzero(mat[c] < 3 * r)[0]
            # a center posing the previous center's problem (on a small cloud,
            # every ball is the whole space) cannot raise the maximum
            if np.array_equal(cand, prev_cand) and np.array_equal(target, prev_target):
                continue
            prev_cand, prev_target = cand, target
            best = max(best, _greedy_cover_size(within[cand][:, target]))
        del within  # freed before the next radius's matrix is built
    return best


def optimal_cover_size(space: FiniteMetricSpace, target, radius: float) -> int:
    """Exact minimum number of ``radius``-balls covering ``target``.

    Exhaustive search after deduplicating candidates by coverage signature
    and dropping dominated ones; intended for n <= a few hundred.
    """
    target = np.asarray(target, dtype=np.intp)
    if len(target) == 0:
        return 0
    if space.n > 400:
        raise ValueError("exhaustive cover search is limited to n <= 400")
    covers = space.dist_block(np.arange(space.n), target) < radius
    covers = np.unique(covers, axis=0)
    covers = covers[covers.any(axis=1)]
    # drop rows dominated by another row: the rows are distinct, so row i is
    # dominated iff some other row j leaves none of i's targets out
    outside = covers.astype(np.int64) @ (~covers).T.astype(np.int64)  # |i minus j|
    np.fill_diagonal(outside, 1)
    covers = covers[(outside > 0).all(axis=1)]
    if not covers.any(axis=0).all():
        raise ValueError("target not coverable at this radius")
    upper = _greedy_cover_size(covers)
    for k in range(1, upper):
        for combo in combinations(range(len(covers)), k):
            if covers[list(combo)].any(axis=0).all():
                return k
    return upper


def volume_doubling_estimate(ms: MeasuredSpace, radii, centers=None) -> float:
    """Max sampled ratio mass(B_2r(x)) / mass(B_r(x)); lower estimate of the
    volume doubling constant.

    The centers are read in ``spaces._near_blocks`` blocks at twice the
    largest radius, every point a member, so a block holds each center's
    distances to the candidates of its largest ball only; a ball's mass is
    the sum of the same entries, in the same order, as over a whole row."""
    radii = _radii(radii)
    space = ms.base
    centers = _centers(space, centers)
    rows = centers[_sweep_order(space, centers)]
    best = 0.0
    for lo, hi, near in _near_blocks(space, rows, 2 * max(radii), np.arange(space.n)):
        mass = ms.mass[near]
        for c, row in zip(rows[lo:hi], space.dist_block(rows[lo:hi], near)):
            for r in radii:
                inner = float(mass[row < r].sum())
                if inner <= 0:
                    raise ValueError(f"ball B_{r}({c}) has zero mass")
                outer = float(mass[row < 2 * r].sum())
                best = max(best, outer / inner)
        del row  # a view that holds its block alive while the next is read
    return best


def growth_table(space: FiniteMetricSpace, radii, trials: int = 3, seed: int = 0) -> dict:
    """Estimates of the unit-scale growth function at several radii.

    Builds ``trials`` greedy (1,1)-nets from random sweep orders (index order
    first) and returns, per radius r, the most net members found in any open
    r-ball over all centers.  The true value is a supremum over *all* unit
    nets, so this is an exhaustive-over-centers but net-sampled lower bound.
    Each net's counts come from :func:`_max_ball_counts`, so besides the net
    the table holds one radius-bounded block at a time.
    """
    radii = _radii(radii, "finite reals >= 1", low=1)
    trials = _number(trials, "trials", "an integer >= 1", integer=True, low=1)
    best = dict.fromkeys(radii, 0)
    for t in range(trials):
        if t == 1:  # one trial, as gen runs, needs no generator
            rng = np.random.default_rng(seed)
        order = np.arange(space.n) if t == 0 else rng.permutation(space.n)
        net = build_net(space, 1.0, 1.0, order=order)
        for r, count in zip(best, _max_ball_counts(net, list(best))):
            best[r] = max(best[r], count)
    return best


def _max_ball_counts(net, radii) -> list:
    """Per radius r, the most members of ``net`` in any open r-ball around a
    point of its space.

    Every point is read, in the blocked passes' order, in the blocks of
    ``spaces._near_blocks`` at the largest radius against the members near
    each block (:attr:`Net.position_of`); a member beyond that radius counts
    for no ball, so the counts are those of whole rows."""
    space = net.space
    rows = _sweep_order(space, np.arange(space.n))
    counts = [0] * len(radii)
    for lo, hi, near in _near_blocks(space, rows, max(radii), net.position_of):
        sub = space.dist_block(rows[lo:hi], net.members[near])
        for k, r in enumerate(radii):
            counts[k] = max(counts[k], int((sub < r).sum(axis=1).max()))
        del sub  # before the next block is read
    return counts


def loglog_slope(radii, values) -> float | None:
    """Least-squares slope of log(values) against log(r + 1).

    Returns None when fewer than two usable points exist.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    ok = values > 0
    if ok.sum() < 2:
        return None
    slope, _ = np.polyfit(np.log(radii[ok] + 1.0), np.log(values[ok]), 1)
    return float(slope)

"""Finite metric spaces and the fixture zoo.

Every geometric object in this package is built on top of a
:class:`FiniteMetricSpace`: a finite point set 0..n-1 together with a total
distance oracle.  Balls are *open* everywhere: ``ball(c, r)`` contains the
points at distance strictly less than ``r`` from ``c``.

Three concrete backends cover all fixtures:

* :class:`CoordSpace` - points with coordinates under an l1 / l2 / linf norm
  (segments, grids, random clouds).
* :class:`MatrixSpace` - an explicit distance matrix (graph metrics loaded
  from edge lists, balanced trees).
* :class:`HeisenbergBall` - a word-metric ball in the discrete Heisenberg
  group, backed by a dense ``uint8`` word-length table indexed by a packed
  group-element key instead of a matrix (8.7 MB at the radius-16 guard).

Distances for random Euclidean clouds are rounded to 12 decimal digits at
construction time so that runs reproduce bit-for-bit across platforms.

Each backend implements one distance kernel, ``dist_block``, and every
distance is read through it, in row blocks of one shape (``_block_rows``: at
most 125 rows and ``_BLOCK_ENTRIES`` entries, or one wider row) from one of
two readers.  Each pass drops a block before it reads the next.

* ``_near_blocks`` reads rows against the members within a radius of each
  block, which :meth:`FiniteMetricSpace.candidates` bounds (a bounding box
  on coordinate spaces).  Every pass that only counts or lists points within
  a radius reads through it: the net sweep, the band pass, the owner table,
  the ball pass, the growth ball counts, the volume doubling ratios and
  ``gen``'s unit-distance edges.  Balls, one or many, come from that ball
  pass in CSR form.
* ``_dist_blocks`` reads rows against fixed columns, for the passes that
  need every column: the distance matrix, cover disjointness and the extents
  of cut probes.  No kernel chunks rows.

Set diameters (the diameter too) come from one pass over a list of sets,
each block read against the points of its own sets (``_set_diameters``).
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict

import numpy as np

__all__ = [
    "FiniteMetricSpace",
    "CoordSpace",
    "MatrixSpace",
    "HeisenbergBall",
    "MeasuredSpace",
    "integer_segment",
    "grid_2d",
    "euclidean_cloud",
    "balanced_tree",
    "heisenberg_ball",
    "load_points",
    "load_edge_list",
    "parse_fixture",
    "validate_metric",
    "MetricError",
]

# Hard ceiling for fixtures that need an all-pairs shortest path matrix.
_APSP_MAX_POINTS = 5000
# Distance entries per block of a blocked pass.  _block_rows also caps a
# block at isqrt(_BLOCK_ENTRIES) // 16 = 125 rows, so only a read wider than
# 32 000 columns reaches the 32 MB of float64; every kernel holds at most one
# scratch array of its block's size besides.
_BLOCK_ENTRIES = 4_000_000


class MetricError(ValueError):
    """A claimed metric violates one of the metric axioms."""


class FiniteMetricSpace:
    """A finite point set with a total distance oracle.

    Subclasses implement :meth:`dist_block`; rows, single distances and
    balls are read through it.  Instances are immutable after construction.
    """

    def __init__(self, n: int, label: str):
        self.n = int(n)
        self.label = label

    def dist_block(self, rows, cols=None) -> np.ndarray:
        """Distance submatrix ``rows x cols`` (``cols=None`` means all points),
        as a float array computed entry by entry: the one kernel."""
        raise NotImplementedError

    def dist_row(self, i: int) -> np.ndarray:
        return self.dist_block([i])[0]

    def dist(self, i: int, j: int) -> float:
        return float(self.dist_block([i], [j])[0, 0])

    def ball(self, center: int, r: float) -> np.ndarray:
        """Sorted ids of the open ball of radius ``r`` around ``center``."""
        _check_center(self, center)
        return _balls(self, [center], r)[0]

    def candidates(self, points, radius: float) -> np.ndarray:
        """Sorted ids of a superset of the points at distance less than
        ``radius`` from some point of ``points``: here every point.  A space
        that can bound its balls cheaply narrows this."""
        return np.arange(self.n)

    def diameter(self) -> float:
        return set_diameter(self, np.arange(self.n))

    def distance_matrix(self) -> np.ndarray:
        if self.n > _APSP_MAX_POINTS:
            raise ValueError(f"refusing to materialize a {self.n}x{self.n} distance matrix")
        mat = np.empty((self.n, self.n))
        for start, sub in _dist_blocks(self, np.arange(self.n)):
            mat[start:start + len(sub)] = sub
            del sub  # before the next block is read
        return mat

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, label={self.label!r})"


class CoordSpace(FiniteMetricSpace):
    """Points with coordinates under an l1, l2 or linf metric."""

    def __init__(self, coords, metric: str = "l2", label: str = "", round_digits=None):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise ValueError("coords must be an (n, dim) array with dim >= 1")
        if metric not in ("l1", "l2", "linf"):
            raise ValueError(f"unknown metric {metric!r}")
        super().__init__(coords.shape[0], label)
        self.coords = coords
        self.metric = metric
        self.round_digits = round_digits
        self._by_first = None  # (ids sorted by coordinate 0, that coordinate), on first use

    def _distances(self, a, b):
        """``len(a) x len(b)`` distances between the coordinate rows ``a`` and
        ``b``, accumulated one coordinate at a time (a block costs its output
        plus one scratch array).  Below 8 coordinates the sums run in the
        order of numpy's ``sum`` over a last axis, so they are bit-identical."""
        dim = a.shape[1]
        l2 = self.metric == "l2" and dim > 1  # all three norms coincide in 1-d
        d = np.subtract.outer(a[:, 0], b[:, 0])
        if l2:
            d *= d
        else:
            np.abs(d, out=d)
        t = np.empty_like(d) if dim > 1 else None
        for k in range(1, dim):
            np.subtract.outer(a[:, k], b[:, k], out=t)
            if l2:
                t *= t
                d += t
            else:
                np.abs(t, out=t)
                (np.add if self.metric == "l1" else np.maximum)(d, t, out=d)
        if l2:
            np.sqrt(d, out=d)
        if self.round_digits is not None:
            np.round(d, self.round_digits, out=d)
        return d

    def dist_block(self, rows, cols=None):
        a = self.coords[np.asarray(rows, dtype=np.intp)]
        b = self.coords if cols is None else self.coords[np.asarray(cols, dtype=np.intp)]
        return self._distances(a, b)

    def candidates(self, points, radius):
        """Sorted ids of the points inside the bounding box of ``points``
        grown by ``radius`` plus a slack of ``1e-9 * max(1, radius)``.

        No coordinate gap exceeds an l1, l2 or linf distance, so the box holds
        every point within ``radius``; the slack covers the 12-digit rounding
        of clouds and the one-ulp error of ``sqrt``.  Coordinate 0 is bisected
        in an order sorted on first use, the others are filtered."""
        box = self.coords[np.asarray(points, dtype=np.intp)]
        if len(box) == 0:
            return np.empty(0, dtype=np.intp)
        reach = radius + 1e-9 * max(1.0, radius)
        lo, hi = box.min(axis=0) - reach, box.max(axis=0) + reach
        if self._by_first is None:
            order = np.argsort(self.coords[:, 0], kind="stable")
            self._by_first = order, self.coords[order, 0]
        order, first = self._by_first
        ids = order[np.searchsorted(first, lo[0], "left"):np.searchsorted(first, hi[0], "right")]
        rest = self.coords[ids, 1:]
        return np.sort(ids[((rest >= lo[1:]) & (rest <= hi[1:])).all(axis=1)])


class MatrixSpace(FiniteMetricSpace):
    """Explicit symmetric distance matrix, held as a read-only copy of the
    caller's, so no later write on either side moves the distances."""

    def __init__(self, matrix, label: str = ""):
        self._own(np.array(matrix, dtype=float), label)

    def _own(self, matrix, label):
        """Take ``matrix``, a float64 array no one else writes, without a copy."""
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("distance matrix must be square")
        super().__init__(matrix.shape[0], label)
        matrix.flags.writeable = False
        self.matrix = matrix

    def dist_block(self, rows, cols=None):
        sub = self.matrix[np.asarray(rows, dtype=np.intp)]
        return sub if cols is None else sub[:, np.asarray(cols, dtype=np.intp)]

    def distance_matrix(self):
        return self.matrix  # read-only, so lent without a copy


def _matrix_space(matrix, label: str) -> MatrixSpace:
    """A :class:`MatrixSpace` over a fresh float64 ``matrix`` its builder
    hands over, without the copy the constructor makes."""
    space = MatrixSpace.__new__(MatrixSpace)
    space._own(matrix, label)
    return space


def _block_rows(width: int) -> int:
    """Rows of a block read against ``width`` columns, the one block shape:
    at most max(1, isqrt(``_BLOCK_ENTRIES``) // 16) rows (125 by default)
    and at most ``_BLOCK_ENTRIES`` entries, or one row.  The row cap is the
    net sweep's: each admission rescans its block, and a 125-row square
    (125 KB) stays below malloc's 128 KB mmap threshold."""
    return max(1, min(math.isqrt(_BLOCK_ENTRIES) // 16, _BLOCK_ENTRIES // max(1, width)))


def _dist_blocks(space: FiniteMetricSpace, rows, cols=None):
    """Yield ``(start, space.dist_block(rows[start:start + step], cols))`` over
    ``rows`` in blocks of :func:`_block_rows` rows against the columns.  A
    caller drops each block before it asks for the next, so it holds one."""
    step = _block_rows(space.n if cols is None else len(cols))
    for start in range(0, len(rows), step):
        yield start, space.dist_block(rows[start:start + step], cols)


def set_diameter(space: FiniteMetricSpace, points) -> float:
    """Largest distance between two of ``points``; 0 for fewer than two."""
    return float(_set_diameters(space, [points])[0])


def _set_diameters(space: FiniteMetricSpace, sets) -> np.ndarray:
    """:func:`set_diameter` of each of ``sets``, in one pass over their points
    back to back, in row blocks of the one block shape.

    A set of more than ``_block_rows(0)`` points is read alone, in blocks of
    :func:`_block_rows` of its rows against its own points; smaller sets are
    read whole, as many as the row cap holds, against their own points
    together, with the entries between two of them set to 0.  Each row's
    maximum goes to its set's with ``np.maximum.reduceat``.
    """
    sets = [np.asarray(s, dtype=np.intp) for s in sets]
    sizes = np.array([len(s) for s in sets], dtype=np.intp)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    points = np.concatenate([np.empty(0, np.intp)] + sets)
    owner = np.repeat(np.arange(len(sets)), sizes)
    cap = _block_rows(0)
    row_max = np.empty(len(points))
    lo = 0
    while lo < len(points):
        s = owner[lo]
        if sizes[s] > cap:
            c0, c1 = starts[s], ends[s]
            hi = min(c1, lo + _block_rows(c1 - c0))
        else:  # lo starts set s, which the block holds whole
            c0 = lo
            c1 = hi = ends[np.searchsorted(ends, lo + cap, "right") - 1]
        sub = space.dist_block(points[lo:hi], points[c0:c1])
        if owner[c0] != owner[c1 - 1]:
            sub[owner[lo:hi, None] != owner[c0:c1]] = 0
        row_max[lo:hi] = sub.max(axis=1)
        del sub  # before the next block is read
        lo = hi
    diameters = np.zeros(len(sets))
    if len(points):
        diameters[sizes > 0] = np.maximum.reduceat(row_max, starts[sizes > 0])
    return diameters


def _near_members(space: FiniteMetricSpace, points, radius: float, position_of):
    """Ascending positions of the members among the ``candidates`` of
    ``points`` at ``radius`` (a superset of the members within ``radius``),
    where ``position_of`` maps a point to its member position or -1."""
    positions = position_of[space.candidates(points, radius)]
    return np.sort(positions[positions >= 0])


def _sweep_order(space: FiniteMetricSpace, points) -> np.ndarray:
    """Positions into ``points`` by first coordinate on a :class:`CoordSpace`
    (stable), as given elsewhere: the order blocked passes read points in."""
    return (np.argsort(space.coords[points, 0], kind="stable")
            if isinstance(space, CoordSpace) else np.arange(len(points)))


def _near_blocks(space: FiniteMetricSpace, rows, radius: float, position_of):
    """Yield ``(lo, hi, near)`` over ``rows`` in the order given: the block
    ``rows[lo:hi]`` and the :func:`_near_members` of it at ``radius``.

    A block holds the :func:`_block_rows` of its ``near``: the row cap, cut
    to fewer rows where ``near`` is wide.  ``position_of`` is read as each
    block is reached, so a caller may add members between blocks.
    """
    lo = 0
    while lo < len(rows):
        hi = min(lo + _block_rows(0), len(rows))
        near = _near_members(space, rows[lo:hi], radius, position_of)
        step = _block_rows(len(near))
        if hi - lo > step:  # a subset's candidates are a subset
            hi = lo + step
            near = _near_members(space, rows[lo:hi], radius, position_of)
        yield lo, hi, near
        lo = hi


def _ball_blocks(space: FiniteMetricSpace, centers, r: float):
    """Yield the open ``r``-balls of ``centers`` block by block, as CSR
    ``(positions, ids, starts)``: ``ids[starts[k]:starts[k + 1]]`` is the
    sorted ball of ``centers[positions[k]]``.

    The centers are taken in the blocked passes' order.  On a
    :class:`CoordSpace` they split into runs wherever two consecutive first
    coordinates differ by more than ``2 * r``, where the balls on either side
    share no point; the blocks are those of :func:`_near_blocks` over each
    run, with every point a member, so a block's candidates form one narrow
    slab and a center far from the others reads only its own.  Centers no
    farther apart than ``2 * r`` keep one run and the blocks of one pass."""
    centers = np.asarray(centers, dtype=np.intp)
    order = _sweep_order(space, centers)
    rows = centers[order]
    cuts = [0, len(rows)]
    if isinstance(space, CoordSpace):
        gaps = np.nonzero(np.diff(space.coords[rows, 0]) > 2 * r)[0] + 1
        cuts = np.concatenate([[0], gaps, [len(rows)]])
    every = np.arange(space.n)
    for a, b in zip(cuts[:-1], cuts[1:]):
        for lo, hi, near in _near_blocks(space, rows[a:b], r, every):
            within = space.dist_block(rows[a + lo:a + hi], near) < r
            starts = np.zeros(hi - lo + 1, dtype=np.intp)
            np.cumsum(within.sum(axis=1), out=starts[1:])
            yield order[a + lo:a + hi], near[np.nonzero(within)[1]], starts


def _check_center(space: FiniteMetricSpace, center):
    """Refuse a center that is no point id 0..n-1: a negative id would wrap, a
    fractional or a bool one be truncated."""
    if isinstance(center, bool) or not (0 <= center < space.n and center == int(center)):
        raise ValueError(f"center must be a point id in 0..{space.n - 1}, got {center}")


def _balls(space: FiniteMetricSpace, centers, r: float) -> list:
    """The sorted open ``r``-balls of ``centers``, in center order, holding at
    most ``_APSP_MAX_POINTS ** 2`` ids: the entries of the largest matrix."""
    out = [None] * len(centers)
    held = 0
    for positions, ids, starts in _ball_blocks(space, centers, r):
        held += len(ids)
        if held > _APSP_MAX_POINTS ** 2:
            raise ValueError(f"balls holding more than {_APSP_MAX_POINTS ** 2} point ids exceed "
                             f"the ball guard (the entries of a {_APSP_MAX_POINTS}-point matrix)")
        for k, p in enumerate(positions):
            out[p] = ids[starts[k]:starts[k + 1]]
    return out


class MeasuredSpace:
    """A finite metric space together with a finite, strictly positive point mass."""

    def __init__(self, base: FiniteMetricSpace, mass):
        mass = np.asarray(mass, dtype=float)
        if mass.shape != (base.n,):
            raise ValueError("mass must have one entry per point")
        if not (np.isfinite(mass) & (mass > 0)).all():
            raise ValueError("every point mass must be finite and strictly positive")
        self.base = base
        self.mass = mass

    @classmethod
    def uniform(cls, base: FiniteMetricSpace) -> "MeasuredSpace":
        return cls(base, np.ones(base.n))


# ---------------------------------------------------------------------------
# Heisenberg group ball
# ---------------------------------------------------------------------------

_HEIS_GENERATORS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
_HEIS_MAX_RADIUS = 16  # ball size grows like radius**4
_HEIS_ABSENT = 255  # word-length table entry of a key that packs no table element


class HeisenbergBall(FiniteMetricSpace):
    """Word-metric ball in the discrete Heisenberg group.

    Elements are integer triples (a, b, c) composed by
    ``(a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b')``; the two off-diagonal
    unipotent generators and their inverses generate.  The space consists of
    all elements of word length <= ``radius`` in BFS order, and distances are
    the *group* word metric restricted to the ball: ``d(g, h)`` is the word
    length of ``g^-1 h``, read from a dense ``uint8`` table that covers word
    length ``2*radius``, so no pair ever falls outside it.  The table is
    indexed by a packed key of the triple (255 marks keys that are no group
    element of that length) and holds ``(2s**2 + 1) * (2s + 1)**2`` bytes for
    ``s = 2*radius``: 0.56 MB at radius 8, 8.7 MB at the radius-16 guard.
    A block frees its int64 keys before converting its lengths to float.
    """

    def __init__(self, radius: int):
        radius = int(radius)
        if radius < 1:
            raise ValueError("radius must be >= 1")
        if radius > _HEIS_MAX_RADIUS:
            raise ValueError(f"radius {radius} exceeds the memory guard {_HEIS_MAX_RADIUS}")
        self._span = s = 2 * radius
        base = 2 * s + 1
        self._table = np.full((2 * s * s + 1) * base * base, _HEIS_ABSENT, dtype=np.uint8)
        # one BFS to word length s fills the table; its first radius + 1
        # levels are the ball
        levels = [np.zeros((1, 3), dtype=np.int64)]
        self._table[self._pack(levels[0])] = 0
        for d in range(1, s + 1):
            a, b, c = levels[-1].T  # right products g * (x, y, 0) = (a + x, b + y, c + a*y)
            products = np.concatenate([np.stack([a + x, b + y, c + a * y], axis=1)
                                       for x, y, _ in _HEIS_GENERATORS])
            keys = self._pack(products)
            new = self._table[keys] == _HEIS_ABSENT
            keys, first = np.unique(keys[new], return_index=True)
            levels.append(products[new][first])
            self._table[keys] = d
        triples = np.concatenate(levels[:radius + 1])
        lengths = np.repeat(np.arange(radius + 1), [len(level) for level in levels[:radius + 1]])
        ball = np.lexsort((*triples.T[::-1], lengths))  # by (word length, a, b, c)
        super().__init__(len(ball), f"heis:{radius}")
        self.radius = radius
        self.elements = triples[ball]
        self.word_lengths = lengths[ball]
        counts = np.bincount(self.word_lengths, minlength=radius + 1)
        #: ball_sizes[k] = number of elements of word length <= k
        self.ball_sizes = np.cumsum(counts).tolist()

        # _pack(g_i^-1 g_j) = _row_key[i] + _col_key[j] - _row_cross[i] * b_j, with
        # g_i^-1 = (-a_i, -b_i, a_i*b_i - c_i) and the product expanded
        a, b, c = self.elements.T
        self._row_key = self._pack(np.stack([-a, -b, a * b - c], axis=1))
        self._col_key = (c * base + b) * base + a
        self._row_cross = a * base * base

    def _pack(self, triples):
        # injective packing for |a|,|b| <= span and |c| <= span**2
        s = self._span
        base_ab = 2 * s + 1
        a = triples[..., 0] + s
        b = triples[..., 1] + s
        c = triples[..., 2] + s * s
        return (c * base_ab + b) * base_ab + a

    def dist_block(self, rows, cols=None):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.arange(self.n) if cols is None else np.asarray(cols, dtype=np.intp)
        key = np.multiply.outer(-self._row_cross[rows], self.elements[cols, 1])
        key += self._row_key[rows, None]
        key += self._col_key[cols]
        lengths = self._table.take(key)
        del key
        if (lengths == _HEIS_ABSENT).any():
            raise IndexError("queried element outside the word-length table")
        return lengths.astype(float)


# ---------------------------------------------------------------------------
# Fixture generators
# ---------------------------------------------------------------------------


def integer_segment(n: int) -> CoordSpace:
    """The integer points 0..n on a line (n+1 points)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return CoordSpace(np.arange(n + 1, dtype=float)[:, None], "l1", f"segment:{n}")


def grid_2d(w: int, h: int, metric: str = "l2") -> CoordSpace:
    """A w x h integer grid under the given norm."""
    if w < 1 or h < 1:
        raise ValueError("grid sides must be >= 1")
    xs, ys = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float), indexing="ij")
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    return CoordSpace(coords, metric, f"grid:{w}x{h}:{metric}")


def euclidean_cloud(n: int, dim: int, seed: int = 0, scale: float = 1.0) -> CoordSpace:
    """n uniform random points in [0, scale]^dim with l2 distances.

    Distances are rounded to 12 decimal digits so identical seeds reproduce
    identical spaces everywhere.
    """
    if n < 1 or dim < 1:
        raise ValueError("need n >= 1 and dim >= 1")
    rng = np.random.default_rng(seed)
    coords = rng.random((n, dim)) * scale
    return CoordSpace(coords, "l2", f"cloud:{n}:{dim}:seed={seed}", round_digits=12)


def balanced_tree(branching: int, depth: int) -> MatrixSpace:
    """Complete rooted tree with the graph (hop-count) metric."""
    if branching < 1 or depth < 0:
        raise ValueError("need branching >= 1 and depth >= 0")
    n = depth + 1 if branching == 1 else (branching ** (depth + 1) - 1) // (branching - 1)
    if n > _APSP_MAX_POINTS:
        raise ValueError(f"tree with {n} nodes exceeds the {_APSP_MAX_POINTS}-point guard")
    # level-order ids: the children of v are branching * v + 1, ..., branching * (v + 1)
    depth_of = np.repeat(np.arange(depth + 1), [branching ** k for k in range(depth + 1)])
    lca_depth = np.full((n, n), -1, dtype=np.int64)
    up = np.arange(n)  # each node's ancestor at depth min(k, its depth)
    for k in range(depth, -1, -1):
        # the LCA depth is the number of levels on which ancestors agree, less one
        row = np.where(depth_of >= k, up, -1)
        lca_depth += (row[:, None] == row[None, :]) & (row[:, None] >= 0)
        up = np.where(depth_of >= k, np.maximum(up - 1, 0) // branching, up)
    mat = (depth_of[:, None] + depth_of[None, :] - 2 * lca_depth).astype(float)
    return _matrix_space(mat, f"tree:{branching}:{depth}")


def heisenberg_ball(radius: int) -> HeisenbergBall:
    """BFS ball of the given radius in the discrete Heisenberg group."""
    return HeisenbergBall(radius)


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------


def load_points(path, metric: str = "l2") -> CoordSpace:
    """Read a point cloud: one point per line, whitespace-separated coordinates."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.split()])
            except ValueError:
                raise ValueError(f"bad point line: {line!r}") from None
    if not rows:
        raise ValueError(f"no points in {path}")
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ValueError("inconsistent coordinate count across lines")
    coords = np.asarray(rows)
    if not np.isfinite(coords).all():
        raise ValueError(f"non-finite coordinate in {path}")
    return CoordSpace(coords, metric, f"points:{path}")


def load_edge_list(path) -> MatrixSpace:
    """Read a graph as ``u v [w]`` lines and return its shortest-path metric.

    Vertex ids are 0-based; the optional weight must be positive and defaults
    to 1.  The graph must be connected, otherwise the shortest-path "metric"
    would take infinite values.
    """
    adj = defaultdict(list)
    nmax = -1
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"bad edge line: {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ValueError(f"bad edge line: {line!r}") from None
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex id in edge line: {line!r}")
            if not 0 < w < np.inf:
                raise ValueError(f"edge weights must be positive and finite: {line!r}")
            adj[u].append((v, w))
            adj[v].append((u, w))
            nmax = max(nmax, u, v)
    n = nmax + 1
    if n < 1:
        raise ValueError(f"no edges in {path}")
    if n > _APSP_MAX_POINTS:
        raise ValueError(f"graph with {n} vertices exceeds the {_APSP_MAX_POINTS}-point guard")
    mat = np.full((n, n), np.inf)
    for s in range(n):  # Dijkstra; unit weights sum exactly, so a BFS would agree
        dist = mat[s]
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    if np.isinf(mat).any():
        raise ValueError("graph is disconnected; shortest-path metric undefined")
    return _matrix_space(mat, f"edges:{path}")


def _spec_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def parse_fixture(spec: str) -> FiniteMetricSpace:
    """Build a fixture from a spec string.

    Recognized forms::

        segment:1000
        grid:200x200:linf      (metric optional, default l2)
        heis:12
        cloud:500:2:seed=7     (seed optional, default 0)
        tree:3:6
        points:PATH:linf       (a load_points file; metric optional, default l2)
        edges:PATH             (a load_edge_list file)
    """
    kind, _, path = spec.strip().partition(":")
    if kind == "points":
        head, _, metric = path.rpartition(":")
        return load_points(head, metric) if metric in ("l1", "l2", "linf") else load_points(path)
    if kind == "edges":
        return load_edge_list(path)
    parts = spec.strip().split(":")
    try:
        if kind == "segment" and len(parts) == 2:
            return integer_segment(_spec_int(parts[1], "segment length"))
        if kind == "grid" and len(parts) in (2, 3):
            size = parts[1].lower().split("x")
            if len(size) != 2:
                raise ValueError(f"grid size must be WxH, got {parts[1]!r}")
            return grid_2d(_spec_int(size[0], "grid width"), _spec_int(size[1], "grid height"),
                           parts[2] if len(parts) == 3 else "l2")
        if kind == "heis" and len(parts) == 2:
            return heisenberg_ball(_spec_int(parts[1], "heis radius"))
        if kind == "cloud" and len(parts) in (3, 4):
            seed = parts[3] if len(parts) == 4 else "seed=0"
            if not seed.startswith("seed="):
                raise ValueError(f"expected seed=N, got {seed!r}")
            return euclidean_cloud(_spec_int(parts[1], "cloud size"),
                                   _spec_int(parts[2], "cloud dimension"),
                                   _spec_int(seed[5:], "cloud seed"))
        if kind == "tree" and len(parts) == 3:
            return balanced_tree(_spec_int(parts[1], "tree branching"),
                                 _spec_int(parts[2], "tree depth"))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad fixture spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown fixture spec {spec!r}")


# ---------------------------------------------------------------------------
# Metric validation
# ---------------------------------------------------------------------------


def validate_metric(space: FiniteMetricSpace, seed: int = 0, exhaustive_limit: int = 300,
                    samples: int = 100_000) -> None:
    """Check the metric axioms, raising :class:`MetricError` on violation.

    For ``n <= exhaustive_limit`` every axiom is checked on ``distance_matrix``,
    finite non-negative entries first; the triangle inequality allows a slack
    of 1e-9 relative to the largest distance, as square-root metrics land
    within a unit in the last place of collinear equality.  It is checked
    through each point i in row chunks of :func:`_block_rows`, so it holds
    one chunk of slacks beside the matrix, and names the first failing
    ``(j, k)`` of the first failing i.

    Otherwise ``samples`` random triples ``(i, j, k)`` are drawn and each is
    checked for finite, non-negative ``d(i,j), d(j,i), d(i,i), d(j,k),
    d(i,k)``, then ``d(i,j) == d(j,i)``, then ``d(i,i) == 0``, then
    ``d(j,k) <= d(i,j) + d(i,k) + 1e-9 * max(1, d(i,j))``.  A chunk of a
    third of the block row cap (41) triples reads its distinct points as one
    block.  The error names the first failing triple in sample order and the
    first check it fails, as a triple-by-triple loop would.
    """
    n = space.n
    if n <= exhaustive_limit:
        mat = space.distance_matrix()
        if not np.isfinite(mat).all():
            raise MetricError("non-finite distance")
        if (mat < 0).any():
            raise MetricError("negative distance")
        if not np.allclose(np.diag(mat), 0.0, atol=0.0):
            raise MetricError("nonzero diagonal")
        if not (mat == mat.T).all():
            raise MetricError("asymmetric distances")
        tol = 1e-9 * max(1.0, float(mat.max()))
        step = _block_rows(n)
        for i in range(n):
            for lo in range(0, n, step):
                slack = mat[i][None, :] + mat[i, lo:lo + step, None] - mat[lo:lo + step]
                if (slack < -tol).any():
                    j, k = np.argwhere(slack < -tol)[0]
                    raise MetricError(f"triangle inequality fails: "
                                      f"d({lo + j},{k}) > d({lo + j},{i}) + d({i},{k})")
        return
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(samples, 3))
    step = max(1, _block_rows(0) // 3)  # a chunk touches <= 3*step points
    for start in range(0, samples, step):
        triples = idx[start:start + step]
        ids, pos = np.unique(triples, return_inverse=True)
        p = pos.reshape(triples.shape).T  # positions in ids of i, j and k
        read = space.dist_block(ids, ids)[p[[0, 1, 0, 1, 0]], p[[1, 0, 0, 2, 2]]]
        dij, dji, dii, djk, dik = read
        invalid = ~(np.isfinite(read) & (read >= 0)).all(axis=0)
        asymmetric = dij != dji
        self_dist = dii != 0.0
        with np.errstate(invalid="ignore"):  # inf + -inf only on a triple already invalid
            triangle = djk > dij + dik + 1e-9 * np.maximum(1.0, dij)
        failed = invalid | asymmetric | self_dist | triangle
        if failed.any():
            t = int(np.argmax(failed))
            i, j, k = triples[t]
            if invalid[t]:
                raise MetricError(f"negative or non-finite distance on triple ({i},{j},{k})")
            if asymmetric[t]:
                raise MetricError(f"asymmetric: d({i},{j}) != d({j},{i})")
            if self_dist[t]:
                raise MetricError(f"nonzero self distance at {i}")
            raise MetricError(f"triangle inequality fails on triple ({j},{i},{k})")

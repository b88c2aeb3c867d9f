"""Greedy coloring and randomized ball carving.

The carving stage turns a net, a proper coloring of its band graph and one
radius per member into a partition of the whole space.  One owner rule makes
every assignment, here and in the resampler: a point joins the lowest-color
ball that covers it.  A point covered by no ball, or by two balls of that
color, raises :class:`CarveError`.  Radii of at least the covering radius
rule out the first case, and properness of the coloring on the band graph up
to twice the radius cap rules out the second, so the rule reproduces the
classical inductive peel-off (color class 0 claims its balls, class 1 claims
what is left, and so on) without quadratic set differences.

The rule reads an owner table, which only :func:`_owner_table` builds: row
p lists the members within the radius cap M of point p (no other ball can
cover it) in color order, padded with infinite distance, so the owner of p
is the first covering entry of its row.  That entry usually sits in the
first few columns, so the scan reads rows in place in column chunks that
double in width and drops each row at its first covering chunk.
:func:`carve` scans every row; the resampler passes the ids of the rows a
redraw can move.  The table is read in the row blocks of
``spaces._near_blocks``, each against the members near it within M, once to
fix the widest row and once to fill the rows in place, so building it holds
the n x width table and one block.  An entry takes 12 bytes, a float64
distance and an ``int32`` member position: positions are below |net| <= n
<= n x width, which the guard bounds at 50M before the table exists.

A probe ball is *cut* by a layer when it meets two distinct clusters; the
Monte Carlo harness estimates cut frequencies over i.i.d. radius draws
without materializing whole partitions, using the equivalent first-touching
ball rule (the lowest-color ball meeting the probe either swallows it, and
the probe is intact, or it does not, and the probe is cut).  A probe's
candidate members are sorted by color as each chunk of trials reaches it,
and each trial scans them in the same widening column chunks as the owner
rule until the first touching ball; the probe is intact iff a ball of that
color run, from there to the run's end, swallows it.  Only the probe being
evaluated holds its set-up, so the harness holds one per thread beside the
radii of a chunk (one block of ``spaces._block_rows`` trials against the
members), at the price of one set-up per probe per chunk.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import spaces
from .decomposition import _number, _point_ids
from .nets import Net, NetGraph, net_graph
from .spaces import _balls, _dist_blocks, _near_members

__all__ = [
    "Coloring",
    "RadiusAssignment",
    "PartitionLayer",
    "CarveError",
    "greedy_color",
    "carve",
    "is_cut",
    "cut_probability_mc",
    "CutProbeResult",
    "draw_radii",
]

class CarveError(RuntimeError):
    """The carving preconditions were violated mid-flight."""


@dataclass(frozen=True)
class Coloring:
    """Proper coloring of a net graph; colors indexed by member position."""

    graph: NetGraph
    colors: np.ndarray
    num_colors: int

    def __post_init__(self):
        if self.num_colors > self.graph.max_degree + 1:
            raise AssertionError("greedy coloring exceeded max degree + 1 colors")


def greedy_color(graph: NetGraph) -> Coloring:
    """Color vertices in index order with the least color unused on earlier
    neighbors.  Proper by construction and uses at most max_degree + 1 colors.

    These are the colors the graph's own triangular pass computed.
    """
    colors = graph._colors
    return Coloring(graph, colors, int(colors.max()) + 1 if len(colors) else 0)


@dataclass(frozen=True)
class RadiusAssignment:
    """One carving radius per net member, truncated to [l, M]."""

    t: np.ndarray
    l: float
    M: float

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        if not (0 < self.l < self.M):
            raise ValueError("need 0 < l < M")
        if len(t) and not ((t >= self.l) & (t <= self.M)).all():
            raise ValueError("all radii must lie in [l, M]")


class PartitionLayer:
    """One carving output: a total assignment of points to clusters.

    Clusters are keyed by their center (a net member); ids are ordinals in
    increasing center order, so identical partitions always carry identical
    ids.  Instances are immutable once built.
    """

    def __init__(self, net: Net, member_of_point: np.ndarray):
        used, inverse = np.unique(np.asarray(member_of_point), return_inverse=True)
        self.net, self.space = net, net.space
        self.center_positions = used            # positions into net.members
        self.centers = net.members[used]        # space point ids of cluster centers
        self.cluster_of = inverse.astype(np.int64)

    @property
    def num_clusters(self) -> int:
        return len(self.centers)

    def cluster_sets(self) -> list:
        order = np.argsort(self.cluster_of, kind="stable")
        bounds = np.searchsorted(self.cluster_of[order], np.arange(self.num_clusters + 1))
        return [order[bounds[k]:bounds[k + 1]] for k in range(self.num_clusters)]

    def write_csv(self, path) -> None:
        """Rows of ``point_id,cluster_id,center_id``."""
        with open(path, "w") as fh:
            fh.write("point_id,cluster_id,center_id\n")
            for p in range(self.space.n):
                cid = int(self.cluster_of[p])
                fh.write(f"{p},{cid},{int(self.centers[cid])}\n")


_OWNER_TABLE_GUARD = 50_000_000  # largest n * width: the entries of the table


def _owner_blocks(net: Net, colors, M):
    """Yield ``(rows, cols, sub)`` over every point of the net's space: a
    block ``rows`` of point ids, the positions ``cols`` of the members near it
    within ``M`` in (color, position) order, and their distances.  The blocks
    are those of ``spaces._near_blocks`` over the points in the blocked
    passes' order (first coordinate on a :class:`CoordSpace`), so a block's
    candidates form one narrow slab."""
    space = net.space
    order = spaces._sweep_order(space, np.arange(space.n))
    for lo, hi, near in spaces._near_blocks(space, order, M, net.position_of):
        cols = near[np.argsort(colors[near], kind="stable")]
        yield order[lo:hi], cols, space.dist_block(order[lo:hi], net.members[cols])


def _owner_table(net: Net, colors, M):
    """Owner table of every point under the radius cap ``M``, in two passes
    over :func:`_owner_blocks`: one fixes the width, one fills the table.

    Returns ``(table, dists, tie_rows)``: row p holds the ``int32``
    positions of the members within ``M`` of point p in (color, position)
    order and their distances, padded with infinite distance to the widest
    row.
    ``tie_rows`` flags the rows holding two members of one color, the only
    points that two same-color balls can cover.  ``_OWNER_TABLE_GUARD``
    bounds n * width before the table is allocated; the passes hold one
    block at a time, so the peak is the table and one block.
    """
    space, width = net.space, 1
    for _, _, sub in _owner_blocks(net, colors, M):
        width = max(width, int((sub < M).sum(axis=1).max(initial=0)))
    if space.n * width > _OWNER_TABLE_GUARD:
        raise ValueError(f"an owner table of {space.n} x {width} entries exceeds "
                         f"the owner table guard ({_OWNER_TABLE_GUARD})")
    table = np.empty((space.n, width), dtype=np.int32)
    dists = np.empty((space.n, width))
    tie_rows = np.empty(space.n, dtype=bool)
    for rows, cols, sub in _owner_blocks(net, colors, M):
        within = sub < M
        slots = np.arange(width) < within.sum(axis=1)[:, None]
        block = np.zeros(slots.shape, dtype=np.int32)
        block[slots] = np.broadcast_to(cols, within.shape)[within]
        table[rows] = block
        block_dists = np.full(slots.shape, np.inf)
        block_dists[slots] = sub[within]
        dists[rows] = block_dists
        block_colors = colors[block]
        tie_rows[rows] = ((block_colors[:, 1:] == block_colors[:, :-1])
                          & slots[:, 1:]).any(axis=1)
    return table, dists, tie_rows


_FIRST_CHUNK = 16  # columns in the first chunk of the owner and probe scans


def _first_hit(n_rows, width, test, message):
    """Column of the first true entry of each row of a ``n_rows`` x ``width``
    predicate, read in column chunks that double in width.

    ``test(pending, lo, hi)`` gives the predicate of the rows ``pending`` on
    the columns ``[lo, hi)``; a row leaves the scan at the first chunk holding
    a true entry.  Rows with no true entry raise :class:`CarveError` with
    ``message``.
    """
    first = np.empty(n_rows, dtype=np.intp)
    pending = np.arange(n_rows)
    lo, hi = 0, min(_FIRST_CHUNK, width)
    while len(pending) and lo < width:
        hits = test(pending, lo, hi)
        hit = hits.any(axis=1)
        first[pending[hit]] = lo + hits[hit].argmax(axis=1)
        pending = pending[~hit]
        lo, hi = hi, min(hi + 2 * (hi - lo), width)
    if len(pending):
        raise CarveError(message)
    return first


def _first_cover(members, dists, tie_rows, colors, t, rows=None):
    """Owner of the point behind each selected owner-table row under radii
    ``t``: the member position of the row's first covering entry.

    ``rows`` picks table rows (default: every row, in order; repeats and any
    order are allowed).  The rows are read in place, in column chunks that
    double in width, and a row leaves the scan at the first chunk holding a
    covering entry, so a cover near the front of a row costs one short read.
    Rows still pending after the last column are covered by no ball.  The
    same-color check reads full rows, but only those ``tie_rows`` flags.
    """
    rows = np.arange(len(members)) if rows is None else np.asarray(rows, dtype=np.intp)

    def covered(pending, lo, hi):
        r = rows[pending]
        return dists[r, lo:hi] < t[members[r, lo:hi]]

    first = _first_hit(len(rows), members.shape[1], covered,
                       "a point is covered by no ball; radii violate the "
                       "coverage precondition l >= covering radius")
    tied = np.nonzero(tie_rows[rows])[0]
    tied_rows = rows[tied]
    best = colors[members[tied_rows, first[tied]]]
    same = ((dists[tied_rows] < t[members[tied_rows]])
            & (colors[members[tied_rows]] == best[:, None]))
    if (same.sum(axis=1) > 1).any():
        raise CarveError("two same-color centers cover one point; the coloring "
                         "is not proper for the doubled radius band")
    return members[rows, first]


def carve(coloring: Coloring, radii: RadiusAssignment) -> PartitionLayer:
    """Assign every point to the lowest-color ball of ``coloring.graph.net`` covering it.

    Preconditions checked: a nonempty net and ``radii.l >= net.eps`` (so
    every point is covered), and a coloring band reaching ``2 * radii.M`` (so
    same-color centers sit more than two radius caps apart).
    """
    net = coloring.graph.net
    if radii.l < net.eps:
        raise ValueError(f"need radii.l >= net.eps for coverage, got l={radii.l} < eps={net.eps}")
    if not coloring.graph.band_high >= 2 * radii.M:
        raise ValueError(f"coloring band reaches {coloring.graph.band_high}, "
                         f"carving needs at least {2 * radii.M}")
    if len(radii.t) != len(net.members):
        raise ValueError("one radius per net member required")
    if not len(net.members):
        raise ValueError("an empty net covers no point")
    table = _owner_table(net, coloring.colors, radii.M)
    return PartitionLayer(net, _first_cover(*table, coloring.colors, radii.t))


def is_cut(layer: PartitionLayer, center: int, r: float) -> bool:
    """True iff the open ball B_r(center) meets two distinct clusters."""
    if not r > 0:
        raise ValueError("r must be positive")
    ids = layer.cluster_of[layer.space.ball(int(center), r)]
    return bool(len(np.unique(ids)) >= 2)


def draw_radii(law, net: Net, seed: int, trial: int) -> RadiusAssignment:
    """Radii for one Monte Carlo trial: one vectorized ``law.sample`` draw (the
    one drawing path, also the resampler's) from the per-trial stream
    ``default_rng([seed, trial])``, so runs reproduce exactly."""
    rng = np.random.default_rng([seed, trial])
    return RadiusAssignment(law.sample(rng, len(net.members)), *law.window)


@dataclass
class CutProbeResult:
    """Per-center and aggregate cut frequencies with binomial standard errors."""

    centers: np.ndarray
    trials: int
    probe_radius: float
    per_center_freq: np.ndarray
    per_center_se: np.ndarray
    aggregate_freq: float
    aggregate_se: float
    cut_matrix: np.ndarray = field(repr=False)  # trials x centers booleans


def _probe_cuts(cand, dmin, dmax, ends, radii):
    """Whether one probe is cut under each row of ``radii`` (trials x members).

    ``cand`` holds the probe's candidate members sorted by (color, position),
    ``dmin``/``dmax`` their nearest/farthest distance to the probe ball and
    ``ends[k]`` the end of column k's color run.  Each row is scanned in
    column chunks that double in width up to its first touching ball
    (``t > dmin``); the probe is intact iff a ball from there to the end of
    that color run swallows it (``t > dmax``; the balls before it in the run
    touch nothing).  A row touched by no ball raises :class:`CarveError`.
    """
    first = _first_hit(len(radii), len(cand),
                       lambda pending, lo, hi: radii[pending[:, None], cand[lo:hi]] > dmin[lo:hi],
                       "probe ball touched by no ball despite coverage")
    intact = np.zeros(len(radii), dtype=bool)
    rows, cols = np.arange(len(radii)), first
    while len(rows):
        intact[rows] = radii[rows, cand[cols]] > dmax[cols]
        more = ~intact[rows] & (cols + 1 < ends[cols])
        rows, cols = rows[more], cols[more] + 1
    return ~intact


def _probe_setup(net: Net, colors, M, ball):
    """The :func:`_probe_cuts` arguments of one probe ball but the radii: the
    members able to touch it at all (those within ``M`` of it among
    ``space.candidates``, the only ones read) in (color, position) order,
    their nearest and farthest distance to the ball (a running min/max over
    its row blocks) and the ends of their color runs."""
    near = _near_members(net.space, ball, M, net.position_of)
    dmin = np.full(len(near), np.inf)
    dmax = np.full(len(near), -np.inf)
    for _, sub in _dist_blocks(net.space, ball, net.members[near]):
        np.minimum(dmin, sub.min(axis=0), out=dmin)
        np.maximum(dmax, sub.max(axis=0), out=dmax)
    keep = np.nonzero(dmin < M)[0]
    keep = keep[np.argsort(colors[near[keep]], kind="stable")]
    run_colors = colors[near[keep]]
    return (near[keep], dmin[keep], dmax[keep],
            np.searchsorted(run_colors, run_colors, side="right"))


def cut_probability_mc(net: Net, law, probe_radius: float, centers, trials: int, seed: int,
                       threads: int = 1) -> CutProbeResult:
    """Monte Carlo cut frequencies of probe balls under i.i.d. carving radii.

    Each trial draws one radius per net member in the law's window [l, M]
    (see :func:`draw_radii`), carves, and tests whether each probe ball meets
    two clusters.  The carve is evaluated lazily through the first-touching-ball
    rule, which agrees with carving the full layer (the test suite checks this
    against a literal inductive implementation).  Deterministic given
    ``seed``; ``threads > 1`` spreads the probe centers of each chunk of
    trials over a thread pool without changing any result.

    Trials run in chunks of ``spaces._block_rows`` trials against the net's
    members: at most 125 trials and ``_BLOCK_ENTRIES`` radii.  Each probe's
    set-up (:func:`_probe_setup`) is built when a chunk evaluates it and
    dropped after, so memory holds the radii buffer and one set-up per
    thread, whatever the number of probes.  A run of several chunks builds
    every set-up once per chunk: C3 (``segment:50000``, 100 probes, 200
    trials in chunks of 79) spends about 0.2 s on each of its two extra
    chunks.
    """
    trials = _number(trials, "trials", "an integer >= 1", integer=True, low=1)
    if not len(net.members):
        raise ValueError("an empty net covers no point")
    if not probe_radius > 0:
        raise ValueError("probe_radius must be positive")
    l, M = law.window
    if l < net.eps:
        raise ValueError(f"need l >= net.eps for coverage, got l={l} < eps={net.eps}")
    centers = _point_ids(centers, net.space.n)
    if len(centers) == 0:
        raise ValueError("need at least one probe center")
    colors = greedy_color(net_graph(net, 2 * M)).colors
    balls = _balls(net.space, centers, probe_radius)
    cut = np.zeros((trials, len(centers)), dtype=bool)

    def eval_probe(j, radii_chunk, rows):
        cut[rows, j] = _probe_cuts(*_probe_setup(net, colors, M, balls[j]), radii_chunk)

    # Radii are drawn per trial (stream [seed, trial]) into the rows of one
    # buffer and evaluated for all trials of a chunk at once; threads split
    # the probe loop over one pool, which starts no thread unless threads > 1.
    chunk = min(trials, spaces._block_rows(len(net.members)))
    buffer = np.empty((chunk, len(net.members)))
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        run = pool.map if threads > 1 else map
        for start in range(0, trials, chunk):
            ks = range(start, min(start + chunk, trials))
            radii_chunk = buffer[:len(ks)]
            for row, k in zip(radii_chunk, ks):
                row[:] = draw_radii(law, net, seed, k).t
            rows = np.arange(ks.start, ks.stop)
            list(run(lambda j: eval_probe(j, radii_chunk, rows), range(len(centers))))

    per_freq = cut.mean(axis=0)
    per_se = np.sqrt(per_freq * (1 - per_freq) / trials)
    agg = float(cut.mean())
    agg_se = float(np.sqrt(agg * (1 - agg) / cut.size))
    return CutProbeResult(centers, trials, float(probe_radius), per_freq, per_se,
                          agg, agg_se, cut)

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

The rule reads an owner table, which only :func:`_owner_table` builds: row p
lists the members within the radius cap M of point p (no other ball can
cover it) in (color, position) order, so the owner of p is the first
covering entry of its row.  Every radius is at least l, and l at least the
covering radius, so a member within l of p covers it under every draw: the
first one in the row is p's *sure cover*.  The owner's color is at most the
sure cover's, so the row ends with the sure cover's color run, and nothing
after it can own p or share the owner's color.  The rows are ragged and
stored back to back, and each is read as a window of the longest row's width
from its start; a window reads past its row's end only when the row holds no
covering entry.  The first covering entry usually sits in the first few
columns, so the scan reads windows in column chunks that double in width and
drops each row at its first covering chunk, then walks on through the
owner's color run for a second cover (one step on a proper coloring).
:func:`carve` scans every row; the resampler passes the ids of the rows a
redraw can move.  The table is read in the row blocks of
``spaces._near_blocks``, each against the members near it within M, once to
size the rows and pick the element types, and once to fill them in place;
each pass drops a block before it reads the next, so building it holds the
table and one block.  A member position takes 2 bytes below 2**15 members
and 4 above.  Where every kept distance is a whole number (segments, l1 and
linf grids, trees, unweighted graphs, Heisenberg balls), a distance takes
1 or 2 bytes, an unsigned integer whose largest value exceeds M and pads the
table; elsewhere it takes a float64, padded with infinity.  The guard bounds
the kept entries at 50M before the table exists.

A probe ball is *cut* by a layer when it meets two distinct clusters; the
Monte Carlo harness estimates cut frequencies over i.i.d. radius draws
without materializing whole partitions, using the equivalent first-touching
ball rule (the lowest-color ball meeting the probe either swallows it, and
the probe is intact, or it does not, and the probe is cut).  A probe's
candidate members are sorted by color as each chunk of trials reaches it,
and each trial scans them in the same widening column chunks as the owner
rule until the first touching ball; the probe is intact iff a ball of that
color run, from there to the run's end, swallows it.  Only the probe being
evaluated holds its set-up, so the harness holds one beside the radii of a
chunk (one block of ``spaces._block_rows`` trials against the members), at
the price of one set-up per probe per chunk.
"""

from __future__ import annotations

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


_OWNER_TABLE_GUARD = 50_000_000  # largest number of kept entries of the table


def _owner_blocks(net: Net, colors, l, M):
    """Yield ``(rows, cols, sub, kept)`` over every point of the net's space:
    a block ``rows`` of point ids, the positions ``cols`` of the members near
    it within ``M`` in (color, position) order, their distances, and the
    entries each row keeps.  A row keeps the members within ``M`` up to the
    end of the color run of its first member within ``l`` (its sure cover),
    or all of them when none lies within ``l``.  The blocks are those of
    ``spaces._near_blocks`` over the points in the blocked passes' order
    (first coordinate on a :class:`CoordSpace`), so a block's candidates
    form one narrow slab."""
    space = net.space
    order = spaces._sweep_order(space, np.arange(space.n))
    for lo, hi, near in spaces._near_blocks(space, order, M, net.position_of):
        cols = near[np.argsort(colors[near], kind="stable")]
        sub = space.dist_block(order[lo:hi], net.members[cols])
        run_colors = colors[cols]
        ends = np.append(np.searchsorted(run_colors, run_colors, side="right"), len(cols))
        sure = sub < l
        first = sure.argmax(axis=1) if len(cols) else 0
        cut = np.where(sure.any(axis=1), ends[first], len(cols))
        yield order[lo:hi], cols, sub, (sub < M) & (np.arange(len(cols)) < cut[:, None])
        del cols, sub, sure  # before the next block is read


def _owner_table(net: Net, colors, l, M):
    """Owner table of every point under radii in ``[l, M]``, in two passes
    over :func:`_owner_blocks`: one sizes the rows and picks the element
    types, one fills them.

    Row p holds the positions of the members within ``M`` of point p in
    (color, position) order and their distances, cut at the end of the color
    run of its sure cover, its first member within ``l``, if it has one: that
    ball holds p under every radius, so the owner's color is at most the sure
    cover's, and no entry past its run can own p or share the owner's color.
    The rows lie back to back in flat storage, which ends in one longest row
    of padding (position 0, a distance no radius exceeds).

    Positions are ``int16`` below 2**15 members and ``int32`` above.  When
    every kept distance is a whole number, distances are stored in the first
    of ``uint8`` and ``uint16`` whose maximum exceeds ``M``, and that maximum
    pads; otherwise they are float64, padded with infinity.  A comparison
    with a float64 radius widens the stored value exactly.

    Returns ``(members, dists, starts, lengths)``.  ``members`` and
    ``dists`` are sliding windows of the longest row's width over the flat
    storage: window e starts at flat entry e, so row p is the first
    ``lengths[p]`` columns of window ``starts[p]``, and entry e is
    ``dists[e, 0]``.  ``_OWNER_TABLE_GUARD`` bounds the kept entries before
    the storage is allocated; each pass drops a block before it reads the
    next, so the peak is the table and one block.
    """
    n = net.space.n
    starts = np.empty(n, dtype=np.intp)
    lengths = np.empty(n, dtype=np.intp)
    total, whole = 0, True
    for rows, _, sub, kept in _owner_blocks(net, colors, l, M):
        sizes = kept.sum(axis=1)
        lengths[rows], starts[rows] = sizes, total + np.cumsum(sizes) - sizes
        total += int(sizes.sum())
        if whole:
            values = sub[kept]
            whole = bool((np.floor(values) == values).all())
        del sub, kept
    if total > _OWNER_TABLE_GUARD:
        raise ValueError(f"an owner table of {total} entries exceeds "
                         f"the owner table guard ({_OWNER_TABLE_GUARD})")
    kind = np.float64
    if whole:
        kind = next((t for t in (np.uint8, np.uint16) if np.iinfo(t).max > M), kind)
    width = max(1, int(lengths.max()))
    members = np.zeros(total + width, dtype=np.int16 if len(net.members) <= 2**15 else np.int32)
    dists = np.full(total + width, np.inf if kind is np.float64 else np.iinfo(kind).max, kind)
    for rows, cols, sub, kept in _owner_blocks(net, colors, l, M):
        lo = starts[rows[0]]
        hi = lo + lengths[rows].sum()
        members[lo:hi] = np.broadcast_to(cols, kept.shape)[kept]
        dists[lo:hi] = sub[kept]
        del cols, sub, kept
    window = np.lib.stride_tricks.sliding_window_view
    return window(members, width), window(dists, width), starts, lengths


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


def _first_cover(table, colors, t, rows=None):
    """Owner of the point behind each selected owner-table row under radii
    ``t``: the member position of the row's first covering entry, as
    ``intp`` whatever the table's position type.

    ``table`` is what :func:`_owner_table` returns; ``rows`` picks its rows
    (default: every row, in order; repeats and any order are allowed).  Each
    row is read in place as its window, in column chunks that double in
    width, and leaves the scan at the first chunk holding a covering entry,
    so a cover near the front of a row costs one short read.  A window runs
    past its row's end, which cannot move the row's first cover: a row ends
    with its sure cover's run, and holds all its members within ``M`` when it
    has no sure cover.  A first hit past the row's end, or none in the
    window, means no ball covers the point.  A covering entry after the
    owner, in its color run and row, means two same-color balls cover it.
    """
    members, dists, starts, lengths = table
    rows = np.arange(len(starts)) if rows is None else np.asarray(rows, dtype=np.intp)
    at = starts[rows]

    def covered(pending, lo, hi):
        r = at[pending]
        return dists[r, lo:hi] < t[members[r, lo:hi]]

    message = ("a point is covered by no ball; radii violate the "
               "coverage precondition l >= covering radius")
    first = _first_hit(len(rows), members.shape[1], covered, message)
    if (first >= lengths[rows]).any():
        raise CarveError(message)
    owners = members[at, first].astype(np.intp)
    pending, col = np.arange(len(rows)), first + 1
    while len(pending):
        entry = at[pending] + col
        after = members[entry, 0]
        same = (col < lengths[rows[pending]]) & (colors[after] == colors[owners[pending]])
        if (dists[entry[same], 0] < t[after[same]]).any():
            raise CarveError("two same-color centers cover one point; the coloring "
                             "is not proper for the doubled radius band")
        pending, col = pending[same], col[same] + 1
    return owners


def _check_coverage(net: Net, l) -> None:
    """Refuse an empty net, and a radius floor ``l`` that may leave a point uncovered."""
    if not len(net.members):
        raise ValueError("an empty net covers no point")
    if l < net.eps:
        raise ValueError(f"need l >= net.eps for coverage, got l={l} < eps={net.eps}")


def carve(coloring: Coloring, radii: RadiusAssignment) -> PartitionLayer:
    """Assign every point to the lowest-color ball of ``coloring.graph.net`` covering it.

    Preconditions checked: a nonempty net and ``radii.l >= net.eps`` (so
    every point is covered), and a coloring band reaching ``2 * radii.M`` (so
    same-color centers sit more than two radius caps apart).
    """
    net = coloring.graph.net
    _check_coverage(net, radii.l)
    if not coloring.graph.band_high >= 2 * radii.M:
        raise ValueError(f"coloring band reaches {coloring.graph.band_high}, "
                         f"carving needs at least {2 * radii.M}")
    if len(radii.t) != len(net.members):
        raise ValueError("one radius per net member required")
    table = _owner_table(net, coloring.colors, radii.l, radii.M)
    return PartitionLayer(net, _first_cover(table, coloring.colors, radii.t))


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
        del sub  # before the next block is read
    keep = np.nonzero(dmin < M)[0]
    keep = keep[np.argsort(colors[near[keep]], kind="stable")]
    run_colors = colors[near[keep]]
    return (near[keep], dmin[keep], dmax[keep],
            np.searchsorted(run_colors, run_colors, side="right"))


def cut_probability_mc(net: Net, law, probe_radius: float, centers, trials: int,
                       seed: int) -> CutProbeResult:
    """Monte Carlo cut frequencies of probe balls under i.i.d. carving radii.

    Each trial draws one radius per net member in the law's window [l, M]
    (see :func:`draw_radii`), carves, and tests whether each probe ball meets
    two clusters.  The carve is evaluated lazily through the first-touching-ball
    rule, which agrees with carving the full layer (the test suite checks this
    against a literal inductive implementation).  Deterministic given
    ``seed``.

    Trials run in chunks of ``spaces._block_rows`` trials against the net's
    members: at most 125 trials and ``_BLOCK_ENTRIES`` radii.  Each probe's
    set-up (:func:`_probe_setup`) is built when a chunk evaluates it and
    dropped after, so memory holds the radii buffer and one set-up, whatever
    the number of probes, at one set-up per chunk.
    """
    trials = _number(trials, "trials", "an integer >= 1", integer=True, low=1)
    l, M = law.window
    _check_coverage(net, l)
    if not probe_radius > 0:
        raise ValueError("probe_radius must be positive")
    centers = _point_ids(centers, net.space.n)
    if len(centers) == 0:
        raise ValueError("need at least one probe center")
    colors = greedy_color(net_graph(net, 2 * M)).colors
    balls = _balls(net.space, centers, probe_radius)
    cut = np.zeros((trials, len(centers)), dtype=bool)
    # Radii are drawn per trial (stream [seed, trial]) into the rows of one
    # buffer and evaluated for all trials of a chunk at once.
    chunk = min(trials, spaces._block_rows(len(net.members)))
    buffer = np.empty((chunk, len(net.members)))
    for start in range(0, trials, chunk):
        ks = range(start, min(start + chunk, trials))
        radii = buffer[:len(ks)]
        for row, k in zip(radii, ks):
            row[:] = draw_radii(law, net, seed, k).t
        for j, ball in enumerate(balls):
            cut[ks.start:ks.stop, j] = _probe_cuts(*_probe_setup(net, colors, M, ball), radii)

    per_freq = cut.mean(axis=0)
    per_se = np.sqrt(per_freq * (1 - per_freq) / trials)
    agg = float(cut.mean())
    agg_se = float(np.sqrt(agg * (1 - agg) / cut.size))
    return CutProbeResult(centers, trials, float(probe_radius), per_freq, per_se,
                          agg, agg_se, cut)

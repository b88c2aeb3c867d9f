"""Nets and net graphs over finite metric spaces.

A net is a subset of a space that is both a covering set (every point lies
within the covering radius of some member) and separated (members keep a
minimum pairwise distance).  The net graph joins members whose distance lies
in a band ``[separation, M]``; its maximum degree is what bounds the number
of colors the carving stage needs.

One triangular pass over the member distances builds a net graph: each
member is read once against the earlier members that ``space.candidates``
puts within the band's upper end, so every edge is seen once.  It yields the
full degrees (an edge counts for both ends) and the greedy coloring in index
order (each member takes the least color no earlier neighbour holds);
:class:`NetGraph` keeps both, so there is one coloring per graph, which
:func:`padlab.carving.greedy_color` returns.

The sweep and every pass over a net take their row blocks, and the members
near each, from ``spaces._near_blocks``.  A net indexes its members once
(:attr:`Net.position_of`), and the passes over it (the band pass, the owner
table, the cut probes, the growth ball counts) read that index; only the
sweep keeps its own, which grows as it admits members.  The sweep covers at
eps by construction, so nothing re-reads coverage after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spaces import FiniteMetricSpace, _check_center, _near_blocks

__all__ = ["Net", "NetGraph", "build_net", "net_graph", "ball_net_count"]


@dataclass(frozen=True)
class Net:
    """An (eps, delta)-net: eps-covering, delta-separated index subset."""

    space: FiniteMetricSpace
    members: np.ndarray  # point indices in admission order
    eps: float
    delta: float

    def __len__(self):
        return len(self.members)

    @cached_property
    def position_of(self) -> np.ndarray:
        """Each point's member position, or -1 for a point outside the net."""
        position_of = np.full(self.space.n, -1, dtype=np.intp)
        position_of[self.members] = np.arange(len(self.members))
        position_of.flags.writeable = False  # one index, shared by every pass
        return position_of


def build_net(space: FiniteMetricSpace, eps: float, delta: float, order=None) -> Net:
    """Greedy sweep net construction.

    Points are visited in ``order`` (default: index order) and admitted iff
    they lie at distance >= ``delta`` from every member admitted so far.  The
    result is delta-separated, and eps-covering with no check after the
    sweep: a point passed over had a member at distance below ``delta <= eps``
    when it was read, and a member is at distance 0 from itself.  Only a
    "space" with d(p, p) >= eps breaks this, and ``validate_metric`` reports
    its nonzero diagonal.
    """
    if not (0 < delta <= eps):
        raise ValueError(f"need 0 < delta <= eps, got delta={delta}, eps={eps}")
    n = space.n
    if order is None:
        order = np.arange(n)
    else:
        order = np.asarray(order, dtype=np.intp)
        if len(order) != n or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of the point indices")
    member_buf = np.empty(n, dtype=np.intp)
    position_of = np.full(n, -1, dtype=np.intp)
    count = 0
    # Blocked sweep: each block gets its distances to the admitted members
    # within eps in one vectorized call, then runs the sequential admission
    # rule on the block's internal distances; any block size gives the naive
    # sweep.  A member farther than eps >= delta leaves the verdict unchanged,
    # so it is not read.
    for lo, hi, cols in _near_blocks(space, order, eps, position_of):
        block = order[lo:hi]
        near = space.dist_block(block, member_buf[cols]).min(axis=1, initial=np.inf)
        inner = space.dist_block(block, block)
        for i, p in enumerate(block):
            if near[i] >= delta:
                member_buf[count] = p
                position_of[p] = count
                count += 1
                np.minimum(near, inner[i], out=near)
    return Net(space, member_buf[:count].copy(), float(eps), float(delta))


def _band_pass(net: Net, band_low, band_high):
    """Degrees and greedy colors of the band graph on the net's members, both
    indexed by member position, from one pass over the members in index order.

    Row blocks ``[s, e)`` of the members come from ``spaces._near_blocks``
    at ``band_high``, and each is read against the columns ``cols``: the
    ascending positions below ``e`` of the members near it.  Entry
    ``(i, j)`` counts only when ``cols[j]`` is before row ``s + i``.  Each
    in-band entry is an edge to an earlier vertex: it adds to the degrees of
    both ends, and the row vertex takes the least color missing among its
    earlier neighbours.  The mex of k colors is at most k, so only the first
    k + 1 scratch entries are read.
    """
    space, members, T = net.space, net.members, len(net)
    degrees = np.zeros(T, dtype=np.int64)
    colors = np.zeros(T, dtype=np.int64)
    seen = np.zeros(T + 1, dtype=bool)  # marks the colors of one vertex's earlier neighbours
    reach = np.nextafter(band_high, np.inf)  # candidates hold distances below their radius
    for s, e, near in _near_blocks(space, members, reach, net.position_of):
        cols = near[:np.searchsorted(near, e)]
        sub = space.dist_block(members[s:e], members[cols])
        inband = (sub >= band_low) & (sub <= band_high)
        # Freed here rather than when the next block replaces it, so the pass
        # never holds two float blocks at once.
        del sub
        k = np.searchsorted(cols, s)  # columns from here on may be rows of the block
        inband[:, k:] &= cols[k:] < np.arange(s, e)[:, None]
        degrees[s:e] += inband.sum(axis=1)
        degrees[cols] += inband.sum(axis=0)
        for i in range(e - s):
            used = colors[cols[inband[i]]]
            seen[used] = True
            colors[s + i] = seen[:len(used) + 1].argmin()
            seen[used] = False
    return degrees, colors


@dataclass
class NetGraph:
    """Graph on net members with edges exactly in a distance band.

    ``(x, y)`` is an edge iff ``band_low <= dist(x, y) <= band_high`` and
    ``x != y``.  One triangular pass at construction materializes the degree
    sequence and the greedy coloring in index order, which
    :func:`padlab.carving.greedy_color` returns; the edges themselves are not
    kept.
    """

    net: Net
    band_low: float
    band_high: float
    max_degree: int = field(init=False)
    _degrees: np.ndarray = field(init=False, repr=False)
    _colors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._degrees, self._colors = _band_pass(self.net, self.band_low, self.band_high)
        self.max_degree = int(self._degrees.max()) if len(self.net) else 0


def net_graph(net: Net, M: float) -> NetGraph:
    """Band graph on net members with edges at distances in [net.delta, M]."""
    if not M > net.delta:
        raise ValueError(f"need M > separation, got M={M}, separation={net.delta}")
    return NetGraph(net, net.delta, float(M))


def ball_net_count(net: Net, center: int, R: float) -> int:
    """Number of net members in the open ball of radius R around ``center``."""
    if not R > 0:
        raise ValueError("R must be positive")
    _check_center(net.space, center)
    return int((net.space.dist_block([int(center)], net.members) < R).sum())

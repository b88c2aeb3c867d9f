"""Nets and net graphs over finite metric spaces.

A net is a subset of a space that is both a covering set (every point lies
within the covering radius of some member) and separated (members keep a
minimum pairwise distance).  The net graph joins members whose distance lies
in a band ``[separation, M]``; its maximum degree is what bounds the number
of colors the carving stage needs.

One triangular pass over the member distances builds a net graph: each
member is read against the members before it in index order that
``space.candidates`` puts within the band's upper end, once, so every edge
is seen once.  It and the net sweep (at the covering radius) take their
row blocks, and the members near each, from ``spaces._near_blocks``, so
neither sizes its own blocks.  The pass yields the full degrees (an edge
counts for both ends) and the greedy coloring in that order (each member
takes the least color no earlier neighbour holds).  :class:`NetGraph` keeps
both, so there is one coloring per graph; :func:`padlab.carving.greedy_color`
returns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import FiniteMetricSpace, _near_blocks

__all__ = ["Net", "NetGraph", "build_net", "net_graph", "ball_net_count", "NetError"]


class NetError(ValueError):
    """A constructed net violates one of its invariants."""


@dataclass(frozen=True)
class Net:
    """An (eps, delta)-net: eps-covering, delta-separated index subset."""

    space: FiniteMetricSpace
    members: np.ndarray  # point indices in admission order
    eps: float
    delta: float

    def __len__(self):
        return len(self.members)


def build_net(space: FiniteMetricSpace, eps: float, delta: float, order=None) -> Net:
    """Greedy sweep net construction.

    Points are visited in ``order`` (default: index order) and admitted iff
    they lie at distance >= ``delta`` from every member admitted so far.  The
    result is always delta-separated; the eps-covering invariant is verified
    after the sweep and reported as :class:`NetError` if violated (with
    ``delta == eps`` the sweep guarantees it).
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
    # sweep.  A member farther than eps leaves both verdicts unchanged (near
    # >= delta at admission, nearest_seen >= eps below), so it is not read.
    nearest_seen = np.full(n, np.inf)
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
        nearest_seen[block] = near
    members = member_buf[:count].copy()
    # Re-derive coverage for points seen before later members were admitted.
    uncovered = np.nonzero(nearest_seen >= eps)[0]
    for lo, hi, cols in _near_blocks(space, uncovered, eps, position_of):
        nearest_seen[uncovered[lo:hi]] = space.dist_block(
            uncovered[lo:hi], members[cols]).min(axis=1, initial=np.inf)
    far = np.nonzero(nearest_seen >= eps)[0]
    if len(far):
        raise NetError(f"sweep left {len(far)} points uncovered at eps={eps}: "
                       f"first witnesses {far[:5].tolist()}")
    return Net(space, members, float(eps), float(delta))


def _band_pass(space: FiniteMetricSpace, members, band_low, band_high):
    """Degrees and greedy colors of the band graph on ``members``, both indexed
    by member position, from one pass over the members in index order.

    Row blocks ``[s, e)`` of the members come from ``spaces._near_blocks``
    at ``band_high``, and each is read against the columns ``cols``: the
    ascending positions below ``e`` of the members near it.  Entry
    ``(i, j)`` counts only when ``cols[j]`` is before row ``s + i``.  Each
    in-band entry is an edge to an earlier vertex: it adds to the degrees of
    both ends, and the row vertex takes the least color missing among its
    earlier neighbours.  The mex of k colors is at most k, so only the first
    k + 1 scratch entries are read.
    """
    T = len(members)
    degrees = np.zeros(T, dtype=np.int64)
    colors = np.zeros(T, dtype=np.int64)
    seen = np.zeros(T + 1, dtype=bool)  # marks the colors of one vertex's earlier neighbours
    position_of = np.full(space.n, -1, dtype=np.intp)
    position_of[members] = np.arange(T)
    reach = np.nextafter(band_high, np.inf)  # candidates hold distances below their radius
    for s, e, near in _near_blocks(space, members, reach, position_of):
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
        members = self.net.members
        self._degrees, self._colors = _band_pass(self.net.space, members, self.band_low,
                                                 self.band_high)
        self.max_degree = int(self._degrees.max()) if len(members) else 0

    def num_vertices(self) -> int:
        return len(self.net.members)


def net_graph(net: Net, M: float) -> NetGraph:
    """Band graph on net members with edges at distances in [net.delta, M]."""
    if M <= net.delta:
        raise ValueError(f"need M > separation, got M={M}, separation={net.delta}")
    return NetGraph(net, net.delta, float(M))


def ball_net_count(net: Net, center: int, R: float) -> int:
    """Number of net members in the open ball of radius R around ``center``."""
    if not R > 0:
        raise ValueError("R must be positive")
    return int((net.space.dist_block([int(center)], net.members) < R).sum())

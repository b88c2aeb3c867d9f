"""Nets and net graphs over finite metric spaces.

A net is a subset of a space that is both a covering set (every point lies
within the covering radius of some member) and separated (members keep a
minimum pairwise distance).  The net graph joins members whose distance lies
in a band ``[separation, M]``; its maximum degree is what bounds the number
of colors the carving stage needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spaces
from .spaces import FiniteMetricSpace, _dist_blocks

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

    def member_dist_matrix(self) -> np.ndarray:
        return self.space.dist_block(self.members, self.members)


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
    count = 0
    # Blocked sweep: each block gets its distances to the members admitted so
    # far in one vectorized call, then runs the sequential admission rule on
    # the block's internal distances.  Identical result to the naive sweep.
    nearest_seen = np.full(n, np.inf)
    pos = 0
    while pos < n:
        size = int(max(16, min(n - pos, 2048, spaces._BLOCK_ENTRIES // max(1, count))))
        block = order[pos:pos + size]
        pos += size
        if count:
            near = space.dist_block(block, member_buf[:count]).min(axis=1)
        else:
            near = np.full(len(block), np.inf)
        inner = space.dist_block(block, block)
        for i, p in enumerate(block):
            if near[i] >= delta:
                member_buf[count] = p
                count += 1
                np.minimum(near, inner[i], out=near)
        nearest_seen[block] = near
    members = member_buf[:count].copy()
    # Re-derive coverage for points seen before later members were admitted.
    uncovered = np.nonzero(nearest_seen >= eps)[0]
    if len(uncovered):
        far = np.concatenate([uncovered[start:start + len(sub)][sub.min(axis=1) >= eps]
                              for start, sub in _dist_blocks(space, uncovered, members)])
        if len(far):
            raise NetError(f"sweep left {len(far)} points uncovered at eps={eps}: "
                           f"first witnesses {far[:5].tolist()}")
    return Net(space, members, float(eps), float(delta))


@dataclass
class NetGraph:
    """Graph on net members with edges exactly in a distance band.

    ``(x, y)`` is an edge iff ``band_low <= dist(x, y) <= band_high`` and
    ``x != y``.  Adjacency is computed on demand from the space's distance
    oracle; only the degree sequence is materialized.
    """

    net: Net
    band_low: float
    band_high: float
    max_degree: int = field(init=False)
    _degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        members = self.net.members
        T = len(members)
        degs = np.empty(T, dtype=np.int64)
        for start, sub in _dist_blocks(self.net.space, members, members):
            rows = np.arange(start, start + len(sub))
            inband = (sub >= self.band_low) & (sub <= self.band_high)
            inband[np.arange(len(rows)), rows] = False
            degs[rows] = inband.sum(axis=1)
        self._degrees = degs
        self.max_degree = int(degs.max()) if T else 0

    def _neighbor_mask(self, k: int) -> np.ndarray:
        d = self.net.space.dist_row(int(self.net.members[k]))[self.net.members]
        mask = (d >= self.band_low) & (d <= self.band_high)
        mask[k] = False
        return mask

    def neighbors(self, k: int) -> np.ndarray:
        """Member positions adjacent to member position ``k``."""
        return np.nonzero(self._neighbor_mask(k))[0]

    def degree(self, k: int) -> int:
        return int(self._degrees[k])

    def num_vertices(self) -> int:
        return len(self.net.members)

    def edge_list(self):
        """All edges as (position, position) pairs; small graphs only."""
        T = self.num_vertices()
        if T > 5000:
            raise ValueError("refusing to materialize edges of a graph this large")
        edges = []
        for k in range(T):
            for j in self.neighbors(k):
                if j > k:
                    edges.append((k, int(j)))
        return edges


def net_graph(net: Net, M: float) -> NetGraph:
    """Band graph on net members with edges at distances in [net.delta, M]."""
    if M <= net.delta:
        raise ValueError(f"need M > separation, got M={M}, separation={net.delta}")
    return NetGraph(net, net.delta, float(M))


def ball_net_count(space: FiniteMetricSpace, net: Net, center: int, R: float) -> int:
    """Number of net members in the open ball of radius R around ``center``."""
    if R <= 0:
        raise ValueError("R must be positive")
    d = space.dist_row(int(center))[net.members]
    return int((d < R).sum())

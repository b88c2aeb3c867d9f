"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: double loops, literal inductive
definitions, brute-force enumeration.  None of it shares code with the
package paths it validates.
"""

import math

import numpy as np


def literal_carve(space, members, colors, t):
    """Inductive peel-off: color class 0 claims its balls, class 1 claims
    whatever is left of its balls, and so on.  Returns the member position
    owning each point, or -1 if uncovered."""
    owner = np.full(space.n, -1, dtype=np.int64)
    for color in range(int(colors.max()) + 1):
        for k in np.nonzero(colors == color)[0]:
            ball = space.dist_row(int(members[k])) < t[k]
            fresh = ball & (owner < 0)
            if fresh.any():
                owner[fresh] = k
    return owner


def literal_edges(graph):
    """Band-graph edges as (position, position) pairs, first < second, from a
    double loop over single distances."""
    members = [int(x) for x in graph.net.members]
    space = graph.net.space
    return [(a, b) for a in range(len(members)) for b in range(a + 1, len(members))
            if graph.band_low <= space.dist(members[a], members[b]) <= graph.band_high]


def literal_ball(space, center, r):
    """Open ball around ``center`` from single distances, as a sorted list."""
    return [p for p in range(space.n) if space.dist(int(center), p) < r]


def literal_is_cut(space, owner, center, r):
    ids = owner[space.dist_row(int(center)) < r]
    return len(set(ids.tolist())) >= 2


def naive_verify_cover(space, layers, r_disjoint, D_bound):
    """Double-loop cover check; returns True/False only."""
    n = space.n
    covered = [False] * n
    for layer in layers:
        sets = [list(map(int, s)) for s in layer]
        for a in range(len(sets)):
            for p in sets[a]:
                covered[p] = True
            # diameter
            for p in sets[a]:
                for q in sets[a]:
                    if space.dist(p, q) > D_bound:
                        return False
            for b in range(a + 1, len(sets)):
                for p in sets[a]:
                    for q in sets[b]:
                        if space.dist(p, q) <= r_disjoint:
                            return False
    return all(covered)


def naive_verify_padded(space, layers, members, R, D):
    """Double-loop padded-decomposition check; returns True/False only."""
    members = [int(x) for x in members]
    for layer in layers:
        sets = [set(map(int, s)) for s in layer]
        for x in members:
            holding = [s for s in sets if x in s]
            if len(holding) != 1:
                return False
        for s in sets:
            for p in s:
                for q in s:
                    if space.dist(p, q) > D:
                        return False
    for x in members:
        ball = [p for p in range(space.n) if space.dist(x, p) < R]
        padded = False
        for layer in layers:
            for s in layer:
                ss = set(map(int, s))
                if x in ss and all(p in ss for p in ball):
                    padded = True
        if not padded:
            return False
    return True


def literal_verify_cover(space, layers, r_disjoint, D_bound):
    """``verify_cover(Cover(space, layers, r_disjoint, D_bound)).to_jsonable()``
    from literal loops: each pair of sets of a layer compared point by point,
    diameters by double loops, coverage by membership."""
    from padlab.decomposition import VerificationReport

    sets = [[sorted({int(p) for p in s}) for s in layer] for layer in layers]
    report = VerificationReport(
        kind="cover",
        parameters={"r_disjoint": r_disjoint, "D_bound": D_bound, "m": len(layers),
                    "n_points": space.n},
        conditions={"disjointness": True, "diameter": True, "coverage": True},
    )
    for i, layer in enumerate(sets):
        for a in range(len(layer)):
            for b in range(a + 1, len(layer)):
                gap = min([space.dist(p, q) for p in layer[a] for q in layer[b]],
                          default=np.inf)
                if gap <= r_disjoint:
                    report.fail("disjointness", layer=i, sets=[a, b], distance=gap,
                                required_exceeding=r_disjoint)
        for k, s in enumerate(layer):
            diam = max([space.dist(p, q) for p in s for q in s], default=0.0)
            if diam > D_bound:
                report.fail("diameter", layer=i, set=k, diameter=diam, bound=D_bound)
    held = {p for layer in sets for s in layer for p in s}
    for p in range(space.n):
        if p not in held:
            report.fail("coverage", point=p)
    return report.to_jsonable()


def literal_verify_padded(space, layers, members, R, D):
    """``verify_padded(...).to_jsonable()`` from literal loops: holders found
    by membership tests, diameters by double loops, and padding decided by
    one open ball per member, the member-by-member padding loop that
    ``verify_padded`` ran before its balls were batched."""
    from padlab.decomposition import VerificationReport

    sets = [[sorted({int(p) for p in s}) for s in layer] for layer in layers]
    members = [int(x) for x in members]
    report = VerificationReport(
        kind="padded_decomposition",
        parameters={"R": R, "D": D, "m": len(layers), "n_points": space.n,
                    "net_size": len(members)},
        conditions={"net_partition": True, "diameter": True, "padding": True},
    )
    for i, layer in enumerate(sets):
        for x in members:
            holders = [k for k, s in enumerate(layer) if x in s]
            if not holders:
                report.fail("net_partition", layer=i, member=x, problem="uncovered")
            elif len(holders) > 1:
                report.fail("net_partition", layer=i, member=x, problem="overlap",
                            sets=holders)
        for k, s in enumerate(layer):
            diam = max([space.dist(p, q) for p in s for q in s], default=0.0)
            if diam > D:
                report.fail("diameter", layer=i, set=k, diameter=diam, bound=D)
    for x in members:
        ball = literal_ball(space, x, R)
        held = [(i, k) for i, layer in enumerate(sets) for k, s in enumerate(layer) if x in s]
        if any(all(p in sets[i][k] for p in ball) for i, k in held):
            continue
        escaping = [{"layer": i, "set": k,
                     "outside_points": [p for p in ball if p not in sets[i][k]][:5]}
                    for i, k in held]
        report.fail("padding", member=x, R=R, closest_misses=escaping[:4])
    return report.to_jsonable()


def heisenberg_words(radius):
    """All distinct group elements expressible by words of length <= radius,
    as cumulative counts per length.  Pure word enumeration, no BFS."""
    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

    def mul(g, h):
        a, b, c = g
        aa, bb, cc = h
        return (a + aa, b + bb, c + cc + a * bb)

    reached = {(0, 0, 0)}
    frontier = {(0, 0, 0)}
    counts = [1]
    for _ in range(radius):
        frontier = {mul(g, s) for g in frontier for s in gens}
        reached |= frontier
        counts.append(len(reached))
    return counts


def make_cover(space, diam_scale, separation, seed=0):
    """Verified-by-construction cover: cluster the space around a
    ``diam_scale``-net (sets of diameter < 2*diam_scale), then greedily color
    the set-conflict graph so sets within one layer sit strictly more than
    ``separation`` apart.  Used by the conversion round-trip tests."""
    import padlab as pl

    cnet = pl.build_net(space, diam_scale, diam_scale,
                        order=np.random.default_rng(seed).permutation(space.n))
    dist_to = space.dist_block(np.arange(space.n), cnet.members)
    owner = np.argmin(dist_to, axis=1)
    sets = [np.nonzero(owner == k)[0] for k in range(len(cnet.members))]
    sets = [s for s in sets if len(s)]
    k = len(sets)
    # pairwise set-to-set min distances in one shot
    pts = np.concatenate(sets)
    labels = np.concatenate([np.full(len(s), i) for i, s in enumerate(sets)])
    dmat = space.dist_block(pts, pts)
    pair_min = np.full((k, k), np.inf)
    np.minimum.at(pair_min, (np.repeat(labels, len(pts)), np.tile(labels, len(pts))),
                  dmat.ravel())
    colors = np.full(k, -1)
    for a in range(k):
        used = {colors[b] for b in range(a) if pair_min[a, b] <= separation}
        c = 0
        while c in used:
            c += 1
        colors[a] = c
    layers = [[sets[a] for a in range(k) if colors[a] == c]
              for c in range(int(colors.max()) + 1)]
    return pl.Cover(space, layers, r_disjoint=float(separation),
                    D_bound=2 * diam_scale)


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    F = cdf(xs)
    lo = np.max(F - np.arange(n) / n)
    hi = np.max(np.arange(1, n + 1) / n - F)
    return float(max(lo, hi))


def heisenberg_distances(radius, rows, cols):
    """Word metric between Heisenberg ball elements by brute force: BFS the
    group out to word length ``2*radius`` and look up ``g^-1 h`` per pair."""
    import padlab as pl

    def mul(g, h):
        a, b, c = g
        aa, bb, cc = h
        return (a + aa, b + bb, c + cc + a * bb)

    length = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    for d in range(1, 2 * radius + 1):
        fresh = []
        for g in frontier:
            for s in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]:
                h = mul(g, s)
                if h not in length:
                    length[h] = d
                    fresh.append(h)
        frontier = fresh
    elements = [tuple(e) for e in pl.heisenberg_ball(radius).elements.tolist()]
    out = np.empty((len(rows), len(cols)))
    for x, i in enumerate(rows):
        a, b, c = elements[i]
        inverse = (-a, -b, a * b - c)
        for y, j in enumerate(cols):
            out[x, y] = length[mul(inverse, elements[j])]
    return out


# The loops below are the package's code before its kernels were vectorized,
# kept verbatim as references for those kernels.


def reference_sampled_validate(space, seed=0, samples=100_000):
    """The triple-by-triple sampled branch of ``validate_metric``."""
    from padlab.spaces import MetricError

    n = space.n
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(samples, 3))
    tol = 1e-9
    for i, j, k in idx:
        read = [space.dist(int(a), int(b)) for a, b in ((i, j), (j, i), (i, i), (j, k), (i, k))]
        if not all(0 <= d < math.inf for d in read):
            raise MetricError(f"negative or non-finite distance on triple ({i},{j},{k})")
        dij, dji, dii, djk, dik = read
        if dij != dji:
            raise MetricError(f"asymmetric: d({i},{j}) != d({j},{i})")
        if dii != 0.0:
            raise MetricError(f"nonzero self distance at {i}")
        if djk > dij + dik + tol * max(1.0, dij):
            raise MetricError(f"triangle inequality fails on triple ({j},{i},{k})")


def reference_greedy_cover_size(covers) -> int:
    """Greedy max-coverage count of a boolean matrix (rows = centers, cols = targets)."""
    remaining = np.ones(covers.shape[1], dtype=bool)
    picks = 0
    while remaining.any():
        gain = (covers & remaining[None, :]).sum(axis=1)
        best = int(np.argmax(gain))
        if gain[best] == 0:
            raise ValueError("target point not coverable by any candidate ball")
        remaining &= ~covers[best]
        picks += 1
    return picks


def literal_optimal_cover_size(space, target, radius):
    """Fewest open ``radius``-balls around space points covering ``target``,
    by trying every set of centers in order of size."""
    from itertools import combinations

    target = [int(p) for p in target]
    for k in range(len(target) + 1):
        for centers in combinations(range(space.n), k):
            if all(any(space.dist(c, p) < radius for c in centers) for p in target):
                return k
    raise ValueError("target not coverable at this radius")


def reference_growth_table(space, radii, trials=3, seed=0) -> dict:
    """Growth estimates for several radii, one center row at a time."""
    from padlab.nets import build_net

    radii = [float(r) for r in radii]
    rng = np.random.default_rng(seed)
    best = {r: 0 for r in radii}
    thresholds = np.asarray(sorted(radii))
    for t in range(trials):
        order = np.arange(space.n) if t == 0 else rng.permutation(space.n)
        net = build_net(space, 1.0, 1.0, order=order)
        for c in range(space.n):
            d = np.sort(space.dist_row(c)[net.members])
            counts = np.searchsorted(d, thresholds, side="left")
            for r, cnt in zip(thresholds, counts):
                r = float(r)
                if cnt > best[r]:
                    best[r] = int(cnt)
    return best


def reference_heis_bfs(radius):
    """``spaces._heis_bfs`` before the BFS ran level by level on arrays: a
    dict of every group element within word length ``radius`` and its
    length, found one element at a time from a queue."""
    from collections import deque

    def mul(g, h):
        a, b, c = g
        aa, bb, cc = h
        return (a + aa, b + bb, c + cc + a * bb)

    wl = {(0, 0, 0): 0}
    frontier = deque([(0, 0, 0)])
    while frontier:
        g = frontier.popleft()
        d = wl[g]
        if d == radius:
            continue
        for s in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]:
            h = mul(g, s)
            if h not in wl:
                wl[h] = d + 1
                frontier.append(h)
    return wl


# The distance reduction and the set reads below are the package's code
# before coordinate distances were accumulated one coordinate at a time and
# before set reads were restricted to ``candidates``, kept verbatim as
# references for those paths.


def reference_reduce(self, diff):
    """``CoordSpace._reduce``: the norm of a difference array over its last axis."""
    if diff.shape[-1] == 1:
        d = np.abs(diff[..., 0])  # all three norms coincide in 1-d
    elif self.metric == "l1":
        d = np.abs(diff).sum(axis=-1)
    elif self.metric == "linf":
        d = np.abs(diff).max(axis=-1)
    else:
        d = np.sqrt((diff * diff).sum(axis=-1))
    if self.round_digits is not None:
        d = np.round(d, self.round_digits)
    return d


def reference_dist_row(self, i):
    return reference_reduce(self, self.coords - self.coords[i])


def reference_dist_block(self, rows, cols=None):
    a = self.coords[np.asarray(rows, dtype=np.intp)]
    b = self.coords if cols is None else self.coords[np.asarray(cols, dtype=np.intp)]
    return reference_reduce(self, a[:, None, :] - b[None, :, :])


def reference_ball_of_set(space, points, R):
    """Open R-neighborhood of a point set."""
    from padlab.spaces import _dist_blocks

    mask = np.zeros(space.n, dtype=bool)
    for _, sub in _dist_blocks(space, points):
        mask |= (sub < R).any(axis=0)
    return np.nonzero(mask)[0]


def reference_shrink_set(space, points, margin):
    """Points of the set at distance >= margin from its complement.

    The whole set survives when the complement is empty (distance to the
    empty set is +inf by convention)."""
    from padlab.decomposition import _as_index_array
    from padlab.spaces import _dist_blocks

    s = _as_index_array(points, space.n)
    inside = np.zeros(space.n, dtype=bool)
    inside[s] = True
    comp = np.nonzero(~inside)[0]
    if len(comp) == 0 or len(s) == 0:
        return s
    near = np.concatenate([sub.min(axis=1) for _, sub in _dist_blocks(space, s, comp)])
    return s[near >= margin]


def literal_owner_table(space, members, colors, l, M):
    """Owner table from single distances, its rows back to back in point
    order: per point, the members within ``M`` in (color, position) order
    and their distances, up to the last one of the color of its first member
    within ``l`` (all of them when none lies within ``l``); and the row
    lengths.  Positions are ``int16`` up to 2**15 members, ``int32`` past
    them; distances are ``uint8`` when all are whole and 255 exceeds ``M``,
    else ``uint16`` when all are whole and 65535 exceeds ``M``, else float64."""
    positions, dists, lengths = [], [], []
    for p in range(space.n):
        entries = []
        for k in range(len(members)):
            d = space.dist(p, int(members[k]))
            if d < M:
                entries.append((int(colors[k]), k, d))
        row = sorted(entries)  # positions are distinct: d never decides
        sure = [color for color, _, d in row if d < l]
        if sure:
            row = [entry for entry in row if entry[0] <= sure[0]]
        for _, k, d in row:
            positions.append(k)
            dists.append(d)
        lengths.append(len(row))
    whole = all(d == int(d) for d in dists)
    kind = (np.uint8 if whole and M < 255 else np.uint16 if whole and M < 65535
            else np.float64)
    return (np.array(positions, dtype=np.int16 if len(members) <= 2**15 else np.int32),
            np.array(dists, dtype=kind), np.array(lengths, dtype=np.intp))


def reference_first_cover(rows, colors, t):
    """Owner of the point behind each owner-table row under radii ``t``: the
    member position of the row's first covering entry, each row given as its
    ``(members, dists)`` arrays and read whole.  Every row is checked: more
    than one covering entry of the owner's color raises."""
    from padlab.carving import CarveError

    covered = [dists < t[members] for members, dists in rows]
    if not all(c.any() for c in covered):
        raise CarveError("a point is covered by no ball; radii violate the "
                         "coverage precondition l >= covering radius")
    first = [int(c.argmax()) for c in covered]
    for (members, _), c, f in zip(rows, covered, first):
        if (c & (colors[members] == colors[members[f]])).sum() > 1:
            raise CarveError("two same-color centers cover one point; the coloring "
                             "is not proper for the doubled radius band")
    return np.array([members[f] for (members, _), f in zip(rows, first)], dtype=np.intp)


def reference_degrees(graph):
    """Band-graph degrees from one full row per member: every in-band entry
    of the row except the diagonal."""
    from padlab.spaces import _dist_blocks

    members = graph.net.members
    T = len(members)
    degs = np.empty(T, dtype=np.int64)
    for start, sub in _dist_blocks(graph.net.space, members, members):
        rows = np.arange(start, start + len(sub))
        inband = (sub >= graph.band_low) & (sub <= graph.band_high)
        inband[np.arange(len(rows)), rows] = False
        degs[rows] = inband.sum(axis=1)
    return degs


def reference_greedy_color(graph):
    """Greedy colors in index order from one full row per member: the least
    color unused on the already colored in-band members."""
    from padlab.spaces import _dist_blocks

    T = graph.num_vertices()
    members = graph.net.members
    colors = np.full(T, -1, dtype=np.int64)
    max_degree = int(reference_degrees(graph).max()) if T else 0
    scratch = np.empty(max_degree + 2, dtype=bool)
    for start, sub in _dist_blocks(graph.net.space, members, members):
        for i, row in enumerate(sub):
            nb = (row >= graph.band_low) & (row <= graph.band_high)
            used = colors[nb]
            used = used[used >= 0]  # colored means earlier in index order
            scratch[:] = False
            scratch[used] = True
            colors[start + i] = int(np.argmin(scratch))
    return colors


def reference_probe_cuts(space, net, colors, M, probe_radius, centers, radii):
    """Cut matrix (trials x centers) of the first-touching-ball rule, read
    densely: every candidate member of every probe under every row of
    ``radii`` (trials x members)."""
    from padlab.carving import CarveError

    probes = []
    for c in centers:
        ball = space.ball(int(c), probe_radius)
        sub = space.dist_block(ball, net.members)
        dmin = sub.min(axis=0)
        dmax = sub.max(axis=0)
        cand = np.nonzero(dmin < M)[0]
        probes.append((cand, dmin[cand], dmax[cand], colors[cand].astype(np.int64)))

    cut = np.zeros((len(radii), len(centers)), dtype=bool)
    big = np.iinfo(np.int64).max
    rows = np.arange(len(radii))
    for j in range(len(probes)):
        cand, dmin, dmax, cols = probes[j]
        tc = radii[:, cand]
        touch = tc > dmin[None, :]
        if not touch.any(axis=1).all():
            raise CarveError("probe ball touched by no ball despite coverage")
        cmin = np.where(touch, cols[None, :], big).min(axis=1)
        contains = touch & (cols[None, :] == cmin[:, None]) & (tc > dmax[None, :])
        cut[rows, j] = ~contains.any(axis=1)
    return cut

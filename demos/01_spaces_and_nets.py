"""Fixtures, nets, and band graphs.

Builds a few finite metric spaces, validates the metric axioms, sweeps out
greedy nets at several scales, and shows how the band graph's maximum degree
stays bounded as predicted by the measured doubling constant.
"""

import numpy as np

import padlab as pl

print("== fixtures ==")
for spec in ["segment:500", "grid:20x20:linf", "cloud:200:2:seed=1", "tree:3:4", "heis:4"]:
    space = pl.parse_fixture(spec)
    pl.validate_metric(space)
    print(f"{spec:22s} n={space.n:5d}  diameter={space.diameter():g}")

print("\n== greedy nets on the 500-point segment ==")
seg = pl.parse_fixture("segment:500")
for scale in (1.0, 4.0, 16.0):
    net = pl.build_net(seg, scale, scale)
    print(f"scale {scale:4g}: {len(net):4d} members, first five {net.members[:5].tolist()}")

print("\n== band graphs and degree bounds ==")
cloud = pl.euclidean_cloud(300, 2, seed=5, scale=20.0)
r = 1.0
net = pl.build_net(cloud, r, r)
N = pl.doubling_constant_estimate(cloud, [0.5, 1.0, 2.0], centers=range(0, 300, 11))
print(f"doubling constant lower estimate: {N}")
for M in (2.0, 4.0, 8.0):
    g = pl.net_graph(net, M)
    bound = N**2 * (M / r) ** np.log2(N)
    print(f"band [{r}, {M}]: {len(g.net)} vertices, max degree "
          f"{g.max_degree:3d} <= predicted {bound:7.1f}")

print("\n== net-point counts inside balls ==")
net1 = pl.build_net(seg, 1.0, 1.0)
for R in (2.0, 4.0, 8.0):
    count = pl.ball_net_count(net1, 250, R)
    print(f"|B_{R:g}(250) ∩ net| = {count:3d}  (bound {3**2 * R**np.log2(3):6.1f})")

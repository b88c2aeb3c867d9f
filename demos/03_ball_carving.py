"""Randomized ball carving on a segment.

Colors the band graph of a net, draws one carving radius per member, and
partitions the whole space by the lowest-color covering ball.  Then runs the
Monte Carlo harness to estimate how often a probe ball straddles two clusters
and compares against the closed-form 20*r*p bound.
"""

import numpy as np

import padlab as pl

space = pl.integer_segment(2000)
net = pl.build_net(space, 3, 3)
M = 60.0
coloring = pl.greedy_color(pl.net_graph(net, 2 * M))
print(f"net: {len(net)} members; band-graph colors: {coloring.num_colors} "
      f"(max degree {coloring.graph.max_degree})")

law = pl.TexpParams(0.02, 9.0, M)
radii = pl.draw_radii(law, net, seed=0, trial=0)
layer = pl.carve(space, net, coloring, radii)
sizes = sorted((len(s) for s in layer.cluster_sets()), reverse=True)
print(f"one carve: {layer.num_clusters} clusters, sizes {sizes[:8]} ...")
diams = [pl.set_diameter(space, s) for s in layer.cluster_sets()]
print(f"largest cluster diameter {max(diams):g} (cap 2M = {2*M:g})")

print("\nprobe balls of radius 9 around a few members:")
for c in (300, 900, 1500):
    print(f"  B_9({c}) cut: {pl.is_cut(layer, c, 9.0)}")

print("\n== Monte Carlo cut frequency, geometric radii ==")
space = pl.integer_segment(5000)
net = pl.build_net(space, 1, 1)
p, Mg, probe = 1 / 150, 3000, 9.0
law = pl.TgeoParams(p, Mg)
centers = np.arange(200, 4800, 450)
res = pl.cut_probability_mc(space, net, law, probe, centers, trials=120, seed=3)
print(f"aggregate frequency {res.aggregate_freq:.4f} +- {res.aggregate_se:.4f}")
print(f"closed-form bound 20*r*p = {20 * probe * p:.4f}")
print("per-center:", np.array2string(res.per_center_freq, precision=3))

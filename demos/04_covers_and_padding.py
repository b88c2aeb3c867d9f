"""Covers versus padded decompositions, in both directions.

A cover keeps each layer's sets far apart; a padded decomposition gives every
net member one layer whose cluster swallows its padding ball.  The two are
interconvertible with explicit radius bookkeeping:

    (2R + r, D)-cover          -> (R, 2R + 2r + D)-padded decomposition
    (R + 2r, D)-padded decomp. -> (R, D)-cover

This script builds a verified cover on a random planar cloud, walks the chain
forward and back, and prints the exhaustive verifier's verdicts.
"""

import numpy as np

import padlab as pl

space = pl.euclidean_cloud(300, 2, seed=42, scale=100.0)
r = 1.0
net = pl.build_net(space, r, r)
R = 2.0
R_pad = R + 2 * r

# cover sets: clusters around a unit net, layered so same-layer sets stay
# strictly more than 2*R_pad + r apart
cnet = pl.build_net(space, 1.0, 1.0, order=np.random.default_rng(0).permutation(space.n))
owner = np.argmin(space.dist_block(np.arange(space.n), cnet.members), axis=1)
sets = [np.nonzero(owner == k)[0] for k in range(len(cnet.members))]
sets = [s for s in sets if len(s)]
sep = 2 * R_pad + r
layers, colors = [], {}
for i, s in enumerate(sets):
    used = {colors[j] for j in range(i) if pl.set_distance(space, s, sets[j]) <= sep}
    c = 0
    while c in used:
        c += 1
    colors[i] = c
    while len(layers) <= c:
        layers.append([])
    layers[c].append(s)
cover = pl.Cover(space, layers, r_disjoint=sep, D_bound=2.0)
rep = pl.verify_cover(cover)
print(f"start: ({cover.r_disjoint:g}, {cover.D_bound:g})-cover, {cover.m} layers, "
      f"verified: {rep.passed}")

pd = pl.padded_from_cover(cover, net, R_pad)
print(f"grown: ({pd.R:g}, {pd.D:g})-padded decomposition, {pd.m} layers, "
      f"verified: {pl.verify_padded(pd).passed}")

back = pl.cover_from_padded(pd)
print(f"shrunk back: ({back.r_disjoint:g}, {back.D_bound:g})-cover, "
      f"verified: {pl.verify_cover(back).passed}")

print("\nwitness machinery on a deliberately bad claim:")
bad = pl.verify_padded(pl.PaddedDecomposition(net, pd.layers, R=pd.R * 20, D=pd.D))
print(f"claiming padding radius {pd.R * 20:g} instead: passed={bad.passed}, "
      f"witnesses={len(bad.witnesses)}; first: {bad.witnesses[0]['condition']} at "
      f"member {bad.witnesses[0].get('member')}")

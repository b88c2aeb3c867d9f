"""Deterministic inputs that the benchmark builds before timing.

Usage::

    python3 perfbench/inputs.py tiled-cover N SEED OUT.json

writes a 4-layer cover of ``cloud:N:2:seed=SEED``: the unit square is cut
into 10 x 10 tiles of side 0.1, each nonempty tile is one set, and the layer
of a tile is the parity of its row and column.  Same-layer tiles are a whole
tile apart, so the separation exceeds ``R_DISJOINT`` (0.099) for every seed,
and a tile's diameter is at most 0.1 * sqrt(2) < ``D_BOUND`` (0.15).  The
cover is checked with ``verify_cover`` before it is written; the command
exits 1 if the check fails.
"""

from __future__ import annotations

import sys

import numpy as np

TILES = 10
SIDE = 1.0 / TILES
R_DISJOINT = 0.099
D_BOUND = 0.15


def tiled_cover(n: int, seed: int):
    from padlab.decomposition import Cover
    from padlab.spaces import parse_fixture

    fixture = f"cloud:{n}:2:seed={seed}"
    space = parse_fixture(fixture)
    ij = np.minimum((space.coords // SIDE).astype(np.intp), TILES - 1)
    layers = [[] for _ in range(4)]
    for i in range(TILES):
        for j in range(TILES):
            pts = np.nonzero((ij[:, 0] == i) & (ij[:, 1] == j))[0]
            if len(pts):
                layers[2 * (i % 2) + j % 2].append(pts)
    return fixture, Cover(space, layers, R_DISJOINT, D_BOUND)


def main(argv) -> int:
    from padlab.decomposition import cover_to_json, dump_json, verify_cover

    if len(argv) != 4 or argv[0] != "tiled-cover":
        print(__doc__, file=sys.stderr)
        return 2
    fixture, cover = tiled_cover(int(argv[1]), int(argv[2]))
    report = verify_cover(cover)
    if not report.passed:
        print(f"tiled cover of {fixture} fails verify_cover: {report.witnesses[:3]}",
              file=sys.stderr)
        return 1
    dump_json(cover_to_json(cover, fixture), argv[3])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

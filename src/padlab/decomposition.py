"""Covers, padded decompositions, and exhaustive verification.

A *cover* is a tuple of layers, each layer a family of point sets that is
mutually separated (strictly, beyond ``r_disjoint``) and diameter-bounded;
the layers jointly cover the space.  A *padded decomposition* is a tuple of
layers of clusters that each partition the net (disjointness is required on
net members only - sets may overlap off the net), are diameter-bounded, and
give every net member one layer whose cluster contains its whole padding
ball.

Both kinds share one frame, ``_Layered``: two bounds named in the class's
``bounds``, layers of sorted index arrays, and their count ``m``.  So one
reader and one writer serve both JSON documents, one report set-up and one
diameter check serve both verifiers, and one verified step serves both
conversions.

Verifiers are exhaustive, never sampled: a verifier that guesses is not a
verifier.  They refuse spaces beyond 20000 points rather than silently
degrade.  Every failed condition yields a concrete witness that can be
re-checked in isolation; a report keeps the first ``_WITNESS_LIMIT`` of
them in the order its verifier finds them, by layer, set, pair or member and
never by block (so not by the block budget), and counts the rest per condition.

The two conversion directions grow cover sets into clusters (plus singleton
balls for net members left over) and shrink each cluster to the points whose
ball stays inside it, with the radius bookkeeping

    (2R + r, D)-cover        ->  (R, 2R + 2r + D)-padded decomposition
    (R + 2r, D)-padded dec.  ->  (R, D)-cover

for nets with equal covering and separation radius r.

Padding and shrinking both ask whether an open ball lies inside a set, and
each asks it for all its (center, set) pairs at once: one blocked ball pass,
whose blocks key every ball point as ``set * n + point`` and look the keys
up among the sets' sorted keys in one ``searchsorted``.  Growing takes the
union of the same keys from one pass over every set's points.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .nets import Net
from .spaces import (FiniteMetricSpace, _ball_blocks, _balls, _dist_blocks, _set_diameters,
                     parse_fixture, set_diameter)

__all__ = [
    "Cover",
    "PaddedDecomposition",
    "VerificationReport",
    "VerificationFailure",
    "verify_cover",
    "verify_padded",
    "padded_from_cover",
    "cover_from_padded",
    "cover_to_json",
    "cover_from_json",
    "decomposition_to_json",
    "decomposition_from_json",
    "set_distance",
    "set_diameter",
    "shrink_set",
]

_VERIFY_MAX_POINTS = 20000


def _as_index_array(points, n: int) -> np.ndarray:
    """Sorted unique point ids of a set in a space of ``n`` points, in a new
    array.  An integer array already strictly increasing within 0..n-1 (as
    the converters build their sets) is copied without the float check and
    the sort; anything else goes through :func:`_point_ids`."""
    if isinstance(points, np.ndarray) and points.ndim == 1 and points.dtype.kind in "iu":
        if not len(points) or (points[0] >= 0 and points[-1] < n
                               and (points[1:] > points[:-1]).all()):
            return points.astype(np.intp)
    return np.unique(_point_ids(points, n))


_BOUND = "a finite number >= 0"  # the rule of every radius and diameter bound


class _Layered:
    """The frame of both kinds: two bounds, named in ``bounds`` and read as
    finite numbers >= 0, and layers of sorted index arrays, ``m`` of them."""

    bounds = ()

    def __post_init__(self):
        for name in self.bounds:
            setattr(self, name, _number(getattr(self, name), name, _BOUND, low=0))
        self.layers = [[_as_index_array(s, self.space.n) for s in layer]
                       for layer in self.layers]

    @property
    def m(self) -> int:
        return len(self.layers)


@dataclass
class Cover(_Layered):
    """Layered family of separated, bounded point sets covering the space."""

    space: FiniteMetricSpace
    layers: list  # list of layers; each layer is a list of index arrays
    r_disjoint: float
    D_bound: float

    bounds = ("r_disjoint", "D_bound")


@dataclass
class PaddedDecomposition(_Layered):
    """Layered clusters partitioning a net, with padding parameters (R, D)."""

    net: Net
    layers: list  # list of layers; each layer is a list of index arrays
    R: float
    D: float

    bounds = ("R", "D")

    @property
    def space(self) -> FiniteMetricSpace:
        return self.net.space


class VerificationFailure(RuntimeError):
    """An operation required a verified object and verification said no."""

    def __init__(self, message: str, report: "VerificationReport"):
        super().__init__(f"{message}: first witnesses {report.witnesses[:3]}")
        self.report = report


_WITNESS_LIMIT = 1000  # witnesses a report keeps; the others are only counted


@dataclass
class VerificationReport:
    """Outcome of an exhaustive check: per-condition verdicts plus witnesses.

    ``witnesses`` holds the first ``_WITNESS_LIMIT`` witnesses the verifier
    finds and ``omitted`` counts the later ones per condition, so a failing
    check holds memory bounded by the limit however many failures it finds."""

    kind: str
    parameters: dict
    conditions: dict
    witnesses: list = field(default_factory=list)
    omitted: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def fail(self, condition: str, **witness):
        """Record a witness against ``condition``; past ``_WITNESS_LIMIT``, only count it."""
        self.conditions[condition] = False
        if len(self.witnesses) < _WITNESS_LIMIT:
            self.witnesses.append({"condition": condition, **witness})
        else:
            self.omitted[condition] = self.omitted.get(condition, 0) + 1

    def to_jsonable(self) -> dict:
        """The report as JSON values; ``omitted_witnesses`` is present only
        when some witness was left out."""
        doc = {
            "kind": self.kind,
            "parameters": self.parameters,
            "conditions": self.conditions,
            "passed": self.passed,
            "witnesses": self.witnesses,
        }
        if self.omitted:
            doc["omitted_witnesses"] = self.omitted
        return doc


def set_distance(space: FiniteMetricSpace, a, b) -> float:
    """min distance between two point sets; +inf if either is empty."""
    pair = [np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)]
    return next((d for _, _, d in _close_pairs(space, pair, math.inf)), math.inf)


def _report(kind: str, obj, conditions, **extra) -> VerificationReport:
    """The all-passing report of a cover or decomposition, whose parameters
    are its bounds, ``m``, ``n_points`` and ``extra``; a space beyond
    ``_VERIFY_MAX_POINTS`` points is refused."""
    n = obj.space.n
    if n > _VERIFY_MAX_POINTS:
        raise ValueError(
            f"exhaustive verification is limited to {_VERIFY_MAX_POINTS} points, got {n}")
    parameters = {**{b: getattr(obj, b) for b in obj.bounds}, "m": obj.m, "n_points": n}
    return VerificationReport(kind, {**parameters, **extra}, dict.fromkeys(conditions, True))


def _check_diameters(report, space, i: int, layer, bound: float):
    """A diameter witness for each set of layer ``i`` wider than ``bound``,
    from one pass over the layer's sets."""
    diameters = _set_diameters(space, layer)
    for s_id in np.nonzero(diameters > bound)[0]:
        report.fail("diameter", layer=i, set=int(s_id), diameter=float(diameters[s_id]),
                    bound=bound)


def _close_pairs(space, layer, r: float):
    """Each pair of sets of a layer within ``r`` of each other, as ``(a, b,
    distance)`` with ``a < b``, from each set's blocked column minima over the
    later sets' points; an empty set is in no pair."""
    ids = [i for i, s in enumerate(layer) if len(s)]
    pts = np.concatenate([np.empty(0, np.intp)] + [layer[i] for i in ids])
    starts = np.cumsum([0] + [len(layer[i]) for i in ids])
    for k, a in enumerate(ids[:-1]):
        later = starts[k + 1]
        colmin = np.full(len(pts) - later, np.inf)
        for _, sub in _dist_blocks(space, layer[a], pts[later:]):
            np.minimum(colmin, sub.min(axis=0), out=colmin)
            del sub  # before the next block is read
        setmin = np.minimum.reduceat(colmin, starts[k + 1:-1] - later)
        for j in np.nonzero(setmin <= r)[0]:
            yield a, ids[k + 1 + j], float(setmin[j])


def verify_cover(cover: Cover) -> VerificationReport:
    """Exhaustively check separation, boundedness and coverage, with witnesses."""
    space = cover.space
    report = _report("cover", cover, ("disjointness", "diameter", "coverage"))
    for i, layer in enumerate(cover.layers):
        for a, b, distance in _close_pairs(space, layer, cover.r_disjoint):
            report.fail("disjointness", layer=i, sets=[a, b], distance=distance,
                        required_exceeding=cover.r_disjoint)
        _check_diameters(report, space, i, layer, cover.D_bound)
    covered = np.zeros(space.n, dtype=bool)
    for layer in cover.layers:
        for s in layer:
            covered[s] = True
    for p in np.nonzero(~covered)[0]:
        report.fail("coverage", point=int(p))
    return report


def _holder_index(layer):
    """Point -> holder lookup of a layer: its points sorted, beside the set
    holding each (in ascending set order for a point held twice)."""
    pts = np.concatenate([np.empty(0, np.intp)] + layer)
    holder = np.repeat(np.arange(len(layer)), [len(s) for s in layer])
    order = np.argsort(pts, kind="stable")
    return pts[order], holder[order]


def _ranges(starts, lengths) -> np.ndarray:
    """The concatenation of ``arange(s, s + k)`` over ``zip(starts, lengths)``."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _balls_inside(space, centers, r: float, sets, pair_center, pair_sets) -> np.ndarray:
    """Whether the open ``r``-ball of ``centers[pair_center[j]]`` lies inside
    the sorted set ``sets[pair_sets[j]]``, for each pair ``j`` (``pair_center``
    nondecreasing).  Each ball block keys its (pair, ball point) entries as
    ``set * n + point`` and finds them in the sets' keys in one ``searchsorted``.
    """
    keys = (np.repeat(np.arange(len(sets)) * space.n, [len(s) for s in sets])
            + np.concatenate([np.empty(0, np.intp)] + sets))
    pair_starts = np.searchsorted(pair_center, np.arange(len(centers) + 1))
    inside = np.empty(len(pair_sets), dtype=bool)
    for positions, ids, starts in _ball_blocks(space, centers, r):
        counts = pair_starts[positions + 1] - pair_starts[positions]
        pairs = _ranges(pair_starts[positions], counts)
        row = np.repeat(np.arange(len(positions)), counts)
        sizes = starts[row + 1] - starts[row]
        q = np.repeat(pair_sets[pairs] * space.n, sizes) + ids[_ranges(starts[row], sizes)]
        found = keys[np.minimum(np.searchsorted(keys, q), len(keys) - 1)] == q
        misses = np.repeat(np.arange(len(pairs)), sizes)[~found]
        inside[pairs] = np.bincount(misses, minlength=len(pairs)) == 0
    return inside


def verify_padded(pd: PaddedDecomposition) -> VerificationReport:
    """Exhaustively check the three padded-decomposition conditions of ``pd``.

    1. each layer's clusters cover the net and are pairwise disjoint *on net
       members* (overlap off the net is allowed);
    2. every cluster has diameter at most D;
    3. every net member has some layer with a cluster containing its whole
       open R-ball.
    """
    space, net, layers, R, D = pd.space, pd.net, pd.layers, pd.R, pd.D
    if not layers:
        raise ValueError("need at least one layer")
    report = _report("padded_decomposition", pd, ("net_partition", "diameter", "padding"),
                     net_size=len(net.members))
    index = []  # per layer: the holder of each key, and each member's [lo, hi) span
    for i, layer in enumerate(layers):
        keys, holder = _holder_index(layer)
        lo, hi = (np.searchsorted(keys, net.members, side) for side in ("left", "right"))
        index.append((holder, lo, hi))
        for pos in np.nonzero(hi - lo != 1)[0]:  # uncovered or held twice
            sets = [int(o) for o in holder[lo[pos]:hi[pos]]]
            report.fail("net_partition", layer=i, member=int(net.members[pos]),
                        **({"problem": "overlap", "sets": sets} if sets else
                           {"problem": "uncovered"}))
        _check_diameters(report, space, i, layer, D)
    # Pair every member with each set holding it, sets numbered across layers;
    # a member is padded iff its R-ball lies inside one of them.
    T = len(net.members)
    base = np.cumsum([0] + [len(layer) for layer in layers])
    member_of = np.concatenate([np.repeat(np.arange(T), hi - lo) for _, lo, hi in index])
    set_of = np.concatenate([b + holder[_ranges(lo, hi - lo)]
                             for b, (holder, lo, hi) in zip(base, index)])
    by_member = np.argsort(member_of, kind="stable")
    member_of, set_of = member_of[by_member], set_of[by_member]
    sets = [s for layer in layers for s in layer]
    padded = np.zeros(T, dtype=bool)
    padded[member_of[_balls_inside(space, net.members, R, sets, member_of, set_of)]] = True
    for pos in np.nonzero(~padded)[0]:
        x = net.members[pos]
        if len(report.witnesses) >= _WITNESS_LIMIT:  # the report only counts it
            report.fail("padding")
            continue
        ball = space.ball(int(x), R)
        held = [(i, s_id) for i, (holder, lo, hi) in enumerate(index)
                for s_id in holder[lo[pos]:hi[pos]]]
        escaping = [{"layer": int(i), "set": int(s_id), "outside_points":
                     [int(p) for p in ball[~np.isin(ball, layers[i][s_id])][:5]]}
                    for i, s_id in held]
        report.fail("padding", member=int(x), R=R, closest_misses=escaping[:4])
    return report


def _grown(space: FiniteMetricSpace, sets, R: float) -> list:
    """The open ``R``-neighborhood of each set: the union of its points'
    balls, from one blocked ball pass that keys each ball point as
    ``set * n + point``.  Pending keys are merged whenever they outgrow the
    merged ones by ``n``, so at most about twice the union is held."""
    points = np.concatenate([np.empty(0, np.intp)] + sets)
    offsets = np.repeat(np.arange(len(sets)) * space.n, [len(s) for s in sets])
    keys, pending = [np.empty(0, np.intp)], 0
    for positions, ids, starts in _ball_blocks(space, points, R):
        keys.append(np.unique(np.repeat(offsets[positions], np.diff(starts)) + ids))
        pending += len(keys[-1])
        if pending > len(keys[0]) + space.n:
            keys, pending = [np.unique(np.concatenate(keys))], 0
    keys = np.unique(np.concatenate(keys))
    bounds = np.searchsorted(keys, np.arange(len(sets) + 1) * space.n)
    return [keys[a:b] - k * space.n for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def _net_scale(net: Net) -> float:
    """The scale r of a net whose covering and separation radii are both r."""
    if net.eps != net.delta:
        raise ValueError("conversion requires a net with eps == delta")
    return net.eps


def _verified(obj, verify, message: str):
    """``obj`` once ``verify`` passes it; else ``VerificationFailure(message)``."""
    report = verify(obj)
    if not report.passed:
        raise VerificationFailure(message, report)
    return obj


def padded_from_cover(cover: Cover, net: Net, R: float) -> PaddedDecomposition:
    """Grow a verified (2R + r, D)-cover into an (R, 2R + 2r + D)-padded
    decomposition: each cover set becomes its open R-neighborhood, and net
    members missed by a layer get their own open r-ball."""
    r = _net_scale(net)
    space = cover.space
    if space is not net.space:
        raise ValueError("cover and net live on different spaces")
    R = _number(R, "R", _BOUND, low=0)
    if cover.r_disjoint < 2 * R + r:
        raise ValueError(f"cover separation {cover.r_disjoint} is below the "
                         f"required 2R + r = {2 * R + r}")
    _verified(cover, verify_cover, "input cover fails verification")
    grown = iter(_grown(space, [s for layer in cover.layers for s in layer], R))
    out_layers = []
    for layer in cover.layers:
        sets = [next(grown) for _ in layer]
        hit = np.zeros(space.n, dtype=bool)
        for g in sets:
            hit[g] = True
        out_layers.append(sets + _balls(space, net.members[~hit[net.members]], r))
    return _verified(PaddedDecomposition(net, out_layers, R=R, D=2 * R + 2 * r + cover.D_bound),
                     verify_padded, "constructed decomposition fails verification")


def _shrink_layer(space: FiniteMetricSpace, layer, margin: float) -> list:
    """Each sorted set of a layer cut down to the points whose open
    ``margin``-ball lies inside it, from one blocked ball pass over the layer."""
    if math.isnan(margin):
        raise ValueError("shrink margin is NaN")
    sizes = [len(s) for s in layer]
    centers = np.concatenate([np.empty(0, np.intp)] + layer)
    keep = _balls_inside(space, centers, margin, layer, np.arange(len(centers)),
                         np.repeat(np.arange(len(layer)), sizes))
    return [s[k] for s, k in zip(layer, np.split(keep, np.cumsum(sizes)[:-1]))]


def shrink_set(space: FiniteMetricSpace, points, margin: float) -> np.ndarray:
    """Points of the set at distance >= margin from its complement, i.e. whose
    open ``margin``-ball lies inside the set.

    The whole set survives when the complement is empty (distance to the
    empty set is +inf by convention)."""
    return _shrink_layer(space, [_as_index_array(points, space.n)], margin)[0]


def cover_from_padded(pd: PaddedDecomposition) -> Cover:
    """Shrink a verified (R + 2r, D)-padded decomposition over its net into an
    (R, D)-cover: each cluster keeps the points at distance >= R + r from its
    complement (all of them, when the complement is empty)."""
    r = _net_scale(pd.net)
    if pd.R < 3 * r:
        raise ValueError(f"padding radius {pd.R} must be at least 3r = {3 * r}")
    _verified(pd, verify_padded, "input decomposition fails verification")
    R_out = pd.R - 2 * r
    out_layers = [[s for s in _shrink_layer(pd.space, layer, R_out + r) if len(s)]
                  for layer in pd.layers]
    return _verified(Cover(pd.space, out_layers, r_disjoint=R_out, D_bound=pd.D),
                     verify_cover, "constructed cover fails verification")


# ---------------------------------------------------------------------------
# JSON documents, and the readers of every value that comes in from one
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """A value from a config, a document or an argument that breaks its rule."""


def _shown(value) -> str:
    """``value`` as JSON spells it, but a non-finite float or an int beyond
    float range in words."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value).replace("inf", "infinity")  # nan, infinity, -infinity
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return "an integer beyond float range"
    return json.dumps(value, default=repr)


def _number(value, name: str, rule: str | None = None, *, integer: bool = False,
            low: float | None = None, above: float | None = None):
    """``value`` read as a finite float, or as an int when ``integer``.

    Only an int or a float passes (numpy scalars too), never a bool or a
    string; an integer must be integral (``4.0`` reads as 4) and within
    float range.  ``low`` and ``above`` are inclusive and exclusive lower
    bounds.  A refusal raises ``ConfigError("<name> must be <rule>, got
    <value>")``, where a wrong type names "an integer" or "a finite number"
    whatever ``rule`` says."""
    if isinstance(value, np.generic):
        value = value.item()
    kind = "an integer" if integer else "a finite number"
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (integer and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be {kind}, got {_shown(value)}")
    if not (abs(value) <= sys.float_info.max  # finite, and an int with a float value
            and (low is None or value >= low) and (above is None or value > above)):
        raise ConfigError(f"{name} must be {rule or kind}, got {_shown(value)}")
    return int(value) if integer else float(value)


def _text(value, name: str) -> str:
    """``value`` read as a nonempty string, such as a fixture or an output path."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a nonempty string, got {_shown(value)}")
    return value


def _known_keys(doc: dict, name: str, keys):
    """Refuse a JSON object ``doc`` holding a key beyond ``keys``, those its reader reads."""
    unknown = [_shown(key) for key in doc if key not in keys]
    if unknown:
        raise ConfigError(f"{name} has unknown keys {', '.join(unknown)}; "
                          f"it reads {', '.join(map(_shown, keys))}")


def _point_ids(points, n: int) -> np.ndarray:
    """Point ids as an index array, checked to be integers in 0..n-1.  A list
    entry must be a number: a bool, a string, null or a nested list is
    refused whatever it holds."""
    if isinstance(points, (list, tuple)):
        for p in points:
            if isinstance(p, bool) or not isinstance(p, (int, float, np.integer, np.floating)):
                raise ConfigError(f"point ids must be integers in 0..{n - 1}, got {_shown(p)}")
        raw = np.asarray(points, dtype=float)
    else:
        raw = np.asarray(points)
        if raw.ndim == 0 or raw.dtype.kind not in "iuf":
            raise ConfigError(f"point ids must be a list of integers in 0..{n - 1}, "
                              f"got {_shown(points)}")
    bad = raw[(raw < 0) | (raw >= n) | (raw != np.round(raw))]
    if len(bad):
        raise ConfigError(f"point ids must be integers in 0..{n - 1}, got {bad[0]:g}")
    return raw.astype(np.intp)


def _read_layers(layers, n: int) -> list:
    """A document's layers as lists of index arrays, every id of every set
    read by one :func:`_point_ids` call."""
    if not (isinstance(layers, list) and all(
            isinstance(layer, list) and all(isinstance(s, list) for s in layer)
            for layer in layers)):
        raise ConfigError("layers must be a list of layers, each a list of point-id lists")
    ids = _point_ids([p for layer in layers for s in layer for p in s], n)
    sets = iter(np.split(ids, np.cumsum([len(s) for layer in layers for s in layer])[:-1]))
    return [[next(sets) for _ in layer] for layer in layers]


def _round_floats(obj):
    """Recursively cap floats at 12 significant digits for stable output.
    NaN and infinity have no JSON spelling (RFC 8259) and raise ``ValueError``."""
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"{float(obj)} has no JSON spelling")
        return float(format(float(obj), ".12g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def dump_json(obj, path=None) -> str:
    """The JSON text of ``obj`` with sorted keys and 12-significant-digit
    floats; a float without a JSON spelling raises ``ValueError`` before
    anything is written.  With a ``path``, the text streams into that file
    piece by piece, and the text returned is read back from it."""
    doc, options = _round_floats(obj), {"sort_keys": True, "indent": 1, "allow_nan": False}
    if path is None:
        return json.dumps(doc, **options) + "\n"
    with open(path, "w") as fh:
        json.dump(doc, fh, **options)
        fh.write("\n")
    with open(path) as fh:
        return fh.read()


def _document(kind: str, obj, fixture: str, **extra) -> dict:
    """The JSON document of a cover or decomposition: its kind, fixture,
    ``n_points``, ``m``, bounds, ``extra`` and layers."""
    return {"kind": kind, "fixture": fixture, "n_points": obj.space.n, "m": obj.m,
            **{b: getattr(obj, b) for b in obj.bounds}, **extra,
            "layers": [[s.tolist() for s in layer] for layer in obj.layers]}


def _read_document(doc, kind: str, *keys) -> tuple:
    """The space and the layers of a ``kind`` document, which holds no key but
    its kind, fixture, ``n_points``, ``m``, layers and ``keys``, and whose
    ``m`` counts its layers."""
    name = kind.replace("_", " ")
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValueError(f"not a {name} document")
    _known_keys(doc, f"a {name} document", ("kind", "fixture", "n_points", "m", *keys, "layers"))
    space = parse_fixture(_text(doc.get("fixture"), "fixture"))
    if space.n != _number(doc.get("n_points"), "n_points", integer=True):
        raise ValueError("fixture size mismatch")
    m = _number(doc.get("m"), "m", integer=True)
    layers = _read_layers(doc.get("layers"), space.n)
    if m != len(layers):
        raise ConfigError(f"m must be the layer count {len(layers)}, got {m}")
    return space, layers


def cover_to_json(cover: Cover, fixture: str) -> dict:
    return _document("cover", cover, fixture)


def cover_from_json(doc: dict) -> Cover:
    return Cover(*_read_document(doc, "cover", *Cover.bounds),
                 doc.get("r_disjoint"), doc.get("D_bound"))


def decomposition_to_json(pd: PaddedDecomposition, fixture: str) -> dict:
    net = {"members": [int(x) for x in pd.net.members], "eps": pd.net.eps,
           "delta": pd.net.delta}
    return _document("padded_decomposition", pd, fixture, net=net)


def decomposition_from_json(doc: dict) -> PaddedDecomposition:
    space, layers = _read_document(doc, "padded_decomposition", *PaddedDecomposition.bounds,
                                   "net")
    net_doc = doc.get("net")
    if not isinstance(net_doc, dict):
        raise ConfigError(f"net must be a JSON object, got {_shown(net_doc)}")
    _known_keys(net_doc, "net", ("members", "eps", "delta"))
    scale = [_number(net_doc.get(key), f"net {key}", "positive and finite", above=0)
             for key in ("eps", "delta")]
    members = _point_ids(net_doc.get("members"), space.n)
    ids, counts = np.unique(members, return_counts=True)
    if (counts > 1).any():
        raise ConfigError(f"net members must be distinct, got {ids[counts > 1][0]} repeated")
    net = Net(space, members, *scale)
    return PaddedDecomposition(net, layers, doc.get("R"), doc.get("D"))

"""Layer tracing of padlab from outside the program.

:func:`install` wraps the traced functions of every ``padlab`` module at each
module namespace that holds them (their import sites, so ``padlab.cli``'s
``build_net`` and ``padlab.nets.build_net`` record the same span) and the
distance methods of the space classes.  Each call leaves one :class:`Span`
in memory: name, layer, start, end, parent span and a few work counters.
:meth:`Tracer.restore` puts every wrapped attribute back.

:func:`layer_metrics` turns one process's spans into the per-layer figures
the benchmark reports; :func:`combine` and :func:`finalize` merge them over
the processes of one operation sequence.  Times are seconds, RSS rises are
MB of ``ru_maxrss`` high-water growth.
"""

from __future__ import annotations

import functools
import resource
import sys
import threading
import time

import numpy as np

LAYERS = ("spaces", "nets", "growth", "sampler", "carving", "decomposition", "lll", "cli")
DIST_METHODS = ("dist_row", "dist_block")
SPACE_CLASSES = ("FiniteMetricSpace", "CoordSpace", "MatrixSpace", "HeisenbergBall")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _dist_entries(name, args, kwargs):
    space = args[0]
    if name == "dist_row":
        return space.n
    rows = _arg(args, kwargs, 1, "rows")
    cols = _arg(args, kwargs, 2, "cols")
    return len(rows) * (space.n if cols is None else len(cols))


def _moser_tardos_counters(args, kwargs, result):
    net, csp = _arg(args, kwargs, 1, "net"), _arg(args, kwargs, 2, "csp")
    history = result.violated_history
    return {
        "rounds": result.rounds,
        "initial_draws": csp.m * len(net.members),
        "useful_rounds": sum(1 for a, b in zip(history, history[1:]) if b < a),
    }


# layer -> {function name: counters(args, kwargs, result) or None}
FUNCTIONS = {
    "spaces": {"parse_fixture": None, "validate_metric": None},
    "nets": {
        "build_net": lambda a, k, r: {"net_size": len(r)},
        "net_graph": lambda a, k, r: {"max_degree": r.max_degree},
    },
    "growth": {"doubling_constant_estimate": None, "growth_table": None},
    "sampler": {
        "sample_texp": lambda a, k, r: {"draws": int(np.size(r))},
        "sample_tgeo": lambda a, k, r: {"draws": int(np.size(r))},
    },
    "carving": {
        "greedy_color": lambda a, k, r: {"num_colors": r.num_colors},
        "carve": None,
        "cut_probability_mc": None,
        "draw_radii": None,
    },
    "decomposition": {
        "verify_padded": None,
        "verify_cover": None,
        "padded_from_cover": None,
        "cover_from_padded": None,
        "shrink_set": None,
        "set_diameter": None,
        "cover_from_json": None,
        "decomposition_from_json": None,
        "dump_json": lambda a, k, r: {"json_bytes": len(r.encode())},
    },
    "lll": {"moser_tardos": _moser_tardos_counters, "certify_decomposition": None},
    "cli": {name: None for name in ("cmd_gen", "cmd_carve", "cmd_cutprob", "cmd_growth",
                                    "cmd_convert", "cmd_lll_check")},
}
# (layer, class name, method name)
METHODS = [("spaces", cls, m) for cls in SPACE_CLASSES for m in DIST_METHODS] + [
    ("carving", "PartitionLayer", "write_csv"),
]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Span:
    __slots__ = ("name", "layer", "parent", "t0", "t1", "rss0", "rss1", "counters")

    def __init__(self, name, layer, parent, t0=0.0, t1=0.0, counters=None):
        self.name = name
        self.layer = layer
        self.parent = parent  # index into the span list, -1 for a root
        self.t0 = t0
        self.t1 = t1
        self.rss0 = self.rss1 = None  # set only on a layer's top-level spans
        self.counters = counters or {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans for every wrapped call; :meth:`restore` unwraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, name, layer, counters, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = Span(name, layer, parent)
        top = parent < 0 or self.spans[parent].layer != layer
        stack.append(len(self.spans))
        self.spans.append(span)
        if top:
            span.rss0 = _maxrss_kb()
        span.t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.t1 = time.perf_counter()
            stack.pop()
            if top:
                span.rss1 = _maxrss_kb()
        if counters is not None:
            span.counters = counters(args, kwargs, result)
        return result

    def wrap(self, fn, name, layer, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, layer, counters, args, kwargs)
        return traced

    def patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _dist_counters(name):
    return lambda args, kwargs, result: {"entries": _dist_entries(name, args, kwargs)}


def install() -> Tracer:
    """Import padlab's modules and wrap every traced function at all of its
    import sites, and the traced methods on their defining classes."""
    import padlab.cli  # noqa: F401  (imports every layer)

    tracer = Tracer()
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "padlab" or n.startswith("padlab."))]
    for layer, funcs in FUNCTIONS.items():
        home = sys.modules[f"padlab.{layer}"]
        for name, counters in funcs.items():
            original = getattr(home, name)
            traced = tracer.wrap(original, name, layer, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        tracer.patch(mod, attr, traced)
    for layer, cls_name, method in METHODS:
        cls = getattr(sys.modules[f"padlab.{layer}"], cls_name)
        if method in cls.__dict__:
            counters = _dist_counters(method) if method in DIST_METHODS else None
            tracer.patch(cls, method, tracer.wrap(cls.__dict__[method], method, layer, counters))
    return tracer


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children are clipped to the parent and merged, so
    overlapping children are not subtracted twice)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, end = 0.0, s.t0
        for c in sorted(children[i], key=lambda c: spans[c].t0):
            a, b = max(spans[c].t0, end), min(spans[c].t1, s.t1)
            if b > a:
                covered += b - a
                end = b
        out.append(s.duration - covered)
    return out


def _has_ancestor(spans, i, pred) -> bool:
    p = spans[i].parent
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p].parent
    return False


# per-layer metric -> how values from several processes merge
MAX_KEYS = {"nets.net_size", "nets.max_degree", "carving.num_colors"} | {
    f"{layer}.rss_rise_mb" for layer in LAYERS}
# inputs of derived metrics; merged by sum, removed by finalize
RAW_KEYS = ("lll.useful_rounds",)


def layer_metrics(spans) -> dict:
    """Per-layer figures of one process's spans (see BENCHMARK.json)."""
    selfs = self_times(spans)
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    def bigger(key, value):
        m[key] = max(m.get(key, 0), value)

    for i, s in enumerate(spans):
        c = s.counters
        if s.name in DIST_METHODS:
            if s.parent < 0 or spans[s.parent].name not in DIST_METHODS:
                add("spaces.dist_s", s.duration)
                add("spaces.dist_calls", 1)
                add("spaces.dist_entries", c["entries"])
        elif s.name in ("parse_fixture", "validate_metric", "build_net", "greedy_color",
                        "carve", "draw_radii", "write_csv", "verify_padded", "verify_cover",
                        "shrink_set", "dump_json", "doubling_constant_estimate",
                        "growth_table"):
            add(f"{s.layer}.{s.name}_s", s.duration)
        elif s.name in ("cut_probability_mc", "moser_tardos", "certify_decomposition",
                        "padded_from_cover", "cover_from_padded"):
            add(f"{s.layer}.{s.name}_s", selfs[i])
        elif s.name in ("cover_from_json", "decomposition_from_json"):
            add("decomposition.from_json_s", s.duration)
        elif s.name == "net_graph":
            add("nets.net_graph_s", s.duration)
        elif s.name.startswith("cmd_"):
            add("cli.self_s", selfs[i])
        elif s.layer == "sampler":
            add("sampler.sample_s", s.duration)
            add("sampler.draws", c["draws"])
            if _has_ancestor(spans, i, lambda p: p.name == "moser_tardos"):
                add("lll.resampled_radii", c["draws"])
        if s.name in ("greedy_color", "carve", "net_graph", "shrink_set"):
            add(f"{s.layer}.{s.name}_calls", 1)
        elif s.name == "set_diameter":
            add("decomposition.set_diameter_calls", 1)
        elif s.name == "moser_tardos":
            add("lll.rounds", c["rounds"])
            add("lll.useful_rounds", c["useful_rounds"])
            add("lll.resampled_radii", -c["initial_draws"])
        for key in ("net_size", "max_degree", "num_colors"):
            if key in c:
                bigger(f"{s.layer}.{key}", c[key])
        if "json_bytes" in c:
            add("decomposition.json_bytes", c["json_bytes"])
        if s.rss0 is not None:
            add(f"{s.layer}.rss_rise_mb", (s.rss1 - s.rss0) / 1024.0)
    return m


def combine(parts) -> dict:
    """Merge the figures of several processes: sums, except sizes and RSS
    rises, which take the largest single-process value."""
    out = {}
    for part in parts:
        for key, value in part.items():
            if key in MAX_KEYS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def finalize(m: dict, names) -> dict:
    """Derived figures, then every metric in ``names`` (0 where the layer did
    no work on this workload)."""
    m = dict(m)
    rounds = m.get("lll.rounds", 0)
    m["lll.round_s"] = m.get("lll.moser_tardos_s", 0.0) / rounds if rounds else 0.0
    m["lll.useful_round_frac"] = m.get("lll.useful_rounds", 0) / rounds if rounds else 0.0
    m["spaces.dist_bytes_computed"] = 8 * m.get("spaces.dist_entries", 0)
    return {name: m.get(name, 0) for name in names}

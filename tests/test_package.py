import ast
import functools
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys

import padlab as pl
from padlab import carving, decomposition, nets, spaces
from padlab.cli import build_parser

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _perfbench_module(name):
    """A ``perfbench/`` script loaded as a module without putting the
    directory on the import path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(dotted) -> bool:
    """Whether a dotted name is a module or an attribute chain off one."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_public_names_resolve():
    """``padlab.__all__`` joins the submodules' lists: every name is listed
    once and importable from the package."""
    assert len(set(pl.__all__)) == len(pl.__all__)
    assert [name for name in pl.__all__ if not hasattr(pl, name)] == []


def test_each_space_implements_only_dist_block():
    """``dist_block`` is the one distance kernel: every concrete space in
    ``padlab.spaces`` defines it, and none defines its own ``dist_row``."""
    classes = [c for c in vars(spaces).values() if isinstance(c, type)
               and issubclass(c, spaces.FiniteMetricSpace) and c is not spaces.FiniteMetricSpace]
    assert classes
    assert [c.__name__ for c in classes if "dist_block" not in vars(c)] == []
    assert [c.__name__ for c in classes if "dist_row" in vars(c)] == []


def test_schedules_and_laws_answer_for_their_own_kind():
    """Each kind of run schedule round-trips through its JSON and owns its
    local-lemma budget; each law owns its window, its draws and their storage
    type; the CLI and the carving layer hold no schedule or law class, so
    neither tells the kinds apart."""
    from padlab import carving, cli, lll, sampler

    examples = {"texp": pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=100.0),
                "tgeo": pl.TgeoRun(b=1.0, p=0.0025, M=9585, m=2, r=9.0)}
    assert set(lll._SCHEDULES) == set(examples)
    for kind, cls in lll._SCHEDULES.items():
        schedule = examples[kind]
        assert type(schedule) is cls and cls.kind == kind
        doc = pl.schedule_to_json(schedule)
        assert doc["kind"] == kind and pl.schedule_from_json(doc) == schedule
    texp, tgeo = examples["texp"], examples["tgeo"]
    assert texp.budget() == pl.texp_csp_bounds(texp)
    assert tgeo.budget() == pl.tgeo_csp_bounds(tgeo.b, tgeo.r, tgeo.m, tgeo.p, tgeo.M)
    laws = (sampler.TexpParams, sampler.TgeoParams)
    assert all({"window", "sample", "dtype"} <= set(vars(c)) for c in laws)
    kinds = laws + (pl.TexpSchedule, pl.TgeoRun, pl.TgeoSchedule)
    for module in (cli, carving):
        assert [name for name, value in vars(module).items()
                if any(value is k for k in kinds)] == []


def test_no_public_signature_passes_an_argument_twice():
    """A net fixes its space, and a coloring or a padded decomposition fixes
    its net, so no public signature takes ``space`` beside ``net`` or
    ``coloring``, nor ``net`` beside ``pd`` or ``coloring``.  A padded
    decomposition also fixes its layers and its (R, D), so no public
    function takes ``layers`` beside ``net``, nor ``R`` or ``D`` beside
    ``pd``; a class takes them to build one."""
    redundant = {"space": {"net", "coloring"}, "net": {"pd", "coloring"}}
    decomposed = {"layers": {"net"}, "R": {"pd"}, "D": {"pd"}}
    doubled = []
    for name in pl.__all__:
        obj = getattr(pl, name)
        is_class = isinstance(obj, type)
        try:
            params = set(inspect.signature(obj.__init__ if is_class else obj).parameters)
        except (TypeError, ValueError):  # a builtin without a signature
            continue
        rules = redundant if is_class else {**redundant, **decomposed}
        if any(key in params and params & owners for key, owners in rules.items()):
            doubled.append(name)
    assert doubled == []


def test_benchmark_tracer_reads_the_resampler_by_name():
    """``certify_decomposition`` calls ``moser_tardos`` by name, so the
    benchmark's tracer, which reads ``net`` and ``csp`` at their names when
    no position holds them, counts the run's rounds and its m * |net|
    initial draws."""
    tracer = _perfbench_module("tracer").install()
    try:
        net = pl.build_net(pl.integer_segment(600), 3, 3)
        run = pl.certify_decomposition(net, pl.TexpSchedule(N=3, r=3.0, eps=0.05, D=100.0), 0)
    finally:
        tracer.restore()
    assert run.report.passed
    [span] = [s for s in tracer.spans if s.name == "moser_tardos"]
    assert span.counters["rounds"] == run.meta["rounds"]
    assert span.counters["initial_draws"] == run.meta["m"] * len(net)


def test_benchmark_wraps_existing_names():
    """Every function and method the benchmark's tracer wraps is still
    defined in its ``padlab.<layer>`` module, so deleting or renaming one
    fails here rather than in every benchmark op."""
    tracer = _perfbench_module("tracer")
    names = [f"padlab.{layer}.{name}" for layer, names in tracer.FUNCTIONS.items()
             for name in names]
    names += [f"padlab.{layer}.{cls}.{method}" for layer, cls, method in tracer.METHODS]
    assert [name for name in names if not _resolves(name)] == []


def test_benchmark_command_lines_parse(tmp_path):
    """Every CLI op of every benchmark workload, global ``--threads 1``
    included, parses with the program's own parser."""
    workloads = _perfbench_module("workloads")
    parsed = 0
    for name, plan_of in workloads.WORKLOADS.items():
        plan = plan_of(0, str(tmp_path))
        for op in plan.prep + plan.ops:
            if op.spec["kind"] == "cli":
                args = build_parser().parse_args(op.spec["argv"])
                assert args.threads == 1 and callable(args.func), (name, op.key)
                parsed += 1
    assert parsed


def test_padlab_runs_in_one_thread():
    """No module of ``padlab`` imports a thread or process pool, and a fresh
    ``import padlab.cli`` loads neither ``concurrent.futures`` nor the
    ``logging`` it pulls in (~0.75 MB and 6-8 ms a process)."""
    package = os.path.dirname(os.path.abspath(pl.__file__))
    imported = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                for node in ast.walk(ast.parse(fh.read())):
                    if isinstance(node, ast.Import):
                        imported.update(a.name for a in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        imported.add(node.module)
    pools = {"concurrent", "concurrent.futures", "threading", "multiprocessing"}
    assert imported & pools == set()
    code = ("import sys, padlab.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(package)},
                          timeout=120)
    assert proc.stdout.strip() == "[]", proc.stderr[-2000:]


def _padlab_names(source):
    """The dotted padlab names a script imports, or reads off a padlab module
    it imported (``padlab.cli.main``, ``spaces.parse_fixture``)."""
    nodes = list(ast.walk(ast.parse(source)))
    modules, names = {}, []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.startswith("padlab")]
            modules.update({"padlab": "padlab" for a in node.names
                            if a.name.startswith("padlab") and not a.asname})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("padlab"):
            names += [f"{node.module}.{a.name}" for a in node.names]
            modules.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    for node in nodes:
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in modules:
                names.append(".".join([modules[node.id]] + chain))
    return names


def test_benchmark_scripts_import_existing_names():
    """The padlab names that ``perfbench/inputs.py`` and ``perfbench/child.py``
    import or read off an imported module all exist."""
    names = []
    for script in ("inputs", "child"):
        with open(os.path.join(PERFBENCH, f"{script}.py")) as fh:
            names += _padlab_names(fh.read())
    assert {"padlab.cli.main", "padlab.decomposition.verify_cover",
            "padlab.spaces.parse_fixture"} <= set(names)
    assert [name for name in names if not _resolves(name)] == []


def _readers(attr):
    """``(module, top-level name)`` of every top-level statement of ``padlab``
    that names ``attr``, bare or as an attribute (``None`` for a statement
    with no name, such as an assignment)."""
    package = os.path.dirname(os.path.abspath(pl.__file__))
    readers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == attr
                        or isinstance(node, ast.Attribute) and node.attr == attr):
                    readers.add((name[:-3], getattr(top, "name", None)))
    return readers


def test_only_the_reader_and_the_probe_set_up_ask_for_near_members():
    """Radius-bounded blocks are sized in one place: outside ``spaces`` (whose
    ``_near_blocks`` is the one reader), only cutprob's probe set-up calls
    ``_near_members``, once per probe ball and chunk of trials, because its
    nearest and farthest distances run over the whole ball."""
    callers = _readers("_near_members")
    assert {caller for caller in callers if caller[0] != "spaces"} == {
        ("carving", "_probe_setup")}
    assert ("spaces", "_near_blocks") in callers


def test_only_the_block_shape_reads_the_block_budget():
    """Every blocked buffer has one shape: besides the constant's definition,
    only ``spaces._block_rows`` reads ``_BLOCK_ENTRIES``, and the two readers,
    the set diameters' pass, the cut probes' radii chunk and the sampled
    triples' chunk call it."""
    assert _readers("_BLOCK_ENTRIES") == {("spaces", None), ("spaces", "_block_rows")}
    assert {("spaces", "_dist_blocks"), ("spaces", "_near_blocks"),
            ("spaces", "_set_diameters"), ("carving", "cut_probability_mc"),
            ("spaces", "validate_metric")} <= _readers("_block_rows")


def test_covers_and_decompositions_share_one_frame():
    """``Cover`` and ``PaddedDecomposition`` read their bounds and layers and
    count their layers in one base, and inside ``decomposition.py`` set
    diameters are read only by ``_check_diameters``, in one pass per layer
    through ``spaces._set_diameters``: nothing calls ``set_diameter`` set by
    set."""
    for cls in (pl.Cover, pl.PaddedDecomposition):
        assert [name for name in ("__post_init__", "m") if name in vars(cls)] == []
        assert cls.__mro__[1] is decomposition._Layered
    with open(decomposition.__file__) as fh:
        tree = ast.parse(fh.read())
    calls = {(top.name, node.func.id) for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("set_diameter", "_set_diameters")}
    assert calls == {("_check_diameters", "_set_diameters")}


def test_only_the_sweep_and_the_net_build_a_member_index():
    """A net indexes its members once: inside ``padlab`` only the sweep (whose
    index grows as it admits members) and ``Net.position_of`` assign a
    ``position_of``, and the passes over a finished net take the net, not a
    space and a member list."""
    assert isinstance(vars(pl.Net)["position_of"], functools.cached_property)
    package = os.path.dirname(os.path.abspath(pl.__file__))
    indexers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                           else [])
                if any(isinstance(part, ast.Name) and part.id == "position_of"
                       or isinstance(part, ast.Attribute) and part.attr == "position_of"
                       for target in targets for part in ast.walk(target)):
                    indexers.add((name[:-3], func.name))
    assert indexers == {("nets", "build_net"), ("nets", "position_of")}
    for fn in (nets._band_pass, carving._owner_blocks, carving._owner_table):
        params = list(inspect.signature(fn).parameters)
        assert params[0] == "net" and not {"space", "members"} & set(params), fn.__name__

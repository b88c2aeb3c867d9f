import padlab as pl
from padlab import spaces


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
    local-lemma budget; each law owns its window and its draws; the CLI and
    the carving layer hold no schedule or law class, so neither tells the
    kinds apart."""
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
    assert all("window" in vars(c) and "sample" in vars(c) for c in laws)
    kinds = laws + (pl.TexpSchedule, pl.TgeoRun, pl.TgeoSchedule)
    for module in (cli, carving):
        assert [name for name, value in vars(module).items()
                if any(value is k for k in kinds)] == []

"""The span arithmetic and the wrapping done by perfbench/tracer.py."""

import inspect
import sys

import pytest

import tracer
from tracer import Span


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        Span("cmd_carve", "cli", -1, 0.0, 10.0),
        Span("moser_tardos", "lll", 0, 1.0, 4.0),
        Span("build_net", "nets", 0, 3.0, 6.0),    # overlaps the previous child
        Span("dump_json", "decomposition", 0, 8.0, 12.0),  # runs past its parent
        Span("sample_texp", "sampler", 1, 2.0, 3.0, {"draws": 7}),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_metrics_of_a_synthetic_tree():
    spans = [
        Span("cmd_carve", "cli", -1, 0.0, 10.0),
        Span("moser_tardos", "lll", 0, 1.0, 5.0,
             {"rounds": 4, "initial_draws": 10, "useful_rounds": 3}),
        Span("sample_texp", "sampler", 1, 1.5, 2.0, {"draws": 10}),
        Span("sample_texp", "sampler", 1, 2.5, 3.0, {"draws": 6}),
        Span("dist_block", "spaces", 1, 3.0, 4.0, {"entries": 50}),
        Span("dist_row", "spaces", 4, 3.1, 3.2, {"entries": 5}),  # nested: not counted
        Span("dist_row", "spaces", 0, 6.0, 6.5, {"entries": 5}),
    ]
    m = tracer.finalize(tracer.layer_metrics(spans),
                        ["cli.self_s", "lll.moser_tardos_s", "lll.rounds", "lll.round_s",
                         "lll.resampled_radii", "lll.useful_round_frac", "sampler.draws",
                         "spaces.dist_s", "spaces.dist_calls", "spaces.dist_entries",
                         "spaces.dist_bytes_computed", "nets.build_net_s"])
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 0.5)
    assert m["lll.moser_tardos_s"] == pytest.approx(4.0 - 1.0 - 1.0)
    assert m["lll.round_s"] == pytest.approx(2.0 / 4)
    assert (m["lll.rounds"], m["lll.resampled_radii"], m["sampler.draws"]) == (4, 6, 16)
    assert m["lll.useful_round_frac"] == 0.75
    assert m["spaces.dist_s"] == pytest.approx(1.5)
    assert (m["spaces.dist_calls"], m["spaces.dist_entries"]) == (2, 55)
    assert m["spaces.dist_bytes_computed"] == 440
    assert m["nets.build_net_s"] == 0


def test_combine_sums_work_and_keeps_largest_size():
    merged = tracer.combine([{"nets.net_size": 5, "nets.build_net_s": 1.0},
                             {"nets.net_size": 3, "nets.build_net_s": 2.0}])
    assert merged == {"nets.net_size": 5, "nets.build_net_s": 3.0}


def _padlab_attributes():
    """Every attribute of every padlab module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "padlab" or name.startswith("padlab."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if inspect.isclass(value) and value.__module__.startswith("padlab"):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    import padlab.cli

    before = _padlab_attributes()
    t = tracer.install()
    try:
        assert padlab.cli.build_net is not before[("padlab.cli", "build_net")]
        assert padlab.nets.build_net is padlab.cli.build_net
        code = padlab.cli.main(["gen", "--fixture", "segment:40", "--out",
                                str(tmp_path / "seg.txt")])
    finally:
        t.restore()
    assert code == 0
    after = _padlab_attributes()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = {s.name for s in t.spans}
    assert {"cmd_gen", "parse_fixture", "dist_row", "build_net", "dump_json"} <= names

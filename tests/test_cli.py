import argparse
import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import padlab as pl
from padlab import cli, decomposition, spaces
from padlab.cli import _threads, main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestGen:
    def test_segment_points_and_sidecar(self, tmp_path):
        out = str(tmp_path / "seg.txt")
        assert main(["gen", "--fixture", "segment:100", "--out", out]) == 0
        lines = [ln for ln in open(out)]
        assert len(lines) == 101
        sidecar = json.load(open(out + ".json"))
        assert sidecar["doubling_estimate_lower"] == 3
        assert sidecar["n"] == 101 and sidecar["format"] == "points"

    def test_heisenberg_edge_file(self, tmp_path):
        out = str(tmp_path / "heis.txt")
        assert main(["gen", "--fixture", "heis:1", "--out", out]) == 0
        sidecar = json.load(open(out + ".json"))
        assert sidecar["n"] == 5 and sidecar["format"] == "edges"
        edges = [tuple(map(int, ln.split())) for ln in open(out)]
        assert len(edges) == 4  # identity joined to each generator

    def test_grid_sidecar_diameter(self, tmp_path):
        out = str(tmp_path / "grid.txt")
        assert main(["gen", "--fixture", "grid:10x10:linf", "--out", out]) == 0
        sidecar = json.load(open(out + ".json"))
        assert sidecar["n"] == 100 and sidecar["diameter"] == 9.0

    def test_generated_points_reload(self, tmp_path):
        out = str(tmp_path / "cloud.txt")
        main(["gen", "--fixture", "cloud:30:2:seed=4", "--out", out])
        reloaded = pl.load_points(out, "l2")
        original = pl.parse_fixture("cloud:30:2:seed=4")
        assert reloaded.n == original.n
        # coordinates are written with 12 significant digits
        assert np.allclose(reloaded.coords, original.coords, atol=1e-9)

    def test_unknown_fixture_is_usage_error(self, tmp_path):
        assert main(["gen", "--fixture", "blob:9", "--out", str(tmp_path / "x")]) == 2

    def test_tree_edge_file_reloads_to_same_metric(self, tmp_path):
        out = str(tmp_path / "tree.txt")
        assert main(["gen", "--fixture", "tree:2:3", "--out", out]) == 0
        reloaded = pl.load_edge_list(out)
        original = pl.parse_fixture("tree:2:3")
        assert reloaded.n == original.n
        assert np.array_equal(reloaded.distance_matrix(), original.distance_matrix())

    def test_heisenberg_edge_file_reloads_to_its_graph_metric(self, tmp_path):
        """``load_edge_list``'s one shortest-path routine reads the ``heis:4``
        edge file to the hop metric of an independent BFS.  That metric is
        the ball's word metric on edges and from the identity (geodesics from
        the identity stay in the ball), and never below it elsewhere (other
        geodesics may leave the ball)."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import shortest_path

        out = str(tmp_path / "heis.txt")
        assert main(["gen", "--fixture", "heis:4", "--out", out]) == 0
        reloaded = pl.load_edge_list(out).distance_matrix()
        ball = pl.HeisenbergBall(4).distance_matrix()
        u, v = np.loadtxt(out, dtype=int).T
        graph = coo_matrix((np.ones(len(u)), (u, v)), shape=ball.shape)
        assert np.array_equal(reloaded, shortest_path(graph, directed=False, unweighted=True))
        assert np.array_equal(reloaded[0], ball[0])
        assert np.array_equal(reloaded == 1, ball == 1) and (reloaded >= ball).all()

    def test_point_file_fixture_keeps_its_metric(self, tmp_path):
        out = str(tmp_path / "grid.txt")
        assert main(["gen", "--fixture", "grid:5x5:linf", "--out", out]) == 0
        again = str(tmp_path / "again.txt")
        assert main(["gen", "--fixture", f"points:{out}:linf", "--out", again]) == 0
        assert json.load(open(again + ".json"))["diameter"] == 4.0

    @pytest.mark.parametrize("fixture", ["heis:3", "grid:5x5", "tree:2:4"])
    @pytest.mark.parametrize("budget", [7, 40, spaces._BLOCK_ENTRIES])
    def test_edge_file_matches_a_row_loop(self, tmp_path, monkeypatch, fixture, budget):
        """The edge list written from radius-bounded row blocks is a literal
        pair loop's: each unit-distance pair i < j once, in row-major order.
        A grid fixture is a coordinate space, so its 4-neighbour graph is
        passed as an edge file, listed in shuffled order."""
        if fixture.startswith("grid"):
            pairs = [(5 * x + y, 5 * x + y + d) for x in range(5) for y in range(5)
                     for d in (1, 5) if (d == 1 and y < 4) or (d == 5 and x < 4)]
            path = tmp_path / "grid.edges"
            order = np.random.default_rng(0).permutation(len(pairs))
            path.write_text("".join(f"{pairs[k][1]} {pairs[k][0]}\n" for k in order))
            fixture = f"edges:{path}"
        monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", budget)
        out = str(tmp_path / "g.txt")
        assert main(["gen", "--fixture", fixture, "--out", out]) == 0
        space = pl.parse_fixture(fixture)
        expected = "".join(f"{i} {j}\n" for i in range(space.n) for j in range(i + 1, space.n)
                           if space.dist(i, j) == 1.0)
        assert expected and open(out).read() == expected

    @pytest.mark.parametrize("kind,text,message", [
        ("edges", "0 1\n1 -1\n", "negative vertex id"),
        ("points", "0 0\n1 nan\n", "non-finite coordinate"),
    ])
    def test_malformed_fixture_file_is_usage_error(self, tmp_path, capsys, kind, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["gen", "--fixture", f"{kind}:{path}", "--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err


CONVERGING = {"kind": "texp", "N": 3, "r": 3.0, "eps": 0.05, "D": 100.0}
SUPERCRITICAL = {"kind": "texp", "N": 3, "r": 3.0, "eps": 0.05, "D": 20.0}


class TestCarve:
    def test_verified_run_exits_zero(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = write_config(tmp_path, "c.json", {
            "fixture": "segment:1200", "schedule": CONVERGING, "seed": 2, "out": out,
        })
        assert main(["carve", "--config", cfg]) == 0
        dec = json.load(open(out + ".decomposition.json"))
        ver = json.load(open(out + ".verification.json"))
        meta = json.load(open(out + ".meta.json"))
        assert ver["passed"] is True
        assert dec["m"] == 2 and dec["R"] == 9.0
        assert meta["seed"] == 2 and meta["rounds"] >= 0

    def test_resampling_failure_exits_one_with_report(self, tmp_path):
        out = str(tmp_path / "fail")
        cfg = write_config(tmp_path, "c.json", {
            "fixture": "segment:900", "schedule": SUPERCRITICAL, "seed": 0,
            "out": out, "max_rounds": 40,
        })
        assert main(["carve", "--config", cfg]) == 1
        report = json.load(open(out + ".failure.json"))
        assert report["outcome"] == "resampling_failure"
        assert report["residual_violations"] > 0
        assert len(report["violated_history"]) == 41

    def test_degenerate_single_point_fixture_exits_zero(self, tmp_path):
        out = str(tmp_path / "tiny")
        cfg = write_config(tmp_path, "c.json", {
            "fixture": "segment:0", "schedule": {"kind": "texp", "N": 2, "r": 1.0,
                                                 "eps": 0.5, "D": 2.0},
            "seed": 0, "out": out,
        })
        assert main(["carve", "--config", cfg]) == 0
        dec = json.load(open(out + ".decomposition.json"))
        assert dec["n_points"] == 1

    def test_missing_schedule_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"fixture": "segment:10", "out": "x"})
        assert main(["carve", "--config", cfg]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"run{tag}")
            cfg = write_config(tmp_path, f"c{tag}.json", {
                "fixture": "segment:1200", "schedule": CONVERGING, "seed": 9, "out": out,
            })
            assert main(["carve", "--config", cfg]) == 0
            outs.append(out)
        for suffix in (".decomposition.json", ".verification.json", ".meta.json",
                       ".layer0.csv", ".layer1.csv"):
            a = open(outs[0] + suffix, "rb").read()
            b = open(outs[1] + suffix, "rb").read()
            assert a == b


    def test_probe_balls_past_the_ball_guard_are_usage_errors(self, tmp_path, capsys,
                                                              monkeypatch):
        """The resampler's probe balls count against the ball guard: under a
        30-point guard, radius-10 probes on every point of segment:100 hold
        more than 900 ids, and the run exits 2 with the guard's message and
        writes nothing."""
        monkeypatch.setattr(spaces, "_APSP_MAX_POINTS", 30)
        out = str(tmp_path / "big")
        cfg = write_config(tmp_path, "c.json", {
            "fixture": "segment:100", "seed": 0, "out": out,
            "schedule": {"kind": "tgeo", "b": 1, "p": 0.01, "M": 20, "m": 2, "r": 10},
        })
        assert main(["carve", "--config", cfg]) == 2
        assert capsys.readouterr().err == ("error: balls holding more than 900 point ids "
                                           "exceed the ball guard (the entries of a "
                                           "30-point matrix)\n")
        assert not list(tmp_path.glob("big*"))

    def test_tgeo_schedule_carves_on_a_net_at_the_law_lower_end(self, tmp_path):
        """A truncated-geometric schedule with r = 9 > 1 builds its net at the
        law's lower end 1 (``TgeoRun.net_scale``), so the resampler accepts
        it: on ``segment:3000`` it converges, verifies at (R, D) = (9, 1200),
        and reruns byte for byte."""
        schedule = {"kind": "tgeo", "b": 1, "p": 0.01, "M": 600, "m": 2, "r": 9}
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"tgeo{tag}")
            cfg = write_config(tmp_path, f"t{tag}.json", {
                "fixture": "segment:3000", "schedule": schedule, "seed": 1, "out": out,
            })
            assert main(["carve", "--config", cfg]) == 0
            outs.append(out)
        dec = json.load(open(outs[0] + ".decomposition.json"))
        assert json.load(open(outs[0] + ".verification.json"))["passed"] is True
        assert (dec["R"], dec["D"]) == (9.0, 1200.0)
        for suffix in (".decomposition.json", ".verification.json", ".meta.json",
                       ".layer0.csv", ".layer1.csv"):
            assert open(outs[0] + suffix, "rb").read() == open(outs[1] + suffix, "rb").read()


def tgeo_grid_config(tmp_path, out, with_off_regime=False):
    grid = [{"kind": "tgeo", "b": 1.0, "p": 0.02, "M": 40, "m": 2, "r": 9.0}]
    if with_off_regime:
        grid.append({"kind": "tgeo", "b": 1.0, "p": 0.2, "M": 40, "m": 2, "r": 9.0})
    return write_config(tmp_path, "cut.json", {
        "fixture": "segment:300", "net": {"eps": 1, "delta": 1},
        "trials": 20, "centers": 12, "seed": 3, "out": out, "grid": grid,
    })


class TestCutprob:
    def test_rows_and_bound_recompute(self, tmp_path):
        out = str(tmp_path / "cut.csv")
        cfg = tgeo_grid_config(tmp_path, out, with_off_regime=True)
        assert main(["cutprob", "--config", cfg]) == 0
        header, *rows = open(out).read().splitlines()
        cols = header.split(",")
        assert rows, "no data rows"
        for row in rows:
            rec = dict(zip(cols, row.split(",")))
            params = dict(tok.split("=") for tok in rec["params"].split(";"))
            if rec["regime"] == "true":
                bound = 20.0 * float(params["r"]) * float(params["p"])
                assert abs(float(rec["bound"]) - bound) <= 1e-9 * bound
                assert rec["pass"] == "true"
            else:
                assert rec["pass"] == ""

    def test_texp_grid_row(self, tmp_path):
        out = str(tmp_path / "cut.csv")
        cfg = write_config(tmp_path, "cut.json", {
            "fixture": "segment:400", "net": {"eps": 3, "delta": 3},
            "trials": 15, "centers": 10, "seed": 1, "out": out,
            "grid": [{"kind": "texp", "N": 3, "r": 3.0, "eps": 0.2, "D": 20.0}],
        })
        assert main(["cutprob", "--config", cfg]) == 0
        header, row = open(out).read().splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        assert rec["regime"] == "true"
        N, D, eps = 3, 20.0, 0.2
        bound = 4 * N**3 * (D + 3) ** np.log2(N) * np.exp(-(D - 1.5) * eps) + 12 * eps
        assert abs(float(rec["bound"]) - bound) <= 1e-9 * bound

    def test_texp_bound_stays_finite_at_huge_D(self, tmp_path):
        """At D = 1e300 the far term of the texp bound underflows to 0 while
        (D+3)^{log2 N} overflows; the bound must come out as 12 eps, not NaN
        reported as a verified failure."""
        out = str(tmp_path / "cut.csv")
        cfg = write_config(tmp_path, "cut.json", {
            "fixture": "segment:400", "net": {"eps": 3, "delta": 3},
            "trials": 15, "centers": 10, "seed": 1, "out": out,
            "grid": [{"kind": "texp", "N": 3, "r": 3.0, "eps": 0.05, "D": 1e300}],
        })
        assert main(["cutprob", "--config", cfg]) == 0
        header, row = open(out).read().splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        assert float(rec["bound"]) == pytest.approx(12 * 0.05, rel=1e-12)
        assert rec["regime"] == "true" and rec["pass"] == "true"

    def test_bad_grid_entry_is_refused_before_the_net_is_built(self, tmp_path, capsys,
                                                               monkeypatch):
        """A malformed later grid entry exits 2 with its one-line message
        before any net is built: the whole grid is read first."""
        def no_net(*args, **kwargs):
            raise AssertionError("build_net called before the grid was read")

        monkeypatch.setattr(cli, "build_net", no_net)
        good = {"kind": "tgeo", "b": 1.0, "p": 0.02, "M": 40, "m": 2, "r": 9.0}
        out = tmp_path / "cut.csv"
        cfg = write_config(tmp_path, "cut.json", {
            "fixture": "segment:300", "net": {"eps": 1, "delta": 1}, "trials": 4,
            "centers": 3, "seed": 3, "out": str(out), "grid": [good, {**good, "note": "x"}]})
        assert main(["cutprob", "--config", cfg]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert 'a tgeo schedule has unknown keys "note"' in err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"cut{tag}.csv")
            cfg = tgeo_grid_config(tmp_path, out)
            assert main(["cutprob", "--config", cfg]) == 0
            outs.append(out)
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()

    def test_thread_count_is_clamped_to_cpus(self):
        cpus = os.cpu_count() or 1
        assert _threads(argparse.Namespace(threads=10**9)) == cpus

    def test_threads_flag_keeps_bytes(self, tmp_path):
        out1 = str(tmp_path / "t1.csv")
        assert main(["cutprob", "--config", tgeo_grid_config(tmp_path, out1)]) == 0
        out2 = str(tmp_path / "t2.csv")
        code = main(["--threads", "3", "cutprob", "--config",
                     tgeo_grid_config(tmp_path, out2)])
        assert code == 0
        assert open(out1).read().replace("t1", "") == open(out2).read().replace("t2", "")


class TestGrowth:
    def test_csv_and_slope(self, tmp_path):
        out = str(tmp_path / "g.csv")
        assert main(["growth", "--fixture", "segment:2000", "--radii", "8,16,32,64",
                     "--trials", "2", "--out", out]) == 0
        rows = open(out).read().splitlines()
        assert rows[0] == "fixture,r,trials,gamma_lower"
        assert len(rows) == 5
        slope = json.load(open(out + ".slope.json"))
        assert 0.9 <= slope["slope"] <= 1.1

    def test_group_ball_growth(self, tmp_path):
        out = str(tmp_path / "h.csv")
        assert main(["growth", "--fixture", "heis:6", "--radii", "3,4,5,6",
                     "--trials", "1", "--out", out]) == 0
        rows = open(out).read().splitlines()[1:]
        gammas = [int(r.split(",")[-1]) for r in rows]
        # open balls in the truncated group ball: the max sits at the identity
        ball = pl.heisenberg_ball(6)
        assert gammas == [ball.ball_sizes[r - 1] for r in (3, 4, 5, 6)]
        assert json.load(open(out + ".slope.json"))["slope_defined"] is True

    @pytest.mark.parametrize("radii", ["2,nan", "2,inf"])
    def test_non_finite_radii_are_usage_errors(self, tmp_path, capsys, radii):
        out = tmp_path / "g.csv"
        assert main(["growth", "--fixture", "heis:4", "--radii", radii,
                     "--out", str(out)]) == 2
        assert "radii must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("radii", ["3,x", "x", "3;4"])
    def test_unreadable_radii_are_refused_by_name(self, tmp_path, capsys, monkeypatch, radii):
        """A ``--radii`` token that is no number exits 2 with one line naming
        the flag, before the fixture is parsed."""
        def no_work(*args, **kwargs):
            raise AssertionError("fixture parsed before the radii were read")

        monkeypatch.setattr(cli, "parse_fixture", no_work)
        out = tmp_path / "g.csv"
        assert main(["growth", "--fixture", "heis:4", "--radii", radii, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f'config error: --radii must be comma-separated numbers, got "{radii}"\n'
        assert not out.exists()

    def test_single_point_slope_undefined(self, tmp_path):
        out = str(tmp_path / "g.csv")
        assert main(["growth", "--fixture", "segment:0", "--radii", "2",
                     "--out", out]) == 0
        slope = json.load(open(out + ".slope.json"))
        assert slope["slope_defined"] is False and slope["slope"] is None


def cover_doc(sets):
    """A one-layer cover document on segment:9 (points 0..9)."""
    return {"kind": "cover", "fixture": "segment:9", "n_points": 10,
            "r_disjoint": 10.0, "D_bound": 9.0, "m": 1, "layers": [sets]}


class TestConvert:
    def make_cover_file(self, tmp_path, separation=7.0):
        space = pl.integer_segment(100)
        layers = [[np.array([p]) for p in range(c, 101, 8)] for c in range(8)]
        cover = pl.Cover(space, layers, r_disjoint=separation, D_bound=0.0)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(pl.cover_to_json(cover, "segment:100")))
        return str(path)

    def test_round_trip_through_files(self, tmp_path):
        cov = self.make_cover_file(tmp_path)
        pad = str(tmp_path / "padded.json")
        assert main(["convert", "--input", cov, "--direction", "to-padded",
                     "--R", "3", "--r", "1", "--out", pad]) == 0
        doc = json.load(open(pad))
        assert doc["R"] == 3.0 and doc["D"] == 8.0
        back = str(tmp_path / "back.json")
        assert main(["convert", "--input", pad, "--direction", "to-cover",
                     "--out", back]) == 0
        doc2 = json.load(open(back))
        assert doc2["r_disjoint"] == 1.0 and doc2["D_bound"] == 8.0

    def test_boundary_separation_rejected(self, tmp_path, monkeypatch):
        cov = self.make_cover_file(tmp_path)
        # R = 3.5 needs separation strictly covering 2R + r = 8; sets sit
        # exactly 8 apart, so their true distance fails the strict check
        def refuse(*args, **kwargs):
            raise AssertionError("verified a cover that its separation bound refuses")

        monkeypatch.setattr(decomposition, "verify_cover", refuse)
        out = str(tmp_path / "p.json")
        code = main(["convert", "--input", cov, "--direction", "to-padded",
                     "--R", "3.5", "--r", "1", "--out", out])
        assert code == 2  # parameter precondition, reported before any growth or verification

    def test_unverified_input_exits_one(self, tmp_path):
        space = pl.integer_segment(20)
        cover = pl.Cover(space, [[np.array([0, 1, 2])]], r_disjoint=8.0, D_bound=3.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(pl.cover_to_json(cover, "segment:20")))
        assert main(["convert", "--input", str(path), "--direction", "to-padded",
                     "--R", "1", "--r", "1", "--out", str(tmp_path / "o.json")]) == 1

    @pytest.mark.parametrize("flags", [["--R", "99", "--r", "7"], ["--R", "99"], ["--r", "7"]])
    def test_to_cover_refuses_R_and_r(self, tmp_path, capsys, flags):
        """R and r of a shrunk cover come from the decomposition and its net,
        so ``to-cover`` names the flags and exits 2 instead of ignoring them."""
        pad = str(tmp_path / "padded.json")
        assert main(["convert", "--input", self.make_cover_file(tmp_path), "--direction",
                     "to-padded", "--R", "3", "--r", "1", "--out", pad]) == 0
        capsys.readouterr()
        back = tmp_path / "back.json"
        assert main(["convert", "--input", pad, "--direction", "to-cover", *flags,
                     "--out", str(back)]) == 2
        assert capsys.readouterr().err == ("config error: to-cover takes no --R or --r: "
                                           "the decomposition and its net fix both\n")
        assert not back.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--R", "nan", "--r", "1"], "--R must be a finite number >= 0, got nan"),
        (["--R", "-1", "--r", "1"], "--R must be a finite number >= 0, got -1.0"),
        (["--R", "1", "--r", "nan"], "--r must be a finite number > 0, got nan"),
        (["--R", "1", "--r", "-2"], "--r must be a finite number > 0, got -2.0"),
    ])
    def test_to_padded_reads_R_and_r_before_the_cover(self, tmp_path, capsys, monkeypatch,
                                                      flags, message):
        """``--R`` and ``--r`` are refused by name before the cover is read,
        the net is swept or the cover is verified."""
        def refuse(*args, **kwargs):
            raise AssertionError("called before the flags were read")

        cov = self.make_cover_file(tmp_path)
        for module, name in ((cli, "cover_from_json"), (cli, "build_net"),
                             (decomposition, "verify_cover")):
            monkeypatch.setattr(module, name, refuse)
        out = tmp_path / "p.json"
        assert main(["convert", "--input", cov, "--direction", "to-padded", *flags,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("direction,doc", [
        ("to-padded", cover_doc([list(range(10)) + [12]])),
        ("to-padded", cover_doc([[-1] + list(range(9))])),
        ("to-cover", {"kind": "padded_decomposition", "fixture": "segment:9",
                      "n_points": 10, "R": 3.0, "D": 18.0, "m": 1,
                      "net": {"members": [0, 42], "eps": 1.0, "delta": 1.0},
                      "layers": [[list(range(10))]]}),
        ("to-padded", cover_doc([list(range(9)) + [9.7]])),
    ], ids=["high_point_id", "negative_point_id", "bad_net_member", "fractional_point_id"])
    def test_out_of_range_ids_are_usage_errors(self, tmp_path, capsys, direction, doc):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        flags = ["--R", "1", "--r", "1"] if direction == "to-padded" else []
        assert main(["convert", "--input", str(path), "--direction", direction, *flags,
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "0..9" in capsys.readouterr().err


class TestLllCheck:
    def test_feasible_schedule(self, tmp_path, capsys):
        sched = json.dumps({"kind": "texp", "N": 2, "r": 1.0,
                            "eps": (1e20 + 3) ** -0.9, "D": 1e20})
        assert main(["lll-check", "--schedule", sched]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True

    def test_desk_scale_infeasible(self, capsys):
        sched = json.dumps({"kind": "tgeo", "b": 1, "p": 0.0025, "M": 9585,
                            "m": 2, "r": 9})
        assert main(["lll-check", "--schedule", sched]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["p_bound"] == pytest.approx(0.2025)

    def test_huge_eps_keeps_the_bounds_finite(self, capsys):
        """log(12 eps) is taken as log 12 + log eps, so eps = 1e308 gives a
        finite bound instead of writing Infinity into the artifact."""
        sched = json.dumps({"kind": "texp", "N": 3, "r": 3.0, "eps": 1e308, "D": 100.0})
        assert main(["lll-check", "--schedule", sched]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert "Infinity" not in text and payload["feasible"] is False
        assert payload["log_p_bound"] == pytest.approx(2 * (np.log(12.0) + np.log(1e308)))

    def test_bad_schedule_is_usage_error(self):
        assert main(["lll-check", "--schedule", '{"kind": "nope"}']) == 2

    def test_config_reads_only_the_schedule(self, tmp_path, capsys):
        """``--config`` takes a carve config, whose other keys it does not read."""
        sched = {"kind": "texp", "N": 3, "r": 3.0, "eps": 0.05, "D": 100.0}
        cfg = write_config(tmp_path, "carve.json", {"fixture": "segment:3000", "seed": 7,
                                                    "out": "run", "max_rounds": 5,
                                                    "schedule": sched})
        assert main(["lll-check", "--config", cfg]) == 0
        from_config = capsys.readouterr().out
        assert main(["lll-check", "--schedule", json.dumps(sched)]) == 0
        assert capsys.readouterr().out == from_config


TEXP = '{"kind": "texp", "N": %s, "r": 3.0, "eps": 0.05, "D": %s}'
COVER = ('{"kind": "cover", "fixture": "segment:9", "n_points": 10, "r_disjoint": %s, '
         '"D_bound": %s, "m": 1, "layers": [[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]]}')
PADDED = ('{"kind": "padded_decomposition", "fixture": "segment:9", "n_points": 10, '
          '"R": %s, "D": %s, "m": 1, "net": {"members": [0, 3, 6, 9], "eps": 3, "delta": 3}, '
          '"layers": [[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]]}')
CUTPROB_NET = ('{"fixture": "segment:10", "out": "x", "net": %s, '
               '"grid": [{"kind": "tgeo", "b": 1.0, "p": 0.01, "M": 4, "m": 2, "r": 1.0}]}')
CARVE_DOC = {"fixture": "segment:10", "seed": 0,
             "schedule": {"kind": "texp", "N": 3, "r": 1.0, "eps": 0.05, "D": 100.0}}
TGEO = {"kind": "tgeo", "b": 1, "p": 0.0025, "M": 9585, "m": 2, "r": 9}
TO_PADDED = ["convert", "--input", "IN", "--direction", "to-padded", "--r", "1", "--out", "OUT"]
TO_COVER = ["convert", "--input", "IN", "--direction", "to-cover", "--out", "OUT"]
TEXP_READS = 'it reads "kind", "N", "r", "eps", "D"'


@pytest.mark.parametrize("argv,text,message", [
    (["carve", "--config", "IN"], "[]", "JSON object"),
    (["cutprob", "--config", "IN"], "[]", "JSON object"),
    (["carve", "--config", "IN"], '{"fixture": "segment:10", "out": "x", "schedule": [1]}',
     "JSON object"),
    (["lll-check", "--schedule", "[1]"], "", "JSON object"),
    (["convert", "--input", "IN", "--direction", "to-cover", "--out", "OUT"], "[1, 2]",
     "not a padded decomposition"),
    (["lll-check", "--schedule", TEXP % ("1e400", "100")], "", "infinity"),
    (["lll-check", "--schedule",
      '{"kind": "tgeo", "b": 1, "p": 0.0025, "M": 1e400, "m": 2, "r": 9}'], "", "infinity"),
    (["carve", "--config", "IN"], '{"fixture": "segment:10", "out": "x", "seed": 1e400, '
     '"schedule": %s}' % (TEXP % (3, 100)), "infinity"),
    (["carve", "--config", "IN"], json.dumps({**CARVE_DOC, "fixture": "segment:5", "out": "OUT",
                                               "schedule": {**CARVE_DOC["schedule"], "r": 1e150,
                                                            "D": 1e200}}),
     "texp needs a finite M = (2D + 3)r"),
    (["carve", "--config", "IN"], json.dumps({**CARVE_DOC, "out": "OUT",
                                               "schedule": {**CARVE_DOC["schedule"], "r": 3.0,
                                                            "D": 1.6e307}}),
     "texp needs a finite M = (2D + 3)r and twice it"),
    (["lll-check", "--schedule", TEXP % (3, "NaN")], "", "must be positive"),
    (["lll-check", "--schedule", TEXP % (3, "1e400")], "", "D must be positive and finite"),
    (["lll-check", "--schedule",
      '{"kind": "tgeo", "b": 1e400, "p": 0.0025, "M": 9585, "m": 2, "r": 9}'], "",
     "growth exponent must be finite"),
    (["cutprob", "--config", "IN"], '{"fixture": "segment:10", "out": "x", "net": [], '
     '"grid": [{"kind": "tgeo", "b": 1.0, "p": 0.01, "M": 4, "m": 2, "r": 1.0}]}',
     "JSON object"),
    (["cutprob", "--config", "IN"], CUTPROB_NET % '{"eps": true}',
     '"eps" must be a finite number, got true'),
    (["cutprob", "--config", "IN"], CUTPROB_NET % '{"delta": "2"}',
     '"delta" must be a finite number, got "2"'),
    (TO_COVER, PADDED % (9, "NaN"), "D must be a finite number"),
    (TO_COVER, PADDED % ("NaN", 9), "R must be a finite number"),
    (TO_COVER, PADDED % (-1, 9), "R must be a finite number"),
    (TO_PADDED + ["--R", "1"], COVER % ("NaN", 9), "r_disjoint must be a finite number"),
    (TO_PADDED + ["--R", "1"], COVER % (9, -2), "D_bound must be a finite number"),
    (TO_PADDED + ["--R", "nan"], COVER % (9, 9), "R must be a finite number"),
    (TO_PADDED + ["--R", "-1"], COVER % (9, 9), "R must be a finite number"),
    (["lll-check", "--schedule", TEXP % (3.9, 100)], "",
     "doubling constant must be an integer, got 3.9"),
    (["lll-check", "--schedule", TEXP.replace('"r": 3.0', '"r": "1"') % (3, 100)], "",
     'r must be a finite number, got "1"'),
    (["lll-check", "--schedule", TEXP.replace('"r": 3.0', '"r": true') % (3, 100)], "",
     "r must be a finite number, got true"),
    (["lll-check", "--schedule",
      '{"kind": "tgeo", "b": 1, "p": 0.0025, "M": 9585.7, "m": 2.9, "r": 9}'], "",
     "M must be an integer, got 9585.7"),
    (["lll-check", "--schedule",
      '{"kind": "tgeo", "b": 1, "p": 0.0025, "M": 9585, "m": 2.9, "r": 9}'], "",
     "m must be an integer, got 2.9"),
    (TO_PADDED + ["--R", "1"], COVER % ('"0.5"', 9), 'r_disjoint must be a finite number, got "0.5"'),
    (TO_PADDED + ["--R", "1"], COVER % (10, "true"), "D_bound must be a finite number, got true"),
    (TO_PADDED + ["--R", "1"], json.dumps(cover_doc([list(range(9)) + ["9"]])),
     'point ids must be integers in 0..9, got "9"'),
    (TO_PADDED + ["--R", "1"], json.dumps(cover_doc([list(range(10)) + [True]])),
     "point ids must be integers in 0..9, got true"),
    (TO_PADDED + ["--R", "1"], json.dumps(cover_doc([list(range(9)) + [[9]]])),
     "point ids must be integers in 0..9, got [9]"),
    (TO_PADDED + ["--R", "1"], json.dumps({**cover_doc([list(range(10))]), "fixture": 5}),
     "fixture must be a nonempty string, got 5"),
    (["carve", "--config", "IN"], json.dumps({**CARVE_DOC, "fixture": 5, "out": "OUT"}),
     '"fixture" must be a nonempty string, got 5'),
    (["carve", "--config", "IN"], json.dumps({**CARVE_DOC, "out": 1}),
     '"out" must be a nonempty string, got 1'),
    (["cutprob", "--config", "IN"], CUTPROB_NET.replace('"out": "x"', '"out": 1') % "{}",
     '"out" must be a nonempty string, got 1'),
    (["cutprob", "--config", "IN"], CUTPROB_NET.replace('"out": "x"', '"out": true') % "{}",
     '"out" must be a nonempty string, got true'),
    (["lll-check", "--schedule", json.dumps({**TGEO, "M": 10**400})], "",
     "M must be an integer >= 2, got an integer beyond float range"),
    (["carve", "--config", "IN"], json.dumps({**CARVE_DOC, "out": "OUT",
                                               "schedule": {**TGEO, "M": 10**400}}),
     "M must be an integer >= 2, got an integer beyond float range"),
    (["lll-check", "--schedule", json.dumps({**TGEO, "r": 1e308})], "",
     "tgeo needs a finite domain radius M + r"),
    (["carve", "--config", "IN"], json.dumps({**CARVE_DOC, "out": "OUT",
                                               "schedule": {**TGEO, "M": 15 * 10**307}}),
     "tgeo needs a finite domain radius M + r"),
    (["lll-check", "--schedule", TEXP.replace("}", ', "m": 5}') % (3, 20)], "",
     'a texp schedule has unknown keys "m"; ' + TEXP_READS),
    (["carve", "--config", "IN"], json.dumps({**CARVE_DOC, "out": "OUT",
                                               "schedule": {**CARVE_DOC["schedule"], "m": 5}}),
     'a texp schedule has unknown keys "m"; ' + TEXP_READS),
    (["cutprob", "--config", "IN"],
     CUTPROB_NET.replace('"out": "x"', '"out": "OUT"').replace('"r": 1.0}', '"r": 1.0, '
                                                               '"note": "a,b"}') % "{}",
     'a tgeo schedule has unknown keys "note"; it reads "kind", "b", "p", "M", "m", "r"'),
    (["cutprob", "--config", "IN"],
     CUTPROB_NET.replace('"out": "x"', '"out": "OUT"') % '{"esp": 2}',
     'cutprob "net" has unknown keys "esp"; it reads "eps", "delta"'),
    (["cutprob", "--config", "IN"],
     CUTPROB_NET.replace('"out": "x"', '"out": "OUT", "trails": 5') % "{}",
     'cutprob config has unknown keys "trails"; it reads "fixture", "seed", "out", "net", '
     '"trials", "centers", "grid"'),
    (["carve", "--config", "IN"], json.dumps({**CARVE_DOC, "out": "OUT", "max_round": 5,
                                               "sede": 1}),
     'carve config has unknown keys "max_round", "sede"; it reads "fixture", "seed", "out", '
     '"schedule", "max_rounds"'),
    (TO_PADDED + ["--R", "1"], json.dumps({**cover_doc([list(range(10))]), "extra": "junk"}),
     'a cover document has unknown keys "extra"; it reads "kind", "fixture", "n_points", '
     '"m", "r_disjoint", "D_bound", "layers"'),
    (TO_COVER, PADDED.replace('"m": 1', '"m": 1, "note": 0') % (9, 9),
     'a padded decomposition document has unknown keys "note"; it reads "kind", "fixture", '
     '"n_points", "m", "R", "D", "net", "layers"'),
    (TO_COVER, PADDED.replace('"delta": 3', '"delta": 3, "r": 3') % (9, 9),
     'net has unknown keys "r"; it reads "members", "eps", "delta"'),
    (TO_PADDED + ["--R", "1"], json.dumps({**cover_doc([list(range(10))]), "m": 7}),
     "m must be the layer count 1, got 7"),
    (TO_COVER, PADDED.replace('"m": 1', '"m": 2') % (9, 9), "m must be the layer count 1, got 2"),
    (TO_PADDED + ["--R", "1"], json.dumps({k: v for k, v in cover_doc([list(range(10))]).items()
                                           if k != "m"}),
     "m must be an integer, got null"),
    (TO_PADDED + ["--R", "1"], json.dumps({**cover_doc([list(range(10))]), "m": "1"}),
     'm must be an integer, got "1"'),
    (TO_COVER, PADDED.replace("[0, 3, 6, 9]", "[0, 3, 6, 9, 0, 0]") % (9, 9),
     "net members must be distinct, got 0 repeated"),
    (["cutprob", "--config", "IN"], CUTPROB_NET.replace('"out": "x"', '"out": "OUT"')
     % '{"eps": -1, "delta": -1}', '"eps" must be a finite number > 0, got -1'),
    (["cutprob", "--config", "IN"], CUTPROB_NET.replace('"out": "x"', '"out": "OUT"')
     % '{"delta": 0}', '"delta" must be a finite number > 0, got 0'),
    (["cutprob", "--config", "IN"], CUTPROB_NET.replace("segment:10", "nonsense:3")
     % '{"eps": 0.0}', '"eps" must be a finite number > 0, got 0.0'),
    (TO_PADDED[:-4] + ["--R", "1", "--r", "nan", "--out", "OUT"], COVER % (9, 9),
     "--r must be a finite number > 0, got nan"),
    (["cutprob", "--config", "IN"], '{"fixture": "segment:10", "out": "OUT", "grid": []}',
     "cutprob needs a nonempty grid list"),
    (["growth", "--fixture", "segment:10", "--radii", ",", "--out", "OUT"], "",
     "growth needs a nonempty --radii list"),
    (TO_COVER[:-2], PADDED % (9, 9), "convert needs --out"),
    (TO_PADDED[:5] + ["--out", "OUT"], COVER % (9, 9), "to-padded needs --R and the net scale --r"),
    (["lll-check", "--out", "OUT"], "", "lll-check needs --schedule or --config"),
], ids=["carve_config_list", "cutprob_config_list", "carve_schedule_list",
        "lll_schedule_list", "convert_input_list", "texp_huge_N", "tgeo_huge_M",
        "carve_huge_seed", "texp_overflowing_M", "texp_overflowing_2M", "texp_nan_D", "texp_infinite_D",
        "tgeo_infinite_b", "cutprob_net_list", "cutprob_bool_eps",
        "cutprob_string_delta", "padded_nan_D",
        "padded_nan_R", "padded_negative_R", "cover_nan_r_disjoint",
        "cover_negative_D_bound", "convert_nan_R", "convert_negative_R",
        "texp_fractional_N", "texp_string_r", "texp_bool_r", "tgeo_fractional_M",
        "tgeo_fractional_m", "cover_string_r_disjoint", "cover_bool_D_bound",
        "cover_string_id", "cover_bool_id", "cover_nested_id", "cover_int_fixture",
        "carve_int_fixture", "carve_int_out", "cutprob_int_out", "cutprob_bool_out",
        "tgeo_oversized_int_M", "carve_oversized_int_M", "tgeo_infinite_domain",
        "carve_infinite_domain", "texp_unread_m", "carve_texp_unread_m",
        "cutprob_tgeo_unread_note", "cutprob_net_typo", "cutprob_config_typo",
        "carve_config_typos", "cover_unknown_key", "padded_unknown_key", "net_unknown_key",
        "cover_wrong_m", "padded_wrong_m", "cover_missing_m", "cover_string_m",
        "padded_repeated_net_member", "cutprob_negative_net", "cutprob_zero_delta",
        "cutprob_zero_eps_before_fixture", "convert_nan_r", "cutprob_empty_grid",
        "growth_empty_radii", "convert_no_out", "to_padded_no_R_or_r", "lll_no_schedule"])
def test_malformed_json_inputs_are_usage_errors(tmp_path, capsys, argv, text, message):
    """Non-object JSON documents, values of the wrong type and non-finite
    numbers exit 2 with one line on stderr, before any output is written."""
    path = tmp_path / "in.json"
    path.write_text(text.replace('"OUT"', json.dumps(str(tmp_path / "out"))))
    swap = {"IN": str(path), "OUT": str(tmp_path / "out")}
    assert main([swap.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert message in err and "Traceback" not in err
    assert out == "" and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


CUTPROB_CFG = {"fixture": "segment:300", "net": {"eps": 1, "delta": 1}, "trials": 4,
               "centers": 3, "seed": 3,
               "grid": [{"kind": "tgeo", "b": 1.0, "p": 0.02, "M": 40, "m": 2, "r": 9.0}]}
CARVE_CFG = {"fixture": "segment:300", "seed": 1,
             "schedule": {"kind": "texp", "N": 3, "r": 3.0, "eps": 0.05, "D": 100.0}}


@pytest.mark.parametrize("command,base,key,value", [
    ("cutprob", CUTPROB_CFG, "trials", 2.7),
    ("cutprob", CUTPROB_CFG, "trials", True),
    ("cutprob", CUTPROB_CFG, "trials", "20"),
    ("cutprob", CUTPROB_CFG, "centers", 2.5),
    ("cutprob", CUTPROB_CFG, "centers", False),
    ("cutprob", CUTPROB_CFG, "centers", None),
    ("cutprob", CUTPROB_CFG, "seed", 1.5),
    ("cutprob", CUTPROB_CFG, "seed", True),
    ("carve", CARVE_CFG, "seed", 1.5),
    ("carve", CARVE_CFG, "seed", True),
    ("carve", CARVE_CFG, "seed", [1]),
    ("carve", CARVE_CFG, "max_rounds", 2.5),
    ("carve", CARVE_CFG, "max_rounds", True),
    ("carve", CARVE_CFG, "max_rounds", "3"),
])
def test_integer_config_fields_must_be_integers(tmp_path, capsys, command, base, key, value):
    """trials, centers and seed take integral, non-boolean JSON numbers only;
    anything else exits 2 with one line instead of being truncated."""
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "cfg.json", {**base, key: value, "out": out})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f'config error: "{key}" must be an integer, got {json.dumps(value)}\n'
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


def test_negative_max_rounds_is_a_config_error(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "cfg.json", {**CARVE_CFG, "max_rounds": -1, "out": out})
    assert main(["carve", "--config", cfg]) == 2
    assert capsys.readouterr().err == 'config error: "max_rounds" must be nonnegative, got -1\n'
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


def test_null_max_rounds_keeps_the_default_budget(tmp_path):
    outs = []
    for tag, extra in (("absent", {}), ("null", {"max_rounds": None})):
        out = str(tmp_path / tag)
        cfg = write_config(tmp_path, f"{tag}.json", {**CARVE_CFG, **extra, "out": out})
        assert main(["carve", "--config", cfg]) == 0
        outs.append(open(out + ".meta.json").read())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("key,value", [("trials", 0), ("trials", -3), ("centers", 0),
                                       ("centers", -3)])
def test_empty_cutprob_run_exits_two_before_band_graph(tmp_path, capsys, monkeypatch,
                                                       key, value):
    """A run with no trial or no probe center is refused by the field's name
    before the net, and so its band graph, is built."""
    def no_net(*args, **kwargs):
        raise AssertionError("net built for an empty run")

    monkeypatch.setattr(cli, "build_net", no_net)
    out = str(tmp_path / "out.csv")
    cfg = write_config(tmp_path, "cfg.json", {**CUTPROB_CFG, key: value, "out": out})
    assert main(["cutprob", "--config", cfg]) == 2
    assert capsys.readouterr().err == \
        f'config error: "{key}" must be an integer >= 1, got {value}\n'
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command,cfg_seed,flags", [
    ("carve", -1, []), ("cutprob", -1, []),
    ("carve", 1, ["--seed", "-1"]), ("cutprob", 1, ["--seed", "-1"]),
    ("growth", None, ["--fixture", "segment:10", "--radii", "2", "--seed", "-1"]),
])
def test_negative_seed_is_refused_by_name_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, cfg_seed, flags):
    """A negative seed, from a config or from ``--seed``, exits 2 naming the
    field before the fixture is parsed or a net is built."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was read")

    monkeypatch.setattr(cli, "build_net", no_work)
    monkeypatch.setattr(cli, "parse_fixture", no_work)
    out = str(tmp_path / "out")
    if cfg_seed is not None:
        base = CARVE_CFG if command == "carve" else CUTPROB_CFG
        flags = ["--config", write_config(tmp_path, "cfg.json",
                                          {**base, "seed": cfg_seed, "out": out}), *flags]
    assert main([command, *flags, "--out", out]) == 2
    assert capsys.readouterr().err == 'config error: "seed" must be an integer >= 0, got -1\n'
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


@pytest.mark.parametrize("trials", [0, -2])
def test_growth_trials_below_one_are_refused_by_name_before_any_work(tmp_path, capsys,
                                                                     monkeypatch, trials):
    """``growth --trials`` below 1 exits 2 naming the flag before the fixture
    is parsed."""
    def no_work(*args, **kwargs):
        raise AssertionError("fixture parsed before the trials were read")

    monkeypatch.setattr(cli, "parse_fixture", no_work)
    out = str(tmp_path / "out")
    assert main(["growth", "--fixture", "segment:10", "--radii", "2", "--trials", str(trials),
                 "--out", out]) == 2
    assert capsys.readouterr().err == \
        f'config error: "trials" must be an integer >= 1, got {trials}\n'
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


def test_integral_float_config_fields_are_accepted(tmp_path):
    outs = []
    for tag, trials in (("int", 4), ("float", 4.0)):
        out = str(tmp_path / f"{tag}.csv")
        cfg = write_config(tmp_path, f"{tag}.json", {**CUTPROB_CFG, "trials": trials,
                                                     "out": out})
        assert main(["cutprob", "--config", cfg]) == 0
        outs.append(open(out).read())
    assert outs[0] == outs[1]


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_config_file_exits_two(tmp_path):
    assert main(["carve", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("exc,message", [
    (pl.CarveError("a point is covered by no ball"), "carve error: a point is covered by no ball"),
    (MemoryError("Unable to allocate 400. GiB"), "out of memory: Unable to allocate 400. GiB"),
], ids=["carve_error", "memory_error"])
def test_runtime_errors_exit_two_without_traceback(tmp_path, capsys, monkeypatch, exc, message):
    """A CarveError or MemoryError raised inside a command exits 2 with one
    line on stderr."""
    import padlab.cli as cli_mod

    def boom(args):
        raise exc

    monkeypatch.setattr(cli_mod, "cmd_carve", boom)
    assert main(["carve", "--config", str(tmp_path / "any.json")]) == 2
    err = capsys.readouterr().err
    assert err == message + "\n"


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _integer(v):
    return _number(v) and float(v).is_integer()


# each field's rule: which JSON values it accepts
RULES = {
    "int": _integer,
    "int>=0 or null": lambda v: v is None or (_integer(v) and v >= 0),
    "int>=1": lambda v: _integer(v) and v >= 1,
    "int>=2": lambda v: _integer(v) and v >= 2,
    "num": _number,
    "num>=0": lambda v: _number(v) and v >= 0,
    "num>0": lambda v: _number(v) and v > 0,
    "text": lambda v: isinstance(v, str) and v != "",
    "id": lambda v: _integer(v) and 0 <= v <= 9,
    "ids": lambda v: isinstance(v, list) and all(RULES["id"](p) for p in v),
    "layer count 1": lambda v: _integer(v) and v == 1,
}
FUZZ_CARVE = {"fixture": "segment:10", "seed": 0, "out": "run", "max_rounds": 50,
              "schedule": {"kind": "texp", "N": 3, "r": 1.0, "eps": 0.05, "D": 100.0}}
FUZZ_CUTPROB = {"fixture": "segment:10", "seed": 0, "out": "cut.csv", "trials": 2,
                "centers": 2, "net": {"eps": 1, "delta": 1},
                "grid": [{"kind": "tgeo", "b": 1.0, "p": 0.01, "M": 4, "m": 2, "r": 1.0}]}
FUZZ_TGEO = {"kind": "tgeo", "b": 1, "p": 0.0025, "M": 9585, "m": 2, "r": 9}
FUZZ_COVER = cover_doc([list(range(10))])
FUZZ_PADDED = json.loads(PADDED % (9, 9))
LOADER_FIELDS = [
    ("carve", FUZZ_CARVE, ("seed",), "int"),
    ("carve", FUZZ_CARVE, ("max_rounds",), "int>=0 or null"),
    ("carve", FUZZ_CARVE, ("fixture",), "text"),
    ("carve", FUZZ_CARVE, ("out",), "text"),
    ("carve", FUZZ_CARVE, ("schedule", "N"), "int>=2"),
    ("carve", FUZZ_CARVE, ("schedule", "D"), "num>0"),
    ("cutprob", FUZZ_CUTPROB, ("trials",), "int"),
    ("cutprob", FUZZ_CUTPROB, ("centers",), "int"),
    ("cutprob", FUZZ_CUTPROB, ("seed",), "int"),
    ("cutprob", FUZZ_CUTPROB, ("net", "eps"), "num"),
    ("cutprob", FUZZ_CUTPROB, ("net", "delta"), "num"),
    ("cutprob", FUZZ_CUTPROB, ("out",), "text"),
    ("cutprob", FUZZ_CUTPROB, ("grid", 0, "M"), "int>=2"),
    ("lll-check", FUZZ_TGEO, ("b",), "num>=0"),
    ("lll-check", FUZZ_TGEO, ("p",), "num"),
    ("lll-check", FUZZ_TGEO, ("M",), "int>=2"),
    ("lll-check", FUZZ_TGEO, ("m",), "int>=1"),
    ("lll-check", FUZZ_TGEO, ("r",), "num>0"),
    ("lll-check", json.loads(TEXP % (3, 100)), ("eps",), "num>0"),
    ("to-padded", FUZZ_COVER, ("fixture",), "text"),
    ("to-padded", FUZZ_COVER, ("n_points",), "int"),
    ("to-padded", FUZZ_COVER, ("r_disjoint",), "num>=0"),
    ("to-padded", FUZZ_COVER, ("D_bound",), "num>=0"),
    ("to-padded", FUZZ_COVER, ("layers", 0, 0, 9), "id"),
    ("to-padded", FUZZ_COVER, ("layers", 0, 0), "ids"),
    ("to-padded", FUZZ_COVER, ("m",), "layer count 1"),
    ("to-cover", FUZZ_PADDED, ("m",), "layer count 1"),
    ("to-cover", FUZZ_PADDED, ("R",), "num>=0"),
    ("to-cover", FUZZ_PADDED, ("D",), "num>=0"),
    ("to-cover", FUZZ_PADDED, ("net", "eps"), "num>0"),
    ("to-cover", FUZZ_PADDED, ("net", "members", 1), "id"),
    ("to-cover", FUZZ_PADDED, ("net", "members"), "ids"),
    ("to-cover", FUZZ_PADDED, ("layers", 0, 0, 4), "id"),
]
JSON_VALUES = st.one_of(
    st.booleans(), st.none(), st.text(alphabet="ab1", max_size=3),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.sampled_from("ab"),
                                                            st.integers(0, 3), max_size=1),
    st.floats(-50, 50).filter(lambda x: not x.is_integer()), st.integers(-50, -1),
    st.sampled_from([1e400, -1e400, math.nan]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LOADER_FIELDS), JSON_VALUES)
def test_loader_fuzz(field, value):
    """Every loader either runs or refuses: exit 0, 1 or 2 and never a
    traceback; a value its field's rule refuses exits 2 with one stderr line,
    nothing on stdout and no output file."""
    command, base, path, rule = field
    doc = copy.deepcopy(base)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    argv = {"carve": ["carve", "--config", "in.json"],
            "cutprob": ["cutprob", "--config", "in.json"],
            "lll-check": ["lll-check", "--schedule", json.dumps(doc)],
            "to-padded": TO_PADDED + ["--R", "1"], "to-cover": TO_COVER}[command]
    argv = [{"IN": "in.json", "OUT": "out.json"}.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("in.json", "w") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            written = sorted(set(os.listdir(".")) - {"in.json"})
        finally:
            os.chdir(home)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if not RULES[rule](value):
        assert code == 2 and err.getvalue().count("\n") == 1
        assert out.getvalue() == "" and written == []

import argparse
import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import squareform

from covfields import (
    LabeledDataset,
    WeightedMeasure,
    cli,
    experiments,
    load_measure,
    quadrature_circle,
    save_measure,
)
from covfields.cli import build_parser, main


def run_cli(*args):
    return main(list(args))


def config_error(capsys, code) -> str:
    """The message of the one-line JSON configuration error a command exited 2 with."""
    assert code == 2
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "config"
    return doc["message"]


class TestGen:
    def test_circle(self, tmp_path):
        assert run_cli("--out", str(tmp_path), "gen", "--kind", "circle",
                       "--radius", "1", "--n", "100", "--output", "c.csv") == 0
        m = load_measure(tmp_path / "c.csv")
        assert m.size == 100
        assert abs(m.total_mass - 2 * math.pi) < 1e-9

    def test_segment(self, tmp_path):
        assert run_cli("--out", str(tmp_path), "gen", "--kind", "segment",
                       "--a", "[0,0]", "--b", "[1,0]", "--spacing", "0.25",
                       "--output", "s.csv") == 0
        assert load_measure(tmp_path / "s.csv").size == 4

    def test_lines_dataset(self, tmp_path):
        segs = json.dumps([[[0, 0], [1, 1]], [[0, 1], [1, 0]]])
        assert run_cli("--out", str(tmp_path), "--seed", "4", "gen", "--kind", "lines",
                       "--segments", segs, "--points-per-line", "30",
                       "--noise-sd", "0.01", "--outliers", "5", "--output", "ds.csv") == 0
        ds = load_measure(tmp_path / "ds.csv")
        assert ds.measure.size == 65

    def test_gen_reproducible(self, tmp_path):
        segs = json.dumps([[[0, 0], [1, 1]]])
        for name in ("a.csv", "b.csv"):
            run_cli("--out", str(tmp_path), "--seed", "9", "gen", "--kind", "lines",
                    "--segments", segs, "--points-per-line", "20",
                    "--noise-sd", "0.02", "--output", name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_lines_bad_noise_sd_exit_2(self, tmp_path, capsys, value):
        segs = json.dumps([[[0, 0], [1, 1]]])
        code = run_cli("--out", str(tmp_path), "gen", "--kind", "lines", "--segments", segs,
                       f"--noise-sd={value}")
        assert "noise_sd" in config_error(capsys, code)
        assert not (tmp_path / "measure.csv").exists()

    def test_lines_negative_outliers_exit_2(self, tmp_path, capsys):
        segs = json.dumps([[[0, 0], [1, 1]]])
        code = run_cli("--out", str(tmp_path), "gen", "--kind", "lines", "--segments", segs,
                       "--outliers", "-3")
        assert config_error(capsys, code) == "n_outliers must be finite and non-negative, got -3"
        assert not (tmp_path / "measure.csv").exists()


ONE_LINE = json.dumps([[[0, 0], [1, 0]]])


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "segment", "--b", "[1e400,0]"],
    ["gen", "--kind", "segment", "--spacing", "1e-320"],
    *(["gen", "--kind", "lines", "--segments", ONE_LINE, "--outliers", "3", "--box", box]
      for box in ("[[0,0],[1e400,1]]", "[[NaN,0],[1,1]]", "[[0,0,0],[1,1,1]]")),
    ["curvature", "--point", "[[1,0]]", "--ladder", "0.05,0.04,0.03"],
], ids=["inf-endpoint", "tiny-spacing", "inf-corner", "nan-corner", "3d-corner", "point-row"])
def test_bad_point_argument_exit_2(tmp_path, capsys, argv):
    """A non-finite, wrong-dimension or 2-D point, or a segment count that overflows, exits 2
    with one JSON line and writes nothing."""
    if argv[0] == "curvature":
        save_measure(quadrature_circle(1.0, 2000), tmp_path / "circ.csv")
        argv = [*argv, "--input", str(tmp_path / "circ.csv")]
    out = tmp_path / "out"
    config_error(capsys, run_cli("--out", str(out), *argv))
    assert not any(out.glob("*"))


class TestFieldCommands:
    @pytest.fixture()
    def circle_csv(self, tmp_path):
        path = tmp_path / "circ.csv"
        save_measure(quadrature_circle(1.0, 2000), path)
        return str(path)

    def test_ctf_grid_spec(self, tmp_path, circle_csv):
        assert run_cli("--out", str(tmp_path), "ctf", "--input", circle_csv,
                       "--kernel", "truncation", "--sigma", "0.5",
                       "--grid=-1.5:1.5:6", "--indexed", "--output", "f.csv") == 0
        lines = (tmp_path / "f.csv").read_text().strip().split("\n")
        assert len(lines) == 37
        assert lines[0].startswith("x_1,x_2,sigma,S_11")

    def test_frechet_with_heatmap(self, tmp_path, circle_csv):
        assert run_cli("--out", str(tmp_path), "frechet", "--input", circle_csv,
                       "--kernel", "gaussian", "--sigma", "0.5",
                       "--grid=-1.5:1.5:8", "--heatmap", "hm.svg") == 0
        assert (tmp_path / "frechet.csv").exists()
        assert (tmp_path / "hm.svg").read_text().count("<rect") == 1 + 8 * 8  # background, cells

    @pytest.mark.parametrize("grid", [4, 3, "-1:1:0"])  # a count stands for a points file
    def test_frechet_heatmap_without_a_drawable_grid_exit_2(self, tmp_path, capsys, circle_csv, grid):
        want = "--heatmap"
        if isinstance(grid, int):
            path = tmp_path / "grid.csv"
            save_measure(WeightedMeasure(np.random.default_rng(1).normal(size=(grid, 2)), np.ones(grid)), path)
            grid = str(path)
        else:  # an empty grid is refused by every command before --heatmap is read
            want = "n >= 1"
        out = tmp_path / "out"
        code = run_cli("--out", str(out), "frechet", "--input", circle_csv, "--sigma", "0.5",
                       f"--grid={grid}", "--heatmap", "hm.svg")
        assert want in config_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("ctf", "--grid"), ("frechet", "--grid"), ("flow", "--starts"),
                                               ("stability", "--grid")])
    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_grid_exit_2(self, tmp_path, capsys, circle_csv, command, flag, n):
        inputs = ["--alpha", circle_csv, "--beta", circle_csv] if command == "stability" else ["--input", circle_csv]
        out = tmp_path / "out"
        code = run_cli("--out", str(out), command, *inputs, "--sigma", "0.5", f"{flag}=-1:1:{n}")
        assert "n >= 1" in config_error(capsys, code)
        assert not out.exists()

    def test_flow(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "pts.csv"
        from covfields import empirical_measure

        save_measure(empirical_measure(rng.normal(0, 0.4, (60, 2))), data)
        starts = tmp_path / "starts.csv"
        save_measure(empirical_measure([[0.5, 0.5], [-0.4, 0.2]]), starts)
        assert run_cli("--out", str(tmp_path), "flow", "--input", str(data),
                       "--sigma", "0.8", "--starts", str(starts)) == 0
        lines = (tmp_path / "flow.csv").read_text().strip().split("\n")
        assert lines[0] == "x_1,x_2,attractor_1,attractor_2,basin,converged"
        assert len(lines) == 3

    def test_flow_escaped_start(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "pts.csv"
        from covfields import empirical_measure

        save_measure(empirical_measure(rng.normal(0, 0.4, (60, 2))), data)
        starts = tmp_path / "starts.csv"
        save_measure(empirical_measure([[0.5, 0.5], [20.0, 0.0]]), starts)
        assert run_cli("--out", str(tmp_path), "flow", "--input", str(data),
                       "--sigma", "0.8", "--starts", str(starts)) == 0
        lines = (tmp_path / "flow.csv").read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        assert [r[4:] for r in rows] == [["0", "1"], ["-1", "0"]]

    def test_curvature_command(self, tmp_path):
        from covfields import quadrature_arc

        arc = quadrature_arc(1.0, -0.2, 0.2, 200_000)
        data = tmp_path / "arc.cssv.csv"
        save_measure(arc, data)
        assert run_cli("--out", str(tmp_path), "curvature", "--input", str(data),
                       "--point", "[1.0, 0.0]", "--ladder", "0.05,0.04,0.03") == 0
        lines = (tmp_path / "curvature.csv").read_text().strip().split("\n")
        kappa = float(lines[1].split(",")[2])
        assert abs(kappa - 1.0) < 0.1

    @pytest.mark.parametrize("dim", [1, 4])
    def test_curvature_other_dimension_exit_2(self, tmp_path, capsys, dim):
        data = tmp_path / "m.csv"
        save_measure(WeightedMeasure(np.eye(dim), np.ones(dim)), data)
        code = run_cli("--out", str(tmp_path), "curvature", "--input", str(data),
                       "--point", json.dumps([0.0] * dim), "--ladder", "0.05,0.04,0.03")
        assert config_error(capsys, code) == "plane-curve curvature requires dim 2"
        assert not (tmp_path / "curvature.csv").exists()

    # SHA-256 of curvature.csv from the real surface fit on a polar cap,
    # recorded while the surface fit still took a --surface flag; a 3-D
    # measure now selects it
    SURFACE_DIGEST = "667479c6e1be4ac5e175720f9520f11c606da7172b1d40f6991dcb2d1c63aa9f"

    def test_surface_curvature_frozen(self, tmp_path):
        from covfields import quadrature_cap

        aligns = [2.0 * math.asin(s / 2.0) for s in (0.1, 0.08, 0.06)]
        data = tmp_path / "cap.csv"
        save_measure(quadrature_cap(1.0, 1.6 * max(aligns), 60, 120, align_thetas=aligns), data)
        assert run_cli("--out", str(tmp_path), "curvature", "--input", str(data),
                       "--point", "[0.0, 0.0, 1.0]", "--ladder", "0.1,0.08,0.06") == 0
        digest = hashlib.sha256((tmp_path / "curvature.csv").read_bytes()).hexdigest()
        assert digest == self.SURFACE_DIGEST


class TestClusterCommand:
    def test_cluster_with_labels(self, tmp_path):
        from covfields import gen_line_arrangement

        segs = [(((0.0, 0.0), (18.0, 0.0)), 100), (((0.0, 5.0), (18.0, -4.0)), 100)]
        ds = gen_line_arrangement(segs)
        data = tmp_path / "ds.csv"
        save_measure(ds, data)
        assert run_cli("--out", str(tmp_path), "cluster", "--input", str(data),
                       "--kernel", "gaussian", "--sigma", "0.4", "--gamma", "0",
                       "--cut", "k:4", "--topk", "2", "--svg", "dend.svg") == 0
        out = load_measure(tmp_path / "clusters.csv")
        assert out.measure.size == 200
        assert (tmp_path / "merges.csv").exists()
        assert (tmp_path / "dend.svg").exists()

    def test_metric_stays_condensed(self, tmp_path):
        # 4002 points: each condensed vector of the 8e6 pairs takes 64 MB, and
        # the peak is the two squared parts and the distances (~192 MB); an
        # n x n square would add 128 MB.  The outputs are frozen bytes.
        from covfields import gen_arrangement_suite

        data = tmp_path / "ds.csv"
        save_measure(gen_arrangement_suite("lines2d", 1, seed=0, points_per_component=1334)[0], data)
        tracemalloc.start()
        try:
            code = run_cli("--out", str(tmp_path), "cluster", "--input", str(data), "--sigma", "0.04",
                           "--gamma", "0.002", "--cut", "k:8", "--topk", "3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 200e6
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("clusters.csv", "merges.csv")}
        assert digests == {
            "clusters.csv": "bade84994f77139c34dcb561d3305b540c76b88f67c230afec9ba803b32670a1",
            "merges.csv": "3338669b33ccea3a24b7f25454d8f0073b3b744414d2369bc226eee47b767b4e",
        }

    def test_bad_cut_spec_exit_2(self, tmp_path, capsys):
        from covfields import empirical_measure

        data = tmp_path / "m.csv"
        save_measure(empirical_measure([[0.0, 0.0], [1.0, 1.0]]), data)
        code = run_cli("--out", str(tmp_path), "cluster", "--input", str(data),
                       "--sigma", "0.5", "--cut", "wat")
        assert code == 2
        err = capsys.readouterr().err.strip()
        doc = json.loads(err)
        assert doc["error"] == "config"

    @pytest.mark.parametrize("option", [("--gamma", "nan", "--cut", "k:1"),
                                        ("--gamma", "inf", "--cut", "k:1"),
                                        ("--cut", "h:nan")])
    def test_non_finite_parameter_exit_2(self, tmp_path, capsys, option):
        from covfields import empirical_measure

        data = tmp_path / "m.csv"
        save_measure(empirical_measure([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]]), data)
        code = run_cli("--out", str(tmp_path), "cluster", "--input", str(data),
                       "--sigma", "0.5", *option)
        assert code == 2
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
        assert not (tmp_path / "clusters.csv").exists()


class TestStabilityCommand:
    def test_smooth_report(self, tmp_path):
        rng = np.random.default_rng(1)
        from covfields import empirical_measure

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(empirical_measure(rng.normal(size=(15, 2))), a)
        save_measure(empirical_measure(rng.normal(size=(12, 2))), b)
        assert run_cli("--out", str(tmp_path), "stability", "--alpha", str(a),
                       "--beta", str(b), "--kernel", "gaussian", "--sigma", "1.0",
                       "--grid=-2:2:8") == 0
        doc = json.loads((tmp_path / "stability.json").read_text())
        assert doc["passed"] is True
        assert doc["lhs"] <= doc["rhs"]

    @pytest.mark.parametrize("kernel", ["gaussian", "truncation"])
    def test_non_finite_sigma_exit_2(self, tmp_path, capsys, kernel):
        from covfields import empirical_measure

        a = tmp_path / "a.csv"
        save_measure(empirical_measure([[0.0, 0.0], [0.5, 0.5]]), a)
        code = run_cli("--out", str(tmp_path), "stability", "--alpha", str(a),
                       "--beta", str(a), "--kernel", kernel, "--sigma", "nan",
                       "--lam", "1", "--diameter", "1", "--grid=-1:1:3")
        assert code == 2
        out, err = capsys.readouterr()
        assert "NaN" not in out + err
        lines = err.strip().split("\n")
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"

    def test_runtime_error_exit_3(self, tmp_path, capsys, monkeypatch):
        from covfields import cli, empirical_measure

        def failed_solve(*args, **kwargs):
            raise RuntimeError("transport LP failed: infeasible")

        monkeypatch.setattr(cli, "check_stability_smooth", failed_solve)
        a = tmp_path / "a.csv"
        save_measure(empirical_measure([[0.0, 0.0]]), a)
        code = run_cli("--out", str(tmp_path), "stability", "--alpha", str(a),
                       "--beta", str(a), "--sigma", "1.0", "--grid=-1:1:3")
        assert code == 3
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "numerical", "message": "transport LP failed: infeasible"}

    def test_non_finite_report_exit_3(self, tmp_path, capsys, monkeypatch):
        from types import SimpleNamespace

        from covfields import cli, empirical_measure

        report = SimpleNamespace(to_dict=lambda: {"lhs": math.nan, "rhs": 1.0})
        monkeypatch.setattr(cli, "check_stability_smooth", lambda *args: report)
        a = tmp_path / "a.csv"
        save_measure(empirical_measure([[0.0, 0.0]]), a)
        code = run_cli("--out", str(tmp_path), "stability", "--alpha", str(a),
                       "--beta", str(a), "--sigma", "1.0", "--grid=-1:1:3")
        assert code == 3
        out, err = capsys.readouterr()
        assert out == "" and "NaN" not in err
        assert json.loads(err)["error"] == "numerical"
        assert not (tmp_path / "stability.json").exists()

    def test_truncation_weights_beyond_int32_capacities(self, tmp_path):
        # the exact common denominator of these weights (~1e10) exceeds the
        # int32 capacities of scipy's maximum_flow; W-infinity is 1
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pts = [[0.0, 0.0], [1.0, 0.0]]
        save_measure(WeightedMeasure(pts, [1 / 99991, 1 - 1 / 99991]), a)
        save_measure(WeightedMeasure(pts, [1 / 99989, 1 - 1 / 99989]), b)
        assert run_cli("--out", str(tmp_path), "stability", "--alpha", str(a), "--beta", str(b),
                       "--kernel", "truncation", "--sigma", "0.5", "--lam", "1", "--diameter", "1",
                       "--grid=-1:1:3") == 0
        assert json.loads((tmp_path / "stability.json").read_text())["transport_cost"] == 1.0

    def test_tabulated_kernel_not_eligible_exit_2(self, tmp_path, capsys):
        # a tabulated profile has no derivative; this flat one has its sups at its last knot
        from covfields import empirical_measure

        a, prof = tmp_path / "a.csv", tmp_path / "flat.csv"
        save_measure(empirical_measure([[0.0, 0.0], [0.5, 0.5]]), a)
        prof.write_text("r,f\n0,1\n1,1\n")
        code = run_cli("--out", str(tmp_path), "stability", "--alpha", str(a), "--beta", str(a),
                       "--kernel", str(prof), "--sigma", "0.5", "--grid=-1:1:3")
        assert "not smooth-stability eligible" in config_error(capsys, code)

    def test_truncation_needs_lam(self, tmp_path):
        from covfields import empirical_measure

        a = tmp_path / "a.csv"
        save_measure(empirical_measure([[0.0, 0.0]]), a)
        code = run_cli("--out", str(tmp_path), "stability", "--alpha", str(a),
                       "--beta", str(a), "--kernel", "truncation", "--sigma", "0.5",
                       "--grid=-1:1:3")
        assert code == 2


class TestExperimentsCommands:
    def test_converge_small(self, tmp_path):
        assert run_cli("--out", str(tmp_path), "--seed", "0", "converge",
                       "--n-values", "10,100", "--replicates", "2") == 0
        assert (tmp_path / "converge.json").exists()

    def test_converge_reproducible_csv(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run_cli("--out", str(d), "--seed", "3", "converge",
                           "--n-values", "10,100", "--replicates", "2") == 0
        assert (d1 / "converge.csv").read_bytes() == (d2 / "converge.csv").read_bytes()

    def test_converge_one_value_ladder_is_strict_json(self, tmp_path, capsys):
        assert run_cli("--out", str(tmp_path), "converge", "--n-values", "100",
                       "--replicates", "1") == 0
        strict = {"parse_constant": lambda token: pytest.fail(f"non-JSON token {token}")}
        printed = json.loads(capsys.readouterr().out, **strict)
        written = json.loads((tmp_path / "converge.json").read_text(), **strict)
        assert printed == written
        assert printed["fit_power_constant"] is None

    def test_converge_n_below_two_exit_2(self, tmp_path, capsys):
        # ln ln 1 = -inf made the log-rate fit constant infinite
        code = run_cli("--out", str(tmp_path), "converge", "--n-values", "1,100",
                       "--replicates", "1")
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Infinity" not in err
        doc = json.loads(err)
        assert doc["error"] == "config" and "ladder" in doc["message"]

    def test_bench_small(self, tmp_path):
        assert run_cli("--out", str(tmp_path), "--seed", "1", "bench",
                       "--kind", "lines2d", "--n-samples", "3", "--n-train", "1") == 0
        doc = json.loads((tmp_path / "bench_lines2d.json").read_text())
        assert 0 <= doc["ae"] <= 1

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"converge": {"n_values": [10, 100], "replicates": 2}}))
        assert run_cli("--config", str(cfg), "--out", str(tmp_path), "--seed", "0",
                       "converge") == 0
        doc = json.loads((tmp_path / "converge.json").read_text())
        assert doc["n_values"] == [10, 100]


class TestConfigFile:
    @pytest.fixture()
    def settings(self, monkeypatch):
        """Capture the settings converge and bench run with, and the directory
        their report is saved to, without running them."""
        seen = {}

        class Report:
            def save(self, directory):
                seen["out_dir"] = directory
                return "{}"

        def record(cfg):
            seen["cfg"] = cfg
            return Report()

        monkeypatch.setattr(experiments, "run_converge", record)
        monkeypatch.setattr(experiments, "run_cluster_benchmark", record)
        return seen

    def run_with(self, tmp_path, doc, *argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return run_cli("--config", str(path), "--out", str(tmp_path), *argv)

    def test_top_level_not_an_object_exit_2(self, tmp_path, capsys, settings):
        message = config_error(capsys, self.run_with(tmp_path, [1, 2], "converge"))
        assert "object" in message and not settings

    @pytest.mark.parametrize("command", ["converge", "bench"])
    def test_unknown_setting_exit_2(self, tmp_path, capsys, settings, command):
        message = config_error(capsys, self.run_with(tmp_path, {command: {"replicats": 2}}, command))
        assert "replicats" in message and not settings

    @pytest.mark.parametrize("section", [[1], 3, "lines2d", None])
    def test_section_not_an_object_exit_2(self, tmp_path, capsys, settings, section):
        message = config_error(capsys, self.run_with(tmp_path, {"bench": section}, "bench"))
        assert "'bench'" in message and not settings

    def test_section_nothing_reads_exit_2(self, tmp_path, capsys):
        data = tmp_path / "circ.csv"
        save_measure(quadrature_circle(1.0, 100), data)
        code = self.run_with(tmp_path, {"ctf": {"sigma": 0.5}}, "ctf", "--input", str(data),
                             "--sigma", "0.5", "--grid=-1:1:3")
        assert "'ctf'" in config_error(capsys, code)
        assert not (tmp_path / "ctf.csv").exists()

    def test_section_kind_and_threads_kept_unless_given(self, tmp_path, settings):
        doc = {"bench": {"kind": "planes3d", "threads": 2, "n_samples": 5}}
        assert self.run_with(tmp_path, doc, "bench") == 0
        cfg = settings["cfg"]
        assert (cfg.kind, cfg.threads, cfg.n_samples, settings["out_dir"]) == ("planes3d", 2, 5, str(tmp_path))
        assert self.run_with(tmp_path, doc, "--threads", "1", "bench", "--kind", "lines2d") == 0
        assert (settings["cfg"].kind, settings["cfg"].threads) == ("lines2d", 1)
        assert self.run_with(tmp_path, {"converge": {"threads": 3}}, "converge") == 0
        assert settings["cfg"].threads == 3

    @pytest.mark.parametrize("doc, setting", [
        ({"converge": {"replicates": "2", "n_values": [10]}}, "replicates"),
        ({"converge": {"n_values": [10, "100"]}}, "n_values"),
        ({"converge": {"n_values": 10}}, "n_values"),
        ({"converge": {"sigma": True}}, "sigma"),
        ({"converge": {"out_dir": 5}}, "out_dir"),
        ({"bench": {"n_samples": 4.0}}, "n_samples"),
        ({"bench": {"kind": ["lines2d"]}}, "kind"),
        ({"bench": {"sigma_grid": {"a": 1}}}, "sigma_grid"),
    ])
    def test_wrong_setting_type_exit_2(self, tmp_path, capsys, settings, doc, setting):
        command = next(iter(doc))
        message = config_error(capsys, self.run_with(tmp_path, doc, command))
        assert repr(setting) in message and not settings

    def test_setting_types_accepted(self, tmp_path, settings):
        doc = {"bench": {"noise_sd": 0, "points_per_component": None, "sigma_grid": [0.04, 1],
                         "kind": "planes3d", "n_samples": 5}}
        assert self.run_with(tmp_path, doc, "bench") == 0
        cfg = settings["cfg"]
        assert (cfg.noise_sd, cfg.points_per_component, cfg.sigma_grid) == (0, None, [0.04, 1])

    def test_out_dir_from_flag_else_working_directory(self, tmp_path, monkeypatch, settings):
        monkeypatch.chdir(tmp_path)
        assert run_cli("--out", "given", "converge") == 0
        assert settings["out_dir"] == "given"
        assert run_cli("bench") == 0
        assert settings["out_dir"] == "."

    @pytest.mark.parametrize("command, setting, value", [
        ("converge", "out_dir", "elsewhere"), ("bench", "out_dir", "elsewhere"),
        ("bench", "cutoff_width_stds", 1.0),
    ])
    def test_removed_setting_exit_2(self, tmp_path, capsys, monkeypatch, command, setting, value):
        # the output directory is --out alone, and the cutoff span is fixed
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({command: {setting: value}}))
        message = config_error(capsys, run_cli("--config", str(path), command))
        assert "unknown settings" in message and repr(setting) in message
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv, field", [
        (["converge", "--replicates", "0"], "replicates"),
        (["converge", "--n-values", ""], "ladder"),
        (["bench", "--n-samples", "0"], "n_samples"),
        (["bench", "--n-train", "0"], "n_train"),
    ])
    def test_zero_or_empty_flag_exit_2(self, tmp_path, capsys, argv, field):
        message = config_error(capsys, run_cli("--out", str(tmp_path), *argv))
        assert field in message

    @pytest.mark.parametrize("setting", [{"sigma_grid": []}, {"gamma_grid": []}, {"cutoff_steps": 0}])
    def test_empty_search_exit_2(self, tmp_path, capsys, setting):
        doc = {"bench": {"n_samples": 3, "n_train": 1, "points_per_component": 20, **setting}}
        assert next(iter(setting)) in config_error(capsys, self.run_with(tmp_path, doc, "bench"))

    @pytest.mark.parametrize("grid_n", [0, -2])
    def test_empty_converge_grid_exit_2(self, tmp_path, capsys, grid_n):
        doc = {"converge": {"n_values": [10], "replicates": 1, "grid_n": grid_n}}
        message = config_error(capsys, self.run_with(tmp_path, doc, "converge"))
        assert message == f"grid_n must be at least 1, got {grid_n}"
        assert not (tmp_path / "converge.csv").exists()

    @pytest.mark.parametrize("setting", [
        {"points_per_component": 0}, {"points_per_component": 1}, {"noise_sd": -1}, {"noise_sd": math.nan},
    ])
    def test_unusable_suite_setting_exit_2(self, tmp_path, capsys, setting):
        doc = {"bench": {"n_samples": 3, "n_train": 1, **setting}}
        assert next(iter(setting)) in config_error(capsys, self.run_with(tmp_path, doc, "bench"))


def test_readme_and_docstring_name_the_parser_subcommands():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = list(sub.choices)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    in_readme = re.findall(r"^covfields (?:--\S+ \S+ )*(\w+)", block, re.M)
    listed = re.search(r"Subcommands: (.*?)\.", cli.__doc__, re.S).group(1)
    assert in_readme == parsed
    assert [name.strip() for name in listed.split(",")] == parsed


class TestErrorPaths:
    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = run_cli("--out", str(tmp_path), "ctf", "--input", "/nonexistent.csv",
                       "--sigma", "0.5", "--grid=-1:1:3")
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"

    def test_json_document_input_exit_2(self, tmp_path, capsys):
        data = tmp_path / "m.json"
        data.write_text('{"dim": 2, "atoms": [[0.0, 0.0], [1.0, 0.0]], "weights": [0.5, 0.5]}\n')
        code = run_cli("--out", str(tmp_path), "ctf", "--input", str(data),
                       "--sigma", "0.5", "--grid=-1:1:3")
        assert config_error(capsys, code) == "line 1: header must contain a 'weight' column"

    @pytest.mark.parametrize("header", ["weight,x_1,x_2", "x_1,label,weight"])
    def test_misplaced_weight_column_exit_2(self, tmp_path, capsys, header):
        data = tmp_path / "m.csv"
        data.write_text(f"{header}\n0.5,1.0,2.0\n1.5,3.0,4.0\n")
        out = tmp_path / "out"
        code = run_cli("--out", str(out), "ctf", "--input", str(data), "--sigma", "0.5", "--grid=-1:1:3")
        assert config_error(capsys, code) == f"line 1: header must be x_1..x_d,weight[,label], got {header!r}"
        assert not out.exists()

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # a straight segment in 3-D is no surface: its quadratic fit has no
        # consistent principal curvatures, and the command exits 3
        from covfields import quadrature_segment

        data = tmp_path / "segment.csv"
        save_measure(quadrature_segment([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.001), data)
        code = run_cli("--out", str(tmp_path), "curvature", "--input", str(data),
                       "--point", "[0.0, 0.0, 0.0]", "--ladder", "0.2,0.1,0.05")
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "numerical"

    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB for an array", ""])
    def test_memory_error_exit_3(self, tmp_path, capsys, monkeypatch, message):
        from covfields import cli, empirical_measure

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "ctf_grid", exhausted)
        a = tmp_path / "a.csv"
        save_measure(empirical_measure([[0.0, 0.0]]), a)
        code = run_cli("--out", str(tmp_path), "ctf", "--input", str(a), "--sigma", "1.0", "--grid=-1:1:3")
        assert code == 3
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().split("\n")) == 1
        assert json.loads(err) == {"error": "memory", "message": message or "out of memory"}

    @pytest.mark.parametrize("flags", [
        ("--segments", ONE_LINE, "--outliers", "3", "--box", "[[0,0]]"),
        ("--segments", ONE_LINE, "--outliers", "3", "--box", "5"),
        ("--segments", "7"),
        ("--segments", "[[[0,0]]]"),
    ], ids=["box-one-corner", "box-number", "segments-number", "segment-one-end"])
    def test_malformed_gen_json_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        message = config_error(capsys, run_cli("--out", str(out), "gen", "--kind", "lines", *flags))
        assert message.startswith(f"{flags[-2]} must be a ") and not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--cut", "k:2", "--topk", "0"), "--topk must be at least 1, got 0"),
        (("--cut", "k8"), "--cut must be 'k:<count>' or 'h:<height>', got 'k8'"),
    ])
    def test_bad_cluster_flags_exit_2(self, tmp_path, capsys, flags, message):
        from covfields import empirical_measure

        data = tmp_path / "m.csv"
        save_measure(empirical_measure([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]]), data)
        code = run_cli("--out", str(tmp_path), "cluster", "--input", str(data), "--sigma", "0.5", *flags)
        assert config_error(capsys, code) == message
        assert not (tmp_path / "clusters.csv").exists()

    def test_indexed_full_support_exit_2(self, tmp_path, capsys):
        from covfields import empirical_measure

        data = tmp_path / "m.csv"
        save_measure(empirical_measure([[0.0, 0.0]]), data)
        code = run_cli("--out", str(tmp_path), "ctf", "--input", str(data),
                       "--kernel", "gaussian", "--sigma", "0.5", "--grid=-1:1:3", "--indexed")
        assert code == 2
        assert "compact" in json.loads(capsys.readouterr().err.strip())["message"]

    @pytest.mark.parametrize("command", ["ctf", "frechet"])
    @pytest.mark.parametrize("kernel", ["gaussian", "truncation"])
    @pytest.mark.parametrize("sigma", ["1e200", "1e-170"])
    def test_sigma_out_of_float_range_exit_2(self, tmp_path, capsys, command, kernel, sigma):
        from covfields import empirical_measure

        data = tmp_path / "m.csv"
        save_measure(empirical_measure(np.random.default_rng(3).normal(size=(50, 2))), data)
        code = run_cli("--out", str(tmp_path), command, "--input", str(data),
                       "--kernel", kernel, "--sigma", sigma, "--grid=-1:1:3")
        assert code == 2
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
        assert "sigma" in json.loads(lines[0])["message"]
        assert not (tmp_path / f"{command}.csv").exists()

    def test_unknown_kernel_exit_2(self, tmp_path):
        from covfields import empirical_measure

        data = tmp_path / "m.csv"
        save_measure(empirical_measure([[0.0, 0.0]]), data)
        code = run_cli("--out", str(tmp_path), "ctf", "--input", str(data),
                       "--kernel", "sinc", "--sigma", "0.5", "--grid=-1:1:3")
        assert code == 2


def _seeded(seed, shape, positive=False):
    """Floats from a seeded PCG64 stream over twenty orders of magnitude.

    Only uniform draws and exact scalings are used, so the values (and the
    bytes written from them) are the same on every platform.
    """
    rng = np.random.default_rng(seed)
    scale = np.array([1e-7, 1e-3, 1.0, 3.0, 1e3, 1e17])[rng.integers(0, 6, shape)]
    u = rng.random(shape)
    return (u + 1e-3 if positive else u - 0.5) * scale


class TestCsvBytesFrozen:
    """Every CSV the package writes, from small seeded inputs, pinned by SHA-256.

    The numerical layers behind the CLI commands are replaced by seeded
    stand-ins, so the digests pin the writers' bytes, with one exception:
    the ``merges`` case replaces only the distances and runs the real
    ``single_linkage``, so its digest also pins the merge rows.
    """

    # recorded with the per-command row loops, before one writer served all;
    # ``merges`` re-recorded when the rows became scipy's (smaller id first)
    FROZEN_DIGESTS = {
        "measure": "d73195567428887a6532edade76eba3c338aac88156f0457d5d2c8ffe5939b71",
        "labeled_measure": "439c43ccab71c38f1dc6c400111c7d2dbac957226209a224539cb816fc056e5b",
        "ctf": "8cdfcbf0c2d5c6158cce2da60f0e8823fe22fabb3ac35249891d32829cbad8fa",
        "frechet": "ecd9ba87c10a9df2ae96e9973f6e4ea6713f41ce8c7630c62b6166770481e4d8",
        "flow": "50d0e984abc1bbd810de6688882d52d2ac11576264a4d39a9b594f0688504d94",
        "curvature": "137fa66fe9e2351e7b7037e8adaf35c94cd64829aa737cbba21b8ab95f082362",
        "curvature_surface": "d6fb8b13a72de452fe09f64e666d7ca46064363882f1e44cc667361e18d27bcd",
        "merges": "397c197aa4aad2f7346178f55e7249eceabd4d16d62ed02c567808ec5b29178d",
        "converge": "766b89a822df356feec4736f85740a94286a08294ac201a17499a81bf78ae481",
        "bench_lines2d": "5035a86d059de75659823a679c68080485aded7d44bb98ee15450e36b2af17cb",
    }

    @staticmethod
    def _measure_csv(tmp_path):
        path = tmp_path / "m.csv"
        save_measure(WeightedMeasure(_seeded(1, (9, 2)), _seeded(2, 9, positive=True)), path)
        return path

    def _write(self, name, tmp_path, monkeypatch):
        from covfields import clustering, cli, experiments
        from covfields.fields import FieldGrid, FlowResult
        from covfields.geometry import CurveCurvatureEstimate, SurfaceCurvatureEstimate

        out = tmp_path / "out"
        if name == "measure":
            return self._measure_csv(tmp_path)
        if name == "labeled_measure":
            path = tmp_path / "ds.csv"
            labels = np.random.default_rng(3).integers(0, 12, 9)
            save_measure(LabeledDataset(WeightedMeasure(_seeded(4, (9, 3)),
                                                        _seeded(5, 9, positive=True)), labels), path)
            return path
        data = str(self._measure_csv(tmp_path))
        data3 = tmp_path / "m3.csv"
        save_measure(WeightedMeasure(_seeded(4, (9, 3)), _seeded(5, 9, positive=True)), data3)

        def fake_ctf_grid(measure, kernel, grid, sigma, acceleration="exact"):
            m = len(grid)
            s = _seeded(6, (m, 3))
            tensors = np.empty((m, 2, 2))
            tensors[:, 0, 0], tensors[:, 1, 1] = s[:, 0], s[:, 1]
            tensors[:, 0, 1] = tensors[:, 1, 0] = s[:, 2]
            return FieldGrid(grid, sigma, tensors, _seeded(7, m))

        def fake_basin_labels(measure, kernel, starts, sigma):
            attractors = _seeded(8, starts.shape)
            results = [FlowResult(s, a, np.array([s, a]), bool(i % 2))
                       for i, (s, a) in enumerate(zip(starts, attractors))]
            labels = np.arange(len(starts)) % 4
            return labels, attractors[:4], results

        def estimate(cls, *fields):
            def fake(measure, point, ladder):
                return cls(_seeded(9, len(point)), _seeded(10, len(ladder)), *fields)
            return fake

        monkeypatch.setattr(cli, "ctf_grid", fake_ctf_grid)
        monkeypatch.setattr(cli, "basin_labels", fake_basin_labels)
        monkeypatch.setattr(cli, "curve_curvature", estimate(
            CurveCurvatureEstimate, *_seeded(11, 2).tolist(), True))
        monkeypatch.setattr(cli, "surface_curvatures", estimate(
            SurfaceCurvatureEstimate, *_seeded(12, 2).tolist(), False, *_seeded(13, 2).tolist()))
        half = np.triu(_seeded(14, (9, 9), positive=True), 1)
        monkeypatch.setattr(clustering, "tensorized_condensed", lambda m, p: squareform(half + half.T))
        rng = np.random.default_rng(15)
        monkeypatch.setattr(experiments, "_sample_errors", lambda ds, params, offsets, k: [
            rng.random(len(offsets)).tolist() for _ in params])

        if name == "converge":
            report = experiments.ConvergenceReport(
                [10, 1000, 100000], _seeded(16, 3, positive=True).tolist(), [], *[1.0] * 7, True)
            monkeypatch.setattr(experiments, "run_converge", lambda cfg: report)
            assert run_cli("--out", str(out), "converge") == 0
            return out / "converge.csv"
        if name == "bench_lines2d":
            assert run_cli("--out", str(out), "--seed", "1", "bench", "--kind", "lines2d",
                           "--n-samples", "6", "--n-train", "2") == 0
            return out / "bench_lines2d.csv"
        args = {
            "ctf": ("ctf", "--input", data, "--sigma", "0.5", "--grid", data),
            "frechet": ("frechet", "--input", data, "--sigma", "0.5", "--grid", data),
            "flow": ("flow", "--input", data, "--sigma", "0.5", "--starts", data),
            "curvature": ("curvature", "--input", data, "--point", "[1.0, 0.0]",
                          "--ladder", "0.05,0.04,0.03"),
            "curvature_surface": ("curvature", "--input", str(data3), "--point", "[0.0, 0.0, 1.0]",
                                  "--ladder", "0.05,0.04,0.03"),
            "merges": ("cluster", "--input", data, "--sigma", "0.5", "--cut", "k:2"),
        }[name]
        assert run_cli("--out", str(out), *args) == 0
        return out / {"curvature_surface": "curvature.csv", "merges": "merges.csv"}.get(
            name, f"{name}.csv")

    @pytest.mark.parametrize("name", list(FROZEN_DIGESTS))
    def test_digest(self, tmp_path, monkeypatch, name):
        path = self._write(name, tmp_path, monkeypatch)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.FROZEN_DIGESTS[name]

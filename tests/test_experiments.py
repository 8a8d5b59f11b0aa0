import json

import numpy as np
import pytest

from covfields import (
    BenchmarkConfig,
    ConvergeConfig,
    builtin_gaussian,
    dendrogram_svg,
    heatmap_svg,
    loglog_svg,
    quadrature_circle,
    run_cluster_benchmark,
    run_converge,
    single_linkage,
    square_grid,
    tensor_glyphs_svg,
)


class TestConverge:
    def test_deterministic(self):
        cfg = ConvergeConfig(n_values=(10, 100, 1000), replicates=3, seed=5)
        a = run_converge(cfg)
        b = run_converge(cfg)
        assert a.mean_errors == b.mean_errors
        assert a.rep_errors == b.rep_errors

    def test_seed_changes_result(self):
        a = run_converge(ConvergeConfig(n_values=(100,), replicates=2, seed=1))
        b = run_converge(ConvergeConfig(n_values=(100,), replicates=2, seed=2))
        assert a.mean_errors != b.mean_errors

    def test_threads_match_serial(self):
        cfg = ConvergeConfig(n_values=(10, 100), replicates=4, seed=3)
        serial = run_converge(cfg)
        cfg.threads = 4
        pooled = run_converge(cfg)
        assert serial.mean_errors == pooled.mean_errors

    def test_errors_decrease(self):
        cfg = ConvergeConfig(n_values=(10, 1000, 100000), replicates=3, seed=0)
        rep = run_converge(cfg)
        assert rep.monotone_decreasing

    def test_empty_ladder(self):
        with pytest.raises(ValueError, match="ladder"):
            run_converge(ConvergeConfig(n_values=()))

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_no_replicates(self, replicates):
        with pytest.raises(ValueError, match="replicates"):
            run_converge(ConvergeConfig(n_values=(10,), replicates=replicates))

    def test_one_value_ladder_leaves_power_fit_null(self, tmp_path):
        cfg = ConvergeConfig(n_values=(100,), replicates=2, seed=0, out_dir=str(tmp_path))
        rep = run_converge(cfg)
        assert rep.fit_power_constant is rep.fit_power_exponent is rep.fit_power_residual is None
        doc = json.loads((tmp_path / "converge.json").read_text())
        assert doc["fit_power_exponent"] is None and doc["fit_lograte_residual"] == 0.0
        assert "nan" not in (tmp_path / "converge.svg").read_text()

    def test_outputs_written(self, tmp_path):
        cfg = ConvergeConfig(n_values=(10, 100), replicates=2, seed=0, out_dir=str(tmp_path))
        rep = run_converge(cfg)
        assert (tmp_path / "converge.csv").exists()
        assert (tmp_path / "converge.svg").exists()
        doc = json.loads((tmp_path / "converge.json").read_text())
        assert doc["n_values"] == [10, 100]
        assert rep.fit_power_exponent < 0


class TestBenchmark:
    def test_small_lines_run(self):
        cfg = BenchmarkConfig(kind="lines2d", n_samples=4, n_train=2,
                              points_per_component=60, seed=0,
                              sigma_grid=(0.04,), gamma_grid=(0.0,), cutoff_steps=9)
        res = run_cluster_benchmark(cfg)
        assert 0.0 <= res.ae <= 1.0
        assert len(res.test_errors) == 2

    def test_single_line_trivial(self):
        # degenerate suite of one-component datasets clusters perfectly
        from covfields import TensorizedMetricParams, cut, empirical_measure, score, tensorized_distances

        pts = np.linspace(0, 1, 80)[:, None] * np.array([[1.0, 0.5]])
        params = TensorizedMetricParams(gamma=0.0, sigma=0.05, kernel=builtin_gaussian())
        d = tensorized_distances(empirical_measure(pts), params)
        asg = cut(single_linkage(d), k=1)
        assert score(asg.labels, np.zeros(80, dtype=int)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown"):
            run_cluster_benchmark(BenchmarkConfig(kind="nope", n_samples=3, n_train=1))
        with pytest.raises(ValueError):
            run_cluster_benchmark(BenchmarkConfig(kind="lines2d", n_samples=1, n_train=1))

    @pytest.mark.parametrize("field, value", [
        ("sigma_grid", ()), ("gamma_grid", []), ("cutoff_steps", 0), ("cutoff_steps", -3),
    ])
    def test_empty_search(self, field, value):
        cfg = BenchmarkConfig(kind="lines2d", n_samples=3, n_train=1, points_per_component=20)
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=field):
            run_cluster_benchmark(cfg)

    def test_deterministic(self):
        cfg = BenchmarkConfig(kind="lines2d", n_samples=3, n_train=1,
                              points_per_component=40, seed=2,
                              sigma_grid=(0.04,), gamma_grid=(0.0,), cutoff_steps=5)
        a = run_cluster_benchmark(cfg)
        b = run_cluster_benchmark(cfg)
        assert a.test_errors == b.test_errors


class TestPlots:
    def test_deterministic_bytes(self, tmp_path):
        x = np.array([10.0, 100.0, 1000.0])
        series = [("a", np.array([0.3, 0.1, 0.03]))]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        loglog_svg(x, series, p1)
        loglog_svg(x, series, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tensor_glyph_axis_ratio(self, tmp_path):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        tensors = np.array([np.diag([1.0, 4.0]), np.eye(2)])
        path = tmp_path / "glyphs.svg"
        tensor_glyphs_svg(pts, tensors, path)
        text = path.read_text()
        ellipses = [ln for ln in text.split("\n") if "ellipse" in ln]
        assert len(ellipses) == 2

        def radii(s):
            rx = float(s.split('rx="')[1].split('"')[0])
            ry = float(s.split('ry="')[1].split('"')[0])
            return rx, ry

        rx, ry = radii(ellipses[0])
        assert max(rx, ry) / min(rx, ry) == pytest.approx(2.0, rel=1e-6)  # sqrt(4/1)
        rx, ry = radii(ellipses[1])
        assert rx == pytest.approx(ry, rel=1e-6)  # isotropic -> circle

    def test_dendrogram_svg(self, tmp_path):
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        dend = single_linkage(d)
        path = tmp_path / "dend.svg"
        dendrogram_svg(dend, path)
        assert path.read_text().startswith("<svg")

    def test_heatmap(self, tmp_path):
        path = tmp_path / "hm.svg"
        heatmap_svg(np.arange(4.0), np.arange(3.0), np.arange(12.0).reshape(3, 4), path)
        assert path.read_text().count("<rect") == 13  # 12 cells + background


def test_square_grid():
    g = square_grid(-1.5, 1.5, 24)
    assert g.shape == (576, 2)
    assert g[0, 0] == -1.5 and g[-1, 1] == 1.5


def test_exact_circle_field_consistency():
    # empirical field of a dense quadrature circle approaches the closed form
    # used by the convergence study
    import covfields.experiments as ex
    from covfields import builtin_truncation, ctf_grid

    cfg = ConvergeConfig()
    grid = square_grid(-1.5, 1.5, 12)
    exact = ex._exact_circle_field(cfg, grid)
    circ = quadrature_circle(1.0, 400_000).normalize()
    emp = ctf_grid(circ, builtin_truncation(), grid, 0.6, acceleration="indexed").tensors
    assert np.linalg.norm(emp - exact, axis=(1, 2)).max() < 1e-4

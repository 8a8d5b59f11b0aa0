import ast
import hashlib
import inspect
import json
import tracemalloc
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist, pdist, squareform

import covfields.experiments as ex
from covfields import clustering

from covfields import (
    BenchmarkConfig,
    ConvergeConfig,
    NumericalError,
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

    def test_fractional_n_rejected(self):
        # 10.5 is refused rather than run as n = 10; an integral float is an n
        with pytest.raises(ValueError, match=r"whole number, got \[10.5, 100\]"):
            run_converge(ConvergeConfig(n_values=(10.5, 100), replicates=1))
        cfg = ConvergeConfig(n_values=(10.0, 1e2), replicates=1, grid_n=3)
        assert asdict(run_converge(cfg)) == asdict(run_converge(replace(cfg, n_values=(10, 100))))

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_no_replicates(self, replicates):
        with pytest.raises(ValueError, match="replicates"):
            run_converge(ConvergeConfig(n_values=(10,), replicates=replicates))

    @pytest.mark.parametrize("grid_n", [0, -1])
    def test_empty_grid(self, grid_n):
        with pytest.raises(ValueError, match="grid_n"):
            run_converge(ConvergeConfig(n_values=(10,), replicates=1, grid_n=grid_n))

    def test_one_value_ladder_leaves_power_fit_null(self, tmp_path):
        cfg = ConvergeConfig(n_values=(100,), replicates=2, seed=0)
        rep = run_converge(cfg)
        assert rep.fit_power_constant is rep.fit_power_exponent is rep.fit_power_residual is None
        rep.save(tmp_path)
        doc = json.loads((tmp_path / "converge.json").read_text())
        assert doc["fit_power_exponent"] is None and doc["fit_lograte_residual"] == 0.0
        assert "nan" not in (tmp_path / "converge.svg").read_text()

    def test_outputs_written(self, tmp_path):
        cfg = ConvergeConfig(n_values=(10, 100), replicates=2, seed=0)
        rep = run_converge(cfg)
        rep.save(tmp_path / "new")
        assert (tmp_path / "new" / "converge.csv").exists()
        assert (tmp_path / "new" / "converge.svg").exists()
        doc = json.loads((tmp_path / "new" / "converge.json").read_text())
        assert doc["n_values"] == [10, 100]
        assert rep.fit_power_exponent < 0

    def test_non_finite_report_writes_no_file(self, tmp_path):
        rep = run_converge(ConvergeConfig(n_values=(10, 100), replicates=1, seed=0))
        rep.fit_sqrt_constant = float("nan")
        with pytest.raises(NumericalError, match="non-finite"):
            rep.save(tmp_path / "out")
        assert not (tmp_path / "out").exists()


def test_harnesses_write_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_converge(ConvergeConfig(n_values=(10,), replicates=1, grid_n=4))
    run_cluster_benchmark(BenchmarkConfig(kind="lines2d", n_samples=2, n_train=1, points_per_component=20,
                                          sigma_grid=(0.04,), gamma_grid=(0.0,), cutoff_steps=3))
    assert not any(tmp_path.iterdir())


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


def per_offset_errors(dataset, d, offsets, k_true):
    """The sweep as one cut, reassignment and score per offset (reference)."""
    dend = clustering.single_linkage(d)
    h0, sd = clustering.mean_cophenetic(dend), clustering.cophenetic_std(dend)
    errs = []
    for u in offsets:
        assignment = clustering.cut(dend, height=max(h0 + u * sd, 0.0))
        if assignment.k >= k_true:
            assignment = clustering.topk_reassign(assignment, d, k_true)
        errs.append(clustering.score(assignment.labels, dataset.labels))
    return errs


@st.composite
def sweep_cases(draw):
    """Euclidean metrics of 2-12 points on a 1/2 grid (tied heights and
    zero distances), offsets drawn from a few values (repeated partitions),
    ground truth and the number of clusters kept."""
    n = draw(st.integers(2, 12))
    pts = draw(hnp.arrays(np.int64, (n, 2), elements=st.integers(-4, 4))) / 2.0
    offsets = draw(st.lists(st.sampled_from([-3.0, -1.5, -0.5, 0.0, 0.25, 1.0, 2.0]), min_size=1, max_size=12))
    truth = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
    return cdist(pts, pts), offsets, SimpleNamespace(labels=truth), draw(st.integers(1, 4))


class TestSweep:
    # sha256 of json.dumps(asdict(result), sort_keys=True), recorded with one
    # cut, reassignment and score per offset and tensorized distances built
    # by cdist
    FROZEN = {
        ("lines2d", 32, 8, 0): "1779180d0e0746f0eef2649f772dd478c2be0df00e7eda4ccff4eb22301a7e0a",
        ("planes3d", 4, 2, 0): "d79b1294d3686bafd3b82c72c1e9ecacd20de44c9cfa3ffb5421ca2ee76ef366",
        ("mixed_curves2d", 8, 3, 0): "3985075f6eba90c915f579652e163e6aef4179ed79c2261a99cdb2cffe7b7e52",
        ("lines2d", 32, 8, 4096): "592a43bcb19afa599bcd6b7c50fe7d9e804d4e44aa6ae3769c80f76726800bfb",
        ("planes3d", 4, 2, 4096): "bd75cfda052169bbf93e0668f0325222135949ec5e0b9b77bd88bf65e07aa551",
        ("mixed_curves2d", 8, 3, 4096): "5ba8f1860ece3f4fbff0dfc898c5483a1b3ed1991a3a9fa96963872c89bbc362",
    }

    @pytest.mark.parametrize("case", list(FROZEN))
    def test_frozen_results(self, case):
        kind, n_samples, n_train, seed = case
        res = run_cluster_benchmark(BenchmarkConfig(kind=kind, n_samples=n_samples, n_train=n_train,
                                                    cutoff_steps=25, seed=seed))
        digest = hashlib.sha256(json.dumps(asdict(res), sort_keys=True).encode()).hexdigest()
        assert digest == self.FROZEN[case]

    @settings(max_examples=150, deadline=None)
    @given(sweep_cases())
    def test_matches_per_offset_loop(self, case):
        d, offsets, dataset, k_true = case
        y = squareform(d, checks=False)
        want = per_offset_errors(dataset, d, offsets, k_true)
        assert clustering.offset_errors(y, dataset.labels, offsets, k_true) == want

    def test_one_cut_and_score_per_partition(self, monkeypatch):
        ds = ex.gen_arrangement_suite("lines2d", 1, seed=0, points_per_component=40)[0]
        params = clustering.TensorizedMetricParams(gamma=0.002, sigma=0.04, kernel=builtin_gaussian())
        d = clustering.tensorized_distances(ds.measure, params)
        offsets = np.linspace(-2.0, 2.0, 61)
        expected = per_offset_errors(ds, d, offsets, 3)
        matched = []  # each confusion matrix scored, one per evaluated partition

        def counted(conf):
            matched.append(-conf)
            return linear_sum_assignment(conf)

        monkeypatch.setattr(clustering, "linear_sum_assignment", counted)
        assert clustering.offset_errors(squareform(d, checks=False), ds.labels, offsets, 3) == expected
        dend = clustering.single_linkage(d)
        heights = np.maximum(clustering.mean_cophenetic(dend) + offsets * clustering.cophenetic_std(dend), 0.0)
        partitions = {}  # number of gaps <= h -> the cut's labels
        for h in heights:
            partitions.setdefault(int((dend.gaps <= h).sum()), clustering.cut(dend, height=h).labels)
        assert len(partitions) < len(offsets)  # the offsets repeat partitions
        assert len(matched) == len(partitions)
        for conf, labels in zip(matched, (partitions[key] for key in sorted(partitions))):
            assert conf.sum() == ds.labels.size and np.count_nonzero(conf.sum(axis=1)) == min(labels.max() + 1, 3)

    @pytest.mark.parametrize("x, truth, cut_heights, want", [
        # A (5 points), B (4), C (3) and D (3) at height 0.2, so A and B are
        # kept; at 0.6 C and D have merged (6 points) and B is dropped, so
        # the nearest kept points are found again from scratch: three points
        # of B join A and one joins C and D
        (np.concatenate([np.arange(5) * 0.1, 10 + np.arange(4) * 0.1, 20 + np.arange(3) * 0.1,
                         20.7 + np.arange(3) * 0.1]), np.repeat([0, 1], [5, 10]), (0.2, 0.6), [0.0, 3 / 15]),
        # point 5 (at 53) is dropped at both heights; at 1.5 its nearest kept
        # point is point 4 (at 3), and at 7 point 0 (at 103, newly kept) is
        # as near and has the lower index, so point 5 changes cluster
        (np.array([103.0, 0, 1, 2, 3, 53, 109, 110, 111, 112, 113]), np.repeat([1, 0, 1], [1, 5, 5]),
         (1.5, 7.0), [0.0, 1 / 11]),
    ])
    def test_nested_cuts(self, x, truth, cut_heights, want):
        d = cdist(x[:, None], x[:, None])
        dataset = SimpleNamespace(labels=truth)
        dend = clustering.single_linkage(d)
        h0, sd = clustering.mean_cophenetic(dend), clustering.cophenetic_std(dend)
        offsets = [(h - h0) / sd for h in cut_heights]
        got = clustering.offset_errors(squareform(d, checks=False), dataset.labels, offsets, 2)
        assert got == per_offset_errors(dataset, d, offsets, 2) == pytest.approx(want)

    def test_experiments_reads_no_private_clustering_name(self):
        # the cut, keep, reassign and score rules live in clustering alone:
        # experiments reaches clustering through its public names only
        tree = ast.parse(inspect.getsource(ex))
        aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and node.module is None for a in node.names if a.name == "clustering"}
        assert aliases == {"cl"}
        private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id in aliases and node.attr.startswith("_")]
        private += [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module == "clustering" for a in node.names if a.name.startswith("_")]
        assert private == []

    def test_peak_memory_of_a_planes3d_sweep(self):
        ds = ex.gen_arrangement_suite("planes3d", 1, seed=0, points_per_component=225)[0]
        points = ds.measure.atoms
        features = clustering.tensor_features(points, builtin_gaussian(), 0.15)
        y = clustering.lifted_condensed(pdist(features, "sqeuclidean"), pdist(points, "sqeuclidean"), 0.002)
        offsets = np.linspace(-2.0, 2.0, 25)
        clustering.offset_errors(y, ds.labels, offsets, 3)
        tracemalloc.start()
        try:
            clustering.offset_errors(y, ds.labels, offsets, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 0.85 MB; the (dropped, kept) entries of the 675 points gathered at once took 3.4 MB
        assert peak <= 1.5e6

    def test_benchmark_builds_no_square_metric(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep went through a square metric")

        monkeypatch.setattr(clustering, "squareform", refuse)
        monkeypatch.setattr(clustering, "topk_reassign", refuse)
        res = run_cluster_benchmark(BenchmarkConfig(kind="planes3d", n_samples=3, n_train=2, cutoff_steps=9))
        assert len(res.test_errors) == 1


class TestPlots:
    def test_deterministic_bytes(self, tmp_path):
        x = np.array([10.0, 100.0, 1000.0])
        series = [("a", np.array([0.3, 0.1, 0.03]))]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        loglog_svg(x, series, p1)
        loglog_svg(x, series, p2)
        assert p1.read_bytes() == p2.read_bytes()

    # SHA-256 of each writer's bytes on fixed inputs, recorded before the
    # writers shared one header, plot area and file write
    FROZEN_DIGESTS = {
        "loglog": "aeaa17dad88df3915430590cf53be773750d7a514c300ed09a3c0adcde41a0ba",
        "dendrogram": "ba5c3306fa4cd0f1b0b66bc140f37801cea50d9232fa2a70d53b70bc974e9eb1",
        "glyphs": "2aeec1f74a5def367a0cc139c9ac1eafd71d4a7ea704cf971e837a4731e2e587",
        "heatmap": "4fcd974f47c73ee35f2d99e590ab6dc6da2d964c19036162255b030644084ba9",
    }

    @pytest.mark.parametrize("writer", sorted(FROZEN_DIGESTS))
    def test_frozen_bytes(self, writer, tmp_path):
        path = tmp_path / "plot.svg"
        x = np.random.default_rng(1).random((9, 2))
        tensors = np.array([np.diag([1.0, 4.0]), np.eye(2), [[2.0, 0.5], [0.5, 1.0]]])
        if writer == "loglog":
            loglog_svg([10.0, 100.0, 1000.0], [("a", [0.3, 0.1, 0.03]), ("b", [1.0, 0.5, 0.2])], path)
        elif writer == "dendrogram":
            dendrogram_svg(single_linkage(cdist(x, x)), path)
        elif writer == "glyphs":
            tensor_glyphs_svg([[0.0, 0.0], [1.0, 1.0], [0.3, 0.8]], tensors, path)
        else:
            heatmap_svg(np.arange(4.0), np.arange(3.0), np.sin(np.arange(12.0)).reshape(3, 4), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.FROZEN_DIGESTS[writer]

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

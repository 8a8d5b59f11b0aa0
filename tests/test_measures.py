import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from covfields import (
    LabeledDataset,
    MeasureFormatError,
    WeightedMeasure,
    basin_labels,
    builtin_gaussian,
    circle_tensor,
    ctf_at,
    ctf_grid,
    curve_curvature,
    empirical_measure,
    eval_kernel,
    flow_to_attractor,
    frechet_gradient,
    frechet_value,
    gen_arrangement_suite,
    gen_line_arrangement,
    load_measure,
    q_tensor,
    quadrature_circle,
    quadrature_disk,
    quadrature_segment,
    quadrature_sphere,
    save_measure,
    surface_curvatures,
)
from covfields import measures
from covfields.measures import write_csv


def traced_peak(fn):
    """fn() and the peak of memory traced by tracemalloc above what was held when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestWeightedMeasure:
    def test_invariants(self):
        m = WeightedMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        assert m.dim == 2 and m.size == 2
        assert m.total_mass == 1.0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedMeasure([[0.0], [1.0]], [1.0, -0.5])
        with pytest.raises(ValueError, match="positive"):
            WeightedMeasure([[0.0], [1.0]], [1.0, 0.0])

    def test_rejects_nonfinite_atoms(self):
        with pytest.raises(ValueError, match="finite"):
            WeightedMeasure([[np.nan, 0.0]], [1.0])
        with pytest.raises(ValueError, match="finite"):
            WeightedMeasure([[np.inf, 0.0]], [1.0])

    def test_total_mass_is_the_weight_sum(self):
        m = WeightedMeasure([[0.0]], [1.0 + 5e-13])
        assert m.total_mass == 1.0 + 5e-13
        m = WeightedMeasure([[0.0], [1.0]], [1.0 + 1e-10, 2.0])
        assert m.total_mass == 3.0 + 1e-10 and m.normalize().total_mass == 1.0

    def test_immutable(self):
        m = WeightedMeasure([[0.0, 1.0]], [1.0])
        with pytest.raises(ValueError):
            m.atoms[0, 0] = 5.0


class TestQuadratureSegment:
    def test_unit_segment_midpoints(self):
        m = quadrature_segment((0, 0), (1, 0), 0.25)
        assert m.size == 4
        np.testing.assert_allclose(m.atoms[:, 0], [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(m.weights, 0.25)
        assert abs(m.total_mass - 1.0) < 1e-15

    def test_degenerate_segment(self):
        with pytest.raises(ValueError, match="degenerate"):
            quadrature_segment((0, 0), (0, 0), 0.1)

    def test_mass_equals_length(self):
        m = quadrature_segment((-1, 0), (1, 0), 1e-3)
        assert abs(m.total_mass - 2.0) <= 1e-12

    def test_uneven_last_cell(self):
        m = quadrature_segment((0.0,), (1.0,), 0.3)
        assert m.size == 4
        assert abs(m.total_mass - 1.0) <= 1e-12
        assert m.weights[-1] == pytest.approx(0.1)


class TestQuadratureCircle:
    def test_four_atoms(self):
        m = quadrature_circle(1.0, 4)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        np.testing.assert_allclose(m.atoms, expected, atol=1e-15)
        np.testing.assert_allclose(m.weights, math.pi / 2)

    def test_total_mass(self):
        m = quadrature_circle(1.0, 100_000)
        assert abs(m.total_mass - 2 * math.pi) <= 1e-9

    def test_atom_norms(self):
        m = quadrature_circle(2.0, 8)
        np.testing.assert_allclose(np.linalg.norm(m.atoms, axis=1), 2.0, rtol=0, atol=4.5e-16)

    def test_too_few_atoms(self):
        with pytest.raises(ValueError):
            quadrature_circle(1.0, 2)


class TestQuadratureSphere:
    def test_total_mass_unit(self):
        m = quadrature_sphere(1.0, 400, 400)
        assert abs(m.total_mass - 4 * math.pi) <= 1e-4 * 4 * math.pi

    def test_total_mass_r3(self):
        m = quadrature_sphere(3.0, 300, 300)
        assert abs(m.total_mass - 36 * math.pi) <= 1e-4 * 36 * math.pi

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            quadrature_sphere(1.0, 1, 100)

    def test_dim(self):
        assert quadrature_sphere(1.0, 4, 5).dim == 3


# SHA-256 over atoms then weights, recorded before the sphere and the cap
# shared one latitude-longitude grid
SPHERE_GRID_DIGESTS = {
    "sphere": "f8c1db8ca9502cb8d0c44a3ebc5ebda91c5c0868384ae5b948b94c211e682fa6",
    "cap": "cb005b39fecc4f61d7de694eaf97bad23711d80d6a603aa8ab6cf1e7a057dfe0",
    "cap aligned": "e795c6d042c9dd38f95b7c204556bd0b39ee37b60d16546115685f475263d2bf",
}


@pytest.mark.parametrize("case", sorted(SPHERE_GRID_DIGESTS))
def test_sphere_grids_frozen(case):
    m = {
        "sphere": lambda: quadrature_sphere(2.5, 7, 9),
        "cap": lambda: measures.quadrature_cap(1.5, 0.8, 6, 8),
        "cap aligned": lambda: measures.quadrature_cap(1.0, 1.2, 5, 9, align_thetas=[0.1, 0.33, 0.9, 5.0]),
    }[case]()
    digest = hashlib.sha256(m.atoms.tobytes() + m.weights.tobytes()).hexdigest()
    assert digest == SPHERE_GRID_DIGESTS[case]


BAD_POSITIVE = [math.nan, math.inf, -math.inf, 0.0, -1.0]


@pytest.mark.parametrize("bad", BAD_POSITIVE)
def test_generator_parameters_fail_by_name(bad):
    """NaN, +-inf, 0 and -1 through each generator parameter raise ValueError
    naming it; noise_sd alone takes 0."""
    positive = {
        "spacing": [lambda x: quadrature_segment([0, 0], [1, 0], x)],
        "radius": [
            lambda x: quadrature_circle(x, 8),
            lambda x: measures.quadrature_arc(x, 0.0, 1.0, 4),
            lambda x: quadrature_sphere(x, 4, 4),
            lambda x: measures.quadrature_cap(x, 1.0, 4, 4),
            lambda x: quadrature_disk(x, 4, 8),
        ],
        "theta_max": [lambda x: measures.quadrature_cap(1.0, x, 4, 4)],
    }
    for name, fns in positive.items():
        for fn in fns:
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got"):
                fn(bad)
    segments = [(((0.0, 0.0), (1.0, 1.0)), 5)]
    suites = [lambda kind=kind, **kw: gen_arrangement_suite(kind, 1, **kw)
              for kind in measures.ARRANGEMENT_KINDS]
    for fn in suites:
        with pytest.raises(ValueError, match="^points_per_component must be finite and at least 2"):
            fn(points_per_component=bad)
    for fn in [lambda **kw: gen_line_arrangement(segments, **kw), *suites]:
        if bad == 0.0:
            fn(noise_sd=bad)
        else:
            with pytest.raises(ValueError, match="^noise_sd must be finite and non-negative"):
                fn(noise_sd=bad)


def test_one_point_per_component_rejected():
    with pytest.raises(ValueError, match="points_per_component must be finite and at least 2, got 1"):
        gen_arrangement_suite("lines2d", 1, points_per_component=1)
    with pytest.raises(ValueError, match="each line needs at least 2 points"):
        gen_line_arrangement([(((0.0, 0.0), (1.0, 1.0)), 5), (((0.0, 1.0), (1.0, 0.0)), 1)])


@pytest.mark.parametrize("theta_min, theta_max", [
    (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (math.inf, math.inf),
    (1.0, 1.0), (1.0, 0.5),
])
def test_arc_angles_fail_by_name(theta_min, theta_max):
    """A NaN or infinite angle, an empty arc and a reversed arc raise one
    error naming both angles, with no numpy warning before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^theta_max - theta_min must be finite and positive, got "):
            measures.quadrature_arc(1.0, theta_min, theta_max, 4)


def test_negative_outlier_count_rejected():
    with pytest.raises(ValueError, match="^n_outliers must be finite and non-negative, got -3$"):
        gen_line_arrangement([(((0.0, 0.0), (1.0, 1.0)), 5)], n_outliers=-3)


def test_quadrature_disk_mass():
    m = quadrature_disk(0.5, 100, 64)
    assert abs(m.total_mass - math.pi * 0.25) < 1e-12 * math.pi
    m3 = quadrature_disk(0.5, 10, 8, dim=3, align_radii=[0.21])
    assert m3.dim == 3
    assert abs(m3.total_mass - math.pi * 0.25) < 1e-12


class TestLineArrangement:
    SEGS3 = [((0.0, 0.0), (4.0, 2.0)), ((0.0, 2.5), (4.0, 0.5)), ((1.2, -0.5), (2.8, 3.5))]

    def test_clean_three_lines(self):
        ds = gen_line_arrangement([(s, 200) for s in self.SEGS3])
        assert ds.measure.size == 600
        counts = np.bincount(ds.labels)
        np.testing.assert_array_equal(counts, [200, 200, 200])
        assert abs(ds.measure.total_mass - 1.0) <= 1e-12

    def test_noisy_with_outliers(self):
        ds = gen_line_arrangement(
            [(s, 200) for s in self.SEGS3], noise_sd=0.015, n_outliers=180, seed=3
        )
        assert ds.measure.size == 780
        assert (ds.labels == 3).sum() == 180  # outliers get the reserved label

    def test_two_point_line_hits_endpoints(self):
        ds = gen_line_arrangement([(((0.0, 0.0), (1.0, 1.0)), 2)])
        np.testing.assert_allclose(ds.measure.atoms, [[0, 0], [1, 1]])

    def test_empty_spec(self):
        with pytest.raises(ValueError, match="empty"):
            gen_line_arrangement([])

    # SHA-256 over atoms, weights and labels, recorded before the arrangement
    # and the suites shared one segment sampler
    NOISY_DIGEST = "e7ab0dd3f2db9ec0a664d74cf019b1dfe6e20e0b53c3b7ac42532ee32585b369"

    def test_noisy_with_outliers_frozen(self):
        ds = gen_line_arrangement(
            [(s, 40 + i) for i, s in enumerate(self.SEGS3)], noise_sd=0.015, n_outliers=11, seed=3
        )
        h = hashlib.sha256()
        for a in (ds.measure.atoms, ds.measure.weights, ds.labels):
            h.update(a.tobytes())
        assert h.hexdigest() == self.NOISY_DIGEST

    def test_seed_determinism(self):
        a = gen_line_arrangement([(s, 50) for s in self.SEGS3], noise_sd=0.01, n_outliers=7, seed=42)
        b = gen_line_arrangement([(s, 50) for s in self.SEGS3], noise_sd=0.01, n_outliers=7, seed=42)
        np.testing.assert_array_equal(a.measure.atoms, b.measure.atoms)
        c = gen_line_arrangement([(s, 50) for s in self.SEGS3], noise_sd=0.01, n_outliers=7, seed=43)
        assert not np.array_equal(a.measure.atoms, c.measure.atoms)


class TestArrangementSuite:
    def test_counts_and_labels(self):
        suite = gen_arrangement_suite("lines2d", 3, seed=0, points_per_component=40)
        assert len(suite) == 3
        for ds in suite:
            assert ds.measure.dim == 2
            assert set(np.unique(ds.labels)) == {0, 1, 2}

    def test_planes3d(self):
        suite = gen_arrangement_suite("planes3d", 1, seed=1, points_per_component=36)
        ds = suite[0]
        assert ds.measure.dim == 3
        assert set(np.unique(ds.labels)) == {0, 1, 2}

    def test_mixed(self):
        suite = gen_arrangement_suite("mixed_curves2d", 2, seed=5, points_per_component=30)
        assert all(set(np.unique(d.labels)) == {0, 1, 2, 3} for d in suite)

    def test_errors(self):
        with pytest.raises(ValueError):
            gen_arrangement_suite("lines2d", 0)
        with pytest.raises(ValueError, match="unknown"):
            gen_arrangement_suite("circles9d", 3)

    def test_full_size_suite(self):
        suite = gen_arrangement_suite("lines2d", 250, seed=1, points_per_component=12)
        assert len(suite) == 250
        assert all(set(np.unique(d.labels)) == {0, 1, 2} for d in suite)

    def test_reproducible(self):
        a = gen_arrangement_suite("lines2d", 2, seed=9, points_per_component=25)
        b = gen_arrangement_suite("lines2d", 2, seed=9, points_per_component=25)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.measure.atoms, y.measure.atoms)

    # SHA-256 over each sample's atoms then labels (float64 / int64 bytes),
    # recorded before the two 2-D generators shared their segment draw (the
    # planes3d ones before its rejection test became one all(...))
    FROZEN_DIGESTS = {
        ("lines2d", 0): "4d3074468a6f99181694a027482d050196404b81becdc1c299ab61e082e1311b",
        ("lines2d", 12345): "30f49d5ce78fe6ec924d86fb80dbfae13a4d98e4f919d589e967bfce4f24a3e6",
        ("mixed_curves2d", 0): "171372ff363028e8bd85bb879e6ccc34315a77b253cbc1551258b87e11e8320f",
        ("mixed_curves2d", 12345): "676121572f85356f4db88483527ec75f65e41dbfdf8aa0c74a0336fe2d4a02f2",
        ("planes3d", 0): "31f3dc3414576f914c4ff07fd66ccdd05ad65cf004d59701ca3bf5aab9a1c653",
        ("planes3d", 12345): "71fbc8dc5a09c3cfed5d1683f802ac6dd01302b73f39b1233817382a6f95e9e9",
    }

    @pytest.mark.parametrize("kind, seed", sorted(FROZEN_DIGESTS))
    def test_draws_frozen(self, kind, seed):
        h = hashlib.sha256()
        for ds in gen_arrangement_suite(kind, 4, seed=seed):
            h.update(np.ascontiguousarray(ds.measure.atoms, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(ds.labels, dtype=np.int64).tobytes())
        assert h.hexdigest() == self.FROZEN_DIGESTS[kind, seed]


class TestIO:
    def test_roundtrip_csv_bitexact(self, tmp_path):
        ds = gen_line_arrangement(
            [(((0.0, 0.0), (1.0, 1.0)), 30)], noise_sd=0.01, n_outliers=5, seed=8
        )
        p = tmp_path / "ds.csv"
        save_measure(ds, p)
        back = load_measure(p)
        assert isinstance(back, LabeledDataset)
        np.testing.assert_array_equal(back.measure.atoms, ds.measure.atoms)
        np.testing.assert_array_equal(back.measure.weights, ds.measure.weights)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_roundtrip_json_bitexact(self, tmp_path):
        m = quadrature_circle(1.37, 17)
        p = tmp_path / "m.json"
        save_measure(m, p)
        back = load_measure(p)
        np.testing.assert_array_equal(back.atoms, m.atoms)
        np.testing.assert_array_equal(back.weights, m.weights)

    @pytest.mark.parametrize("text", [
        pytest.param('{"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5], "labels": [0, 1]}',
                     id="measure-document"),
        "3", "[[0.0], [1.0]]", '"atoms"', "null",
    ])
    def test_json_document_fails_the_header_check(self, tmp_path, text):
        # a measure file is CSV whatever its suffix, and no JSON text has a 'weight' column
        p = tmp_path / "m.json"
        p.write_text(text + "\n")
        with pytest.raises(MeasureFormatError, match="^line 1: header must contain a 'weight' column$"):
            load_measure(p)

    def test_negative_weight_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x_1,x_2,weight\n0.0,0.0,1.0\n1.0,1.0,-0.5\n")
        with pytest.raises(MeasureFormatError, match="weights must be positive"):
            load_measure(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("x_1,x_2,weight\n0.0,0.0,1.0\n1.0,1.0\n")
        with pytest.raises(MeasureFormatError, match="line 3"):
            load_measure(p)

    def test_bad_float_names_line(self, tmp_path):
        p = tmp_path / "badf.csv"
        p.write_text("x_1,weight\n0.0,1.0\nxyz,1.0\n")
        with pytest.raises(MeasureFormatError, match="line 3"):
            load_measure(p)

    def test_plain_measure_csv(self, tmp_path):
        m = empirical_measure([[0.0, 1.0], [2.0, 3.0]])
        p = tmp_path / "m.csv"
        save_measure(m, p)
        back = load_measure(p)
        assert isinstance(back, WeightedMeasure)
        np.testing.assert_array_equal(back.atoms, m.atoms)

    def test_roundtrip_large_noisy_circle_bitexact(self, tmp_path):
        rng = np.random.default_rng(7)
        theta = rng.uniform(0.0, 2.0 * np.pi, 100_000)
        atoms = np.column_stack([np.cos(theta), np.sin(theta)]) + rng.normal(0, 0.01, (100_000, 2))
        m = WeightedMeasure(atoms, rng.uniform(0.5, 1.5, 100_000))
        p = tmp_path / "circle.csv"
        save_measure(m, p)
        back = load_measure(p)
        assert back.atoms.tobytes() == m.atoms.tobytes()
        assert back.weights.tobytes() == m.weights.tobytes()

    def test_header_only_has_no_data_rows(self, tmp_path):
        p = tmp_path / "head.csv"
        p.write_text("x_1,x_2,weight\n\n")
        with pytest.raises(MeasureFormatError, match="no data rows"):
            load_measure(p)

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        p = tmp_path / "blanks.csv"
        p.write_text("\nx_1,weight,label\n\n0.5,1.0,2\n   \n1.5,2.0,0\n\n")
        ds = load_measure(p)
        np.testing.assert_array_equal(ds.measure.atoms, [[0.5], [1.5]])
        np.testing.assert_array_equal(ds.labels, [2, 0])
        p.write_text("\nx_1,weight\n\n0.5,1.0\n\nxyz,1.0\n")
        with pytest.raises(MeasureFormatError, match="line 3: could not convert"):
            load_measure(p)

    @pytest.mark.parametrize("label", ["1.5", "3.0", "1e3"])
    def test_non_integer_label_names_line(self, tmp_path, label):
        p = tmp_path / "lab.csv"
        p.write_text(f"x_1,weight,label\n0.0,1.0,0\n1.0,1.0,{label}\n")
        with pytest.raises(MeasureFormatError, match=f"line 3: .*'{label}'"):
            load_measure(p)

    @pytest.mark.parametrize("weight", ["nan", "0.0", "-inf"])
    def test_non_positive_weight_names_line(self, tmp_path, weight):
        p = tmp_path / "w.csv"
        p.write_text(f"x_1,weight\n0.0,1.0\n1.0,1.0\n2.0,{weight}\n")
        with pytest.raises(MeasureFormatError, match="line 4: weights must be positive"):
            load_measure(p)

    @pytest.mark.parametrize("weight", ["-1.0", "0.0", "nan"])
    def test_first_bad_line_wins(self, tmp_path, weight):
        # a bad weight on line 2 is reported before an unparsable line 3
        p = tmp_path / "two.csv"
        p.write_text(f"x_1,weight\n0.0,{weight}\nxyz,1.0\n")
        with pytest.raises(MeasureFormatError, match="line 2: weights must be positive"):
            load_measure(p)

    LAYOUT = r"^line 1: header must be x_1\.\.x_d,weight\[,label\], got "

    @pytest.mark.parametrize("text, message", [
        ("", "^empty file$"),
        ("\n  \n\n", "^empty file$"),
        ("x_1,x_2\n0.0,1.0\n", "^line 1: header must contain a 'weight' column$"),
        ("weight\n1.0\n", "^line 1: no coordinate columns$"),
        ("weight,label\n1.0,0\n", "^line 1: no coordinate columns$"),
        ("weight,x_1,x_2\n0.5,1.0,2.0\n", LAYOUT),
        ("x_1,label,weight\n0.5,1,2.0\n", LAYOUT),
        ("x_1,weight,x_2\n0.5,1.0,2.0\n", LAYOUT),
        ("y,x_1,weight\n0.5,1.0,2.0\n", LAYOUT),
        ("label,weight\n1,2.0\n", LAYOUT),
        ("\nx_1,weight\n\n  \n", "^no data rows after the header$"),
    ])
    def test_file_level_errors_keep_their_messages(self, tmp_path, text, message):
        p = tmp_path / "f.csv"
        p.write_text(text)
        with pytest.raises(MeasureFormatError, match=message):
            load_measure(p)

    def test_header_only_raises_without_a_numpy_warning(self, tmp_path):
        p = tmp_path / "head.csv"
        p.write_text("x_1,weight,label\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeasureFormatError, match="no data rows"):
                load_measure(p)

    @pytest.mark.parametrize("bad", ["xyz", "1.0,2.0,3.0", "nan"])
    def test_bad_row_beyond_the_first_chunk_names_its_line(self, tmp_path, bad):
        # 10 000 rows, a blank line before every hundredth: the bad row is the
        # 9001st data row, line 9002 (blank lines are not counted)
        rows = [f"{i / 7!r},{1.0 + i}" for i in range(10_000)]
        rows[9000] = "0.5,nan" if bad == "nan" else bad
        text = "\n".join(("\n" + r) if i % 100 == 0 else r for i, r in enumerate(rows))
        p = tmp_path / "long.csv"
        p.write_text("\n\nx_1,weight\n" + text + "\n\n")
        with pytest.raises(MeasureFormatError, match="^line 9002: "):
            load_measure(p)

    def test_peak_memory_is_a_small_multiple_of_the_arrays(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 100_000
        m = WeightedMeasure(rng.normal(size=(n, 2)), rng.uniform(0.5, 1.5, n))
        p = tmp_path / "big.csv"
        save_measure(m, p)
        back, peak = traced_peak(lambda: load_measure(p))
        np.testing.assert_array_equal(back.atoms, m.atoms)
        measure_bytes = n * 3 * 8
        # a list of the lines would make it about 7 times, a parsed table beside the measure 2.1
        assert peak <= 1.3 * measure_bytes

    def test_cell_python_accepts_numpy_rejects(self, tmp_path):
        # float("1_0") is 10.0, but the file parser takes no digit separators
        p = tmp_path / "sep.csv"
        p.write_text("x_1,weight\n1_0,1.0\n")
        with pytest.raises(MeasureFormatError, match="1_0"):
            load_measure(p)


class TestWriteCsv:
    def test_cells(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["i", "x", "s"], [np.arange(3), [0.1, -0.0, 1e300], ["a;b", "c", ""]])
        assert p.read_text() == "i,x,s\n0,0.1,a;b\n1,-0.0,c\n2,1e+300,\n"

    def test_float_cells_are_repr(self, tmp_path):
        x = np.random.default_rng(1).random(50) * 10.0 ** np.arange(-25, 25)
        p = tmp_path / "r.csv"
        write_csv(p, ["x"], [x])
        assert p.read_text().split("\n")[1:-1] == [repr(float(v)) for v in x]

    def test_no_rows(self, tmp_path):
        p = tmp_path / "e.csv"
        write_csv(p, ["a", "b"], [[], np.empty(0)])
        assert p.read_text() == "a,b\n"

    def test_unequal_columns_rejected(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("kept\n")
        with pytest.raises(ValueError):
            write_csv(p, ["a", "b"], [[1, 2], [1]])
        assert p.read_text() == "kept\n"

    def test_rows_across_chunks(self, tmp_path):
        n = 2 * measures._CSV_ROWS + 5
        p = tmp_path / "c.csv"
        write_csv(p, ["i", "x"], [np.arange(n), np.arange(n) / 3.0])
        assert p.read_text() == "i,x\n" + "".join(f"{i},{i / 3.0!r}\n" for i in range(n))

    # recorded before rows were written in chunks: 20 000 rows span three
    SAVE_DIGEST = "3722172b16ad682188d5199ff61c336d9f4ec4ef1f6b2cd704e4cb86aece8c73"

    def test_save_measure_frozen(self, tmp_path):
        rng = np.random.default_rng(42)
        n = 20_000
        atoms = rng.normal(0.0, 1.0, (n, 2)) * 10.0 ** rng.integers(-20, 20, (n, 1))
        ds = LabeledDataset(WeightedMeasure(atoms, rng.uniform(0.1, 2.0, n)), rng.integers(0, 1000, n))
        p = tmp_path / "m.csv"
        save_measure(ds, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == self.SAVE_DIGEST

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        rng = np.random.default_rng(12)
        n = 200_000
        columns = [rng.normal(size=n), rng.normal(size=n), rng.uniform(0.5, 1.5, n)]
        _, peak = traced_peak(lambda: write_csv(tmp_path / "w.csv", ["x_1", "x_2", "weight"], columns))
        assert peak <= 4e6  # a list of every row's strings would take about 70 MB



def point_takers():
    """name: (a good point, the call on one point, a point of the wrong dimension) for each of
    the public functions that take points."""
    plane, surface = quadrature_segment([-1.0, 0.0], [1.0, 0.0], 0.01), quadrature_disk(0.1, 20, 24, dim=3)
    g, ladder = builtin_gaussian(), [0.05, 0.04, 0.03]
    origin, three, line = [0.0, 0.0], [0.0, 0.0, 0.0], [(([0.0, 0.0], [1.0, 0.0]), 5)]
    return {
        "ctf_grid": (origin, lambda x: ctf_grid(plane, g, [x], 0.5), three),
        "ctf_at": (origin, lambda x: ctf_at(plane, g, x, 0.5), three),
        "frechet_value": (origin, lambda x: frechet_value(plane, g, x, 0.5), [0.0]),
        "frechet_gradient": (origin, lambda x: frechet_gradient(plane, g, x, 0.5), three),
        "flow_to_attractor": ([0.0, 0.1], lambda x: flow_to_attractor(plane, g, x, 0.5), [0.0]),
        "basin_labels": ([0.0, 0.1], lambda x: basin_labels(plane, g, [x], 0.5), three),
        "eval_kernel x": (origin, lambda x: eval_kernel(g, x, [0.0, 0.5], 0.5), []),  # x sets the dimension
        "eval_kernel": (origin, lambda y: eval_kernel(g, [0.0, 0.5], y, 0.5), three),
        "q_tensor": ([0.0, 0.5], lambda z: q_tensor(g, z, 0.5), []),  # z sets its own dimension, >= 1
        "circle_tensor": ([0.9, 0.0], lambda x: circle_tensor(1.0, x, 0.3), [0.5, 0.2, 0.1]),
        "curve_curvature": (origin, lambda x: curve_curvature(plane, x, ladder), three),
        "surface_curvatures": (three, lambda x: surface_curvatures(surface, x, ladder), origin),
        "quadrature_segment a": (origin, lambda a: quadrature_segment(a, [1.0, 0.0], 0.1), []),  # a sets it
        "quadrature_segment b": ([1.0, 0.0], lambda b: quadrature_segment(origin, b, 0.1), three),
        "box lo": (origin, lambda c: gen_line_arrangement(line, n_outliers=3, bounding_box=(c, [1.0, 1.0])),
                   three),
        "box hi": ([1.0, 1.0], lambda c: gen_line_arrangement(line, n_outliers=3, bounding_box=(origin, c)),
                   three),
    }


class TestPointCheck:
    """Every public function that takes points checks them with measures._points, and every
    single point with measures._point."""

    TAKERS = point_takers()
    SINGLE_POINT_TAKERS = [name for name in TAKERS if name not in ("ctf_grid", "basin_labels")]

    @pytest.mark.parametrize("name", list(TAKERS))
    def test_shared_messages(self, name):
        good, call, wrong = self.TAKERS[name]
        call(good)
        for bad in (math.nan, math.inf, -math.inf):
            for point in ([bad] + good[1:], good[:-1] + [bad]):
                with pytest.raises(ValueError, match=r"^points must be finite"):
                    call(point)
        with pytest.raises(ValueError, match=r"^dimension mismatch: points need dimension"):
            call(wrong)

    @pytest.mark.parametrize("name", SINGLE_POINT_TAKERS)
    def test_single_point_is_1d(self, name):
        good, call, _ = self.TAKERS[name]
        for point in (np.reshape(good, (1, -1)), np.reshape(good, (-1, 1)), np.zeros((2, 2))):
            with pytest.raises(ValueError, match=r"^dimension mismatch"):
                call(point)

    def test_empty_list_is_no_point(self):
        plane = quadrature_segment([-1.0, 0.0], [1.0, 0.0], 0.1)
        fg = ctf_grid(plane, builtin_gaussian(), [], 0.5)
        assert fg.query_points.shape == (0, 2) and fg.tensors.shape == (0, 2, 2)
        with pytest.raises(ValueError, match="dimension"):  # one point of dimension 0
            ctf_grid(plane, builtin_gaussian(), [[]], 0.5)

    def test_no_copy(self):
        pts = np.zeros((4, 2))
        assert measures._points(pts, 2) is pts

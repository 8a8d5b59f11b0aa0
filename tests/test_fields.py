import hashlib
import math
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammainc

from covfields import (
    RadialKernel,
    WeightedMeasure,
    basin_labels,
    builtin_gaussian,
    builtin_truncation,
    ctf_at,
    ctf_grid,
    dimension_estimate,
    empirical_measure,
    flow_to_attractor,
    frechet_gradient,
    frechet_value,
    load_profile_csv,
    quadrature_segment,
    spectrum,
    tabulated_kernel,
    unit_ball_volume,
    wedge_tensor,
)
from covfields import fields


def random_measure(rng, n, d, spread=1.0):
    pts = rng.normal(0, spread, size=(n, d))
    w = rng.uniform(0.2, 1.0, size=n)
    return WeightedMeasure(pts, w / w.sum())


PROPERTY_KERNELS = {
    "gaussian": builtin_gaussian(),
    "truncation": builtin_truncation(),
    "tabulated": tabulated_kernel([0.0, 0.5, 2.0], [1.0, 0.8, 0.1]),
}


@st.composite
def grid_problems(draw):
    """Weighted atoms and queries on a 1/8 grid, so atoms land exactly on supports."""
    d = draw(st.integers(1, 3))
    coords = st.integers(-16, 16)
    atoms = draw(hnp.arrays(np.int64, (draw(st.integers(1, 60)), d), elements=coords)) / 8.0
    queries = draw(hnp.arrays(np.int64, (draw(st.integers(1, 40)), d), elements=coords)) / 8.0
    w = draw(hnp.arrays(np.float64, len(atoms), elements=st.floats(0.1, 2.0)))
    return atoms, w, queries


def closed_ball_sum(atoms, weights, queries, sigma):
    """sum of w (y-x)(y-x)^T / (nu_d sigma^d) over atoms with ||y-x|| <= sigma."""
    d = atoms.shape[1]
    norm = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * sigma**d
    out = np.zeros((len(queries), d, d))
    for k, x in enumerate(queries):
        diff = atoms - x
        keep = (diff * diff).sum(axis=1) <= sigma * sigma
        out[k] = (diff[keep] * weights[keep, None]).T @ diff[keep] / norm
    return out


class TestCtfAt:
    def test_single_atom_at_query(self):
        m = empirical_measure([[1.0, 2.0]])
        t = ctf_at(m, builtin_gaussian(), [1.0, 2.0], 1.0)
        np.testing.assert_array_equal(t.entries, np.zeros((2, 2)))

    def test_two_atoms_truncation(self):
        m = WeightedMeasure([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
        t = ctf_at(m, builtin_truncation(), [0.0, 0.0], 2.0)
        np.testing.assert_allclose(t.entries, np.diag([1 / (4 * math.pi), 0.0]), atol=1e-15)

    def test_line_segment_oracle(self):
        # long line through the origin: the tangential eigenvalue is
        # 2 / (3 sigma^{d-3} nu_d)
        seg = quadrature_segment([-1.5, 0.0], [1.5, 0.0], 1e-4)
        for sigma in (0.3, 1.0):
            t = ctf_at(seg, builtin_truncation(), [0.0, 0.0], sigma)
            lam = 2.0 / (3.0 * sigma ** (-1) * unit_ball_volume(2))
            assert t.entries[0, 0] == pytest.approx(lam, rel=1e-6)
            assert abs(t.entries[1, 1]) < 1e-12

    def test_dimension_mismatch(self):
        m = empirical_measure([[0.0, 0.0]])
        with pytest.raises(ValueError, match="dimension"):
            ctf_at(m, builtin_gaussian(), [0.0, 0.0, 0.0], 1.0)

    def test_zero_when_isolated(self):
        m = empirical_measure([[10.0, 10.0]])
        t = ctf_at(m, builtin_truncation(), [0.0, 0.0], 1.0)
        np.testing.assert_array_equal(t.entries, 0.0)

    def test_weight_linearity(self):
        rng = np.random.default_rng(0)
        m = random_measure(rng, 30, 2)
        scaled = WeightedMeasure(m.atoms, m.weights * 3.0)
        t1 = ctf_at(m, builtin_gaussian(), [0.1, 0.2], 0.7)
        t2 = ctf_at(scaled, builtin_gaussian(), [0.1, 0.2], 0.7)
        np.testing.assert_allclose(t2.entries, 3.0 * t1.entries, rtol=1e-14)

    def test_equivariance_under_rigid_motion(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_measure(rng, 20, 2)
            x = rng.normal(size=2)
            theta = rng.uniform(0, 2 * math.pi)
            u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
            b = rng.normal(size=2)
            t = ctf_at(m, builtin_gaussian(), x, 0.8).entries
            t_moved = ctf_at(m.transform(u, b), builtin_gaussian(), u @ x + b, 0.8).entries
            np.testing.assert_allclose(u @ t @ u.T, t_moved, atol=1e-10 * max(1, np.linalg.norm(t)))

    def test_psd_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = rng.integers(1, 4)
            m = random_measure(rng, int(rng.integers(1, 30)), int(d))
            x = rng.normal(size=d)
            sigma = float(rng.uniform(0.1, 3.0))
            kernel = builtin_gaussian() if rng.random() < 0.5 else builtin_truncation()
            t = ctf_at(m, kernel, x, sigma)
            lam = np.linalg.eigvalsh(t.entries)
            assert lam.min() >= -1e-10 * max(1e-300, np.linalg.norm(t.entries))


class TestCtfGrid:
    def test_shapes(self):
        from covfields import quadrature_circle, square_grid

        circ = quadrature_circle(1.0, 5000)
        grid = square_grid(-1.5, 1.5, 24)
        fg = ctf_grid(circ, builtin_truncation(), grid, 0.6)
        assert fg.tensors.shape == (576, 2, 2)
        assert fg.frechet_values.shape == (576,)

    def test_empty_grid(self):
        m = empirical_measure([[0.0, 0.0]])
        for empty in (np.zeros((0, 2)), []):
            fg = ctf_grid(m, builtin_gaussian(), empty, 1.0)
            assert fg.tensors.shape == (0, 2, 2)
        with pytest.raises(ValueError, match="dimension"):
            ctf_grid(m, builtin_gaussian(), np.zeros((0, 3)), 1.0)

    @pytest.mark.parametrize("budget", [fields._PAIR_BUDGET, 40], ids=["default_budget", "budget_40"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force_closed_ball(self, d, budget, monkeypatch):
        monkeypatch.setattr(fields, "_PAIR_BUDGET", budget)
        rng = np.random.default_rng(11 + d)
        sigma = 0.375  # dyadic: the boundary cases below are exact in floating point
        centre = np.full(d, 0.25)
        axes = np.eye(d) * sigma
        # on both slab edges x_1 = 0.25 -+ sigma, outside the ball when d > 1
        edges = np.vstack([centre - axes[0], centre + axes[0]])
        edges[:, 1:] += 0.125
        special = np.vstack([centre + axes, centre - axes, edges])
        atoms = np.vstack([special, rng.normal(0, 1.0, size=(300, d))])
        w = rng.uniform(0.2, 1.0, size=len(atoms))
        m = WeightedMeasure(atoms, w)
        queries = np.vstack([centre, np.zeros(d), rng.normal(0, 1.0, size=(60, d))])
        queries = queries[rng.permutation(len(queries))]
        for kernel in (builtin_truncation(), tabulated_kernel([0.0, 1.0], [1.0, 1.0])):
            got = ctf_grid(m, kernel, queries, sigma).tensors
            np.testing.assert_allclose(got, closed_ball_sum(atoms, w, queries, sigma), rtol=1e-12,
                                       atol=1e-13)
        at_centre = closed_ball_sum(atoms, w, centre[None, :], sigma)[0]
        inside = np.einsum("ij,ij->i", atoms - centre, atoms - centre) <= sigma * sigma
        assert inside[: 2 * d].all() and (d == 1 or not inside[2 * d : 2 * d + 2].any())
        np.testing.assert_allclose(ctf_at(m, builtin_truncation(), centre, sigma).entries,
                                   at_centre, rtol=1e-12, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        problem=grid_problems(),
        kernel_name=st.sampled_from(["gaussian", "truncation", "tabulated", "cut_gaussian"]),
        sigma=st.sampled_from([0.125, 0.5, 1.0, 1.5]),
        budget=st.sampled_from([1, 7, 1 << 16]),
    )
    def test_property_matches_brute_force(self, problem, kernel_name, sigma, budget):
        atoms, w, queries = problem
        d = atoms.shape[1]
        kernel = {
            "gaussian": builtin_gaussian(),
            "truncation": builtin_truncation(),
            "tabulated": tabulated_kernel([0.0, 0.5, 2.0], [1.0, 0.8, 0.1]),
            # support declared inside the profile's own: the closed ball still decides;
            # M_d = 2^{d/2} Gamma(d/2) P(d/2, 1/2) over [0, 1]
            "cut_gaussian": RadialKernel(
                "cut_gaussian", builtin_gaussian().profile, compact_support_radius_sq=1.0,
                analytic={"M_d": lambda d: 2.0 ** (d / 2) * math.gamma(d / 2) * gammainc(d / 2, 0.5)}),
        }[kernel_name]
        css = kernel.compact_support_radius_sq
        diff = atoms[None, :, :] - queries[:, None, :]
        r2 = (diff**2).sum(axis=2)
        kw = w * kernel.profile(r2 / sigma**2) / kernel.normalizer(sigma, d)
        if css is not None:
            kw = np.where(r2 <= css * sigma**2, kw, 0.0)
        want = np.einsum("mn,mni,mnj->mij", kw, diff, diff)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "_PAIR_BUDGET", budget)
            got = ctf_grid(WeightedMeasure(atoms, w), kernel, queries, sigma).tensors
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * max(1.0, np.abs(want).max()))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 3),
        n=st.integers(1, 90),
        m=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.floats(0.05, 3.0),
        kernel_name=st.sampled_from(sorted(PROPERTY_KERNELS)),
        budget=st.sampled_from([1, 7, 1 << 16]),
        data=st.data(),
    )
    def test_rows_bitwise_independent_of_block(self, d, n, m, seed, sigma, kernel_name, budget, data):
        rng = np.random.default_rng(seed)
        measure = WeightedMeasure(rng.normal(size=(n, d)), rng.uniform(0.1, 2.0, size=n))
        queries = rng.normal(size=(m, d))
        kernel = PROPERTY_KERNELS[kernel_name]
        order = data.draw(st.permutations(range(m)))
        # two queries at least: a single one skips the cell list
        keep = data.draw(st.lists(st.sampled_from(order), min_size=2, unique=True))
        reference = ctf_grid(measure, kernel, queries, sigma).tensors
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "_PAIR_BUDGET", budget)
            full = ctf_grid(measure, kernel, queries, sigma).tensors
            shuffled = ctf_grid(measure, kernel, queries[order], sigma).tensors
            subset = ctf_grid(measure, kernel, queries[keep], sigma).tensors
            alone = [ctf_at(measure, kernel, x, sigma).entries for x in queries]
        assert np.array_equal(full, reference)
        assert np.array_equal(shuffled, full[order])
        assert np.array_equal(subset, full[keep])
        if kernel.compact_support_radius_sq is None:
            assert np.array_equal(full, np.array(alone))

    def test_gaussian_rows_are_ctf_at_over_many_atoms(self):
        # past 8192 atoms numpy's einsum reduces a row in buffered chunks whose
        # bits depend on the rows beside it, so such a block holds one row
        rng = np.random.default_rng(27)
        measure = WeightedMeasure(rng.normal(size=(20_000, 2)), rng.uniform(0.1, 2.0, size=20_000))
        queries = rng.normal(size=(4, 2))
        full = ctf_grid(measure, builtin_gaussian(), queries, 0.7).tensors
        alone = [ctf_at(measure, builtin_gaussian(), x, 0.7).entries for x in queries]
        assert np.array_equal(full, np.array(alone))

    def test_large_gaussian_field_matches_fsum(self):
        rng = np.random.default_rng(40)
        theta = rng.uniform(0.0, 2.0 * math.pi, 100_000)
        atoms = np.column_stack([np.cos(theta), np.sin(theta)]) + rng.normal(0.0, 0.05, (100_000, 2))
        m = WeightedMeasure(atoms, rng.uniform(0.2, 1.0, 100_000))
        queries = np.array([[1.0, 0.0], [0.0, 0.0], [0.3, -0.7], [-0.9, 0.4], [0.5, 0.5]])
        kernel, sigma = builtin_gaussian(), 0.3
        got = ctf_grid(m, kernel, queries, sigma).tensors
        for x, t in zip(queries, got):
            diff = atoms - x
            kw = m.weights * np.exp(-0.5 * np.einsum("ij,ij->i", diff, diff) / sigma**2)
            kw /= kernel.normalizer(sigma, 2)
            want = np.array([[math.fsum(kw * diff[:, i] * diff[:, j]) for j in range(2)] for i in range(2)])
            assert np.abs(t - want).max() <= 1e-13 * np.abs(want).max()

    def test_indexed_requires_compact(self):
        m = empirical_measure([[0.0, 0.0]])
        with pytest.raises(ValueError, match="compact"):
            ctf_grid(m, builtin_gaussian(), [[0.0, 0.0]], 1.0, acceleration="indexed")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, bad):
        m = empirical_measure([[0.0, 0.0], [0.5, 0.0]])
        for kernel in (builtin_gaussian(), builtin_truncation()):
            with pytest.raises(ValueError, match="sigma"):
                ctf_grid(m, kernel, [[0.0, 0.0]], bad)
            with pytest.raises(ValueError, match="sigma"):
                ctf_at(m, kernel, [0.0, 0.0], bad)
            with pytest.raises(ValueError, match="sigma"):
                frechet_value(m, kernel, [0.0, 0.0], bad)

    @pytest.mark.parametrize(
        "d, sigma",
        # sigma^2 overflows, is subnormal or is 0; in 3-D, C_d(sigma) ~ sigma^3 or its inverse overflows
        [(d, s) for d in (1, 2, 3) for s in (1e200, 1e155, 1e-155, 1e-170)] + [(3, 1e150), (3, 1e-105)],
    )
    def test_rejects_sigma_out_of_float_range(self, d, sigma):
        m = empirical_measure(np.random.default_rng(d).normal(size=(50, d)))
        x = np.zeros((2, d))
        for kernel in (builtin_gaussian(), builtin_truncation()):
            with pytest.raises(ValueError, match="sigma"):
                ctf_grid(m, kernel, x, sigma)
            with pytest.raises(ValueError, match="sigma"):
                frechet_value(m, kernel, x[0], sigma)
        with pytest.raises(ValueError, match="sigma"):
            basin_labels(m, builtin_gaussian(), x, sigma)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tiny_sigma_gives_finite_tensors(self, d):
        sigma = 1e-100
        atoms = sigma * np.random.default_rng(d).normal(size=(50, d))
        queries = atoms[:5] + 0.5 * sigma * np.eye(d)[0]
        for kernel in (builtin_gaussian(), builtin_truncation()):
            fg = ctf_grid(empirical_measure(atoms), kernel, queries, sigma)
            assert np.all(np.isfinite(fg.tensors)) and np.all(fg.frechet_values > 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_queries(self, bad):
        m = empirical_measure([[0.0, 0.0], [0.5, 0.0]])
        grid = [[0.0, 0.0], [bad, 0.0]]
        for kernel, accel in ((builtin_gaussian(), "exact"), (builtin_truncation(), "exact"),
                              (builtin_truncation(), "indexed")):
            with pytest.raises(ValueError, match="finite"):
                ctf_grid(m, kernel, grid, 1.0, acceleration=accel)
        with pytest.raises(ValueError, match="finite"):
            ctf_at(m, builtin_truncation(), [0.0, bad], 1.0)

    def test_frechet_values_are_traces(self):
        rng = np.random.default_rng(2)
        m = random_measure(rng, 60, 2)
        fg = ctf_grid(m, builtin_gaussian(), rng.normal(size=(30, 2)), 0.5)
        np.testing.assert_allclose(fg.frechet_values, np.trace(fg.tensors, axis1=1, axis2=2), rtol=1e-12)

    def test_csv_roundtrippable_header(self, tmp_path):
        rng = np.random.default_rng(5)
        m = random_measure(rng, 20, 2)
        fg = ctf_grid(m, builtin_gaussian(), rng.normal(size=(4, 2)), 0.5)
        path = tmp_path / "grid.csv"
        fg.save_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x_1,x_2,sigma,S_11,S_12,S_22,V,lambda_1,lambda_2"
        assert len(lines) == 5


def central_difference_gradient(measure, kernel, x, sigma, step):
    """grad V by symmetric differences of frechet_value (reference; O(step^2))."""
    grad = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        grad[k] = (frechet_value(measure, kernel, x + e, sigma)
                   - frechet_value(measure, kernel, x - e, sigma)) / (2.0 * step)
    return grad


def assert_tensors_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(want).max()))


def counting_kernel(kernel, box):
    """The kernel with a profile that adds the number of values it is asked for to box[0]."""
    def profile(r):
        box[0] += np.size(r)
        return kernel.profile(r)

    return RadialKernel(kernel.name, profile, kernel.compact_support_radius_sq, dict(kernel.analytic))


class TestCtfGridProperties:
    """Invariants of the field, on 1/8-grid atoms so that no ball boundary moves."""

    @settings(max_examples=40, deadline=None)
    @given(
        problem=grid_problems(),
        kernel_name=st.sampled_from(sorted(PROPERTY_KERNELS)),
        sigma=st.sampled_from([0.125, 0.5, 1.0, 1.5]),
        perm_seed=st.integers(0, 2**32 - 1),
        shift=st.lists(st.integers(-16, 16), min_size=3, max_size=3),
    )
    def test_signed_permutation_and_dyadic_shift(self, problem, kernel_name, sigma, perm_seed, shift):
        # Sigma_{R alpha + t}(R x + t) = R Sigma_alpha(x) R^T, exact in the atoms' positions
        atoms, w, queries = problem
        d = atoms.shape[1]
        rng = np.random.default_rng(perm_seed)
        rot = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)[:, None]
        t = np.asarray(shift[:d], dtype=float) / 4.0
        kernel = PROPERTY_KERNELS[kernel_name]
        base = ctf_grid(WeightedMeasure(atoms, w), kernel, queries, sigma).tensors
        moved = ctf_grid(WeightedMeasure(atoms, w).transform(rot, t), kernel,
                         queries @ rot.T + t, sigma).tensors
        assert_tensors_close(moved, rot @ base @ rot.T)

    @settings(max_examples=40, deadline=None)
    @given(
        problem=grid_problems(),
        kernel_name=st.sampled_from(sorted(PROPERTY_KERNELS)),
        sigma=st.sampled_from([0.125, 0.5, 1.0, 1.5]),
        perm_seed=st.integers(0, 2**32 - 1),
        factor=st.floats(0.01, 100.0),
    )
    def test_atom_order_and_weight_homogeneity(self, problem, kernel_name, sigma, perm_seed, factor):
        atoms, w, queries = problem
        kernel = PROPERTY_KERNELS[kernel_name]
        m = WeightedMeasure(atoms, w)
        base = ctf_grid(m, kernel, queries, sigma).tensors
        perm = np.random.default_rng(perm_seed).permutation(len(atoms))
        assert_tensors_close(ctf_grid(WeightedMeasure(atoms[perm], w[perm]), kernel, queries, sigma).tensors,
                             base)
        assert_tensors_close(ctf_grid(WeightedMeasure(atoms, w * factor), kernel, queries, sigma).tensors,
                             factor * base)

    @settings(max_examples=40, deadline=None)
    @given(
        problem=grid_problems(),
        kernel_name=st.sampled_from(sorted(PROPERTY_KERNELS)),
        sigma=st.sampled_from([0.125, 0.5, 1.0, 1.5]),
    )
    def test_trace_is_direct_frechet_value(self, problem, kernel_name, sigma):
        atoms, w, queries = problem
        kernel = PROPERTY_KERNELS[kernel_name]
        m = WeightedMeasure(atoms, w)
        fg = ctf_grid(m, kernel, queries, sigma)
        direct = np.array([frechet_value(m, kernel, x, sigma) for x in queries])
        np.testing.assert_allclose(fg.frechet_values, direct, rtol=1e-12,
                                   atol=1e-12 * max(1.0, np.abs(direct).max()))


class TestCellList:
    """The cell list of ctf_grid under compactly supported kernels."""

    def test_tiny_sigma_over_wide_extent(self):
        # cells at most sigma wide over an extent of 1e6: a dense lattice index
        # of the keys would need over (1e12)^2 values, far past int64
        rng = np.random.default_rng(21)
        sigma = 1e-6
        centres = rng.uniform(0.0, 1e6, size=(40, 2))
        atoms = np.repeat(centres, 25, axis=0) + rng.normal(0.0, 0.4 * sigma, size=(1000, 2))
        atoms = np.vstack([atoms, [[0.0, 0.0], [1e6, 1e6]]])
        w = rng.uniform(0.2, 1.0, size=len(atoms))
        queries = np.vstack([centres, centres[:10] + 0.7 * sigma])
        got = ctf_grid(WeightedMeasure(atoms, w), builtin_truncation(), queries, sigma).tensors
        want = closed_ball_sum(atoms, w, queries, sigma)
        assert np.count_nonzero(want[:, 0, 0]) >= 40
        assert_tensors_close(got, want)

    def test_support_beyond_float_range(self):
        # css sigma^2 overflows to inf while sigma^2 and the 1-D normalizer stay finite
        rng = np.random.default_rng(25)
        atoms = rng.normal(0.0, 1.0, size=(50, 1))
        queries = rng.normal(0.0, 1.0, size=(5, 1))
        wide = tabulated_kernel([0.0, 1e10], [1.0, 1.0])  # a truncation kernel of radius 1e5 sigma
        got = ctf_grid(empirical_measure(atoms), wide, queries, 1e150).tensors
        want = closed_ball_sum(atoms, np.full(50, 1 / 50), queries, 1e155)
        assert np.all(want > 0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_dense_cloud_matches_brute_force_with_fewer_tests(self, d):
        rng = np.random.default_rng(30 + d)
        atoms = rng.uniform(-1.0, 1.0, size=(4000, d))
        w = rng.uniform(0.2, 1.0, size=4000)
        queries = rng.uniform(-1.2, 1.2, size=(50, d))
        box = [0]
        kernel = counting_kernel(builtin_truncation(), box)
        for sigma in (0.1, 0.4):
            got = ctf_grid(WeightedMeasure(atoms, w), kernel, queries, sigma).tensors
            assert_tensors_close(got, closed_ball_sum(atoms, w, queries, sigma))
        # whole cells add their moments; the atoms of only a few cells are tested
        assert box[0] < 0.5 * 2 * len(atoms) * len(queries)

    def test_queries_outside_the_atoms_box(self):
        rng = np.random.default_rng(22)
        atoms = rng.uniform(0.0, 1.0, size=(500, 2))
        m = empirical_measure(atoms)
        far = [[5.0, 5.0], [-3.0, 0.5], [0.5, 1.4], [1.3, -0.3]]  # beyond sqrt(2) sigma
        near = [[0.5, 1.2], [-0.2, 0.5]]
        for kernel in PROPERTY_KERNELS.values():
            if kernel.compact_support_radius_sq is None:
                continue
            fg = ctf_grid(m, kernel, far + near, 0.25)
            np.testing.assert_array_equal(fg.tensors[:4], 0.0)
            assert np.all(fg.frechet_values[4:] > 0)
        assert_tensors_close(ctf_grid(m, builtin_truncation(), near, 0.25).tensors,
                             closed_ball_sum(atoms, m.weights, np.array(near), 0.25))

    def test_one_cell_and_duplicate_atoms(self):
        rng = np.random.default_rng(23)
        spot = rng.normal(0.0, 1e-3, size=(200, 2))
        dup = np.repeat([[0.3, -0.2], [0.3, -0.2 + 1e-9]], 150, axis=0)
        queries = rng.uniform(-2.0, 2.0, size=(40, 2))
        for atoms, sigma in ((spot, 10.0), (spot, 0.8), (dup, 0.5), (np.vstack([spot, dup]), 0.4)):
            w = rng.uniform(0.2, 1.0, size=len(atoms))
            got = ctf_grid(WeightedMeasure(atoms, w), builtin_truncation(), queries, sigma).tensors
            assert_tensors_close(got, closed_ball_sum(atoms, w, queries, sigma))

    def test_atoms_on_cell_edges_and_the_ball_boundary(self):
        # sigma = 1 and 40 copies of each 1/8-grid atom, enough to keep cells of
        # side 1/8 from the lowest atom: every grid atom sits on a cell edge; the
        # four axis atoms sit on the sphere and the rim atoms 1.2e-7 (relative,
        # in r^2) outside and inside it
        ring = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        grid = np.stack(np.meshgrid(*[np.arange(-12, 13) / 8.0] * 2), -1).reshape(-1, 2)
        grid = np.repeat(grid, 40, axis=0)
        rim = np.array([[1.0 + 2.0**-24, 0.0], [0.0, 1.0 - 2.0**-24], [-0.5, 0.625 + 1.0 + 2.0**-24]])
        for atoms in (ring, np.vstack([ring, grid]), np.vstack([ring, rim]), np.vstack([grid, rim])):
            w = np.linspace(0.5, 1.5, len(atoms))
            queries = np.array([[0.0, 0.0], [0.125, 0.0], [1.0, 1.0], [-0.5, 0.625]])
            got = ctf_grid(WeightedMeasure(atoms, w), builtin_truncation(), queries, 1.0).tensors
            assert_tensors_close(got, closed_ball_sum(atoms, w, queries, 1.0))
        ring_only = ctf_grid(WeightedMeasure(ring, np.ones(4)), builtin_truncation(), queries, 1.0)
        np.testing.assert_allclose(ring_only.tensors[0], 2.0 * np.eye(2) / math.pi, rtol=1e-15)

    def test_one_query_takes_the_all_atoms_path(self, monkeypatch):
        import time

        rng = np.random.default_rng(24)
        theta = rng.uniform(0.0, 2.0 * math.pi, 100_000)
        m = empirical_measure(np.column_stack([np.cos(theta), np.sin(theta)]))

        def no_cells(*args):
            raise AssertionError("a single query built a cell list")

        monkeypatch.setattr(fields, "_cell_sum", no_cells)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            t = ctf_at(m, builtin_truncation(), [1.0, 0.0], 0.3)
            times.append(time.perf_counter() - start)
        assert t.trace > 0
        assert min(times) < 0.05  # about 4 ms on a 2-core VM

    # sha256 of the tensors' and traces' bytes, recorded once each query's candidates
    # became one segment, whose bits no longer depend on _PAIR_BUDGET
    FROZEN = {
        "circle_truncation": "2482f7848478d9b59229750468571747d55f5c63b11eb70ec1ac400015412290",
        "tabulated_flat_3d": "2ebb7f916bb29983a0ea341c3c2ab1b8ee86445111e187d0302523d7a793c9b1",
    }

    @pytest.mark.parametrize("case", list(FROZEN))
    def test_frozen_bits(self, case):
        if case == "circle_truncation":  # 1e4 atoms, 24 x 24 grid: whole cells and tested ones
            rng = np.random.default_rng(40)
            theta = rng.uniform(0.0, 2.0 * math.pi, 10_000)
            atoms = np.column_stack([np.cos(theta), np.sin(theta)]) + rng.normal(0.0, 0.05, (10_000, 2))
            w = rng.uniform(0.5, 1.5, 10_000)
            axis = np.linspace(-1.3, 1.3, 24)
            queries = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
            kernel, sigma = builtin_truncation(), 0.3
        else:  # constant profile, not marked flat: every cell tests its atoms
            rng = np.random.default_rng(41)
            atoms = rng.normal(0.0, 1.0, (5000, 3))
            w = rng.uniform(0.2, 1.0, 5000)
            queries = rng.uniform(-1.5, 1.5, (60, 3))
            kernel, sigma = tabulated_kernel([0.0, 1.0], [1.0, 1.0]), 0.5
        fg = ctf_grid(WeightedMeasure(atoms, w), kernel, queries, sigma)
        digest = hashlib.sha256(fg.tensors.tobytes() + fg.frechet_values.tobytes()).hexdigest()
        assert digest == self.FROZEN[case]

    @staticmethod
    def circle_peak(n, sigma):
        """tracemalloc peak of _cell_sum on n atoms of a noisy circle, 24 x 24 queries."""
        rng = np.random.default_rng(26)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        atoms = np.column_stack([np.cos(theta), np.sin(theta)]) + rng.normal(0.0, 0.05, (n, 2))
        w = np.full(n, 1.0 / n)
        axis = np.linspace(-1.3, 1.3, 24)
        queries = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        tracemalloc.start()
        try:
            fields._cell_sum(atoms, w, 1.0, queries, builtin_truncation(), sigma, sigma * sigma)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_per_atom(self):
        # the build holds no (n, d, d) product and no sorted key once the cells are known; its
        # peak is the sorted atoms, weights, their deviations and two n-sized temporaries
        per_atom = (self.circle_peak(200_000, 0.6) - self.circle_peak(50_000, 0.6)) / 150_000
        assert per_atom <= 56  # about 125 with an (n, d, d) product

    def test_peak_memory_is_a_small_multiple_of_the_measure(self):
        # candidate blocks padded to their first query's count took 6.2 times the measure's bytes
        n = 100_000
        assert self.circle_peak(n, 0.3) <= 3 * n * 3 * 8


class TestSpectrum:
    def test_diag(self):
        from covfields import CovTensor

        s = spectrum(CovTensor(np.diag([1.0, 4.0])))
        np.testing.assert_allclose(s.eigenvalues, [1.0, 4.0])
        assert s.anisotropy_ratios[0] == pytest.approx(0.25)
        assert s.trace == pytest.approx(5.0)

    def test_zero(self):
        from covfields import CovTensor

        s = spectrum(CovTensor(np.zeros((3, 3))))
        np.testing.assert_array_equal(s.eigenvalues, 0.0)
        np.testing.assert_array_equal(s.anisotropy_ratios, 0.0)

    def test_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3))
        s = spectrum(a @ a.T)
        np.testing.assert_allclose(s.eigenvectors.T @ s.eigenvectors, np.eye(3), atol=1e-10)

    def test_wedge_gram_eigenstructure(self):
        # tensor of a wedge at the apex is the scaled Gram of its directions
        dirs = np.array([[1.0, 0.0], [math.cos(1.0), math.sin(1.0)]])
        sigma = 0.25
        t = wedge_tensor(dirs, [1.0, 1.0], sigma)
        scale = 1.0 / (3.0 * sigma ** (-1) * unit_ball_volume(2))
        expected = scale * dirs.T @ dirs
        np.testing.assert_allclose(t.entries, expected, rtol=1e-12)
        s = spectrum(t)
        gram_eigs = np.linalg.eigvalsh(dirs.T @ dirs) * scale
        np.testing.assert_allclose(s.eigenvalues, gram_eigs, rtol=1e-12)


class TestDimensionEstimate:
    def test_ratio_cases(self):
        from covfields import CovTensor

        s = spectrum(CovTensor(np.diag([0.908, 1.0])))
        assert dimension_estimate(s) == 2
        s = spectrum(CovTensor(np.diag([0.025, 1.0])))
        assert dimension_estimate(s) == 1
        s = spectrum(CovTensor(np.zeros((2, 2))))
        assert dimension_estimate(s) == 0

    def test_band_dataset_across_scales(self):
        # thin 2-D band: isotropic at small scale, 1-D at large scale
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(-5, 5, 4000), rng.uniform(-0.15, 0.15, 4000)])
        m = empirical_measure(pts)
        g = builtin_gaussian()
        small = spectrum(ctf_at(m, g, [0.0, 0.0], 0.1))
        large = spectrum(ctf_at(m, g, [0.0, 0.0], 2.0))
        assert dimension_estimate(small) == 2
        assert dimension_estimate(large) == 1
        assert large.anisotropy_ratios[0] < 0.05


class TestFrechet:
    def test_single_atom(self):
        m = empirical_measure([[0.5, 0.5]])
        assert frechet_value(m, builtin_gaussian(), [0.5, 0.5], 1.0) == 0.0

    def test_two_atoms_truncation(self):
        m = WeightedMeasure([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
        v = frechet_value(m, builtin_truncation(), [0.0, 0.0], 2.0)
        assert v == pytest.approx(1 / (4 * math.pi), rel=1e-14)

    def test_trace_identity_random(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            m = random_measure(rng, int(rng.integers(1, 40)), d)
            x = rng.normal(size=d)
            sigma = float(rng.uniform(0.1, 2.5))
            kernel = builtin_gaussian() if rng.random() < 0.5 else builtin_truncation()
            v = frechet_value(m, kernel, x, sigma)
            t = ctf_at(m, kernel, x, sigma).trace
            assert abs(v - t) <= 1e-10 * max(1.0, abs(v))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_bits_as_flow_pass(self, d):
        # 3-D differed at 10 of 50 points while r^2 was summed by einsum
        rng = np.random.default_rng(40 + d)
        m, kernel = empirical_measure(rng.normal(size=(300, d))), builtin_gaussian()
        pts = rng.normal(size=(50, d))
        v = fields._frechet_pass(m, kernel, pts, 0.7)[0]
        np.testing.assert_array_equal([frechet_value(m, kernel, p, 0.7) for p in pts], v)


class TestFrechetGradient:
    def test_symmetric_zero(self):
        m = WeightedMeasure([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
        g = frechet_gradient(m, builtin_gaussian(), [0.0, 0.0], 1.0)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_single_atom_direction(self):
        p = np.array([2.0, 1.0])
        m = empirical_measure([p])
        x = np.array([0.3, -0.4])
        g = frechet_gradient(m, builtin_gaussian(), x, 0.9)
        # gradient is parallel to (x - p): cross product vanishes
        v = x - p
        assert abs(g[0] * v[1] - g[1] * v[0]) <= 1e-12 * np.linalg.norm(g) * np.linalg.norm(v)

    def test_analytic_vs_central_difference(self):
        rng = np.random.default_rng(10)
        m = random_measure(rng, 50, 2)
        for _ in range(10):
            x = rng.normal(size=2)
            ga = frechet_gradient(m, builtin_gaussian(), x, 0.8)
            gc = central_difference_gradient(m, builtin_gaussian(), x, 0.8, step=1e-5)
            assert np.abs(ga - gc).max() <= 1e-6

    def test_analytic_requires_gaussian(self):
        m = empirical_measure([[0.0, 0.0]])
        with pytest.raises(ValueError, match="gaussian"):
            frechet_gradient(m, builtin_truncation(), [1.0, 0.0], 1.0)

    def test_tabulated_kernel_is_never_taken_for_gaussian(self, tmp_path):
        """Every tabulated kernel is named "tabulated", so no name lets its
        piecewise-linear profile past the Gaussian-only gradient and flow."""
        path = tmp_path / "prof.csv"
        path.write_text("r,f\n0,1\n1,1\n4,0\n")
        with pytest.raises(TypeError):
            tabulated_kernel([0.0, 1.0, 4.0], [1.0, 1.0, 0.0], name="gaussian")
        m = WeightedMeasure([[0.0, 0.0], [2.0, 0.0]], [0.5, 0.5])
        for kernel in (tabulated_kernel([0.0, 1.0, 4.0], [1.0, 1.0, 0.0]), load_profile_csv(path)):
            assert kernel.name == "tabulated"
            with pytest.raises(ValueError, match="gaussian"):
                frechet_gradient(m, kernel, [0.5, 0.0], 1.0)
            with pytest.raises(ValueError, match="gaussian"):
                flow_to_attractor(m, kernel, [0.5, 0.0], 1.0)
            with pytest.raises(ValueError, match="gaussian"):
                basin_labels(m, kernel, [[0.5, 0.0]], 1.0)

    def test_analytic_vs_direct_sum(self):
        rng = np.random.default_rng(11)
        m = random_measure(rng, 300, 3)
        g, sigma = builtin_gaussian(), 0.7
        for x in rng.normal(size=(5, 3)):
            diff = m.atoms - x
            r2 = (diff * diff).sum(axis=1)
            kern = np.exp(-0.5 * r2 / sigma**2) / (2 * math.pi * sigma**2) ** 1.5
            want = diff.T @ (m.weights * kern * (r2 / sigma**2 - 2.0))
            np.testing.assert_allclose(frechet_gradient(m, g, x, sigma), want, rtol=1e-12, atol=1e-15)


class TestFlow:
    def test_single_cluster_converges_to_grid_argmin(self):
        rng = np.random.default_rng(6)
        pts = rng.normal([1.0, -0.5], 0.3, size=(200, 2))
        m = empirical_measure(pts)
        g = builtin_gaussian()
        res = flow_to_attractor(m, g, [2.0, 0.5], 1.0)
        assert res.converged
        # dense grid argmin oracle over the data region (V also decays to 0
        # far from the data, so the search stays on the hull of the cluster)
        ax = np.linspace(pts[:, 0].min(), pts[:, 0].max(), 121)
        ay = np.linspace(pts[:, 1].min(), pts[:, 1].max(), 121)
        xx, yy = np.meshgrid(ax, ay, indexing="ij")
        grid = np.column_stack([xx.ravel(), yy.ravel()])
        vals = [frechet_value(m, g, p, 1.0) for p in grid]
        argmin = grid[int(np.argmin(vals))]
        assert np.linalg.norm(res.attractor - argmin) < 0.05

    def test_two_clusters_two_basins(self):
        rng = np.random.default_rng(13)
        pts = np.concatenate([
            rng.normal([-3.0, 0.0], 0.3, size=(150, 2)),
            rng.normal([3.0, 0.0], 0.3, size=(150, 2)),
        ])
        m = empirical_measure(pts)
        starts = [[-2.0, 0.5], [-3.5, -0.2], [2.5, 0.1], [3.3, 0.4]]
        labels, attractors, _ = basin_labels(m, builtin_gaussian(), starts, 0.8)
        assert len(attractors) == 2
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_start_at_attractor_is_fixed(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(0.0, 0.5, size=(100, 2))
        m = empirical_measure(pts)
        g = builtin_gaussian()
        first = flow_to_attractor(m, g, [0.3, 0.1], 1.0)
        again = flow_to_attractor(m, g, first.attractor, 1.0)
        assert again.path.shape[0] == 1
        np.testing.assert_array_equal(again.attractor, first.attractor)

    def test_descent_along_path(self):
        rng = np.random.default_rng(15)
        pts = rng.normal(0.0, 1.0, size=(80, 2))
        m = empirical_measure(pts)
        g = builtin_gaussian()
        res = flow_to_attractor(m, g, [2.0, 2.0], 1.5)
        vals = [frechet_value(m, g, p, 1.5) for p in res.path]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_nonconvergence_is_flagged_not_raised(self, monkeypatch):
        rng = np.random.default_rng(16)
        m = empirical_measure(rng.normal(0, 1, size=(50, 2)))
        monkeypatch.setattr(fields, "_FLOW_MAX_STEPS", 2)
        monkeypatch.setattr(fields, "_FLOW_GRAD_TOL", 1e-300)
        res = flow_to_attractor(m, builtin_gaussian(), [5.0, 5.0], 0.5)
        assert not res.converged


def reference_flow(measure, kernel, start, sigma):
    """One start at a time, as flow_to_attractor ran before the batched flow.

    Reads the flow's constants from ``fields`` at call time, so a test that
    patches them patches the reference too.
    """
    step0 = sigma / fields._FLOW_STEP_DIV
    x = np.asarray(start, dtype=float).ravel().copy()
    path = [x.copy()]
    converged = False
    for _ in range(fields._FLOW_MAX_STEPS):
        v = frechet_value(measure, kernel, x, sigma)
        g = frechet_gradient(measure, kernel, x, sigma)
        gn = float(np.linalg.norm(g))
        if gn < fields._FLOW_GRAD_TOL * max(1.0, v):
            converged = True
            break
        direction = -g / gn
        t = step0
        moved = False
        while t > 1e-15 * step0:
            cand = x + t * direction
            if frechet_value(measure, kernel, cand, sigma) <= v - fields._FLOW_ARMIJO * t * gn:
                x = cand
                path.append(x.copy())
                moved = True
                break
            t *= fields._FLOW_SHRINK
        if not moved:
            converged = True
            break
    return x, np.asarray(path), converged


def two_cluster_sample(seed, per_cluster=200):
    """The benchmark's flow sample: clusters at (-2, 0) and (2, 0.5), sd 0.6."""
    rng = np.random.default_rng(seed)
    return empirical_measure(np.concatenate([
        rng.normal([-2.0, 0.0], 0.6, size=(per_cluster, 2)),
        rng.normal([2.0, 0.5], 0.6, size=(per_cluster, 2)),
    ]))


def start_grid(lo, hi, k):
    ax = np.linspace(lo, hi, k)
    return np.column_stack([g.ravel() for g in np.meshgrid(ax, ax, indexing="ij")])


def nearest_atom(measure, x):
    return float(np.sqrt(((measure.atoms - x) ** 2).sum(axis=1).min()))


class TestBatchedFlow:
    SIGMA = 1.2

    def test_matches_per_start_reference(self):
        m, g = two_cluster_sample(21, 100), builtin_gaussian()
        starts = start_grid(-4.0, 4.0, 7)
        labels, _, results = basin_labels(m, g, starts, self.SIGMA)
        for start, label, res in zip(starts, labels, results):
            x, path, converged = reference_flow(m, g, start, self.SIGMA)
            np.testing.assert_allclose(res.attractor, x, rtol=0, atol=1e-9)
            escaped = nearest_atom(m, x) > 3.0 * self.SIGMA
            assert (label == -1) == escaped
            if not escaped:
                assert res.converged == converged
                assert len(res.path) == len(path)
                np.testing.assert_allclose(res.path, path, rtol=0, atol=1e-9)
        assert 0 < np.sum(labels == -1) < len(starts)

    def test_max_iter_matches_reference(self, monkeypatch):
        m, g = two_cluster_sample(22, 40), builtin_gaussian()
        monkeypatch.setattr(fields, "_FLOW_MAX_STEPS", 3)
        starts = start_grid(-3.0, 3.0, 4)
        _, _, results = basin_labels(m, g, starts, self.SIGMA)
        for start, res in zip(starts, results):
            x, path, converged = reference_flow(m, g, start, self.SIGMA)
            np.testing.assert_allclose(res.attractor, x, rtol=0, atol=1e-9)
            assert len(res.path) == len(path) <= 4
            assert res.converged == (converged and nearest_atom(m, x) <= 3.0 * self.SIGMA)

    def test_bench_sample_has_two_basins(self):
        m = two_cluster_sample(0)
        labels, attractors, results = basin_labels(m, builtin_gaussian(), start_grid(-4.0, 4.0, 20),
                                                   self.SIGMA)
        assert attractors.shape == (2, 2)
        assert set(labels.tolist()) == {-1, 0, 1}
        for label, res in zip(labels, results):
            assert res.basin_id == label
            assert res.converged == (label >= 0)
            assert (nearest_atom(m, res.attractor) <= 3.0 * self.SIGMA) == (label >= 0)
        # one attractor per cluster
        assert sorted(np.round(attractors[:, 0])) == [-2.0, 2.0]

    @settings(max_examples=25, deadline=None)
    @given(
        starts=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(2)),
                          elements=st.floats(-4.0, 4.0)),
        budget=st.sampled_from([1, 130, 1 << 16]),
        data=st.data(),
    )
    def test_rows_independent_of_batch(self, starts, budget, data):
        m, g = two_cluster_sample(23, 30), builtin_gaussian()
        _, _, full = basin_labels(m, g, starts, self.SIGMA)
        order = data.draw(st.permutations(range(len(starts))))
        keep = data.draw(st.lists(st.sampled_from(order), min_size=1, unique=True))
        with unittest.mock.patch.object(fields, "_PAIR_BUDGET", budget):
            _, _, shuffled = basin_labels(m, g, starts[order], self.SIGMA)
            _, _, subset = basin_labels(m, g, starts[keep], self.SIGMA)
            alone = [flow_to_attractor(m, g, starts[i], self.SIGMA) for i in keep]
        for rows, results in ((order, shuffled), (keep, subset), (keep, alone)):
            for i, res in zip(rows, results):
                assert np.array_equal(res.attractor, full[i].attractor)
                assert np.array_equal(res.path, full[i].path)
                assert res.converged == full[i].converged

    def test_escaped_start_alone(self):
        m = two_cluster_sample(24, 50)
        res = flow_to_attractor(m, builtin_gaussian(), [30.0, 0.0], self.SIGMA)
        assert not res.converged
        labels, attractors, results = basin_labels(m, builtin_gaussian(), [[30.0, 0.0]], self.SIGMA)
        assert labels.tolist() == [-1] and attractors.shape == (0, 2)
        assert results[0].basin_id == -1 and not results[0].converged

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_raises(self, bad):
        m, g = two_cluster_sample(25, 10), builtin_gaussian()
        with pytest.raises(ValueError, match="finite"):
            flow_to_attractor(m, g, [bad, 0.0], 1.0)
        with pytest.raises(ValueError, match="finite"):
            basin_labels(m, g, [[0.0, 0.0], [0.0, bad]], 1.0)

    @pytest.mark.parametrize("starts", [[], np.empty((0, 2))])
    def test_empty_starts(self, starts):
        labels, attractors, results = basin_labels(two_cluster_sample(26, 10), builtin_gaussian(),
                                                   starts, 1.0)
        assert labels.shape == (0,) and attractors.shape == (0, 2) and results == []

    def test_dimension_mismatch_raises(self):
        m = two_cluster_sample(27, 10)
        for start in ([0.0], [0.0, 0.0, 0.0], []):
            with pytest.raises(ValueError, match="dimension"):
                flow_to_attractor(m, builtin_gaussian(), start, 1.0)

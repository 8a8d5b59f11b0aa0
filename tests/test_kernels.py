import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from covfields import (
    RadialKernel,
    builtin_gaussian,
    builtin_truncation,
    derive_constants,
    eval_kernel,
    kernel_by_name,
    q_tensor,
    tabulated_kernel,
    unit_ball_volume,
    unit_sphere_area,
)


def kernel_mass(kernel, sigma, d):
    """Independent normalization oracle: integral of K over R^d in polar form."""
    c_d = kernel.normalizer(sigma, d)
    upper = math.sqrt(kernel.compact_support_radius_sq) * sigma if kernel.compact_support_radius_sq else np.inf
    val, _ = integrate.quad(
        lambda rho: rho ** (d - 1) * float(kernel.profile(np.asarray(rho * rho / sigma**2))) / c_d,
        0,
        upper,
        limit=300,
    )
    return unit_sphere_area(d) * val


class TestBallSphereConstants:
    def test_omega_equals_d_nu(self):
        for d in range(1, 11):
            assert unit_sphere_area(d) == pytest.approx(d * unit_ball_volume(d), rel=1e-14)

    def test_known_values(self):
        assert unit_ball_volume(0) == 1.0
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


class TestGaussian:
    def test_normalizer_matches_gaussian_form(self):
        g = builtin_gaussian()
        for d in (1, 2, 3):
            for sigma in (0.5, 1.0, 2.0):
                assert g.normalizer(sigma, d) == pytest.approx(
                    (2 * math.pi * sigma**2) ** (d / 2), rel=1e-10
                )

    def test_moment_quadrature_cross_check(self):
        # numeric M_d against the closed form 2^{d/2} Gamma(d/2)
        g = builtin_gaussian()
        for d in (1, 2, 3, 5):
            num, _ = integrate.quad(lambda r: r ** (d / 2 - 1) * math.exp(-r / 2), 0, np.inf)
            assert g.moment(d) == pytest.approx(num, rel=1e-9)

    def test_cd_2pi_at_d2(self):
        assert builtin_gaussian().normalizer(1.0, 2) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_peak_value(self):
        g = builtin_gaussian()
        x = np.array([0.3, -0.7, 2.0])
        for sigma in (0.5, 2.0):
            k = eval_kernel(g, x, x, sigma)
            assert k * (2 * math.pi * sigma**2) ** 1.5 == pytest.approx(1.0, rel=1e-12)

    def test_af_matches_sup_search(self):
        # closed-form A1, A2 against a dense 1-D search on (0, 100]
        g = builtin_gaussian()
        c = derive_constants(g, 2)
        r = np.arange(1e-5, 100, 1e-5)
        a1 = (r**1.5 * 0.5 * np.exp(-r / 2)).max()
        a2 = (np.sqrt(r) * np.exp(-r / 2)).max()
        assert c.a1 == pytest.approx(a1, rel=1e-6)
        assert c.a2 == pytest.approx(a2, rel=1e-6)
        assert c.a_f == pytest.approx(2 * (0.5 * 3**1.5 * math.exp(-1.5) + math.exp(-0.5)), rel=1e-12)
        assert c.smooth_stability_eligible


class TestTruncation:
    def test_normalizer(self):
        t = builtin_truncation()
        assert t.normalizer(1.0, 2) == pytest.approx(math.pi, rel=1e-14)
        assert t.normalizer(2.0, 3) == pytest.approx(8 * 4 * math.pi / 3, rel=1e-14)

    def test_moment(self):
        t = builtin_truncation()
        for d in (1, 2, 3, 4):
            assert t.moment(d) == pytest.approx(2.0 / d, rel=1e-12)

    def test_support(self):
        t = builtin_truncation()
        assert eval_kernel(t, [0.0, 0.0], [2.0, 0.0], 1.0) == 0.0
        # boundary atoms included (closed ball)
        assert eval_kernel(t, [0.0, 0.0], [1.0, 0.0], 1.0) > 0.0

    def test_constants(self):
        c = derive_constants(builtin_truncation(), 2)
        assert c.c == 1.0
        assert not c.smooth_stability_eligible


class TestEvalKernel:
    def test_gaussian_1d_peak(self):
        g = builtin_gaussian()
        assert eval_kernel(g, [0.0], [0.0], 1.0) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_symmetry_and_isotropy(self):
        rng = np.random.default_rng(1)
        g = builtin_gaussian()
        t = builtin_truncation()
        for kernel in (g, t):
            for _ in range(20):
                x, y = rng.normal(size=2), rng.normal(size=2)
                # random rotation + shift
                theta = rng.uniform(0, 2 * math.pi)
                u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
                b = rng.normal(size=2)
                k1 = eval_kernel(kernel, x, y, 0.8)
                assert k1 == pytest.approx(eval_kernel(kernel, y, x, 0.8), rel=1e-13)
                assert k1 == pytest.approx(eval_kernel(kernel, u @ x + b, u @ y + b, 0.8), rel=1e-10)

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            eval_kernel(builtin_gaussian(), [0.0], [1.0], 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e200, 1e-170])
    def test_normalizer_and_c_d_reject_bad_sigma(self, bad):
        for kernel in (builtin_gaussian(), builtin_truncation()):
            with pytest.raises(ValueError, match="sigma"):
                kernel.normalizer(bad, 2)
            with pytest.raises(ValueError, match="sigma"):
                derive_constants(kernel, 2).c_d(bad)
            with pytest.raises(ValueError, match="sigma"):
                eval_kernel(kernel, [0.0], [1.0], bad)

    @pytest.mark.parametrize("d, sigma", [(3, 1e150), (3, 1e-105), (4, 1e100), (4, 1e-80)])
    def test_normalizer_and_c_d_reject_sigma_d_out_of_range(self, d, sigma):
        # sigma^2 is a normal float, but C_d(sigma) ~ sigma^d (or its inverse) overflows
        for kernel in (builtin_gaussian(), builtin_truncation()):
            with pytest.raises(ValueError, match="sigma"):
                kernel.normalizer(sigma, d)
            with pytest.raises(ValueError, match="sigma"):
                derive_constants(kernel, d).c_d(sigma)


class TestNormalization:
    @pytest.mark.parametrize("name", ["gaussian", "truncation"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_unit_mass(self, name, d, sigma):
        assert kernel_mass(kernel_by_name(name), sigma, d) == pytest.approx(1.0, abs=1e-3)


class TestConditionC:
    def test_r_f_bounded_by_c(self):
        r = np.concatenate([np.geomspace(1e-8, 1, 2000), np.linspace(1, 300, 20000)])
        for kernel in (builtin_gaussian(), builtin_truncation()):
            c = derive_constants(kernel, 2).c
            assert (r * kernel.profile(r)).max() <= c + 1e-12


class TestTabulated:
    def test_interpolated_profile(self):
        r = np.linspace(0, 4, 200)
        k = tabulated_kernel(r, np.exp(-r / 2) * 3.0)
        # rescaled to sup f = 1; linear interpolation approximates the profile
        assert float(k.profile(np.asarray(1.0))) == pytest.approx(math.exp(-0.5), rel=1e-4)
        assert "A1" not in k.analytic
        c = derive_constants(k, 2)
        assert not c.smooth_stability_eligible

    def test_compact_beyond_last_knot(self):
        k = tabulated_kernel([0.0, 0.5, 1.0], [1.0, 0.5, 0.2])
        assert k.compact_support_radius_sq == 1.0
        assert float(k.profile(np.asarray(1.5))) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            tabulated_kernel([0.0, 1.0], [1.0, -0.2])
        with pytest.raises(ValueError):
            tabulated_kernel([0.0, 0.0], [1.0, 1.0])


def brute_force_sups(kernel, r_knots):
    """max of r f(r) and sqrt(r) f(r) over 20001 points per knot interval
    and on the constant head (reference)."""
    edges = np.concatenate([[0.0], r_knots]) if r_knots[0] > 0 else np.asarray(r_knots)
    r = np.concatenate([np.linspace(lo, hi, 20001) for lo, hi in zip(edges[:-1], edges[1:])])
    f = kernel.profile(r)
    return (r * f).max(), (np.sqrt(r) * f).max()


@st.composite
def piecewise_linear_profiles(draw):
    """Knots (the first one 0 or a head segment's end), values with a
    positive maximum; the profile is zero beyond the last knot."""
    m = draw(st.integers(2, 8))
    head = draw(st.sampled_from([0.0, 0.05, 0.5, 1.5]))
    steps = draw(st.lists(st.floats(0.01, 2.0), min_size=m - 1, max_size=m - 1))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(lambda v: max(v) > 0))
    return head + np.concatenate([[0.0], np.cumsum(steps)]), np.array(values)


class TestTabulatedSups:
    @pytest.mark.parametrize("r_knots, f_values, c, a2", [
        # sups at a knot at r <= 1
        ([0.0, 1.0], [1.0, 1.0], 1.0, 1.0),
        ([0.0, 0.5], [1.0, 1.0], 0.5, math.sqrt(0.5)),
        ([0.0, 1.0, 2.0], [1.0, 1.0, 0.0], 1.0, 1.0),
        ([0.195, 0.861], [0.44, 0.955], 0.861, math.sqrt(0.861)),
    ])
    def test_sup_at_knot_up_to_one(self, r_knots, f_values, c, a2):
        consts = derive_constants(tabulated_kernel(r_knots, f_values), 2)
        assert consts.c == pytest.approx(c, rel=1e-15)
        assert consts.a2 == pytest.approx(a2, rel=1e-15)
        assert consts.a1 == math.inf and not consts.smooth_stability_eligible

    def test_interior_stationary_points(self):
        # f = 1 - r on [0, 1]: r f peaks at r = 1/2 and sqrt(r) f at r = 1/3,
        # while both functions vanish at the knots
        consts = derive_constants(tabulated_kernel([0.0, 1.0], [1.0, 0.0]), 2)
        assert consts.c == pytest.approx(0.25, rel=1e-15)
        assert consts.a2 == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(profile=piecewise_linear_profiles())
    def test_property_bounds_brute_force_from_above(self, profile):
        r_knots, f_values = profile
        kernel = tabulated_kernel(r_knots, f_values)
        consts = derive_constants(kernel, 2)
        want_c, want_a2 = brute_force_sups(kernel, r_knots)
        for got, want in ((consts.c, want_c), (consts.a2, want_a2)):
            assert got >= want * (1.0 - 1e-12)
            assert got <= want + 1e-6

    def test_non_finite_knots_rejected(self):
        for r_knots, f_values in (([0.0, math.nan], [1.0, 1.0]), ([0.0, 1.0], [1.0, math.inf])):
            with pytest.raises(ValueError, match="finite"):
                tabulated_kernel(r_knots, f_values)


def test_load_profile_csv(tmp_path):
    from covfields import load_profile_csv

    r = np.linspace(0, 3, 50)
    f = np.exp(-r)
    path = tmp_path / "prof.csv"
    path.write_text("r,f\n" + "\n".join(f"{a},{b}" for a, b in zip(r, f)) + "\n")
    k = load_profile_csv(path)
    assert k.name == "tabulated"
    assert k.compact_support_radius_sq == 3.0
    assert float(k.profile(np.asarray(1.0))) == pytest.approx(math.exp(-1.0), rel=1e-3)


@pytest.mark.parametrize("text, shape", [
    ("r,f\n", (0, 1)),  # a header with no row
    ("r\n0.0\n1.0\n", (2, 1)),
    ("r,f,g\n0.0,1.0,2.0\n1.0,0.0,3.0\n", (2, 3)),
])
def test_load_profile_csv_needs_two_columns(tmp_path, text, shape):
    from covfields import load_profile_csv

    path = tmp_path / "prof.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no warning on the way
        with pytest.raises(ValueError, match=re.escape(f"must be a header and rows r,f(r), got shape {shape}")):
            load_profile_csv(path)


def test_load_profile_csv_needs_a_header(tmp_path):
    from covfields import load_profile_csv

    knots = "0,1\n0.5,0.5\n1,0\n"
    path = tmp_path / "prof.csv"
    path.write_text("r,f\n" + knots)
    assert load_profile_csv(path).profile(np.array([0.0, 0.25])).tolist() == [1.0, 0.75]
    path.write_text(knots)  # skipping line 1 would lose the knot (0, 1)
    with pytest.raises(ValueError, match=re.escape(f"kernel profile {path} must be a header and rows r,f(r), "
                                                   "got the row '0,1' on line 1")):
        load_profile_csv(path)


@pytest.mark.parametrize("text, cell", [
    ("r,f\n0,1\n#0.5,1\n1,0\n", "#0.5"),  # a knot, not a comment to drop: f(0.5) is 1, not 0.5
    ("r,f\n0,1\n0.5,1 # peak\n1,0\n", "1 # peak"),
])
def test_load_profile_csv_hash_is_no_comment(tmp_path, text, cell):
    from covfields import load_profile_csv

    path = tmp_path / "prof.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(repr(cell))):
        load_profile_csv(path)


def test_load_profile_csv_skips_blank_lines(tmp_path):
    from covfields import load_profile_csv

    path = tmp_path / "prof.csv"
    path.write_text("\nr,f\n0,1\n\n0.5,1\n1,0\n")  # the header is the first line that is not blank
    assert load_profile_csv(path).profile(np.array([0.0, 0.5, 0.75])).tolist() == [1.0, 1.0, 0.5]


def test_kernel_without_constants_rejected():
    # nothing is integrated or searched numerically: a missing constant is named
    gauss = builtin_gaussian()
    fat_tail = RadialKernel(name="fat-tail", profile=lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float)))
    for call in (lambda: fat_tail.moment(2), lambda: fat_tail.normalizer(1.0, 2),
                 lambda: derive_constants(fat_tail, 2), lambda: eval_kernel(fat_tail, [0.0], [1.0], 1.0)):
        with pytest.raises(ValueError, match="'fat-tail' carries no constant 'M_d'"):
            call()
    for missing in ("C", "A2"):
        analytic = {k: v for k, v in gauss.analytic.items() if k != missing}
        kernel = RadialKernel("partial", gauss.profile, analytic=analytic)
        with pytest.raises(ValueError, match=f"'partial' carries no constant '{missing}'"):
            derive_constants(kernel, 2)
    # a missing A1 reads as infinite, and the kernel is not eligible
    no_a1 = {k: v for k, v in gauss.analytic.items() if k != "A1"}
    consts = derive_constants(RadialKernel("plain", gauss.profile, analytic=no_a1), 2)
    assert consts.a1 == math.inf and not consts.smooth_stability_eligible


def test_import_leaves_out_scipy_integrate():
    code = "import sys, covfields; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_q_tensor():
    g = builtin_gaussian()
    z = np.array([1.0, 2.0])
    q = q_tensor(g, z, 1.0)
    k = eval_kernel(g, [0.0, 0.0], z, 1.0)
    np.testing.assert_allclose(q, np.outer(z, z) * k, rtol=1e-14)

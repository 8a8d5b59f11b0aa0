import math

import numpy as np
import pytest

from covfields import (
    NumericalError,
    WeightedMeasure,
    builtin_gaussian,
    builtin_truncation,
    circle_eigenvalues,
    circle_tensor,
    ctf_at,
    curve_curvature,
    gaussian_transfer_hat,
    quadrature_arc,
    quadrature_cap,
    quadrature_circle,
    quadrature_disk,
    quadrature_segment,
    sphere_eigenvalues,
    subspace_tensor,
    surface_curvatures,
    unit_ball_volume,
    wedge_tensor,
)

LADDER = [0.05, 0.04, 0.03]


def ball_arcs(sigma_max, radius):
    """Half-angle of the circular arc a ball of radius sigma_max can see."""
    return 1.3 * 2.0 * math.asin(min(1.0, sigma_max / (2 * radius)))


class TestSubspaceTensor:
    def test_truncation_line(self):
        for d in (2, 3):
            for sigma in (0.3, 0.7):
                basis = np.zeros((1, d))
                basis[0, 0] = 1.0
                t = subspace_tensor(d, 1, basis, "truncation", sigma)
                lam = 2.0 / (3.0 * sigma ** (d - 3) * unit_ball_volume(d))
                assert t.entries[0, 0] == pytest.approx(lam, rel=1e-12)

    def test_gaussian_full_space_is_sigma_sq(self):
        # r = d: the measure is Lebesgue, each direction carries sigma^2
        # (so the trace is d sigma^2)
        t = subspace_tensor(3, 3, np.eye(3), "gaussian", 0.7)
        np.testing.assert_allclose(np.diag(t.entries), 0.7**2, rtol=1e-12)
        assert t.trace == pytest.approx(3 * 0.7**2, rel=1e-12)

    def test_rank(self):
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        t = subspace_tensor(3, 2, basis, "truncation", 0.5)
        assert np.linalg.matrix_rank(t.entries, tol=1e-12) == 2

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            subspace_tensor(2, 1, [[1.0, 1.0]], "gaussian", 1.0)

    def test_gaussian_line_matches_quadrature(self):
        seg = quadrature_segment([-10, 0], [10, 0], 5e-4)
        emp = ctf_at(seg, builtin_gaussian(), [0.0, 0.0], 1.0)
        oracle = subspace_tensor(2, 1, [[1.0, 0.0]], "gaussian", 1.0)
        assert emp.entries[0, 0] == pytest.approx(oracle.entries[0, 0], rel=1e-3)

    def test_truncation_plane_matches_quadrature(self):
        disk = quadrature_disk(0.3, 600, 400, align_radii=[0.2], dim=3)
        emp = ctf_at(disk, builtin_truncation(), [0.0, 0.0, 0.0], 0.2)
        basis = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        oracle = subspace_tensor(3, 2, basis, "truncation", 0.2)
        np.testing.assert_allclose(np.diag(emp.entries)[:2], np.diag(oracle.entries)[:2], rtol=1e-3)
        # the planar eigenvalue at d=3, r=2 equals 3 sigma / 16
        assert oracle.entries[0, 0] == pytest.approx(3 * 0.2 / 16, rel=1e-12)


class TestWedgeTensor:
    def test_two_orthogonal(self):
        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        sigma = 0.3
        t = wedge_tensor(dirs, [1.0, 1.0], sigma)
        lam = 1.0 / (3.0 * sigma ** (-1) * unit_ball_volume(2))
        np.testing.assert_allclose(np.diag(t.entries), lam, rtol=1e-12)

    def test_single_direction_matches_half_line(self):
        # one edge of length ell >= sigma gives half the two-sided line value
        sigma = 0.2
        t = wedge_tensor([[1.0, 0.0]], [5.0], sigma)
        full = subspace_tensor(2, 1, [[1.0, 0.0]], "truncation", sigma)
        assert t.entries[0, 0] == pytest.approx(0.5 * full.entries[0, 0], rel=1e-12)

    def test_short_edges_use_cubed_lengths(self):
        sigma = 1.0
        lens = np.array([0.25, 0.6])
        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        t = wedge_tensor(dirs, lens, sigma)
        expect = lens**3 / (3.0 * sigma**2 * unit_ball_volume(2))
        np.testing.assert_allclose(np.diag(t.entries), expect, rtol=1e-12)

    def test_duplicate_direction_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            wedge_tensor([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0], 0.5)

    def test_matches_quadrature(self):
        # wedge of 3 segments realized as quadrature measures
        angles = [0.3, 1.7, 2.6]
        sigma = 0.15
        parts = []
        for a in angles:
            d = np.array([math.cos(a), math.sin(a)])
            seg = quadrature_segment([0.0, 0.0], list(d), 2e-5)
            parts.append(seg)
        atoms = np.concatenate([p.atoms for p in parts])
        weights = np.concatenate([p.weights for p in parts])
        m = WeightedMeasure(atoms, weights)
        emp = ctf_at(m, builtin_truncation(), [0.0, 0.0], sigma)
        dirs = np.array([[math.cos(a), math.sin(a)] for a in angles])
        oracle = wedge_tensor(dirs, [1.0, 1.0, 1.0], sigma)
        np.testing.assert_allclose(emp.entries, oracle.entries, rtol=1e-3)


class TestCircleEigenvalues:
    def test_zero_outside_band(self):
        assert circle_eigenvalues(1.0, 1.2, 0.1) == (0.0, 0.0)
        assert circle_eigenvalues(1.0, 0.85, 0.1) == (0.0, 0.0)

    def test_center_domain_error(self):
        with pytest.raises(NumericalError):
            circle_eigenvalues(1.0, 0.0, 1.5)

    def test_on_circle_small_scale_expansion(self):
        # lambda_t(R=1, r=1) = 2 sigma/(3 pi) - sigma^3/(20 pi) + O(sigma^5)
        for sigma in (0.1, 0.05):
            _, lam_t = circle_eigenvalues(1.0, 1.0, sigma)
            expansion = 2 * sigma / (3 * math.pi) - sigma**3 / (20 * math.pi)
            assert lam_t == pytest.approx(expansion, abs=2e-2 * sigma**5)

    def test_isotropy(self):
        # values depend on radii only; assemble the tensor at two positions
        x1 = np.array([0.97, 0.0])
        theta = 1.1
        x2 = 0.97 * np.array([math.cos(theta), math.sin(theta)])
        t1 = circle_tensor(1.0, x1, 0.1)
        t2 = circle_tensor(1.0, x2, 0.1)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(t1.entries), np.linalg.eigvalsh(t2.entries), rtol=1e-12
        )

    def test_matches_quadrature(self):
        circ = quadrature_circle(1.0, 200_000)
        for r in (0.93, 1.0, 1.07):
            lam_n, lam_t = circle_eigenvalues(1.0, r, 0.1)
            t = ctf_at(circ, builtin_truncation(), [r, 0.0], 0.1)
            assert t.entries[0, 0] == pytest.approx(lam_n, rel=2e-3)
            assert t.entries[1, 1] == pytest.approx(lam_t, rel=2e-3)

    def test_trace_expansion_coefficients(self):
        # closed-form trace tracks 2 sigma/(3 pi) + kappa^2 sigma^3/(20 pi)
        # within 2% on the sigma^3 coefficient at sigma <= 0.05
        for radius in (1.0, 2.0):
            sigma = 0.05
            lam_n, lam_t = circle_eigenvalues(radius, radius, sigma)
            tr = lam_n + lam_t
            cubic = (tr - 2 * sigma / (3 * math.pi)) / sigma**3
            expected = (1.0 / radius) ** 2 / (20 * math.pi)
            assert cubic == pytest.approx(expected, rel=0.02)


class TestSphereEigenvalues:
    def test_zero_outside_band(self):
        assert sphere_eigenvalues(1.0, 1.2, 0.1) == (0.0, 0.0, 0.0)

    def test_multiplicity(self):
        a, b, _ = sphere_eigenvalues(1.0, 0.95, 0.1)
        assert a == b

    def test_normal_eigenvalue_on_sphere(self):
        # at r = R: lambda_n = sigma^3/16 * kappa^2-type coefficient (R=1)
        for sigma in (0.1, 0.05):
            _, _, lam_n = sphere_eigenvalues(1.0, 1.0, sigma)
            assert lam_n == pytest.approx(sigma**3 / 16, rel=1e-12)

    def test_tangential_leading_term(self):
        sigma = 0.02
        lam_t, _, _ = sphere_eigenvalues(1.0, 1.0, sigma)
        assert lam_t == pytest.approx(3 * sigma / 16, rel=1e-3)

    def test_matches_quadrature(self):
        # queries on the symmetry axis: the ball boundary is a theta-circle,
        # so aligning theta cell edges with it removes the dominant error
        radii = (0.95, 1.0, 1.05)
        aligns = [math.acos((1 + r * r - 0.01) / (2 * r)) for r in radii]
        cap = quadrature_cap(1.0, 0.4, 1500, 600, align_thetas=aligns)
        for r in radii:
            lam_t, _, lam_n = sphere_eigenvalues(1.0, r, 0.1)
            t = ctf_at(cap, builtin_truncation(), [0.0, 0.0, r], 0.1)
            assert t.entries[0, 0] == pytest.approx(lam_t, rel=1e-3, abs=1e-12)
            assert t.entries[2, 2] == pytest.approx(lam_n, rel=1e-3, abs=1e-12)


class TestCurveCurvature:
    def test_circles(self):
        for radius, n in ((0.5, 400_000), (1.0, 800_000), (2.0, 3_000_000)):
            half = ball_arcs(LADDER[0], radius)
            arc = quadrature_arc(radius, -half, half, n)
            est = curve_curvature(arc, [radius, 0.0], LADDER)
            assert abs(est.kappa_abs - 1 / radius) <= 0.1 / radius

    def test_straight_segment(self):
        seg = quadrature_segment([-0.5, 0.0], [0.5, 0.0], 1e-4)
        est = curve_curvature(seg, [0.0, 0.0], LADDER)
        assert est.kappa_abs <= 0.05

    def test_halving_ladder_improves(self):
        # quadrature noise amplifies like sigma^-3 in the fit, so the atom
        # count scales accordingly to expose the shrinking truncation bias
        radius = 1.0
        errors = []
        for scale, n in ((1.0, 600_000), (0.5, 4_800_000)):
            ladder = [s * scale for s in LADDER]
            half = ball_arcs(ladder[0], radius)
            arc = quadrature_arc(radius, -half, half, n)
            est = curve_curvature(arc, [radius, 0.0], ladder)
            errors.append(abs(est.kappa_abs - 1.0))
        assert errors[1] < errors[0]

    def test_requires_three_scales(self):
        seg = quadrature_segment([0.0, 0.0], [1.0, 0.0], 0.01)
        with pytest.raises(ValueError, match="3 scales"):
            curve_curvature(seg, [0.5, 0.0], [0.05, 0.04])

    def test_full_small_scale_tensor_expansion(self):
        # on the curve y = k x^2/2 + ks x^3/6 (curvature k, curvature rate ks
        # at the origin), the tensor in the tangent/normal frame expands as
        #   [[2s/(3pi) - k^2 s^3/(20pi),  ks s^3/(15pi)],
        #    [ks s^3/(15pi),              k^2 s^3/(10pi)]] + O(s^4)
        k, ks = 1.0, 2.0
        dx = 1e-5
        xs = np.arange(-0.12, 0.12, dx) + dx / 2
        ys = 0.5 * k * xs**2 + ks / 6 * xs**3
        yp = k * xs + 0.5 * ks * xs**2
        m = WeightedMeasure(np.column_stack([xs, ys]), np.sqrt(1 + yp**2) * dx)
        kern = builtin_truncation()
        for sigma in (0.05, 0.04):
            t = ctf_at(m, kern, [0.0, 0.0], sigma).entries
            assert t[0, 0] == pytest.approx(
                2 * sigma / (3 * math.pi) - k**2 * sigma**3 / (20 * math.pi), rel=2e-3
            )
            assert t[0, 1] == pytest.approx(ks * sigma**3 / (15 * math.pi), rel=0.05)
            assert t[1, 1] == pytest.approx(k**2 * sigma**3 / (10 * math.pi), rel=0.02)


def cap_for_ladder(radius, ladder):
    aligns = [2.0 * math.asin(s / (2 * radius)) for s in ladder]
    theta_max = 1.6 * max(aligns)
    return quadrature_cap(radius, theta_max, 400, 2500, align_thetas=aligns)


class TestSurfaceCurvatures:
    def test_sphere(self):
        cap = cap_for_ladder(1.0, LADDER)
        est = surface_curvatures(cap, [0.0, 0.0, 1.0], LADDER)
        assert abs(est.kappa1 - 1.0) <= 0.15
        assert abs(est.kappa2 - 1.0) <= 0.15
        assert est.sign_ambiguity

    def test_plane(self):
        disk = quadrature_disk(0.08, 800, 600, align_radii=LADDER, dim=3)
        est = surface_curvatures(disk, [0.0, 0.0, 0.0], LADDER)
        assert abs(est.kappa1) <= 0.05
        assert abs(est.kappa2) <= 0.05

    def test_cylinder(self):
        # radius-1 cylinder along z: principal curvatures (1, 0)
        nth, nz = 2400, 2200
        th = -0.06 + (np.arange(nth) + 0.5) * (0.12 / nth)
        zz = -0.055 + (np.arange(nz) + 0.5) * (0.11 / nz)
        tt, zg = np.meshgrid(th, zz, indexing="ij")
        atoms = np.column_stack([np.cos(tt).ravel(), np.sin(tt).ravel(), zg.ravel()])
        w = np.full(atoms.shape[0], (0.12 / nth) * (0.11 / nz))
        cyl = WeightedMeasure(atoms, w)
        est = surface_curvatures(cyl, [1.0, 0.0, 0.0], LADDER)
        assert abs(est.kappa1 - 1.0) <= 0.15
        assert abs(est.kappa2) <= 0.15

    def test_ladder_validation(self):
        disk = quadrature_disk(0.1, 50, 40, dim=3)
        with pytest.raises(ValueError, match="3 scales"):
            surface_curvatures(disk, [0, 0, 0.0], [0.05, 0.04])


class TestTransferFunction:
    def test_at_zero(self):
        for d in (1, 2, 3):
            assert gaussian_transfer_hat(0.7, d, np.zeros(d)) == pytest.approx(d * 0.49, rel=1e-12)

    def test_vanishes_on_critical_sphere(self):
        for d in (1, 2, 3):
            xi = np.zeros(d)
            xi[0] = math.sqrt(math.pi * d) / 0.7
            assert abs(gaussian_transfer_hat(0.7, d, xi)) < 1e-14
            xi[0] *= 1.01
            assert gaussian_transfer_hat(0.7, d, xi) != 0.0

    def test_fft_oracle_1d(self):
        # numeric continuous transform of h_sigma at angular frequency
        # omega = xi / sqrt(pi) must match the closed form on the band
        sigma = 0.8
        n = 2**16
        length = 14 * sigma
        dx = 2 * length / n
        x = -length + dx * np.arange(n)
        h = x**2 / math.sqrt(2 * math.pi * sigma**2) * np.exp(-(x**2) / (2 * sigma**2))
        freqs = 2 * math.pi * np.fft.fftfreq(n, d=dx)
        transform = dx * np.exp(1j * freqs * length) * np.fft.fft(h)
        band = np.abs(freqs) <= 2.0 / sigma  # |xi| <= 2 sqrt(pi)/sigma
        xi = freqs[band] * math.sqrt(math.pi)
        closed = np.array([gaussian_transfer_hat(sigma, 1, [v]) for v in xi])
        assert np.abs(transform[band].real - closed).max() <= 1e-4
        # zero crossing bracketed within one frequency bin of sqrt(pi)/sigma
        order = np.argsort(xi)
        xs, cs = xi[order], transform[band].real[order]
        pos = xs > 0
        sign_flips = np.nonzero(np.diff(np.sign(cs[pos])))[0]
        assert sign_flips.size >= 1
        lo = xs[pos][sign_flips[0]]
        hi = xs[pos][sign_flips[0] + 1]
        assert lo <= math.sqrt(math.pi) / sigma <= hi

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            gaussian_transfer_hat(0.0, 2, [1.0, 0.0])


BAD_POSITIVE = [math.nan, math.inf, -math.inf, 0.0, -1.0]


@pytest.mark.parametrize("bad", BAD_POSITIVE)
def test_positivity_guards_reject_nan_inf_zero_negative(bad):
    """Every positive parameter rejects NaN, +-inf, 0 and -1 by name."""
    from covfields import check_stability_trunc, empirical_measure, truncation_stability_constant

    basis = np.array([[1.0, 0.0]])
    m = empirical_measure([[0.0, 0.0], [0.5, 0.0]])
    calls = {
        "sigma": [
            lambda s: subspace_tensor(2, 1, basis, "gaussian", s),
            lambda s: wedge_tensor([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], s),
            lambda s: circle_eigenvalues(1.0, 0.5, s),
            lambda s: sphere_eigenvalues(1.0, 0.5, s),
            lambda s: gaussian_transfer_hat(s, 2, [1.0, 0.0]),
            lambda s: truncation_stability_constant(s, 2, 1.0),
        ],
        "radius": [lambda x: circle_eigenvalues(x, 0.5, 1.0), lambda x: sphere_eigenvalues(x, 0.5, 1.0)],
        "c": [lambda x: truncation_stability_constant(0.5, 2, x)],
        "lam": [lambda x: check_stability_trunc(m, m, 0.5, 1.0, x, [[0.0, 0.0]])],
        "lengths": [lambda x: wedge_tensor([[1.0, 0.0], [0.0, 1.0]], [1.0, x], 0.5)],
    }
    for name, fns in calls.items():
        if name == "lengths" and bad == math.inf:
            continue  # an infinite segment is a ray: min(sigma, length) = sigma
        for fn in fns:
            with pytest.raises(ValueError, match=name):
                fn(bad)
    for bad_r in (math.nan, -math.inf, -1.0):
        for fn in (circle_eigenvalues, sphere_eigenvalues):
            with pytest.raises(ValueError, match="r must"):
                fn(1.0, bad_r, 0.5)

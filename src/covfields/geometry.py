"""Closed-form covariance tensors for canonical measures and curvature recovery.

Exact tensors are available for volume measures on linear subspaces, wedges
of segments, circles and spheres.  They serve as oracles for the empirical
evaluator and as the basis of small-scale curvature estimation: for the
truncation kernel, the trace of the tensor of an arc-length measure on a
plane curve expands as

    tr Sigma(x, sigma) = 2 sigma / (3 pi) + kappa^2 sigma^3 / (20 pi) + O(sigma^4),

and for a surface-area measure in R^3 the trace and determinant expand as

    tr  = (3/8) sigma + ((kappa1 - kappa2)^2 / 64) sigma^3 + O(sigma^4),
    det = (9/32768) (3 kappa1^2 + 2 kappa1 kappa2 + 3 kappa2^2) sigma^5 + O(sigma^6),

from which |kappa| resp. (kappa1, kappa2) are recovered up to a global sign
by least squares over a ladder of scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import CovTensor, ctf_at
from .kernels import _check_sigma, builtin_truncation, unit_ball_volume
from .measures import NumericalError, WeightedMeasure, _check_positive, _points

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _sin2_cosr_integral(r: int) -> float:
    """integral_{-pi/2}^{pi/2} sin^2(t) cos^r(t) dt = B(3/2, (r+1)/2)."""
    return math.sqrt(math.pi) / 2.0 * math.gamma((r + 1) / 2.0) / math.gamma((r + 4) / 2.0)


def subspace_tensor(d: int, r: int, basis, kernel_kind: str, sigma: float) -> CovTensor:
    """Tensor at a point of an r-dimensional subspace carrying its volume measure.

    The tensor is lambda * sum_i v_i v_i^T over the orthonormal basis; the
    orthogonal complement is the null space.  Per-direction eigenvalues:

      gaussian:    lambda = 1 / ((sqrt(2 pi))^{d-r} sigma^{d-r-2})
      truncation:  lambda = (nu_{r-1} / nu_d) B(3/2, (r+1)/2) / sigma^{d-r-2}

    (for r = 1, truncation reduces to 2 / (3 sigma^{d-3} nu_d)).
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if not (1 <= r <= d) or basis.shape != (r, d):
        raise ValueError("basis must be an (r, d) array with 1 <= r <= d")
    _check_sigma(sigma)
    gram = basis @ basis.T
    if np.abs(gram - np.eye(r)).max() > 1e-10:
        raise ValueError("basis must be orthonormal")
    if kernel_kind == "gaussian":
        lam = 1.0 / (SQRT_2PI ** (d - r) * sigma ** (d - r - 2))
    elif kernel_kind == "truncation":
        lam = (
            unit_ball_volume(r - 1)
            / unit_ball_volume(d)
            * _sin2_cosr_integral(r)
            / sigma ** (d - r - 2)
        )
    else:
        raise ValueError("kernel_kind must be 'gaussian' or 'truncation'")
    return CovTensor(lam * basis.T @ basis)


def wedge_tensor(directions, lengths, sigma: float) -> CovTensor:
    """Truncation-kernel tensor at the common endpoint of a wedge of segments.

    Each segment of length l_i along unit direction v_i contributes
    min(sigma, l_i)^3 / (3 sigma^d nu_d) * v_i v_i^T; for sigma below every
    length this is (1 / (3 sigma^{d-3} nu_d)) sum_i v_i v_i^T.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    lens = np.asarray(lengths, dtype=float).ravel()
    n, d = dirs.shape
    if lens.shape[0] != n:
        raise ValueError("one length per direction required")
    if not (lens > 0).all():
        raise ValueError("lengths must be positive")
    _check_sigma(sigma)
    norms = np.linalg.norm(dirs, axis=1)
    if np.abs(norms - 1.0).max() > 1e-10:
        raise ValueError("directions must be unit vectors")
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(dirs[i] - dirs[j]) <= 1e-12:
                raise ValueError("directions must be pairwise distinct")
    caps = np.minimum(sigma, lens) ** 3
    m = (dirs * caps[:, None]).T @ dirs / (3.0 * sigma**d * unit_ball_volume(d))
    return CovTensor(m)


def _cap_angle(radius: float, r: float, sigma: float) -> float | None:
    """phi = arccos((R^2 + r^2 - sigma^2) / (2 r R)), the half-angle of the part of the radius-R
    circle or sphere within sigma of a point at distance r from its centre; None if |r - R| > sigma."""
    _check_sigma(sigma)
    _check_positive("radius", radius)
    if not r >= 0:
        raise ValueError(f"r must be non-negative, got {r!r}")
    if abs(r - radius) > sigma:
        return None
    if r == 0.0:
        raise NumericalError("angle undefined at the center with R <= sigma")
    arg = (radius**2 + r**2 - sigma**2) / (2.0 * r * radius)
    return math.acos(min(1.0, max(-1.0, arg)))


def circle_eigenvalues(radius: float, r: float, sigma: float) -> tuple[float, float]:
    """Normal and tangential eigenvalues of the circle's arc-length tensor.

    For the truncation kernel at a point x with r = ||x||, the tensor is
    diagonal in the (normal, tangent) frame n = x/||x||, t = n^perp with

      lambda_n = [R phi (R^2 + 2 r^2) + R^2 (R cos phi - 4 r) sin phi] / (pi sigma^2)
      lambda_t = R^3 (phi - sin phi cos phi) / (pi sigma^2),

    phi = arccos((R^2 + r^2 - sigma^2) / (2 r R)), and vanishes when
    |r - R| > sigma.  Returns (lambda_n, lambda_t).
    """
    phi = _cap_angle(radius, r, sigma)
    if phi is None:
        return 0.0, 0.0
    s, c = math.sin(phi), math.cos(phi)
    lam_t = radius**3 / (math.pi * sigma**2) * (phi - s * c)
    lam_n = (
        radius * phi * (radius**2 + 2.0 * r**2) + radius**2 * (radius * c - 4.0 * r) * s
    ) / (math.pi * sigma**2)
    return lam_n, lam_t


def sphere_eigenvalues(radius: float, r: float, sigma: float) -> tuple[float, float, float]:
    """Eigenvalues of the sphere's surface-area tensor under the truncation kernel.

    In the frame (t1, t2, n) at a point x with r = ||x||,

      lambda_t = (R^4 / sigma^3) sin^4(phi/2) (cos phi + 2)   (multiplicity 2)
      lambda_n = (R / (2 sigma^3)) ((R - r)^3 - (R cos phi - r)^3),

    phi as for the circle; the tensor vanishes when |r - R| > sigma.
    Returns (lambda_t, lambda_t, lambda_n).
    """
    phi = _cap_angle(radius, r, sigma)
    if phi is None:
        return 0.0, 0.0, 0.0
    c = math.cos(phi)
    lam_t = radius**4 / sigma**3 * math.sin(phi / 2.0) ** 4 * (c + 2.0)
    lam_n = radius / (2.0 * sigma**3) * ((radius - r) ** 3 - (radius * c - r) ** 3)
    return lam_t, lam_t, lam_n


def circle_tensor(radius: float, x, sigma: float) -> CovTensor:
    """Assemble the circle's closed-form tensor at a point of R^2."""
    x = _points(np.reshape(x, (1, -1)), 2)[0]
    r = float(np.linalg.norm(x))
    lam_n, lam_t = circle_eigenvalues(radius, r, sigma)
    if lam_n == 0.0 and lam_t == 0.0:
        return CovTensor(np.zeros((2, 2)))
    n = x / r
    t = np.array([-n[1], n[0]])
    return CovTensor(lam_n * np.outer(n, n) + lam_t * np.outer(t, t))


# ---------------------------------------------------------------------------
# curvature recovery from small-scale spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveCurvatureEstimate:
    """|kappa| of a plane curve fitted from traces over a scale ladder."""

    point: np.ndarray
    sigma_ladder: np.ndarray
    kappa_abs: float
    residual: float
    clamped: bool  # fitted kappa^2 was negative and clamped to 0


@dataclass(frozen=True)
class SurfaceCurvatureEstimate:
    """Principal curvatures of a surface in R^3, up to a common sign.

    kappa1 >= kappa2 and kappa1 + kappa2 >= 0 by convention;
    ``sign_ambiguity`` records that (-kappa1, -kappa2) fits equally well.
    """

    point: np.ndarray
    sigma_ladder: np.ndarray
    kappa1: float
    kappa2: float
    sign_ambiguity: bool
    residual_trace: float
    residual_det: float


def _ladder_tensors(measure: WeightedMeasure, x, sigma_ladder, d: int, what: str):
    """(x, the ladder sorted descending, the truncation tensor at x per scale) in R^d."""
    ladder = np.sort(np.asarray(sigma_ladder, dtype=float))[::-1]
    if np.unique(ladder).size < 3:
        raise ValueError("sigma ladder needs at least 3 scales, all distinct")
    if measure.dim != d:
        raise ValueError(f"{what} requires dim {d}")
    x = _points(np.reshape(x, (1, -1)), d)[0]
    return x, ladder, [ctf_at(measure, builtin_truncation(), x, s) for s in ladder]


def _through_origin(x, y, floor: float = -math.inf) -> tuple[float, float]:
    """The least-squares slope b of y = b x and the RMS residual of y - max(b, floor) x."""
    b = float(x @ y / (x @ x))
    return b, float(np.sqrt(np.mean((y - max(b, floor) * x) ** 2)))


def curve_curvature(
    measure: WeightedMeasure,
    x_on_curve,
    sigma_ladder,
) -> CurveCurvatureEstimate:
    """Estimate |kappa| of a plane curve at a point from its arc-length measure.

    Computes tr Sigma(x, sigma) under the truncation kernel for each ladder
    scale and fits tr - 2 sigma/(3 pi) = kappa^2 sigma^3/(20 pi) by least
    squares in the single unknown kappa^2; the ladder (>= 3 distinct
    scales) suppresses the O(sigma^4) remainder.  A negative fit is clamped
    to zero and flagged.
    """
    x, ladder, tensors = _ladder_tensors(measure, x_on_curve, sigma_ladder, 2, "plane-curve curvature")
    yv = np.array([t.trace for t in tensors]) - 2.0 * ladder / (3.0 * math.pi)
    k2, residual = _through_origin(ladder**3 / (20.0 * math.pi), yv, floor=0.0)
    return CurveCurvatureEstimate(x, ladder, math.sqrt(max(k2, 0.0)), residual, k2 < 0.0)


def surface_curvatures(
    measure: WeightedMeasure,
    p_on_surface,
    sigma_ladder,
) -> SurfaceCurvatureEstimate:
    """Estimate principal curvatures of a surface in R^3 at a point.

    Under the truncation kernel, fits s = (kappa1 - kappa2)^2 from the
    trace expansion and q = 3 kappa1^2 + 2 kappa1 kappa2 + 3 kappa2^2 from
    the determinant expansion over the ladder, then solves
    kappa1 kappa2 = (q - 3 s)/8 and (kappa1 + kappa2)^2 = s + 4 kappa1 kappa2,
    returning the branch with kappa1 + kappa2 >= 0.  Umbilic points (s ~ 0)
    resolve smoothly to kappa1 = kappa2 = sqrt(q/8).  Raises
    :class:`NumericalError` when the two fits are inconsistent
    ((kappa1+kappa2)^2 fitted below -5% of its scale).
    """
    p, ladder, tensors = _ladder_tensors(measure, p_on_surface, sigma_ladder, 3, "surface curvature")
    traces = np.array([t.trace for t in tensors])
    dets = np.array([np.linalg.det(t.entries) for t in tensors])
    s_fit, res_t = _through_origin(ladder**3 / 64.0, traces - 3.0 * ladder / 8.0)
    q_fit, res_d = _through_origin(9.0 * ladder**5 / 32768.0, dets)
    s_clamped = max(s_fit, 0.0)
    prod = (q_fit - 3.0 * s_clamped) / 8.0
    sum_sq = s_clamped + 4.0 * prod
    # flat or near-flat data legitimately fits to ~0 with sign noise, so the
    # inconsistency threshold carries an absolute floor of one curvature unit
    scale = max(1.0, abs(s_clamped) + abs(4.0 * prod))
    if sum_sq < -0.05 * scale:
        raise NumericalError(
            f"inconsistent curvature fit: (kappa1+kappa2)^2 = {sum_sq:.3e} < 0"
        )
    k_sum = math.sqrt(max(sum_sq, 0.0))
    k_diff = math.sqrt(s_clamped)
    k1 = 0.5 * (k_sum + k_diff)
    k2 = 0.5 * (k_sum - k_diff)
    return SurfaceCurvatureEstimate(p, ladder, k1, k2, True, res_t, res_d)


def gaussian_transfer_hat(sigma: float, d: int, xi) -> float:
    """Fourier transfer function of the Gaussian-kernel Fréchet transform.

    The Fréchet field of the Gaussian kernel is the convolution of the
    measure with h_sigma(x) = ||x||^2 (2 pi sigma^2)^{-d/2} exp(-||x||^2/2 sigma^2);
    this evaluates the associated transfer factor

        sigma^2 (d - sigma^2 ||xi||^2 / pi) exp(-sigma^2 ||xi||^2 / (2 pi)),

    which vanishes exactly on the sphere ||xi|| = sqrt(pi d) / sigma — the
    only frequencies where the measure cannot be recovered directly.
    """
    _check_sigma(sigma)
    xi = np.asarray(xi, dtype=float)
    n2 = float(np.sum(xi * xi))
    return sigma**2 * (d - sigma**2 * n2 / math.pi) * math.exp(-(sigma**2) * n2 / (2.0 * math.pi))

"""Radial multiscale kernels and their derived constants.

A kernel is built from a radial profile f on [0, inf) applied to the
squared distance ratio:

    K(x, y, sigma) = f(||y - x||^2 / sigma^2) / C_d(sigma),
    C_d(sigma) = (1/2) sigma^d M_d omega_{d-1},
    M_d = integral_0^inf r^{d/2 - 1} f(r) dr,

which normalizes K to unit integral over R^d.  The profile must be
non-negative, have finite M_d, and satisfy r f(r) <= C; profiles are stored
with sup f = 1.  The constants A1 = sup r^{3/2} |f'(r)| and
A2 = sup sqrt(r) f(r) control the Lipschitz modulus of z -> (z (x) z) K(z)
through A_f = 2 (A1 + A2); kernels that carry a finite A1 are eligible
for the smooth-kernel stability certificates in :mod:`covfields.transport`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .measures import _points


def _check_sigma(sigma: float) -> None:
    """Require sigma > 0 with sigma^2 a finite, normal float (kernels divide by sigma^2)."""
    s = float(sigma)
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
    if not sys.float_info.min <= s * s <= sys.float_info.max:
        raise ValueError(f"sigma^2 must be a finite, normal float, got sigma={sigma!r}")


def _normalizer(sigma: float, d: int, m_d: float) -> float:
    """C_d(sigma) = (1/2) sigma^d M_d omega_{d-1}, required finite and non-zero with its inverse."""
    _check_sigma(sigma)
    try:
        c = 0.5 * float(sigma) ** d * m_d * unit_sphere_area(d)
    except OverflowError:
        c = math.inf
    if not (0.0 < c < math.inf and 1.0 / c < math.inf):
        raise ValueError(f"sigma={sigma!r} puts C_{d}(sigma) = {c!r} or its inverse outside the float range")
    return c


def unit_ball_volume(d: int) -> float:
    """Volume nu_d of the unit ball in R^d; nu_0 = 1 by convention."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def unit_sphere_area(d: int) -> float:
    """Area omega_{d-1} of the unit sphere in R^d: 2 pi^{d/2} / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class RadialKernel:
    """Radial profile and its exact constants.

    ``profile`` acts elementwise on numpy arrays of the squared distance
    ratio r = ||y-x||^2 / sigma^2.
    ``compact_support_radius_sq`` is the r beyond which f vanishes (None for
    full support).  ``analytic`` carries the kernel's constants: "M_d" (a
    callable of d), "C" and "A2", "A1" when f is differentiable, and
    "flat": True when f = 1 on all of [0, compact_support_radius_sq].
    Nothing is integrated or searched numerically: a constant that is
    needed but missing raises ValueError naming it.
    Kernels are immutable; evaluation is pure and reentrant.
    """

    name: str
    profile: Callable[[np.ndarray], np.ndarray]
    compact_support_radius_sq: Optional[float] = None
    analytic: dict = field(default_factory=dict, repr=False)

    def moment(self, d: int) -> float:
        """M_d = integral_0^inf r^{d/2-1} f(r) dr, from ``analytic["M_d"]``."""
        return float(self._constant("M_d")(d))

    def _constant(self, key: str):
        """``analytic[key]``; ValueError naming the kernel and the key if it is missing."""
        if key not in self.analytic:
            raise ValueError(f"kernel {self.name!r} carries no constant {key!r}")
        return self.analytic[key]

    def normalizer(self, sigma: float, d: int) -> float:
        """C_d(sigma) = (1/2) sigma^d M_d omega_{d-1}.

        Raises ValueError unless sigma > 0, sigma^2 is a finite normal float
        and C_d(sigma) and 1 / C_d(sigma) are finite and non-zero.
        """
        return _normalizer(sigma, d, self.moment(d))


def builtin_gaussian() -> RadialKernel:
    """Isotropic Gaussian kernel, profile f(r) = exp(-r/2).

    The normalized kernel equals (2 pi sigma^2)^{-d/2} exp(-||y-x||^2 / 2 sigma^2)
    in every dimension.  Exact constants: M_d = 2^{d/2} Gamma(d/2),
    C = 2/e, A1 = (1/2) 3^{3/2} e^{-3/2}, A2 = e^{-1/2}.
    """
    return RadialKernel(
        name="gaussian",
        profile=lambda r: np.exp(-0.5 * np.asarray(r, dtype=float)),
        compact_support_radius_sq=None,
        analytic={
            "M_d": lambda d: 2.0 ** (d / 2.0) * math.gamma(d / 2.0),
            "C": 2.0 / math.e,
            "A1": 0.5 * 3.0**1.5 * math.exp(-1.5),
            "A2": math.exp(-0.5),
        },
    )


def builtin_truncation() -> RadialKernel:
    """Truncation kernel: uniform weight 1/(sigma^d nu_d) on the closed ball.

    Profile is the indicator of [0, 1] in the squared distance ratio, so
    atoms exactly on the boundary ||y-x|| = sigma are included.  Not
    differentiable, hence ineligible for smooth-kernel stability bounds.
    Exact constants: M_d = 2/d, C = 1, A2 = 1.
    """
    def chi(r):
        return (np.asarray(r, dtype=float) <= 1.0).astype(float)

    return RadialKernel(
        name="truncation",
        profile=chi,
        compact_support_radius_sq=1.0,
        analytic={"M_d": lambda d: 2.0 / d, "C": 1.0, "A2": 1.0, "flat": True},
    )


def tabulated_kernel(r_knots, f_values) -> RadialKernel:
    """Kernel named ``"tabulated"`` from (r, f(r)) samples with linear interpolation.

    This is an approximation of the underlying profile; f' is undefined at
    the knots, so tabulated kernels are excluded from smooth-stability
    checks.  Values are rescaled so sup f = 1, and the profile is zero
    beyond the last knot, so tabulated kernels are always compactly
    supported.  M_d, C and A2 of the interpolant are exact closed forms.
    """
    r_knots = np.asarray(r_knots, dtype=float).ravel()
    f_values = np.asarray(f_values, dtype=float).ravel()
    if r_knots.shape != f_values.shape or r_knots.size < 2:
        raise ValueError("need matching r/f arrays with at least 2 knots")
    if not (np.isfinite(r_knots).all() and np.isfinite(f_values).all()):
        raise ValueError("r knots and profile values must be finite")
    if np.any(np.diff(r_knots) <= 0):
        raise ValueError("r knots must be strictly increasing")
    if np.any(f_values < 0):
        raise ValueError("profile values must be non-negative")
    peak = f_values.max()
    if peak <= 0:
        raise ValueError("profile must be positive somewhere")
    f_values = f_values / peak
    support = float(r_knots[-1])

    def prof(r):
        r = np.asarray(r, dtype=float)
        vals = np.interp(r, r_knots, f_values, left=f_values[0], right=0.0)
        return np.where(r > support, 0.0, vals)

    # f = a + b r on each knot interval
    b = np.diff(f_values) / np.diff(r_knots)
    a = f_values[:-1] - b * r_knots[:-1]

    def piecewise_moment(d: int) -> float:
        # exact integral of r^{d/2-1} (a + b r) over each knot interval
        total = 0.0
        p = d / 2.0
        for r1, r2, ai, bi in zip(r_knots[:-1], r_knots[1:], a, b):
            total += ai * (r2**p - r1**p) / p + bi * (r2 ** (p + 1) - r1 ** (p + 1)) / (p + 1)
        if r_knots[0] > 0:  # constant head segment at f_values[0]
            total += f_values[0] * r_knots[0] ** p / p
        return total

    # r f(r) and sqrt(r) f(r) rise on the constant head and vanish on the
    # tail, so their sups lie at a knot or where (a r + b r^2)' = 0, resp.
    # (a sqrt(r) + b r^{3/2})' = 0: r = -a/(2b), resp. -a/(3b).  Each finite
    # r >= 0 gives a value the function takes, so no candidate overshoots.
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.concatenate([r_knots, -a / (2.0 * b), -a / (3.0 * b)])
    r = r[np.isfinite(r) & (r >= 0)]
    f = prof(r)

    return RadialKernel(
        name="tabulated",
        profile=prof,
        compact_support_radius_sq=support,
        analytic={
            "M_d": piecewise_moment,
            "C": float((r * f).max()),
            "A2": float((np.sqrt(r) * f).max()),
        },
    )


def load_profile_csv(path) -> RadialKernel:
    """Read a two-column CSV of (r, f(r)) samples into a tabulated kernel."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return tabulated_kernel(data[:, 0], data[:, 1])


def kernel_by_name(name: str) -> RadialKernel:
    if name == "gaussian":
        return builtin_gaussian()
    if name == "truncation":
        return builtin_truncation()
    raise ValueError(f"unknown kernel: {name!r} (expected 'gaussian' or 'truncation')")


def eval_kernel(kernel: RadialKernel, x, y, sigma: float) -> float:
    """K(x, y, sigma) = f(||y-x||^2 / sigma^2) / C_d(sigma); y must have x's dimension."""
    x = _points(np.reshape(x, (1, -1)), np.size(x))[0]
    y = _points(np.reshape(y, (1, -1)), x.size)[0]
    c_d = kernel.normalizer(sigma, x.size)
    r = float(np.sum((y - x) ** 2)) / (sigma * sigma)
    return float(kernel.profile(np.asarray(r))) / c_d


@dataclass(frozen=True)
class KernelConstants:
    """Derived constants of a kernel in a fixed dimension.

    ``c_d`` evaluates the normalizer C_d(sigma); ``a_f`` = 2 (a1 + a2) is the
    Lipschitz constant used by smooth-kernel stability bounds, infinite when
    the kernel carries no finite A1.
    """

    dim: int
    m_d: float
    c: float
    a1: float
    a2: float
    smooth_stability_eligible: bool

    @property
    def a_f(self) -> float:
        return 2.0 * (self.a1 + self.a2)

    def c_d(self, sigma: float) -> float:
        return _normalizer(sigma, self.dim, self.m_d)


def derive_constants(kernel: RadialKernel, d: int) -> KernelConstants:
    """Read M_d, C, A1, A2 from the kernel's ``analytic`` constants.

    A missing A1 reads as infinite.  A kernel is flagged
    smooth-stability-eligible iff its A1 = sup r^{3/2} |f'(r)| is finite.
    Any other missing constant raises ValueError naming it.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    a1 = float(kernel.analytic.get("A1", math.inf))
    return KernelConstants(
        dim=d,
        m_d=kernel.moment(d),
        c=float(kernel._constant("C")),
        a1=a1,
        a2=float(kernel._constant("A2")),
        smooth_stability_eligible=math.isfinite(a1),
    )


def q_tensor(kernel: RadialKernel, z, sigma: float) -> np.ndarray:
    """The tensor map Q_sigma(z) = (z (x) z) K(z, 0, sigma)."""
    z = _points(np.reshape(z, (1, -1)), np.size(z))[0]
    k = eval_kernel(kernel, np.zeros_like(z), z, sigma)
    return np.outer(z, z) * k

"""Covariance tensor fields and Fréchet functions of weighted measures.

The field of a measure alpha at scale sigma assigns to each point x the
kernel-weighted covariance about x,

    Sigma(x, sigma) = sum_i w_i (y_i - x)(y_i - x)^T K(x, y_i, sigma),

a symmetric positive semi-definite d x d tensor.  The Fréchet value
V(x, sigma) = sum_i w_i ||y_i - x||^2 K(x, y_i, sigma) equals the trace of
the tensor.  Every tensor comes from one blocked accumulator in
:func:`ctf_grid`: atoms sorted by their first coordinate, each query
scanning only the slab that can reach its kernel support; measures and
kernels are immutable during evaluation and every query is independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import RadialKernel
from .measures import NumericalError, WeightedMeasure, write_csv

SYM_TOL = 1e-12
# (queries x atoms) pairs evaluated per block of ctf_grid
_PAIR_BUDGET = 1 << 16


@dataclass(frozen=True)
class CovTensor:
    """Symmetric PSD d x d covariance tensor with a spectrum accessor."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        scale = max(1.0, float(np.linalg.norm(m)))
        if np.abs(m - m.T).max() > SYM_TOL * scale:
            raise ValueError("entries must be symmetric")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))

    def norm(self) -> float:
        """Frobenius norm (the norm induced by <x1 (x) y1, x2 (x) y2>)."""
        return float(np.linalg.norm(self.entries))

    def spectrum(self) -> "SpectrumSummary":
        return spectrum(self)


@dataclass(frozen=True)
class SpectrumSummary:
    """Eigenvalues (ascending), orthonormal eigenvectors, trace, ratios."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    trace: float
    anisotropy_ratios: np.ndarray


def spectrum(t: CovTensor | np.ndarray) -> SpectrumSummary:
    """Eigen-decomposition of a covariance tensor.

    Eigenvalues are sorted ascending; each eigenvector column is normalized
    so its first component of magnitude > 1e-12 is positive.  Ratios are
    lambda_i / lambda_d for i < d (zeros for the zero tensor).
    """
    m = t.entries if isinstance(t, CovTensor) else np.asarray(t, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    top = vals[-1]
    if top > 0:
        ratios = vals[:-1] / top
    else:
        ratios = np.zeros(len(vals) - 1)
    return SpectrumSummary(vals, vecs, float(vals.sum()), ratios)


def dimension_estimate(s: SpectrumSummary, threshold: float = 0.5) -> int:
    """Number of eigenvalues within a factor ``threshold`` of the largest.

    Counts eigenvalues with lambda_i / lambda_max > threshold (the largest
    counts itself); returns 0 for the zero tensor.
    """
    lam = s.eigenvalues
    top = lam[-1]
    if top <= 0:
        return 0
    return int(np.sum(lam / top > threshold))


def ctf_at(measure: WeightedMeasure, kernel: RadialKernel, x, sigma: float) -> CovTensor:
    """Covariance tensor of the measure about x at scale sigma.

    A one-point :func:`ctf_grid`; the zero tensor when no atom has positive
    kernel weight (e.g. an isolated query under the truncation kernel).
    """
    return CovTensor(ctf_grid(measure, kernel, np.reshape(x, (1, -1)), sigma).tensors[0])


def frechet_value(measure: WeightedMeasure, kernel: RadialKernel, x, sigma: float) -> float:
    """Multiscale Fréchet value: sum_i w_i ||y_i - x||^2 K(x, y_i, sigma).

    Computed as a direct weighted sum (not via the tensor trace), so the
    trace identity V = tr Sigma is a genuine cross-check.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != measure.dim:
        raise ValueError(f"dimension mismatch: measure dim {measure.dim}, point dim {x.size}")
    c_d = kernel.normalizer(sigma, measure.dim)
    diff = measure.atoms - x
    r2 = np.einsum("ij,ij->i", diff, diff)
    vals = measure.weights * r2 * (kernel.profile(r2 / (sigma * sigma)) / c_d)
    return float(vals.sum())


@dataclass(frozen=True)
class FieldGrid:
    """Covariance tensors and Fréchet values over a list of query points."""

    query_points: np.ndarray
    sigma: float
    tensors: np.ndarray  # (m, d, d)
    frechet_values: np.ndarray  # (m,), filled as tensor traces

    def save_csv(self, path) -> None:
        """Rows: x_1..x_d, sigma, upper-triangle entries, V, eigenvalues."""
        m, d = self.query_points.shape
        iu = np.triu_indices(d)
        header = (
            [f"x_{i + 1}" for i in range(d)]
            + ["sigma"]
            + [f"S_{i + 1}{j + 1}" for i, j in zip(*iu)]
            + ["V"]
            + [f"lambda_{i + 1}" for i in range(d)]
        )
        columns = [
            *self.query_points.T,
            np.full(m, self.sigma, dtype=float),
            *self.tensors[:, iu[0], iu[1]].T,
            self.frechet_values,
            *np.linalg.eigvalsh(self.tensors).T,
        ]
        write_csv(path, header, columns)


def ctf_grid(
    measure: WeightedMeasure,
    kernel: RadialKernel,
    query_points,
    sigma: float,
    acceleration: str = "exact",
) -> FieldGrid:
    """Evaluate the covariance field at many query points.

    Atoms sorted by their first coordinate put the atoms a query can reach
    (|y_1 - x_1| <= sigma sqrt(css), css the kernel's support radius
    squared; all atoms for full support) in one contiguous slab.  Queries
    sorted the same way go in blocks of one query or of at most
    ``_PAIR_BUDGET`` (query, slab atom) pairs, each one batched product; an
    atom counts iff ||y - x||^2 <= css sigma^2.  ``acceleration`` selects
    no code, and ``"indexed"`` requires a compactly supported kernel.
    """
    d = measure.dim
    pts = np.atleast_2d(np.asarray(query_points, dtype=float))
    if pts.shape[1] == 0:  # [] names no points and no dimension
        pts = pts.reshape(0, d)
    if pts.shape[1] != d:
        raise ValueError(f"dimension mismatch: measure dim {d}, points dim {pts.shape[1]}")
    if acceleration not in ("exact", "indexed"):
        raise ValueError("acceleration must be 'exact' or 'indexed'")
    css = kernel.compact_support_radius_sq
    if acceleration == "indexed" and css is None:
        raise ValueError("indexed acceleration requires a compactly supported kernel")
    if not np.all(np.isfinite(pts)):
        raise ValueError("query points must be finite")
    c_d = kernel.normalizer(sigma, d)
    r2cap = math.inf if css is None else css * sigma * sigma
    if css is not None and len(pts) > 1:
        order = np.argsort(measure.atoms[:, 0], kind="stable")
        reach = math.sqrt(r2cap) * (1.0 + 1e-9)
    else:  # the sort cannot narrow anything: every slab is all atoms
        order, reach = slice(None), math.inf
    atoms = measure.atoms[order]
    weights = measure.weights[order] / c_d
    q_order = np.argsort(pts[:, 0], kind="stable")
    q = pts[q_order]
    # bounds of +-inf give 0 and n whether or not the atoms are sorted
    lo = np.searchsorted(atoms[:, 0], q[:, 0] - reach, side="left")
    hi = np.searchsorted(atoms[:, 0], q[:, 0] + reach, side="right")
    tensors = np.empty((len(q), d, d))
    start = 0
    while start < len(q):
        stop = start + 1
        while stop < len(q) and (stop + 1 - start) * (hi[stop] - lo[start]) <= _PAIR_BUDGET:
            stop += 1
        a, b = lo[start], hi[stop - 1]
        diff = atoms[None, a:b, :] - q[start:stop, None, :]
        r2 = np.einsum("bkd,bkd->bk", diff, diff)
        w = weights[a:b] * kernel.profile(r2 / (sigma * sigma)) * (r2 <= r2cap)
        tensors[q_order[start:stop]] = np.matmul(np.swapaxes(diff * w[..., None], 1, 2), diff)
        start = stop
    tensors = 0.5 * (tensors + np.transpose(tensors, (0, 2, 1)))
    traces = np.trace(tensors, axis1=1, axis2=2)
    return FieldGrid(pts, sigma, tensors, traces)


def frechet_gradient(
    measure: WeightedMeasure,
    kernel: RadialKernel,
    x,
    sigma: float,
    mode: str = "analytic_gaussian",
    step: float = 1e-5,
) -> np.ndarray:
    """Gradient of the Fréchet function at x.

    ``analytic_gaussian`` differentiates the Gaussian convolution form
    termwise: grad V = sum_i w_i G(x, y_i, sigma) (y_i - x)(r_i^2/sigma^2 - 2)
    with r_i = ||y_i - x||.  ``central_difference`` uses symmetric
    differences with the given step and works for any kernel; the two agree
    to O(step^2) for the Gaussian.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != measure.dim:
        raise ValueError("dimension mismatch")
    if mode == "analytic_gaussian":
        if kernel.name != "gaussian":
            raise ValueError("analytic gradient is only available for the gaussian kernel")
        c_d = kernel.normalizer(sigma, measure.dim)
        diff = measure.atoms - x
        r2 = np.einsum("ij,ij->i", diff, diff)
        g = kernel.profile(r2 / (sigma * sigma)) / c_d
        coeff = measure.weights * g * (r2 / (sigma * sigma) - 2.0)
        return diff.T @ coeff
    if mode == "central_difference":
        grad = np.zeros_like(x)
        for k in range(x.size):
            e = np.zeros_like(x)
            e[k] = step
            grad[k] = (
                frechet_value(measure, kernel, x + e, sigma)
                - frechet_value(measure, kernel, x - e, sigma)
            ) / (2.0 * step)
        return grad
    raise ValueError("mode must be 'analytic_gaussian' or 'central_difference'")


@dataclass
class FlowParams:
    """Defaults for the negative-gradient flow of the Fréchet function."""

    initial_step: float | None = None  # defaults to sigma / 10
    shrink: float = 0.5
    grad_tol: float = 1e-8  # on ||grad V|| relative to max(1, V)
    max_iter: int = 10000
    merge_radius: float | None = None  # defaults to sigma / 100
    armijo: float = 1e-4


@dataclass
class FlowResult:
    start: np.ndarray
    attractor: np.ndarray
    path: np.ndarray
    converged: bool
    basin_id: int = -1


def flow_to_attractor(
    measure: WeightedMeasure,
    kernel: RadialKernel,
    start,
    sigma: float,
    params: FlowParams | None = None,
) -> FlowResult:
    """Descend the Fréchet function from ``start`` by backtracking line search.

    Terminates when ||grad V|| < tol * max(1, V) or after max_iter steps;
    non-convergence is reported in the result flag, never raised.  Requires
    the Gaussian kernel (a smooth V).
    """
    if kernel.name != "gaussian":
        raise ValueError("gradient flow requires the gaussian kernel")
    p = params or FlowParams()
    step0 = p.initial_step if p.initial_step is not None else sigma / 10.0
    x = np.asarray(start, dtype=float).ravel().copy()
    path = [x.copy()]
    converged = False
    for _ in range(p.max_iter):
        v = frechet_value(measure, kernel, x, sigma)
        g = frechet_gradient(measure, kernel, x, sigma)
        gn = float(np.linalg.norm(g))
        if gn < p.grad_tol * max(1.0, v):
            converged = True
            break
        direction = -g / gn
        t = step0
        moved = False
        while t > 1e-15 * step0:
            cand = x + t * direction
            if frechet_value(measure, kernel, cand, sigma) <= v - p.armijo * t * gn:
                x = cand
                path.append(x.copy())
                moved = True
                break
            t *= p.shrink
        if not moved:
            # no descent direction at line-search resolution: treat as converged
            converged = True
            break
    return FlowResult(np.asarray(start, dtype=float), x, np.asarray(path), converged)


def basin_labels(
    measure: WeightedMeasure,
    kernel: RadialKernel,
    starts,
    sigma: float,
    params: FlowParams | None = None,
) -> tuple[np.ndarray, np.ndarray, list[FlowResult]]:
    """Flow every start to its attractor and group attractors into basins.

    Attractors closer than the merge radius (default sigma/100) are
    identified.  Returns (labels, attractor positions, flow results) with
    results ordered as the inputs.
    """
    p = params or FlowParams()
    merge_r = p.merge_radius if p.merge_radius is not None else sigma / 100.0
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    results = [flow_to_attractor(measure, kernel, s, sigma, params) for s in starts]
    reps: list[np.ndarray] = []
    labels = np.empty(len(results), dtype=np.int64)
    for i, res in enumerate(results):
        for j, r in enumerate(reps):
            if np.linalg.norm(res.attractor - r) <= merge_r:
                labels[i] = j
                break
        else:
            reps.append(res.attractor)
            labels[i] = len(reps) - 1
        res.basin_id = int(labels[i])
    return labels, np.asarray(reps), results

"""Output checks computed apart from covfields, with numpy and scipy only.

Each reference here is written from the definitions (the closed-ball and
Gaussian kernels, the assignment form of W1 for equal-size uniform
measures, bottleneck matching for W-infinity, scipy's single linkage) and
shares no code with the package under test.  The workloads compare the
package's outputs against them outside the timed region.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.cluster.hierarchy import cophenet, fcluster, linkage
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial.distance import cdist, squareform


# ---------------------------------------------------------------------------
# covariance tensors and the Fréchet function
# ---------------------------------------------------------------------------

def _gaussian(r2, sigma: float, d: int):
    """Normalized Gaussian (2 pi sigma^2)^(-d/2) exp(-r2 / 2 sigma^2)."""
    return np.exp(-0.5 * r2 / (sigma * sigma)) / (2.0 * math.pi * sigma * sigma) ** (d / 2.0)


def closed_ball_tensors(atoms, weights, queries, sigma) -> np.ndarray:
    """Sum of w (y-x)(y-x)^T / (nu_d sigma^d) over atoms with ||y-x||^2 <= sigma^2.

    Atoms are sorted by their first coordinate so that each query scans only
    the slab |y_1 - x_1| <= sigma (widened by 1e-12 against rounding); the
    closed-ball test itself is the exact squared-distance comparison.
    """
    atoms, weights, queries = map(np.asarray, (atoms, weights, queries))
    d = atoms.shape[1]
    norm = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * sigma**d
    order = np.argsort(atoms[:, 0], kind="stable")
    atoms, weights = atoms[order], weights[order] / norm
    lo = np.searchsorted(atoms[:, 0], queries[:, 0] - sigma * (1.0 + 1e-12), side="left")
    hi = np.searchsorted(atoms[:, 0], queries[:, 0] + sigma * (1.0 + 1e-12), side="right")
    out = np.zeros((len(queries), d, d))
    for k, x in enumerate(queries):
        diff = atoms[lo[k]:hi[k]] - x
        keep = (diff * diff).sum(axis=1) <= sigma * sigma
        diff = diff[keep]
        out[k] = (diff * weights[lo[k]:hi[k]][keep][:, None]).T @ diff
    return out


def gaussian_tensors(atoms, weights, queries, sigma) -> np.ndarray:
    """Sum of w (y-x)(y-x)^T (2 pi sigma^2)^(-d/2) exp(-||y-x||^2 / 2 sigma^2)."""
    atoms, weights, queries = map(np.asarray, (atoms, weights, queries))
    d = atoms.shape[1]
    out = np.zeros((len(queries), d, d))
    for k, x in enumerate(queries):
        diff = atoms - x
        w = weights * _gaussian((diff * diff).sum(axis=1), sigma, d)
        out[k] = (diff * w[:, None]).T @ diff
    return out


def gaussian_frechet(atoms, weights, x, sigma) -> float:
    """V(x) = sum w ||y-x||^2 G(y-x) for the normalized Gaussian G."""
    diff = np.asarray(atoms) - np.asarray(x)
    r2 = (diff * diff).sum(axis=1)
    return float((np.asarray(weights) * r2 * _gaussian(r2, sigma, diff.shape[1])).sum())


def gaussian_frechet_gradient(atoms, weights, x, sigma) -> np.ndarray:
    """grad V(x) = sum w G(y-x) (y-x) (||y-x||^2 / sigma^2 - 2)."""
    diff = np.asarray(atoms) - np.asarray(x)
    r2 = (diff * diff).sum(axis=1)
    g = _gaussian(r2, sigma, diff.shape[1])
    return diff.T @ (np.asarray(weights) * g * (r2 / (sigma * sigma) - 2.0))


def tensor_rel_error(got, want) -> float:
    """Largest per-point ||got - want||_F / ||want||_F (inf if want is 0 and got is not)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    err = np.linalg.norm((got - want).reshape(len(want), -1), axis=1)
    ref = np.linalg.norm(want.reshape(len(want), -1), axis=1)
    rel = np.where(ref > 0, err / np.where(ref > 0, ref, 1.0), np.where(err > 0, math.inf, 0.0))
    return float(rel.max()) if rel.size else 0.0


def power_fit_exponent(n_values, errors) -> float:
    """Least-squares slope of log(error) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(n_values, float)), np.log(np.asarray(errors, float)), 1)[0])


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def w1_assignment(a_atoms, b_atoms) -> float:
    """W1 between equal-size uniform measures: the optimal assignment's mean cost.

    An optimal vertex of the transport polytope with uniform marginals is a
    permutation matrix (Birkhoff-von Neumann), so the assignment is exact.
    """
    cost = cdist(a_atoms, b_atoms)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def winf_bottleneck(a_atoms, b_atoms) -> float:
    """W-infinity between equal-size uniform measures: the bottleneck matching level.

    Binary search over the sorted distinct distances for the smallest t at
    which the bipartite graph of pairs with distance <= t has a perfect
    matching.
    """
    dist = cdist(a_atoms, b_atoms)
    n = dist.shape[0]
    levels = np.unique(dist)

    def perfect(t: float) -> bool:
        match = maximum_bipartite_matching(csr_matrix(dist <= t), perm_type="column")
        return int((match >= 0).sum()) == n

    lo, hi = 0, levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if perfect(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def marginal_error(coupling, wa, wb) -> float:
    coupling = np.asarray(coupling, dtype=float)
    row = np.abs(coupling.sum(axis=1) - np.asarray(wa)).max()
    col = np.abs(coupling.sum(axis=0) - np.asarray(wb)).max()
    return float(max(row, col))


def gaussian_smooth_bound_factor(sigma: float, d: int) -> float:
    """sigma A_f / C_d(sigma) for the Gaussian profile exp(-r/2)."""
    a1 = 0.5 * 3.0**1.5 * math.exp(-1.5)
    a2 = math.exp(-0.5)
    c_d = (2.0 * math.pi) ** (d / 2.0) * sigma**d
    return sigma * 2.0 * (a1 + a2) / c_d


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def scipy_linkage(dist):
    """scipy's single-linkage matrix Z of a square distance matrix."""
    return linkage(squareform(np.asarray(dist), checks=False), method="single")


def same_partition(a, b) -> bool:
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        return False
    pairs = np.unique(np.column_stack([a, b]), axis=0)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


def brute_force_error(labels, truth) -> float:
    """1 - (best matched count) / n over all bijections between label sets."""
    labels = np.asarray(labels).ravel()
    truth = np.asarray(truth).ravel()
    la, lb = np.unique(labels), np.unique(truth)
    k = max(la.size, lb.size)
    if k > 8:
        raise ValueError(f"{k} labels is too many for the permutation search")
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (np.searchsorted(la, labels), np.searchsorted(lb, truth)), 1)
    best = max(sum(conf[i, p[i]] for i in range(k)) for p in itertools.permutations(range(k)))
    return 1.0 - best / labels.size


# ---------------------------------------------------------------------------
# predicates: (passed, detail) for one output against its reference
# ---------------------------------------------------------------------------

def check_tensors(got, want, rel_tol: float):
    rel = tensor_rel_error(got, want)
    return rel <= rel_tol, f"rel {rel:.3g}"


def check_values(got, want, rel_tol: float):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    rel = float(np.max(np.abs(got - want) / np.abs(want))) if want.size else 0.0
    return rel <= rel_tol, f"rel {rel:.3g}"


def check_decreasing(values):
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(values) < 0)), str(values.tolist())


def check_rate_exponent(n_values, mean_errors, lo: float = -0.6, hi: float = -0.4):
    p = power_fit_exponent(n_values, mean_errors)
    return lo <= p <= hi, f"exponent {p:.4f}"


def check_descent(values, rel_slack: float = 1e-12):
    """Values along a descent path never rise (beyond round-off)."""
    v = np.asarray(values, dtype=float)
    rise = float(np.max(np.diff(v) / np.maximum(1.0, np.abs(v[:-1])), initial=0.0))
    return rise <= rel_slack, f"largest rise {rise:.3g}"


def check_stationary(atoms, weights, points, sigma: float, grad_tol: float):
    """||grad V|| < grad_tol * max(1, V) at every point (Gaussian V)."""
    bad = 0
    for x in np.atleast_2d(points):
        g = float(np.linalg.norm(gaussian_frechet_gradient(atoms, weights, x, sigma)))
        v = gaussian_frechet(atoms, weights, x, sigma)
        bad += int(g >= grad_tol * max(1.0, v) * (1.0 + 1e-6))
    return bad == 0, f"{bad} points above the gradient tolerance"


def check_smooth_lhs(lhs: float, transport_cost: float, alpha, beta, grid, sigma: float):
    """Grid sup of the Gaussian field difference recomputed, and within the smooth bound."""
    diff = (gaussian_tensors(alpha.atoms, alpha.weights, grid, sigma)
            - gaussian_tensors(beta.atoms, beta.weights, grid, sigma))
    want = float(np.linalg.norm(diff, axis=(1, 2)).max())
    rhs = gaussian_smooth_bound_factor(sigma, alpha.atoms.shape[1]) * transport_cost
    rel = abs(lhs - want) / want
    return rel <= 1e-9 and want <= rhs, f"lhs rel {rel:.3g}, lhs {want:.4g} rhs {rhs:.4g}"


def check_w1(w1: float, a_atoms, b_atoms, tol: float = 1e-9):
    want = w1_assignment(a_atoms, b_atoms)
    return abs(w1 - want) <= tol, f"{w1!r} vs {want!r}"


def check_winf(winf: float, a_atoms, b_atoms, rel_tol: float = 1e-12):
    want = winf_bottleneck(a_atoms, b_atoms)
    return abs(winf - want) <= rel_tol * want, f"{winf!r} vs {want!r}"


def check_marginals(couplings, wa, wb, tol: float = 1e-9):
    err = max(marginal_error(c, wa, wb) for c in couplings)
    return err <= tol, f"{err:.3g}"


def check_merge_heights(heights, dist, rel_tol: float = 1e-12):
    want = np.sort(scipy_linkage(dist)[:, 2])
    ok = np.allclose(np.sort(np.asarray(heights)), want, rtol=rel_tol, atol=0.0)
    return bool(ok), ""


def check_cophenetic(cophenetic, dist, rel_tol: float = 1e-12):
    want = squareform(cophenet(scipy_linkage(dist)))
    ok = np.allclose(np.asarray(cophenetic), want, rtol=rel_tol, atol=0.0)
    return bool(ok), ""


def check_cophenetic_stats(mean: float, std: float, dist, rel_tol: float = 1e-9):
    condensed = cophenet(scipy_linkage(dist))
    m, s = float(condensed.mean()), float(condensed.std())
    rel = max(abs(mean - m) / m, abs(std - s) / s)
    return rel <= rel_tol, f"rel {rel:.3g}"


def check_cut(labels, dist, height: float):
    """A cut at ``height`` groups exactly the leaves within cophenetic distance <= height."""
    want = fcluster(scipy_linkage(dist), t=height, criterion="distance")
    return same_partition(labels, want), f"height {height:.6g}"


def check_score(value: float, labels, truth, tol: float = 1e-12):
    want = brute_force_error(labels, truth)
    return abs(value - want) <= tol, f"{value!r} vs {want!r}"

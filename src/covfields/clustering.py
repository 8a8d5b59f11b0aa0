"""Tensorized-metric single-linkage clustering and dendrogram diagnostics.

Each data point is lifted to (x_i, Sigma(x_i, sigma)), the point together
with the covariance tensor of the empirical measure at scale sigma, and
pairwise distances combine both parts:

    d_ij = ( ||Sigma_i - Sigma_j||_F^2 + gamma^2 ||x_i - x_j||^2 )^{1/2}.

Single linkage on this (pseudo-)metric is computed through the minimum
spanning tree; the cophenetic distance u(i, j) — the dendrogram level at
which i and j first merge — equals the minimax path value, i.e. the largest
edge on the unique MST path.  u satisfies the strong triangle inequality
u(x, x') <= max(u(x, x''), u(x'', x')).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .fields import ctf_grid
from .kernels import RadialKernel
from .measures import WeightedMeasure, empirical_measure
from .transport import Correspondence, distortion


@dataclass(frozen=True)
class TensorizedMetricParams:
    """Weights of the lifted metric: tensor scale sigma, spatial factor gamma.

    gamma = 0 yields a pseudo-metric (spatially distant points with equal
    tensors are at distance 0); single linkage remains well defined.
    """

    gamma: float
    sigma: float
    kernel: RadialKernel

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def tensorized_distances(
    data: WeightedMeasure | np.ndarray,
    params: TensorizedMetricParams,
    reference: WeightedMeasure | None = None,
) -> np.ndarray:
    """Pairwise tensorized distances between the data points.

    Tensors are computed from the uniform empirical measure on the data
    points themselves unless a separate ``reference`` measure is supplied
    (useful for denoising: tensors from a clean reference, metric on noisy
    points).
    """
    if isinstance(data, WeightedMeasure):
        points = data.atoms
    else:
        points = np.atleast_2d(np.asarray(data, dtype=float))
    base = reference if reference is not None else empirical_measure(points)
    if base.dim != points.shape[1]:
        raise ValueError("dimension mismatch between data and reference measure")
    tensors = ctf_grid(base, params.kernel, points, params.sigma).tensors
    n = points.shape[0]
    flat = tensors.reshape(n, -1)
    d2 = cdist(flat, flat, metric="sqeuclidean")
    if params.gamma > 0:
        d2 = d2 + params.gamma**2 * cdist(points, points, metric="sqeuclidean")
    np.fill_diagonal(d2, 0.0)
    d = np.sqrt(np.maximum(d2, 0.0))
    return 0.5 * (d + d.T)


@dataclass(frozen=True)
class Dendrogram:
    """Single-linkage merge tree together with its cophenetic ultrametric.

    ``merges`` rows are (cluster_a, cluster_b, height) with leaves 0..n-1
    and the k-th merge creating cluster n + k; heights are non-decreasing.
    ``cophenetic[i, j]`` is the height at which i and j first share a
    cluster (the minimax path value over the base metric).
    """

    merges: np.ndarray  # (n-1, 3)
    n_leaves: int
    cophenetic: np.ndarray  # (n, n)

    @property
    def heights(self) -> np.ndarray:
        return self.merges[:, 2]


def _mst_prim(d: np.ndarray) -> list[tuple[int, int, float]]:
    """Dense Prim: returns the n-1 MST edges of a full distance matrix."""
    n = d.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    best[0] = np.inf
    parent = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        j = int(np.argmin(best))
        edges.append((int(parent[j]), j, float(best[j])))
        in_tree[j] = True
        best[j] = np.inf
        closer = d[j] < best
        closer &= ~in_tree
        best[closer] = d[j][closer]
        parent[closer] = j
    return edges


def single_linkage(metric: np.ndarray) -> Dendrogram:
    """Single-linkage dendrogram of a (pseudo-)metric matrix via the MST.

    Merge heights are the sorted MST edge weights; the cophenetic matrix is
    filled during the union sweep, which makes it exactly the minimax path
    value.  NaNs in the matrix are rejected.
    """
    d = np.asarray(metric, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("metric must be a square matrix")
    if np.isnan(d).any():
        raise ValueError("metric matrix contains NaN")
    n = d.shape[0]
    if n == 1:
        return Dendrogram(np.zeros((0, 3)), 1, np.zeros((1, 1)))
    edges = sorted(_mst_prim(d), key=lambda e: e[2])
    # union-find with component member lists and scipy-style cluster ids
    comp_id = np.arange(n)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    cluster_of: dict[int, int] = {i: i for i in range(n)}
    u = np.zeros((n, n))
    merges = np.zeros((n - 1, 3))
    for k, (i, j, h) in enumerate(edges):
        ci, cj = int(comp_id[i]), int(comp_id[j])
        a, b = members[ci], members[cj]
        u[np.ix_(a, b)] = h
        u[np.ix_(b, a)] = h
        merges[k] = (cluster_of[ci], cluster_of[cj], h)
        if len(a) < len(b):
            ci, cj = cj, ci
            a, b = b, a
        a.extend(b)
        comp_id[b] = ci
        del members[cj]
        cluster_of[ci] = n + k
        cluster_of.pop(cj, None)
    return Dendrogram(merges, n, u)


@dataclass(frozen=True)
class ClusterAssignment:
    """Flat clustering obtained by cutting a dendrogram."""

    labels: np.ndarray
    k: int
    cutoff_height: float


def _labels_from_threshold(u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Connected components of the relation ``keep`` (boolean n x n)."""
    n = u.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for i in range(n):
        if labels[i] >= 0:
            continue
        block = np.nonzero(keep[i])[0]
        labels[block] = nxt
        labels[i] = nxt
        nxt += 1
    return labels


def cut(dendrogram: Dendrogram, k: int | None = None, height: float | None = None) -> ClusterAssignment:
    """Cut a dendrogram at a cluster count or at a height.

    ``height=h`` keeps merges with height <= h.  ``k`` removes the k-1
    largest merge heights; when ties straddle the threshold every tied edge
    is removed, so the achieved count may exceed k (reported in the result).
    """
    if (k is None) == (height is None):
        raise ValueError("specify exactly one of k or height")
    n = dendrogram.n_leaves
    u = dendrogram.cophenetic
    if height is not None:
        if height < 0:
            raise ValueError("height must be non-negative")
        keep = u <= height
        cutoff = float(height)
    else:
        if not (1 <= k <= n):
            raise ValueError("k must be between 1 and the number of leaves")
        if k == 1:
            keep = np.ones_like(u, dtype=bool)
            cutoff = float(dendrogram.heights[-1]) if n > 1 else 0.0
        else:
            threshold = float(np.sort(dendrogram.heights)[-(k - 1)])
            keep = u < threshold
            cutoff = threshold
    labels = _labels_from_threshold(u, keep)
    return ClusterAssignment(labels, int(labels.max()) + 1, cutoff)


def mean_cophenetic(dendrogram: Dendrogram) -> float:
    """Average cophenetic distance over unordered leaf pairs."""
    n = dendrogram.n_leaves
    if n < 2:
        raise ValueError("need at least 2 leaves")
    iu = np.triu_indices(n, k=1)
    return float(dendrogram.cophenetic[iu].mean())


def cophenetic_std(dendrogram: Dendrogram) -> float:
    n = dendrogram.n_leaves
    iu = np.triu_indices(n, k=1)
    return float(dendrogram.cophenetic[iu].std())


def topk_reassign(assignment: ClusterAssignment, metric: np.ndarray, k: int) -> ClusterAssignment:
    """Keep the k largest clusters and absorb the rest by nearest point.

    Size ties are broken toward the lower cluster id.  Every point of a
    dropped cluster joins the cluster containing its nearest point (under
    the supplied metric) among the kept ones.
    """
    labels = assignment.labels
    ids, counts = np.unique(labels, return_counts=True)
    if k > ids.size:
        raise ValueError(f"k={k} exceeds the number of clusters {ids.size}")
    order = np.lexsort((ids, -counts))
    kept = set(int(ids[i]) for i in order[:k])
    new_labels = labels.copy()
    kept_mask = np.isin(labels, list(kept))
    kept_idx = np.nonzero(kept_mask)[0]
    for p in np.nonzero(~kept_mask)[0]:
        nearest = kept_idx[np.argmin(metric[p, kept_idx])]
        new_labels[p] = labels[nearest]
    # renumber to 0..k-1, ordered by kept cluster id
    remap = {c: i for i, c in enumerate(sorted(kept))}
    new_labels = np.array([remap[int(c)] for c in new_labels], dtype=np.int64)
    return ClusterAssignment(new_labels, k, assignment.cutoff_height)


def score(labels: np.ndarray, truth: np.ndarray) -> float:
    """Misclassification rate under the best label bijection.

    The confusion matrix is padded to square and matched optimally
    (Hungarian); the returned rate is 1 - matched / n.
    """
    labels = np.asarray(labels, dtype=np.int64).ravel()
    truth = np.asarray(truth, dtype=np.int64).ravel()
    if labels.shape != truth.shape:
        raise ValueError("label vectors must have equal length")
    la, lb = np.unique(labels), np.unique(truth)
    k = max(la.size, lb.size)
    conf = np.zeros((k, k), dtype=np.int64)
    amap = {int(v): i for i, v in enumerate(la)}
    bmap = {int(v): i for i, v in enumerate(lb)}
    for a, b in zip(labels, truth):
        conf[amap[int(a)], bmap[int(b)]] += 1
    rows, cols = linear_sum_assignment(-conf)
    matched = conf[rows, cols].sum()
    return 1.0 - matched / labels.size


def dendrogram_distortion_check(
    d_x: np.ndarray, d_y: np.ndarray, corr: Correspondence
) -> tuple[float, float, bool]:
    """Compare the distortion of a relation on base metrics vs ultrametrics.

    Single linkage is 1-Lipschitz in the distortion sense: the distortion
    measured on the cophenetic ultrametrics never exceeds the distortion on
    the base metrics (up to 1e-9 slack for round-off).
    """
    u_x = single_linkage(d_x).cophenetic
    u_y = single_linkage(d_y).cophenetic
    dis_base = distortion(corr, d_x, d_y)
    dis_ultra = distortion(corr, u_x, u_y)
    return dis_base, dis_ultra, dis_ultra <= dis_base + 1e-9

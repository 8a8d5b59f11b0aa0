"""Tensorized-metric single-linkage clustering and dendrogram diagnostics.

Each data point is lifted to (x_i, Sigma(x_i, sigma)), the point together
with the covariance tensor of the empirical measure at scale sigma, and
pairwise distances combine both parts:

    d_ij = ( ||Sigma_i - Sigma_j||_F^2 + gamma^2 ||x_i - x_j||^2 )^{1/2}.

Single linkage on this (pseudo-)metric is the sorted minimum spanning tree
(Gower & Ross 1969), taken from scipy's ``linkage``; the cophenetic distance
u(i, j) — the dendrogram level at which i and j first merge — equals the
minimax path value, i.e. the largest edge on the unique MST path.  u
satisfies the strong triangle inequality u(x, x') <= max(u(x, x''), u(x'', x')).

The dendrogram keeps the leaf order and the merge height between adjacent
leaves (the gaps): u(order[p], order[q]) = max(gaps[p:q]), so a cut splits
the leaf order at the gaps above its level: its partition is keyed by the
number of gaps at or below the level.  Cuts and the cophenetic mean and std
need no n x n matrix; ``Dendrogram.cophenetic`` builds it on demand.  The
distances are built from the condensed (``pdist``) squared parts, and
``single_linkage`` and ``topk_reassign`` condense a square metric: a caller
that never needs the square (the CLI, the benchmark sweep) never builds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.cluster.hierarchy import leaves_list, linkage
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import pdist, squareform

from .fields import ctf_grid
from .kernels import RadialKernel, _check_sigma
from .measures import WeightedMeasure, _check_non_negative, empirical_measure
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
        _check_non_negative("gamma", self.gamma)
        _check_sigma(self.sigma)


def tensorized_distances(data: WeightedMeasure | np.ndarray, params: TensorizedMetricParams,
                         reference: WeightedMeasure | None = None) -> np.ndarray:
    """:func:`tensorized_condensed` as an (n, n) matrix: exactly symmetric
    with a zero diagonal."""
    return squareform(tensorized_condensed(data, params, reference))


def tensorized_condensed(data: WeightedMeasure | np.ndarray, params: TensorizedMetricParams,
                         reference: WeightedMeasure | None = None) -> np.ndarray:
    """Pairwise tensorized distances between the data points in condensed
    (``pdist``) order, a vector of length n(n-1)/2.

    Tensors are computed from the uniform empirical measure on the data
    points themselves unless a separate ``reference`` measure is supplied
    (useful for denoising: tensors from a clean reference, metric on noisy
    points).
    """
    points = data.atoms if isinstance(data, WeightedMeasure) else np.atleast_2d(np.asarray(data, dtype=float))
    features = tensor_features(points, params.kernel, params.sigma, reference)
    return lifted_condensed(pdist(features, "sqeuclidean"), pdist(points, "sqeuclidean"), params.gamma)


def tensor_features(
    points: np.ndarray, kernel: RadialKernel, sigma: float, reference: WeightedMeasure | None = None
) -> np.ndarray:
    """The tensors Sigma(x_i, sigma) flattened to rows of length d*d.

    They depend on sigma but not on gamma, so their squared distances serve
    a whole gamma grid through :func:`lifted_condensed`.
    """
    base = reference if reference is not None else empirical_measure(points)
    if base.dim != points.shape[1]:
        raise ValueError("dimension mismatch between data and reference measure")
    return ctf_grid(base, kernel, points, sigma).tensors.reshape(points.shape[0], -1)


def lifted_condensed(feature_d2: np.ndarray, point_d2: np.ndarray, gamma: float) -> np.ndarray:
    """The tensorized distances in condensed (``pdist``) order, from the
    condensed squared distances (``pdist(..., "sqeuclidean")``) of the
    :func:`tensor_features` rows and of the points, filled into one new
    buffer.  At gamma = 0 ``point_d2`` is not read."""
    out = gamma**2 * point_d2 if gamma > 0 else np.zeros_like(feature_d2)
    out += feature_d2
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class Dendrogram:
    """Single-linkage merge tree with its leaf order and adjacent-leaf gaps.

    ``merges`` rows are (cluster_a, cluster_b, height), cluster_a < cluster_b,
    with leaves 0..n-1 and the k-th merge creating cluster n + k; heights are
    non-decreasing.
    ``order`` lists the leaves as the tree is drawn (cluster_a's before
    cluster_b's) and ``gaps[p]`` is the height at which order[p] and
    order[p + 1] first share a cluster.  ``cophenetic[i, j]``, that height
    for any i, j (the minimax path value), is built on first access.
    """

    merges: np.ndarray  # (n-1, 3)
    n_leaves: int
    pair_counts: np.ndarray  # (n-1,) leaf pairs joined by each merge: |a| * |b|
    order: np.ndarray  # (n,)
    gaps: np.ndarray  # (n-1,)

    @property
    def heights(self) -> np.ndarray:
        return self.merges[:, 2]

    @cached_property
    def cophenetic(self) -> np.ndarray:
        """Dense (n, n) ultrametric: u(order[p], order[q]) = max(gaps[p:q])."""
        n = self.n_leaves
        u = np.zeros((n, n))
        for p in range(n - 1):
            u[p, p + 1 :] = np.maximum.accumulate(self.gaps[p:])
        position = np.argsort(self.order)  # the inverse permutation
        return (u + u.T)[np.ix_(position, position)]


def _checked_metric(metric: np.ndarray) -> tuple[np.ndarray, int]:
    """(y, n): the metric as a condensed float vector and its number of points.

    A condensed metric is a vector of length n(n-1)/2 and a square one must
    equal its transpose (its diagonal is not read); NaN or infinite entries
    and negative entries are rejected.
    """
    d = np.asarray(metric, dtype=float)
    if d.ndim == 1:
        n = int(round((1 + math.sqrt(1 + 8 * d.size)) / 2))
        if n * (n - 1) // 2 != d.size:
            raise ValueError(f"a condensed metric has length n(n-1)/2, got {d.size}")
    elif d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("metric must be a square matrix or a condensed vector")
    else:
        n = d.shape[0]
    if not np.isfinite(d).all():
        raise ValueError("metric contains NaN or infinite entries")
    if (d < 0).any() or (d.ndim == 2 and not np.array_equal(d, d.T)):
        raise ValueError("metric must be symmetric with no negative entry")
    return (d if d.ndim == 1 else squareform(d, checks=False)), n


def _nearest_kept(y: np.ndarray, n: int, dropped: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, ...]:
    """(distance, index) of each dropped point's nearest point among the
    increasing, disjoint ``kept`` under the condensed metric y of n points;
    distance ties go to the lowest index."""
    i = np.arange(n)
    start = i * n - i * (i + 3) // 2 - 1  # y[start[i] + j] is d(i, j) for i < j
    lo, hi = np.minimum.outer(dropped, kept), np.maximum.outer(dropped, kept)
    block = y[start[lo] + hi]
    j = np.argmin(block, axis=1)  # the first, so the lowest index, among ties
    return block[np.arange(dropped.size), j], kept[j]


def single_linkage(metric: np.ndarray) -> Dendrogram:
    """Single-linkage dendrogram of a (pseudo-)metric, square or condensed.

    A condensed metric is the upper triangle in ``pdist`` order, a vector
    of length n(n-1)/2, and goes to scipy as it is; a square matrix must
    equal its transpose.  The merges are the rows of scipy's
    ``linkage(..., method="single")`` (the sorted MST, smaller cluster id
    first in each row).  The leaf order is scipy's ``leaves_list``:
    cluster_a's leaves before cluster_b's, so each merge height is the gap
    after cluster_a's last leaf.  NaN or infinite entries, a negative entry,
    an asymmetric square and a vector of any other length are rejected.
    """
    y, n = _checked_metric(metric)
    if n < 2:
        return Dendrogram(np.zeros((0, 3)), n, np.zeros(0), np.arange(n), np.zeros(0))
    z = linkage(y, method="single")
    ids = z[:, :2].astype(np.int64)
    sizes = np.concatenate([np.ones(n), z[:, 3]])
    order = leaves_list(z)
    last = list(range(n))  # the last leaf of each cluster, appended as it forms
    gap_after = [0.0] * n
    for (a, b), height in zip(ids.tolist(), z[:, 2].tolist()):
        gap_after[last[a]] = height
        last.append(last[b])
    return Dendrogram(z[:, :3], n, sizes[ids[:, 0]] * sizes[ids[:, 1]], order, np.array(gap_after)[order[:-1]])


@dataclass(frozen=True)
class ClusterAssignment:
    """Flat clustering obtained by cutting a dendrogram."""

    labels: np.ndarray
    k: int
    cutoff_height: float


def cut(dendrogram: Dendrogram, k: int | None = None, height: float | None = None) -> ClusterAssignment:
    """Cut a dendrogram at a cluster count or at a height.

    ``height=h`` keeps merges with height <= h.  ``k`` removes the k-1
    largest merge heights; when ties straddle the threshold every tied edge
    is removed, so the achieved count may exceed k (reported in the result).
    Clusters are the runs of the leaf order between removed gaps, labelled
    in the order of their lowest leaf index.
    """
    if (k is None) == (height is None):
        raise ValueError("specify exactly one of k or height")
    n = dendrogram.n_leaves
    if height is not None:
        if not height >= 0:
            raise ValueError(f"height must be non-negative, got {height!r}")
        breaks = dendrogram.gaps > height
        cutoff = float(height)
    elif not (1 <= k <= n):
        raise ValueError("k must be between 1 and the number of leaves")
    elif k == 1:
        breaks = np.zeros(n - 1, dtype=bool)
        cutoff = float(dendrogram.heights[-1]) if n > 1 else 0.0
    else:
        cutoff = float(np.sort(dendrogram.heights)[-(k - 1)])
        breaks = dendrogram.gaps >= cutoff
    run = np.zeros(n, dtype=np.int64)
    run[dendrogram.order[1:]] = np.cumsum(breaks)
    # runs are 0..r-1; number them in the order of their lowest leaf index
    first = np.minimum.reduceat(dendrogram.order, np.concatenate([[0], np.flatnonzero(breaks) + 1]))
    return ClusterAssignment(np.argsort(np.argsort(first))[run], first.size, cutoff)


def _cophenetic_moments(dendrogram: Dendrogram) -> tuple[float, float]:
    """Mean and std of u over leaf pairs: merge k sets u = its height on
    ``pair_counts[k]`` pairs (two-pass variance)."""
    if dendrogram.n_leaves < 2:
        raise ValueError("need at least 2 leaves")
    w, h = dendrogram.pair_counts, dendrogram.heights
    mean = float(w @ h / w.sum())
    return mean, math.sqrt(float(w @ (h - mean) ** 2 / w.sum()))


def mean_cophenetic(dendrogram: Dendrogram) -> float:
    """Average cophenetic distance over unordered leaf pairs."""
    return _cophenetic_moments(dendrogram)[0]


def cophenetic_std(dendrogram: Dendrogram) -> float:
    """Standard deviation of the cophenetic distance over unordered leaf pairs."""
    return _cophenetic_moments(dendrogram)[1]


def _codes(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """(codes, r): labels as codes 0..r-1.  Labels already in 0..n-1 (as
    from ``cut``) are their own codes, r their maximum + 1, and a code no
    point carries stands for an empty cluster; other labels are ranked."""
    if labels.size and 0 <= labels.min() and labels.max() < labels.size:
        return labels, int(labels.max()) + 1
    ids, codes = np.unique(labels, return_inverse=True)
    return codes, ids.size


def largest_clusters(labels: np.ndarray, k: int) -> np.ndarray:
    """The k largest clusters' labels renumbered 0..k-1 in id order, -1 on
    every other point.  Size ties are broken toward the lower cluster id."""
    codes, r = _codes(np.asarray(labels))
    counts = np.bincount(codes, minlength=r)
    n_ids = np.count_nonzero(counts)  # codes are in id order; a code may be empty
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > n_ids:
        raise ValueError(f"k={k} exceeds the number of clusters {n_ids}")
    rank = np.full(r, -1)
    rank[np.sort(np.argsort(-counts, kind="stable")[:k])] = np.arange(k)
    return rank[codes]


def topk_reassign(assignment: ClusterAssignment, metric: np.ndarray, k: int) -> ClusterAssignment:
    """Keep the k largest clusters and absorb the rest by nearest point.

    Size ties are broken toward the lower cluster id.  Every point of a
    dropped cluster joins the cluster containing its nearest point (under
    the supplied metric) among the kept ones; distance ties go to the
    lowest point index.  Kept clusters are renumbered 0..k-1 in id order.
    The metric is square or condensed over the n labelled points, checked
    as for :func:`single_linkage`.
    """
    y, n = _checked_metric(metric)
    if n != assignment.labels.size:
        raise ValueError(f"metric has {n} points for the {assignment.labels.size} labels")
    new_labels = largest_clusters(assignment.labels, k)
    dropped = np.flatnonzero(new_labels < 0)
    new_labels[dropped] = new_labels[_nearest_kept(y, n, dropped, np.flatnonzero(new_labels >= 0))[1]]
    return ClusterAssignment(new_labels, k, assignment.cutoff_height)


def score(labels: np.ndarray, truth: np.ndarray) -> float:
    """Misclassification rate under the best label bijection.

    The confusion matrix of the two labellings' codes is matched optimally
    (Hungarian); the returned rate is 1 - matched / n.  Rows or columns of
    codes no point carries hold zeros and leave the matched total as it is.
    """
    labels = np.asarray(labels, dtype=np.int64).ravel()
    truth = np.asarray(truth, dtype=np.int64).ravel()
    if labels.shape != truth.shape or labels.size == 0:
        raise ValueError("label vectors must be non-empty and of equal length")
    (ia, ka), (ib, kb) = _codes(labels), _codes(truth)
    conf = np.bincount(ia * kb + ib, minlength=ka * kb).reshape(ka, kb)
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

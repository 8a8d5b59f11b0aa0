import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.cluster.hierarchy import cophenet, fcluster, linkage
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import cdist, pdist, squareform

from covfields import (
    BenchmarkConfig,
    ClusterAssignment,
    Correspondence,
    TensorizedMetricParams,
    WeightedMeasure,
    builtin_gaussian,
    builtin_truncation,
    cut,
    dendrogram_distortion_check,
    dendrogram_svg,
    derive_constants,
    empirical_measure,
    gen_arrangement_suite,
    mean_cophenetic,
    quadrature_disk,
    run_cluster_benchmark,
    score,
    single_linkage,
    tensorized_distances,
    topk_reassign,
    winf_exact,
)
from covfields.clustering import Dendrogram, cophenetic_std, lifted_condensed, tensor_features


def random_metric(rng, n):
    pts = rng.normal(size=(n, 3))
    return cdist(pts, pts)


def brute_minimax(d):
    """Exhaustive minimax over all simple paths (independent oracle)."""
    n = d.shape[0]
    u = np.zeros_like(d)
    nodes = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            best = d[i, j]
            others = [k for k in nodes if k not in (i, j)]
            for r in range(1, len(others) + 1):
                for mid in itertools.permutations(others, r):
                    path = [i, *mid, j]
                    m = max(d[a, b] for a, b in zip(path, path[1:]))
                    best = min(best, m)
            u[i, j] = u[j, i] = best
    return u


class TestSingleLinkage:
    def test_three_point_chain(self):
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        dend = single_linkage(d)
        assert dend.cophenetic[0, 2] == 2.0
        np.testing.assert_allclose(dend.heights, [1.0, 2.0])

    def test_equidistant_star(self):
        d = np.ones((5, 5)) - np.eye(5)
        dend = single_linkage(d)
        np.testing.assert_allclose(dend.heights, 1.0)
        iu = np.triu_indices(5, 1)
        np.testing.assert_allclose(dend.cophenetic[iu], 1.0)

    def test_matches_brute_force_minimax(self):
        rng = np.random.default_rng(0)
        for n in (4, 6, 8):
            for _ in range(3):
                d = random_metric(rng, n)
                dend = single_linkage(d)
                np.testing.assert_allclose(dend.cophenetic, brute_minimax(d), atol=1e-12)

    def test_ultrametric_axioms(self):
        rng = np.random.default_rng(1)
        d = random_metric(rng, 12)
        u = single_linkage(d).cophenetic
        np.testing.assert_allclose(u, u.T)
        assert np.all(np.diag(u) == 0)
        for i, j, k in itertools.product(range(12), repeat=3):
            assert u[i, j] <= max(u[i, k], u[k, j]) + 1e-12

    def test_cophenetic_below_metric(self):
        rng = np.random.default_rng(2)
        d = random_metric(rng, 15)
        u = single_linkage(d).cophenetic
        assert np.all(u <= d + 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        d = random_metric(rng, 10)
        perm = rng.permutation(10)
        u1 = single_linkage(d).cophenetic
        u2 = single_linkage(d[np.ix_(perm, perm)]).cophenetic
        np.testing.assert_allclose(u2, u1[np.ix_(perm, perm)], atol=1e-12)

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(4)
        dend = single_linkage(random_metric(rng, 30))
        assert np.all(np.diff(dend.heights) >= 0)

    def test_nan_rejected(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            single_linkage(d)

    def test_infinite_entry_rejected(self):
        # leaf 2 is unreachable: no spanning tree has a finite height
        d = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, np.inf], [np.inf, np.inf, 0.0]])
        with pytest.raises(ValueError, match="infinite"):
            single_linkage(d)

    @pytest.mark.parametrize("d", [
        [[0.0, 1.0, 4.0], [9.0, 0.0, 2.0], [4.0, 7.0, 0.0]],  # gave heights [1, 2]
        [[0.0, -1.0], [-1.0, 0.0]],  # gave a merge at -1
    ])
    def test_asymmetric_or_negative_rejected(self, d):
        with pytest.raises(ValueError, match="symmetric with no negative entry"):
            single_linkage(np.array(d))


class TestCut:
    def test_extremes(self):
        rng = np.random.default_rng(5)
        d = random_metric(rng, 8)
        dend = single_linkage(d)
        assert cut(dend, height=0.0).k == 8
        assert cut(dend, height=np.inf).k == 1
        assert cut(dend, k=1).k == 1
        assert cut(dend, k=8).k == 8

    def test_k_matches_structure(self):
        # two well-separated blobs: k=2 recovers them
        pts = np.concatenate([np.random.default_rng(6).normal(0, 0.1, (5, 2)),
                              np.random.default_rng(7).normal(10, 0.1, (5, 2))])
        d = cdist(pts, pts)
        asg = cut(single_linkage(d), k=2)
        assert asg.k == 2
        assert len(set(asg.labels[:5])) == 1 and len(set(asg.labels[5:])) == 1

    def test_tied_edges_overshoot(self):
        # three collinear equidistant points: both edges tie at 1.0, so a
        # 2-cluster request removes both and reports 3
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        asg = cut(single_linkage(d), k=2)
        assert asg.k == 3

    def test_validation(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        dend = single_linkage(d)
        with pytest.raises(ValueError):
            cut(dend)
        with pytest.raises(ValueError):
            cut(dend, k=2, height=1.0)
        with pytest.raises(ValueError):
            cut(dend, k=0)


class TestMeanCophenetic:
    def test_two_leaves(self):
        d = np.array([[0.0, 0.7], [0.7, 0.0]])
        dend = single_linkage(d)
        assert mean_cophenetic(dend) == pytest.approx(0.7)

    def test_star(self):
        d = 0.3 * (np.ones((6, 6)) - np.eye(6))
        assert mean_cophenetic(single_linkage(d)) == pytest.approx(0.3)

    def test_matches_pair_average(self):
        rng = np.random.default_rng(8)
        d = random_metric(rng, 8)
        dend = single_linkage(d)
        iu = np.triu_indices(8, 1)
        assert mean_cophenetic(dend) == pytest.approx(dend.cophenetic[iu].mean(), rel=1e-14)

    def test_single_leaf_error(self):
        with pytest.raises(ValueError):
            mean_cophenetic(single_linkage(np.zeros((1, 1))))


class TestTopkReassign:
    def test_identity_when_equal(self):
        d = np.array([[0.0, 5.0], [5.0, 0.0]])
        asg = cut(single_linkage(d), k=2)
        out = topk_reassign(asg, d, 2)
        np.testing.assert_array_equal(np.sort(np.unique(out.labels)), [0, 1])
        assert out.k == 2

    def test_singleton_absorbed(self):
        pts = np.array([[0.0], [0.1], [0.2], [5.0]])
        d = cdist(pts, pts)
        asg = cut(single_linkage(d), k=2)
        out = topk_reassign(asg, d, 1)
        assert out.k == 1
        assert len(set(out.labels)) == 1

    def test_k_too_large(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        asg = cut(single_linkage(d), k=1)
        with pytest.raises(ValueError, match="exceeds"):
            topk_reassign(asg, d, 2)

    def test_nearest_point_rule(self):
        # a pair far out is dropped; its points go to the cluster holding
        # their nearest neighbour
        pts = np.array([[0.0], [0.2], [0.4], [10.0], [10.2], [3.0], [3.1]])
        d = cdist(pts, pts)
        asg = cut(single_linkage(d), k=3)
        out = topk_reassign(asg, d, 2)
        assert out.labels[5] == out.labels[2]  # 3.0 joins the 0-block
        assert out.labels[6] == out.labels[2]

    def test_metric_checked(self):
        # a condensed metric gives the square's labels; NaN entries and a
        # metric over the wrong number of points are rejected by name
        pts = np.array([[0.0], [0.2], [0.4], [10.0], [10.2], [3.0], [3.1]])
        d = cdist(pts, pts)
        asg = cut(single_linkage(d), k=3)
        for metric in (d, pdist(pts)):
            np.testing.assert_array_equal(topk_reassign(asg, metric, 2).labels, [0, 0, 0, 1, 1, 0, 0])
        bad = d.copy()
        bad[5:, 3] = bad[3, 5:] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            topk_reassign(asg, bad, 2)
        for wrong in (pdist(pts[:6]), d[:6, :6]):
            with pytest.raises(ValueError, match="metric has 6 points for the 7 labels"):
                topk_reassign(asg, wrong, 2)
        with pytest.raises(ValueError, match=r"length n\(n-1\)/2, got 20"):
            topk_reassign(asg, pdist(pts)[:-1], 2)


class TestScore:
    def test_identical(self):
        assert score([0, 1, 1, 2], [2, 0, 0, 1]) == 0.0

    def test_single_flip(self):
        assert score([0, 0, 0, 1, 1, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1, 1]) == pytest.approx(1 / 8)

    def test_brute_force_bijections(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(4, 12))
            a = rng.integers(0, k, n)
            b = rng.integers(0, k, n)
            conf = np.zeros((k, k), dtype=int)
            for x, y in zip(a, b):
                conf[x, y] += 1
            best = max(
                sum(conf[i, p[i]] for i in range(k))
                for p in itertools.permutations(range(k))
            )
            assert score(a, b) == pytest.approx(1 - best / n)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score([0, 1], [0, 1, 2])

    def test_empty_raises(self):
        # no point to misclassify: no rate, rather than 0 / 0
        with pytest.raises(ValueError, match="non-empty"):
            score([], [])


class TestTensorizedDistances:
    def test_gamma_zero_pseudo_metric(self):
        # two interior points of the same long line share a tensor: distance 0
        pts = np.linspace(0, 1, 50)[:, None] * np.array([[1.0, 0.0]])
        params = TensorizedMetricParams(gamma=0.0, sigma=0.1, kernel=builtin_truncation())
        d = tensorized_distances(empirical_measure(pts), params)
        assert d[24, 25] == pytest.approx(0.0, abs=1e-15)
        assert d[24, 26] == pytest.approx(0.0, abs=1e-15)

    def test_large_gamma_is_euclidean(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(20, 2))
        params = TensorizedMetricParams(gamma=1e6, sigma=0.5, kernel=builtin_gaussian())
        d = tensorized_distances(empirical_measure(pts), params)
        np.testing.assert_allclose(d, 1e6 * cdist(pts, pts), rtol=1e-2)

    def test_isolated_points_reduce_to_scaled_euclidean(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 7.0]])
        params = TensorizedMetricParams(gamma=2.0, sigma=0.1, kernel=builtin_truncation())
        d = tensorized_distances(empirical_measure(pts), params)
        np.testing.assert_allclose(d, 2.0 * cdist(pts, pts), atol=1e-12)

    @pytest.mark.parametrize("kind", ["lines2d", "mixed_curves2d", "planes3d"])
    def test_condensed_parts_match_dense_formula(self, kind):
        """From condensed squared parts, the matrix is bit for bit the dense
        cdist formula (with its zeroed diagonal and symmetrisation) on every
        sigma and gamma of the suite's grid."""
        cfg = BenchmarkConfig(kind=kind).resolved()
        points = gen_arrangement_suite(kind, 1, seed=0, points_per_component=cfg.points_per_component,
                                       noise_sd=cfg.noise_sd)[0].measure.atoms
        for sigma in cfg.sigma_grid:
            features = tensor_features(points, builtin_gaussian(), sigma)
            for gamma in cfg.gamma_grid:
                d2 = cdist(features, features, metric="sqeuclidean")
                if gamma > 0:
                    d2 = d2 + gamma**2 * cdist(points, points, metric="sqeuclidean")
                np.fill_diagonal(d2, 0.0)
                d = np.sqrt(np.maximum(d2, 0.0))
                got = squareform(lifted_condensed(pdist(features, "sqeuclidean"), pdist(points, "sqeuclidean"), gamma))
                assert got.tobytes() == (0.5 * (d + d.T)).tobytes()

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            TensorizedMetricParams(gamma=-1.0, sigma=0.5, kernel=builtin_gaussian())


class TestDendrogramStability:
    def test_identical_spaces(self):
        d = cdist(np.arange(4)[:, None].astype(float), np.arange(4)[:, None].astype(float))
        corr = Correspondence(np.column_stack([np.arange(4), np.arange(4)]))
        base, ultra, ok = dendrogram_distortion_check(d, d, corr)
        assert (base, ultra, ok) == (0.0, 0.0, True)

    def test_random_certification(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            dx = random_metric(rng, n)
            dy = random_metric(rng, m)
            pairs = np.concatenate([
                np.column_stack([np.arange(n), rng.integers(0, m, n)]),
                np.column_stack([rng.integers(0, n, m), np.arange(m)]),
            ])
            _, _, ok = dendrogram_distortion_check(dx, dy, Correspondence(pairs))
            assert ok

    def test_scaled_space(self):
        rng = np.random.default_rng(12)
        d = random_metric(rng, 7)
        c = 2.5
        corr = Correspondence(np.column_stack([np.arange(7), np.arange(7)]))
        base, ultra, ok = dendrogram_distortion_check(d, c * d, corr)
        u = single_linkage(d).cophenetic
        assert ok
        assert ultra == pytest.approx((c - 1) * u.max(), rel=1e-12)
        assert base == pytest.approx((c - 1) * d.max(), rel=1e-12)


class TestMetricGHStability:
    def test_jittered_quadrature_bound(self):
        # jitter below half the atom spacing: the optimal bottleneck coupling
        # is the identity pairing, and the lifted metric spaces stay within
        # (2 A_f sigma / C_d + gamma) * Winf in the Gromov-Hausdorff sense
        rng = np.random.default_rng(13)
        disk = quadrature_disk(1.0, 10, 24).normalize()
        eps = 0.01
        jitter = rng.uniform(-eps, eps, size=disk.atoms.shape)
        beta = WeightedMeasure(disk.atoms + jitter, disk.weights)
        sigma, gamma = 0.7, 0.5
        g = builtin_gaussian()
        winf, _ = winf_exact(disk, beta)
        max_shift = float(np.linalg.norm(jitter, axis=1).max())
        assert winf == pytest.approx(max_shift, abs=1e-9)
        params = TensorizedMetricParams(gamma=gamma, sigma=sigma, kernel=g)
        dx = tensorized_distances(disk, params)
        dy = tensorized_distances(beta, params, reference=beta)
        n = disk.size
        corr = Correspondence(np.column_stack([np.arange(n), np.arange(n)]))
        gh_upper = 0.5 * distortion_of(corr, dx, dy)
        consts = derive_constants(g, 2)
        bound = (2 * consts.a_f * sigma / consts.c_d(sigma) + gamma) * winf
        assert gh_upper <= bound + 1e-9

    def test_tensor_field_pairwise_bound(self):
        # ||Sigma_a(a_i) - Sigma_b(b_i)|| <= (2 A_f sigma / C_d) max ||a-b||
        from covfields import ctf_grid

        rng = np.random.default_rng(14)
        disk = quadrature_disk(1.0, 8, 20).normalize()
        eps = 0.02
        beta = WeightedMeasure(disk.atoms + rng.uniform(-eps, eps, size=disk.atoms.shape), disk.weights)
        sigma = 0.6
        g = builtin_gaussian()
        ta = ctf_grid(disk, g, disk.atoms, sigma).tensors
        tb = ctf_grid(beta, g, beta.atoms, sigma).tensors
        lhs = np.linalg.norm(ta - tb, axis=(1, 2)).max()
        consts = derive_constants(g, 2)
        sup_shift = float(np.linalg.norm(beta.atoms - disk.atoms, axis=1).max())
        assert lhs <= 2 * consts.a_f * sigma / consts.c_d(sigma) * sup_shift + 1e-12


def distortion_of(corr, dx, dy):
    from covfields import distortion

    return distortion(corr, dx, dy)


# ---------------------------------------------------------------------------
# the leaf-order / gap representation against scipy and the dense loops it
# replaced
# ---------------------------------------------------------------------------

def integer_metric(rng, n):
    """City-block distances of points on a small integer grid: many tied
    distances, and zero distances between repeated points (the gamma = 0
    duplicate-point case)."""
    pts = rng.integers(0, 4, size=(n, 2)).astype(float)
    return cdist(pts, pts, metric="cityblock")


def reference_metrics():
    rng = np.random.default_rng(30)
    cases = [random_metric(rng, n) for n in (2, 3, 7, 20, 41)]
    cases += [integer_metric(rng, n) for n in (2, 5, 12, 30, 50)]
    return cases


# csgraph reads a zero entry as a missing edge, so its MST oracle takes only
# the reference metrics with no zero off-diagonal entry
POSITIVE_CASES = [i for i, d in enumerate(reference_metrics()) if (d + np.eye(len(d)) > 0).all()]


def threshold_labels(u, keep):
    """Connected components of ``keep``, numbered by lowest leaf index
    (the dense labelling the gap cut replaced)."""
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


def same_partition(a, b):
    pairs = np.unique(np.column_stack([a, b]), axis=0)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


def loop_topk_reassign(assignment, metric, k):
    """The per-point loop topk_reassign was written as (reference)."""
    labels = assignment.labels
    ids, counts = np.unique(labels, return_counts=True)
    order = np.lexsort((ids, -counts))
    kept = set(int(ids[i]) for i in order[:k])
    new_labels = labels.copy()
    kept_mask = np.isin(labels, list(kept))
    kept_idx = np.nonzero(kept_mask)[0]
    for p in np.nonzero(~kept_mask)[0]:
        nearest = kept_idx[np.argmin(metric[p, kept_idx])]
        new_labels[p] = labels[nearest]
    remap = {c: i for i, c in enumerate(sorted(kept))}
    return np.array([remap[int(c)] for c in new_labels], dtype=np.int64)


def loop_score(labels, truth):
    """The dict-and-loop confusion matrix score was written with (reference)."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    truth = np.asarray(truth, dtype=np.int64).ravel()
    la, lb = np.unique(labels), np.unique(truth)
    k = max(la.size, lb.size)
    conf = np.zeros((k, k), dtype=np.int64)
    amap = {int(v): i for i, v in enumerate(la)}
    bmap = {int(v): i for i, v in enumerate(lb)}
    for a, b in zip(labels, truth):
        conf[amap[int(a)], bmap[int(b)]] += 1
    rows, cols = linear_sum_assignment(-conf)
    return 1.0 - conf[rows, cols].sum() / labels.size


class TestAgainstScipy:
    @pytest.mark.parametrize("case", range(10))
    def test_merges_are_scipy_rows(self, case):
        d = reference_metrics()[case]
        dend = single_linkage(d)
        z = linkage(squareform(d, checks=False), method="single")
        np.testing.assert_array_equal(dend.merges, z[:, :3])
        assert (dend.merges[:, 0] < dend.merges[:, 1]).all()

    @pytest.mark.parametrize("case", POSITIVE_CASES)
    def test_heights_are_sorted_mst_weights(self, case):
        # an MST from another algorithm (Kruskal in csgraph), not linkage
        d = reference_metrics()[case]
        mst = minimum_spanning_tree(d)
        assert mst.nnz == len(d) - 1
        np.testing.assert_array_equal(single_linkage(d).heights, np.sort(mst.data))

    @pytest.mark.parametrize("case", range(10))
    def test_heights_cophenetic_and_height_cuts(self, case):
        d = reference_metrics()[case]
        dend = single_linkage(d)
        z = linkage(squareform(d, checks=False), method="single")
        np.testing.assert_array_equal(dend.heights, np.sort(z[:, 2]))
        np.testing.assert_array_equal(dend.cophenetic, squareform(cophenet(z)))
        levels = np.unique(d)
        for h in np.concatenate([levels, 0.5 * (levels[1:] + levels[:-1]), [levels[-1] + 1.0]]):
            got = cut(dend, height=h)
            want = fcluster(z, t=h, criterion="distance")
            assert same_partition(got.labels, want), h
            assert got.k == len(np.unique(want))

    @pytest.mark.parametrize("case", range(10))
    def test_leaf_order_and_gaps(self, case):
        d = reference_metrics()[case]
        dend = single_linkage(d)
        n = d.shape[0]
        np.testing.assert_array_equal(np.sort(dend.order), np.arange(n))
        u = dend.cophenetic
        np.testing.assert_array_equal(dend.gaps, u[dend.order[:-1], dend.order[1:]])
        # the order is the merge tree's left-to-right traversal
        children = {n + k: (int(a), int(b)) for k, (a, b, _) in enumerate(dend.merges)}
        stack, walk = [2 * n - 2], []
        while stack:
            node = stack.pop()
            if node < n:
                walk.append(node)
            else:
                stack.extend(reversed(children[node]))
        np.testing.assert_array_equal(dend.order, walk)


class TestTinyInputs:
    def test_one_leaf(self):
        dend = single_linkage(np.zeros((1, 1)))
        assert dend.n_leaves == 1 and dend.merges.shape == (0, 3)
        np.testing.assert_array_equal(dend.order, [0])
        assert dend.gaps.size == 0 and dend.pair_counts.size == 0
        np.testing.assert_array_equal(dend.cophenetic, [[0.0]])
        np.testing.assert_array_equal(cut(dend, k=1).labels, [0])

    def test_two_leaves(self):
        dend = single_linkage(np.array([[0.0, 0.4], [0.4, 0.0]]))
        np.testing.assert_array_equal(dend.merges, [[0.0, 1.0, 0.4]])
        np.testing.assert_array_equal(dend.order, [0, 1])
        np.testing.assert_array_equal(dend.gaps, [0.4])
        np.testing.assert_array_equal(dend.pair_counts, [1.0])
        np.testing.assert_array_equal(cut(dend, k=2).labels, [0, 1])


class TestCutRules:
    @pytest.mark.parametrize("case", range(10))
    def test_k_cut_removes_every_tied_edge(self, case):
        d = reference_metrics()[case]
        dend = single_linkage(d)
        u = dend.cophenetic
        n = d.shape[0]
        for k in range(1, n + 1):
            got = cut(dend, k=k)
            if k == 1:
                want = np.zeros(n, dtype=np.int64)
            else:
                want = threshold_labels(u, u < np.sort(dend.heights)[-(k - 1)])
            np.testing.assert_array_equal(got.labels, want)
            assert got.k == want.max() + 1 >= k

    @pytest.mark.parametrize("case", range(10))
    def test_height_cut_labels_by_first_leaf(self, case):
        d = reference_metrics()[case]
        dend = single_linkage(d)
        u = dend.cophenetic
        for h in np.unique(d):
            np.testing.assert_array_equal(cut(dend, height=h).labels, threshold_labels(u, u <= h))

    def test_tie_at_threshold_splits_all(self):
        # a 2 x 3 unit grid: all seven MST candidates tie at 1, so any k > 1
        # removes them all
        pts = np.array([[x, y] for x in range(3) for y in range(2)], dtype=float)
        dend = single_linkage(cdist(pts, pts, metric="cityblock"))
        for k in range(2, 7):
            asg = cut(dend, k=k)
            assert asg.k == 6 and asg.cutoff_height == 1.0
            np.testing.assert_array_equal(asg.labels, np.arange(6))

    def test_nan_height_rejected(self):
        dend = single_linkage(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="height"):
            cut(dend, height=float("nan"))
        with pytest.raises(ValueError, match="height"):
            cut(dend, height=-1.0)


class TestCopheneticStatistics:
    @pytest.mark.parametrize("case", range(10))
    def test_closed_form_matches_dense(self, case):
        d = reference_metrics()[case]
        dend = single_linkage(d)
        values = dend.cophenetic[np.triu_indices(d.shape[0], 1)]
        assert mean_cophenetic(dend) == pytest.approx(values.mean(), rel=1e-12)
        assert cophenetic_std(dend) == pytest.approx(values.std(), rel=1e-12, abs=1e-15)

    def test_std_single_leaf_error(self):
        with pytest.raises(ValueError):
            cophenetic_std(single_linkage(np.zeros((1, 1))))


class TestVectorizedAgainstLoops:
    # topk_reassign takes each metric square and condensed, with equal labels

    @pytest.mark.parametrize("case", range(10))
    def test_topk_reassign(self, case):
        d = reference_metrics()[case]
        dend = single_linkage(d)
        n = d.shape[0]
        for h in np.unique(d)[:6]:
            asg = cut(dend, height=h)
            for k in range(1, asg.k + 1):
                want = loop_topk_reassign(asg, d, k)
                for metric in (d, squareform(d)):
                    got = topk_reassign(asg, metric, k)
                    np.testing.assert_array_equal(got.labels, want)
                    assert got.k == k and got.labels.shape == (n,)

    def test_topk_reassign_size_ties(self):
        # four clusters of sizes 2, 1, 2, 1: the size tie between ids 0 and 2
        # keeps both, and ids 1 and 3 break toward id 1
        labels = np.array([0, 0, 1, 2, 2, 3])
        pts = np.array([[0.0], [0.1], [5.0], [9.0], [9.1], [4.0]])
        asg = ClusterAssignment(labels, 4, 0.0)
        d = cdist(pts, pts)
        for k in (1, 2, 3, 4):
            want = loop_topk_reassign(asg, d, k)
            for metric in (d, squareform(d)):
                np.testing.assert_array_equal(topk_reassign(asg, metric, k).labels, want)

    @pytest.mark.parametrize("labels", [
        [-5, -5, 7, 7, 7, 100, -5, 3, 100],  # negative and far-apart ids
        [0, 0, 5, 5, 2, 2, 7, 0, 5],  # ids below n with gaps between them
        [3, 3, 1, 1, 0, 2, 2, 4, 4],  # size ties between four ids
    ])
    def test_topk_reassign_label_sets(self, labels):
        labels = np.array(labels)
        pts = np.array([[0.0], [1.0], [2.0], [1.0], [0.0], [2.0], [1.0], [3.0], [0.0]])  # tied distances
        d = cdist(pts, pts)
        n_ids = np.unique(labels).size
        asg = ClusterAssignment(labels, n_ids, 0.0)
        for k in range(1, n_ids + 1):
            want = loop_topk_reassign(asg, d, k)
            for metric in (d, squareform(d)):
                np.testing.assert_array_equal(topk_reassign(asg, metric, k).labels, want)
        with pytest.raises(ValueError, match="exceeds"):
            topk_reassign(asg, d, n_ids + 1)

    def test_topk_reassign_distance_ties_and_infinite_rows(self):
        # ids 0 and 1 are kept (points 1-4); point 5 is as near to point 2
        # (id 1) as to point 3 (id 0) and joins point 2, the lower index;
        # point 0 is at 5 from every kept point and joins point 1, the lowest
        # index.  A row at +inf from every kept point is rejected.
        labels = np.array([2, 1, 1, 0, 0, 3])
        d = np.full((6, 6), 5.0)
        np.fill_diagonal(d, 0.0)
        d[0, 5] = d[5, 0] = 1.0
        d[1, 2] = d[2, 1] = d[3, 4] = d[4, 3] = 1.0
        d[5, [2, 3]] = d[[2, 3], 5] = 2.0
        asg = ClusterAssignment(labels, 4, 0.0)
        got = topk_reassign(asg, d, 2).labels
        np.testing.assert_array_equal(got, [1, 1, 1, 0, 0, 1])
        np.testing.assert_array_equal(got, loop_topk_reassign(asg, d, 2))
        d[0, 1:5] = d[1:5, 0] = np.inf
        with pytest.raises(ValueError, match="infinite"):
            topk_reassign(asg, d, 2)

    def test_topk_reassign_k_below_one(self):
        asg = ClusterAssignment(np.array([0, 1]), 2, 0.0)
        with pytest.raises(ValueError, match="at least 1"):
            topk_reassign(asg, np.zeros((2, 2)), 0)

    def test_score(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            a = rng.integers(0, int(rng.integers(1, 7)), n) * 3 - 2  # sparse, negative ids
            b = rng.integers(0, int(rng.integers(1, 7)), n)
            assert score(a, b) == loop_score(a, b)
            assert score(b, a) == loop_score(b, a)


class TestParameterChecks:
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            TensorizedMetricParams(gamma=gamma, sigma=0.5, kernel=builtin_gaussian())

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            TensorizedMetricParams(gamma=0.0, sigma=sigma, kernel=builtin_gaussian())


def test_chain_dendrogram_svg(tmp_path):
    # 1200 leaves merged one at a time: deeper than Python's recursion limit
    x = np.cumsum(np.linspace(1.0, 2.0, 1200))[:, None]
    dendrogram_svg(single_linkage(cdist(x, x)), str(tmp_path / "d.svg"))
    assert (tmp_path / "d.svg").stat().st_size > 0


def test_benchmark_threads_match_serial():
    cfg = dict(kind="lines2d", n_samples=5, n_train=3, points_per_component=30, cutoff_steps=7, seed=3)
    serial = run_cluster_benchmark(BenchmarkConfig(threads=1, **cfg))
    pooled = run_cluster_benchmark(BenchmarkConfig(threads=2, **cfg))
    assert pooled == serial


@st.composite
def grid_metrics(draw):
    """Euclidean metrics of 2-12 points on a 1/2 grid (ties and zeros)."""
    n = draw(st.integers(2, 12))
    pts = draw(hnp.arrays(np.int64, (n, 2), elements=st.integers(-4, 4))) / 2.0
    return cdist(pts, pts)


class TestUltrametricProperties:
    @settings(max_examples=80, deadline=None)
    @given(grid_metrics())
    def test_strong_triangle_and_below_metric(self, d):
        u = single_linkage(d).cophenetic
        np.testing.assert_array_equal(u, u.T)
        assert np.all(np.diag(u) == 0)
        assert np.all(u <= d)
        # u(i, j) <= max(u(i, k), u(k, j)), indexed [i, k, j]
        assert np.all(u[:, None, :] <= np.maximum(u[:, :, None], u[None, :, :]))


class TestCondensedMetric:
    @settings(max_examples=80, deadline=None)
    @given(grid_metrics())
    def test_condensed_matches_square(self, d):
        got, want = single_linkage(squareform(d, checks=False)), single_linkage(d)
        for field in dataclasses.fields(Dendrogram):
            np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name))

    @pytest.mark.parametrize("y, match", [
        (np.ones(2), "length"),  # between n = 2 (1 entry) and n = 3 (3 entries)
        (np.ones(4), "length"),
        ([1.0, np.nan, 2.0], "NaN"),
        ([1.0, np.inf, 2.0], "infinite"),
        ([1.0, -0.5, 2.0], "negative"),
    ])
    def test_condensed_rejected(self, y, match):
        with pytest.raises(ValueError, match=match):
            single_linkage(np.asarray(y))


label_vectors = st.integers(1, 30).flatmap(lambda n: st.tuples(*[st.one_of(
    hnp.arrays(np.int64, n, elements=st.integers(0, n - 1)),  # codes with gaps
    hnp.arrays(np.int64, n, elements=st.integers(0, 3)),
    hnp.arrays(np.int64, n, elements=st.integers(-4, 2 * n)),  # negative or beyond n - 1
)] * 2))


class TestScoreCodes:
    @settings(max_examples=200, deadline=None)
    @given(label_vectors)
    def test_matches_unique_route(self, pair):
        a, b = pair
        assert score(a, b) == loop_score(a, b)
        assert score(b, a) == loop_score(b, a)

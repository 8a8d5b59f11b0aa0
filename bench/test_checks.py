"""Each output check accepts the package's output and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py -q

Run from the repository root; covfields is imported from ``src/``.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks as ref  # noqa: E402
import covfields as cf  # noqa: E402
from covfields import clustering  # noqa: E402


def _rng(stream):
    return np.random.default_rng([2024, stream])


def _perturb_entry(tensors, delta=1e-6):
    bad = np.array(tensors, dtype=float, copy=True)
    k = int(np.argmax(np.abs(bad[:, 0, 0])))
    bad[k, 0, 0] += delta
    return bad


@pytest.mark.parametrize("kernel, acceleration, brute, tol", [
    ("truncation", "indexed", ref.closed_ball_tensors, 1e-12),
    ("gaussian", "exact", ref.gaussian_tensors, 1e-10),
])
def test_tensor_check_rejects_entry_off_by_1e6(kernel, acceleration, brute, tol):
    rng = _rng(1)
    atoms = rng.normal(size=(400, 2))
    grid = rng.uniform(-1.5, 1.5, size=(30, 2))
    measure = cf.empirical_measure(atoms)
    got = cf.ctf_grid(measure, cf.kernel_by_name(kernel), grid, 0.5, acceleration=acceleration).tensors
    want = brute(atoms, measure.weights, grid, 0.5)
    assert ref.check_tensors(got, want, tol)[0]
    assert not ref.check_tensors(_perturb_entry(got), want, tol)[0]


def test_frechet_value_check_rejects_off_by_1e6():
    rng = _rng(2)
    atoms = rng.normal(size=(200, 2))
    measure = cf.empirical_measure(atoms)
    grid = rng.uniform(-2, 2, size=(10, 2))
    got = cf.ctf_grid(measure, cf.builtin_gaussian(), grid, 1.2).frechet_values
    want = [ref.gaussian_frechet(atoms, measure.weights, x, 1.2) for x in grid]
    assert ref.check_values(got, want, 1e-10)[0]
    bad = got.copy()
    bad[3] += 1e-6
    assert not ref.check_values(bad, want, 1e-10)[0]


def test_gradient_reference_matches_package():
    rng = _rng(3)
    atoms = rng.normal(size=(200, 2))
    measure = cf.empirical_measure(atoms)
    x = np.array([0.3, -0.2])
    got = cf.frechet_gradient(measure, cf.builtin_gaussian(), x, 1.2)
    want = ref.gaussian_frechet_gradient(atoms, measure.weights, x, 1.2)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_rate_checks_reject_a_wrong_rate():
    n = np.array([10, 100, 1000, 10000])
    good = 0.2 * n ** -0.5
    assert ref.check_decreasing(good)[0]
    assert ref.check_rate_exponent(n, good)[0]
    assert not ref.check_rate_exponent(n, 0.2 * n ** -0.3)[0]
    stalled = good.copy()
    stalled[2] = stalled[1]
    assert not ref.check_decreasing(stalled)[0]


def _uniform_pair(n, stream):
    rng = _rng(stream)
    return cf.empirical_measure(rng.normal(size=(n, 2))), cf.empirical_measure(rng.normal(size=(n, 2)) + 0.4)


def test_w1_check_rejects_off_by_1e6():
    a, b = _uniform_pair(40, 4)
    w1, plan = cf.w1_exact(a, b)
    assert ref.check_w1(w1, a.atoms, b.atoms)[0]
    assert not ref.check_w1(w1 + 1e-6, a.atoms, b.atoms)[0]
    assert ref.check_marginals([plan.coupling], a.weights, b.weights)[0]
    bad = plan.coupling.copy()
    bad[0, :] *= 1.0 + 1e-6
    assert not ref.check_marginals([bad], a.weights, b.weights)[0]


def test_winf_check_rejects_off_by_1e6():
    a, b = _uniform_pair(40, 5)
    winf, _ = cf.winf_exact(a, b)
    assert ref.check_winf(winf, a.atoms, b.atoms)[0]
    assert not ref.check_winf(winf + 1e-6, a.atoms, b.atoms)[0]
    assert not ref.check_winf(winf - 1e-6, a.atoms, b.atoms)[0]


def _clustered_distances():
    ds = cf.gen_arrangement_suite("lines2d", 1, seed=7, points_per_component=40)[0]
    params = cf.TensorizedMetricParams(gamma=0.002, sigma=0.04, kernel=cf.builtin_gaussian())
    return ds, clustering.tensorized_distances(ds.measure, params)


def test_linkage_checks_reject_a_perturbed_height():
    _, dist = _clustered_distances()
    dend = clustering.single_linkage(dist)
    assert ref.check_merge_heights(dend.heights, dist)[0]
    assert ref.check_cophenetic(dend.cophenetic, dist)[0]
    heights = np.array(dend.heights, copy=True)
    heights[-1] += 1e-6
    assert not ref.check_merge_heights(heights, dist)[0]
    coph = np.array(dend.cophenetic, copy=True)
    coph[0, -1] += 1e-6
    assert not ref.check_cophenetic(coph, dist)[0]
    mean, std = clustering.mean_cophenetic(dend), clustering.cophenetic_std(dend)
    assert ref.check_cophenetic_stats(mean, std, dist)[0]
    assert not ref.check_cophenetic_stats(mean * (1 + 1e-6), std, dist)[0]


def _swap_two(labels):
    bad = np.array(labels, copy=True)
    i = 0
    j = int(np.nonzero(bad != bad[i])[0][0])
    bad[i], bad[j] = bad[j], bad[i]
    return bad


def test_cut_check_rejects_two_labels_swapped():
    _, dist = _clustered_distances()
    dend = clustering.single_linkage(dist)
    h = float(np.sort(dend.heights)[-3])
    labels = clustering.cut(dend, height=h).labels
    assert ref.check_cut(labels, dist, h)[0]
    assert not ref.check_cut(_swap_two(labels), dist, h)[0]


def test_score_check_rejects_two_labels_swapped():
    ds, _ = _clustered_distances()
    labels = (ds.labels + 1) % 3  # a perfect clustering under other label names
    err = clustering.score(labels, ds.labels)
    assert ref.check_score(err, labels, ds.labels)[0]
    assert not ref.check_score(err, _swap_two(labels), ds.labels)[0]


def test_flow_checks_reject_a_rise_and_a_non_stationary_end():
    rng = _rng(6)
    measure = cf.empirical_measure(rng.normal(size=(100, 2)))
    kernel = cf.builtin_gaussian()
    res = cf.flow_to_attractor(measure, kernel, [0.2, 0.1], 1.2)
    values = [ref.gaussian_frechet(measure.atoms, measure.weights, x, 1.2) for x in res.path]
    assert res.converged and ref.check_descent(values)[0]
    rising = list(values)
    rising[-1] = rising[-2] + 1e-6
    assert not ref.check_descent(rising)[0]
    assert ref.check_stationary(measure.atoms, measure.weights, res.attractor, 1.2, 1e-8)[0]
    moved = res.attractor + 1e-3
    assert not ref.check_stationary(measure.atoms, measure.weights, moved, 1.2, 1e-8)[0]


def test_smooth_lhs_check_rejects_off_by_1e6():
    rng = _rng(7)
    a = cf.empirical_measure(rng.normal(size=(20, 2)))
    b = cf.empirical_measure(rng.normal(size=(25, 2)) + 0.2)
    grid = cf.square_grid(-2.0, 2.0, 6)
    rep = cf.check_stability_smooth(a, b, cf.builtin_gaussian(), 1.0, grid)
    assert ref.check_smooth_lhs(rep.lhs, rep.transport_cost, a, b, grid, 1.0)[0]
    assert not ref.check_smooth_lhs(rep.lhs + 1e-6, rep.transport_cost, a, b, grid, 1.0)[0]

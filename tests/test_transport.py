import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from covfields import (
    Correspondence,
    WeightedMeasure,
    builtin_gaussian,
    builtin_truncation,
    check_stability_smooth,
    check_stability_trunc,
    correspondence_from_plan,
    derive_constants,
    distortion,
    empirical_measure,
    q_tensor,
    quadrature_disk,
    radial_moment,
    radial_moment_bound,
    square_grid,
    truncation_stability_constant,
    unit_sphere_area,
    w1_exact,
    winf_exact,
)
from covfields import transport


def uniform_on(points):
    return empirical_measure(np.asarray(points, dtype=float))


class TestW1:
    def test_identical_measures(self):
        m = uniform_on([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
        val, plan = w1_exact(m, m)
        assert val == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(plan.coupling, np.eye(3) / 3, atol=1e-9)

    def test_point_masses(self):
        a = uniform_on([[0.0, 0.0]])
        b = uniform_on([[3.0, 4.0]])
        val, _ = w1_exact(a, b)
        assert val == pytest.approx(5.0, rel=1e-12)

    def test_two_point_shift(self):
        a = uniform_on([[0.0], [1.0]])
        b = uniform_on([[0.0], [2.0]])
        val, _ = w1_exact(a, b)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_marginals(self):
        rng = np.random.default_rng(0)
        a = WeightedMeasure(rng.normal(size=(12, 2)), rng.dirichlet(np.ones(12)))
        b = WeightedMeasure(rng.normal(size=(9, 2)), rng.dirichlet(np.ones(9)))
        _, plan = w1_exact(a, b)
        row, col = plan.marginal_errors()
        assert row <= 1e-9 and col <= 1e-9
        assert plan.coupling.min() >= -1e-12

    def test_metric_axioms(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            ms = [uniform_on(rng.normal(size=(rng.integers(2, 8), 2))) for _ in range(3)]
            d01, _ = w1_exact(ms[0], ms[1])
            d10, _ = w1_exact(ms[1], ms[0])
            d12, _ = w1_exact(ms[1], ms[2])
            d02, _ = w1_exact(ms[0], ms[2])
            assert d01 == pytest.approx(d10, abs=1e-9)
            assert d02 <= d01 + d12 + 1e-9

    def test_isometry_invariance(self):
        rng = np.random.default_rng(3)
        theta = 1.234
        u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        shift = np.array([3.0, -2.0])
        a = uniform_on(rng.normal(size=(7, 2)))
        b = uniform_on(rng.normal(size=(5, 2)))
        v1, _ = w1_exact(a, b)
        v2, _ = w1_exact(a.transform(u, shift), b.transform(u, shift))
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_requires_normalized(self):
        a = WeightedMeasure([[0.0]], [0.7])
        b = uniform_on([[1.0]])
        with pytest.raises(ValueError, match="normalized"):
            w1_exact(a, b)

    def test_size_cap(self):
        rng = np.random.default_rng(4)
        a = uniform_on(rng.normal(size=(transport.DEFAULT_MAX_ATOMS + 1, 2)))
        b = uniform_on(rng.normal(size=(8, 2)))
        with pytest.raises(ValueError, match="subsample"):
            w1_exact(a, b)


def _histogram_pair(seed, n, n_total, m, m_total):
    """n and m atoms whose positive counts sum to n_total and m_total."""
    rng = np.random.default_rng(seed)

    def histogram(k, total):
        counts = rng.multinomial(total - k, rng.dirichlet(np.ones(k))) + 1
        return WeightedMeasure(rng.normal(size=(k, 2)), counts / total)

    return histogram(n, n_total), histogram(m, m_total)


def _halves_pair():
    """Masses 1/2 - 1/(2p), 1/(2p), 1/2 - 1/(2r), 1/(2r) on 0, 1, 2, 3 against
    the same in s and t, for primes p, r, s, t near 7e5: a 79-bit joint
    denominator."""
    p, r, s, t = 700001, 700027, 700057, 700067
    line = [[0.0], [1.0], [2.0], [3.0]]
    return tuple(WeightedMeasure(line, [(u - 1) / (2 * u), 1 / (2 * u), (v - 1) / (2 * v), 1 / (2 * v)])
                 for u, v in ((p, r), (s, t)))


class TestWinf:
    def test_identical(self):
        m = uniform_on([[0.0, 1.0], [2.0, 0.0]])
        val, _ = winf_exact(m, m)
        assert val == 0.0

    def test_two_point_shift(self):
        a = uniform_on([[0.0], [1.0]])
        b = uniform_on([[0.0], [2.0]])
        val, _ = winf_exact(a, b)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_factorial_oracle(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 6):
            for _ in range(4):
                a = uniform_on(rng.normal(size=(n, 2)))
                b = uniform_on(rng.normal(size=(n, 2)))
                val, plan = winf_exact(a, b)
                dist = cdist(a.atoms, b.atoms)
                brute = min(
                    max(dist[i, p[i]] for i in range(n))
                    for p in itertools.permutations(range(n))
                )
                assert val == pytest.approx(brute, abs=1e-9)
                assert plan.max_edge() == pytest.approx(val, abs=1e-9)

    def test_unequal_sizes(self):
        a = uniform_on([[0.0], [1.0], [2.0]])
        b = uniform_on([[0.5], [1.5]])
        val, plan = winf_exact(a, b)
        # each atom of a sends its 1/3 to a b atom within the bottleneck
        assert val == pytest.approx(0.5, abs=1e-12)
        row, col = plan.marginal_errors()
        assert row <= 1e-9 and col <= 1e-9

    def test_irrational_weights(self):
        w = np.array([math.sqrt(2) - 1, 2 - math.sqrt(2)])
        a = WeightedMeasure([[0.0], [1.0]], w / w.sum())
        b = uniform_on([[0.0], [1.0]])
        val, plan = winf_exact(a, b)
        assert 0.0 <= val <= 1.0
        row, col = plan.marginal_errors()
        assert row <= 1e-9 and col <= 1e-9

    def test_denominator_beyond_int32_capacities(self):
        # 99991 and 99989 are prime, so the exact common denominator (~1e10)
        # exceeds the int32 capacities of maximum_flow; at scale 1e9 both
        # small weights round to 10001, which would give 0
        a = WeightedMeasure([[0.0], [1.0]], [1 / 99991, 1 - 1 / 99991])
        b = WeightedMeasure([[0.0], [1.0]], [1 / 99989, 1 - 1 / 99989])
        for x, y in ((a, b), (b, a)):
            val, plan = winf_exact(x, y)
            assert val == 1.0 and plan.max_edge() == 1.0
            row, col = plan.marginal_errors()
            assert row <= 1e-12 and col <= 1e-12

    # W∞ of histogram pairs, counts over primes near 1e5 (a joint denominator
    # near 1e10), as computed by an Edmonds-Karp flow in Python integers
    HISTOGRAM_WINF = {
        (31, 40, 99991, 50, 99989): 2.0890472153892516,
        (32, 60, 99971, 30, 99961): 1.8708851011252907,
    }

    @pytest.mark.parametrize("case", sorted(HISTOGRAM_WINF))
    def test_histogram_pairs_beyond_int32(self, case):
        a, b = _histogram_pair(*case)
        assert transport._scaled_capacities(a.weights, b.weights)[2] > 2**33
        value, plan = winf_exact(a, b)
        assert value == self.HISTOGRAM_WINF[case] and plan.max_edge() == value
        assert plan.coupling.min() >= 0.0
        row, col = plan.marginal_errors()
        assert row <= 1e-12 and col <= 1e-12

    def test_79_bit_joint_denominator(self):
        # each atom 0 and 2 of alpha lacks about 6e-11 of beta's mass there,
        # which only the atom one step away can supply; at scale 1e9 both
        # sides round to equal masses, which would give 0
        a, b = _halves_pair()
        assert transport._scaled_capacities(a.weights, b.weights)[2].bit_length() == 79
        for x, y in ((a, b), (b, a)):
            value, plan = winf_exact(x, y)
            assert value == 1.0 and plan.max_edge() == 1.0
            assert plan.coupling.min() >= 0.0
            row, col = plan.marginal_errors()
            assert row <= 1e-15 and col <= 1e-15

    # SHA-256 of repr((a, b, denominator)) as Python ints, recorded before
    # the per-side and the joint common denominators became one math.lcm
    CAPACITY_DIGESTS = {
        "exact": "208ab027a2d2d3583a6a18416e68d70529bc321ddae3deac957252791fe61c8f",
        "denominator over 2^40": "dc255ebc4add3c7086b38f442f54cd0f6195b6c20a0e7958b9ad28ed8b2bfe93",
        "unequal exact totals": "1d9366932f17c0c79c726b67d269ccd5b8539f8204cb2c90ea3cd30dbbd53681",
        "not near a rational": "706d774aebfbb8a40222b7ab6405392d7c53b20c26c4179ee35dab436bf3e639",
    }
    CAPACITY_CASES = {
        "exact": ([1 / 3, 1 / 6, 1 / 2], [0.5, 0.25, 0.25]),
        "denominator over 2^40": ([1 / 9999991, 1 / 9999973, 1 / 9999971], [0.1, 0.2]),
        "unequal exact totals": ([0.5, 0.5], [0.25, 0.25]),
        "not near a rational": ([0.5 + math.pi * 1e-11, 0.5 - math.pi * 1e-11], [0.5, 0.5]),
    }

    @pytest.mark.parametrize("case", sorted(CAPACITY_DIGESTS))
    def test_scaled_capacities_frozen(self, case):
        wa, wb = (np.array(w) for w in self.CAPACITY_CASES[case])
        a, b, denom = transport._scaled_capacities(wa, wb)
        text = repr(([int(v) for v in a], [int(v) for v in b], int(denom)))
        assert hashlib.sha256(text.encode()).hexdigest() == self.CAPACITY_DIGESTS[case]

    # SHA-256 of repr(value) then the coupling's float64 bytes, recorded while
    # winf_exact still summed the plan's cost: the weighted pair takes the
    # max-flow path, the uniform pair of one size the matching path
    WINF_DIGESTS = {
        "weighted": "2345c14c25b16523556faed99241d69be8d2a7511290ab60df6dc506557fe6b2",
        "uniform": "ca24756a511d72f87103b318842531c28e3a8b94ad28a13c91bee5c8906a63c1",
    }

    @pytest.mark.parametrize("kind", sorted(WINF_DIGESTS))
    def test_winf_frozen(self, kind):
        rng = np.random.default_rng(23)
        if kind == "weighted":
            wa, wb = rng.integers(1, 6, size=7).astype(float), rng.integers(1, 6, size=5).astype(float)
            a = WeightedMeasure(rng.normal(size=(7, 2)), wa / wa.sum())
            b = WeightedMeasure(rng.normal(size=(5, 2)), wb / wb.sum())
        else:
            a, b = uniform_on(rng.normal(size=(8, 2))), uniform_on(rng.normal(size=(8, 2)))
        value, plan = winf_exact(a, b)
        h = hashlib.sha256(repr(value).encode())
        h.update(np.ascontiguousarray(plan.coupling, dtype=np.float64).tobytes())
        assert h.hexdigest() == self.WINF_DIGESTS[kind]

    def test_scaled_capacities_too_small(self):
        with pytest.raises(ValueError, match="weights too small to scale to integer capacities"):
            transport._scaled_capacities(np.array([math.pi * 1e-11, 1 - math.pi * 1e-11]), np.full(2, 0.5))

    def test_scaling_phases_match_one_phase(self, monkeypatch):
        """With capacities of 10 bits, flows take several scaling phases and
        give the one-phase bottleneck and a plan with the same marginals.  The
        cases have at most 7 x 7 atoms, 63 arcs, so each later phase's flow
        stays within the half cap of 511."""
        rng = np.random.default_rng(13)
        cases = []
        for _ in range(80):
            n, m = rng.integers(1, 8, size=2)
            pts_a, pts_b = rng.integers(-4, 5, size=(n, 2)) / 2.0, rng.integers(-4, 5, size=(m, 2)) / 2.0
            wa, wb = rng.integers(1, 6, size=n).astype(float), rng.integers(1, 6, size=m).astype(float)
            cases.append((cdist(pts_a, pts_b), wa / wa.sum(), wb / wb.sum()))
        line = np.arange(4.0)
        cases.append((np.abs(np.subtract.outer(line, line)), np.array([0.5 - 1 / 1998, 1 / 1998, 0.25, 0.25]),
                      np.array([0.5 - 1 / 2002, 1 / 2002, 0.25, 0.25])))  # a 22-bit denominator
        calls = _counting(monkeypatch, "maximum_flow")
        expected = [transport._maxflow_bottleneck(*case)[0] for case in cases]
        one_phase = len(calls)
        monkeypatch.setattr(transport, "_MAX_CAPACITY", 1023)
        for (dist, wa, wb), value in zip(cases, expected):
            got, pi = transport._maxflow_bottleneck(dist, wa, wb)
            assert got == value and dist[pi > 0].max() == value and pi.min() >= 0.0
            np.testing.assert_allclose(pi.sum(axis=1), wa, rtol=0, atol=1e-12)
            np.testing.assert_allclose(pi.sum(axis=0), wb, rtol=0, atol=1e-12)
        assert len(calls) - one_phase > one_phase  # the same probes, in more phases

    def test_graphs_keep_int32_headroom(self, monkeypatch):
        """Every graph handed to maximum_flow is int32, and no arc and its
        reverse together exceed 2^31 - 1, past which scipy's flow overflows."""
        largest = []
        original = transport.maximum_flow

        def checked(graph, source, sink):
            assert graph.dtype == np.int32
            caps = graph.astype(np.int64)
            largest.append((caps + caps.T).max())
            assert largest[-1] <= 2**31 - 1
            return original(graph, source, sink)

        monkeypatch.setattr(transport, "maximum_flow", checked)
        for a, b in [_halves_pair(), *(_histogram_pair(*case) for case in self.HISTOGRAM_WINF)]:
            winf_exact(a, b)
            winf_exact(b, a)
        assert max(largest) > 2**30  # the pairs come near the limit

    def test_metric_symmetry(self):
        rng = np.random.default_rng(6)
        a = uniform_on(rng.normal(size=(5, 2)))
        b = uniform_on(rng.normal(size=(5, 2)))
        assert winf_exact(a, b)[0] == pytest.approx(winf_exact(b, a)[0], abs=1e-12)


def _fast_path_cases():
    rng = np.random.default_rng(1)
    cases = {f"random_n{n}": (rng.normal(size=(n, 2)), rng.normal(size=(n, 2))) for n in (5, 16, 64)}
    pts = rng.normal(size=(16, 2))
    cases["identical_n16"] = (pts, pts)
    # integer grids: many pairs at the same distance, so both solvers meet ties
    grid = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    cases["grid_ties_n25"] = (grid, grid[::-1] + [1.0, 1.0])
    return cases


FAST_PATH_CASES = _fast_path_cases()


def _counting(monkeypatch, name):
    """Replace transport.<name> with a wrapper that counts its calls."""
    calls = []
    original = getattr(transport, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(transport, name, wrapper)
    return calls


class TestFastPaths:
    """Assignment and bottleneck matching against the general LP and max-flow."""

    @pytest.mark.parametrize("case", sorted(FAST_PATH_CASES))
    def test_matches_general_solvers(self, case, monkeypatch):
        a, b = (uniform_on(p) for p in FAST_PATH_CASES[case])
        flow_calls = _counting(monkeypatch, "maximum_flow")
        lp_calls = _counting(monkeypatch, "linprog")
        w1, plan1 = w1_exact(a, b)
        winf, plan_inf = winf_exact(a, b)
        assert lp_calls == [] and flow_calls == []  # both took the assignment path
        cost = cdist(a.atoms, b.atoms)
        pi_lp = transport._lp_coupling(cost, a.weights, b.weights)
        assert w1 == pytest.approx((pi_lp * cost).sum(), abs=1e-9)
        ref_inf, pi_flow = transport._maxflow_bottleneck(cost, a.weights, b.weights)
        assert winf == pytest.approx(ref_inf, abs=1e-9)
        assert plan_inf.max_edge() == pytest.approx(winf, abs=1e-12)
        for plan in (plan1, plan_inf):
            row, col = plan.marginal_errors()
            assert row <= 1e-12 and col <= 1e-12
            assert plan.coupling.min() >= 0.0
            assert np.count_nonzero(plan.coupling) == a.size

    @pytest.mark.parametrize("kind", ["unequal_weights", "unequal_sizes"])
    def test_other_pairs_keep_general_solvers(self, kind, monkeypatch):
        rng = np.random.default_rng(2)
        pts_a, pts_b = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
        if kind == "unequal_weights":
            w = np.full(12, 1.0 / 12)
            w[0] += 1e-3
            w[1] -= 1e-3
            a, b = WeightedMeasure(pts_a, w), uniform_on(pts_b)
        else:
            a, b = uniform_on(pts_a), uniform_on(pts_b[:9])
        flow_calls = _counting(monkeypatch, "maximum_flow")
        lp_calls = _counting(monkeypatch, "linprog")
        w1, plan1 = w1_exact(a, b)
        winf, plan_inf = winf_exact(a, b)
        assert lp_calls == ["linprog"] and len(flow_calls) >= 1
        cost = cdist(a.atoms, b.atoms)
        assert w1 == pytest.approx((transport._lp_coupling(cost, a.weights, b.weights) * cost).sum(), abs=1e-12)
        assert winf == transport._maxflow_bottleneck(cost, a.weights, b.weights)[0]
        for plan in (plan1, plan_inf):
            row, col = plan.marginal_errors()
            assert row <= 1e-9 and col <= 1e-9


class TestOneDimensionalOracles:
    """Closed forms on the line (Vallender 1973) at realistic sizes."""

    def test_uniform_equal_size_sorted_gaps(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=1000)
        y = rng.normal(0.3, 1.2, size=1000)
        a, b = uniform_on(x[:, None]), uniform_on(y[:, None])
        gaps = np.abs(np.sort(x) - np.sort(y))
        assert w1_exact(a, b)[0] == pytest.approx(gaps.mean(), abs=1e-9)
        assert winf_exact(a, b)[0] == pytest.approx(gaps.max(), abs=1e-12)

    def test_weighted_cdf_integral(self):
        # W1 = integral of |F_a - F_b|; the merged sorted atoms cut the line
        # into gaps on which both CDFs are constant
        rng = np.random.default_rng(21)
        x = rng.normal(size=150)
        y = rng.normal(0.5, 0.8, size=140)
        wx, wy = rng.uniform(0.2, 1.0, 150), rng.uniform(0.2, 1.0, 140)
        a = WeightedMeasure(x[:, None], wx / wx.sum())
        b = WeightedMeasure(y[:, None], wy / wy.sum())
        pts = np.concatenate([x, y])
        order = np.argsort(pts, kind="stable")
        cdf_diff = np.cumsum(np.concatenate([a.weights, -b.weights])[order])[:-1]
        want = float(np.sum(np.abs(cdf_diff) * np.diff(pts[order])))
        assert w1_exact(a, b)[0] == pytest.approx(want, abs=1e-9)


@st.composite
def measure_triples(draw):
    """Three small planar measures on a 1/4 grid (ties included): either
    uniform of one common size (assignment path) or with integer weights and
    sizes of their own (LP and max-flow path)."""
    uniform = draw(st.booleans())
    n = draw(st.integers(1, 6))
    coords = st.integers(-12, 12)
    out = []
    for _ in range(3):
        size = n if uniform else draw(st.integers(1, 6))
        atoms = draw(hnp.arrays(np.int64, (size, 2), elements=coords)) / 4.0
        if uniform:
            out.append(uniform_on(atoms))
        else:
            w = draw(hnp.arrays(np.int64, size, elements=st.integers(1, 5))).astype(float)
            out.append(WeightedMeasure(atoms, w / w.sum()))
    return out


def plain_bottleneck_search(dist, feasible):
    """Binary search over every distinct distance, from the least (reference)."""
    levels = np.unique(dist)
    lo, hi = 0, levels.size - 1
    best = feasible(dist <= levels[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        witness = feasible(dist <= levels[mid])
        if witness is None:
            lo = mid + 1
        else:
            hi, best = mid, witness
    return float(levels[hi]), best


class TestBottleneckFloor:
    @settings(max_examples=150, deadline=None)
    @given(ms=measure_triples())
    def test_matches_plain_binary_search(self, ms):
        # uniform pairs of one size take the matching path, the others
        # (1 x m included) the max-flow path; the 1/4 grid ties distances
        a, b = ms[:2]
        value, plan = winf_exact(a, b)
        with mock.patch.object(transport, "_bottleneck_search", plain_bottleneck_search):
            want, want_plan = winf_exact(a, b)
        assert value == want
        np.testing.assert_array_equal(plan.coupling, want_plan.coupling)
        dist = cdist(a.atoms, b.atoms)
        assert want >= max(dist.min(axis=1).max(), dist.min(axis=0).max())  # no level below the floor


class TestTransportProperties:
    @settings(max_examples=60, deadline=None)
    @given(ms=measure_triples())
    def test_metric_bounds(self, ms):
        a, b, c = ms
        w1_ab, w1_ba = w1_exact(a, b)[0], w1_exact(b, a)[0]
        winf_ab, winf_ba = winf_exact(a, b)[0], winf_exact(b, a)[0]
        assert w1_ab == pytest.approx(w1_ba, abs=1e-9)
        assert winf_ab == pytest.approx(winf_ba, abs=1e-12)
        assert w1_ab <= winf_ab + 1e-9
        shift = np.linalg.norm(a.weights @ a.atoms - b.weights @ b.atoms)
        assert w1_ab >= shift - 1e-9
        assert w1_exact(a, c)[0] <= w1_ab + w1_exact(b, c)[0] + 1e-9


class TestCorrespondence:
    def test_identity_zero_distortion(self):
        d = cdist(np.arange(4)[:, None].astype(float), np.arange(4)[:, None].astype(float))
        corr = Correspondence(np.column_stack([np.arange(4), np.arange(4)]))
        assert distortion(corr, d, d) == 0.0

    def test_two_point_example(self):
        dx = np.array([[0.0, 1.0], [1.0, 0.0]])
        dy = np.array([[0.0, 2.0], [2.0, 0.0]])
        corr = Correspondence([[0, 0], [1, 1]])
        assert distortion(corr, dx, dy) == pytest.approx(1.0)

    def test_symmetric_in_spaces(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(4, 2))
        dx, dy = cdist(x, x), cdist(y, y)
        pairs = [[i, rng.integers(0, 4)] for i in range(5)] + [[rng.integers(0, 5), j] for j in range(4)]
        corr = Correspondence(pairs)
        swapped = Correspondence(np.column_stack([corr.pairs[:, 1], corr.pairs[:, 0]]))
        assert distortion(corr, dx, dy) == pytest.approx(distortion(swapped, dy, dx))

    def test_uncovered_rejected(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError, match="cover"):
            distortion(Correspondence([[0, 0], [1, 1]]), d, d)

    def test_from_diagonal_plan(self):
        m = uniform_on([[0.0], [1.0], [2.0]])
        _, plan = w1_exact(m, m)
        corr = correspondence_from_plan(plan)
        assert corr.covers(3, 3)
        assert set(map(tuple, corr.pairs)) == {(0, 0), (1, 1), (2, 2)}

    def test_from_product_plan(self):
        a = uniform_on([[0.0], [1.0]])
        pi = np.full((2, 2), 0.25)
        from covfields import TransportPlan

        plan = TransportPlan(pi, a, a)
        corr = correspondence_from_plan(plan)
        assert len(corr.pairs) == 4

    def test_winf_witness_edge(self):
        rng = np.random.default_rng(8)
        a = uniform_on(rng.normal(size=(6, 2)))
        b = uniform_on(rng.normal(size=(6, 2)))
        val, plan = winf_exact(a, b)
        corr = correspondence_from_plan(plan)
        dist = cdist(a.atoms, b.atoms)
        assert dist[corr.pairs[:, 0], corr.pairs[:, 1]].max() == pytest.approx(val, abs=1e-9)


class TestSmoothStability:
    def test_identical_measures_trivial(self):
        m = uniform_on([[0.0, 0.0], [1.0, 1.0]])
        rep = check_stability_smooth(m, m, builtin_gaussian(), 1.0, square_grid(-2, 2, 5))
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-15)

    def test_random_pairs_certified(self):
        rng = np.random.default_rng(9)
        grid = square_grid(-3, 3, 12)
        g = builtin_gaussian()
        for _ in range(40):
            a = uniform_on(rng.normal(size=(rng.integers(2, 40), 2)))
            b = uniform_on(rng.normal(size=(rng.integers(2, 40), 2)))
            for sigma in (0.3, 1.0, 3.0):
                rep = check_stability_smooth(a, b, g, sigma, grid)
                assert rep.passed, (sigma, rep.lhs, rep.rhs)

    def test_translation_rhs_linear(self):
        rng = np.random.default_rng(10)
        a = uniform_on(rng.normal(size=(20, 2)))
        grid = square_grid(-2, 2, 8)
        rhs = []
        for t in (0.01, 0.02):
            b = a.transform(shift=[t, 0.0])
            rep = check_stability_smooth(a, b, builtin_gaussian(), 1.0, grid)
            assert rep.transport_cost == pytest.approx(t, abs=1e-9)
            rhs.append(rep.rhs)
        assert rhs[1] == pytest.approx(2 * rhs[0], rel=1e-6)

    def test_truncation_not_eligible(self):
        m = uniform_on([[0.0, 0.0]])
        with pytest.raises(ValueError, match="eligible"):
            check_stability_smooth(m, m, builtin_truncation(), 1.0, [[0.0, 0.0]])


class TestLipschitzTensorMap:
    def test_certification_batch(self):
        # ||Q(z1) - Q(z2)|| <= (A_f sigma / C_d) ||z1 - z2|| on random pairs
        rng = np.random.default_rng(11)
        g = builtin_gaussian()
        consts = derive_constants(g, 2)
        n = 20_000
        z1 = rng.normal(0, 2, size=(n, 2))
        z2 = rng.normal(0, 2, size=(n, 2))
        sigmas = rng.uniform(0.2, 3.0, size=n)
        bad = 0
        for i in range(0, n, 4000):
            for j in range(i, min(i + 4000, n)):
                s = sigmas[j]
                lhs = np.linalg.norm(q_tensor(g, z1[j], s) - q_tensor(g, z2[j], s))
                rhs = consts.a_f * s / consts.c_d(s) * np.linalg.norm(z1[j] - z2[j])
                if lhs > rhs * (1 + 1e-12):
                    bad += 1
        assert bad == 0


class TestTruncStability:
    def test_constant_value(self):
        assert truncation_stability_constant(1.0, 2, 1.0) == pytest.approx(36.0, rel=1e-14)

    def test_identical_trivial(self):
        disk = quadrature_disk(1.0, 30, 40).normalize()
        rep = check_stability_trunc(disk, disk, 0.5, 2.0, 1.0, square_grid(-1, 1, 5))
        assert rep.passed

    def test_jittered_disk_certified(self):
        rng = np.random.default_rng(12)
        disk = quadrature_disk(1.0, 18, 56)
        total = disk.total_mass
        alpha = disk.normalize()
        # density bound of the normalized quadrature measure:
        # cell mass / cell area = 1 / total area, uniform by construction
        lam = (alpha.weights / disk.weights).max() * 1.0000001
        jitter = 0.02 * rng.normal(size=alpha.atoms.shape)
        beta = WeightedMeasure(alpha.atoms + jitter, alpha.weights)
        rep = check_stability_trunc(alpha, beta, 0.6, 2.2, lam, square_grid(-1.2, 1.2, 8))
        assert rep.passed

    def test_lambda_required(self):
        m = uniform_on([[0.0, 0.0]])
        with pytest.raises(ValueError, match="lam"):
            check_stability_trunc(m, m, 0.5, 1.0, None, [[0.0, 0.0]])


class TestW1Memo:
    """check_stability_smooth keeps the last pair's W1 (it does not depend on
    sigma): every report must be the one a fresh solve gives, and a pair
    that differs from the last one in anything must be solved again."""

    @staticmethod
    def same(p, q):
        return all(x.atoms.shape == y.atoms.shape and np.array_equal(x.atoms, y.atoms)
                   and np.array_equal(x.weights, y.weights) for x, y in zip(p, q))

    @settings(max_examples=80, deadline=None)
    @given(ms=measure_triples(), sigmas=st.lists(st.sampled_from([0.3, 0.7, 1.0, 2.5]), min_size=1, max_size=4))
    def test_reports_match_a_fresh_solve(self, ms, sigmas):
        a, b, c = ms
        a2 = WeightedMeasure(a.atoms, a.weights * np.arange(1, a.size + 1))  # reweighted
        a2 = WeightedMeasure(a.atoms, a2.weights / a2.weights.sum())
        # each pair differs from the one before only in its weights, only in
        # beta, only in its order, and then not at all
        pairs = [(a, b), (a2, b), (a2, c), (c, a2), (c, a2)]
        g, grid = builtin_gaussian(), square_grid(-2, 2, 3)
        fresh = {}
        for i, (p, q) in enumerate(pairs):
            for s in sigmas:
                with mock.patch.object(transport, "_w1_memo", (None, 0.0)):
                    fresh[i, s] = check_stability_smooth(p, q, g, s, grid)
        want_solves = 1 + sum(not self.same(p, q) for p, q in zip(pairs, pairs[1:]))
        with mock.patch.object(transport, "_w1_memo", (None, 0.0)), \
                mock.patch.object(transport, "w1_exact", wraps=transport.w1_exact) as solve:
            for i, (p, q) in enumerate(pairs):
                for s in sigmas:
                    rep = check_stability_smooth(p, q, g, s, grid)
                    assert rep.to_dict() == fresh[i, s].to_dict()
        assert solve.call_count == want_solves

    def test_pair_that_differs_in_weights_only(self):
        pts = [[0.0, 0.0], [2.0, 0.0]]
        a, b = WeightedMeasure(pts, [0.5, 0.5]), WeightedMeasure(pts, [0.25, 0.75])
        c = uniform_on([[0.0, 0.0]])
        g, grid = builtin_gaussian(), square_grid(-1, 1, 3)
        assert check_stability_smooth(a, c, g, 1.0, grid).transport_cost == 1.0
        assert check_stability_smooth(b, c, g, 1.0, grid).transport_cost == 1.5


@pytest.mark.parametrize("grid", [np.zeros((0, 2)), []])
def test_stability_rejects_an_empty_grid(grid):
    m = uniform_on([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="no point"):
        check_stability_smooth(m, m, builtin_gaussian(), 1.0, grid)
    with pytest.raises(ValueError, match="no point"):
        check_stability_trunc(m, m, 0.5, 1.0, 1.0, grid)


@pytest.mark.parametrize("bad", [math.nan, 0.0])
def test_stability_checks_sigma_before_transport_solve(bad, monkeypatch):
    def refuse(*args):
        raise AssertionError("transport solved before sigma was checked")

    monkeypatch.setattr(transport, "w1_exact", refuse)
    monkeypatch.setattr(transport, "winf_exact", refuse)
    m = uniform_on([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="sigma"):
        check_stability_smooth(m, m, builtin_gaussian(), bad, [[0.0, 0.0]])
    with pytest.raises(ValueError, match="sigma"):
        check_stability_trunc(m, m, bad, 1.0, 1.0, [[0.0, 0.0]])


class TestRadialMoments:
    def test_unit_disk(self):
        assert radial_moment(0.0, 1.0, 2) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_bound_at_limit(self):
        # B = b gives omega/(d+2) * b^{d+2} >= s_d(a, b)
        val = radial_moment(0.2, 1.0, 3)
        bound = radial_moment_bound(0.2, 1.0, 1.0, 3)
        assert bound >= val
        assert bound == pytest.approx(unit_sphere_area(3) / 5 * (1.0 - 0.2) / 0.8, rel=1e-12)

    def test_random_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            a = float(rng.uniform(0, 2))
            b = a + float(rng.uniform(1e-6, 2))
            big = b + float(rng.uniform(0, 2))
            assert radial_moment(a, b, d) <= radial_moment_bound(a, b, big, d) * (1 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            radial_moment(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            radial_moment_bound(0.5, 1.0, 0.9, 2)

"""Exact optimal transport between finite measures and stability certificates.

Which solver runs depends on the input.  When both measures have the same
number of atoms and each has all-equal weights, some optimal coupling is a
permutation (Birkhoff-von Neumann): W1 is then the optimal assignment
(``scipy.optimize.linear_sum_assignment``) and W-infinity the bottleneck
assignment, a search over the sorted pairwise distances (from the level
every atom needs to reach the other side, then binary) with a
perfect-matching feasibility test (itself an assignment on 0/1 costs).
Every other pair (weighted or unequal sizes) takes the general solvers: W1
as the transportation linear program (HiGHS dual simplex, an exact vertex
method) and W-infinity by the same search with a max-flow feasibility test
(scipy's int32 ``maximum_flow``, in capacity-scaling phases when the
integer capacities outgrow int32).  The solvers are exact — certifying an
inequality against an approximate transport cost would invalidate its
direction — except that weighted W-infinity rounds weights that are not
near-rational (see :func:`_scaled_capacities`) to integer capacities at
scale 1e9.  Couplings induce correspondences between supports, whose metric
distortion upper-bounds twice the Gromov-Hausdorff distance.

The certificates implemented here:

  smooth kernels:     sup_x ||Sigma_a(x) - Sigma_b(x)|| <= sigma A_f / C_d(sigma) * W1(a, b)
  truncation kernel:  sup_x ||Sigma_a(x) - Sigma_b(x)|| <= lambda A(sigma, d, c) * Winf(a, b)

with A_f = 2 (A1 + A2) from the kernel constants, lambda a density-bound
certificate for the first measure, c a diameter bound of the common
support, and

  A(sigma, d, c) = [d/(d+2)] (sigma+c)^{d+2} / (c sigma^d)
                 + (2 sigma + c)(sigma + c)^d / sigma^d
                 + [2d/(d+2)] (sigma+c)^{d+2} / (c sigma^d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial.distance import cdist

from .fields import ctf_grid
from .kernels import RadialKernel, _check_sigma, builtin_truncation, derive_constants, unit_sphere_area
from .measures import WeightedMeasure, _check_positive

DEFAULT_MAX_ATOMS = 2000
MARGINAL_TOL = 1e-9
_MAX_CAPACITY = 2**31 - 1  # scipy's maximum_flow holds capacities and flows as int32


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix between two weighted measures."""

    coupling: np.ndarray  # (n, m), row sums = source weights, col sums = target weights
    source: WeightedMeasure
    target: WeightedMeasure

    def max_edge(self) -> float:
        """Largest distance carried by the support of the coupling."""
        i, j = np.nonzero(self.coupling > 0)
        if i.size == 0:
            return 0.0
        d = np.linalg.norm(self.source.atoms[i] - self.target.atoms[j], axis=1)
        return float(d.max())

    def marginal_errors(self) -> tuple[float, float]:
        row = np.abs(self.coupling.sum(axis=1) - self.source.weights).max()
        col = np.abs(self.coupling.sum(axis=0) - self.target.weights).max()
        return float(row), float(col)


@dataclass(frozen=True)
class Correspondence:
    """A relation covering both index sets: every i and every j appear."""

    pairs: np.ndarray  # (k, 2) int

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    def covers(self, n: int, m: int) -> bool:
        return (
            np.unique(self.pairs[:, 0]).size == n
            and np.unique(self.pairs[:, 1]).size == m
            and self.pairs[:, 0].min() >= 0
            and self.pairs[:, 1].min() >= 0
            and self.pairs[:, 0].max() < n
            and self.pairs[:, 1].max() < m
        )


def _check_pair(alpha: WeightedMeasure, beta: WeightedMeasure) -> None:
    pair = (("alpha", alpha), ("beta", beta))
    for label, measure in pair:
        if abs(measure.total_mass - 1.0) > MARGINAL_TOL:
            raise ValueError(f"{label} must be a normalized probability measure")
    for label, measure in pair:
        if measure.size > DEFAULT_MAX_ATOMS:
            raise ValueError(f"{label} has {measure.size} atoms > max {DEFAULT_MAX_ATOMS}; subsample it")
    if alpha.dim != beta.dim:
        raise ValueError("measures must live in the same dimension")


def _uniform_equal_size(alpha: WeightedMeasure, beta: WeightedMeasure) -> bool:
    """Both measures have n atoms and all-equal weights.

    Then a permutation scaled by 1/n is an optimal coupling for W1 and for
    W-infinity (Birkhoff-von Neumann), so assignment solvers are exact.  The
    comparison is exact: near-uniform weights keep the general solvers.
    """
    wa, wb = alpha.weights, beta.weights
    return alpha.size == beta.size and bool(np.all(wa == wa[0]) and np.all(wb == wb[0]))


def _assignment_coupling(cost: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Optimal coupling of two equal uniform marginals: the optimal assignment."""
    rows, cols = linear_sum_assignment(cost)
    pi = np.zeros_like(cost)
    pi[rows, cols] = wa[rows]
    return pi


def _lp_coupling(cost: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Optimal coupling of any marginals: the transportation LP (HiGHS dual simplex)."""
    n, m = cost.shape
    # marginal constraints; the last one is redundant and dropped
    row_idx = np.repeat(np.arange(n), m)
    col_idx = n + np.tile(np.arange(m), n)
    var_idx = np.arange(n * m)
    a_eq = sparse.csr_matrix(
        (
            np.ones(2 * n * m),
            (np.concatenate([row_idx, col_idx]), np.concatenate([var_idx, var_idx])),
        ),
        shape=(n + m, n * m),
    )[:-1]
    b_eq = np.concatenate([wa, wb])[:-1]
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return np.maximum(res.x.reshape(n, m), 0.0)


def w1_exact(
    alpha: WeightedMeasure,
    beta: WeightedMeasure,
) -> tuple[float, TransportPlan]:
    """Exact 1-Wasserstein distance and an optimal coupling.

    Minimises <d, pi> over couplings pi with the prescribed marginals.  When
    both measures have the same number of atoms and each has all-equal
    weights, this is the optimal assignment (``linear_sum_assignment``) and
    the plan holds alpha's weight at each matched pair.  Every other pair is
    solved as a linear program with HiGHS dual simplex.  Both return a
    vertex, so the plan has at most n + m - 1 atoms of support.
    """
    _check_pair(alpha, beta)
    cost = cdist(alpha.atoms, beta.atoms)
    solve = _assignment_coupling if _uniform_equal_size(alpha, beta) else _lp_coupling
    pi = solve(cost, alpha.weights, beta.weights)
    value = float((pi * cost).sum())
    return value, TransportPlan(pi, alpha, beta)


def _scaled_capacities(wa: np.ndarray, wb: np.ndarray) -> tuple[list[int], list[int], int]:
    """Integer capacities for both marginals over one common denominator.

    Exact when every weight is within 1e-12 of a rational with denominator
    <= 1e7, each side's common denominator is <= 2^40 and the two sides'
    numerators have equal totals over the joint denominator, whatever its
    size.  Otherwise rounds at scale 1e9 (guard: per-weight distortion
    <= 1e-9 of mass) and repairs the largest entry so both sides carry
    identical total flow.
    """
    sides = [[Fraction(float(w)).limit_denominator(10**7) for w in ws] for ws in (wa, wb)]
    if all(abs(float(f) - float(w)) <= 1e-12 for fs, ws in zip(sides, (wa, wb)) for f, w in zip(fs, ws)):
        denoms = [math.lcm(*(f.denominator for f in fs)) for fs in sides]
        if max(denoms) <= 2**40:
            denom = math.lcm(*denoms)
            a, b = ([f.numerator * (denom // f.denominator) for f in fs] for fs in sides)
            if sum(a) == sum(b):
                return a, b, denom
    scale = 10**9
    a = np.round(wa * scale).astype(np.int64)
    b = np.round(wb * scale).astype(np.int64)
    a[np.argmax(a)] += scale - a.sum()
    b[np.argmax(b)] += scale - b.sum()
    if a.min() <= 0 or b.min() <= 0:
        raise ValueError("weights too small to scale to integer capacities")
    return a.tolist(), b.tolist(), scale


def _bottleneck_search(dist: np.ndarray, feasible) -> tuple[float, object]:
    """Least distinct distance t at which ``feasible(dist <= t)`` gives a witness.

    ``feasible`` maps the boolean matrix of allowed edges to a witness, or to
    None when the mass cannot move along those edges.  Every atom carries
    positive mass, so each row and each column needs an allowed edge: no
    level below the floor max(max_i min_j d_ij, max_j min_i d_ij) is
    feasible.  The floor is probed first, and only when it is infeasible
    does a binary search run over the sorted distinct distances above it.
    Returns (t, witness at t).  When t is the floor, the row or column that
    sets the floor has no edge below t: an O(nm)-checkable witness that the
    level below t is infeasible.
    """
    levels = np.unique(dist)
    lo = int(np.searchsorted(levels, max(dist.min(axis=1).max(), dist.min(axis=0).max())))
    hi, best = lo, feasible(dist <= levels[lo])
    if best is None:
        lo, hi = lo + 1, levels.size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            witness = feasible(dist <= levels[mid])
            if witness is None:
                lo = mid + 1
            else:
                hi, best = mid, witness
        if best is None:  # no level below the maximum was feasible
            best = feasible(dist <= levels[hi])
    if best is None:
        raise RuntimeError("bottleneck search failed at the maximal distance")
    return float(levels[hi]), best


def _matching_bottleneck(dist: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> tuple[float, np.ndarray]:
    """Bottleneck of two equal uniform marginals: a perfect matching on edges <= t.

    A perfect matching exists iff the least-cost assignment under the 0/1
    cost "edge not allowed" costs 0.  Hopcroft-Karp
    (``maximum_bipartite_matching``) answers the same question but took up
    to 25x longer near the threshold on 1-D samples of 1000 atoms.
    """

    def perfect_matching(edges):
        rows, cols = linear_sum_assignment(~edges)
        return cols if edges[rows, cols].all() else None

    value, match = _bottleneck_search(dist, perfect_matching)
    pi = np.zeros_like(dist)
    pi[np.arange(dist.shape[0]), match] = wa
    return value, pi


def _maxflow_bottleneck(dist: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> tuple[float, np.ndarray]:
    """Bottleneck of any marginals: a max flow on edges <= t that saturates the mass.

    ``maximum_flow`` holds capacities and flows as int32, and its flow is wrong
    once an arc and its reverse together exceed ``_MAX_CAPACITY``, so a larger
    total moves by capacity scaling (Ahuja, Magnanti & Orlin, *Network Flows*,
    sec. 7.3): phase 1 on the forward capacities in units of 2^k, the least k
    that fits the total within ``_MAX_CAPACITY``; after a phase at unit 2^k the
    residual max flow is at most E (2^k - 1) for E arcs, so the next drops as
    many bits as keep E 2^bits within ``_MAX_CAPACITY // 2``, a cap on residual
    forward and reverse capacities alike that thus never binds.  Flows are
    int64 below 2^53, where quotients round correctly, else Python integers.
    """
    n, m = dist.shape
    a, b, denom = _scaled_capacities(wa, wb)
    total = sum(a)
    a, b = (np.array(v, dtype=np.int64 if total < 2**53 else object) for v in (a, b))
    first_shift = max(0, total.bit_length() - _MAX_CAPACITY.bit_length())
    half, snk = _MAX_CAPACITY // 2, n + m + 1  # the source is node 0

    def saturating_flow(edges):
        ii, jj = np.nonzero(edges)
        tails = np.concatenate([np.zeros(n, dtype=np.int64), 1 + ii, 1 + n + np.arange(m)])
        heads = np.concatenate([1 + np.arange(n), 1 + n + jj, np.full(m, snk, dtype=np.int64)])
        caps = np.concatenate([a, np.minimum(a[ii], b[jj]), b])
        drop = half.bit_length() - 1 - caps.size.bit_length()
        flow, sent, shift = np.zeros(caps.size, caps.dtype), 0, first_shift
        caps_k, arcs_k = caps >> shift, (tails, heads)  # forward arcs only, within the cap by the choice of k
        while True:
            graph = sparse.csr_matrix((caps_k.astype(np.int32), arcs_k), shape=(snk + 1, snk + 1))
            result = maximum_flow(graph, 0, snk)
            sent += int(result.flow_value) << shift
            if sent == total:
                return ii, jj, flow, result, shift
            if shift == 0 or sent + caps.size * ((1 << shift) - 1) < total:
                return None  # after a phase at unit 2^k the residual max flow is at most E (2^k - 1)
            flow = flow + (np.asarray(result.flow[tails, heads]).ravel().astype(a.dtype) << shift)
            shift = max(0, shift - drop)
            caps_k = np.minimum(np.concatenate([caps - flow, flow]) >> shift, half)  # residual forward, reverse
            arcs_k = (np.concatenate([tails, heads]), np.concatenate([heads, tails]))

    value, (ii, jj, earlier, last, shift) = _bottleneck_search(dist, saturating_flow)
    flows = last.flow[1 : n + 1, n + 1 : snk].toarray()  # the last phase's net flows, sources to sinks
    if first_shift:  # in units of 2^shift, after the earlier phases' flows
        flows = flows.astype(a.dtype) << shift
        flows[ii, jj] += earlier[n : n + ii.size]
    return value, np.asarray(flows / denom, dtype=float)  # correctly rounded quotients


def winf_exact(
    alpha: WeightedMeasure,
    beta: WeightedMeasure,
) -> tuple[float, TransportPlan]:
    """Exact infinity-Wasserstein (bottleneck) distance and a witness plan.

    Finds the least distinct pairwise distance t at which all mass can
    move along edges <= t: the floor (the largest distance from an atom to
    its nearest atom of the other measure) first, then a binary search
    above it.  When both measures have the same number of atoms and each
    has all-equal weights, the test is a perfect bipartite matching (a
    0/1-cost ``linear_sum_assignment``); for every other pair it is a max
    flow that saturates the total mass, on weights scaled to integer
    capacities (exactly when near-rational, else rounded at scale 1e9, so
    the marginals hold to 1e-9 of mass).  The witness plan's largest support
    edge equals the returned value.
    """
    _check_pair(alpha, beta)
    dist = cdist(alpha.atoms, beta.atoms)
    search = _matching_bottleneck if _uniform_equal_size(alpha, beta) else _maxflow_bottleneck
    value, pi = search(dist, alpha.weights, beta.weights)
    return value, TransportPlan(pi, alpha, beta)


def distortion(corr: Correspondence, d_x: np.ndarray, d_y: np.ndarray) -> float:
    """Metric distortion of a correspondence: max |d_X(i,i') - d_Y(j,j')|.

    The max runs over all pairs of related pairs; twice the Gromov-Hausdorff
    distance is the infimum of this quantity over correspondences.
    """
    d_x = np.asarray(d_x, dtype=float)
    d_y = np.asarray(d_y, dtype=float)
    if not corr.covers(d_x.shape[0], d_y.shape[0]):
        raise ValueError("relation does not cover both index sets")
    i = corr.pairs[:, 0]
    j = corr.pairs[:, 1]
    return float(np.abs(d_x[np.ix_(i, i)] - d_y[np.ix_(j, j)]).max())


def correspondence_from_plan(plan: TransportPlan) -> Correspondence:
    """Correspondence given by the (thresholded) support of a coupling.

    Pairs with pi_ij > 1e-9 * max(pi) are kept; rows or columns that
    end up uncovered are supplemented with their largest-mass pair so the
    result is always a correspondence.
    """
    pi = plan.coupling
    cut = 1e-9 * pi.max()
    ii, jj = np.nonzero(pi > cut)
    covered_i = np.zeros(pi.shape[0], dtype=bool)
    covered_j = np.zeros(pi.shape[1], dtype=bool)
    covered_i[ii] = True
    covered_j[jj] = True
    extra_i = np.nonzero(~covered_i)[0]
    extra_j = np.nonzero(~covered_j)[0]
    pairs = [np.column_stack([ii, jj])]
    if extra_i.size:
        pairs.append(np.column_stack([extra_i, pi[extra_i].argmax(axis=1)]))
    if extra_j.size:
        pairs.append(np.column_stack([pi[:, extra_j].argmax(axis=0), extra_j]))
    return Correspondence(np.concatenate(pairs, axis=0))


# ---------------------------------------------------------------------------
# stability certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Observed field deviation against its theoretical bound."""

    lhs: float  # sup over the grid of the Frobenius field difference
    rhs: float  # theoretical bound
    transport_cost: float
    constants: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 1e-9 * abs(self.rhs)

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "passed": self.passed,
            "transport_cost": self.transport_cost,
            "constants": dict(self.constants),
        }


def _grid_sup_diff(alpha, beta, kernel, sigma, grid) -> float:
    ga = ctf_grid(alpha, kernel, grid, sigma).tensors
    if ga.shape[0] == 0:
        raise ValueError("the grid has no point: a sup over no point certifies nothing")
    gb = ctf_grid(beta, kernel, grid, sigma).tensors
    return float(np.linalg.norm(ga - gb, axis=(1, 2)).max())


_w1_memo = (None, 0.0)  # (key, W1) of the last pair check_stability_smooth solved


def check_stability_smooth(
    alpha: WeightedMeasure,
    beta: WeightedMeasure,
    kernel: RadialKernel,
    sigma: float,
    grid,
) -> StabilityReport:
    """Certify sup_x ||Sigma_a - Sigma_b|| <= sigma A_f / C_d(sigma) * W1(a, b).

    Requires a smooth-stability-eligible kernel (finite A1) and a grid of
    at least one point.  W1 does not depend on sigma, so a sweep over sigma
    solves it once: a one-entry memo keeps the last pair's W1, keyed on the
    ordered pair's shapes and atom and weight bytes and swapped in one
    assignment (threads may share it; a race only solves again).  Every
    report is the one a fresh solve gives.
    """
    global _w1_memo
    consts = derive_constants(kernel, alpha.dim)
    if not consts.smooth_stability_eligible:
        raise ValueError("kernel is not smooth-stability eligible (no finite A1)")
    factor = sigma * consts.a_f / consts.c_d(sigma)  # checks sigma before the transport solve
    key = tuple((m.atoms.shape, m.atoms.tobytes(), m.weights.tobytes()) for m in (alpha, beta))
    last, w1 = _w1_memo
    if last != key:
        w1 = w1_exact(alpha, beta)[0]
        _w1_memo = (key, w1)
    lhs = _grid_sup_diff(alpha, beta, kernel, sigma, grid)
    rhs = factor * w1
    return StabilityReport(
        lhs,
        rhs,
        w1,
        {"A_f": consts.a_f, "C_d": consts.c_d(sigma), "sigma": sigma},
    )


def truncation_stability_constant(sigma: float, d: int, c: float) -> float:
    """The three-term constant A(sigma, d, c) of the truncation-kernel bound."""
    _check_sigma(sigma)
    _check_positive("c", c)
    t1 = d / (d + 2.0) * (sigma + c) ** (d + 2) / (c * sigma**d)
    t2 = (2.0 * sigma + c) * (sigma + c) ** d / sigma**d
    t3 = 2.0 * d / (d + 2.0) * (sigma + c) ** (d + 2) / (c * sigma**d)
    return t1 + t2 + t3


def check_stability_trunc(
    alpha: WeightedMeasure,
    beta: WeightedMeasure,
    sigma: float,
    c: float,
    lam: float,
    grid,
) -> StabilityReport:
    """Certify the truncation-kernel bound lambda A(sigma, d, c) Winf(a, b).

    ``lam`` is a caller-supplied density-bound certificate: the first
    measure must satisfy alpha(A) <= lam * Lebesgue(A) (e.g. max weight /
    min quadrature cell volume for a quadrature measure).  Purely atomic
    measures have no such bound, so runs on them are heuristic.  The grid
    needs at least one point.
    """
    if lam is None or not 0 < lam < math.inf:
        raise ValueError(f"a finite, positive density bound lam is required, got {lam!r}")
    a_const = truncation_stability_constant(sigma, alpha.dim, c)  # checks sigma and c before the solve
    winf, _ = winf_exact(alpha, beta)
    lhs = _grid_sup_diff(alpha, beta, builtin_truncation(), sigma, grid)
    rhs = lam * a_const * winf
    return StabilityReport(
        lhs,
        rhs,
        winf,
        {"A": a_const, "lambda": lam, "c": c, "sigma": sigma},
    )


def radial_moment(a: float, b: float, d: int) -> float:
    """Radial moment of inertia of the annulus a < ||y|| <= b in R^d.

    s_d(a, b) = omega_{d-1} / (d+2) * (b^{d+2} - a^{d+2}).
    """
    if not (0 <= a < b):
        raise ValueError("need 0 <= a < b")
    return unit_sphere_area(d) / (d + 2.0) * (b ** (d + 2) - a ** (d + 2))


def radial_moment_bound(a: float, b: float, big_b: float, d: int) -> float:
    """Upper bound (b-a) * omega_{d-1}/(d+2) * B^{d+2}/(B-a) for any B >= b."""
    if not (0 <= a < b <= big_b):
        raise ValueError("need 0 <= a < b <= B")
    return (b - a) * unit_sphere_area(d) / (d + 2.0) * big_b ** (d + 2) / (big_b - a)

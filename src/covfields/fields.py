"""Covariance tensor fields and Fréchet functions of weighted measures.

The field of a measure alpha at scale sigma assigns to each point x the
kernel-weighted covariance about x,

    Sigma(x, sigma) = sum_i w_i (y_i - x)(y_i - x)^T K(x, y_i, sigma),

a symmetric positive semi-definite d x d tensor.  The Fréchet value
V(x, sigma) = sum_i w_i ||y_i - x||^2 K(x, y_i, sigma) equals the trace of
the tensor.  Every tensor comes from one accumulator over blocks of
queries, one contiguous difference array per coordinate in which each
query's candidate atoms are one row or one segment: each tensor entry is
one reduction per query, so under every kernel a query's bits do not
depend on the other queries or on how they are blocked.  Under a compactly
supported kernel the atoms are binned into a cell list: a query skips the
cells outside its kernel ball, tests the atoms of the cells on the ball's
boundary one by one, and, when the profile is constant on its support,
adds each cell inside the ball from the cell's moments in one step.  The
gradient flow of V moves all its starts together, one pass over the same
blocks and kernel weights giving V and grad V per step.  Measures and
kernels are immutable during evaluation and every query is independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import RadialKernel
from .measures import WeightedMeasure, _point, _points, write_csv

SYM_TOL = 1e-12
# (query, atom) pairs per block, (query, cell) pairs per chunk; at most 2 * 8192, so a block over more
# than 8192 atoms holds one row: past numpy's 8192-element buffer einsum's row sums depend on the others
_PAIR_BUDGET = 1 << 14
# cells per support radius along each axis of ctf_grid's cell list, at most
_CELLS_PER_RADIUS = 8
# atoms in the mean atom's cell below which ctf_grid coarsens its cells
_MIN_OCCUPANCY = 32


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


def dimension_estimate(s: SpectrumSummary) -> int:
    """Number of eigenvalues within a factor 1/2 of the largest.

    Counts eigenvalues with lambda_i / lambda_max > 0.5 (the largest
    counts itself); returns 0 for the zero tensor.
    """
    lam = s.eigenvalues
    top = lam[-1]
    if top <= 0:
        return 0
    return int(np.sum(lam / top > 0.5))


def ctf_at(measure: WeightedMeasure, kernel: RadialKernel, x, sigma: float) -> CovTensor:
    """Covariance tensor of the measure about x at scale sigma.

    A one-point :func:`ctf_grid`; the zero tensor when no atom has positive
    kernel weight (e.g. an isolated query under the truncation kernel).
    """
    return CovTensor(ctf_grid(measure, kernel, _point(x, measure.dim)[None], sigma).tensors[0])


def frechet_value(measure: WeightedMeasure, kernel: RadialKernel, x, sigma: float) -> float:
    """Multiscale Fréchet value: sum_i w_i ||y_i - x||^2 K(x, y_i, sigma).

    Computed as a direct weighted sum (not via the tensor trace), so the
    trace identity V = tr Sigma is a genuine cross-check.  It is the flow's
    pass on one row, so the flow descends these bits.
    """
    return float(_frechet_pass(measure, kernel, _point(x, measure.dim)[None], sigma)[0][0])


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

    An atom counts iff ||y - x||^2 <= css sigma^2, css the kernel's support
    radius squared.  Under full support (or css sigma^2 beyond the float
    range), or for a single query, every atom is a candidate.  Otherwise
    the atoms are binned into cells of side
    sigma sqrt(css) / ``_CELLS_PER_RADIUS``, coarsened up to sigma sqrt(css)
    while an atom's cell holds fewer than ``_MIN_OCCUPANCY`` atoms on
    average.  Each query classifies the cells of its x_1-slab by the
    bounding box of their atoms, with a 1e-9 relative margin: a cell wholly
    outside the ball is skipped; a cell wholly inside it, under a profile
    equal to 1 on its support (``"flat"`` in ``kernel.analytic``), adds its
    weight M0, centroid g and scatter S as S + M0 (g - x)(g - x)^T; every
    other cell tests its atoms one by one.  Each query's candidates are one
    segment, in cell order (under full support, one row of all the atoms),
    and each of the d(d+1)/2 tensor entries is one reduction per segment.
    Segments go in blocks of whole queries with at most ``_PAIR_BUDGET``
    candidates, or of one query, so under every kernel a row's bits depend
    on its query alone, not on the other queries or on the blocking (under
    full support every row is bitwise the :func:`ctf_at` of its query).
    ``acceleration`` selects no code, and ``"indexed"`` requires a
    compactly supported kernel.
    """
    d = measure.dim
    pts = _points(query_points, d)
    if acceleration not in ("exact", "indexed"):
        raise ValueError("acceleration must be 'exact' or 'indexed'")
    css = kernel.compact_support_radius_sq
    if acceleration == "indexed" and css is None:
        raise ValueError("indexed acceleration requires a compactly supported kernel")
    c_d = kernel.normalizer(sigma, d)
    r2cap = math.inf if css is None else css * sigma * sigma
    if math.isfinite(r2cap) and len(pts) > 1:
        tensors = _cell_sum(measure.atoms, measure.weights, c_d, pts, kernel, sigma, r2cap)
    else:
        tensors = np.empty((len(pts), d, d))
        weights = measure.weights / c_d
        for rows, diff in _blocks(measure.atoms, pts):
            tensors[rows] = _accumulate(diff, weights, kernel.profile, sigma, r2cap)
    tensors = 0.5 * (tensors + np.transpose(tensors, (0, 2, 1)))
    traces = np.trace(tensors, axis1=1, axis2=2)
    return FieldGrid(pts, sigma, tensors, traces)


def _blocks(atoms, pts):
    """(rows, [contiguous (rows, atoms) array y_k - x_k per coordinate k]) per block of
    at most ``_PAIR_BUDGET`` (point, atom) pairs, or of one point."""
    cols = np.ascontiguousarray(atoms.T)
    per = max(1, _PAIR_BUDGET // len(atoms))
    for s in range(0, len(pts), per):
        rows = slice(s, s + per)
        yield rows, [col - pts[rows, k, None] for k, col in enumerate(cols)]


def _r2(diff):
    """sum_k diff[k]^2 in a new array, the squares added in coordinate order."""
    r2 = diff[0] * diff[0]
    for dk in diff[1:]:
        r2 += dk * dk
    return r2


def _kernel_weights(diff, w, profile, sigma: float, r2cap: float):
    """u = r^2 / sigma^2 and w f(u) [r^2 <= r2cap] from the per-coordinate differences ``diff``.

    Only elementwise operations, in place where they can be, so each row's
    bits do not depend on the other rows of its block.
    """
    u = _r2(diff)
    inside = u <= r2cap if math.isfinite(r2cap) else None
    u *= 1.0 / (sigma * sigma)
    f = profile(u)
    f *= w
    if inside is not None:
        f *= inside
    return u, f


def _accumulate(diff, w, profile, sigma: float, r2cap: float, starts=None) -> np.ndarray:
    """sum_k w_k f(r_k^2 / sigma^2) [r_k^2 <= r2cap] (y_k - x)(y_k - x)^T per row of ``diff``.

    ``diff`` holds one (b, k) difference array per coordinate, or, with
    ``starts``, one flat array per coordinate whose rows are the nonempty
    segments beginning at ``starts``.  Each entry of the upper triangle is
    one row reduction, mirrored below: no matrix product, so each row's bits
    do not depend on the other rows.
    """
    _, f = _kernel_weights(diff, w, profile, sigma, r2cap)
    d = len(diff)
    out = np.empty((len(f) if starts is None else len(starts), d, d))
    fj = np.empty_like(f)
    for j in range(d):
        np.multiply(f, diff[j], out=fj)
        for k in range(j, d):
            out[:, j, k] = out[:, k, j] = (np.einsum("bk,bk->b", fj, diff[k]) if starts is None
                                           else np.add.reduceat(fj * diff[k], starts))
    return out


def _ranges(starts, counts) -> np.ndarray:
    """The concatenation of arange(s, s + c) over the pairs (s, c)."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _cell_sum(atoms, weights, c_d: float, pts, kernel: RadialKernel, sigma: float, r2cap: float) -> np.ndarray:
    """Unsymmetrized tensors at ``pts`` from a cell list of the atoms, weighted weights / c_d (see ctf_grid)."""
    n, d = atoms.shape
    radius = math.sqrt(r2cap)
    reach, side = radius * (1.0 + 1e-9), radius / _CELLS_PER_RADIUS
    origin = np.array([col.min() for col in atoms.T])
    key = np.empty_like(atoms)
    while True:  # coarser cells while an atom's cell holds too few atoms to pay for its test
        np.subtract(atoms, origin, out=key)
        key /= side
        np.floor(key, out=key)  # floats: no lattice index to overflow
        order = np.lexsort(key.T[::-1])  # cells in lexicographic key order, so by x_1 first
        key = np.take(key, order, axis=0)
        first = np.flatnonzero(np.r_[True, np.any(key[1:] != key[:-1], axis=1)])
        size = np.diff(np.r_[first, n])
        occupancy = float(size @ size) / n
        if occupancy >= _MIN_OCCUPANCY or side >= radius:
            break
        # an atom's cell holds 1 + lambda atoms, lambda ~ side^d when the atoms fill d dimensions;
        # aim at twice the bound, so that few passes reach it when they fill fewer
        side = min(radius, side * (2.0 * _MIN_OCCUPANCY / max(occupancy - 1.0, 1e-3)) ** (1.0 / d))
    cell_x1 = key[first, 0]
    del key
    # candidate sources: the atoms by cell, then a pseudo-atom at lo (offset by mu) of weight M0
    # per cell; built one coordinate row at a time, so the scratch beyond them is a few n-sized rows
    c = len(first)
    pos, wts = np.empty((d, n + c)), np.empty(n + c)
    for k in range(d):
        np.take(atoms[:, k], order, out=pos[k, :n])
    w = np.take(weights, order, out=wts[:n])
    w /= c_d
    del order
    lo, hi = np.minimum.reduceat(pos[:, :n], first, axis=1), np.maximum.reduceat(pos[:, :n], first, axis=1)
    m0 = np.add.reduceat(w, first)
    dev = np.empty((d, n))
    mu = np.empty((d, c))
    for k in range(d):  # moments about lo: exact for far-off cells
        np.subtract(pos[k, :n], np.repeat(lo[k], size), out=dev[k])
        mu[k] = np.add.reduceat(w * dev[k], first) / m0
        dev[k] -= np.repeat(mu[k], size)
    scatter = np.empty((c, d, d))
    for j in range(d):
        wdev = w * dev[j]
        for k in range(d):  # all d^2 entries: (w dev_j) dev_k and (w dev_k) dev_j can differ in bits
            scatter[:, j, k] = np.add.reduceat(wdev * dev[k], first)
    del dev, wdev
    pos[:, n:], wts[n:] = lo, m0
    lo, hi = lo.T, hi.T  # one row per cell, as the queries
    flat = bool(kernel.analytic.get("flat", False))
    # cells whose x_1 key can meet each query's ball, by the atoms' own key rule
    bound = np.floor((pts[:, :1] + np.array([-reach, reach]) - origin[0]) / side)
    clo = np.searchsorted(cell_x1, bound[:, 0], "left")
    npair = np.searchsorted(cell_x1, bound[:, 1], "right") - clo
    cum = np.cumsum(npair)
    out = np.zeros((len(pts), d, d))
    a = 0
    while a < len(pts):  # chunks of queries with at most _PAIR_BUDGET (query, cell) pairs
        b = max(a + 1, int(np.searchsorted(cum, cum[a] - npair[a] + _PAIR_BUDGET, "right")))
        pq = np.repeat(np.arange(a, b), npair[a:b])
        pc = _ranges(clo[a:b], npair[a:b])
        x, blo, bhi = (np.take(v, i, axis=0) for v, i in ((pts, pq), (lo, pc), (hi, pc)))
        near = np.maximum(np.maximum(blo - x, x - bhi), 0.0)
        far = np.maximum(x - blo, bhi - x)
        keep = np.einsum("pd,pd->p", near, near) <= r2cap * (1.0 + 1e-9)
        whole = keep & (np.einsum("pd,pd->p", far, far) < r2cap * (1.0 - 1e-9)) & flat
        del x, blo, bhi, near, far
        np.add.at(out, pq[whole], scatter[pc[whole]])
        pq, pc, whole = pq[keep], pc[keep], whole[keep]
        # a query's candidates are one segment: its kept cells' atoms or pseudo-atoms, in cell
        # order; a query with no kept cell has no segment (reduceat sums no empty one to 0)
        src0 = np.where(whole, n + pc, first[pc])
        cnt = np.where(whole, 1, size[pc])
        qb = np.flatnonzero(np.diff(pq, prepend=-1, append=b))  # each query's first pair, then the end
        cb = np.r_[0, np.cumsum(cnt)][qb]  # candidates before each such pair
        i = 0
        while i < len(qb) - 1:  # blocks of whole queries with at most _PAIR_BUDGET candidates
            j = max(i + 1, int(np.searchsorted(cb, cb[i] + _PAIR_BUDGET, "right")) - 1)
            pp = slice(qb[i], qb[j])
            src = _ranges(src0[pp], cnt[pp])
            qq = pq[qb[i:j]]
            diff = [np.take(pos[k], src) - np.repeat(pts[qq, k], np.diff(cb[i : j + 1])) for k in range(d)]
            cells = np.flatnonzero(src >= n)
            for k in range(d):
                diff[k][cells] += mu[k, src[cells] - n]
            out[qq] += _accumulate(diff, np.take(wts, src), kernel.profile, sigma, r2cap, cb[i:j] - cb[i])
            i = j
        a = b
    return out


def _frechet_pass(measure: WeightedMeasure, kernel: RadialKernel, pts, sigma: float, grad=False):
    """V at each row of ``pts`` and, with ``grad`` (Gaussian kernel only), grad V.

    :func:`frechet_value` and :func:`frechet_gradient` are this pass on one
    row.  The points go in the blocks of :func:`_blocks`, and only
    elementwise operations and row reductions touch them, so each row's
    bits do not depend on the other rows of its block.  No
    |y|^2 - 2 y.x + |x|^2 expansion: the flow's stopping rule needs the
    digits it would cancel.
    """
    if grad and kernel.name != "gaussian":
        raise ValueError("analytic gradient is only available for the gaussian kernel")
    w = measure.weights / kernel.normalizer(sigma, measure.dim)
    v, g = np.empty(len(pts)), np.empty((len(pts), measure.dim))
    for rows, diff in _blocks(measure.atoms, pts):
        u, f = _kernel_weights(diff, w, kernel.profile, sigma, math.inf)
        v[rows] = sigma * sigma * np.einsum("bk,bk->b", f, u)
        if grad:
            u -= 2.0
            f *= u
            for k, dk in enumerate(diff):
                g[rows, k] = np.einsum("bk,bk->b", dk, f)
    return v, g


def frechet_gradient(measure: WeightedMeasure, kernel: RadialKernel, x, sigma: float) -> np.ndarray:
    """Gradient of the Fréchet function at x, for the Gaussian kernel.

    Differentiates the Gaussian convolution form termwise:
    grad V = sum_i w_i G(x, y_i, sigma) (y_i - x)(r_i^2/sigma^2 - 2) with
    r_i = ||y_i - x||, a one-point pass of the flow's evaluator.
    """
    return _frechet_pass(measure, kernel, _point(x, measure.dim)[None], sigma, grad=True)[1][0]


# the gradient flow (see flow_to_attractor and basin_labels); the step and
# the merge radius divide sigma, since sigma * 0.1 and sigma / 10 differ in bits
_FLOW_STEP_DIV = 10.0
_FLOW_SHRINK = 0.5
_FLOW_ARMIJO = 1e-4
_FLOW_GRAD_TOL = 1e-8
_FLOW_MAX_STEPS = 10000
_FLOW_MERGE_DIV = 100.0


@dataclass
class FlowResult:
    start: np.ndarray
    attractor: np.ndarray
    path: np.ndarray
    converged: bool
    basin_id: int = -1


# a flow whose attractor has no atom within this many sigma has escaped the data
_ESCAPE_SIGMAS = 3.0


def _flow(measure: WeightedMeasure, kernel: RadialKernel, starts, sigma: float):
    """Descend V from a copy of every row of ``starts`` together (see :func:`flow_to_attractor`).

    Each iteration makes one V and grad V pass over the active starts, then
    V-only passes over the starts whose line search is still trying a step;
    one last pass finds the escaped attractors.  Returns the attractors, the
    paths, the converged flags (False for an escaped flow) and the escaped mask.
    """
    x = starts.copy()
    step0 = sigma / _FLOW_STEP_DIV
    paths = [[row.copy()] for row in x]
    steps = np.zeros(len(x), dtype=np.int64)
    converged = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    while active.size:
        v, g = _frechet_pass(measure, kernel, x[active], sigma, grad=True)
        gn = np.sqrt(np.sum(g * g, axis=1))
        stop = steps[active] >= _FLOW_MAX_STEPS
        small = ~stop & (gn < _FLOW_GRAD_TOL * np.maximum(1.0, v))
        converged[active[small]] = True
        keep = ~(stop | small)
        active, v, gn = active[keep], v[keep], gn[keep]
        direction = -g[keep] / gn[:, None]
        t = np.full(len(active), float(step0))
        moved = np.zeros(len(active), dtype=bool)
        trial = np.flatnonzero(t > 1e-15 * step0)
        while trial.size:  # backtracking (Armijo) line search, one step size per start
            cand = x[active[trial]] + t[trial, None] * direction[trial]
            vc = _frechet_pass(measure, kernel, cand, sigma)[0]
            ok = vc <= v[trial] - _FLOW_ARMIJO * t[trial] * gn[trial]
            x[active[trial[ok]]] = cand[ok]
            moved[trial[ok]] = True
            trial = trial[~ok]
            t[trial] *= _FLOW_SHRINK
            trial = trial[t[trial] > 1e-15 * step0]
        # no descent direction at line-search resolution: treat as converged
        converged[active[~moved]] = True
        active = active[moved]
        steps[active] += 1
        for i in active:
            paths[i].append(x[i].copy())
    escaped = np.empty(len(x), dtype=bool)
    for rows, diff in _blocks(measure.atoms, x):  # min_i r_i^2 / sigma^2, as the passes scale r^2
        escaped[rows] = np.min(_r2(diff) * (1.0 / (sigma * sigma)), axis=1) > _ESCAPE_SIGMAS**2
    return x, [np.asarray(path) for path in paths], converged & ~escaped, escaped


def flow_to_attractor(
    measure: WeightedMeasure,
    kernel: RadialKernel,
    start,
    sigma: float,
) -> FlowResult:
    """Descend the Fréchet function from ``start`` by backtracking line search.

    Each line search tries a step of sigma/10 first and halves it until V
    falls by at least 1e-4 * step * ||grad V|| (Armijo).  Terminates when
    ||grad V|| < 1e-8 max(1, V), when no step of at least 1e-15 times the
    initial step descends (both count as converged), or after 10000 steps;
    non-convergence is reported in the result flag, never raised.  A flow
    whose attractor has no atom within 3 sigma has escaped the data and is
    not converged.  The result is bit for bit :func:`basin_labels` run on
    this one start.  Requires the Gaussian kernel (a smooth V) and a finite
    start.
    """
    start = _point(start, measure.dim)
    x, paths, converged, _ = _flow(measure, kernel, start[None], sigma)
    return FlowResult(start, x[0], paths[0], bool(converged[0]))


def basin_labels(
    measure: WeightedMeasure,
    kernel: RadialKernel,
    starts,
    sigma: float,
) -> tuple[np.ndarray, np.ndarray, list[FlowResult]]:
    """Flow every start to its attractor and group attractors into basins.

    All starts descend together, each as :func:`flow_to_attractor` would
    take it.  A flow whose attractor has no atom within 3 sigma has escaped
    (far from the data V decays to 0, so such flows run outward): it gets
    basin -1 and ``converged`` False, and its attractor is not returned.
    The other attractors closer than sigma/100 are identified.  Returns
    (labels, attractor positions (k, d), flow results) with results ordered
    as the inputs.
    """
    merge_r = sigma / _FLOW_MERGE_DIV
    starts = _points(starts, measure.dim)
    x, paths, converged, escaped = _flow(measure, kernel, starts, sigma)
    results = [FlowResult(*row) for row in zip(starts, x, paths, converged.tolist())]
    reps: list[np.ndarray] = []
    labels = np.full(len(results), -1, dtype=np.int64)
    for i in np.flatnonzero(~escaped):
        for j, r in enumerate(reps):
            if np.linalg.norm(x[i] - r) <= merge_r:
                labels[i] = j
                break
        else:
            reps.append(x[i])
            labels[i] = len(reps) - 1
    for res, label in zip(results, labels.tolist()):
        res.basin_id = label
    return labels, np.reshape(reps, (-1, measure.dim)), results

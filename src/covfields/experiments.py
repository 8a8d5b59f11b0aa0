"""Experiment harnesses: empirical convergence rates and clustering benchmarks.

Everything here is reproducible from (config, seed): replicate r draws from
a counter-based Philox stream keyed ``seed XOR r``, and results are gathered
in input order regardless of the execution pool, so two runs with the same
config produce identical outputs.  The harnesses write no file; reports do.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.spatial.distance import pdist

from . import clustering as cl
from .fields import ctf_grid
from .geometry import circle_tensor
from .kernels import builtin_truncation, kernel_by_name
from .measures import _philox, empirical_measure, gen_arrangement_suite, json_dumps, write_csv
from .plots import loglog_svg


def square_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n x n grid of points on [lo, hi]^2, row-major."""
    axis = np.linspace(lo, hi, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, on a thread pool when ``threads > 1``."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


class _Report:
    """A harness's result: strict JSON, written with one table by :meth:`_write`."""

    def to_json(self) -> str:
        return json_dumps(asdict(self), indent=2)

    def _write(self, directory, stem: str, header, columns) -> str:
        """Write ``stem``.json and the table ``stem``.csv into ``directory``; return the JSON."""
        text = self.to_json()  # a non-finite value fails here, before any file is written
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, f"{stem}.json"), "w") as fh:
            fh.write(text + "\n")
        write_csv(os.path.join(directory, f"{stem}.csv"), header, columns)
        return text


# ---------------------------------------------------------------------------
# convergence of empirical covariance fields on the circle
# ---------------------------------------------------------------------------

@dataclass
class ConvergeConfig:
    radius: float = 1.0
    sigma: float = 0.6
    grid_n: int = 24
    grid_lo: float = -1.5
    grid_hi: float = 1.5
    n_values: tuple = (10, 100, 1000, 10000, 100000)
    replicates: int = 30
    seed: int = 0
    threads: int = 1


@dataclass
class ConvergenceReport(_Report):
    """Mean sup-grid errors by sample size with rate fits.

    epsilon_n is the mean over replicates of the grid maximum of the
    Frobenius deviation between the empirical field and the closed form of
    the uniform circle law.  Fits are least squares in log-log scale for the
    models C ln(n)^{3/4} n^{-1/2} and C n^{-1/2} (constants only) and
    C n^p (free exponent); a one-value ladder cannot determine the last, and
    its three fields are then None (JSON null).
    """

    n_values: list
    mean_errors: list
    rep_errors: list  # per n, list over replicates
    fit_lograte_constant: float
    fit_lograte_residual: float
    fit_sqrt_constant: float
    fit_sqrt_residual: float
    fit_power_constant: float | None
    fit_power_exponent: float | None
    fit_power_residual: float | None
    monotone_decreasing: bool

    def save(self, directory) -> str:
        """Write converge.json, converge.csv and the log-log plot converge.svg; return the JSON."""
        text = self._write(directory, "converge", ["n", "mean_error"], [self.n_values, self.mean_errors])
        nv = np.asarray(self.n_values, dtype=float)
        series = [
            ("observed", self.mean_errors),
            ("C*ln(n)^0.75/sqrt(n)", self.fit_lograte_constant * np.log(nv) ** 0.75 / np.sqrt(nv)),
            ("C/sqrt(n)", self.fit_sqrt_constant / np.sqrt(nv)),
        ]
        loglog_svg(nv, series, os.path.join(directory, "converge.svg"))
        return text


def _exact_circle_field(cfg: ConvergeConfig, grid: np.ndarray) -> np.ndarray:
    # closed form for unit-mass (normalized arc length) circle law
    total = 2.0 * math.pi * cfg.radius
    out = np.zeros((grid.shape[0], 2, 2))
    for i, x in enumerate(grid):
        out[i] = circle_tensor(cfg.radius, x, cfg.sigma).entries / total
    return out


def run_converge(cfg: ConvergeConfig) -> ConvergenceReport:
    """Sample i.i.d. points from the uniform circle law and tabulate errors."""
    if not cfg.n_values:
        raise ValueError("n_values: empty n ladder")
    if cfg.replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {cfg.replicates}")
    if cfg.grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {cfg.grid_n}")
    n_values = sorted(int(n) for n in cfg.n_values)
    if n_values[0] < 2:  # the log-rate model takes ln ln n
        raise ValueError(f"every n in the ladder must be at least 2, got {n_values[0]}")
    grid = square_grid(cfg.grid_lo, cfg.grid_hi, cfg.grid_n)
    exact = _exact_circle_field(cfg, grid)
    kernel = builtin_truncation()

    def one_replicate(rep: int) -> list[float]:
        rng = _philox(cfg.seed, stream=rep)
        errs = []
        for n in n_values:
            theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
            pts = np.empty((n, 2))
            np.cos(theta, out=pts[:, 0])
            np.sin(theta, out=pts[:, 1])
            pts *= cfg.radius
            emp = empirical_measure(pts)
            tensors = ctf_grid(emp, kernel, grid, cfg.sigma).tensors
            errs.append(float(np.linalg.norm(tensors - exact, axis=(1, 2)).max()))
        return errs

    # (reps, len(n_values))
    per_n = np.asarray(_map(one_replicate, range(cfg.replicates), cfg.threads))
    eps = per_n.mean(axis=0)

    ln = np.log(np.asarray(n_values, dtype=float))
    le = np.log(eps)
    log_r2 = 0.75 * np.log(np.log(np.asarray(n_values, dtype=float))) - 0.5 * ln
    c_r2 = float(np.exp(np.mean(le - log_r2)))
    res_r2 = float(np.sqrt(np.mean((le - (math.log(c_r2) + log_r2)) ** 2)))
    c_sq = float(np.exp(np.mean(le + 0.5 * ln)))
    res_sq = float(np.sqrt(np.mean((le - (math.log(c_sq) - 0.5 * ln)) ** 2)))
    fit_power = (None, None, None)
    if len(n_values) >= 2:
        p, logc = np.polyfit(ln, le, 1)
        fit_power = (float(np.exp(logc)), float(p),
                     float(np.sqrt(np.mean((le - (logc + p * ln)) ** 2))))

    return ConvergenceReport(
        n_values=n_values,
        mean_errors=[float(e) for e in eps],
        rep_errors=per_n.T.tolist(),
        fit_lograte_constant=c_r2,
        fit_lograte_residual=res_r2,
        fit_sqrt_constant=c_sq,
        fit_sqrt_residual=res_sq,
        fit_power_constant=fit_power[0],
        fit_power_exponent=fit_power[1],
        fit_power_residual=fit_power[2],
        monotone_decreasing=bool(np.all(np.diff(eps) < 0)),
    )


# ---------------------------------------------------------------------------
# clustering benchmark with learned parameters
# ---------------------------------------------------------------------------

_SUITE_DEFAULTS = {
    # points per component, sigma grid, gamma grid (calibrated on held-out seeds)
    "lines2d": (100, (0.025, 0.04, 0.06), (0.0, 0.002, 0.006)),
    "mixed_curves2d": (100, (0.025, 0.04, 0.06), (0.0, 0.002, 0.006)),
    "planes3d": (225, (0.1, 0.15, 0.2), (0.0, 0.002, 0.008)),
}
_CUTOFF_WIDTH_STDS = 2.0  # the cutoff offsets span this many cophenetic stds about the mean


@dataclass
class BenchmarkConfig:
    kind: str = "lines2d"
    n_samples: int = 250
    n_train: int = 50
    points_per_component: int | None = None  # kind default when None
    noise_sd: float = 0.002
    seed: int = 0
    kernel: str = "gaussian"
    sigma_grid: tuple | None = None  # kind default when None
    gamma_grid: tuple | None = None
    cutoff_steps: int = 50
    threads: int = 1

    def resolved(self) -> "BenchmarkConfig":
        defaults = zip(("points_per_component", "sigma_grid", "gamma_grid"), _SUITE_DEFAULTS[self.kind])
        return replace(self, **{name: v for name, v in defaults if getattr(self, name) is None})


@dataclass
class BenchmarkResult(_Report):
    kind: str
    ae: float  # mean error rate over test samples
    me: float  # median error rate over test samples
    best_sigma: float
    best_gamma: float
    best_cut_offset: float  # offset from the mean cophenetic height, in stds
    train_error: float
    test_errors: list

    def save(self, directory) -> str:
        """Write bench_<kind>.json and bench_<kind>.csv (one row per test sample); return the JSON."""
        return self._write(directory, f"bench_{self.kind}", ["sample", "error"],
                           [np.arange(len(self.test_errors)), self.test_errors])


def _sample_errors(dataset, params, offsets, k_true):
    """Error rates for each of ``params`` (one kernel) on one sample (rows)
    at each cutoff offset (columns).  The metric stays condensed: it is
    built from condensed squared distances, the points' once, the tensors'
    once per run of equal sigma (one held at a time)."""
    points = dataset.measure.atoms
    point_d2 = pdist(points, "sqeuclidean")
    sigma = feature_d2 = None
    table = []
    for p in params:
        if p.sigma != sigma:
            sigma = p.sigma
            feature_d2 = pdist(cl.tensor_features(points, p.kernel, sigma), "sqeuclidean")
        y = cl.lifted_condensed(feature_d2, point_d2, p.gamma)
        table.append(_offset_errors(dataset, y, offsets, k_true))
    return table


def _offset_errors(dataset, y, offsets, k_true):
    """Error rate at each cutoff offset (in cophenetic stds) under the
    condensed metric y.

    A height-h cut's partition is keyed by the number of gaps <= h: each
    distinct key is cut, reassigned and scored once, in increasing height.
    The reassignment is ``topk_reassign``'s (the k_true largest clusters
    kept, each other point joins its nearest kept point, distance ties to
    the lowest index), through the same search.  The cuts are nested, so
    each dropped point's nearest kept point is carried from cut to cut:
    while the kept set only grows, the dropped points are compared with the
    newly kept points alone; when a kept point drops out, with all of it.
    """
    dend = cl.single_linkage(y)
    n = dend.n_leaves
    h0, sd = cl.mean_cophenetic(dend), cl.cophenetic_std(dend)
    heights = np.maximum(h0 + np.asarray(offsets, dtype=float) * sd, 0.0)
    keys = np.searchsorted(np.sort(dend.gaps), heights, side="right")
    distinct, first = np.unique(keys, return_index=True)
    kept = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)  # a dropped point's distance to its nearest kept point
    nearest = np.zeros(n, dtype=np.int64)
    errs = {}
    for key, h in zip(distinct.tolist(), heights[first].tolist()):
        assignment = cl.cut(dend, height=h)
        labels = assignment.labels
        if assignment.k >= k_true:
            labels = cl.largest_clusters(labels, k_true)
            now = labels >= 0
            if (kept & ~now).any():  # a kept point dropped out: start over
                kept[:] = False
                best[:] = np.inf
            dropped, fresh = np.flatnonzero(~now), np.flatnonzero(now & ~kept)
            if dropped.size and fresh.size:
                dist, cand = cl._nearest_kept(y, n, dropped, fresh)
                old = best[dropped]
                closer = (dist < old) | ((dist == old) & (cand < nearest[dropped]))
                best[dropped[closer]] = dist[closer]
                nearest[dropped[closer]] = cand[closer]
            kept = now
            labels[dropped] = labels[nearest[dropped]]
        errs[key] = cl.score(labels, dataset.labels)
    return [errs[key] for key in keys.tolist()]


def run_cluster_benchmark(cfg: BenchmarkConfig) -> BenchmarkResult:
    """Grid-search (sigma, gamma, cutoff) on a training split, score on test.

    The cutoff is parameterized as an offset from each sample's own mean
    cophenetic distance h0, measured in standard deviations of its
    cophenetic distribution, so one learned offset transfers across samples.
    AE is the mean error rate over test samples and ME the median.
    """
    if cfg.kind not in _SUITE_DEFAULTS:
        raise ValueError(f"unknown suite kind {cfg.kind!r}")
    cfg = cfg.resolved()
    if cfg.n_samples < 2 or not (1 <= cfg.n_train < cfg.n_samples):
        raise ValueError("need n_samples >= 2 and 1 <= n_train < n_samples")
    for name in ("sigma_grid", "gamma_grid"):
        if len(getattr(cfg, name)) == 0:
            raise ValueError(f"{name} is empty")
    if cfg.cutoff_steps < 1:
        raise ValueError(f"cutoff_steps must be at least 1, got {cfg.cutoff_steps}")
    suite = gen_arrangement_suite(
        cfg.kind,
        cfg.n_samples,
        seed=cfg.seed,
        points_per_component=cfg.points_per_component,
        noise_sd=cfg.noise_sd,
    )
    k_true = int(suite[0].labels.max()) + 1  # components are labelled 0..k-1, with no outliers
    kernel = kernel_by_name(cfg.kernel)
    train, test = suite[: cfg.n_train], suite[cfg.n_train :]
    offsets = np.linspace(-_CUTOFF_WIDTH_STDS, _CUTOFF_WIDTH_STDS, cfg.cutoff_steps)

    combos = [cl.TensorizedMetricParams(gamma=g, sigma=s, kernel=kernel)
              for s in cfg.sigma_grid for g in cfg.gamma_grid]
    train_tables = _map(lambda ds: _sample_errors(ds, combos, offsets, k_true), train, cfg.threads)
    mean_errs = np.mean(train_tables, axis=0)  # (combo, offset); the first least mean wins
    c, j = np.unravel_index(np.argmin(mean_errs), mean_errs.shape)
    params, u = combos[c], float(offsets[j])
    test_errs = _map(lambda ds: _sample_errors(ds, [params], [u], k_true)[0][0], test, cfg.threads)
    return BenchmarkResult(
        kind=cfg.kind,
        ae=float(np.mean(test_errs)),
        me=float(np.median(test_errs)),
        best_sigma=float(params.sigma),
        best_gamma=float(params.gamma),
        best_cut_offset=float(u),
        train_error=float(mean_errs[c, j]),
        test_errors=[float(e) for e in test_errs],
    )

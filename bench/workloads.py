"""The benchmark workloads: set-up, one round of operations, checks.

Four parts (converge, cluster, stability, landscape) make up the two
workloads the benchmark runs: ``fields`` is converge plus landscape, and
``cluster_transport`` is cluster plus stability.  Two workloads instead of
four leave time, within a full evaluation, for runs long enough to average
out the machine's drift in speed.

A part is built from the benchmark seed.  ``setup`` makes the inputs,
``operations`` lists what one round runs (the timed part; every round
repeats the same operations on the same inputs), and ``checks`` compares
the last round's outputs with the references in :mod:`checks` outside the
timed region.  Calls into covfields go through
module attributes, so the tracer in :mod:`spans` sees them when installed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np

import checks as ref
from covfields import cli, clustering, experiments, fields, kernels, measures, transport


def bench_rng(seed: int, stream: int) -> np.random.Generator:
    """Benchmark-side input stream; SeedSequence mixing keeps seeds independent."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, stream])


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: str):
        self.seed = int(seed)
        self.out_dir = out_dir

    def setup(self) -> None:
        """Make the inputs (timed as part of setup_s)."""

    def operations(self) -> list:
        """(name, callable) pairs run in order by every round."""
        raise NotImplementedError

    def checks(self, out: dict) -> list[tuple[str, bool, str]]:
        """(check name, passed, detail) for the outputs of one round."""
        raise NotImplementedError

    def notes(self, out: dict) -> dict:
        """Figures reported for reading, not gated."""
        return {}


def _check(name: str, ok, detail: str = "") -> tuple[str, bool, str]:
    return name, bool(ok), detail


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

class Converge(Workload):
    name = "converge"

    N_VALUES = (10, 100, 1000, 10000, 100000)
    REPLICATES = 3

    def setup(self):
        self.cfg = experiments.ConvergeConfig(
            n_values=self.N_VALUES, replicates=self.REPLICATES, seed=self.seed, threads=1
        )

    def operations(self):
        return [("run_converge", lambda: experiments.run_converge(self.cfg))]

    def checks(self, out):
        rep = out.get("run_converge")
        if rep is None:
            return [_check(n, False, "no report") for n in self._check_names()]
        cfg = self.cfg
        results = []
        grid = experiments.square_grid(cfg.grid_lo, cfg.grid_hi, cfg.grid_n)
        exact = np.array([
            experiments.circle_tensor(cfg.radius, x, cfg.sigma).entries for x in grid
        ]) / (2.0 * math.pi * cfg.radius)
        # replicate 0 of run_converge: the package's stream 0, angles for each n in
        # ladder order; the brute-force sums below are the independent part
        rng = measures._philox(cfg.seed, stream=0)
        kernel = kernels.builtin_truncation()
        worst_rel, worst_err = 0.0, 0.0
        for k, n in enumerate(rep.n_values):
            theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
            pts = cfg.radius * np.column_stack([np.cos(theta), np.sin(theta)])
            got = fields.ctf_grid(measures.empirical_measure(pts), kernel, grid, cfg.sigma,
                                  acceleration="indexed").tensors
            want = ref.closed_ball_tensors(pts, np.full(n, 1.0 / n), grid, cfg.sigma)
            worst_rel = max(worst_rel, ref.tensor_rel_error(got, want))
            err = float(np.linalg.norm(want - exact, axis=(1, 2)).max())
            worst_err = max(worst_err, abs(err - rep.rep_errors[k][0]) / err)
        results.append(_check("indexed_tensors_brute_force", worst_rel <= 1e-12, f"rel {worst_rel:.3g}"))
        results.append(_check("replicate0_errors_recomputed", worst_err <= 1e-9, f"rel {worst_err:.3g}"))
        means = np.asarray(rep.rep_errors, dtype=float).mean(axis=1)
        results.append(("mean_errors_decrease", *ref.check_decreasing(means)))
        results.append(("rate_exponent_in_band", *ref.check_rate_exponent(rep.n_values, means)))
        return results

    def _check_names(self):
        return ["indexed_tensors_brute_force", "replicate0_errors_recomputed",
                "mean_errors_decrease", "rate_exponent_in_band"]

    def notes(self, out):
        rep = out.get("run_converge")
        return {} if rep is None else {"mean_errors": rep.mean_errors,
                                       "fit_power_exponent": rep.fit_power_exponent}


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

class Cluster(Workload):
    name = "cluster"

    SUITES = {
        # kind: (n_samples, n_train)
        "lines2d": (32, 8),
        "planes3d": (4, 2),
    }
    CUTOFF_STEPS = 25
    K_TRUE = 3

    def setup(self):
        self.cfgs = {
            kind: experiments.BenchmarkConfig(
                kind=kind, n_samples=ns, n_train=nt, cutoff_steps=self.CUTOFF_STEPS,
                seed=self.seed, threads=1,
            )
            for kind, (ns, nt) in self.SUITES.items()
        }

    def operations(self):
        return [
            (kind, lambda cfg=cfg: experiments.run_cluster_benchmark(cfg))
            for kind, cfg in self.cfgs.items()
        ]

    _PER_KIND = ("merge_heights_scipy", "cophenetic_scipy", "cophenetic_stats",
                 "cut_partition_scipy", "score_brute_force", "score_matches_report")

    def checks(self, out):
        results = []
        for kind, cfg in self.cfgs.items():
            res = out.get(kind)
            if res is None:
                results += [_check(f"{kind}.{n}", False, "no result") for n in self._PER_KIND]
                continue
            results += self._check_first_test_sample(kind, cfg.resolved(), res)
        return results

    def _check_first_test_sample(self, kind, cfg, res):
        suite = measures.gen_arrangement_suite(
            kind, cfg.n_samples, seed=cfg.seed,
            points_per_component=cfg.points_per_component, noise_sd=cfg.noise_sd,
        )
        ds = suite[cfg.n_train]
        params = clustering.TensorizedMetricParams(
            gamma=res.best_gamma, sigma=res.best_sigma, kernel=kernels.kernel_by_name(cfg.kernel)
        )
        dist = clustering.tensorized_distances(ds.measure, params)
        dend = clustering.single_linkage(dist)
        h0, sd = clustering.mean_cophenetic(dend), clustering.cophenetic_std(dend)
        h = max(h0 + res.best_cut_offset * sd, 0.0)
        asg = clustering.cut(dend, height=h)
        cut_check = ref.check_cut(asg.labels, dist, h)
        if asg.k >= self.K_TRUE:
            asg = clustering.topk_reassign(asg, dist, self.K_TRUE)
        err = clustering.score(asg.labels, ds.labels)
        p = f"{kind}."
        return [
            (p + "merge_heights_scipy", *ref.check_merge_heights(dend.heights, dist)),
            (p + "cophenetic_scipy", *ref.check_cophenetic(dend.cophenetic, dist)),
            (p + "cophenetic_stats", *ref.check_cophenetic_stats(h0, sd, dist)),
            (p + "cut_partition_scipy", *cut_check),
            (p + "score_brute_force", *ref.check_score(err, asg.labels, ds.labels)),
            _check(p + "score_matches_report", err == res.test_errors[0],
                   f"{err} vs {res.test_errors[0]}"),
        ]

    def notes(self, out):
        return {f"{kind}_ae": out[kind].ae for kind in self.cfgs if kind in out}


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

class Stability(Workload):
    name = "stability"

    SMOOTH_SIZES = ((12, 20), (30, 18), (45, 60), (80, 64))
    SIGMAS = (0.5, 1.0, 2.0)
    # many mid-sized pairs rather than a few large ones: one LP's time varies
    # by 17-25% (CV) with the point clouds, and the sum over 24 pairs by ~5%
    EQUAL_SIZES = (100,) * 8 + (150,) * 8 + (200,) * 8

    def setup(self):
        rng = bench_rng(self.seed, 1)
        self.kernel = kernels.builtin_gaussian()
        self.grid = experiments.square_grid(-3.0, 3.0, 16)

        def shift(length):
            # fixed length, random direction: the LP's difficulty then varies
            # little with the seed, which keeps wall_s steady across seeds
            angle = rng.uniform(0.0, 2.0 * math.pi)
            return length * np.array([math.cos(angle), math.sin(angle)])

        self.smooth_pairs = []
        for na, nb in self.SMOOTH_SIZES:
            a = rng.normal(0.0, 1.0, size=(na, 2))
            b = rng.normal(0.0, 1.1, size=(nb, 2)) + shift(0.3)
            wa, wb = rng.uniform(0.5, 1.5, na), rng.uniform(0.5, 1.5, nb)
            self.smooth_pairs.append((measures.WeightedMeasure(a, wa / wa.sum()),
                                      measures.WeightedMeasure(b, wb / wb.sum())))
        self.equal_pairs = []
        for n in self.EQUAL_SIZES:
            a = rng.normal(0.0, 1.0, size=(n, 2))
            b = rng.normal(0.0, 1.0, size=(n, 2)) + shift(0.5)
            self.equal_pairs.append((measures.empirical_measure(a), measures.empirical_measure(b)))

    def operations(self):
        ops = []
        for i, (a, b) in enumerate(self.smooth_pairs):
            for s in self.SIGMAS:
                ops.append((f"smooth{i}_sigma{s}", lambda a=a, b=b, s=s:
                            transport.check_stability_smooth(a, b, self.kernel, s, self.grid)))
        for i, (a, b) in enumerate(self.equal_pairs):
            ops.append((f"w1_{i}", lambda a=a, b=b: transport.w1_exact(a, b)))
            ops.append((f"winf_{i}", lambda a=a, b=b: transport.winf_exact(a, b)))
        return ops

    def checks(self, out):
        results = []
        for i, (a, b) in enumerate(self.smooth_pairs):
            for s in self.SIGMAS:
                key = f"smooth{i}_sigma{s}"
                rep = out.get(key)
                if rep is None:
                    results += [_check(key + ".passed", False), _check(key + ".lhs_bound", False)]
                    continue
                results.append(_check(key + ".passed", rep.passed, f"lhs {rep.lhs:.4g} rhs {rep.rhs:.4g}"))
                results.append((key + ".lhs_bound", *ref.check_smooth_lhs(
                    rep.lhs, rep.transport_cost, a, b, self.grid, s)))
        for i, (a, b) in enumerate(self.equal_pairs):
            results += self._check_equal_pair(f"pair{i}_n{a.size}.", a, b, out.get(f"w1_{i}"), out.get(f"winf_{i}"))
        return results

    def _check_equal_pair(self, p, a, b, w1_out, winf_out):
        names = ("w1_assignment", "winf_bottleneck", "w1_le_winf", "w1_ge_mean_shift", "plan_marginals")
        if w1_out is None or winf_out is None:
            return [_check(p + n, False, "no result") for n in names]
        (w1, plan1), (winf, plan_inf) = w1_out, winf_out
        shift = float(np.linalg.norm(a.weights @ a.atoms - b.weights @ b.atoms))
        return [
            (p + names[0], *ref.check_w1(w1, a.atoms, b.atoms)),
            (p + names[1], *ref.check_winf(winf, a.atoms, b.atoms)),
            _check(p + names[2], w1 <= winf + 1e-12, f"{w1:.6g} <= {winf:.6g}"),
            _check(p + names[3], w1 >= shift - 1e-12, f"{w1:.6g} >= {shift:.6g}"),
            (p + names[4], *ref.check_marginals([plan1.coupling, plan_inf.coupling], a.weights, b.weights)),
        ]


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

class Landscape(Workload):
    name = "landscape"

    N_CIRCLE = 100_000
    CTF_SIGMA = 0.3
    GAUSS_GRID = "-1.5:1.5:16"
    TRUNC_GRID = "-1.5:1.5:24"
    FLOW_SIGMA = 1.2
    FLOW_STARTS = "-4:4:20"
    GRAD_TOL = 1e-8  # FlowParams.grad_tol default
    SAMPLED_POINTS = 12
    FLOW_PATHS = 40

    def setup(self):
        rng = bench_rng(self.seed, 2)
        theta = rng.uniform(0.0, 2.0 * math.pi, self.N_CIRCLE)
        circle = np.column_stack([np.cos(theta), np.sin(theta)])
        circle += rng.normal(0.0, 0.05, size=circle.shape)
        self.circle = measures.empirical_measure(circle)
        two = np.concatenate([rng.normal([-2.0, 0.0], 0.6, size=(200, 2)),
                              rng.normal([2.0, 0.5], 0.6, size=(200, 2))])
        self.two = measures.empirical_measure(two)
        self.circle_csv = os.path.join(self.out_dir, "circle.csv")
        self.two_csv = os.path.join(self.out_dir, "two_cluster.csv")

    def _cli(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", self.out_dir, *argv])
        if code != 0:
            raise RuntimeError(f"covfields {argv[0]} exited with {code}")
        return os.path.join(self.out_dir, argv[-1])

    def operations(self):
        s = str(self.CTF_SIGMA)
        return [
            ("save_circle", lambda: measures.save_measure(self.circle, self.circle_csv)),
            ("ctf_gaussian", lambda: self._cli(
                "ctf", "--input", self.circle_csv, "--kernel", "gaussian", "--sigma", s,
                f"--grid={self.GAUSS_GRID}", "--output", "ctf_gaussian.csv")),
            ("ctf_truncation", lambda: self._cli(
                "ctf", "--input", self.circle_csv, "--kernel", "truncation", "--sigma", s,
                f"--grid={self.TRUNC_GRID}", "--indexed", "--output", "ctf_truncation.csv")),
            ("save_two_cluster", lambda: measures.save_measure(self.two, self.two_csv)),
            ("frechet", lambda: self._cli(
                "frechet", "--input", self.two_csv, "--sigma", str(self.FLOW_SIGMA),
                "--grid=-4.5:4.5:40", "--output", "frechet.csv")),
            ("flow", lambda: self._cli(
                "flow", "--input", self.two_csv, "--sigma", str(self.FLOW_SIGMA),
                f"--starts={self.FLOW_STARTS}", "--output", "flow.csv")),
        ]

    @staticmethod
    def _read_rows(path):
        """The numeric rows of a CSV file the CLI wrote, header skipped."""
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        return np.array([[float(c) for c in r] for r in rows])

    def _sample_rows(self, m):
        return np.linspace(0, m - 1, self.SAMPLED_POINTS).round().astype(int)

    def checks(self, out):
        results = []
        atoms, weights = self.circle.atoms, self.circle.weights
        for key, brute in (("ctf_gaussian", ref.gaussian_tensors),
                           ("ctf_truncation", ref.closed_ball_tensors)):
            if key not in out:
                results.append(_check(key + "_brute_force", False, "no output"))
                continue
            rows = self._read_rows(out[key])
            pick = rows[self._sample_rows(len(rows))]
            got = np.stack([[[r[3], r[4]], [r[4], r[5]]] for r in pick])
            want = brute(atoms, weights, pick[:, :2], self.CTF_SIGMA)
            results.append((key + "_brute_force", *ref.check_tensors(got, want, 1e-10)))

        loaded = measures.load_measure(self.circle_csv)
        results.append(_check("save_load_bit_exact",
                              np.array_equal(loaded.atoms, atoms) and np.array_equal(loaded.weights, weights)))

        if "frechet" in out:
            rows = self._read_rows(out["frechet"])
            pick = rows[self._sample_rows(len(rows))]
            want = np.array([ref.gaussian_frechet(self.two.atoms, self.two.weights, x, self.FLOW_SIGMA)
                             for x in pick[:, :2]])
            results.append(("frechet_values", *ref.check_values(pick[:, 3], want, 1e-10)))
        else:
            results.append(_check("frechet_values", False, "no output"))

        results += self._check_flows(out.get("flow"))
        return results

    def _check_flows(self, path):
        names = ("flow_paths_descend", "flow_converged_gradient")
        if path is None:
            return [_check(n, False, "no output") for n in names]
        rows = self._read_rows(path)
        atoms, w, s = self.two.atoms, self.two.weights, self.FLOW_SIGMA
        kernel = kernels.builtin_gaussian()
        rising, mismatched = 0, 0
        for row in rows[:: max(1, len(rows) // self.FLOW_PATHS)]:
            res = fields.flow_to_attractor(self.two, kernel, row[:2], s)
            mismatched += int(not np.array_equal(res.attractor, row[2:4]))
            rising += int(not ref.check_descent([ref.gaussian_frechet(atoms, w, x, s) for x in res.path])[0])
        return [
            _check(names[0], rising == 0 and mismatched == 0,
                   f"{rising} paths rise, {mismatched} attractors differ from the CLI output"),
            (names[1], *ref.check_stationary(atoms, w, rows[rows[:, 5] == 1][:, 2:4], s, self.GRAD_TOL)),
        ]

    def notes(self, out):
        if "flow" not in out:
            return {}
        rows = self._read_rows(out["flow"])
        return {"flow_starts": len(rows), "flow_basins": int(len(np.unique(rows[:, 4]))),
                "flow_converged": int(rows[:, 5].sum())}


# ---------------------------------------------------------------------------
# the workloads: parts run one after the other in every round
# ---------------------------------------------------------------------------

class Composite(Workload):
    """Parts set up, run and checked in order; check names carry the part's name."""

    parts: tuple = ()

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self._parts = [part(seed, out_dir) for part in self.parts]

    def setup(self):
        for part in self._parts:
            part.setup()

    def operations(self):
        return [op for part in self._parts for op in part.operations()]

    def checks(self, out):
        return [(f"{part.name}.{name}", ok, text)
                for part in self._parts for name, ok, text in part.checks(out)]

    def notes(self, out):
        return {f"{part.name}.{k}": v for part in self._parts for k, v in part.notes(out).items()}


class Fields(Composite):
    name = "fields"
    parts = (Converge, Landscape)


class ClusterTransport(Composite):
    name = "cluster_transport"
    parts = (Cluster, Stability)


WORKLOADS = {w.name: w for w in (Fields, ClusterTransport)}

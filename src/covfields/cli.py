"""Command-line front end.

Subcommands: gen, ctf, frechet, flow, curvature, cluster, stability,
converge, bench.  Global flags: --config (JSON object whose "converge" and
"bench" sections set those commands' settings, overridden by explicit
flags; any other section or setting, or one of the wrong type, is a
configuration error), --seed, --out (every command's output directory,
default "."), --threads.  Exit codes: 0 success, 2 configuration error,
3 numerical failure or memory exhausted; errors print a single-line JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from . import clustering as cl
from . import experiments, plots
from .fields import basin_labels, ctf_grid
from .geometry import curve_curvature, surface_curvatures
from .kernels import kernel_by_name, load_profile_csv
from .measures import (
    LabeledDataset,
    gen_line_arrangement,
    json_dumps,
    load_measure,
    quadrature_circle,
    quadrature_segment,
    quadrature_sphere,
    save_measure,
    write_csv,
)
from .transport import check_stability_smooth, check_stability_trunc


# the commands that read a --config section, with the settings each takes
_CONFIG_SECTIONS = {"converge": experiments.ConvergeConfig, "bench": experiments.BenchmarkConfig}


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json_dumps({"error": kind, "message": message}) + "\n")
    return code


def _resolve_kernel(name: str):
    if name.endswith(".csv"):
        return load_profile_csv(name)
    return kernel_by_name(name)


def _load_config(path: str) -> dict:
    """The sections of a --config file, each checked against its command's settings."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("--config must hold a JSON object of per-command sections")
    for name, section in doc.items():
        if name not in _CONFIG_SECTIONS:
            raise ValueError(f"--config section {name!r}: only converge and bench read a section")
        if not isinstance(section, dict):
            raise ValueError(f"--config section {name!r} must be a JSON object")
        fields = {f.name: f for f in dataclasses.fields(_CONFIG_SECTIONS[name])}
        unknown = set(section) - set(fields)
        if unknown:
            raise ValueError(f"--config section {name!r}: unknown settings {sorted(unknown)}")
        hints = typing.get_type_hints(_CONFIG_SECTIONS[name])
        for key, value in section.items():
            if not _json_fits(value, typing.get_args(hints[key]) or (hints[key],)):
                raise ValueError(f"--config section {name!r}: setting {key!r} must be "
                                 f"{fields[key].type}, got {value!r}")
    return doc


def _json_fits(value, types: tuple) -> bool:
    """Whether a JSON value can stand for a setting of one of ``types``: an
    integer for a float, a list of numbers for a tuple, never a boolean."""
    if isinstance(value, bool):
        return False
    if isinstance(value, list):
        return tuple in types and all(_json_fits(v, (float,)) for v in value)
    return isinstance(value, types) or (isinstance(value, int) and float in types)


def _parse_grid(spec: str) -> np.ndarray:
    """Grid spec lo:hi:n (2-D square grid, n >= 1) or a measure CSV of points."""
    if os.path.exists(spec):
        return _load_plain_measure(spec).atoms
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"grid must be 'lo:hi:n' or an existing points file, got {spec!r}")
    if n < 1:  # an empty grid: a table of no row, a stability check over no point
        raise ValueError(f"grid 'lo:hi:n' needs n >= 1, got {spec!r}")
    return experiments.square_grid(lo, hi, n)


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load_plain_measure(path):
    m = load_measure(path)
    return m.measure if isinstance(m, LabeledDataset) else m


def _cmd_gen(args) -> int:
    if args.kind == "segment":
        obj = quadrature_segment(json.loads(args.a), json.loads(args.b), args.spacing)
    elif args.kind == "circle":
        obj = quadrature_circle(args.radius, args.n)
    elif args.kind == "sphere":
        obj = quadrature_sphere(args.radius, args.n, args.n)
    elif args.kind == "lines":
        segments = [(tuple(seg), args.points_per_line) for seg in json.loads(args.segments)]
        box = json.loads(args.box) if args.box else None
        obj = gen_line_arrangement(
            segments, noise_sd=args.noise_sd, n_outliers=args.outliers,
            bounding_box=box, seed=0 if args.seed is None else args.seed,
        )
    else:
        raise ValueError(f"unknown gen kind {args.kind!r}")
    path = _outpath(args, args.output)
    save_measure(obj, path)
    print(path)
    return 0


def _cmd_ctf(args) -> int:
    measure = _load_plain_measure(args.input)
    kernel = _resolve_kernel(args.kernel)
    grid = _parse_grid(args.grid)
    accel = "indexed" if args.indexed else "exact"
    fg = ctf_grid(measure, kernel, grid, args.sigma, acceleration=accel)
    path = _outpath(args, args.output)
    fg.save_csv(path)
    print(path)
    return 0


def _cmd_frechet(args) -> int:
    measure = _load_plain_measure(args.input)
    kernel = _resolve_kernel(args.kernel)
    grid = _parse_grid(args.grid)
    if args.heatmap and os.path.exists(args.grid):
        raise ValueError(f"--heatmap draws a lo:hi:n grid, got the points file --grid {args.grid!r}")
    fg = ctf_grid(measure, kernel, grid, args.sigma)
    path = _outpath(args, args.output)
    header = [f"x_{i + 1}" for i in range(grid.shape[1])] + ["sigma", "V"]
    write_csv(path, header, [*fg.query_points.T, np.full(len(grid), args.sigma), fg.frechet_values])
    if args.heatmap:  # an n x n grid, x_1 the slow index
        n = int(round(len(grid) ** 0.5))
        axis = grid[::n, 0]
        plots.heatmap_svg(axis, axis, fg.frechet_values.reshape(n, n).T, _outpath(args, args.heatmap))
    print(path)
    return 0


def _cmd_flow(args) -> int:
    measure = _load_plain_measure(args.input)
    kernel = _resolve_kernel(args.kernel)
    starts = _parse_grid(args.starts)
    labels, attractors, results = basin_labels(measure, kernel, starts, args.sigma)
    path = _outpath(args, args.output)
    d = starts.shape[1]
    header = [f"x_{i + 1}" for i in range(d)] + [f"attractor_{i + 1}" for i in range(d)]
    write_csv(path, header + ["basin", "converged"], [
        *np.reshape([res.start for res in results], (-1, d)).T,
        *np.reshape([res.attractor for res in results], (-1, d)).T,
        labels,
        [int(res.converged) for res in results],
    ])
    print(path)
    return 0


def _cmd_curvature(args) -> int:
    measure = _load_plain_measure(args.input)
    point = json.loads(args.point)
    ladder = [float(s) for s in args.ladder.split(",")]
    path = _outpath(args, args.output)
    if measure.dim == 3:
        est = surface_curvatures(measure, point, ladder)
        names = ["kappa1", "kappa2", "residual_trace", "residual_det", "sign_ambiguity"]
        values = [est.kappa1, est.kappa2, est.residual_trace, est.residual_det, int(est.sign_ambiguity)]
    else:  # the curve fit rejects every dimension but 2
        est = curve_curvature(measure, point, ladder)
        names = ["kappa_abs", "residual", "clamped"]
        values = [est.kappa_abs, est.residual, int(est.clamped)]
    # the point and the ladder are one cell each, their entries joined by ';'
    joined = [";".join(map(str, np.asarray(v, dtype=float).tolist()))
              for v in (est.point, est.sigma_ladder)]
    write_csv(path, ["point", "sigma_ladder", *names], [[v] for v in joined + values])
    print(path)
    return 0


def _cmd_cluster(args) -> int:
    ds = load_measure(args.input)
    measure = ds.measure if isinstance(ds, LabeledDataset) else ds
    kernel = _resolve_kernel(args.kernel)
    params = cl.TensorizedMetricParams(gamma=args.gamma, sigma=args.sigma, kernel=kernel)
    dist = cl.tensorized_condensed(measure, params)
    dend = cl.single_linkage(dist)
    mode, value = args.cut.split(":")
    if mode == "k":
        assignment = cl.cut(dend, k=int(value))
    elif mode == "h":
        assignment = cl.cut(dend, height=float(value))
    else:
        raise ValueError("cut must be 'k:<count>' or 'h:<height>'")
    if args.topk:
        assignment = cl.topk_reassign(assignment, dist, args.topk)
    labeled = LabeledDataset(measure, assignment.labels)
    out_points = _outpath(args, args.output)
    save_measure(labeled, out_points)
    merges_path = _outpath(args, args.merges)
    ids = dend.merges[:, :2].astype(np.int64)
    write_csv(merges_path, ["a", "b", "height"], [ids[:, 0], ids[:, 1], dend.merges[:, 2]])
    if args.svg:
        plots.dendrogram_svg(dend, _outpath(args, args.svg))
    if isinstance(ds, LabeledDataset):
        err = cl.score(assignment.labels, ds.labels)
        print(json_dumps({"labeled_csv": out_points, "merges_csv": merges_path, "error_rate": err}))
    else:
        print(json_dumps({"labeled_csv": out_points, "merges_csv": merges_path}))
    return 0


def _cmd_stability(args) -> int:
    alpha = _load_plain_measure(args.alpha)
    beta = _load_plain_measure(args.beta)
    grid = _parse_grid(args.grid)
    if args.kernel == "truncation":
        if args.lam is None or args.diameter is None:
            raise ValueError("truncation stability needs --lam and --diameter")
        report = check_stability_trunc(alpha, beta, args.sigma, args.diameter, args.lam, grid)
    else:
        kernel = _resolve_kernel(args.kernel)
        report = check_stability_smooth(alpha, beta, kernel, args.sigma, grid)
    doc = report.to_dict()
    text = json_dumps(doc, indent=2)
    with open(_outpath(args, args.output), "w") as fh:
        fh.write(text + "\n")
    print(json_dumps(doc))
    return 0


def _settings(cls, section: dict, args, **flags):
    """``cls`` from a --config section, overridden by each flag given."""
    flags.update(seed=args.seed, threads=args.threads)
    return cls(**{**section, **{k: v for k, v in flags.items() if v is not None}})


def _cmd_converge(args, section: dict) -> int:
    n_values = args.n_values
    if n_values is not None:  # "" is the empty ladder
        n_values = tuple(int(v) for v in n_values.split(",")) if n_values else ()
    cfg = _settings(experiments.ConvergeConfig, section, args, n_values=n_values,
                    replicates=args.replicates)
    print(experiments.run_converge(cfg).save(args.out))
    return 0


def _cmd_bench(args, section: dict) -> int:
    cfg = _settings(experiments.BenchmarkConfig, section, args, kind=args.kind,
                    n_samples=args.n_samples, n_train=args.n_train)
    print(experiments.run_cluster_benchmark(cfg).save(args.out))
    return 0


_COMMANDS = {"gen": _cmd_gen, "ctf": _cmd_ctf, "frechet": _cmd_frechet, "flow": _cmd_flow,
             "curvature": _cmd_curvature, "cluster": _cmd_cluster, "stability": _cmd_stability,
             "converge": _cmd_converge, "bench": _cmd_bench}


class _Parser(argparse.ArgumentParser):
    """Parser that reports errors as exceptions for uniform JSON output."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="covfields")
    p.add_argument("--config", help="JSON file with converge and bench settings")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate measures and datasets")
    g.add_argument("--kind", required=True, choices=["segment", "circle", "sphere", "lines"])
    g.add_argument("--a", default="[0,0]")
    g.add_argument("--b", default="[1,0]")
    g.add_argument("--spacing", type=float, default=0.01)
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--segments", default="[]", help='JSON [[[x,y],[x,y]], ...]')
    g.add_argument("--points-per-line", type=int, default=200)
    g.add_argument("--noise-sd", type=float, default=0.0)
    g.add_argument("--outliers", type=int, default=0)
    g.add_argument("--box", default=None, help="JSON [[lo...],[hi...]]")
    g.add_argument("--output", default="measure.csv")

    c = sub.add_parser("ctf", help="evaluate the covariance field on a grid")
    c.add_argument("--input", required=True)
    c.add_argument("--kernel", default="truncation")
    c.add_argument("--sigma", type=float, required=True)
    c.add_argument("--grid", required=True, help="lo:hi:n or points file")
    c.add_argument("--indexed", action="store_true")
    c.add_argument("--output", default="ctf.csv")

    f = sub.add_parser("frechet", help="evaluate the Fréchet function on a grid")
    f.add_argument("--input", required=True)
    f.add_argument("--kernel", default="gaussian")
    f.add_argument("--sigma", type=float, required=True)
    f.add_argument("--grid", required=True)
    f.add_argument("--heatmap", default=None, help="optional SVG filename")
    f.add_argument("--output", default="frechet.csv")

    fl = sub.add_parser("flow", help="gradient flow to attractors")
    fl.add_argument("--input", required=True)
    fl.add_argument("--kernel", default="gaussian")
    fl.add_argument("--sigma", type=float, required=True)
    fl.add_argument("--starts", required=True, help="lo:hi:n or points file")
    fl.add_argument("--output", default="flow.csv")

    cv = sub.add_parser("curvature", help="curvature of a 2-D curve or a 3-D surface from small scales")
    cv.add_argument("--input", required=True)
    cv.add_argument("--point", required=True, help="JSON coordinates")
    cv.add_argument("--ladder", required=True, help="comma-separated scales")
    cv.add_argument("--output", default="curvature.csv")

    cc = sub.add_parser("cluster", help="tensorized single-linkage clustering")
    cc.add_argument("--input", required=True)
    cc.add_argument("--kernel", default="gaussian")
    cc.add_argument("--sigma", type=float, required=True)
    cc.add_argument("--gamma", type=float, default=0.0)
    cc.add_argument("--cut", required=True, help="'k:<count>' or 'h:<height>'")
    cc.add_argument("--topk", type=int, default=None)
    cc.add_argument("--output", default="clusters.csv")
    cc.add_argument("--merges", default="merges.csv")
    cc.add_argument("--svg", default=None)

    st = sub.add_parser("stability", help="stability certificate for a measure pair")
    st.add_argument("--alpha", required=True)
    st.add_argument("--beta", required=True)
    st.add_argument("--kernel", default="gaussian")
    st.add_argument("--sigma", type=float, required=True)
    st.add_argument("--grid", required=True)
    st.add_argument("--lam", type=float, default=None, help="density bound (truncation)")
    st.add_argument("--diameter", type=float, default=None, help="support diameter bound")
    st.add_argument("--output", default="stability.json")

    cvg = sub.add_parser("converge", help="empirical convergence-rate study")
    cvg.add_argument("--n-values", default=None, help="comma-separated ladder")
    cvg.add_argument("--replicates", type=int, default=None)

    b = sub.add_parser("bench", help="clustering benchmark on arrangement suites")
    b.add_argument("--kind", default=None, choices=list(experiments._SUITE_DEFAULTS))
    b.add_argument("--n-samples", type=int, default=None)
    b.add_argument("--n-train", type=int, default=None)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2
    except ValueError as exc:
        return _fail(2, "config", str(exc))
    try:
        sections = _load_config(args.config) if args.config else {}
        if args.command in _CONFIG_SECTIONS:
            return _COMMANDS[args.command](args, sections.get(args.command, {}))
        return _COMMANDS[args.command](args)
    except RuntimeError as exc:  # NumericalError, failed transport solves
        return _fail(3, "numerical", str(exc))
    except MemoryError as exc:  # numpy names the allocation it could not make
        return _fail(3, "memory", str(exc) or "out of memory")
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        return _fail(2, "config", str(exc))


if __name__ == "__main__":
    sys.exit(main())

"""Weighted point measures in R^d, synthetic dataset generators, and file I/O.

A :class:`WeightedMeasure` is a finite collection of atoms with strictly
positive weights.  It stands in for three kinds of objects: empirical
measures (uniform weights 1/n), deterministic quadrature approximations of
singular measures (arc length, surface area), and arbitrary weighted point
sets.  Quadrature generators use the midpoint rule, so the discretization
error of integrals of smooth functions is O(spacing^2).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# rows per chunk that write_csv formats and writes, and load_measure parses, at once
_CSV_ROWS = 8192


class MeasureFormatError(ValueError):
    """Raised when a measure/dataset file cannot be parsed."""


class NumericalError(RuntimeError):
    """A computation produced an inconsistent or non-convergent result."""


def _check_positive(name: str, value: float) -> None:
    """Require ``0 < value < inf``, so NaN and infinities fail here, by name."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _points(x, d: int) -> np.ndarray:
    """``x`` as an (m, d) float array (``x`` itself if it is one), ``[]`` as no point; ValueError
    on another dimension, on d < 1 or on a NaN or infinite coordinate."""
    pts = np.asarray(x, dtype=float)
    pts = pts.reshape(0, d) if pts.shape == (0,) else np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != d or d < 1:
        raise ValueError(f"dimension mismatch: points need dimension {d} >= 1, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite (no NaN/Inf coordinates)")
    return pts


def _point(x, d: int | None = None) -> np.ndarray:
    """One point ``x`` as a (d,) float array, checked as :func:`_points` checks a row; ValueError
    unless ``x`` is 1-D.  ``d=None`` takes x's own length, so ``[]`` is a point of dimension 0."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"dimension mismatch: a point is a 1-D array of coordinates, got shape {p.shape}")
    return _points(p[None], p.size if d is None else d)[0]


def _check_non_negative(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based RNG (Philox4x64-10); streams derived as seed XOR stream."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) ^ np.uint64(stream)))


@dataclass(frozen=True)
class WeightedMeasure:
    """Finite positive Borel measure given by atoms and positive weights.

    Atoms are an (n, d) array, weights an (n,) array.  Instances are
    immutable (arrays are marked read-only) and safe to share across threads.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.ascontiguousarray(np.atleast_2d(np.asarray(self.atoms, dtype=float)))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float).ravel())
        if atoms.ndim != 2:
            raise ValueError("atoms must be an (n, d) array")
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError(
                f"atom/weight length mismatch: {atoms.shape[0]} atoms, {weights.shape[0]} weights"
            )
        if atoms.shape[0] == 0:
            raise ValueError("measure must contain at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite (no NaN/Inf coordinates)")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def normalize(self) -> "WeightedMeasure":
        """Return the same atoms with weights rescaled to total mass 1."""
        return WeightedMeasure(self.atoms, self.weights / self.weights.sum())

    def transform(self, matrix: np.ndarray | None = None, shift: np.ndarray | None = None) -> "WeightedMeasure":
        """Pushforward under the affine map x -> matrix @ x + shift."""
        pts = self.atoms
        if matrix is not None:
            pts = pts @ np.asarray(matrix, dtype=float).T
        if shift is not None:
            pts = pts + np.asarray(shift, dtype=float)
        return WeightedMeasure(pts, self.weights)


def empirical_measure(points: np.ndarray) -> WeightedMeasure:
    """Uniform-weight (1/n) measure on the given points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    return WeightedMeasure(points, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class LabeledDataset:
    """A measure together with integer cluster labels, one per atom.

    Component labels are 0..k-1; outliers, when present, carry the reserved
    label k (one past the largest component label).
    """

    measure: WeightedMeasure
    labels: np.ndarray

    def __post_init__(self):
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64).ravel())
        if labels.shape[0] != self.measure.size:
            raise ValueError("labels length must equal atom count")
        if np.any(labels < 0):
            raise ValueError("labels must be non-negative integers")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)


# ---------------------------------------------------------------------------
# quadrature generators for singular measures
# ---------------------------------------------------------------------------

def quadrature_segment(endpoint_a, endpoint_b, spacing: float) -> WeightedMeasure:
    """Midpoint-rule discretization of the arc-length measure on a segment.

    Atoms sit at midpoints of consecutive sub-intervals of length
    ``spacing``; each weight equals the sub-interval length (the last one is
    shortened so the total mass equals the segment length exactly).
    """
    a = _point(endpoint_a)
    b = _point(endpoint_b, a.size)
    _check_positive("spacing", spacing)
    with np.errstate(over="ignore"):  # an overflowing length fails the ratio check below
        length = float(np.linalg.norm(b - a))
    if length == 0.0:
        raise ValueError("degenerate segment: endpoints coincide")
    _check_positive("length / spacing", length / spacing)  # inf when the count would overflow
    n = max(1, int(math.ceil(length / spacing - 1e-12)))
    edges = np.minimum(np.arange(n + 1) * spacing, length)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    direction = (b - a) / length
    atoms = a[None, :] + mids[:, None] * direction[None, :]
    return WeightedMeasure(atoms, widths)


def quadrature_circle(radius: float, n_atoms: int) -> WeightedMeasure:
    """Arc-length measure on the circle of given radius centered at 0 in R^2.

    Atoms at angles 2*pi*k/n, each carrying weight 2*pi*R/n (total mass =
    circumference).
    """
    _check_positive("radius", radius)
    if n_atoms < 3:
        raise ValueError("n_atoms must be at least 3")
    theta = 2.0 * np.pi * np.arange(n_atoms) / n_atoms
    atoms = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    w = np.full(n_atoms, 2.0 * np.pi * radius / n_atoms)
    return WeightedMeasure(atoms, w)


def quadrature_arc(radius: float, theta_min: float, theta_max: float, n_atoms: int) -> WeightedMeasure:
    """Arc-length measure on a circular arc, midpoint rule in the angle.

    Useful for localized evaluations where a compactly supported kernel only
    ever sees part of the circle.
    """
    _check_positive("radius", radius)
    if not 0 < theta_max - theta_min < math.inf:  # NaN and infinite angles fail here
        raise ValueError(f"theta_max - theta_min must be finite and positive, got {theta_max} - {theta_min}")
    if n_atoms < 1:
        raise ValueError("n_atoms must be positive")
    h = (theta_max - theta_min) / n_atoms
    theta = theta_min + (np.arange(n_atoms) + 0.5) * h
    atoms = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    w = np.full(n_atoms, radius * h)
    return WeightedMeasure(atoms, w)


def quadrature_sphere(radius: float, n_theta: int, n_phi: int) -> WeightedMeasure:
    """Surface-area measure on the sphere of given radius centered at 0 in R^3.

    Latitude-longitude midpoint quadrature with area-element weights
    R^2 sin(theta) dtheta dphi; total mass converges to 4*pi*R^2 at O(1/n^2).
    """
    _check_positive("radius", radius)
    if n_theta < 2 or n_phi < 3:
        raise ValueError("need n_theta >= 2 and n_phi >= 3")
    dt = np.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * dt
    return _sphere_grid(radius, theta, radius * radius * np.sin(theta) * dt, n_phi)


def _sphere_grid(radius: float, theta, band_mass, n_phi: int) -> WeightedMeasure:
    """Atoms of the sphere at each polar angle in ``theta`` (the slow index)
    and ``n_phi`` azimuth midpoints, each with 1/n_phi of its band's mass."""
    dp = 2.0 * np.pi / n_phi
    tt, pp = np.meshgrid(theta, (np.arange(n_phi) + 0.5) * dp, indexing="ij")
    st = np.sin(tt)
    columns = [(st * np.cos(pp)).ravel(), (st * np.sin(pp)).ravel(), np.cos(tt).ravel()]
    return WeightedMeasure(radius * np.column_stack(columns), np.repeat(band_mass * dp, n_phi))


def _edges_with_alignment(lo: float, hi: float, n: int, align) -> np.ndarray:
    edges = np.linspace(lo, hi, n + 1)
    if align is not None:
        extra = np.asarray(align, dtype=float)
        extra = extra[(extra > lo) & (extra < hi)]
        edges = np.unique(np.concatenate([edges, extra]))
    return edges


def quadrature_cap(
    radius: float, theta_max: float, n_theta: int, n_phi: int, align_thetas=None
) -> WeightedMeasure:
    """Surface-area measure on the polar cap theta <= theta_max of a sphere.

    Cell masses are exact (R^2 (cos a - cos b) dphi per cell).  Optional
    ``align_thetas`` inserts extra cell edges at the given polar angles, so
    a ball about the pole whose boundary sits at one of them never straddles
    a cell; this removes the dominant quadrature error when evaluating
    covariance tensors at the pole.
    """
    _check_positive("radius", radius)
    _check_positive("theta_max", theta_max)
    if n_theta < 2 or n_phi < 3:
        raise ValueError("need n_theta >= 2 and n_phi >= 3")
    edges = _edges_with_alignment(0.0, theta_max, n_theta, align_thetas)
    band_mass = radius * radius * (np.cos(edges[:-1]) - np.cos(edges[1:]))
    return _sphere_grid(radius, 0.5 * (edges[:-1] + edges[1:]), band_mass, n_phi)


def quadrature_disk(
    radius: float, n_r: int, n_phi: int, align_radii=None, dim: int = 2
) -> WeightedMeasure:
    """Area measure on the disk centered at 0 via polar cells with exact masses.

    ``align_radii`` inserts extra radial cell edges (same purpose as in
    :func:`quadrature_cap`).  With ``dim=3`` the disk is embedded in the
    z = 0 plane.
    """
    _check_positive("radius", radius)
    if n_r < 1 or n_phi < 3:
        raise ValueError("need n_r >= 1 and n_phi >= 3")
    edges = _edges_with_alignment(0.0, radius, n_r, align_radii)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ring_mass = 0.5 * (edges[1:] ** 2 - edges[:-1] ** 2)  # per unit angle
    dp = 2.0 * np.pi / n_phi
    phi = (np.arange(n_phi) + 0.5) * dp
    rr, pp = np.meshgrid(mids, phi, indexing="ij")
    pts = np.column_stack([(rr * np.cos(pp)).ravel(), (rr * np.sin(pp)).ravel()])
    if dim == 3:
        pts = np.column_stack([pts, np.zeros(pts.shape[0])])
    elif dim != 2:
        raise ValueError("dim must be 2 or 3")
    w = np.repeat(ring_mass * dp, n_phi)
    return WeightedMeasure(pts, w)


# ---------------------------------------------------------------------------
# labeled synthetic datasets
# ---------------------------------------------------------------------------

def gen_line_arrangement(
    segments,
    noise_sd: float = 0.0,
    n_outliers: int = 0,
    bounding_box=None,
    seed: int = 0,
) -> LabeledDataset:
    """Sample an arrangement of line segments with optional noise and outliers.

    ``segments`` is a list of ((a, b), n_points) pairs; each segment
    contributes n_points equally spaced atoms (endpoints included) labeled by
    its index.  Isotropic Gaussian noise of standard deviation ``noise_sd``
    is added per point; ``n_outliers`` extra atoms are drawn uniformly from
    ``bounding_box = (lo, hi)`` and labeled with the reserved outlier label
    (= number of segments).  Weights are uniform, total mass 1.
    """
    if not segments:
        raise ValueError("empty segment specification")
    _check_non_negative("noise_sd", noise_sd)
    _check_non_negative("n_outliers", n_outliers)
    ends, counts = zip(*segments)
    if min(counts) < 2:
        raise ValueError("each line needs at least 2 points")
    rng = _philox(seed)
    points, labels = _sample_segments(ends, counts)
    if noise_sd > 0:
        points = points + rng.normal(0.0, noise_sd, size=points.shape)
    if n_outliers > 0:
        if bounding_box is None:
            lo = points.min(axis=0)
            hi = points.max(axis=0)
        else:
            lo, hi = _point(bounding_box[0], points.shape[1]), _point(bounding_box[1], points.shape[1])
        out = rng.uniform(lo, hi, size=(n_outliers, points.shape[1]))
        points = np.concatenate([points, out], axis=0)
        labels = np.concatenate([labels, np.full(n_outliers, len(segments), dtype=np.int64)])
    return LabeledDataset(empirical_measure(points), labels)


def _sample_segments(segments, counts) -> tuple[np.ndarray, np.ndarray]:
    """``counts[i]`` equally spaced points, endpoints included, on the i-th
    segment ``(a, b)``, labelled i: (points, int64 labels)."""
    pts = []
    for (a, b), n in zip(segments, counts):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        pts.append(a + np.linspace(0.0, 1.0, n)[:, None] * (b - a))
    return np.concatenate(pts), np.repeat(np.arange(len(pts), dtype=np.int64), counts)


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _random_segment(rng, box_lo, box_hi, min_len):
    for _ in range(200):
        a = rng.uniform(box_lo, box_hi)
        b = rng.uniform(box_lo, box_hi)
        if np.linalg.norm(b - a) >= min_len:
            return a, b
    raise RuntimeError("could not draw a segment of the requested length")


def _separated_segments(rng, count):
    """``count`` segments of length >= 0.7 in the unit square, redrawn
    together until every two direction angles are >= 30 degrees apart."""
    box_lo, box_hi = np.zeros(2), np.ones(2)
    while True:
        segs = [_random_segment(rng, box_lo, box_hi, 0.7) for _ in range(count)]
        dirs = [(b - a) / np.linalg.norm(b - a) for a, b in segs]
        if all(abs(_cross2(u, v)) >= np.sin(np.radians(30.0))
               for u, v in itertools.combinations(dirs, 2)):
            return segs


def _gen_curves2d(rng, count, points_per, noise_sd, bend):
    # ``count`` segments with chord directions >= 30 degrees apart, so tangent
    # ranges stay distinguishable; with ``bend``, each becomes a shallow
    # parabola arc with probability 1/2
    segs = _separated_segments(rng, count)
    points, labels = _sample_segments(segs, [points_per] * count)
    t = np.linspace(0.0, 1.0, points_per)
    for (a, b), curve in zip(segs, np.split(points, count)):  # views into points
        if bend and rng.random() < 0.5:
            chord = float(np.linalg.norm(b - a))
            direction = (b - a) / chord
            normal = np.array([-direction[1], direction[0]])
            amp = rng.uniform(0.02, 0.05) * chord * np.sign(rng.random() - 0.5)
            curve += (amp * ((t - 0.5) ** 2 * 4 - 1))[:, None] * normal
    return points + rng.normal(0.0, noise_sd, size=points.shape), labels


def _gen_planes3d(rng, grid_per_side, noise_sd):
    # three plane patches with dihedral angles >= 40 degrees, each a uniform grid
    while True:
        normals = rng.normal(size=(3, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        if all(abs(np.dot(p, q)) <= np.cos(np.radians(40.0))
               for p, q in itertools.combinations(normals, 2)):
            break
    pts = []
    u = np.linspace(-0.5, 0.5, grid_per_side)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    for n in normals:
        e1 = np.cross(n, [1.0, 0.0, 0.0])
        if np.linalg.norm(e1) < 1e-8:
            e1 = np.cross(n, [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        center = rng.uniform(-0.25, 0.25, size=3)
        patch = center[None, :] + uu.ravel()[:, None] * e1[None, :] + vv.ravel()[:, None] * e2[None, :]
        pts.append(patch)
    points = np.concatenate(pts)
    if noise_sd > 0:
        points = points + rng.normal(0.0, noise_sd, size=points.shape)
    return points, np.repeat(np.arange(3, dtype=np.int64), grid_per_side**2)


ARRANGEMENT_KINDS = ("lines2d", "mixed_curves2d", "planes3d")


def gen_arrangement_suite(
    kind: str,
    n_samples: int,
    seed: int = 0,
    points_per_component: int = 150,
    noise_sd: float = 0.008,
) -> list[LabeledDataset]:
    """Generate a suite of random labeled arrangements of a given kind.

    Kinds: ``lines2d`` (3 segments in R^2), ``mixed_curves2d`` (4 segments or
    parabola arcs in R^2), ``planes3d`` (3 plane patches in R^3, each a
    uniform grid).  Box sizes, lengths and angle separations are generator
    parameters with the defaults documented here, since only the arrangement
    types and sample counts are prescribed by the benchmark protocol.
    Reproducible: sample i is drawn from a Philox stream keyed seed XOR i.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if kind not in ARRANGEMENT_KINDS:
        raise ValueError(f"unknown arrangement kind: {kind!r}")
    if not 2 <= points_per_component < math.inf:
        raise ValueError(f"points_per_component must be finite and at least 2, got {points_per_component!r}")
    _check_non_negative("noise_sd", noise_sd)
    suite = []
    for i in range(n_samples):
        rng = _philox(seed, stream=i + 1)
        if kind == "lines2d":
            points, labels = _gen_curves2d(rng, 3, points_per_component, noise_sd, bend=False)
        elif kind == "mixed_curves2d":
            points, labels = _gen_curves2d(rng, 4, points_per_component, noise_sd, bend=True)
        else:
            side = max(4, int(round(math.sqrt(points_per_component))))
            points, labels = _gen_planes3d(rng, side, noise_sd)
        suite.append(LabeledDataset(empirical_measure(points), labels))
    return suite


# ---------------------------------------------------------------------------
# I/O: one CSV writer, strict JSON, measure CSV files
# ---------------------------------------------------------------------------

def write_csv(path, header, columns) -> None:
    """Write the ``header`` line, then one line per row of ``columns`` (one
    equal-length sequence per name).  Each cell is ``str`` of the value from
    ``column.tolist()``: a float's shortest round-tripping decimal (its
    ``repr``, which ``float`` and ``np.loadtxt`` read back bit for bit), an
    int as an int, and a string (such as a ``;``-joined cell) unchanged.

    Rows go out ``_CSV_ROWS`` at a time, so memory beyond the columns does
    not grow with the row count.  Columns of unequal length raise
    ``ValueError`` before the file is opened, leaving an existing file as
    it was."""
    columns = [np.asarray(column) for column in columns]
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length: {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, n, _CSV_ROWS):
            cells = [map(str, column[s : s + _CSV_ROWS].tolist()) for column in columns]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def json_dumps(obj, **kwargs) -> str:
    """``json.dumps`` that keeps to RFC 8259: NaN and infinities raise
    :class:`NumericalError` instead of being written as bare tokens."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NumericalError(f"non-finite value in JSON output ({exc})") from None


def save_measure(obj, path) -> None:
    """Write a WeightedMeasure or LabeledDataset as CSV, whatever the suffix.

    Columns: x_1,..,x_d,weight[,label] with a mandatory header row,
    written by :func:`write_csv`: floats as shortest round-tripping
    decimals, so a save/load cycle is bit-exact, and labels as integers.
    """
    measure, labels = (obj.measure, obj.labels) if isinstance(obj, LabeledDataset) else (obj, None)
    header = [f"x_{i + 1}" for i in range(measure.dim)] + ["weight"]
    columns = [*measure.atoms.T, measure.weights]
    if labels is not None:
        header.append("label")
        columns.append(labels)
    write_csv(path, header, columns)


def _first_bad_row(rows, d: int, has_label: bool) -> MeasureFormatError | None:
    """The error for the first data row (line 2 on) with the wrong column
    count, a cell ``float``/``int`` rejects or a weight that is not > 0."""
    ncol = d + 2 if has_label else d + 1
    for lineno, ln in enumerate(rows, start=2):
        cells = ln.split(",")
        try:
            if len(cells) != ncol:
                raise ValueError(f"expected {ncol} columns, found {len(cells)}")
            values = [float(c) for c in cells[: d + 1]]
            if not values[d] > 0:
                raise ValueError("weights must be positive")
            if has_label:
                int(cells[-1])
        except ValueError as exc:
            return MeasureFormatError(f"line {lineno}: {exc}")
    return None


def _data_lines(fh):
    """The stripped, non-blank lines of an open text file."""
    return (ln for ln in map(str.strip, fh) if ln)


def load_measure(path):
    """Load a WeightedMeasure or LabeledDataset from CSV, whatever the suffix.

    The header is ``x_1,..,x_d,weight``, and a LabeledDataset's ends in ``label``.
    A first pass counts the data rows; ``np.loadtxt`` then parses them
    ``_CSV_ROWS`` at a time into the measure's own arrays (int64 labels, so
    ``1.5`` or ``3.0`` is no label), with no list of lines; only a row it
    rejects makes another pass, to name the line.
    A file with no data row, a malformed row or a weight that is not
    positive (NaN included) raises
    :class:`MeasureFormatError` naming the line; blank lines are skipped and
    not counted (the header is line 1).
    """
    with open(path) as fh:
        rows = _data_lines(fh)
        header_line = next(rows, None)
        if header_line is None:
            raise MeasureFormatError("empty file")
        header = [c.strip() for c in header_line.split(",")]
        if "weight" not in header:
            raise MeasureFormatError("line 1: header must contain a 'weight' column")
        has_label = header[-1] == "label"
        d = len(header) - 1 - has_label
        if d < 1:
            raise MeasureFormatError("line 1: no coordinate columns")
        if header[: d + 1] != [f"x_{i + 1}" for i in range(d)] + ["weight"]:
            raise MeasureFormatError(f"line 1: header must be x_1..x_d,weight[,label], got {header_line!r}")
        n = sum(1 for _ in rows)
        if n == 0:
            raise MeasureFormatError("no data rows after the header")
        fh.seek(0)
        rows = _data_lines(fh)
        next(rows)
        fields = [("values", float, (d + 1,))] + ([("label", np.int64)] if has_label else [])
        atoms, weights = np.empty((n, d)), np.empty(n)
        labels = np.empty(n if has_label else 0, dtype=np.int64)
        try:
            for s in range(0, n, _CSV_ROWS):
                table = np.loadtxt(itertools.islice(rows, _CSV_ROWS), dtype=fields, delimiter=",",
                                   comments=None, ndmin=1)
                chunk, values = slice(s, s + _CSV_ROWS), table["values"]
                atoms[chunk], weights[chunk] = values[:, :d], values[:, d]
                if has_label:
                    labels[chunk] = table["label"]
        except ValueError as exc:  # read the file again for the line number
            with open(path) as again:
                rows = _data_lines(again)
                next(rows)
                raise _first_bad_row(rows, d, has_label) or MeasureFormatError(str(exc)) from None
    bad = np.flatnonzero(~(weights > 0))
    if bad.size:
        raise MeasureFormatError(f"line {bad[0] + 2}: weights must be positive")
    m = WeightedMeasure(atoms, weights)
    return LabeledDataset(m, labels) if has_label else m

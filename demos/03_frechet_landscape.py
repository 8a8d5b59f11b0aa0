"""The multiscale Fréchet function of a two-cluster sample.

V(x, sigma) is the kernel-weighted spread of the data about x (the trace of
the covariance tensor).  At small scales each cluster carves out its own
local minimum; as sigma grows the minima merge — the bifurcation is visible
in a sequence of heat maps.  The negative gradient flow labels each start
point with the attractor (local minimum) it falls into, giving scale-space
clusters.  A flow that comes farther than sqrt(2) sigma from the data's
bounding box has escaped the data by proof (from there every step moves
away from it), and so has one that stops anywhere else with no atom within
3 sigma; either gets basin -1.

Run:  python3 demos/03_frechet_landscape.py
Writes demos/output/frechet_sigma_*.svg
"""

import os

import numpy as np

import covfields as cf

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

rng = np.random.Generator(np.random.Philox(key=11))
pts = np.concatenate([
    rng.normal([-2.0, 0.0], 0.6, size=(200, 2)),
    rng.normal([2.0, 0.5], 0.6, size=(200, 2)),
])
measure = cf.empirical_measure(pts)
kernel = cf.builtin_gaussian()

axis = np.linspace(-4.5, 4.5, 40)
grid = np.column_stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")])
for sigma in (1.0, 2.0, 4.0):
    field = cf.ctf_grid(measure, kernel, grid, sigma)
    values = field.frechet_values.reshape(40, 40).T
    path = os.path.join(OUT, f"frechet_sigma_{sigma}.svg")
    cf.heatmap_svg(axis, axis, values, path)
    print(f"sigma={sigma}: Fréchet heat map -> {path}")

starts = np.column_stack([np.linspace(-4, 4, 17), np.zeros(17)])
labels, attractors, _ = cf.basin_labels(measure, kernel, starts, 1.2)
print(f"\ngradient-flow basins at sigma=1.2: {len(attractors)} attractors")
for k, a in enumerate(attractors):
    members = starts[labels == k][:, 0]
    print(f"  attractor at ({a[0]:+.2f}, {a[1]:+.2f}) collects starts x in "
          f"[{members.min():+.1f}, {members.max():+.1f}]")
escaped = starts[labels == -1][:, 0]
print(f"  {len(escaped)} starts escaped (basin -1: the flow came farther than sqrt(2) sigma from the "
      f"data's bounding box, beyond which V only falls away from the data, or stopped with no atom "
      f"within 3 sigma)"
      + (f": x in {np.round(escaped, 1).tolist()}" if len(escaped) else ""))

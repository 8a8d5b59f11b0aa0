"""Empirical convergence rate of sampled covariance fields.

Draw n i.i.d. points from the uniform circle law, evaluate the field on a
24 x 24 grid, and record the worst Frobenius deviation from the closed
form.  Averaged over replicates, the error falls like roughly n^{-1/2};
the log-corrected model C ln(n)^{3/4} n^{-1/2} is fitted alongside for
comparison.  (This demo uses a reduced ladder and replicate count; the
acceptance suite runs the full 30-replicate study.)

Run:  python3 demos/06_convergence_rates.py
Writes demos/output/converge.{csv,json,svg}
"""

import os

import covfields as cf

OUT = os.path.join(os.path.dirname(__file__), "output")

cfg = cf.ConvergeConfig(
    n_values=(10, 100, 1000, 10_000),
    replicates=10,
    seed=0,
)
report = cf.run_converge(cfg)
report.save(OUT)
print("n        mean sup-grid error")
for n, e in zip(report.n_values, report.mean_errors):
    print(f"{n:<8d} {e:.4e}")
print(f"\nfitted pure power law: error ~ {report.fit_power_constant:.3f} "
      f"* n^{report.fit_power_exponent:.3f}")
print(f"log-corrected model constant: {report.fit_lograte_constant:.3f} "
      f"(residual {report.fit_lograte_residual:.3f} vs power {report.fit_power_residual:.3f})")
print(f"errors monotone decreasing: {report.monotone_decreasing}")
print(f"outputs -> {OUT}/converge.csv, converge.json, converge.svg")

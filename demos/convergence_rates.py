"""Convergence-rate walkthrough on the unit interval.

Runs the estimator ladder on f(u) = u e^u (exact integral 1) over a doubling
sequence of grid resolutions with the benchmark harness, ``stratmc.run``, and
prints the mean-squared error per cell plus the log-log slope that
``fit_slope`` fits.  For an estimator of smoothness order r in dimension s
the MSE should fall like n^-(1 + 2r/s):

    crude-r1    -1    crude Monte Carlo
    haber1-r1   -3
    haber2-r2   -5
    hat-r4      -9    the paired estimator at r = 4

The paired estimator's error hits the exactness floor quickly, which is why
its large-k cells get discarded in benchmark CSVs.
"""

from itertools import groupby

from stratmc import ExperimentConfig, fit_slope, run, test_function

REPS = 50
KS = (4, 8, 16, 32, 64, 128, 256)

f1 = test_function(1)

rows = run(ExperimentConfig(integrand=f1, variants=("crude", "haber1", "haber2", "hat"),
                            r_values=(4,), k_values=KS, replicates=REPS))

print(f"integrand {f1.name}, exact integral {f1.exact}, {REPS} replicates per cell\n")
for group, cells in groupby(rows, key=lambda row: row.slope_group):
    cells = list(cells)
    line = "  ".join(f"n={row.n_evals:>5.0f}:{row.rel_error:.1e}" for row in cells)
    print(f"{group:<11} slope {fit_slope(cells):+.2f}")
    print(f"            {line}\n")

print("The same ladder is available from the command line:")
print("  stratmc run --fn fs --dim 1 --variant haber1,hat --r 4 \\")
print("              --k 4,8,16,32,64,128,256 --out rates.csv")
print("  stratmc slope --input rates.csv")

"""Integrals over the whole real line through the heavy-tailed cube map.

psi(u) = (2u - 1) / (u (1 - u))^tau sends (0, 1) onto the real line with
polynomial tails, so any integrand that decays polynomially (together with
its derivatives) turns into a cube integrand that vanishes on the boundary
with many derivatives.  Those are exactly the functions the dilation
estimator integrates at the higher-order rate without numerical derivatives.
"""

import math

import numpy as np

from stratmc import GridSpec, Stream, jacobian_factor, psi, wrap
from stratmc.estimators import estimate_vanishing, vanishing_margin
from stratmc.lattice import substream_id
from stratmc.replicate import pooled

TAU = 1.5

# --- the map itself -------------------------------------------------------
us = np.array([0.01, 0.25, 0.5, 0.75, 0.99])
print("u        :", us)
print("psi(u)   :", np.round(psi(us, TAU), 4))
print("psi'(u)  :", np.round(jacobian_factor(us.reshape(-1, 1), TAU), 2))
print()

# --- Gaussian second moment: int x^2 phi(x) dx = 1 -------------------------

def second_moment(x):
    x = np.atleast_2d(x)[:, 0]
    return x * x * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

f = wrap(lambda x: second_moment(x), 1, TAU)
r = 3
grid = GridSpec(1, 64, vanishing_margin(r))
reports = estimate_vanishing(f, r, grid, [Stream(1, substream_id("m2", j)) for j in range(6)],
                             keep_terms=True)
summary = pooled(reports)
print(f"E[X^2] for X ~ N(0,1): {summary.pooled_mean:.8f}"
      f"  (sd {math.sqrt(summary.pooled_variance):.1e}, exact 1)")

# --- a heavy-tailed integrand: Student-like density ------------------------
# g(x) = c / (1 + x^2)^2 integrates to 1 with c = 2/pi; it only decays
# polynomially, which the map's tails are built to absorb.

def student_like(x):
    x = np.atleast_2d(x)[:, 0]
    return (2.0 / math.pi) / (1.0 + x * x) ** 2

g = wrap(lambda x: student_like(x), 1, TAU)
reports = estimate_vanishing(g, r, grid, [Stream(2, substream_id("st", j)) for j in range(6)],
                             keep_terms=True)
summary = pooled(reports)
print(f"mass of 2/pi (1+x^2)^-2 : {summary.pooled_mean:.8f}"
      f"  (sd {math.sqrt(summary.pooled_variance):.1e}, exact 1)")

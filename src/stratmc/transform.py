"""Mapping integrals over R^s to boundary-vanishing integrands on the cube.

The componentwise map ``psi(u) = (2u - 1) / (u (1 - u))^tau`` is a smooth
bijection from (0, 1) to the real line with heavy (Student-like) tails.
Substituting it into an integral over R^s gives an integrand on the unit
cube that, for any g decaying polynomially together with its derivatives,
vanishes on the cube boundary with all derivatives up to the matching order.
Such integrands are exactly what the dilation-combination estimator in
:mod:`stratmc.estimators` wants.

``wrap`` returns a ``VanishingIntegrand``, whose values are bit for bit
``g(psi(u)) * jacobian_factor(u)`` on the open cube where g is nonzero and
+0.0 elsewhere.  Points of another width than ``s``, or with a NaN
coordinate, raise ``DomainError``, as do NaN entries given to ``psi`` and
``jacobian_factor``.  ``g`` and the log-density ``h`` are held to the
integrand contract of :mod:`stratmc.estimators`.  Every entry point rejects
a tail exponent ``tau`` that is not a real number with ``TypeError``, and
one that is not a finite number > 0 with ``ValueError``; ``wrap`` rejects a
dimension that is not an integer >= 1 as the lattice does.

``laplace_reparametrize`` applies the recipe to log-densities: centre at the
mode, scale by a Cholesky factor of the curvature there, then wrap with the
tail map.  Two scale conventions are exposed (see the function docstring)
because they lead to very differently conditioned integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, OptimizationError, StratError
from .estimators import _evaluate, _values
from .lattice import _dimension, _real

__all__ = [
    "psi",
    "jacobian_factor",
    "VanishingIntegrand",
    "wrap",
    "LaplaceFit",
    "laplace_reparametrize",
]


# the default tail exponent of wrap, laplace_reparametrize and the benchmark integrands
_TAU = 1.5


def _in_open_cube(u: np.ndarray) -> bool:
    # a NaN makes min() and max() NaN, and every comparison with it False
    return u.size == 0 or bool(u.min() > 0.0 and u.max() < 1.0)


def _positive(value, what: str) -> None:
    # tau: psi maps (0, 1) onto the real line only for tau > 0
    if not (_real(value, what) > 0.0 and math.isfinite(value)):
        raise ValueError(f"{what} must be a finite number > 0, got {value}")


def _interior(u: np.ndarray) -> None:
    if not _in_open_cube(u):
        raise DomainError("the tail map is defined on the open unit cube only")


def _parts(u: np.ndarray, tau: float):
    """u(1-u), 2u-1 and (u(1-u))^tau: psi is the second over the third."""
    base = 1.0 - u
    base *= u
    centred = 2.0 * u
    centred -= 1.0
    return base, centred, base ** tau


def _slope(base, centred, scale, tau: float) -> np.ndarray:
    """psi'(u) per axis, 2 / (u(1-u))^tau + tau (2u-1)^2 / (u(1-u))^(tau+1),
    formed in place of the arrays of ``_parts(u, tau)`` and returned in ``scale``."""
    base **= tau + 1.0
    centred *= centred
    centred *= tau
    centred /= base
    np.divide(2.0, scale, out=scale)
    scale += centred
    return scale


def _axis_product(per_axis: np.ndarray) -> np.ndarray:
    # one column at a time in axis order, the order numpy's prod takes over a short axis
    out = per_axis[..., 0].copy()
    for axis in range(1, per_axis.shape[-1]):
        out *= per_axis[..., axis]
    return out


def psi(u, tau: float):
    """Componentwise (2u - 1) / (u^tau (1-u)^tau); open cube to R^s."""
    _positive(tau, "tau")
    u = np.asarray(u, dtype=float)
    _interior(u)
    _base, centred, scale = _parts(u, tau)
    return centred / scale


def jacobian_factor(u, tau: float):
    """Product over axes of psi'(u_i); the change-of-variables weight.

    Per axis: 2 / (u(1-u))^tau + tau (2u-1)^2 / (u(1-u))^(tau+1), which is
    minimal (2 * 4^tau) at u = 1/2 and blows up polynomially at the faces.
    For points of shape (n, s) the product runs over the last axis, one
    column at a time in axis order (the order numpy's ``prod`` takes over a
    short axis); one point of shape (s,) gives a numpy scalar and a 0-d
    input a float.
    """
    _positive(tau, "tau")
    u = np.asarray(u, dtype=float)
    _interior(u)
    per_axis = _slope(*_parts(np.atleast_1d(u), tau), tau)
    if u.ndim == 0:
        return float(per_axis[0])
    return _axis_product(per_axis)[()]


@dataclass
class VanishingIntegrand:
    """g pushed through the tail map; zero on the cube boundary.

    Calling convention matches the estimators: (n, s) points in, (n,) values
    out, bit for bit ``g(psi(u)) * jacobian_factor(u)`` on points of the open
    cube where g is nonzero and +0.0 on every other point.  One call forms
    ``u(1-u)``, ``2u-1`` and ``(u(1-u))^tau`` once each for the map and the
    Jacobian, and copies points only when some lie outside the open cube.
    The Jacobian factor is built in place for every interior point and used
    only where g is nonzero: where g is 0 it may overflow near the faces,
    with its floating-point warnings silenced, and the value is +0.0 all the
    same.  Where g is nonzero an overflow warns as ``jacobian_factor`` does.
    Points of another width than ``s``, and a point with a NaN coordinate,
    raise ``DomainError``.
    ``g`` is held to the integrand contract as the "wrapped integrand", at
    the caller's row and the ``psi`` image it was given.  ``s`` and ``tau``
    are checked once, here.
    """

    g: Callable[[np.ndarray], np.ndarray]
    s: int
    tau: float

    def __post_init__(self):
        self.s = _dimension(self.s)
        _positive(self.tau, "tau")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.s:
            raise DomainError(f"the wrapped integrand takes (n, {self.s}) points, "
                              f"got shape {pts.shape}")
        inner, interior = pts, None
        if len(pts) == 0 or not _in_open_cube(pts):
            interior = np.all((pts > 0.0) & (pts < 1.0), axis=1)
            outside = np.flatnonzero(~interior)
            nan = np.isnan(pts[outside]).any(axis=1)
            if nan.any():
                i = outside[nan.argmax()]
                raise DomainError(f"the wrapped integrand got NaN at point {i} {pts[i].tolist()}")
            if not interior.any():
                return np.zeros(len(pts))
            inner = pts[interior]
        base, centred, scale = _parts(inner, self.tau)
        gvals = _evaluate(self.g, centred / scale, "wrapped integrand",
                          rows=None if interior is None else np.flatnonzero(interior))[0]
        # psi' for every row: a row where g is 0 may overflow to inf or NaN
        # here, and gets +0.0 below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = _axis_product(_slope(base, centred, scale, self.tau))
            vals *= gvals
        vals[gvals == 0.0] = 0.0
        bad = ~np.isfinite(vals)
        if bad.any():
            # an overflow where g is nonzero: form those rows again with the
            # floating-point warnings on
            vals[bad] = gvals[bad] * jacobian_factor(inner[bad], self.tau)
        if interior is None:
            return vals
        out = np.zeros(len(pts))
        out[interior] = vals
        return out


def wrap(g, s: int, tau: float = _TAU) -> VanishingIntegrand:
    """Turn an integrand on R^s into a boundary-vanishing one on the cube.

    The caller asserts that g and its derivatives up to the order it intends
    to exploit decay polynomially at infinity (unchecked); the integral of
    the wrapped function over the cube equals the integral of g over R^s.
    """
    return VanishingIntegrand(g=g, s=s, tau=tau)


# ---------------------------------------------------------------------------
# Laplace-style reparametrization of log-densities

_FD_STEP = 1e-5  # of the central differences in the mode search and the curvature
_MAX_ITER = 200  # Newton iterates before the mode search gives up


def _differences(h, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """h(x), and the central-difference gradient and Hessian of h at x.

    One batch of 1 + 2s + 2s(s-1) rows: x + step e_i and x - step e_i for
    each axis i, then x, then the corners x +- step e_i +- step e_j (++, +-,
    -+, --) of each pair i < j.
    """
    s, step = len(x), _FD_STEP
    pairs = np.triu_indices(s, 1)
    pts = np.repeat(x[None, :], 1 + 2 * s + 4 * len(pairs[0]), axis=0)
    axes = np.arange(s)
    pts[2 * axes, axes] += step
    pts[2 * axes + 1, axes] -= step
    corners = step * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    for n, pair in enumerate(zip(*pairs)):
        pts[2 * s + 1 + 4 * n:2 * s + 5 + 4 * n, list(pair)] += corners
    vals = _evaluate(h, pts, "log-density")[0]
    plus, minus, h0 = vals[0:2 * s:2], vals[1:2 * s:2], float(vals[2 * s])
    vpp, vpm, vmp, vmm = vals[2 * s + 1:].reshape(-1, 4).T
    hess = np.diag((plus - 2.0 * h0 + minus) / step ** 2)
    hess[pairs] = hess[pairs[::-1]] = (vpp - vpm - vmp + vmm) / (4.0 * step ** 2)
    return h0, (plus - minus) / (2.0 * step), hess


@dataclass
class LaplaceFit:
    """Mode, curvature and wrapped integrand of exp(h)."""

    mode: np.ndarray
    hessian: np.ndarray          # of -h at the mode (positive definite)
    scale_matrix: np.ndarray
    integrand: VanishingIntegrand
    trace: list = field(default_factory=list)


def laplace_reparametrize(h, mode_guess, *, scale: str, tau: float = _TAU,
                          grad_tol: float = 1e-8) -> LaplaceFit:
    """Recentre exp(h) at its mode and wrap it into a cube integrand.

    ``h`` maps (n, s) arrays of points to (n,) log-density values and must be
    concave near the mode.  The mode is found by damped Newton ascent on
    central-difference derivatives with a fixed step of 1e-5, stopping when
    the gradient max-norm drops below ``grad_tol``, or when no step improves
    h while the predicted Newton gain ``grad . step / 2`` is at the rounding
    level of ``|h|`` (the difference gradient then only measures noise).
    Each iterate x reads h in one batch of 1 + 2s + 2s(s-1) rows: x + step
    e_i and x - step e_i for each axis i in turn, then x, then the four
    corners x +- step e_i +- step e_j of each pair i < j.  That batch, which
    gives h(x), the gradient and the Hessian, is held to the integrand
    contract as the "log-density".  A line-search candidate is one row held
    to the same shape and dtype rules; a NaN or -inf value there means no
    ascent and halves the step.  The search gives up after 200 iterates.
    ``tau`` and ``grad_tol`` (finite real numbers > 0) and ``mode_guess``
    (1-D, of length at least 1) are checked before h is first called.

    ``scale`` selects the linear change of variables, with H the curvature
    (Hessian of -h) at the mode, taken from the last iterate's batch:

    * ``"inv-hessian"`` - L is the Cholesky factor of H^-1, the standard
      Laplace scaling; the pulled-back density is approximately standard
      normal.
    * ``"hessian"`` - L is the Cholesky factor of H itself.

    Both give integrands whose cube integral equals the integral of exp(h)
    (|det L| is folded in); they differ only in conditioning, and no default
    is taken.
    """
    if scale not in ("inv-hessian", "hessian"):
        raise ValueError(f"scale must be 'inv-hessian' or 'hessian', got {scale!r}")
    _positive(tau, "tau")
    _positive(grad_tol, "grad_tol")
    x = np.asarray(mode_guess, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError(f"mode_guess must be 1-D, got shape {x.shape}")
    s = _dimension(len(x), "mode_guess length")
    trace = [x.copy()]
    for _ in range(_MAX_ITER):
        h_now, grad, hess = _differences(h, x)
        if np.max(np.abs(grad)) <= grad_tol:
            break
        try:
            step_dir = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            step_dir = grad
        if float(grad @ step_dir) <= 0.0:
            step_dir = grad  # curvature not usable here; fall back to ascent
        t = 1.0
        while t > 1e-12:
            cand = x + t * step_dir
            if _values(h, cand[None, :], "log-density")[0] > h_now:
                break
            t *= 0.5
        else:
            # converged when the predicted gain is rounding noise in h
            if 0.5 * float(grad @ step_dir) > 64.0 * np.finfo(float).eps * max(1.0, abs(h_now)):
                raise OptimizationError("no ascent step found from current iterate", trace)
            break
        x = x + t * step_dir
        trace.append(x.copy())
    else:
        raise OptimizationError(
            f"mode search did not reach gradient tolerance {grad_tol} "
            f"in {_MAX_ITER} iterations", trace,
        )

    curvature = -hess  # at the last iterate, the mode
    try:
        if scale == "inv-hessian":
            scale_matrix = np.linalg.cholesky(np.linalg.inv(curvature))
        else:
            scale_matrix = np.linalg.cholesky(curvature)
    except np.linalg.LinAlgError as exc:
        raise StratError(f"curvature at the mode is not positive definite: {exc}") from exc

    # a float64 scalar, so h's values are promoted to at least float64, not
    # cast: complex stays complex, for the wrapped integrand's check to
    # reject, and -inf is a zero density
    log_det = np.log(np.abs(np.linalg.det(scale_matrix)))
    mode = x.copy()

    def g(y: np.ndarray) -> np.ndarray:
        beta = mode[None, :] + y @ scale_matrix.T
        return np.exp(np.asarray(h(beta)) + log_det)

    return LaplaceFit(
        mode=mode,
        hessian=curvature,
        scale_matrix=scale_matrix,
        integrand=wrap(g, s, tau),
        trace=trace,
    )

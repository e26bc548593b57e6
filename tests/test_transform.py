import itertools
import math
import re

import numpy as np
import pytest

from stratmc.errors import DomainError, IntegrandError, OptimizationError, StratError
from stratmc.lattice import GridSpec, Stream
from stratmc.estimators import estimate_vanishing
from stratmc.transform import (
    jacobian_factor,
    laplace_reparametrize,
    psi,
    wrap,
)


def test_psi_midpoint_zero():
    assert np.allclose(psi(np.full(3, 0.5), 1.5), 0.0)


def test_psi_value():
    assert psi(np.array([0.75]), 1.0)[0] == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_psi_monotone():
    assert psi(np.array([0.6]), 1.5)[0] < psi(np.array([0.7]), 1.5)[0]


def test_psi_boundary_rejected():
    with pytest.raises(DomainError):
        psi(np.array([0.0, 0.5]), 1.5)
    with pytest.raises(DomainError):
        jacobian_factor(np.array([1.0]), 1.5)


def test_psi_and_jacobian_reject_nan():
    # NaN is not a point of the open cube
    for fn in (psi, jacobian_factor):
        with pytest.raises(DomainError):
            fn(np.array([[0.5, np.nan]]), 1.5)
        with pytest.raises(DomainError):
            fn(np.nan, 1.5)


def test_jacobian_midpoint():
    assert jacobian_factor(np.array([[0.5]]), 1.5)[0] == pytest.approx(2 * 4 ** 1.5, rel=1e-12)


def test_jacobian_matches_finite_difference():
    # centred difference of psi with h = 1e-5 agrees to ~1e-6 relative
    tau = 1.5
    h = 1e-5
    for u in (0.1, 0.3, 0.62, 0.9):
        fd = (psi(np.array([u + h]), tau)[0] - psi(np.array([u - h]), tau)[0]) / (2 * h)
        got = jacobian_factor(np.array([[u]]), tau)[0]
        assert got == pytest.approx(fd, rel=1e-6)


def test_jacobian_global_minimum():
    # fine 1-d scan: the factor is minimal at the midpoint, value 2 * 4^tau
    tau = 1.5
    us = np.linspace(1e-4, 1 - 1e-4, 20001).reshape(-1, 1)
    vals = jacobian_factor(us, tau)
    assert vals.min() >= 2 * 4 ** tau - 1e-9


def test_jacobian_product_over_axes():
    u = np.array([[0.3, 0.7]])
    per = jacobian_factor(np.array([[0.3]]), 1.5)[0] * jacobian_factor(np.array([[0.7]]), 1.5)[0]
    assert jacobian_factor(u, 1.5)[0] == pytest.approx(per, rel=1e-12)


@pytest.mark.parametrize("s", range(1, 13))
def test_jacobian_bitwise_matches_prod_over_last_axis(s):
    # the column-by-column product is numpy's own reduction order
    u = np.random.default_rng(s).uniform(1e-3, 1 - 1e-3, size=(257, s))
    for tau in (0.5, 1.5):
        base = u * (1.0 - u)
        per_axis = 2.0 / base ** tau + tau * (2.0 * u - 1.0) ** 2 / base ** (tau + 1.0)
        want = np.prod(per_axis, axis=-1)
        got = jacobian_factor(u, tau)
        assert got.shape == (257,) and np.array_equal(got, want)
        # return types: (s,) gives a numpy scalar, 0-d a float
        one = jacobian_factor(u[3], tau)
        assert isinstance(one, np.float64) and np.ndim(one) == 0 and one == want[3]
        assert type(jacobian_factor(u[3, 0], tau)) is float


_EDGES = [0.0, -0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
          np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]


def _edge_points(s):
    # every edge value on every axis, the other axes at 1/2
    rows = []
    for axis in range(s):
        for x in _EDGES:
            row = [0.5] * s
            row[axis] = x
            rows.append(row)
    return np.array(rows)


def _composition(g, pts, tau):
    # the wrapped integrand written out: g(psi(u)) * jacobian_factor(u) on the
    # open-cube rows where g is nonzero, +0.0 on every other row
    inside = np.flatnonzero(np.all((pts > 0.0) & (pts < 1.0), axis=1))
    want = np.zeros(len(pts))
    if len(inside):
        inner = pts[inside]
        gvals = np.asarray(g(psi(inner, tau)), dtype=float)
        nz = gvals != 0.0
        if nz.any():
            want[inside[nz]] = gvals[nz] * jacobian_factor(inner[nz], tau)
    return want


def _gauss_s(y):
    return np.exp(-0.5 * np.sum(y * y, axis=1))


_G_VARIANTS = {
    "nonzero": _gauss_s,
    "zero on some rows": lambda y: np.where(y[:, 0] > 0.0, _gauss_s(y), 0.0),
    "zero on all rows": lambda y: np.zeros(len(y)),
    "negative zero": lambda y: np.where(y[:, -1] < 0.0, -0.0, _gauss_s(y)),
    "float32": lambda y: _gauss_s(y).astype(np.float32),
    "int": lambda y: (y[:, 0] > 0.0).astype(int) * 3,
    "int nonzero": lambda y: np.full(len(y), 2),
}


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_tail_map_mask_is_open_cube(s):
    # only points strictly inside (0, 1)^s reach g, once, as their psi image;
    # the values are the composition bit for bit, the sign of zero included
    rng = np.random.default_rng(s)
    interior = rng.uniform(size=(64, s))
    outside = rng.uniform(size=(2 * s, s))
    for axis in range(s):
        outside[2 * axis, axis] = -0.25
        outside[2 * axis + 1, axis] = 1.5
    edges = _edge_points(s)
    assert np.all((edges > 0.0) & (edges < 1.0), axis=1).sum() == 2 * s
    mixed = np.concatenate([interior, edges, outside])
    mixed = mixed[rng.permutation(len(mixed))]
    for tau, (name, g), pts in itertools.product(
            (0.5, 1.5), _G_VARIANTS.items(), (interior, edges, mixed, outside)):
        seen = []

        def recorded(y):
            seen.append(y.copy())
            return g(y)

        # psi and its Jacobian overflow at the subnormal 5e-324, legitimately
        with np.errstate(divide="ignore", over="ignore"):
            got = wrap(recorded, s, tau)(pts)
            want = _composition(g, pts, tau)
            inner = pts[np.all((pts > 0.0) & (pts < 1.0), axis=1)]
            image = psi(inner, tau)
        assert got.dtype == np.float64 and got.shape == (len(pts),)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
        # g runs once, on the psi image of the open-cube rows, or not at all
        assert len(seen) == (1 if len(inner) else 0), name
        if seen:
            assert np.array_equal(seen[0], image), name


def test_tail_map_zero_g_where_the_jacobian_overflows():
    # at u = 1e-200 the psi image is finite (-1e300 at tau = 1.5) but
    # (u(1-u))^(tau+1) underflows, so psi' is inf there; g is 0 on that row
    # and nonzero on the others.  The row gets +0.0, the others the
    # composition bit for bit, and no RuntimeWarning escapes (pyproject
    # turns one into an error, and no errstate is set here)
    pts = np.array([[1e-200, 0.5], [0.3, 0.6], [0.5, 0.5], [0.7, 1e-3]])

    def g(y):
        # comparisons and cos only: g itself raises no warning on -1e300
        return (np.abs(y[:, 0]) < 10.0) * (2.0 + np.cos(y[:, 1]))

    u = pts[0, 0]
    assert (u * (1.0 - u)) ** 2.5 == 0.0 and np.isfinite(psi(pts, 1.5)).all()
    got = wrap(g, 2, 1.5)(pts)
    want = _composition(g, pts, 1.5)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[0] == 0.0 and not np.signbit(got[0]) and (got[1:] > 0.0).all()


def test_tail_map_overflow_where_g_is_nonzero_warns():
    # the Jacobian's warnings are silenced only on the rows where g is 0: a
    # nonzero g at u = 1e-200 meets an overflowing psi' and warns, as
    # jacobian_factor does, and the row is inf, as the composition is
    pts = np.array([[1e-200, 0.5], [0.3, 0.6], [1e-200, 0.4]])

    def g(y):
        return (y[:, 1] > 0.0) + 0.5

    with pytest.warns(RuntimeWarning):
        got = wrap(g, 2, 1.5)(pts)
    with pytest.warns(RuntimeWarning):
        want = _composition(g, pts, 1.5)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[0] == np.inf and np.isfinite(got[1]) and got[2] == np.inf


# ---------------------------------------------------------------------------
# wrapping

def _gauss_1d(x):
    x = np.atleast_2d(x)
    return np.exp(-0.5 * np.sum(x * x, axis=1)) / math.sqrt(2 * math.pi)


def test_wrap_zero_function():
    f = wrap(lambda x: np.zeros(len(np.atleast_2d(x))), 2, 1.5)
    pts = np.random.default_rng(0).uniform(0.01, 0.99, size=(50, 2))
    assert np.all(f(pts) == 0.0)


def test_wrap_boundary_is_zero():
    f = wrap(_gauss_1d, 1, 1.5)
    assert f(np.array([[0.0], [1.0], [0.5]]))[2] > 0.0
    assert f(np.array([[0.0]]))[0] == 0.0
    assert f(np.array([[1.0]]))[0] == 0.0


def test_wrap_boundary_decay():
    f = wrap(_gauss_1d, 1, 1.5)
    near = f(np.array([[1e-3]]))[0]
    mid = f(np.array([[0.5]]))[0]
    assert near < 1e-6 * mid


def test_wrap_gaussian_unbiased():
    f = wrap(_gauss_1d, 1, 1.5)
    reports = estimate_vanishing(f, 3, GridSpec(1, 16, 3), [Stream(0, rep) for rep in range(400)])
    vals = np.array([rep.value for rep in reports])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) <= 4 * se


def test_wrap_rejects_points_of_another_width():
    seen = []
    f = wrap(lambda y: seen.append(y) or np.ones(len(y)), 2, 1.5)
    with pytest.raises(DomainError, match=r"takes \(n, 2\) points, got shape \(1, 3\)"):
        f(np.array([[0.3, 0.4, 0.5]]))
    with pytest.raises(DomainError, match=r"takes \(n, 2\) points, got shape \(4, 1\)"):
        f(np.full((4, 1), 0.5))
    assert not seen


def test_wrap_rejects_g_of_another_shape():
    # g owes one value per point; a single value, a column or a scalar is
    # not spread over the points
    pts = np.full((3, 2), 0.5)
    for g, shape in ((lambda y: np.ones(1), r"\(1,\)"),
                     (lambda y: np.ones((len(y), 1)), r"\(3, 1\)"),
                     (lambda y: 2.0, r"\(\)")):
        with pytest.raises(IntegrandError, match=rf"returned shape {shape} for 3 points"):
            wrap(g, 2, 1.5)(pts)


def test_wrap_rejects_g_of_another_dtype():
    # g owes real numbers: a complex value is not cut to its real part, a
    # string is not parsed and an object array does not pass; booleans and
    # integers are real and convert to float
    pts = np.full((3, 2), 0.5)
    for g, dtype in ((lambda y: np.exp(-0.5 * (y * y).sum(1)) + 1j, "complex128"),
                     (lambda y: np.array(["1.5"] * len(y)), "<U3"),
                     (lambda y: np.array([1.0] * len(y), dtype=object), "object")):
        with pytest.raises(IntegrandError, match=f"returned values of dtype {dtype}; expected real"):
            wrap(g, 2, 1.5)(pts)
    jac = jacobian_factor(pts, 1.5)
    for g, value in ((lambda y: np.ones(len(y), dtype=bool), 1.0),
                     (lambda y: np.full(len(y), 3), 3.0)):
        out = wrap(g, 2, 1.5)(pts)
        assert out.dtype == np.float64 and np.array_equal(out, value * jac)


def test_wrap_rejects_nan_points():
    # the first row holding a NaN is named, whatever its other coordinates
    seen = []
    f = wrap(lambda y: seen.append(y) or np.ones(len(y)), 2, 1.5)
    pts = np.array([[0.3, 0.4], [1.5, 0.2], [0.2, np.nan], [np.nan, 1.0]])
    with pytest.raises(DomainError, match=r"got NaN at point 2 \[0\.2, nan\]"):
        f(pts)
    with pytest.raises(DomainError, match=r"got NaN at point 0 \[nan, 1\.0\]"):
        f(pts[3:])
    assert not seen


def test_wrap_nonfinite_raises():
    # the error names the caller's row of the first non-finite value, the
    # psi image g was given there and the count; it stays a StratError for
    # existing handlers
    bad = wrap(lambda x: np.where(x[:, 0] > 0.5, np.inf, 1.0), 1, 1.5)
    image = re.escape(str(psi(np.array([0.75]), 1.5).tolist()))
    with pytest.raises(IntegrandError, match=rf"^wrapped integrand returned inf at point 1 "
                                             rf"{image} \(2 non-finite values in total\)$"):
        bad(np.array([[0.25], [0.75], [0.9]]))
    assert issubclass(IntegrandError, StratError)


def test_wrap_nonfinite_names_the_callers_row():
    # points on the boundary never reach g, so the row g saw is mapped back
    # to the caller's row
    bad = wrap(lambda x: np.where(x[:, 0] > 0.5, np.nan, 1.0), 1, 1.5)
    image = re.escape(str(psi(np.array([0.75]), 1.5).tolist()))
    with pytest.raises(IntegrandError, match=rf"^wrapped integrand returned nan at point 3 "
                                             rf"{image} \(1 non-finite values in total\)$"):
        bad(np.array([[0.0], [0.25], [1.0], [0.75]]))



@pytest.mark.parametrize("tau", [0.0, -0.5, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", ["psi", "jacobian_factor", "wrap", "laplace_reparametrize"])
def test_tau_must_be_a_finite_positive_number(entry, tau):
    # psi maps (0, 1) onto R only for tau > 0: at tau = 0 a wrapped density
    # integrated to its mass on (-1, 1), and below 0 to a negative number
    seen = []

    def h(b):
        seen.append(b)
        return -0.5 * np.sum(b * b, axis=1)

    run = {
        "psi": lambda: psi(np.full(2, 0.3), tau),
        "jacobian_factor": lambda: jacobian_factor(np.full(2, 0.3), tau),
        "wrap": lambda: wrap(lambda y: np.ones(len(y)), 1, tau),
        "laplace_reparametrize": lambda: laplace_reparametrize(h, np.zeros(1), scale="hessian",
                                                               tau=tau),
    }[entry]
    with pytest.raises(ValueError, match=rf"^tau must be a finite number > 0, got {tau}$"):
        run()
    assert not seen  # laplace_reparametrize checks before it calls h

def test_roundtrip_by_bisection():
    # solve psi(u) = x on (0,1), then map back: recovers x to 1e-10
    tau = 1.5
    for x in np.linspace(-10, 10, 41):
        lo, hi = 1e-12, 1 - 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if psi(np.array([mid]), tau)[0] < x:
                lo = mid
            else:
                hi = mid
        u = 0.5 * (lo + hi)
        assert psi(np.array([u]), tau)[0] == pytest.approx(x, abs=1e-10)


def test_change_of_variables_quadrature():
    # compactly supported g: cube quadrature of the wrapped integrand matches
    # the line quadrature of g within discretization error
    def g(x):
        x = np.atleast_2d(x)[:, 0]
        return np.where(np.abs(x) < 1.0, (1.0 - x * x) ** 2, 0.0)

    exact = 16.0 / 15.0
    f = wrap(lambda x: g(x), 1, 1.5)
    n = 40001
    us = ((np.arange(n) + 0.5) / n).reshape(-1, 1)
    quad = f(us).sum() / n
    assert quad == pytest.approx(exact, abs=1e-6)


# ---------------------------------------------------------------------------
# Laplace reparametrization

def _mvn_logpdf(mu, cov):
    covi = np.linalg.inv(cov)
    logz = -0.5 * math.log(np.linalg.det(2 * math.pi * cov))

    def h(beta):
        beta = np.atleast_2d(beta)
        d = beta - mu
        return logz - 0.5 * np.einsum("ni,ij,nj->n", d, covi, d)

    return h


def test_laplace_mode_of_standard_quadratic():
    h = _mvn_logpdf(np.zeros(2), np.eye(2))
    fit = laplace_reparametrize(h, np.array([1.0, -2.0]), scale="inv-hessian")
    assert np.max(np.abs(fit.mode)) <= 1e-8


def test_laplace_normalized_density_integrates_to_one():
    mu = np.array([0.4, -0.1])
    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    h = _mvn_logpdf(mu, cov)
    for scale in ("inv-hessian", "hessian"):
        fit = laplace_reparametrize(h, np.zeros(2), scale=scale)
        vals = np.array([
            estimate_vanishing(fit.integrand, 3, GridSpec(2, 12, 3), Stream(1, rep)).value
            for rep in range(150)
        ])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) <= 4 * se


def test_laplace_scale_required_choice():
    h = _mvn_logpdf(np.zeros(1), np.eye(1))
    with pytest.raises(TypeError):
        laplace_reparametrize(h, np.zeros(1))  # scale is keyword-required
    with pytest.raises(ValueError):
        laplace_reparametrize(h, np.zeros(1), scale="cov")


def test_laplace_nonconvergent_trace():
    # a pure linear drift has no mode
    lin = lambda b: np.atleast_2d(b)[:, 0]
    with pytest.raises(OptimizationError) as err:
        laplace_reparametrize(lin, np.zeros(1), scale="inv-hessian", max_iter=5)
    assert len(err.value.trace) >= 1


def test_laplace_rejects_a_nonfinite_log_density():
    # the difference derivatives are held to the integrand contract, so a
    # broken h fails at once instead of yielding a NaN curvature
    nan = lambda b: np.full(len(np.atleast_2d(b)), np.nan)
    with pytest.raises(IntegrandError, match=r"log-density returned nan at point 0 \[1e-05, 0\.0\]"):
        laplace_reparametrize(nan, np.zeros(2), scale="inv-hessian")
    # finite at the guess, -inf on one side of it
    h = _mvn_logpdf(np.zeros(2), np.eye(2))
    half = lambda b: np.where(np.atleast_2d(b)[:, 1] < 0.0, -np.inf, h(b))
    with pytest.raises(IntegrandError, match=r"log-density returned -inf at point 3 \[0\.0, -1e-05\]"):
        laplace_reparametrize(half, np.zeros(2), scale="hessian")


def _tails(h, value):
    # h, with ``value`` added wherever a point has |beta_0| > 3; the mode
    # search stays near 0 and never sees it
    def out(beta):
        beta = np.atleast_2d(beta)
        tail = np.abs(beta[:, 0]) > 3.0
        return np.where(tail, h(beta) + value, h(beta)) if tail.any() else h(beta)
    return out


def test_laplace_complex_log_density_reaches_the_check():
    # a complex value in the tails is not cut to its real part: it reaches
    # the wrapped integrand's check
    h = _mvn_logpdf(np.zeros(2), np.eye(2))
    fit = laplace_reparametrize(_tails(h, 0.5j), np.zeros(2), scale="inv-hessian")
    pts = np.array([[0.5, 0.5], [0.99, 0.5]])
    with pytest.raises(IntegrandError, match=r"^wrapped integrand returned values of dtype complex128"):
        fit.integrand(pts)


def test_laplace_minus_inf_log_density_is_a_zero_density():
    # h = -inf is a zero density, valid in the tails: the point gets +0.0
    # and every other point the value of the plain log-density
    h = _mvn_logpdf(np.zeros(2), np.eye(2))
    pts = np.array([[0.5, 0.5], [0.8, 0.5], [0.45, 0.8]])
    plain = laplace_reparametrize(h, np.zeros(2), scale="inv-hessian").integrand(pts)
    got = laplace_reparametrize(_tails(h, -np.inf), np.zeros(2), scale="inv-hessian").integrand(pts)
    assert got[1] == 0.0 and not np.signbit(got[1]) and plain[1] > 0.0
    assert got[0] == plain[0] and got[2] == plain[2]


def test_laplace_rejects_a_column_log_density():
    # the first batch is the whole difference batch at s=2: 1 + 4 + 4 rows
    h = _mvn_logpdf(np.zeros(2), np.eye(2))
    with pytest.raises(IntegrandError, match=r"log-density returned shape \(9, 1\) for 9 points"):
        laplace_reparametrize(lambda b: h(b)[:, None], np.ones(2), scale="inv-hessian")


def _row_stable(b):
    # elementwise arithmetic only, so a point's value does not depend on the
    # batch it comes in
    b = np.atleast_2d(b)
    d0, d1, d2 = b[:, 0] - 0.3, b[:, 1] + 0.2, b[:, 2] - 0.1
    q1 = d1 * d1
    return -d0 * d0 - 0.5 * q1 * q1 - q1 - d2 * d2 - 0.3 * d0 * d1 + 0.1 * d1 * d2


def _difference_batch(x):
    # x +- step e_i by axis, then x, then the corners ++, +-, -+, -- of each pair i < j
    s, step = len(x), 1e-5
    rows = [x + sign * step * np.eye(s)[i] for i in range(s) for sign in (1.0, -1.0)] + [x]
    for i, j in itertools.combinations(range(s), 2):
        for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
            corner = x.copy()
            corner[i] += si * step
            corner[j] += sj * step
            rows.append(corner)
    return np.array(rows)


@pytest.mark.parametrize("h, guess", [
    (_mvn_logpdf(np.array([0.7]), 2.0 * np.eye(1)), [0.0]),
    (_mvn_logpdf(np.array([0.4, -0.1]), np.array([[1.0, 0.3], [0.3, 0.5]])), [0.0, 0.0]),
    (_row_stable, [0.0, 0.0, 0.0]),
], ids=["s1", "s2", "s3"])
def test_laplace_reads_h_once_per_iterate(h, guess):
    # each iterate is one batch of 1 + 2s + 2s(s-1) rows, and the curvature
    # at the mode is the last iterate's: no batch follows it
    batches = []

    def recorded(b):
        batches.append(np.array(b, copy=True))
        return h(b)

    fit = laplace_reparametrize(recorded, np.array(guess), scale="inv-hessian")
    s = len(guess)
    multi = [i for i, b in enumerate(batches) if len(b) > 1]
    assert len(multi) == len(fit.trace)
    for i, x in zip(multi, fit.trace):
        assert len(batches[i]) == 1 + 2 * s + 2 * s * (s - 1)
        assert np.array_equal(batches[i], _difference_batch(x))
    assert multi[-1] == len(batches) - 1
    assert np.array_equal(fit.trace[-1], fit.mode)


def test_laplace_golden():
    # mode and curvature of a row-stable h, bit for bit as formed by separate
    # gradient and Hessian batches
    fit = laplace_reparametrize(_row_stable, np.zeros(3), scale="inv-hessian")
    assert [v.hex() for v in fit.mode] == [
        "0x1.3333333333332p-2", "-0x1.9999999999992p-3", "0x1.999999999999bp-4"]
    assert [v.hex() for v in fit.hessian.ravel()] == [
        "0x1.000000000232fp+1", "0x1.3333333335d6dp-2", "-0x0.0p+0",
        "0x1.3333333335d6dp-2", "0x1.00000000392cbp+1", "-0x1.999999999aad1p-4",
        "-0x0.0p+0", "-0x1.999999999aad1p-4", "0x1.fffffffffe4b7p+0"]
    assert len(fit.trace) == 4

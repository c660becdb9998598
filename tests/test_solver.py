import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import viscokern
import viscokern.solver as solver_module
from viscokern import expressions
from viscokern.grids import Grid
from viscokern.kernels import (
    DerivativeUndefinedError,
    IntegratedKernel,
    PronyKernel,
    RelaxationKernel,
    TabulatedKernel,
    WedgeKernel,
)
from viscokern.mollify import MollifiedKernel
from viscokern.solver import (
    HISTORY_BLOCK,
    SOLVE_BLOCK,
    ConfigurationError,
    ProblemSpec,
    SolverDivergenceError,
    UnsupportedKernelError,
    _sample_x,
    cfl_limit,
    l2_distance,
    l2_error_vs,
    manufactured_prony,
    solve,
    solve_differential,
    solve_integral,
)

PRONY = PronyKernel(1.0, ((1.0, 0.5),))
WEDGE = WedgeKernel(2.0, 1.0, 0.4)


def make_spec(kernel, scheme, nx=32, nt=128, **kw):
    return ProblemSpec(Grid(0.0, 1.0, nx), 1.0, nt, kernel, scheme=scheme, **kw)


# ---------------------------------------------------------------------------
# the three-point Laplacian and the direct memory sums: a step-by-step march
# on the nodes, the oracle for the solvers' block march in the sine basis
# ---------------------------------------------------------------------------

def laplacian_values(values: np.ndarray, h: float) -> np.ndarray:
    """Three-point second difference with zero ghost values at both ends."""
    out = np.empty_like(values)
    if len(values) == 1:
        out[0] = -2.0 * values[0] / (h * h)
        return out
    out[1:-1] = (values[:-2] - 2.0 * values[1:-1] + values[2:]) / (h * h)
    out[0] = (-2.0 * values[0] + values[1]) / (h * h)
    out[-1] = (values[-2] - 2.0 * values[-1]) / (h * h)
    return out


def _k_history_sum(lap_hist: np.ndarray, n: int, dt: float, kvals: np.ndarray) -> np.ndarray:
    """Product-trapezoid sum_{m=0}^{n-1} w_m K(t_n - t_m) lap_u^m.

    The m = n node is omitted: its trapezoid weight multiplies K(0) = 0.
    """
    w = dt * kvals[n:0:-1].copy()
    w[0] *= 0.5
    return w @ lap_hist[:n]


def _gdot_history_sum(
    lap_hist: np.ndarray,
    kernel: RelaxationKernel,
    n: int,
    dt: float,
    gd: np.ndarray,
) -> np.ndarray:
    """Trapezoid for int_0^{t_n} Gdot(t_n - tau) lap_u(tau) dtau over the
    nodes m = 0..n, with panels straddling a kink of Gdot split there."""
    w = dt * gd[n::-1].copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    q = w @ lap_hist[: n + 1]
    tn = n * dt
    for c in kernel.kink_times:
        tau_star = tn - c
        if tau_star <= 0.0 or tau_star >= tn:
            continue
        g_minus, g_plus = kernel.gdot_limits(c)
        p = tau_star / dt
        pf = int(np.floor(p))
        frac = p - pf
        if min(frac, 1.0 - frac) < 1e-9:
            # the kink sits on a step node j: the panel on each side must
            # use the matching one-sided limit instead of the stored value
            j = pf if frac < 0.5 else pf + 1
            if 0 < j < n:
                q = q + 0.5 * dt * (g_plus - gd[n - j]) * lap_hist[j]
                q = q + 0.5 * dt * (g_minus - gd[n - j]) * lap_hist[j]
            continue
        # kink strictly inside panel [t_p, t_{p+1}]: replace that panel's
        # trapezoid by two sub-panels split at tau_star, with the history
        # interpolated linearly there
        v_lo, v_hi = lap_hist[pf], lap_hist[pf + 1]
        v_star = (1.0 - frac) * v_lo + frac * v_hi
        base = 0.5 * dt * (gd[n - pf] * v_lo + gd[n - pf - 1] * v_hi)
        d_lo = frac * dt
        d_hi = (1.0 - frac) * dt
        exact = 0.5 * d_lo * (gd[n - pf] * v_lo + g_plus * v_star) + 0.5 * d_hi * (
            g_minus * v_star + gd[n - pf - 1] * v_hi
        )
        q = q + (exact - base)
    return q


def _direct_march(spec: ProblemSpec) -> np.ndarray:
    """u at every step of the spec's scheme, marched on the nodes with the
    direct sums; the forcing enters per step, for the integral scheme
    through its double time integral by iterated trapezoid."""
    grid, dt, n_steps = spec.grid, spec.dt, spec.n_steps
    tgrid = dt * np.arange(n_steps + 1)
    u0v = _sample_x(spec.u0_expr, grid.x)
    u1v = _sample_x(spec.u1_expr, grid.x)
    u = np.zeros((n_steps + 1, grid.n_interior))
    fvals = np.broadcast_to(
        expressions.evaluate(spec.f_expr, x=grid.x[None, :], t=tgrid[:, None]), u.shape)
    lap_hist = np.zeros_like(u)
    u[0] = u0v
    lap_hist[0] = laplacian_values(u0v, grid.h)
    if spec.scheme == "integral":
        kvals = IntegratedKernel(spec.kernel).cumulative(tgrid)
        first = np.zeros(grid.n_interior)
        forcing = np.zeros(grid.n_interior)
        for n in range(1, n_steps + 1):
            first_next = first + 0.5 * dt * (fvals[n] + fvals[n - 1])
            forcing = forcing + 0.5 * dt * (first_next + first)
            first = first_next
            u[n] = _k_history_sum(lap_hist, n, dt, kvals) + u1v * tgrid[n] + u0v + forcing
            lap_hist[n] = laplacian_values(u[n], grid.h)
        return u
    g_zero = float(spec.kernel.g(0.0))
    gd = np.atleast_1d(spec.kernel.gdot(tgrid))
    u[1] = u0v + dt * u1v + 0.5 * dt * dt * (g_zero * lap_hist[0] + fvals[0])
    lap_hist[1] = laplacian_values(u[1], grid.h)
    for n in range(1, n_steps):
        q = _gdot_history_sum(lap_hist, spec.kernel, n, dt, gd)
        u[n + 1] = 2.0 * u[n] - u[n - 1] + dt * dt * (g_zero * lap_hist[n] + q + fvals[n])
        lap_hist[n + 1] = laplacian_values(u[n + 1], grid.h)
    return u


def _long_double_march(spec: ProblemSpec) -> np.ndarray:
    """u at every step of the spec's scheme, marched step by step on the
    nodes in np.longdouble with the scheme's own float64 lag weights
    (dt K(t_j), or ``_gdot_weights``) and f sampled in float64, the integral
    scheme's double time integral of f by iterated trapezoid: the same
    scheme as the block march, rounded about three digits finer than either
    float64 march."""
    ld = np.longdouble
    grid, dt, n_steps = spec.grid, spec.dt, spec.n_steps
    tgrid = dt * np.arange(n_steps + 1)
    u0 = _sample_x(spec.u0_expr, grid.x).astype(ld)
    u1 = _sample_x(spec.u1_expr, grid.x).astype(ld)
    h2 = ld(grid.h) * ld(grid.h)

    def lap(v):  # three-point, zero ghost values
        out = -2 * v
        out[1:] += v[:-1]
        out[:-1] += v[1:]
        return out / h2

    u = np.zeros((n_steps + 1, grid.n_interior), dtype=ld)
    fvals = np.broadcast_to(expressions.evaluate(spec.f_expr, x=grid.x[None, :],
                                                 t=tgrid[:, None]), u.shape).astype(ld)
    lap_hist = np.zeros_like(u)
    u[0], lap_hist[0] = u0, lap(u0)
    if spec.scheme == "integral":
        wl = (dt * IntegratedKernel(spec.kernel).cumulative(tgrid)).astype(ld)
        half = ld(0.5) * ld(dt)
        first, forcing = np.zeros_like(u0), np.zeros_like(u0)
        for n in range(1, n_steps + 1):
            first_next = first + half * (fvals[n] + fvals[n - 1])
            forcing = forcing + half * (first_next + first)
            first = first_next
            w = wl[n:0:-1].copy()
            w[0] *= 0.5
            u[n] = w @ lap_hist[:n] + u0 + ld(tgrid[n]) * u1 + forcing
            lap_hist[n] = lap(u[n])
        return u
    wl, row0 = solver_module._gdot_weights(spec.kernel, np.atleast_1d(spec.kernel.gdot(tgrid)), dt)
    wl, row0, g_zero, dt = wl.astype(ld), row0.astype(ld), ld(spec.kernel.g(0.0)), ld(dt)
    u[1] = u0 + dt * u1 + 0.5 * dt * dt * (g_zero * lap_hist[0] + fvals[0])
    lap_hist[1] = lap(u[1])
    for n in range(1, n_steps):
        w = wl[n::-1].copy()  # wl[0] carries the newest node's half weight
        w[0] = 0.5 * wl[n] + row0[n]
        q = w @ lap_hist[: n + 1]
        u[n + 1] = 2 * u[n] - u[n - 1] + dt * dt * (g_zero * lap_hist[n] + q + fvals[n])
        lap_hist[n + 1] = lap(u[n + 1])
    return u


def inner(f, w, g):
    """Discrete L2 inner product h * sum(f_j * w_j)."""
    return g.h * np.dot(f, w)


class TestLaplacian:
    # the oracle's Laplacian
    def test_zero_field(self):
        g = Grid(0.0, 1.0, 5)
        out = laplacian_values(np.zeros(g.n_interior), g.h)
        assert np.all(out == 0.0)

    def test_single_node_stencil(self):
        g = Grid(0.0, 1.0, 1)  # h = 0.5
        out = laplacian_values(np.array([3.0]), g.h)
        assert out[0] == -2.0 * 3.0 / 0.25

    def test_sine_mode_second_order(self):
        # exact: (sin(pi x))'' = -pi^2 sin(pi x); Richardson oracle: halving
        # h divides the max nodal error by ~4
        errs = []
        for n in (32, 64):
            g = Grid(0.0, 1.0, n)
            f = np.sin(np.pi * g.x)
            out = laplacian_values(f, g.h)
            errs.append(np.max(np.abs(out + np.pi**2 * f)))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5

    def test_discrete_eigenvector_identity(self):
        # every row of the march's sine table is an eigenvector of the
        # stencil with eigenvalue -lam
        g = Grid(0.0, 2.0, 37)
        sines, lam = solver_module._sine_basis(g)
        for w, lam_k in zip(sines[:37, :37], lam):
            out = laplacian_values(w, g.h)
            np.testing.assert_allclose(out, -lam_k * w, atol=1e-12)

    def test_symmetry_in_inner_product(self):
        rng = np.random.default_rng(7)
        g = Grid(0.0, 1.0, 21)
        f = rng.standard_normal(21)
        w = rng.standard_normal(21)
        lhs = inner(laplacian_values(f, g.h), w, g)
        rhs = inner(f, laplacian_values(w, g.h), g)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestSpecValidation:
    def test_basic_ranges(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(Grid(0, 1, 8), -1.0, 16, PRONY)
        with pytest.raises(ConfigurationError):
            ProblemSpec(Grid(0, 1, 8), 1.0, 1, PRONY)
        with pytest.raises(ConfigurationError):
            ProblemSpec(Grid(0, 1, 8), 1.0, 16, PRONY, scheme="spectral")
        with pytest.raises(ConfigurationError):
            ProblemSpec(Grid(0, 1, 8), 1.0, 16, PRONY, save_stride=3)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            ProblemSpec(Grid(0, 1, 8), horizon, 16, PRONY)

    def test_variable_discipline(self):
        with pytest.raises(ConfigurationError, match="u0"):
            make_spec(PRONY, "integral", u0="sin(pi*t)")
        with pytest.raises(ConfigurationError, match="u1"):
            make_spec(PRONY, "integral", u1="t")
        # syntax errors carry the field name too
        with pytest.raises(ConfigurationError, match=r"^f: .*offset 4"):
            make_spec(PRONY, "integral", f="1 + * 2")
        # f may use both
        make_spec(PRONY, "integral", f="x*t")

    def test_cfl_checked_before_stepping(self):
        # dt = 1/50 above 0.9 h / sqrt(G(0)) = 0.0193 for 32 interior nodes
        with pytest.raises(ConfigurationError, match="CFL"):
            make_spec(PRONY, "differential", nx=32, nt=50)
        # the integral scheme's bound, 2 / sqrt(lam_max G(0)) = 0.0214, takes it
        make_spec(PRONY, "integral", nx=32, nt=50)

    def test_cfl_limit_value(self):
        g = Grid(0.0, 1.0, 32)
        assert cfl_limit(PRONY, g) == pytest.approx(0.9 * g.h / np.sqrt(2.0))

    @pytest.mark.parametrize("kernel, g_zero", [(PRONY, 2.0), (PronyKernel(0.0), 0.0)],
                             ids=["prony", "vanishing"])
    def test_stability_limit_recorded(self, kernel, g_zero):
        # 2 / sqrt(lam_max G(0)), lam_max = (4/h^2) sin^2(nx pi / (2(nx + 1)));
        # no bound when G(0) = 0
        g = Grid(0.0, 1.0, 32)
        lam_max = 4.0 / g.h**2 * np.sin(0.5 * np.pi * 32 / 33) ** 2
        sol = solve_integral(make_spec(kernel, "integral", nx=32, nt=50))
        limit = sol.meta["stability_limit"]
        if g_zero:
            assert limit == pytest.approx(2.0 / np.sqrt(lam_max * g_zero), rel=1e-14)
            assert limit > sol.spec.dt
        else:
            assert limit == np.inf

    def test_differential_records_its_limit_as_the_stability_limit(self):
        # both schemes record their bound under one name
        spec = make_spec(PRONY, "differential", nx=32, nt=128)
        sol = solve_differential(spec)
        assert sol.meta["stability_limit"] == cfl_limit(PRONY, spec.grid)
        assert "cfl_limit" not in sol.meta


class TestZeroData:
    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    def test_zero_data_bitwise_zero(self, scheme):
        sol = solve(make_spec(PRONY, scheme))
        assert np.all(sol.u == 0.0)

    def test_boundary_excluded_structurally(self):
        sol = solve(make_spec(PRONY, "integral", u0="sin(pi*x)"))
        assert sol.u.shape[1] == sol.grid.n_interior


class TestVanishingKernel:
    def test_free_evolution_exact(self):
        # G == 0 makes the memory term vanish: u = u0 + u1 t + F(t), and
        # with f independent of t the double integral is exactly
        # f * t^2 / 2 (iterated trapezoid is exact on degree <= 1)
        kernel = PronyKernel(0.0)
        spec = make_spec(kernel, "integral", u0="sin(pi*x)", u1="x*(1-x)", f="sin(2*pi*x)")
        sol = solve_integral(spec)
        x = sol.grid.x
        for k, t in enumerate(sol.times):
            expected = np.sin(np.pi * x) + x * (1 - x) * t + np.sin(2 * np.pi * x) * t * t / 2
            np.testing.assert_allclose(sol.u[k], expected, atol=1e-13)


class TestManufactured:
    def test_forcing_matches_quadrature_oracle(self):
        # independent check of the closed-form memory convolution behind
        # the manufactured forcing: assemble f at a point by adaptive
        # quadrature of Gdot(t - tau) * u_xx(tau)
        problem = manufactured_prony(PRONY)
        from viscokern.expressions import evaluate, parse

        f_expr = parse(problem.f)
        x0, t0 = 0.3, 0.7
        mu = np.pi
        u_xx = lambda tau: -mu * mu * np.sin(mu * x0) * np.cos(tau)
        mem, _ = quad(lambda tau: float(PRONY.gdot(t0 - tau)) * u_xx(tau), 0.0, t0,
                      epsabs=1e-13, epsrel=1e-13)
        u_tt = -np.sin(mu * x0) * np.cos(t0)
        expected_f = u_tt - float(PRONY.g(0.0)) * u_xx(t0) - mem
        assert evaluate(f_expr, x=x0, t=t0) == pytest.approx(expected_f, abs=1e-10)

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    def test_second_order_convergence(self, scheme):
        problem = manufactured_prony(PRONY)
        errs = []
        for nx, nt in ((16, 64), (32, 128)):
            spec = problem.spec(Grid(0.0, 1.0, nx), 1.0, nt, scheme)
            errs.append(l2_error_vs(solve(spec), problem.exact))
        assert np.log2(errs[0] / errs[1]) >= 1.8

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    def test_self_error_shrinks_by_3_5(self, scheme):
        # halving dt and h must cut the space-time self-error by >= 3.5
        problem = manufactured_prony(PRONY)
        sols = [
            solve(problem.spec(Grid(0.0, 1.0, nx), 1.0, nt, scheme))
            for nx, nt in ((16, 64), (32, 128), (64, 256))
        ]
        self_errs = []
        for coarse, fine in zip(sols, sols[1:]):
            x_full = np.concatenate(([0.0], fine.grid.x, [1.0]))
            diff = np.empty_like(coarse.u)
            for k in range(len(coarse.times)):
                row = np.concatenate(([0.0], fine.u[2 * k], [0.0]))
                diff[k] = coarse.u[k] - np.interp(coarse.grid.x, x_full, row)
            from viscokern.solver import _l2_space_time

            self_errs.append(_l2_space_time(coarse.grid, coarse.times, diff))
        assert self_errs[0] / self_errs[1] >= 3.5

    def test_general_domain(self):
        kernel = PronyKernel(0.5, ((0.5, 1.0), (1.0, 0.25)))
        problem = manufactured_prony(kernel, a=-1.0, b=1.5)
        errs = []
        for nx, nt in ((24, 96), (48, 192)):
            spec = problem.spec(Grid(-1.0, 1.5, nx), 1.0, nt, "differential")
            errs.append(l2_error_vs(solve(spec), problem.exact))
        assert np.log2(errs[0] / errs[1]) >= 1.7

    def test_needs_prony(self):
        with pytest.raises(ConfigurationError):
            manufactured_prony(WEDGE)


class TestSchemeAgreement:
    def test_cross_scheme_discrepancy_shrinks(self):
        problem = manufactured_prony(PRONY)
        gaps = []
        for nx, nt in ((16, 64), (32, 128)):
            si = problem.spec(Grid(0.0, 1.0, nx), 1.0, nt, "integral")
            sd = problem.spec(Grid(0.0, 1.0, nx), 1.0, nt, "differential")
            gaps.append(l2_distance(solve(si), solve(sd)))
        assert gaps[1] < gaps[0] / 3.0

    def test_wedge_differential_tracks_integral(self):
        # the kink-split quadrature keeps the two schemes together
        gaps = []
        for nx, nt in ((32, 128), (64, 256)):
            spec_i = ProblemSpec(Grid(0, 1, nx), 1.0, nt, WEDGE, u0="sin(pi*x)",
                                 scheme="integral")
            spec_d = ProblemSpec(Grid(0, 1, nx), 1.0, nt, WEDGE, u0="sin(pi*x)",
                                 scheme="differential")
            gaps.append(l2_distance(solve(spec_i), solve(spec_d)))
        assert gaps[1] < gaps[0] / 2.5

    def test_kink_exactly_on_step_nodes(self):
        # ramp * n_steps is an integer here, so the memory-term kink lands
        # on a grid node every step and the one-sided node repair runs
        gaps = []
        for nx, nt in ((32, 128), (64, 256)):
            kernel = WedgeKernel(2.0, 1.0, 0.25)
            si = solve(ProblemSpec(Grid(0, 1, nx), 1.0, nt, kernel,
                                   u0="sin(pi*x)", scheme="integral"))
            sd = solve(ProblemSpec(Grid(0, 1, nx), 1.0, nt, kernel,
                                   u0="sin(pi*x)", scheme="differential"))
            gaps.append(l2_distance(si, sd))
        assert gaps[1] < gaps[0] / 2.5

    def test_tabulated_kernel_both_schemes(self):
        from viscokern.kernels import TabulatedKernel

        tab = TabulatedKernel([0.0, 0.3, 0.7, 1.5, 4.0],
                              [2.0, 1.55, 1.25, 1.02, 1.0])
        gaps = []
        for nx, nt in ((32, 128), (64, 256)):
            si = solve(ProblemSpec(Grid(0, 1, nx), 1.0, nt, tab,
                                   u0="sin(pi*x)", scheme="integral"))
            sd = solve(ProblemSpec(Grid(0, 1, nx), 1.0, nt, tab,
                                   u0="sin(pi*x)", scheme="differential"))
            gaps.append(l2_distance(si, sd))
        assert gaps[1] < gaps[0] / 2.5


class TestLinearity:
    def test_superposition(self):
        rng = np.random.default_rng(11)
        d1 = ("sin(pi*x)", "0", "x*t")
        d2 = ("x*(1-x)", "sin(2*pi*x)", "cos(t)*sin(pi*x)")
        for scheme in ("integral", "differential"):
            alpha, beta = (float(v) for v in rng.uniform(-2, 2, size=2))
            combo = tuple(
                f"({alpha!r})*({e1}) + ({beta!r})*({e2})" for e1, e2 in zip(d1, d2)
            )
            s1 = solve(make_spec(PRONY, scheme, u0=d1[0], u1=d1[1], f=d1[2]))
            s2 = solve(make_spec(PRONY, scheme, u0=d2[0], u1=d2[1], f=d2[2]))
            sc = solve(make_spec(PRONY, scheme, u0=combo[0], u1=combo[1], f=combo[2]))
            expected = alpha * s1.u + beta * s2.u
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(sc.u - expected)) <= 1e-12 * max(scale, 1.0)


class TestMemoryTerm:
    # the memory sums of both schemes, on a Laplacian history held fixed

    def test_single_entry_weight(self):
        g = Grid(0.0, 1.0, 16)
        lap = laplacian_values(np.sin(np.pi * g.x), g.h)
        dt = 0.05
        kvals = IntegratedKernel(WEDGE).cumulative(dt * np.arange(2))
        out = _k_history_sum(lap[None, :], 1, dt, kvals)
        k_dt = IntegratedKernel(WEDGE).value(dt)
        expected = 0.5 * dt * k_dt * lap
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_constant_history_k_form(self):
        # u(tau) == v: the exact memory is (int_0^t K) * lap v; trapezoid
        # on K reproduces it to O(dt^2)
        g = Grid(0.0, 1.0, 16)
        lap = laplacian_values(np.sin(np.pi * g.x), g.h)
        t_n, n = 0.5, 50
        dt = t_n / n
        ik = IntegratedKernel(WEDGE)
        out = _k_history_sum(np.tile(lap, (n, 1)), n, dt, ik.cumulative(dt * np.arange(n + 1)))
        exact_weight, _ = quad(lambda tau: ik.value(t_n - tau), 0.0, t_n,
                               epsabs=1e-13, epsrel=1e-13)
        expected = exact_weight * lap
        err = np.max(np.abs(out - expected))
        assert err < 5.0 * dt**2 * np.max(np.abs(lap))

    def test_gdot_form_constant_history(self):
        # u(tau) == v: int_0^t Gdot(t-tau) dtau = G(t) - G(0)
        g = Grid(0.0, 1.0, 16)
        lap = laplacian_values(np.sin(np.pi * g.x), g.h)
        t_n, n = 1.0, 64
        dt = t_n / n
        gd = WEDGE.gdot(dt * np.arange(n + 1))
        out = _gdot_history_sum(np.tile(lap, (n + 1, 1)), WEDGE, n, dt, gd)
        expected = (float(WEDGE.g(t_n)) - float(WEDGE.g(0.0))) * lap
        err = np.max(np.abs(out - expected))
        assert err < 1e-10  # piecewise-constant Gdot: split trapezoid is exact


FORCING = "cos(3*t)*x*(1-x) + t"


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no finer than double here")
@pytest.mark.parametrize("scheme", ["integral", "differential"])
def test_block_march_matches_long_double_reference(scheme):
    # 2048 steps: over the wedge's kink at 0.4 (inside a panel: 819.2 steps),
    # with a two-term Prony kernel, which takes no lag piece, and forced
    for kernel, f in ((WEDGE, "0"), (PronyKernel(1.0, ((0.6, 0.3), (0.4, 2.0))), "0"),
                      (WEDGE, FORCING)):
        spec = ProblemSpec(Grid(0.0, 1.0, 32), 1.0, 2048, kernel, u0="sin(pi*x)",
                           u1="x*(1-x)", f=f, scheme=scheme)
        ref = _long_double_march(spec)
        got = solve(spec).u
        assert float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))) <= 1e-12


def _blocked_case(scheme, family, n_steps, place, k, frac, f="0"):
    """A spec whose kernel kink lag c (for the wedge and the mollified
    wedge, also the time after which G is constant) sits on a step node, at
    a multiple of the block length, strictly inside a panel, inside the
    first step, or past the horizon.  dt = 1/64 everywhere and h = 1/25
    keeps both schemes inside the CFL bound."""
    dt = 1.0 / 64.0
    horizon = n_steps * dt
    k = 1 + k % max(n_steps - 1, 1)
    c = {"node": k * dt, "block": HISTORY_BLOCK * dt * (1 + k % 2),
         "panel": (k + frac) * dt, "substep": frac * dt,
         "beyond": horizon + (k % 3 + frac) * dt}[place]
    kernel = {
        "wedge": WedgeKernel(2.0, 1.0, c),
        "mollified": MollifiedKernel(WedgeKernel(2.0, 1.0, c), (0.5 + frac) * dt),
        "tabulated": TabulatedKernel([0.0, c, c + 0.37, max(horizon, c + 0.37) + 1.0],
                                     [2.0, 1.5, 1.2, 1.0]),
        "prony": PronyKernel(1.0, ((0.6, 0.3), (0.4, 2.0))),
    }[family]
    return ProblemSpec(Grid(0.0, 1.0, 24), horizon, n_steps, kernel,
                       u0="sin(pi*x)", u1="x*(1-x)", f=f, scheme=scheme)


def _head_case(scheme, family, where, f="0"):
    """A 300-step spec on dt = 1/64 whose kernel is affine on [0, a], with
    a on a node one lag short of a block's last lag (J = floor(a/dt) = 190),
    inside a panel and a block (J = 150), on the last lag of a block
    (J = 191), below two blocks (no head) or past the horizon.  The
    mollified wedge's ramp sits 2 eps past a, with eps = 3/4 dt, so that a
    stays a binary fraction."""
    dt, n_steps = 1.0 / 64.0, 300
    a = {"node": 190.0, "inside": 150.4, "boundary": 6.0 * HISTORY_BLOCK - 1.0, "short": 50.0,
         "beyond": 340.3}[where] * dt
    eps = 0.75 * dt
    kernel = {
        "wedge": WedgeKernel(2.0, 1.0, a),
        "mollified": MollifiedKernel(WedgeKernel(2.0, 1.0, a + 2.0 * eps), eps),
        "tabulated": TabulatedKernel([0.0, a, a + 0.37, a + 7.0], [2.0, 1.5, 1.2, 1.0]),
    }[family]
    assert kernel.affine_until == a
    return ProblemSpec(Grid(0.0, 1.0, 24), n_steps * dt, n_steps, kernel,
                       u0="sin(pi*x)", u1="x*(1-x)", f=f, scheme=scheme)


class TestBlockedMemorySum:
    # the solvers' block march in the sine basis against a march through the
    # direct sums above; N below, at and just above a half block (S) and a
    # block (B), and N above the far product's chunk length (256 rows)

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    @pytest.mark.parametrize("n_steps", [7, SOLVE_BLOCK - 1, SOLVE_BLOCK, SOLVE_BLOCK + 1,
                                         HISTORY_BLOCK, HISTORY_BLOCK + 1, 97, 300])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["wedge", "mollified", "tabulated", "prony"]),
        place=st.sampled_from(["node", "block", "panel", "substep", "beyond"]),
        k=st.integers(0, 400),
        frac=st.floats(0.05, 0.95),
    )
    @example(family="wedge", place="node", k=40, frac=0.5)
    @example(family="tabulated", place="block", k=0, frac=0.5)
    @example(family="wedge", place="panel", k=5, frac=0.3)
    @example(family="prony", place="node", k=0, frac=0.5)
    @example(family="wedge", place="substep", k=0, frac=0.4)
    @example(family="tabulated", place="beyond", k=0, frac=0.05)
    @example(family="mollified", place="node", k=40, frac=0.5)
    @example(family="mollified", place="block", k=1, frac=0.5)
    @example(family="mollified", place="panel", k=5, frac=0.3)
    @example(family="mollified", place="substep", k=0, frac=0.4)
    @example(family="mollified", place="beyond", k=0, frac=0.05)
    def test_matches_direct_sums(self, scheme, n_steps, family, place, k, frac):
        spec = _blocked_case(scheme, family, n_steps, place, k, frac)
        direct = _direct_march(spec)
        blocked = solve(spec).u
        assert np.max(np.abs(blocked - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("spec", [
        # the differential rows are its second-difference recurrence summed
        # twice, with x_1 + (t - 1)(x_1 - x_0) and the forcing summed twice in
        # their data; a forced two-term Prony case over 512 steps
        manufactured_prony(PronyKernel(0.5, ((0.6, 0.3), (0.4, 2.0)))).spec(
            Grid(0.0, 1.0, 64), 1.0, 512, "differential"),
        # the forcing's double time integral
        make_spec(PRONY, "integral", nx=24, nt=97, u0="sin(pi*x)", u1="x*(1-x)",
                  f=FORCING),
        # forced and kinked: the row-0 term, the forcing summed twice and the
        # affine tail together; the kink inside a panel (5.3 dt), on a node
        # (40 dt), a tabulated kernel and a mollified wedge
        _blocked_case("differential", "wedge", 300, "panel", 4, 0.3, f=FORCING),
        _blocked_case("differential", "wedge", 300, "node", 39, 0.5, f=FORCING),
        _blocked_case("differential", "tabulated", 300, "panel", 4, 0.3, f=FORCING),
        _blocked_case("differential", "mollified", 300, "panel", 4, 0.3, f=FORCING),
    ], ids=["prony-differential", "integral", "wedge-panel-differential",
            "wedge-node-differential", "tabulated-differential", "mollified-differential"])
    def test_forced_matches_direct_march(self, spec):
        direct = _direct_march(spec)
        blocked = solve(spec).u
        assert np.max(np.abs(blocked - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    @pytest.mark.parametrize("family", ["wedge", "mollified", "tabulated"])
    @pytest.mark.parametrize("where", ["node", "inside", "boundary", "short", "beyond"])
    def test_affine_head_matches_direct_sums(self, scheme, family, where):
        # the far sums take the lags up to J = floor(a/dt) as a lag piece
        spec = _head_case(scheme, family, where, f=FORCING if where == "inside" else "0")
        sol = solve(spec)
        lag = int(np.floor(spec.kernel.affine_until / spec.dt))
        head = "no head" if where == "short" else f"affine head to lag {lag},"
        assert head in sol.meta["memory_quadrature"]
        direct = _direct_march(spec)
        assert np.max(np.abs(sol.u - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("scheme, kernel, caller", [
        ("integral", WedgeKernel(2.0, 1.0, 0.4), "solver"),
        ("integral", MollifiedKernel(WedgeKernel(2.0, 1.0, 0.4), 0.05), "solver"),
        ("differential", WedgeKernel(2.0, 1.0, 0.4), "solver"),
        ("differential", MollifiedKernel(WedgeKernel(2.0, 1.0, 0.4), 0.05), "solver"),
        ("integral", WedgeKernel(2.0, 1.0, 0.4), "energy"),
        ("integral", MollifiedKernel(WedgeKernel(2.0, 1.0, 0.4), 0.05), "energy"),
    ], ids=["wedge-integral", "mollified-integral", "wedge-differential",
            "mollified-differential", "wedge-energy", "mollified-energy"])
    def test_lag_pieces_match_direct_product(self, monkeypatch, scheme, kernel, caller):
        # the far sums on the weights and pieces a caller passes, against the
        # same sums with no pieces (the direct product), on random rows over
        # 4096 steps: rows leave the head's range for 80 blocks and more.
        # The energy's weights start at lag 32 and end in a zero tail; a
        # mollified kernel's energy runs a second pass on Gddot, whose head
        # and tail pieces are all zero
        import viscokern.energy as energy_module
        from viscokern.solver import _far_sums

        module = energy_module if caller == "energy" else solver_module
        calls = []

        def spy(rows, wl, first, stop, pieces=()):
            calls.append((wl.copy(), first, stop, list(pieces)))
            return _far_sums(rows, wl, first, stop, pieces)

        monkeypatch.setattr(module, "_far_sums", spy)
        sol = solve(make_spec(kernel, scheme, nx=8, nt=4096, u0="sin(pi*x)"))
        if caller == "energy":
            energy_module.energy_series(sol)
        two = caller == "energy" and isinstance(kernel, MollifiedKernel)
        assert len(calls) == (2 if two else 1)
        if two:
            assert [pieces for _, _, _, pieces in calls] == [[(32, 1228), (1640, 4096)]] * 2
            wl, _, _, pieces = calls[1]
            assert not any(wl[lo : hi + 1].any() for lo, hi in pieces)
        for wl, first, stop, pieces in calls:
            assert len(pieces) == 2 and all(hi - lo > HISTORY_BLOCK for lo, hi in pieces)
            rows = np.random.default_rng(7).standard_normal((stop, 8)) + 1.0
            got = np.concatenate([far for _, far in _far_sums(rows, wl, first, stop, pieces)])
            want = np.concatenate([far for _, far in _far_sums(rows, wl, first, stop)])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_bytes_do_not_depend_on_blas_threads(self):
        # one BLAS product over the whole far history, or over a whole row
        # of the sine table, rounds differently at 1 and 2 threads; the
        # fixed chunks make the bytes independent, and so does padding the
        # rows to a multiple of 8 columns, which 250 and 1001 interior nodes
        # (and the energy rows of 256) are not; both the solution and the
        # energy history summed by the same far sums, the wave reference
        # built on the same sine table, and a forced run
        script = (
            "import hashlib\n"
            "from viscokern import cli\n"
            "from viscokern.grids import Grid\n"
            "from viscokern.kernels import WedgeKernel\n"
            "from viscokern.solver import ProblemSpec, solve\n"
            "from viscokern.energy import energy_series\n"
            "for nx, horizon, steps, f in ((256, 1.0, 1024, '0'), (250, 1.0, 1024, '0'),"
            " (1001, 0.025, 40, 'x*t')):\n"
            "    spec = ProblemSpec(Grid(0.0, 1.0, nx), horizon, steps, "
            "WedgeKernel(2.0, 1.0, 0.4), u0='sin(pi*x)', u1='x*(1-x)', f=f)\n"
            "    sol = solve(spec)\n"
            "    data = sol.u.tobytes() + energy_series(sol).history.tobytes()\n"
            "    if f == '0':\n"
            "        reference = cli._wave_reference(spec.grid, sol.modes[0], 1.0)\n"
            "        data += reference(sol.times).tobytes()\n"
            "    print(hashlib.sha256(data).hexdigest())\n"
        )
        src = str(Path(viscokern.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120, check=True)
            digests.append(out.stdout.split())
        assert [len(d) for d in digests[0]] == [64, 64, 64]
        assert digests[0] == digests[1]


class TestKinkIsolation:
    def test_integral_head_never_consults_gdot(self, monkeypatch):
        # the head's coefficients come from the weights on K: J = floor(0.4 * 256) = 102
        def forbidden(self, t):
            raise AssertionError("integral scheme consulted dG/dt")

        monkeypatch.setattr(WedgeKernel, "gdot", forbidden)
        monkeypatch.setattr(WedgeKernel, "gdot_limits", forbidden)
        sol = solve_integral(make_spec(WEDGE, "integral", nt=256, u0="sin(pi*x)"))
        assert "affine head to lag 102" in sol.meta["memory_quadrature"]

    def test_integral_scheme_never_consults_gdot(self, monkeypatch):
        def forbidden(self, t):
            raise AssertionError("integral scheme consulted dG/dt")

        monkeypatch.setattr(WedgeKernel, "gdot", forbidden)
        monkeypatch.setattr(WedgeKernel, "gdot_limits", forbidden)
        sol = solve_integral(make_spec(WEDGE, "integral", u0="sin(pi*x)"))
        assert np.isfinite(sol.u).all()

    def test_differential_takes_kink_limits_once_per_solve(self, monkeypatch):
        # the one-sided limits depend only on the kernel, not on the step
        tab = TabulatedKernel([0.0, 0.3, 0.7, 1.5, 4.0], [2.0, 1.55, 1.25, 1.02, 1.0])
        calls = []
        original = TabulatedKernel.gdot_limits

        def counted(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(TabulatedKernel, "gdot_limits", counted)
        sol = solve_differential(make_spec(tab, "differential", u0="sin(pi*x)"))
        assert np.isfinite(sol.u).all()
        assert 0 < len(calls) <= len(tab.kink_times)


class TestMollifiedSolves:
    def test_differential_accepts_mollified_wedge(self):
        smoothed = MollifiedKernel(WedgeKernel(2.0, 1.0, 0.4), 0.05)
        spec = make_spec(smoothed, "differential", nx=24, nt=128, u0="sin(pi*x)")
        sol = solve_differential(spec)
        assert np.isfinite(sol.u).all()

    def test_integral_reports_bump_averaged_base_k(self):
        # in closed form over a kinked base, by the Gauss rule over a smooth one
        for base, how in ((WEDGE, "exact with a correction per kink"), (PRONY, "by the Gauss rule")):
            sol = solve_integral(make_spec(MollifiedKernel(base, 0.05), "integral", nx=8, nt=16))
            assert sol.meta["kernel_quadrature"] == (
                f"bump average of the base kernel's closed-form K, {how}")

    def test_cfl_uses_smoothed_value_at_zero(self):
        smoothed = MollifiedKernel(WedgeKernel(2.0, 1.0, 0.4), 0.05)
        g = Grid(0.0, 1.0, 24)
        # G_eps(0) < G(0) for a decreasing kernel: forward-shift averaging
        assert float(smoothed.g(0.0)) < 2.0
        assert cfl_limit(smoothed, g) > cfl_limit(WedgeKernel(2.0, 1.0, 0.4), g)


class TestFailureModes:
    def test_unsupported_kernel_error(self):
        class NoDerivative(RelaxationKernel):
            def g(self, t):
                arr = np.asarray(t, dtype=float)
                out = np.ones_like(arr)
                return float(out) if arr.ndim == 0 else out

            def gdot(self, t):
                raise DerivativeUndefinedError("not differentiable")

        with pytest.raises(UnsupportedKernelError):
            solve_differential(make_spec(NoDerivative(), "differential"))

    def test_divergence_detected(self):
        # data near the float limit overflow inside the march on a grid
        # within the stability bound; the solver must say so
        big = ProblemSpec(Grid(0.0, 1.0, 256), 1.0, 2048, PRONY, u0="1e307*sin(pi*x)",
                          u1="1e307*sin(pi*x)", scheme="integral")
        with pytest.raises(SolverDivergenceError, match="non-finite"):
            solve_integral(big)

    def test_differential_refuses_cfl_violation_of_integral_spec(self):
        # the spec checks the CFL bound only for its own scheme, so the
        # differential solver must check it again
        spec = make_spec(PRONY, "integral", nx=32, nt=50)
        with pytest.raises(ConfigurationError, match="CFL"):
            solve_differential(spec)

    @pytest.mark.parametrize("run, spec, ran", [
        (solve_integral, make_spec(PRONY, "differential", u1="1e308*sin(pi*x)"), "integral"),
        (solve_differential, make_spec(PRONY, "integral", u0="sin(pi*x)", f="1e308*exp(t)"),
         "differential"),
    ], ids=["integral", "differential"])
    def test_divergence_names_the_scheme_that_ran(self, run, spec, ran):
        assert spec.scheme != ran
        with pytest.raises(SolverDivergenceError, match=f"^{ran} scheme produced non-finite"):
            run(spec)

    @pytest.mark.parametrize("spec", [
        # the integral run above: its rows pass the float limit at step 968,
        # in the first half of its block
        ProblemSpec(Grid(0.0, 1.0, 256), 1.0, 2048, PRONY, u0="1e307*sin(pi*x)",
                    u1="1e307*sin(pi*x)", scheme="integral"),
        # the same on 2078 steps: at step 982, in the second half of its block
        ProblemSpec(Grid(0.0, 1.0, 256), 1.0, 2078, PRONY, u0="1e307*sin(pi*x)",
                    u1="1e307*sin(pi*x)", scheme="integral"),
        # forcing near the float limit: dt^2 f overflows with f itself at
        # step 76, found before the first block
        make_spec(PRONY, "differential", u0="sin(pi*x)", f="1e308*exp(t)"),
    ], ids=["integral", "integral-second-half", "differential"])
    def test_blocked_check_reports_first_bad_step(self, monkeypatch, spec):
        # the solvers check their data before the first block, then each
        # block of rows as they write it; the step and time they report
        # must be those of the first non-finite row among those checked,
        # looked at one row at a time in the order of the checks
        checked = []
        original = solver_module._check_finite

        def per_row(u, first, last, *args):
            checked.extend((n, bool(np.isfinite(u[n]).all())) for n in range(first, last + 1))
            return original(u, first, last, *args)

        monkeypatch.setattr(solver_module, "_check_finite", per_row)
        with pytest.raises(SolverDivergenceError) as info:
            solve(spec)
        step = next(n for n, finite in checked if not finite)
        assert step % HISTORY_BLOCK  # inside a block, not at its end
        if spec.n_steps == 2078:  # blocks start at steps 1, 33, ..
            assert (step - 1) % HISTORY_BLOCK > SOLVE_BLOCK
        assert f"at step {step} (t = {step * spec.dt:.6g})" in str(info.value)

    def test_reported_step_is_where_the_march_fails(self):
        # the integral runs above report step n: at their dt, n - 1 steps
        # march to their end and n steps fail at step n, not earlier in their
        # block or half block
        for full in (2048, 2078):
            def run(n_steps, full=full):
                return solve(ProblemSpec(Grid(0.0, 1.0, 256), n_steps / full, n_steps, PRONY,
                                         u0="1e307*sin(pi*x)", u1="1e307*sin(pi*x)"))

            with pytest.raises(SolverDivergenceError) as info:
                run(full)
            n = int(str(info.value).split("at step ")[1].split()[0])
            assert np.isfinite(run(n - 1).u).all()
            with pytest.raises(SolverDivergenceError, match=f"at step {n} "):
                run(n)

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    @pytest.mark.parametrize("data, step, cause", [
        ({"u0": "1e308*sin(pi*x)"}, 0, "u0 or u1"),
        ({"u1": "1e308*sin(pi*x)"}, 0, "u0 or u1"),
        ({"f": "1e308*exp(t)"}, 10, "forcing term"),
    ], ids=["u0", "u1", "f"])
    def test_bad_data_reported_before_the_march(self, scheme, data, step, cause):
        # data whose sine coefficients overflow are step 0's fault; the
        # forcing's share of a row (for the integral scheme its double time
        # integral) is reported at its first bad step, here where f itself
        # overflows at t = 0.625; no numpy warning on the way
        spec = ProblemSpec(Grid(0.0, 1.0, 8), 1.0, 16, PRONY, scheme=scheme, **data)
        with pytest.raises(SolverDivergenceError, match=cause) as info:
            solve(spec)
        assert f"at step {step} (t = {step * spec.dt:.6g})" in str(info.value)


class TestSizeCheck:
    def test_oversize_solve_refused_before_allocating(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="more than the .* GiB of memory"):
                ProblemSpec(Grid(0.0, 1.0, 8), 1.0, 10**9, PRONY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_estimate_counts_rows_tables_and_forcing(self, monkeypatch):
        # (N + 1) w rows, (N + 1) w forcing rows, w^2 sines, nx 16^2 inverses
        monkeypatch.setattr(solver_module.os, "sysconf", lambda name: {
            "SC_PAGE_SIZE": 1,
            "SC_PHYS_PAGES": 8 * (11 * 16 + 16 * 16 + 9 * 256)}[name])
        solver_module.check_size(9, 10, forced=False)
        with pytest.raises(ConfigurationError):
            solver_module.check_size(9, 10, forced=True)
        with pytest.raises(ConfigurationError):
            solver_module.check_size(9, 11, forced=False)


def _traced_peak(call):
    """(result, peak bytes traced while *call* ran)."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestMemoryPeak:
    # a 64 x 4096 wedge solve; one array of rows is (N + 1) x 64 doubles
    ROW_ARRAY = 8 * 4097 * 64

    @staticmethod
    def _spec(scheme):
        return make_spec(WEDGE, scheme, nx=64, nt=4096, u0="sin(pi*x)", u1="x*(1-x)")

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    def test_solve_stays_below_two_row_arrays(self, scheme):
        # the march keeps one array of rows, which becomes the solution in
        # place, and a solve returns no velocities.  Two arrays of rows and a
        # copy made the peak 2.4 row arrays, and 4.1 with the differential
        # scheme's velocities
        _, peak = _traced_peak(lambda: solve(self._spec(scheme)))
        assert peak < 2 * self.ROW_ARRAY

    def test_wide_solve_inverse_table_stays_small(self):
        # 512 modes over 64 steps: the rows are 0.25 MiB and the per-mode
        # inverses of a half block 1 MiB; those of a whole block were 4 MiB
        # and set the peak at 5.1 MiB.  The sine table is made before tracing
        spec = ProblemSpec(Grid(0.0, 1.0, 512), 0.04, 64, WEDGE, u0="sin(pi*x)")
        solve(spec)
        _, peak = _traced_peak(lambda: solve(spec))
        assert peak < 8 * 65 * 512 + 2 * 2**20

    def test_distance_needs_no_full_size_temporary(self):
        a, b = solve(self._spec("integral")), solve(self._spec("differential"))
        dist, peak = _traced_peak(lambda: l2_distance(a, b))
        assert peak < 2**20  # the difference of the rows took 4 MB
        # the same bytes as the whole-array trapezoid on the coefficient rows
        d = a.modes - b.modes
        w = np.zeros(len(a.times))
        w[:-1] += 0.5 * np.diff(a.times)
        w[1:] += 0.5 * np.diff(a.times)
        assert dist == float(np.sqrt(w @ (a.grid.h * np.sum(d * d, axis=1))))


def _declared(kernel, **structure):
    """*kernel* with its declared structure (``affine_until``,
    ``constant_after``) set to *structure*, right or wrong."""
    for name, value in structure.items():
        object.__setattr__(kernel, name, value)
    return kernel


class TestMemoryQuadrature:
    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    @pytest.mark.parametrize("kernel, tail", [
        (WedgeKernel(2.0, 1.0, 0.3), "from lag 40"),   # ceil(0.3 * 128) + 1
        (MollifiedKernel(WedgeKernel(2.0, 1.0, 0.3), 0.05), "from lag 40"),
        (PRONY, "no tail"),
        (WedgeKernel(2.0, 1.0, 3.0), "no tail"),  # constant only past the horizon
        # c = 116.5 dt: the tail [118, 128] has 11 lags, too few to take
        (WedgeKernel(2.0, 1.0, 116.5 / 128), "affine head to lag 116, no tail"),
    ], ids=["wedge", "mollified", "prony", "late-wedge", "short-tail"])
    def test_meta_names_the_block_march_and_its_tail(self, scheme, kernel, tail):
        sol = solve(make_spec(kernel, scheme, nx=24, u0="sin(pi*x)"))
        note = sol.meta["memory_quadrature"]
        assert note.startswith("block march in the sine basis")
        assert note.endswith(tail)

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    @pytest.mark.parametrize("kernel, head", [
        (WedgeKernel(2.0, 1.0, 0.6), "affine head to lag 76"),  # floor(0.6 * 128)
        (MollifiedKernel(WedgeKernel(2.0, 1.0, 0.6), 0.05), "affine head to lag 64"),
        (TabulatedKernel([0.0, 0.7, 3.0], [2.0, 1.5, 1.0]), "affine head to lag 89"),
        (PRONY, "no head"),
        (WedgeKernel(2.0, 1.0, 0.3), "no head"),  # J = 38, below two blocks
    ], ids=["wedge", "mollified", "tabulated", "prony", "short-wedge"])
    def test_meta_names_the_head(self, scheme, kernel, head):
        sol = solve(make_spec(kernel, scheme, nx=24, u0="sin(pi*x)"))
        assert f"{head}," in sol.meta["memory_quadrature"]

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    @pytest.mark.parametrize("kernel, note", [
        # K is not quadratic up to 0.6: only the true tail, from lag 40
        (_declared(WedgeKernel(2.0, 1.0, 0.3), affine_until=0.6),
         "no head, affine tail from lag 40"),
        # nor affine past 0.15, nor Prony's past 0.5
        (_declared(WedgeKernel(2.0, 1.0, 0.3), constant_after=0.15), "no head, no tail"),
        (_declared(PronyKernel(1.0, ((0.6, 0.2), (0.4, 1.5))), constant_after=0.5),
         "no head, no tail"),
    ], ids=["wedge-head", "wedge-tail", "prony-tail"])
    def test_wrong_declaration_costs_time_not_correctness(self, monkeypatch, scheme, kernel,
                                                           note):
        # the far sums take a declared range only where the weights follow it,
        # in both schemes and in the energy history
        import viscokern.energy as energy_module

        spec = make_spec(kernel, scheme, u0="sin(pi*x)", u1="x*(1-x)")
        sol = solve(spec)
        assert sol.meta["memory_quadrature"].endswith(note)
        direct = _direct_march(spec)
        assert np.max(np.abs(sol.u - direct)) <= 1e-12 * np.max(np.abs(direct))
        history = energy_module.energy_series(sol).history
        monkeypatch.setattr(energy_module, "_lag_pieces", lambda *args: ([], ""))
        want = energy_module.energy_series(sol).history
        assert np.max(np.abs(history - want)) <= 1e-12 * np.max(np.abs(want))


class TestSaveStride:
    def test_stride_keeps_endpoints(self):
        spec = make_spec(PRONY, "differential", nx=16, nt=128, u0="sin(pi*x)",
                         save_stride=8)
        sol = solve(spec)
        assert len(sol.times) == 17
        assert sol.times[0] == 0.0
        assert sol.times[-1] == pytest.approx(1.0)

    def test_stride_consistent_with_full(self):
        full = solve(make_spec(PRONY, "integral", nx=16, nt=64, u0="sin(pi*x)"))
        strided = solve(make_spec(PRONY, "integral", nx=16, nt=64, u0="sin(pi*x)",
                                  save_stride=4))
        np.testing.assert_array_equal(strided.u, full.u[::4])


class TestDistances:
    def test_l2_distance_validates(self):
        a = solve(make_spec(PRONY, "integral", nx=16, nt=64, u0="sin(pi*x)"))
        b = solve(make_spec(PRONY, "integral", nx=24, nt=64, u0="sin(pi*x)"))
        with pytest.raises(ConfigurationError):
            l2_distance(a, b)

    def test_l2_error_vs_exact_zero_for_identical(self):
        sol = solve(make_spec(PRONY, "integral", nx=16, nt=64, u0="sin(pi*x)"))
        def mirror(x, t):
            k = int(round(t * 64))
            return sol.u[k]
        assert l2_error_vs(sol, mirror) == 0.0


class TestSolutionModes:
    """A solve keeps the march's sine coefficients; the nodal values are made
    from them on demand, and the norms never make them."""

    @staticmethod
    def _pair(scheme, stride):
        # two solves apart by far more than roundoff: the wedge and its
        # mollification, with different velocities
        spec = lambda kernel, u1: make_spec(kernel, scheme, nx=40, nt=512, u0="sin(pi*x)",
                                            u1=u1, save_stride=stride)
        return (solve(spec(WEDGE, "x*(1-x)")),
                solve(spec(MollifiedKernel(WEDGE, 0.1), "sin(2*pi*x)")))

    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    def test_modal_norms_match_nodal(self, scheme, stride):
        a, b = self._pair(scheme, stride)
        dist, norm = l2_distance(a, b), solver_module.l2_norm(a)
        assert "u" not in vars(a) and "u" not in vars(b)  # no nodal values made
        want_dist = solver_module._l2_space_time(a.grid, a.times, a.u, b.u)
        want_norm = solver_module._l2_space_time(a.grid, a.times, a.u)
        assert abs(dist - want_dist) <= 1e-12 * want_dist
        assert abs(norm - want_norm) <= 1e-12 * want_norm

    @pytest.mark.parametrize("nt, stride", [(1024, 1), (1024, 4), (130, 1), (195, 3)])
    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    def test_nodal_values_are_the_in_place_transform(self, scheme, nt, stride):
        # the nodal values the march used to make: every row of the stride-1
        # solve times the sine table in HISTORY_BLOCK-row blocks from row 1,
        # row 0 set to u0 as sampled, then every stride-th row
        kw = dict(nx=64, nt=nt, u0="sin(pi*x)", u1="x*(1-x)", f="x*t")
        full = solve(make_spec(WEDGE, scheme, **kw))
        sines, _ = solver_module._sine_basis(full.grid)
        rows = full.modes.copy()
        for s in range(1, len(rows), HISTORY_BLOCK):
            rows[s : s + HISTORY_BLOCK] = solver_module._product(rows[s : s + HISTORY_BLOCK],
                                                                 sines)
        want = rows[:, :64]
        want[0] = expressions.evaluate(full.spec.u0_expr, x=full.grid.x)
        got = solve(make_spec(WEDGE, scheme, save_stride=stride, **kw)).u
        np.testing.assert_array_equal(got, want[::stride])

    def test_nodal_chunks_cover_the_rows_once(self):
        sol = solve(make_spec(WEDGE, "integral", nx=16, nt=1024, u0="sin(pi*x)"))
        starts, ends = [], []
        for lo, rows in sol.nodal_chunks():
            starts.append(lo)
            ends.append(lo + len(rows))
            np.testing.assert_array_equal(rows, sol.u[lo : lo + len(rows)])
        assert starts == [0, 256, 512, 768] and ends == [256, 512, 768, 1025]

    @pytest.mark.parametrize("nx", [16, 64, 256])
    def test_row_transform_ignores_rows_after_it(self, nx):
        # a row's sine coefficients do not depend on how many rows are
        # transformed with it, also when it is the last of 1 (mod 32) rows
        sines, _ = solver_module._sine_basis(Grid(0.0, 1.0, nx))
        x = np.random.default_rng(nx).standard_normal((290, nx))
        for n in (33, 65, 257, 289):
            np.testing.assert_array_equal(solver_module._to_modes(x[:n], sines)[n - 1],
                                          solver_module._to_modes(x[: n + 1], sines)[n - 1])

    def test_sine_table_made_once_and_read_only(self):
        sines, lam = solver_module._sine_basis(Grid(0.0, 1.0, 24))
        assert solver_module._sine_basis(Grid(0.0, 1.0, 24))[0] is sines
        with pytest.raises(ValueError):
            sines[0, 0] = 1.0
        with pytest.raises(ValueError):
            lam[0] = 1.0

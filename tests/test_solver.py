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
from viscokern.grids import Grid, laplacian_values
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
# direct memory sums, the oracle for the blocked engine in the solver
# ---------------------------------------------------------------------------

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
    """u at every step of the spec's scheme, marched with the direct sums
    (zero forcing)."""
    assert spec.f == "0"
    grid, dt, n_steps = spec.grid, spec.dt, spec.n_steps
    tgrid = dt * np.arange(n_steps + 1)
    u0v = _sample_x(spec.u0_expr, grid.x)
    u1v = _sample_x(spec.u1_expr, grid.x)
    u = np.zeros((n_steps + 1, grid.n_interior))
    lap_hist = np.zeros_like(u)
    u[0] = u0v
    lap_hist[0] = laplacian_values(u0v, grid.h)
    if spec.scheme == "integral":
        kvals = IntegratedKernel(spec.kernel).cumulative(tgrid)
        for n in range(1, n_steps + 1):
            u[n] = _k_history_sum(lap_hist, n, dt, kvals) + u1v * tgrid[n] + u0v
            lap_hist[n] = laplacian_values(u[n], grid.h)
        return u
    g_zero = float(spec.kernel.g(0.0))
    gd = np.atleast_1d(spec.kernel.gdot(tgrid))
    u[1] = u0v + dt * u1v + 0.5 * dt * dt * (g_zero * lap_hist[0])
    lap_hist[1] = laplacian_values(u[1], grid.h)
    for n in range(1, n_steps):
        q = _gdot_history_sum(lap_hist, spec.kernel, n, dt, gd)
        u[n + 1] = 2.0 * u[n] - u[n - 1] + dt * dt * (g_zero * lap_hist[n] + q)
        lap_hist[n + 1] = laplacian_values(u[n + 1], grid.h)
    return u


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
        # dt = 1/16 far above 0.9 h / sqrt(G(0)) for 32 interior nodes
        with pytest.raises(ConfigurationError, match="CFL"):
            make_spec(PRONY, "differential", nx=32, nt=16)
        # the integral scheme takes the same resolution without complaint
        make_spec(PRONY, "integral", nx=32, nt=16)

    def test_cfl_limit_value(self):
        g = Grid(0.0, 1.0, 32)
        assert cfl_limit(PRONY, g) == pytest.approx(0.9 * g.h / np.sqrt(2.0))


class TestZeroData:
    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    def test_zero_data_bitwise_zero(self, scheme):
        sol = solve(make_spec(PRONY, scheme))
        assert np.all(sol.u == 0.0)
        if sol.v is not None:
            assert np.all(sol.v == 0.0)

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


def _blocked_case(scheme, family, n_steps, place, k, frac):
    """A spec whose kernel kink lag c sits on a step node, at a multiple of
    the block length, strictly inside a panel, inside the first step, or
    past the horizon.  dt = 1/64 everywhere and h = 1/25 keeps both schemes
    inside the CFL bound."""
    dt = 1.0 / 64.0
    horizon = n_steps * dt
    k = 1 + k % max(n_steps - 1, 1)
    c = {"node": k * dt, "block": HISTORY_BLOCK * dt * (1 + k % 2),
         "panel": (k + frac) * dt, "substep": frac * dt,
         "beyond": horizon + (k % 3 + frac) * dt}[place]
    kernel = {
        "wedge": WedgeKernel(2.0, 1.0, c),
        "tabulated": TabulatedKernel([0.0, c, c + 0.37, max(horizon, c + 0.37) + 1.0],
                                     [2.0, 1.5, 1.2, 1.0]),
        "prony": PronyKernel(1.0, ((0.6, 0.3), (0.4, 2.0))),
    }[family]
    return ProblemSpec(Grid(0.0, 1.0, 24), horizon, n_steps, kernel,
                       u0="sin(pi*x)", u1="x*(1-x)", scheme=scheme)


class TestBlockedMemorySum:
    # the solvers' blocked far/near memory sum against a march through the
    # direct sums above; N < B, N = B, N = B + 1 and N above the far
    # product's chunk length (256 rows)

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    @pytest.mark.parametrize("n_steps", [7, HISTORY_BLOCK, HISTORY_BLOCK + 1, 97, 300])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["wedge", "tabulated", "prony"]),
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
    def test_matches_direct_sums(self, scheme, n_steps, family, place, k, frac):
        spec = _blocked_case(scheme, family, n_steps, place, k, frac)
        direct = _direct_march(spec)
        blocked = solve(spec).u
        assert np.max(np.abs(blocked - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_bytes_do_not_depend_on_blas_threads(self):
        # one BLAS product over the whole far history rounds differently at
        # 1 and 2 threads; the fixed chunks make the bytes independent, and
        # so does padding the rows to a multiple of 8 columns, which 250
        # interior nodes (and the energy rows of 256) are not; both the
        # solution and the energy history summed by the same engine
        script = (
            "import hashlib\n"
            "from viscokern.grids import Grid\n"
            "from viscokern.kernels import WedgeKernel\n"
            "from viscokern.solver import ProblemSpec, solve\n"
            "from viscokern.energy import energy_series\n"
            "for nx in (256, 250):\n"
            "    spec = ProblemSpec(Grid(0.0, 1.0, nx), 1.0, 1024, "
            "WedgeKernel(2.0, 1.0, 0.4), u0='sin(pi*x)', u1='x*(1-x)')\n"
            "    sol = solve(spec)\n"
            "    print(hashlib.sha256(sol.u.tobytes() + "
            "energy_series(sol).history.tobytes()).hexdigest())\n"
        )
        src = str(Path(viscokern.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120, check=True)
            digests.append(out.stdout.split())
        assert [len(d) for d in digests[0]] == [64, 64]
        assert digests[0] == digests[1]


class TestKinkIsolation:
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
        sol = solve_integral(make_spec(MollifiedKernel(WEDGE, 0.05), "integral", nx=8, nt=16))
        assert sol.meta["kernel_quadrature"] == "bump average of the base kernel's closed-form K"

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
        # the integral scheme is computable for any dt, but a grossly
        # under-resolved run overflows; the solver must say so
        big = ProblemSpec(Grid(0.0, 1.0, 256), 8.0, 128, PRONY, u0="sin(pi*x)",
                          scheme="integral")
        with pytest.raises(SolverDivergenceError, match="non-finite"):
            solve_integral(big)

    @pytest.mark.parametrize("spec", [
        # the under-resolved integral run above
        ProblemSpec(Grid(0.0, 1.0, 256), 8.0, 128, PRONY, u0="sin(pi*x)",
                    scheme="integral"),
        # forcing near the float limit overflows the differential march
        make_spec(PRONY, "differential", u0="sin(pi*x)", f="1e308*exp(t)"),
    ], ids=["integral", "differential"])
    def test_blocked_check_reports_first_bad_step(self, monkeypatch, spec):
        # the solvers look for non-finite rows once per block; the step and
        # time they report must be those of a check of every row as the
        # march writes it (each step computes its Laplacian exactly once)
        finite_rows = []
        original = solver_module.laplacian_values

        def per_step(values, h):
            finite_rows.append(bool(np.isfinite(values).all()))
            return original(values, h)

        monkeypatch.setattr(solver_module, "laplacian_values", per_step)
        with pytest.raises(SolverDivergenceError) as info:
            solve(spec)
        step = finite_rows.index(False)
        assert step % HISTORY_BLOCK  # inside a block, not at its end
        assert f"at step {step} (t = {step * spec.dt:.6g})" in str(info.value)


class TestSaveStride:
    def test_stride_keeps_endpoints(self):
        spec = make_spec(PRONY, "differential", nx=16, nt=128, u0="sin(pi*x)",
                         save_stride=8)
        sol = solve(spec)
        assert len(sol.times) == 17
        assert sol.times[0] == 0.0
        assert sol.times[-1] == pytest.approx(1.0)
        assert sol.v.shape == sol.u.shape

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

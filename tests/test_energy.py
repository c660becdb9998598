import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viscokern import expressions
from viscokern.energy import (
    _f_block,
    _lag_sums,
    _uniform_spacing,
    dissipation_check,
    energy_series,
    identity_residual,
    mode_decay_diagnostic,
    reconstruct_velocities,
)
from viscokern.grids import Grid
from viscokern.kernels import (
    DerivativeUndefinedError,
    PronyKernel,
    TabulatedKernel,
    WedgeKernel,
)
from viscokern.mollify import MollifiedKernel
from viscokern.solver import (
    HISTORY_BLOCK,
    ConfigurationError,
    ProblemSpec,
    _sine_basis,
    _to_modes,
    manufactured_prony,
    solve,
)

PRONY = PronyKernel(1.0, ((1.0, 0.5),))


# ---------------------------------------------------------------------------
# row-by-row lag integrals, the oracle for the engine-based energy path
# ---------------------------------------------------------------------------

def _y_rows(sol) -> np.ndarray:
    """The rows y = sqrt(lam) c: h sum y^2 is the three-point Laplacian's
    energy int |u_x|^2."""
    return np.sqrt(_sine_basis(sol.grid)[1]) * sol.modes


def _lag_integral(h: float, ds: float, ys: np.ndarray, n: int, weight: np.ndarray) -> float:
    """ds-trapezoid of weight(s) D(t_n, s) over the lags s_k = k*ds,
    k = 0..n, where D(t_n, s) = h sum |y(t_n) - y(t_n - s)|^2 and *weight*
    holds the kernel at the saved times."""
    diffs = ys[n][None, :] - ys[n::-1]
    d_vals = h * np.sum(diffs * diffs, axis=1)
    w = np.full(n + 1, ds)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(w @ (weight[: n + 1] * d_vals))


def _lag_rows(sol, weight: np.ndarray) -> np.ndarray:
    """The lag integral of *weight* (the kernel at the saved times) at every
    saved step, one row loop each."""
    ds = _uniform_spacing(sol.times)
    ys = _y_rows(sol)
    out = np.zeros(len(sol.times))
    for n in range(1, len(sol.times)):
        out[n] = _lag_integral(sol.grid.h, ds, ys, n, weight)
    return out


def _history_rows(sol) -> np.ndarray:
    """The history term of energy_series, one lag integral per snapshot."""
    return -0.5 * _lag_rows(sol, np.atleast_1d(sol.spec.kernel.gdot(sol.times)))


def _residual_rows(sol, report) -> np.ndarray:
    """identity_residual, one interior saved step at a time."""
    kernel = sol.spec.kernel
    ds = _uniform_spacing(sol.times)
    h = sol.grid.h
    gddot_at = np.atleast_1d(kernel.gddot(sol.times))  # may raise
    gdot_at = np.atleast_1d(kernel.gdot(sol.times))
    v = reconstruct_velocities(sol)
    ys = _y_rows(sol)
    sines = _sine_basis(sol.grid)[0][: sol.grid.n_interior]

    f_rows = None if expressions.is_zero(sol.spec.f_expr) else _f_block(sol)
    # stop one step short of the end: the final velocity is one-sided and
    # would leak an O(1) artefact into the centred rate at the last step
    residuals = np.empty(len(sol.times) - 3)
    for n in range(1, len(sol.times) - 2):
        rate = (report.total[n + 1] - report.total[n - 1]) / (2.0 * ds)
        rhs = 0.5 * gdot_at[n] * h * float(ys[n] @ ys[n])
        if f_rows is not None:  # f on the interior nodes, in the sine basis
            rhs += h * float((f_rows[n, 1:-1] @ sines) @ v[n])
        rhs -= 0.5 * _lag_integral(h, ds, ys, n, gddot_at)
        residuals[n - 1] = rate - rhs
    return residuals


def _values_on(sol, x_target: np.ndarray, t: float) -> np.ndarray:
    """Snapshot of *sol* at time t on the target interior nodes, linear in
    both time (between saved steps) and space (through the boundary zeros):
    the per-time loop the mode diagnostic ran before, kept as its oracle."""
    times = sol.times
    idx = int(np.searchsorted(times, t))
    idx = min(max(idx, 0), len(times) - 1)
    if idx > 0 and abs(times[idx] - t) > 1e-12 and times[idx] > t:
        lo = idx - 1
        theta = (t - times[lo]) / (times[idx] - times[lo])
        row = (1.0 - theta) * sol.u[lo] + theta * sol.u[idx]
    else:
        row = sol.u[idx]
    g = sol.grid
    x_full = np.concatenate(([g.a], g.x, [g.b]))
    return np.interp(x_target, x_full, np.concatenate(([0.0], row, [0.0])))


def standing_mode_solution(nx=64, nt=512, kernel=PRONY, scheme="differential",
                           u0="sin(pi*x)", u1="0", f="0", horizon=1.0):
    spec = ProblemSpec(Grid(0.0, 1.0, nx), horizon, nt, kernel,
                       u0=u0, u1=u1, f=f, scheme=scheme)
    return solve(spec)


class TestEnergySeries:
    def test_zero_solution_all_zero(self):
        sol = standing_mode_solution(u0="0")
        report = energy_series(sol)
        assert np.all(report.total == 0.0)
        assert np.all(report.history == 0.0)
        verdict = dissipation_check(report, f_is_zero=True)
        assert verdict.passed

    def test_initial_terms(self):
        # t = 0: empty history, elastic = G(0)/2 * int |u0'|^2 = G(0) pi^2 / 4,
        # kinetic = 1/2 int |u1|^2 = 1/8 for u1 = sin(pi x) ... int sin^2 = 1/2.
        # The three-point energy of sin(pi x) is lam_1 / 2, lam_1 =
        # (4/h^2) sin^2(pi h / 2) = pi^2 (1 - pi^2 h^2 / 12 + ..)
        sol = standing_mode_solution(nx=128, nt=1024, u1="sin(pi*x)")
        report = energy_series(sol)
        h = sol.grid.h
        assert report.history[0] == 0.0
        lam_1 = 4.0 / h**2 * np.sin(0.5 * np.pi * h) ** 2
        assert report.elastic[0] == pytest.approx(2.0 * lam_1 / 4.0, rel=1e-13)
        assert report.elastic[0] == pytest.approx(2.0 * np.pi**2 / 4.0, rel=h * h)
        assert report.kinetic[0] == pytest.approx(0.25, rel=5 * h * h)

    def test_terms_are_the_three_point_energies(self):
        # h sum lam_k c_k^2 is h sum_j |u_{j+1} - u_j|^2 / h^2 through the
        # boundary zeros (summation by parts), and h sum v_k^2 the nodal
        # h sum v_j^2 (Parseval), both from the nodal rows made here
        sol = standing_mode_solution(nx=32, nt=128, u0="x*(1-x)*exp(x)", u1="x*(1-x)")
        report = energy_series(sol)
        h = sol.grid.h
        full = np.pad(sol.u, ((0, 0), (1, 1)))
        grad_sq = h * np.sum(np.diff(full, axis=1) ** 2, axis=1) / h**2
        elastic = 0.5 * PRONY.g(sol.times) * grad_sq
        assert np.max(np.abs(report.elastic - elastic)) <= 1e-12 * np.max(elastic)
        v = np.gradient(sol.u, sol.times[1] - sol.times[0], axis=0)
        v[0] = sol.grid.x * (1.0 - sol.grid.x)
        kinetic = 0.5 * h * np.sum(v * v, axis=1)
        assert np.max(np.abs(report.kinetic - kinetic)) <= 1e-12 * np.max(kinetic)

    def test_makes_no_nodal_rows(self):
        sol = standing_mode_solution(nx=32, nt=128, f="sin(pi*x)*t")
        energy_series(sol)
        assert "u" not in vars(sol)

    def test_manufactured_standing_mode_energy(self):
        # u = sin(pi x) cos t under a two-term Prony kernel, forced so that it
        # is exact: E = pi^2/4 G(t) cos^2 t + 1/4 sin^2 t
        # + pi^2/4 int_0^t -Gdot(s) (cos t - cos(t - s))^2 ds, the lag integral
        # by 64-point Gauss.  The three-point energy misses it by
        # pi^2 h^2 / 12 = 2e-4 of max E at t = 0; the central-difference u_x
        # with one-sided wall stencils missed it by (pi h)^2 / 3 = 7.8e-4
        g_inf, terms = 0.8, ((0.7, 0.25), (0.5, 0.6))
        problem = manufactured_prony(PronyKernel(g_inf, terms))
        sol = solve(problem.spec(Grid(0.0, 1.0, 64), 1.0, 512, "differential"))
        t = sol.times
        x, w = np.polynomial.legendre.leggauss(64)
        s = 0.5 * t[:, None] * (x + 1.0)
        minus_gdot = sum(g / tau * np.exp(-s / tau) for g, tau in terms)
        lags = np.sum(0.5 * t[:, None] * w * minus_gdot
                      * (np.cos(t)[:, None] - np.cos(t[:, None] - s)) ** 2, axis=1)
        g_t = g_inf + sum(g * np.exp(-t / tau) for g, tau in terms)
        exact = 0.25 * np.pi**2 * (g_t * np.cos(t) ** 2 + lags) + 0.25 * np.sin(t) ** 2
        total = energy_series(sol).total
        assert np.max(np.abs(total - exact)) <= 3e-4 * np.max(exact)

    def test_monotone_decay_prony(self):
        sol = standing_mode_solution(nx=128, nt=1024)
        report = energy_series(sol)
        verdict = dissipation_check(report, f_is_zero=True)
        assert verdict.monotone is True
        assert verdict.bounded is True
        assert verdict.passed
        # genuine dissipation, not just non-increase
        assert report.total[-1] < 0.9 * report.total[0]

    def test_history_term_nonnegative(self):
        for kernel in (PRONY, WedgeKernel(2.0, 1.0, 0.4)):
            sol = standing_mode_solution(nx=48, nt=256, kernel=kernel)
            report = energy_series(sol)
            assert np.min(report.history) >= -1e-9

    def test_bound_constant_properties(self):
        sol = standing_mode_solution(nx=32, nt=128)
        report = energy_series(sol)
        g_t1 = float(PRONY.g(sol.spec.horizon + 1.0))
        assert report.alpha >= 1.0
        assert report.alpha >= 1.0 / g_t1
        assert report.alpha == max(1.0 / g_t1, 1.0)
        assert report.bound == pytest.approx(report.alpha * np.e * report.constant)

    def test_forcing_enters_constant(self):
        quiet = energy_series(standing_mode_solution(nx=32, nt=128))
        forced = energy_series(standing_mode_solution(nx=32, nt=128, f="sin(pi*x)"))
        assert forced.constant > quiet.constant

    def test_insufficient_snapshots_rejected(self):
        sol = standing_mode_solution(nx=16, nt=128)
        sol.times = sol.times[:2]
        sol.modes = sol.modes[:2]
        with pytest.raises(ConfigurationError, match="snapshots"):
            energy_series(sol)

    def test_tabulated_history_converges_in_dt(self):
        # step 70 of 100 sits at 0.01 * 70 = 0.7000000000000001, just past
        # the sample 0.7, where a wrong dG/dt shows in the history
        tab = TabulatedKernel([0.0, 0.3, 0.7, 1.0, 2.0], [2.0, 1.6, 1.3, 1.15, 1.0])
        coarse, fine = (
            energy_series(standing_mode_solution(nx=32, nt=nt, kernel=tab,
                                                 scheme="integral")).history
            for nt in (100, 1600)
        )
        fine = fine[::16]
        assert np.max(np.abs(coarse - fine)) <= 0.01 * np.max(np.abs(fine))

    def test_velocity_reconstruction_for_integral_scheme(self):
        sol = standing_mode_solution(nx=64, nt=512, scheme="integral")
        v = reconstruct_velocities(sol)  # sine coefficients, like the solution's rows
        assert v.shape == sol.modes.shape
        assert np.all(v[0] == 0.0)  # u1 = 0 itself, not (u_1 - u_0) / ds
        report = energy_series(sol)
        verdict = dissipation_check(report, f_is_zero=True)
        assert verdict.bounded


class TestWedgeHistoryWindow:
    def test_no_contribution_beyond_ramp(self):
        # Gdot vanishes for s > ramp, so the inner history integral only
        # collects lags in (0, ramp]; an independent re-assembly truncated
        # at the ramp must agree to 1e-12
        wedge = WedgeKernel(2.0, 1.0, 0.25)
        sol = standing_mode_solution(nx=32, nt=256, kernel=wedge)
        report = energy_series(sol)

        h = sol.grid.h
        ds = sol.times[1] - sol.times[0]
        ys = _y_rows(sol)

        n = len(sol.times) - 1
        assert sol.times[n] > wedge.ramp
        truncated = 0.0
        for k in range(n + 1):
            s = k * ds
            if s > wedge.ramp:  # the quadrature must see exactly zero here
                continue
            gd = float(wedge.gdot(s))
            w_k = ds * (0.5 if k in (0, n) else 1.0)
            d = h * np.sum((ys[n] - ys[n - k]) ** 2)
            truncated += -0.5 * w_k * gd * d
        assert report.history[n] == pytest.approx(truncated, abs=1e-12)


def _oracle_case(family, place, scheme, stride, n_saved, forced, k, frac, dt):
    """A solve with n_saved snapshots at save stride *stride*.  The kernel's
    kink lag c sits on a saved node, on a step node (between saved nodes
    when stride > 1) or strictly inside a step.  dt <= 1/64 and h = 1/17
    keep both schemes inside the CFL bound."""
    n_steps = (n_saved - 1) * stride
    horizon = n_steps * dt
    k = 1 + k % (n_saved - 1)
    c = {"saved": k * stride, "step": k * stride + 1, "panel": k * stride + frac}[place] * dt
    kernel = {
        "prony": PronyKernel(1.0, ((0.6, 0.3), (0.4, 2.0))),
        "wedge": WedgeKernel(2.0, 1.0, c),
        "tabulated": TabulatedKernel([0.0, c, c + 0.37, max(horizon, c + 0.37) + 1.0],
                                     [2.0, 1.5, 1.2, 1.0]),
        "mollified": MollifiedKernel(WedgeKernel(2.0, 1.0, c), 0.05),
    }[family]
    f = "(1 + x)*sin(pi*x)*cos(3*t)" if forced else "0"
    return solve(ProblemSpec(Grid(0.0, 1.0, 16), horizon, n_steps, kernel,
                             u0="sin(pi*x)", u1="x*(1-x)", f=f, scheme=scheme,
                             save_stride=stride))


class TestEngineAgainstRowLoop:
    # energy_series and identity_residual sum their lags through the
    # solver's memory-sum engine; the row loops above are the oracle.
    # Snapshot counts below, at and above HISTORY_BLOCK (and DIRECT_LAGS,
    # the shortest lag the engine sums) and past the far product's chunk
    # length (256 rows)

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    @pytest.mark.parametrize("n_saved", [3, HISTORY_BLOCK, HISTORY_BLOCK + 1, 300])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["prony", "wedge", "tabulated", "mollified"]),
        place=st.sampled_from(["saved", "step", "panel"]),
        stride=st.sampled_from([1, 2, 4]),
        forced=st.booleans(),
        k=st.integers(0, 400),
        frac=st.floats(0.05, 0.95),
        dt=st.sampled_from([1.0 / 64.0, 1.0 / 1024.0]),
    )
    @example(family="prony", place="saved", stride=1, forced=True, k=0, frac=0.5, dt=1 / 64)
    @example(family="mollified", place="panel", stride=4, forced=False, k=7, frac=0.3,
             dt=1 / 64)
    @example(family="wedge", place="saved", stride=2, forced=True, k=3, frac=0.5, dt=1 / 64)
    @example(family="wedge", place="step", stride=4, forced=False, k=11, frac=0.5, dt=1 / 64)
    @example(family="tabulated", place="step", stride=2, forced=True, k=5, frac=0.6,
             dt=1 / 64)
    # a kink one saved step from the origin at a fine step: Gdot is nonzero
    # only at lags where u_x(t) - u_x(t - s) is small against u_x
    @example(family="wedge", place="saved", stride=1, forced=False, k=0, frac=0.5,
             dt=1 / 1024)
    @example(family="wedge", place="panel", stride=1, forced=True, k=0, frac=0.4,
             dt=1 / 1024)
    # a short horizon at a fine step: u_x(t) - u_x(t - s) is small at every lag
    @example(family="prony", place="saved", stride=1, forced=True, k=0, frac=0.5,
             dt=1 / 4096)
    def test_matches_row_loop(self, scheme, n_saved, family, place, stride, forced, k, frac,
                              dt):
        sol = _oracle_case(family, place, scheme, stride, n_saved, forced, k, frac, dt)
        report = energy_series(sol)
        expected = _history_rows(sol)
        assert report.history[0] == 0.0
        assert np.max(np.abs(report.history - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.min(report.history) >= -1e-9
        if family not in ("prony", "mollified"):
            return  # no second derivative: identity_residual raises
        gddot = np.atleast_1d(sol.spec.kernel.gddot(sol.times))
        lags = _lag_sums(sol.grid.h, _uniform_spacing(sol.times), _y_rows(sol), gddot[None, :],
                         sol.spec.kernel)[0]
        expected = _lag_rows(sol, gddot)
        assert np.max(np.abs(lags - expected)) <= 1e-12 * np.max(np.abs(expected))
        residual = identity_residual(sol, report)
        expected = _residual_rows(sol, report)
        assert residual.shape == expected.shape == (n_saved - 3,)
        if len(expected):
            # relative to the rate dE/dt the identity balances: the residual
            # is down to about 1e-5 of it, and 1e-12 of the residual would sit
            # below the last bit of the terms it is the difference of
            scale = np.max(np.abs(report.total[2:-1] - report.total[:-3])) / (2.0 * sol.times[1])
            assert np.max(np.abs(residual - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("scheme", ["integral", "differential"])
    @pytest.mark.parametrize("ramp", [0.7, 158.5 / 256, 2.0])
    def test_wedge_head_matches_row_loop(self, scheme, ramp):
        # Gdot is constant up to the ramp, so the lags from DIRECT_LAGS to
        # J = floor(ramp / ds) (179; 158, one short of a block's last lag;
        # past the horizon) are a lag piece of the far sums
        sol = standing_mode_solution(nx=16, nt=320, horizon=1.25, scheme=scheme,
                                     u1="x*(1-x)", kernel=WedgeKernel(2.0, 1.0, ramp))
        expected = _history_rows(sol)
        history = energy_series(sol).history
        assert np.max(np.abs(history - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestDissipationBranches:
    def test_forced_run_monotonicity_not_applicable(self):
        # planted growing-energy run: resonant forcing
        sol = standing_mode_solution(nx=48, nt=384, u0="0",
                                     f="10*sin(pi*x)*cos(pi*t)")
        report = energy_series(sol)
        assert report.total[-1] > report.total[0]  # energy really grows
        verdict = dissipation_check(report, f_is_zero=False)
        assert verdict.monotone is None
        assert isinstance(verdict.bounded, bool)
        assert verdict.passed == verdict.bounded

    def test_nonmonotone_flagged_when_f_claimed_zero(self):
        sol = standing_mode_solution(nx=48, nt=384, u0="0",
                                     f="10*sin(pi*x)*cos(pi*t)")
        report = energy_series(sol)
        verdict = dissipation_check(report, f_is_zero=True)
        assert verdict.monotone is False
        assert not verdict.passed


class TestIdentityResidual:
    def test_prony_residual_small(self):
        sol = standing_mode_solution(nx=64, nt=512)
        report = energy_series(sol)
        residual = identity_residual(sol, report)
        assert residual is report.residual  # the energy pass computed it
        # O(ds) differencing noise on an O(1) energy scale
        assert np.max(np.abs(residual)) < 0.05

    def test_wedge_unsupported(self):
        sol = standing_mode_solution(nx=32, nt=256, kernel=WedgeKernel(2, 1, 0.4))
        report = energy_series(sol)
        assert report.residual is None
        with pytest.raises(DerivativeUndefinedError,
                           match="WedgeKernel does not provide a second derivative"):
            identity_residual(sol, report)

    def test_schemes_start_from_the_same_data(self):
        # both schemes take the velocity at t = 0 from u1 itself; the one-sided
        # difference (u_1 - u_0) / ds the integral scheme took there gave
        # kinetic(0) = 0.01428 for 1/2 ||u1||^2 = 0.01667, another constant C
        # and a residual of 0.61, about 0.12 of max E, at step 1
        sols = {scheme: standing_mode_solution(nx=64, nt=512, scheme=scheme, u1="x*(1-x)")
                for scheme in ("integral", "differential")}
        reports = {scheme: energy_series(sol) for scheme, sol in sols.items()}
        integral, differential = reports["integral"], reports["differential"]
        assert integral.kinetic[0] == differential.kinetic[0]
        assert integral.constant == differential.constant
        x = sols["integral"].grid.x
        u1 = x * (1.0 - x)  # zero at both ends: the trapezoid is h * sum
        h = sols["integral"].grid.h
        assert integral.kinetic[0] == pytest.approx(0.5 * h * np.sum(u1 * u1), rel=1e-14)
        assert integral.kinetic[0] == pytest.approx(1.0 / 60.0, rel=h * h)
        residual = identity_residual(sols["integral"], integral)
        assert np.max(np.abs(residual)) <= 5e-3 * np.max(integral.total)


class TestModeDecay:
    def test_identical_solutions_zero_series(self):
        sol = standing_mode_solution(nx=32, nt=256)
        report = mode_decay_diagnostic(sol, sol, 3)
        assert np.all(report.magnitudes == 0.0)

    def test_scheme_gap_projections_shrink_under_refinement(self):
        sups = []
        for nx, nt in ((24, 192), (48, 384)):
            a = standing_mode_solution(nx=nx, nt=nt, scheme="integral",
                                       u0="x*(1-x)*exp(x)")
            b = standing_mode_solution(nx=nx, nt=nt, scheme="differential",
                                       u0="x*(1-x)*exp(x)")
            sups.append(mode_decay_diagnostic(a, b, 3).sup_per_mode)
        for i in range(3):
            assert sups[1][i] < sups[0][i] / 2.0

    def test_cross_resolution_interpolation(self):
        a = standing_mode_solution(nx=24, nt=192)
        b = standing_mode_solution(nx=48, nt=384)
        report = mode_decay_diagnostic(a, b, 2)
        assert report.magnitudes.shape[1] == len(a.times)
        assert np.max(report.magnitudes) < 1e-2

    @pytest.mark.parametrize("sizes", [((24, 192), (40, 256)), ((40, 256), (24, 192)),
                                       ((24, 192), (24, 384))])
    def test_matches_per_time_loop(self, sizes):
        # grids that do not nest and time steps that do not divide: every
        # value is interpolated in space and, on the finer time grid, in time
        (na, ta), (nb, tb) = sizes
        a = standing_mode_solution(nx=na, nt=ta, scheme="integral", u0="x*(1-x)*exp(x)")
        b = standing_mode_solution(nx=nb, nt=tb, u0="x*(1-x)*exp(x)")
        report = mode_decay_diagnostic(a, b, 4)
        grid = (a if na <= nb else b).grid
        times = min(a.times, b.times, key=len)
        diffs = np.stack([_values_on(a, grid.x, float(t)) - _values_on(b, grid.x, float(t))
                          for t in times])
        expected = np.abs(np.sqrt(grid.h) * _to_modes(diffs, _sine_basis(grid)[0])[:, :4]).T
        assert np.max(np.abs(report.magnitudes - expected)) <= 1e-12 * np.max(expected)

    def test_mode_count_beyond_resolution(self):
        sol = standing_mode_solution(nx=8, nt=64)
        with pytest.raises(ValueError, match="resolves at most"):
            mode_decay_diagnostic(sol, sol, 9)

    def test_incompatible_domains(self):
        a = standing_mode_solution(nx=16, nt=128)
        spec = ProblemSpec(Grid(0.0, 2.0, 16), 1.0, 128, PRONY, u0="sin(pi*x/2)",
                           scheme="differential")
        # another length, and the same problem over a quarter of the time
        # span (its last row would otherwise stand in for the later times)
        for b in (solve(spec), standing_mode_solution(nx=16, nt=256, horizon=0.25)):
            with pytest.raises(ConfigurationError, match="incompatible"):
                mode_decay_diagnostic(a, b, 2)
            with pytest.raises(ConfigurationError, match="incompatible"):
                mode_decay_diagnostic(b, a, 2)

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viscokern import expressions
from viscokern.energy import (
    _f_block,
    _full_rows,
    _trap_x,
    _uniform_spacing,
    _ux_rows,
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
from viscokern.solver import HISTORY_BLOCK, ConfigurationError, ProblemSpec, solve

PRONY = PronyKernel(1.0, ((1.0, 0.5),))


# ---------------------------------------------------------------------------
# row-by-row lag integrals, the oracle for the engine-based energy path
# ---------------------------------------------------------------------------

def _lag_integral(h: float, ds: float, uxs: np.ndarray, n: int, weight: np.ndarray) -> float:
    """ds-trapezoid of weight(s) D(t_n, s) over the lags s_k = k*ds,
    k = 0..n, where D(t_n, s) = int |u_x(t_n) - u_x(t_n - s)|^2 dx and
    *weight* holds the kernel at the saved times."""
    diffs = uxs[n][None, :] - uxs[n::-1]
    d_vals = _trap_x(h, diffs * diffs)
    w = np.full(n + 1, ds)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(w @ (weight[: n + 1] * d_vals))


def _history_rows(sol) -> np.ndarray:
    """The history term of energy_series, one lag integral per snapshot."""
    ds = _uniform_spacing(sol.times)
    h = sol.grid.h
    n_saved = len(sol.times)
    uxs = _ux_rows(h, sol.u)
    gdot_at = np.atleast_1d(sol.spec.kernel.gdot(sol.times))
    history = np.zeros(n_saved)
    for n in range(1, n_saved):
        history[n] = -0.5 * _lag_integral(h, ds, uxs, n, gdot_at)
    return history


def _residual_rows(sol, report) -> np.ndarray:
    """identity_residual, one interior saved step at a time."""
    kernel = sol.spec.kernel
    ds = _uniform_spacing(sol.times)
    h = sol.grid.h
    gddot_at = np.atleast_1d(kernel.gddot(sol.times))  # may raise
    gdot_at = np.atleast_1d(kernel.gdot(sol.times))
    v = sol.v if sol.v is not None else reconstruct_velocities(sol)
    uxs = _ux_rows(h, sol.u)

    f_rows = None if expressions.is_zero(sol.spec.f_expr) else _f_block(sol)
    # stop one step short of the end: the final velocity is one-sided and
    # would leak an O(1) artefact into the centred rate at the last step
    residuals = np.empty(len(sol.times) - 3)
    for n in range(1, len(sol.times) - 2):
        rate = (report.total[n + 1] - report.total[n - 1]) / (2.0 * ds)
        rhs = 0.5 * gdot_at[n] * float(_trap_x(h, uxs[n][None, :] ** 2)[0])
        if f_rows is not None:
            rhs += float(_trap_x(h, (f_rows[n] * _full_rows(v[n : n + 1])[0])[None, :])[0])
        rhs -= 0.5 * _lag_integral(h, ds, uxs, n, gddot_at)
        residuals[n - 1] = rate - rhs
    return residuals


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
        # kinetic = 1/2 int |u1|^2 = 1/8 for u1 = sin(pi x) ... int sin^2 = 1/2
        sol = standing_mode_solution(nx=128, nt=1024, u1="sin(pi*x)")
        report = energy_series(sol)
        h = sol.grid.h
        assert report.history[0] == 0.0
        assert report.elastic[0] == pytest.approx(2.0 * np.pi**2 / 4.0, rel=5 * h * h)
        assert report.kinetic[0] == pytest.approx(0.25, rel=5 * h * h)

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
        sol.u = sol.u[:2]
        sol.v = sol.v[:2]
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
        assert sol.v is None
        v = reconstruct_velocities(sol)
        assert v.shape == sol.u.shape
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
        full = np.hstack([np.zeros((len(sol.times), 1)), sol.u,
                          np.zeros((len(sol.times), 1))])
        ux = np.empty_like(full)
        ux[:, 1:-1] = (full[:, 2:] - full[:, :-2]) / (2 * h)
        ux[:, 0] = (full[:, 1] - full[:, 0]) / h
        ux[:, -1] = (full[:, -1] - full[:, -2]) / h
        wx = np.full(full.shape[1], h)
        wx[0] *= 0.5
        wx[-1] *= 0.5

        n = len(sol.times) - 1
        assert sol.times[n] > wedge.ramp
        truncated = 0.0
        for k in range(n + 1):
            s = k * ds
            if s > wedge.ramp:  # the quadrature must see exactly zero here
                continue
            gd = float(wedge.gdot(s))
            w_k = ds * (0.5 if k in (0, n) else 1.0)
            d = (ux[n] - ux[n - k]) ** 2 @ wx
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
        residual = identity_residual(sol, report)
        expected = _residual_rows(sol, report)
        assert residual.shape == expected.shape == (n_saved - 3,)
        if len(expected):
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(residual - expected)) <= 1e-12 * scale


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
        residual = identity_residual(sol, energy_series(sol))
        # O(ds) differencing noise on an O(1) energy scale
        assert np.max(np.abs(residual)) < 0.05

    def test_wedge_unsupported(self):
        sol = standing_mode_solution(nx=32, nt=256, kernel=WedgeKernel(2, 1, 0.4))
        with pytest.raises(DerivativeUndefinedError):
            identity_residual(sol, energy_series(sol))


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

    def test_mode_count_beyond_resolution(self):
        sol = standing_mode_solution(nx=8, nt=64)
        with pytest.raises(ValueError, match="resolves at most"):
            mode_decay_diagnostic(sol, sol, 9)

    def test_incompatible_domains(self):
        a = standing_mode_solution(nx=16, nt=128)
        spec = ProblemSpec(Grid(0.0, 2.0, 16), 1.0, 128, PRONY, u0="sin(pi*x/2)",
                           scheme="differential")
        b = solve(spec)
        with pytest.raises(ConfigurationError, match="incompatible"):
            mode_decay_diagnostic(a, b, 2)

"""Energy functional, dissipation checks and the eigenmode decay diagnostic.

For a solution u of the viscoelastic problem the tracked energy is

    E(t) = 1/2 int G(t) |u_x|^2 dx  +  1/2 int |u_t|^2 dx
           - 1/2 int_0^t ds Gdot(s) int |u_x(t) - u_x(t-s)|^2 dx.

All three pieces are nonnegative for an admissible kernel (Gdot <= 0),
and with f = 0 the total is nonincreasing; in general it stays below
alpha * e^T * C with alpha = max{1/G(T+1), 1} and a data constant

    C = 1/2 G(0) ||u0'||^2 + 1/2 ||u1||^2 + 1/2 ||f||^2_{L2(D)}.

The history double integral is the quantity separating viscoelastic from
elastic behaviour, so it is computed explicitly even though the a-priori
bound discards it.  Spatial integrals use the trapezoid rule with
one-sided u_x stencils at the boundary nodes; the time quadratures run
over the saved snapshots, with the lag sums in the solver's memory-sum engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions
from .grids import dirichlet_eigenpairs
from .solver import ConfigurationError, SolutionField, _engine_rows, _memory_sums

#: tolerance of the dissipation verdict, relative to E(0) for monotonicity
#: and absolute for the bound (quadrature noise)
ENERGY_TOL = 1e-3
DIRECT_LAGS = 32  # lags (saved steps) too short for the expansion in _lag_sums


def _uniform_spacing(times: np.ndarray) -> float:
    if len(times) < 2:
        raise ConfigurationError("need at least two saved snapshots")
    diffs = np.diff(times)
    ds = float(diffs[0])
    if np.max(np.abs(diffs - ds)) > 1e-12 * max(ds, 1.0):
        raise ConfigurationError("saved snapshots are not uniformly spaced")
    return ds


def _full_rows(values: np.ndarray) -> np.ndarray:
    """Append the zero boundary columns to interior snapshot rows."""
    n_t = values.shape[0]
    return np.hstack([np.zeros((n_t, 1)), values, np.zeros((n_t, 1))])


def _ux_rows(h: float, values: np.ndarray) -> np.ndarray:
    """u_x on the full grid: central inside, one-sided at the boundaries."""
    return np.gradient(_full_rows(values), h, axis=1)


def _trap_x(h: float, rows: np.ndarray) -> np.ndarray:
    """Trapezoid over the full grid, along the last axis."""
    w = np.full(rows.shape[-1], h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return rows @ w


def _lag_sums(h: float, ds: float, uxs: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per saved step n, the ds-trapezoid over the lags s = 0, ds, .., t_n of
    weight(s) D(t_n, s), D(t_n, s) = int |u_x(t_n) - u_x(t_n - s)|^2 dx, with
    *weight* the kernel at the saved times.  Lags of DIRECT_LAGS steps and
    more come from one engine pass over the rows (|u_x|^2, 1, u_x), by
    |a - b|^2 = |a|^2 + |b|^2 - 2 a.b; shorter ones are summed as differences."""
    uxs = uxs - uxs.mean(axis=0)  # D sees differences only: shrink what cancels
    d = _trap_x(h, uxs * uxs)
    rows = _engine_rows(len(d), 2 + uxs.shape[1])
    rows[:, 0] = d
    rows[:, 1] = 1.0
    rows[:, 2 : 2 + uxs.shape[1]] = uxs
    far_wl = np.where(np.arange(len(d)) < DIRECT_LAGS, 0.0, ds * weight)
    sums = np.zeros_like(rows)
    for n, s in _memory_sums(rows, far_wl, len(d)):
        sums[n] = s
    out = d * sums[:, 1] + sums[:, 0] - 2.0 * _trap_x(h, uxs * sums[:, 2 : 2 + uxs.shape[1]])
    for k in range(1, min(DIRECT_LAGS, len(d))):
        near = ds * weight[k] * _trap_x(h, (uxs[k:] - uxs[:-k]) ** 2)
        near[0] *= 0.5  # lag k ends the trapezoid of step n = k
        out[k:] += near
    return out


def _f_block(sol: SolutionField) -> np.ndarray:
    """f sampled as (snapshot, node) on the full grid, boundaries included."""
    grid = sol.grid
    x_full = np.concatenate(([grid.a], grid.x, [grid.b]))
    return expressions.evaluate(sol.spec.f_expr, x=x_full[None, :], t=sol.times[:, None])


def reconstruct_velocities(sol: SolutionField) -> np.ndarray:
    """Central-difference velocities from saved snapshots (one-sided at the
    first and last steps: accuracy O(ds^2) inside, O(ds) at the ends)."""
    ds = _uniform_spacing(sol.times)
    v = np.empty_like(sol.u)
    v[0] = (sol.u[1] - sol.u[0]) / ds
    if len(sol.times) > 2:
        v[1:-1] = (sol.u[2:] - sol.u[:-2]) / (2.0 * ds)
    v[-1] = (sol.u[-1] - sol.u[-2]) / ds
    return v


@dataclass
class EnergyReport:
    times: np.ndarray
    elastic: np.ndarray    # 1/2 int G(t) |u_x|^2
    kinetic: np.ndarray    # 1/2 int |u_t|^2
    history: np.ndarray    # -1/2 int_0^t Gdot(s) |u_x(t)-u_x(t-s)|^2 dx ds
    total: np.ndarray
    alpha: float           # max{1/G(T+1), 1}
    constant: float        # data constant C
    bound: float           # alpha * e^T * C

    @property
    def initial(self) -> float:
        return float(self.total[0])


def energy_series(sol: SolutionField) -> EnergyReport:
    """Per-snapshot energy terms plus the a-priori bound.

    Velocities are taken from the solution when the differential scheme
    stored them, otherwise reconstructed by central differences.  The
    history integral runs over the saved snapshots, so a coarse save
    stride coarsens it too; fewer than three snapshots are rejected.
    """
    kernel = sol.spec.kernel
    if len(sol.times) < 3:
        raise ConfigurationError(
            "energy series needs at least 3 saved snapshots; "
            "reduce save_stride"
        )
    ds = _uniform_spacing(sol.times)
    h = sol.grid.h
    n_saved = len(sol.times)

    v = sol.v if sol.v is not None else reconstruct_velocities(sol)
    uxs = _ux_rows(h, sol.u)
    g_at = np.atleast_1d(kernel.g(sol.times))
    gdot_at = np.atleast_1d(kernel.gdot(sol.times))

    elastic = 0.5 * g_at * _trap_x(h, uxs * uxs)
    kinetic = 0.5 * _trap_x(h, _full_rows(v) ** 2)

    history = -0.5 * _lag_sums(h, ds, uxs, gdot_at)

    horizon = sol.spec.horizon
    alpha = max(1.0 / float(kernel.g(horizon + 1.0)), 1.0)
    constant = float(
        0.5 * float(kernel.g(0.0)) * _trap_x(h, uxs[0] ** 2)
        + 0.5 * _trap_x(h, _full_rows(v[:1])[0] ** 2)
    )
    if not expressions.is_zero(sol.spec.f_expr):
        f_rows = _f_block(sol)
        space = _trap_x(h, f_rows * f_rows)
        wt = np.zeros(n_saved)
        wt[:-1] += 0.5 * ds
        wt[1:] += 0.5 * ds
        constant += 0.5 * float(wt @ space)

    total = elastic + kinetic + history
    return EnergyReport(
        times=sol.times.copy(),
        elastic=elastic,
        kinetic=kinetic,
        history=history,
        total=total,
        alpha=alpha,
        constant=constant,
        bound=float(alpha * np.exp(horizon) * constant),
    )


@dataclass
class DissipationVerdict:
    monotone: bool | None   # None when f != 0 (check not applicable)
    bounded: bool
    max_increase: float     # largest E(t_{k+1}) - E(t_k)
    max_total: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.bounded and self.monotone is not False


def dissipation_check(report: EnergyReport, f_is_zero: bool) -> DissipationVerdict:
    """Monotone decrease (source-free case only) and the a-priori bound.

    Monotonicity allows an increase of ENERGY_TOL * E(0) per step to absorb
    quadrature noise; the bound check allows an absolute slack of ENERGY_TOL.
    With a nonzero source the monotonicity verdict is "not applicable"
    (None) and only the bound is evaluated.
    """
    increments = np.diff(report.total)
    max_increase = float(increments.max()) if len(increments) else 0.0
    monotone: bool | None
    if f_is_zero:
        monotone = bool(np.all(increments <= ENERGY_TOL * max(report.initial, 0.0)))
    else:
        monotone = None
    max_total = float(report.total.max())
    bounded = bool(max_total <= report.bound + ENERGY_TOL)
    return DissipationVerdict(
        monotone=monotone,
        bounded=bounded,
        max_increase=max_increase,
        max_total=max_total,
        bound=report.bound,
    )


def identity_residual(sol: SolutionField, report: EnergyReport) -> np.ndarray:
    """Residual of the energy rate identity at the interior saved steps:

        dE/dt = int f u_t + 1/2 Gdot(t) int |u_x|^2
                - 1/2 int_0^t Gddot(s) int |u_x(t) - u_x(t-s)|^2 dx ds.

    Needs a kernel with a genuine second derivative (exponential series or
    mollified); for a raw wedge the curvature is a point mass at the kink
    and the identity is not evaluated.  Purely diagnostic: the residual
    carries the O(ds) differencing error of the outer derivative.
    *report* is :func:`energy_series` of the same solution.
    """
    kernel = sol.spec.kernel
    ds = _uniform_spacing(sol.times)
    h = sol.grid.h
    gddot_at = np.atleast_1d(kernel.gddot(sol.times))  # may raise
    gdot_at = np.atleast_1d(kernel.gdot(sol.times))
    v = sol.v if sol.v is not None else reconstruct_velocities(sol)
    uxs = _ux_rows(h, sol.u)

    # stop one step short of the end: the final velocity is one-sided and
    # would leak an O(1) artefact into the centred rate at the last step
    inner = slice(1, len(sol.times) - 2)
    rate = (report.total[2:-1] - report.total[:-3]) / (2.0 * ds)
    rhs = 0.5 * gdot_at[inner] * _trap_x(h, uxs[inner] ** 2)
    if not expressions.is_zero(sol.spec.f_expr):
        rhs += _trap_x(h, _f_block(sol)[inner] * _full_rows(v[inner]))
    rhs -= 0.5 * _lag_sums(h, ds, uxs, gddot_at)[inner]
    return rate - rhs


@dataclass
class ModeDecayReport:
    """|(w(t), w_i)| for the difference w of two solves, per Dirichlet mode."""

    times: np.ndarray
    magnitudes: np.ndarray  # (n_modes, n_times)

    @property
    def sup_per_mode(self) -> np.ndarray:
        return self.magnitudes.max(axis=1)


def _values_on(sol: SolutionField, x_target: np.ndarray, t: float) -> np.ndarray:
    """Snapshot of *sol* at time t on the target interior nodes, linear in
    both time (between saved steps) and space (through the boundary zeros)."""
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


def mode_decay_diagnostic(
    sol_a: SolutionField,
    sol_b: SolutionField,
    n_modes: int,
) -> ModeDecayReport:
    """Projection magnitudes of w = u_a - u_b onto the first Dirichlet
    eigenmodes, over the coarser solution's saved times.

    The two solves must share the domain (scheme and resolution may
    differ; the finer solution is interpolated to the coarser grid).  As
    both resolutions are refined every mode series shrinks toward zero,
    mirroring the argument that forces the projections of a difference of
    two solutions to vanish identically.
    """
    ga, gb = sol_a.grid, sol_b.grid
    if (ga.a, ga.b) != (gb.a, gb.b):
        raise ConfigurationError("solutions live on incompatible domains")
    coarse, fine = (sol_a, sol_b) if ga.n_interior <= gb.n_interior else (sol_b, sol_a)
    times = coarse.times if len(coarse.times) <= len(fine.times) else fine.times
    grid = coarse.grid
    _, modes = dirichlet_eigenpairs(grid, n_modes)  # validates n_modes
    mags = np.empty((n_modes, len(times)))
    for k, t in enumerate(times):
        wa = _values_on(sol_a, grid.x, float(t))
        wb = _values_on(sol_b, grid.x, float(t))
        mags[:, k] = np.abs(grid.h * (modes @ (wa - wb)))
    return ModeDecayReport(times=np.asarray(times, dtype=float).copy(), magnitudes=mags)

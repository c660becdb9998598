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
bound discards it.  The audit reads only the solution's sine coefficients
c_k (``sol.modes``) and never makes nodal rows: int |u_x|^2 is the march's
own three-point energy h sum_j |u_{j+1} - u_j|^2 / h^2 = h sum_k lam_k c_k^2,
int |u_t|^2 is h sum_k v_k^2 (Parseval), and only ||f||^2 is a trapezoid
on the full grid.  The time quadratures run over the saved snapshots, with
the lag sums in the solver's far sums.  One pass, :func:`energy_series`,
also gives the rate identity's residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions
from .kernels import DerivativeUndefinedError
from .solver import (
    ConfigurationError,
    SolutionField,
    _engine_rows,
    _far_sums,
    _lag_pieces,
    _sine_basis,
    _squares_overflow,
    _to_modes,
)

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


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a_k b_k per row, outside BLAS: a row rounds the same wherever
    it sits in the block."""
    return np.einsum("ij,ij->i", a, b)


def _trap_x(h: float, rows: np.ndarray) -> np.ndarray:
    """Trapezoid over the full grid, along the last axis."""
    w = np.full(rows.shape[-1], h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return rows @ w


def _lag_sums(h: float, ds: float, ys: np.ndarray, weights: np.ndarray, kernel) -> np.ndarray:
    """Per row of *weights* (kernel derivatives at the saved times) and saved
    step n, the ds-trapezoid over the lags s = 0, ds, .., t_n of weight(s)
    D(t_n, s), D(t_n, s) = h sum (y(t_n) - y(t_n - s))^2, y = sqrt(lam) c.
    Lags of DIRECT_LAGS steps and more come from one engine pass per row
    over the same rows (h sum y^2, 1, y), by |a - b|^2 = |a|^2 + |b|^2 - 2 a.b,
    with the lag pieces the solver's gate takes on that row from the
    *kernel*'s declared structure; shorter ones are differenced once for
    every row."""
    y = ys - ys.mean(axis=0)  # D sees differences only: shrink what cancels
    d = h * _dot_rows(y, y)
    n_saved, width = y.shape
    rows = _engine_rows(n_saved, 2 + width)
    rows[:, 0] = d
    rows[:, 1] = 1.0
    rows[:, 2 : 2 + width] = y
    out = np.empty((len(weights), n_saved))
    sums = np.zeros_like(rows)  # row 0 stays zero; each pass writes the others
    for far_wl, total in zip(np.where(np.arange(n_saved) < DIRECT_LAGS, 0.0, ds * weights), out):
        pieces, _ = _lag_pieces(kernel, ds, far_wl, DIRECT_LAGS)
        for s, far in _far_sums(rows, far_wl, 1, n_saved, pieces):
            sums[s : s + len(far)] = far
        total[:] = d * sums[:, 1] + sums[:, 0] - 2.0 * h * _dot_rows(y, sums[:, 2 : 2 + width])
    diffs = np.empty_like(y)  # one buffer: an array per lag keeps two alive at once
    for k in range(1, min(DIRECT_LAGS, n_saved)):
        diff = np.subtract(y[k:], y[:-k], out=diffs[k:])
        near = ds * weights[:, k, None] * (h * _dot_rows(diff, diff))
        near[:, 0] *= 0.5  # lag k ends the trapezoid of step n = k
        out[:, k:] += near
    return out


def _f_block(sol: SolutionField) -> np.ndarray:
    """f sampled as (snapshot, node) on the full grid, boundaries included."""
    grid = sol.grid
    x_full = np.concatenate(([grid.a], grid.x, [grid.b]))
    return expressions.evaluate(sol.spec.f_expr, x=x_full[None, :], t=sol.times[:, None])


def reconstruct_velocities(sol: SolutionField) -> np.ndarray:
    """Velocities at the saved snapshots in the sine basis, rows like
    ``sol.modes``, for either scheme: u1's coefficients at t = 0, central
    differences inside (O(ds^2)) and a one-sided one at the last (O(ds))."""
    v = np.gradient(sol.modes, _uniform_spacing(sol.times), axis=0)
    u1 = expressions.evaluate(sol.spec.u1_expr, x=sol.grid.x)
    v[0] = _to_modes(u1[None, :], _sine_basis(sol.grid)[0])[0]
    return v


@dataclass
class EnergyReport:
    """One :func:`energy_series` pass: the terms per saved snapshot, the
    bound, and the rate identity's residual at saved steps 1 .. N - 3."""

    times: np.ndarray
    elastic: np.ndarray    # 1/2 G(t) h sum lam_k c_k^2
    kinetic: np.ndarray    # 1/2 h sum v_k^2
    history: np.ndarray    # -1/2 int_0^t Gdot(s) h sum lam_k (c_k(t)-c_k(t-s))^2 ds
    total: np.ndarray
    alpha: float           # max{1/G(T+1), 1}
    constant: float        # data constant C
    bound: float           # alpha * e^T * C
    residual: np.ndarray | None  # dE/dt minus the identity's right side

    @property
    def initial(self) -> float:
        return float(self.total[0])


def energy_series(sol: SolutionField) -> EnergyReport:
    """Per-snapshot energy terms, the a-priori bound and, when the kernel
    has a second derivative, the residual at the interior saved steps of
    the energy rate identity

        dE/dt = int f u_t + 1/2 Gdot(t) int |u_x|^2
                - 1/2 int_0^t Gddot(s) int |u_x(t) - u_x(t-s)|^2 dx ds,

    a diagnostic carrying the O(ds) error of the outer derivative (None for
    a raw wedge, whose curvature is a point mass at the kink).  One pass
    builds the velocities (:func:`reconstruct_velocities`), the rows
    y = sqrt(lam) c and their h sum y^2, the sampled f and the lag sums of
    Gdot and Gddot (:func:`_lag_sums`).  The history integral runs over the
    saved snapshots, so a coarse save stride coarsens it too; fewer than
    three snapshots are rejected.
    """
    kernel = sol.spec.kernel
    if len(sol.times) < 3:
        raise ConfigurationError("energy series needs at least 3 saved snapshots; "
                                 "reduce save_stride")
    ds = _uniform_spacing(sol.times)
    h = sol.grid.h
    sines, lam = _sine_basis(sol.grid)
    g_at = np.atleast_1d(kernel.g(sol.times))
    # Gdot and Gddot after t = 0 only (an exact Gdot(0) may be infinite):
    # column 0, lag 0, weighs D(t, 0) = 0 and is never read
    weights = [kernel.gdot(sol.times[1:])]
    try:
        weights.append(kernel.gddot(sol.times[1:]))
    except DerivativeUndefinedError:
        pass
    weights = np.pad(np.array(weights), ((0, 0), (1, 0)))
    try:  # the squares of the solution: name them when they overflow
        v = reconstruct_velocities(sol)
        ys = np.sqrt(lam) * sol.modes
        grad_sq = h * _dot_rows(ys, ys)  # int |u_x|^2 = h sum lam c^2
        kinetic = 0.5 * h * _dot_rows(v, v)
        lag_sums = _lag_sums(h, ds, ys, weights, kernel)
    except FloatingPointError as exc:
        raise _squares_overflow("energy", (sol.modes,), exc) from exc

    elastic = 0.5 * g_at * grad_sq
    history = -0.5 * lag_sums[0]

    horizon = sol.spec.horizon
    constant = float(0.5 * float(kernel.g(0.0)) * grad_sq[0] + kinetic[0])
    f_rows = None if expressions.is_zero(sol.spec.f_expr) else _f_block(sol)
    if f_rows is not None:  # ||f||^2 by the trapezoid in x, then in t
        constant += 0.5 * float(_trap_x(ds, _trap_x(h, f_rows * f_rows)))

    total = elastic + kinetic + history
    residual = None
    if len(lag_sums) > 1:
        # stop one step short of the end: the final velocity is one-sided and
        # would leak an O(1) artefact into the centred rate at the last step
        inner = slice(1, -2)
        rate = (total[2:-1] - total[:-3]) / (2.0 * ds)
        rhs = 0.5 * weights[0][inner] * grad_sq[inner]
        if f_rows is not None:  # int f u_t = h sum f_k v_k, f on the interior nodes
            rhs += h * _dot_rows(_to_modes(f_rows[inner, 1:-1], sines), v[inner])
        rhs -= 0.5 * lag_sums[1][inner]
        residual = rate - rhs
    # alpha is infinite once G(T + 1) underflows to 0, e^T past T = 709, and
    # the bound with them; zero data (C = 0) have the zero solution, bound 0
    with np.errstate(divide="ignore", over="ignore"):
        alpha = max(float(1.0 / np.float64(kernel.g(horizon + 1.0))), 1.0)
        bound = float(alpha * np.exp(horizon) * constant) if constant else 0.0
    return EnergyReport(
        times=sol.times.copy(),
        elastic=elastic,
        kinetic=kinetic,
        history=history,
        total=total,
        alpha=alpha,
        constant=constant,
        bound=bound,
        residual=residual,
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
    """The residual of the energy rate identity that :func:`energy_series`
    of the same solution computed, ``report.residual``; a kernel with no
    second derivative raises its :class:`DerivativeUndefinedError` here."""
    if report.residual is None:
        sol.spec.kernel.gddot(sol.times)  # raises: no second derivative
    return report.residual


@dataclass
class ModeDecayReport:
    """|(w(t), w_i)| for the difference w of two solves, per Dirichlet mode."""

    times: np.ndarray
    magnitudes: np.ndarray  # (n_modes, n_times)

    @property
    def sup_per_mode(self) -> np.ndarray:
        return self.magnitudes.max(axis=1)


def _values_at(sol: SolutionField, x_target: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Snapshots of *sol* at *times* on the target interior nodes, linear in
    both time (between saved steps) and space (through the boundary zeros),
    as ``np.interp`` takes it: a time or node on a saved one takes its
    value, any other the value of the left one plus slope times offset."""
    saved = sol.times
    idx = np.minimum(np.searchsorted(saved, times), len(saved) - 1)
    between = (idx > 0) & (np.abs(saved[idx] - times) > 1e-12) & (saved[idx] > times)
    g = sol.grid
    x_full = np.concatenate(([g.a], g.x, [g.b]))
    full = np.zeros((len(times), len(x_full)))
    full[:, 1:-1] = sol.u[idx]
    hi = idx[between]
    theta = ((times[between] - saved[hi - 1]) / (saved[hi] - saved[hi - 1]))[:, None]
    full[between, 1:-1] = (1.0 - theta) * sol.u[hi - 1] + theta * sol.u[hi]
    left = np.clip(np.searchsorted(x_full, x_target, side="right") - 1, 0, len(x_full) - 2)
    offset = x_target - x_full[left]
    slope = (full[:, left + 1] - full[:, left]) / (x_full[left + 1] - x_full[left])
    return np.where(offset == 0.0, full[:, left], slope * offset + full[:, left])


def mode_decay_diagnostic(
    sol_a: SolutionField,
    sol_b: SolutionField,
    n_modes: int,
) -> ModeDecayReport:
    """Projection magnitudes of w = u_a - u_b onto the first Dirichlet
    eigenmodes, over the coarser solution's saved times.  The modes,
    normalized in the discrete L2 norm, are the rows of the solver's sine
    table divided by sqrt(h).

    The two solves must share the domain and the final time (scheme and
    resolution may differ; the finer solution is interpolated to the
    coarser grid).  As both resolutions are refined every mode series
    shrinks toward zero, mirroring the argument that forces the
    projections of a difference of two solutions to vanish identically.
    """
    ga, gb = sol_a.grid, sol_b.grid
    if (ga.a, ga.b) != (gb.a, gb.b):
        raise ConfigurationError("solutions live on incompatible domains")
    ta, tb = sol_a.times[-1], sol_b.times[-1]
    if abs(ta - tb) > 1e-12 * max(abs(ta), abs(tb)):
        raise ConfigurationError(f"solutions cover incompatible time spans, to {ta} and {tb}")
    coarse, fine = (sol_a, sol_b) if ga.n_interior <= gb.n_interior else (sol_b, sol_a)
    times = coarse.times if len(coarse.times) <= len(fine.times) else fine.times
    grid = coarse.grid
    if not 1 <= n_modes <= grid.n_interior:
        raise ValueError(f"{n_modes} modes requested, the grid resolves at most {grid.n_interior}")
    diffs = _values_at(sol_a, grid.x, times) - _values_at(sol_b, grid.x, times)
    sines, _ = _sine_basis(grid)
    mags = np.abs(np.sqrt(grid.h) * _to_modes(diffs, sines)[:, :n_modes])
    return ModeDecayReport(times=np.asarray(times, dtype=float).copy(), magnitudes=mags.T)

"""Time marching for the 1-D viscoelastic displacement problem.

Two schemes advance the displacement u(x, t) with homogeneous Dirichlet
boundaries, initial data u0, u1 and forcing f:

* ``integral`` -- marches the integrated-kernel form

      u(t) = int_0^t K(t - tau) u_xx(tau) dtau + u1*t + u0
             + int_0^t dtau int_0^tau f,

  with product-trapezoid quadrature for the memory term.  Because
  K(0) = 0 the newest history node carries zero weight, so every step is
  explicit.  Only K (never dG/dt) is consulted: the scheme is valid for
  merely continuous kernels and needs no special casing at kinks.

* ``differential`` -- explicit central differences in time for

      u_tt = G(0) u_xx + int_0^t Gdot(t - tau) u_xx(tau) dtau + f,

  valid when dG/dt exists a.e.; requires the CFL bound
  dt <= 0.9 h / sqrt(G(0)).  The history quadrature splits the trapezoid
  panel that straddles a kink of dG/dt, using one-sided kernel limits and
  a linearly interpolated history value, which restores second order.

Both schemes are linear in the data, store the full history (the memory
term needs it anyway) and save snapshots at a configurable stride.

Both sum their memory term, and the energy diagnostics their history lag
sums, with one blocked engine (``_memory_sums``, the first level of the
Toeplitz splitting of Hairer, Lubich and Schlichte, SIAM J. Sci. Stat.
Comput. 6, 1985): for a block of HISTORY_BLOCK steps the history written
before the block ("far") is one matrix product, and only the newer rows
("near") are summed step by step.  The weights are those of the direct
sum.  The far product runs over history chunks of fixed length in a fixed
order, on rows padded to a multiple of 8 columns, so the bytes do not
depend on the BLAS thread count.  Non-finite values are looked for once
per block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import expressions
from .grids import Grid, laplacian_values
from .kernels import (
    DerivativeUndefinedError,
    IntegratedKernel,
    RelaxationKernel,
)

CFL_SAFETY = 0.9

SCHEMES = ("integral", "differential")


class ConfigurationError(ValueError):
    """Problem specification that cannot be solved as stated."""


class UnsupportedKernelError(ValueError):
    """Kernel lacks the derivatives the differential scheme needs."""


class SolverDivergenceError(ArithmeticError):
    """Non-finite values appeared during time stepping."""


def _parse_data(source: str, allowed: set[str], what: str):
    expr = expressions.parse(source)
    extra = expressions.variables(expr) - allowed
    if extra:
        raise ConfigurationError(
            f"{what} may only use {sorted(allowed) or 'constants'}, "
            f"found {sorted(extra)}"
        )
    return expr


def _sample_x(expr, x: np.ndarray) -> np.ndarray:
    return expressions.evaluate(expr, x=x)


@dataclass
class ProblemSpec:
    """Everything a solve needs: domain, horizon, data, kernel, scheme.

    ``u0`` and ``u1`` are expression strings in ``x``; ``f`` in ``x`` and
    ``t``.  For the differential scheme the CFL condition is verified here,
    before any stepping.  ``save_stride`` keeps every k-th step in the
    returned solution (it must divide ``n_steps``).
    """

    grid: Grid
    horizon: float
    n_steps: int
    kernel: RelaxationKernel
    u0: str = "0"
    u1: str = "0"
    f: str = "0"
    scheme: str = "integral"
    save_stride: int = 1

    def __post_init__(self):
        if not 0.0 < self.horizon < np.inf:  # also fails for NaN
            raise ConfigurationError(
                f"horizon must be finite and positive, got {self.horizon}"
            )
        if self.n_steps < 2:
            raise ConfigurationError("need at least 2 time steps")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; choose one of {SCHEMES}"
            )
        if self.save_stride < 1 or self.n_steps % self.save_stride:
            raise ConfigurationError("save_stride must divide n_steps")
        self.u0_expr = _parse_data(self.u0, {"x"}, "u0")
        self.u1_expr = _parse_data(self.u1, {"x"}, "u1")
        self.f_expr = _parse_data(self.f, {"x", "t"}, "f")
        if self.scheme == "differential":
            limit = cfl_limit(self.kernel, self.grid)
            if self.dt > limit:
                raise ConfigurationError(
                    f"CFL violation: dt = {self.dt:.6g} exceeds "
                    f"{CFL_SAFETY} * h / sqrt(G(0)) = {limit:.6g}"
                )

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


def cfl_limit(kernel: RelaxationKernel, grid: Grid) -> float:
    """Largest stable dt for the explicit differential scheme."""
    return CFL_SAFETY * grid.h / float(np.sqrt(kernel.g(0.0)))


@dataclass
class SolutionField:
    """Saved trajectory of a solve: u (and, for the differential scheme,
    u_t) on the interior nodes at the saved times.  Boundary values are
    structurally zero and not stored."""

    spec: ProblemSpec
    times: np.ndarray
    u: np.ndarray                      # (n_saved, n_interior)
    v: np.ndarray | None = None        # velocities, differential scheme
    meta: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.spec.grid


def solve(spec: ProblemSpec) -> SolutionField:
    """Dispatch on ``spec.scheme``."""
    if spec.scheme == "differential":
        return solve_differential(spec)
    return solve_integral(spec)


# ---------------------------------------------------------------------------
# forcing helpers
# ---------------------------------------------------------------------------

def _forcing_rows(spec: ProblemSpec, tgrid: np.ndarray) -> np.ndarray | None:
    """f sampled as (step, node), or None when f is the literal 0."""
    if expressions.is_zero(spec.f_expr):
        return None
    return expressions.evaluate(spec.f_expr, x=spec.grid.x[None, :], t=tgrid[:, None])


def _double_time_integral(fvals: np.ndarray | None, dt: float, shape) -> np.ndarray | None:
    """int_0^{t_n} dtau int_0^tau f, per node, by iterated trapezoid."""
    if fvals is None:
        return None
    first = np.zeros(shape)
    first[1:] = np.cumsum(0.5 * dt * (fvals[1:] + fvals[:-1]), axis=0)
    second = np.zeros(shape)
    second[1:] = np.cumsum(0.5 * dt * (first[1:] + first[:-1]), axis=0)
    return second


def _check_finite(u: np.ndarray, first: int, last: int, tgrid: np.ndarray,
                  scheme: str) -> None:
    """Raise at the first of the steps first .. last whose row of u is not
    finite; the solvers check once per block of the memory sum."""
    finite = np.isfinite(u[first : last + 1]).all(axis=1)
    if not finite.all():
        step = first + int(np.argmin(finite))
        raise SolverDivergenceError(
            f"{scheme} scheme produced non-finite values at step {step} "
            f"(t = {tgrid[step]:.6g}); max |u| at previous step may have overflowed"
        )


# ---------------------------------------------------------------------------
# memory-term quadrature (shared by the solvers and the energy diagnostics)
# ---------------------------------------------------------------------------

#: steps per block of the memory sum, and history rows per chunk of the
#: block's far product: one BLAS product over more than ~300 rows rounds
#: differently at 1 and 2 threads
HISTORY_BLOCK = 32
_FAR_CHUNK = 256


def _engine_rows(n_rows: int, width: int) -> np.ndarray:
    """Zero rows for :func:`_memory_sums`, *width* columns plus zero columns
    up to a multiple of 8: the far product rounds alike at 1 and 2 OpenBLAS
    threads for such widths, but not for most others above ~190."""
    return np.zeros((n_rows, width + (-width % 8)))


def _memory_sums(rows: np.ndarray, wl: np.ndarray, stop: int):
    """Yield (n, sum_{m<n} w_m wl[n - m] rows[m]) for n = 1 .. stop-1, with
    w_0 = 1/2 and every other w_m = 1, in blocks of far and near rows (see
    the module docstring).  The rows hold Laplacians or u_x; the caller
    fills rows[n - 1] before it asks for step n."""
    for n0 in range(1, stop, HISTORY_BLOCK):
        n1 = min(n0 + HISTORY_BLOCK, stop)
        lags = np.arange(n0, n1)[:, None]
        far = np.zeros((n1 - n0, rows.shape[1]))
        for lo in range(0, n0, _FAR_CHUNK):
            hi = min(lo + _FAR_CHUNK, n0)
            w = wl[lags - np.arange(lo, hi)]
            if lo == 0:
                w[:, 0] *= 0.5
            far += w @ rows[lo:hi]
        for n in range(n0, n1):
            yield n, far[n - n0] + wl[n - n0 : 0 : -1] @ rows[n0:n]


def _kink_split(q: np.ndarray, lap_hist: np.ndarray, kinks, n: int, dt: float,
                gd: np.ndarray) -> np.ndarray:
    """Correct the trapezoid q for int_0^{t_n} Gdot(t_n - tau) lap_u(tau)
    dtau on the panels that straddle a kink of Gdot, splitting them there.
    *kinks* holds (c, left limit, right limit of Gdot at c) per kink."""
    tn = n * dt
    for c, g_minus, g_plus in kinks:
        tau_star = tn - c
        if tau_star <= 0.0 or tau_star >= tn:
            continue
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


# ---------------------------------------------------------------------------
# the two schemes
# ---------------------------------------------------------------------------

def solve_integral(spec: ProblemSpec) -> SolutionField:
    """March the integrated-kernel form; explicit, no CFL restriction.

    Aborts with :class:`SolverDivergenceError` if non-finite values
    appear (the scheme is computable for any dt, not unconditionally
    accurate)."""
    started = time.perf_counter()
    grid, dt = spec.grid, spec.dt
    nx, n_steps = grid.n_interior, spec.n_steps
    tgrid = dt * np.arange(n_steps + 1)

    k_table = IntegratedKernel(spec.kernel)
    kvals = k_table.cumulative(tgrid)
    u0v = _sample_x(spec.u0_expr, grid.x)
    u1v = _sample_x(spec.u1_expr, grid.x)
    forcing = _double_time_integral(
        _forcing_rows(spec, tgrid), dt, (n_steps + 1, nx)
    )

    u = np.zeros((n_steps + 1, nx))
    lap_hist = _engine_rows(n_steps + 1, nx)
    lap = lap_hist[:, :nx]  # the Laplacians; the padding columns stay zero
    u[0] = u0v
    lap[0] = laplacian_values(u0v, grid.h)
    # a blown-up run is reported through the explicit finite check, so the
    # transient overflow warnings on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        for n, memory in _memory_sums(lap_hist, dt * kvals, n_steps + 1):
            un = memory[:nx] + u1v * tgrid[n] + u0v
            if forcing is not None:
                un = un + forcing[n]
            u[n] = un
            lap[n] = laplacian_values(un, grid.h)
            if n % HISTORY_BLOCK == 0 or n == n_steps:  # the block ends
                _check_finite(u, n - (n - 1) % HISTORY_BLOCK, n, tgrid, "integral")

    s = spec.save_stride
    return SolutionField(
        spec=spec,
        times=tgrid[::s].copy(),
        u=u[::s].copy(),
        v=None,
        meta={
            "scheme": "integral",
            "dt": dt,
            "h": grid.h,
            "kernel": spec.kernel.describe(),
            "memory_quadrature": "product trapezoid on K, blocked far/near sum",
            "kernel_quadrature": k_table.method,
            "elapsed_s": time.perf_counter() - started,
        },
    )


def solve_differential(spec: ProblemSpec) -> SolutionField:
    """March the second-order-in-time explicit scheme; needs dG/dt and the
    CFL bound dt <= 0.9 h / sqrt(G(0))."""
    started = time.perf_counter()
    grid, dt = spec.grid, spec.dt
    nx, n_steps = grid.n_interior, spec.n_steps
    limit = cfl_limit(spec.kernel, grid)
    if dt > limit:
        raise ConfigurationError(
            f"CFL violation: dt = {dt:.6g} exceeds {CFL_SAFETY} * h / sqrt(G(0)) "
            f"= {limit:.6g}"
        )
    tgrid = dt * np.arange(n_steps + 1)
    g_zero = float(spec.kernel.g(0.0))
    try:
        gd = np.atleast_1d(spec.kernel.gdot(tgrid, kink_policy="left"))
    except DerivativeUndefinedError as exc:
        raise UnsupportedKernelError(
            f"differential scheme needs dG/dt a.e.; {spec.kernel.describe()} "
            f"cannot provide it: {exc}"
        ) from exc

    kinks = [(c, *spec.kernel.gdot_limits(c)) for c in spec.kernel.kink_times]
    u0v = _sample_x(spec.u0_expr, grid.x)
    u1v = _sample_x(spec.u1_expr, grid.x)
    fvals = _forcing_rows(spec, tgrid)

    def f_at(n: int) -> float | np.ndarray:
        return 0.0 if fvals is None else fvals[n]

    u = np.zeros((n_steps + 1, nx))
    lap_hist = _engine_rows(n_steps + 1, nx)
    lap = lap_hist[:, :nx]  # the Laplacians; the padding columns stay zero
    u[0] = u0v
    lap[0] = laplacian_values(u0v, grid.h)
    # Taylor startup, second-order consistent
    u[1] = u0v + dt * u1v + 0.5 * dt * dt * (g_zero * lap[0] + f_at(0))
    lap[1] = laplacian_values(u[1], grid.h)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, memory in _memory_sums(lap_hist, dt * gd, n_steps):
            q = memory[:nx] + 0.5 * dt * gd[0] * lap[n]  # the lag-0 node
            q = _kink_split(q, lap, kinks, n, dt, gd)
            u[n + 1] = 2.0 * u[n] - u[n - 1] + dt * dt * (g_zero * lap[n] + q + f_at(n))
            lap[n + 1] = laplacian_values(u[n + 1], grid.h)
            if n % HISTORY_BLOCK == 0 or n == n_steps - 1:  # the block ends
                _check_finite(u, n - (n - 1) % HISTORY_BLOCK + 1, n + 1, tgrid,
                              "differential")

    # velocities: exact initial data, central differences inside, one-sided
    # at the final step
    v = np.empty_like(u)
    v[0] = u1v
    v[1:-1] = (u[2:] - u[:-2]) / (2.0 * dt)
    v[-1] = (u[-1] - u[-2]) / dt

    s = spec.save_stride
    return SolutionField(
        spec=spec,
        times=tgrid[::s].copy(),
        u=u[::s].copy(),
        v=v[::s].copy(),
        meta={
            "scheme": "differential",
            "dt": dt,
            "h": grid.h,
            "kernel": spec.kernel.describe(),
            "memory_quadrature": "trapezoid on Gdot, kink-split panels, blocked far/near sum",
            "cfl_limit": limit,
            "elapsed_s": time.perf_counter() - started,
        },
    )


# ---------------------------------------------------------------------------
# space-time norms and manufactured reference problems
# ---------------------------------------------------------------------------

def _l2_space_time(grid: Grid, times: np.ndarray, values: np.ndarray) -> float:
    """L2 norm over (a, b) x (t_0, t_end): trapezoid in both directions,
    with the zero boundary columns implied."""
    space = grid.h * np.sum(values * values, axis=1)
    if len(times) == 1:
        return float(np.sqrt(space[0]))
    dts = np.diff(times)
    w = np.zeros(len(times))
    w[:-1] += 0.5 * dts
    w[1:] += 0.5 * dts
    return float(np.sqrt(w @ space))


def l2_norm(sol: SolutionField) -> float:
    return _l2_space_time(sol.grid, sol.times, sol.u)


def l2_distance(sol_a: SolutionField, sol_b: SolutionField) -> float:
    """Space-time L2 distance of two solves on identical grid and times."""
    if sol_a.grid != sol_b.grid:
        raise ConfigurationError("solutions live on different grids")
    if sol_a.u.shape != sol_b.u.shape or np.max(np.abs(sol_a.times - sol_b.times)) > 1e-12:
        raise ConfigurationError("solutions saved at different times")
    return _l2_space_time(sol_a.grid, sol_a.times, sol_a.u - sol_b.u)


def l2_error_vs(sol: SolutionField, exact) -> float:
    """Space-time L2 distance to ``exact(x_array, t) -> array``."""
    diff = np.asarray([sol.u[k] - exact(sol.grid.x, float(t)) for k, t in enumerate(sol.times)])
    return _l2_space_time(sol.grid, sol.times, diff)


@dataclass(frozen=True)
class ManufacturedProblem:
    """Closed-form reference problem: data strings plus the exact field."""

    u0: str
    u1: str
    f: str
    kernel: RelaxationKernel
    exact: object  # callable (x_array, t) -> array

    def spec(self, grid: Grid, horizon: float, n_steps: int, scheme: str,
             save_stride: int = 1) -> ProblemSpec:
        return ProblemSpec(
            grid=grid,
            horizon=horizon,
            n_steps=n_steps,
            kernel=self.kernel,
            u0=self.u0,
            u1=self.u1,
            f=self.f,
            scheme=scheme,
            save_stride=save_stride,
        )


def manufactured_prony(kernel, a: float = 0.0, b: float = 1.0) -> ManufacturedProblem:
    """Standing-mode exact solution u*(x, t) = sin(mu (x-a)) cos(t) for an
    exponential-series kernel, with the forcing that makes u* solve the
    viscoelastic equation.

    The memory convolution of cos(t) against each exponential mode has the
    closed form ((1/tau) cos t + sin t - (1/tau) e^{-t/tau}) * tau^2/(1+tau^2)
    scaled per term, so f reduces to a finite combination of cos, sin and
    decaying exponentials.  Both schemes can be checked against ``exact``.
    """
    from .kernels import PronyKernel

    if not isinstance(kernel, PronyKernel):
        raise ConfigurationError("manufactured problem needs a Prony kernel")
    length = b - a
    mu = np.pi / length
    g_zero = float(kernel.g(0.0))
    a_cos = -1.0 + mu * mu * g_zero
    b_sin = 0.0
    exp_terms: list[tuple[float, float]] = []  # (coefficient, rate)
    for g_i, tau_i in kernel.terms:
        k_i = 1.0 / tau_i
        a_cos -= mu * mu * g_i * k_i * k_i / (k_i * k_i + 1.0)
        b_sin -= mu * mu * g_i * k_i / (k_i * k_i + 1.0)
        exp_terms.append((mu * mu * g_i * k_i * k_i / (k_i * k_i + 1.0), k_i))

    shape = f"sin(({mu!r})*(x-({a!r})))"
    parts = [f"({a_cos!r})*cos(t)", f"({b_sin!r})*sin(t)"]
    parts += [f"({c!r})*exp(-({k!r})*t)" for c, k in exp_terms]
    f_src = f"{shape}*({' + '.join(parts)})"

    def exact(x: np.ndarray, t: float) -> np.ndarray:
        return np.sin(mu * (x - a)) * np.cos(t)

    return ManufacturedProblem(u0=shape, u1="0", f=f_src, kernel=kernel, exact=exact)

"""Time marching for the 1-D viscoelastic displacement problem.

Two schemes advance the displacement u(x, t) with homogeneous Dirichlet
boundaries, initial data u0, u1 and forcing f:

* ``integral`` -- marches the integrated-kernel form

      u(t) = int_0^t K(t - tau) u_xx(tau) dtau + u1*t + u0
             + int_0^t dtau int_0^tau f,

  with product-trapezoid quadrature for the memory term.  Because
  K(0) = 0 the newest history node carries zero weight, so every step is
  explicit; as K(t) ~ G(0) t near 0, it is stable for
  dt <= 2 / sqrt(lam_max G(0)), lam_max below.  Only K (never dG/dt) is
  consulted: the scheme is valid for merely continuous kernels and needs
  no special casing at kinks.

* ``differential`` -- explicit central differences in time for

      u_tt = G(0) u_xx + int_0^t Gdot(t - tau) u_xx(tau) dtau + f,

  valid when dG/dt exists a.e.; requires the CFL bound
  dt <= 0.9 h / sqrt(G(0)).  The history quadrature splits the trapezoid
  panel that straddles a kink of dG/dt, using one-sided kernel limits and
  a linearly interpolated history value, which restores second order.
  The panel sits at the same lags at every step, so the split lives in
  the lag weights, set once per solve (``_gdot_weights``).

Both schemes are linear in the data and run one march (``_March``) on one
array of rows, the history in the sine basis, which is the solution a
solve returns: :class:`SolutionField` keeps the coefficient rows and makes
the nodal values only when they are asked for.  A scheme gives the march
its lag weights and the data of each row after row 0 (u0).

The march runs in the orthonormal sine basis (the DST-I), whose vectors
are exact eigenvectors of the three-point Laplacian with eigenvalues
-lam_k, lam_k = (4/h^2) sin^2(k pi / (2(nx + 1))).  The same table
(``_sine_basis``, made once per grid and read-only) also gives a
solution's nodal values, the energy module's mode decay diagnostic and,
through lam, its three-point energy.  In the basis each mode is a scalar
Volterra recurrence, and the rows are advanced HISTORY_BLOCK steps at a
time (the first level of the Toeplitz splitting of Hairer, Lubich and
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985):

* the history written before the block ("far") is one matrix product over
  the modal rows (``_far_sums``, which the energy diagnostics share for
  their history lag sums);
* the rows inside the block solve, per mode, a unit lower-triangular
  Toeplitz system, in two halves of SOLVE_BLOCK steps (the same splitting
  one level down): the second half takes the first through one fixed
  Toeplitz table of lags 1 .. 31, the same for every mode, and each half
  is one batched product with the inverse of the half's own system, which
  is again Toeplitz; its first column comes from a SOLVE_BLOCK-term
  recurrence once per solve (``_block_inverses``);
* each half is checked for non-finite values before the next one.

As the DST-I is orthonormal, a row's sum of squares is the same on the
nodes and in the basis (Parseval), so the space-time norms and distances
(``l2_norm``, ``l2_distance``) read the coefficients and never the nodes.

The differential form is the integral one differentiated twice in time,
and its march is the integral march: its second-difference recurrence
x_t - 2 x_{t-1} + x_{t-2} + mu (memory of step t - 1) = dt^2 f_{t-1},
summed twice from row 2, reads x_t + mu (memory on the lag weights summed
twice) = x_1 + (t - 1)(x_1 - x_0) + its forcing and a row-0 term, both
summed twice.  So one block form serves both schemes.

A kernel's declared structure offers the far sums lag pieces, ranges of
lags on which the weights are a polynomial of degree at most 2: up to the
lag J = floor(a/dt) for a kernel affine on [0, a] (``affine_until``), where
the weights on K are quadratic and the twice-summed weights on Gdot too,
and from the lag p = ceil(c/dt) + 1 on for a kernel constant after c
(``constant_after``), where both are affine.  One gate (``_lag_pieces``)
takes an offered range only where the scheme's own weights meet the
quadratic read off them on every lag of it, so a wrong declaration costs
time, never correctness.  The rows whose lags lie in a piece enter through
three running sums; only the rows between the pieces and the newest ones
stay in the product.

Data are checked before the first block: u0, u1 or their sine coefficients
that are not finite are reported at step 0, the forcing's share of a row
at its own step.  A solve whose arrays would not fit in physical memory is
refused from its shapes before anything is made (``check_size``).

Every product over the history, the sine table or the forcing runs over
chunks of fixed length in a fixed order on rows padded to a multiple of 8
columns, and the batched block solves are small per mode, so the bytes do
not depend on the BLAS thread count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import expressions
from .grids import Grid
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
    try:
        return expressions.parse(source, allowed)
    except expressions.ParseError as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc


def _sample_x(expr, x: np.ndarray) -> np.ndarray:
    return expressions.evaluate(expr, x=x)


@dataclass
class ProblemSpec:
    """Everything a solve needs: domain, horizon, data, kernel, scheme.

    ``u0`` and ``u1`` are expression strings in ``x``; ``f`` in ``x`` and
    ``t``.  The scheme's stability bound (for the differential scheme the
    CFL condition) is verified here, before any stepping.  ``save_stride``
    keeps every k-th step in the returned solution (it must divide
    ``n_steps``).
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
        check_size(self.grid.n_interior, self.n_steps, not expressions.is_zero(self.f_expr))
        if self.scheme == "differential":
            _check_cfl(self)
        else:
            _check_stability(self)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


def check_size(n_interior: int, n_steps: int, forced: bool) -> None:
    """ConfigurationError if the arrays of a solve would not fit in physical
    memory, judged from their shapes before anything is made: the array of
    rows (:meth:`_March.run`), the forcing's rows, the sine table and the
    per-mode inverses of a half block (nx x SOLVE_BLOCK^2)."""
    width = _padded(n_interior)
    need = 8 * ((1 + forced) * (n_steps + 1) * width + width * width
                + n_interior * SOLVE_BLOCK**2)
    check_memory(need, f"a solve with {n_interior} interior nodes and {n_steps} steps")


def check_memory(need: float, what: str) -> None:
    """ConfigurationError if *need* bytes, the arrays of *what* judged from
    their shapes before anything is made, exceed physical memory; nothing
    where that figure is unknown."""
    try:
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no such figure here
        return
    if need > ram:
        raise ConfigurationError(
            f"{what} needs {need / 2**30:.3g} GiB, more than the {ram / 2**30:.3g} GiB of memory")


def cfl_limit(kernel: RelaxationKernel, grid: Grid) -> float:
    """Largest stable dt for the explicit differential scheme."""
    return CFL_SAFETY * grid.h / float(np.sqrt(kernel.g(0.0)))


def _check_cfl(spec: ProblemSpec) -> float:
    """The CFL limit of *spec*, or ConfigurationError if its dt exceeds it."""
    limit = cfl_limit(spec.kernel, spec.grid)
    if spec.dt > limit:
        raise ConfigurationError(
            f"CFL violation: dt = {spec.dt:.6g} exceeds {CFL_SAFETY} * h / sqrt(G(0)) "
            f"= {limit:.6g}"
        )
    return limit


def _check_stability(spec: ProblemSpec) -> float:
    """The integral scheme's stability limit 2 / sqrt(lam_max G(0)) (inf for
    G(0) = 0), or ConfigurationError if the spec's dt exceeds it.  Near lag
    0, K(t) ~ G(0) t, so mode k marches like the leapfrog recurrence
    x_{n+1} - 2 x_n + x_{n-1} = -lam_k dt^2 G(0) x_n, which is stable iff
    dt <= 2 / sqrt(lam_max G(0))."""
    nx = spec.grid.n_interior
    lam_max = (4.0 / spec.grid.h**2) * np.sin(0.5 * np.pi * nx / (nx + 1)) ** 2
    g_zero = float(spec.kernel.g(0.0))
    limit = 2.0 / np.sqrt(lam_max * g_zero) if g_zero > 0.0 else np.inf
    if spec.dt**2 * lam_max * g_zero > 4.0:
        raise ConfigurationError(
            f"stability violation: dt = {spec.dt:.6g} exceeds 2 / sqrt(lam_max G(0)) "
            f"= {limit:.6g} for the integral scheme"
        )
    return float(limit)


@dataclass
class SolutionField:
    """Saved trajectory of a solve: the sine coefficients of u at the saved
    times (``modes``, the march's rows with their zero padding) and u0
    sampled on the nodes.  The nodal values (:attr:`u`) are made from them
    when asked for; norms, distances, the energy audit and the velocities
    (:func:`energy.reconstruct_velocities`) need only the coefficients."""

    spec: ProblemSpec
    times: np.ndarray
    modes: np.ndarray                  # (n_saved, padded width)
    u0: np.ndarray                     # (n_interior,)
    meta: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.spec.grid

    def nodal_chunks(self):
        """Yield (lo, the nodal rows from lo on) in order, the coefficient
        rows times the sine table a chunk at a time (:func:`_row_chunks`),
        with row 0 set to u0 as sampled."""
        sines, _ = _sine_basis(self.grid)
        for rows in _row_chunks(len(self.modes)):
            chunk = _product(self.modes[rows], sines)[:, : self.grid.n_interior]
            if rows.start == 0:
                chunk[0] = self.u0
            yield rows.start, chunk

    @cached_property
    def u(self) -> np.ndarray:
        """u on the interior nodes, (n_saved, n_interior), made once; the
        first row that is not finite raises :class:`SolverDivergenceError`."""
        u = np.empty((len(self.modes), self.grid.n_interior))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, rows in self.nodal_chunks():
                u[lo : lo + len(rows)] = rows
        _check_finite(u, 1, len(u) - 1, self.times, self.meta["scheme"])
        return u


def solve(spec: ProblemSpec) -> SolutionField:
    """Dispatch on ``spec.scheme``."""
    if spec.scheme == "differential":
        return solve_differential(spec)
    return solve_integral(spec)


# ---------------------------------------------------------------------------
# data, forcing and the finite check
# ---------------------------------------------------------------------------

def _forcing_rows(spec: ProblemSpec, tgrid: np.ndarray) -> np.ndarray | None:
    """f sampled as (step, node), or None when f is the literal 0."""
    if expressions.is_zero(spec.f_expr):
        return None
    return expressions.evaluate(spec.f_expr, x=spec.grid.x[None, :], t=tgrid[:, None])


def _double_time_integral(rows: np.ndarray, dt: float) -> np.ndarray:
    """int_0^{t_n} dtau int_0^tau f per column, by iterated trapezoid, in
    place of the rows of f."""
    for _ in range(2):
        panels = 0.5 * dt * rows[1:] + 0.5 * dt * rows[:-1]  # no overflow in the sum
        rows[0] = 0.0
        np.cumsum(panels, axis=0, out=rows[1:])
    return rows


def _check_finite(u: np.ndarray, first: int, last: int, tgrid: np.ndarray,
                  scheme: str, cause: str = "max |u| at previous step may have overflowed",
                  ) -> None:
    """Raise at the first of the steps first .. last whose row of u is not
    finite; the march checks its data before the first block, and the
    nodal rows of a solution are checked when they are made."""
    finite = np.isfinite(u[first : last + 1]).all(axis=1)
    if not finite.all():
        step = first + int(np.argmin(finite))
        raise SolverDivergenceError(
            f"{scheme} scheme produced non-finite values at step {step} "
            f"(t = {tgrid[step]:.6g}); {cause}"
        )


# ---------------------------------------------------------------------------
# the sine basis and the far sums (shared by the march and the energy
# diagnostics)
# ---------------------------------------------------------------------------

#: steps per block of the march, and columns per chunk of the contracted axis
#: of a product: one BLAS product over more than ~300 of them rounds
#: differently at 1 and 2 threads
HISTORY_BLOCK = 32
#: steps per batched solve: a block solves in two halves, with a per-mode
#: inverse table (nx x 16 x 16) a quarter of a whole block's; at 256 modes the
#: two half solves take less time than one whole, likely as the smaller table
#: stays in a core's L2 cache beside the rows
SOLVE_BLOCK = 16
_FAR_CHUNK = 256
#: rows per chunk of a basis transform or a norm: few enough calls that
#: their overhead does not show, and a chunk's temporaries stay small
ROW_CHUNK = 256


def _padded(width: int) -> int:
    """*width* rounded up to a multiple of 8: the chunked products round
    alike at 1 and 2 OpenBLAS threads on such widths, but not on most
    others above ~190."""
    return width + (-width % 8)


def _engine_rows(n_rows: int, width: int) -> np.ndarray:
    """Zero rows for :func:`_far_sums`, *width* columns plus zero padding."""
    return np.zeros((n_rows, _padded(width)))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, summed over fixed chunks of the contracted axis."""
    out = a[:, :_FAR_CHUNK] @ b[:_FAR_CHUNK]
    for lo in range(_FAR_CHUNK, a.shape[1], _FAR_CHUNK):
        out += a[:, lo : lo + _FAR_CHUNK] @ b[lo : lo + _FAR_CHUNK]
    return out


@lru_cache(maxsize=2)
def _sine_basis(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(sines, lam): the orthonormal DST-I as a symmetric table padded with
    zeros to the engine width, and the eigenvalues of minus the three-point
    Laplacian, lam_k = (4/h^2) sin^2(k pi / (2(nx + 1))), zero past nx.  A
    row of nodal values times the table gives its sine coefficients, and
    the same product turns them back.  Both are read-only, and made once
    for the last two grids asked for."""
    nx = grid.n_interior
    sines = _engine_rows(_padded(nx), nx)
    table = sines[:nx, :nx]
    k = np.arange(1, nx + 1, dtype=float)
    np.outer(k, k, out=table)
    np.remainder(table, 2 * (nx + 1), out=table)  # jk mod 2(nx + 1): exact arguments
    table *= np.pi / (nx + 1)
    np.sin(table, out=table)
    table *= np.sqrt(2.0 / (nx + 1))
    lam = np.zeros(len(sines))
    lam[:nx] = (4.0 / grid.h**2) * np.sin(0.5 * np.pi / (nx + 1) * k) ** 2
    sines.setflags(write=False)
    lam.setflags(write=False)
    return sines, lam


def _row_chunks(stop: int):
    """Slices of the rows 0 .. stop - 1 for a basis transform either way (to
    the sine coefficients and back to the nodes), ROW_CHUNK rows each.  A
    one-row product rounds differently from the same row in a longer one,
    so a last row left alone joins the slice before it: a row's transform
    then does not depend on how many rows follow it, and a strided
    solution's nodal rows are those of the full one."""
    starts = list(range(0, stop, ROW_CHUNK))
    if len(starts) > 1 and stop - starts[-1] == 1:
        starts.pop()
    yield from (slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [stop]))


def _to_modes(values: np.ndarray, sines: np.ndarray) -> np.ndarray:
    """Sine coefficients of the rows of *values*, in the chunks of rows of
    :func:`_row_chunks`, as the nodal values are made."""
    out = np.zeros((len(values), len(sines)))
    out[:, : values.shape[1]] = values
    for rows in _row_chunks(len(out)):
        out[rows] = _product(out[rows], sines)
    return out


def _quadratic(wl: np.ndarray, lo: int, hi: int):
    """(q, q', c2): the quadratic through wl at lo, mid = (lo + hi) // 2 and
    hi, in Newton form q(j) = wl[lo] + (j - lo)(d1 + c2 (j - mid)), and its
    derivative, tabulated on every lag of wl."""
    mid = (lo + hi) // 2
    d1 = (wl[mid] - wl[lo]) / (mid - lo)
    c2 = ((wl[hi] - wl[mid]) / (hi - mid) - d1) / (hi - lo)
    j = np.arange(float(len(wl)))
    return wl[lo] + (j - lo) * (d1 + c2 * (j - mid)), d1 + c2 * (2.0 * j - lo - mid), c2


#: the share of max |wl| by which the weights may miss a piece's quadratic
#: on a lag of its range (roundoff reaches 3.5e-15 on every declared piece)
PIECE_FIT = 1e-13


def _lag_pieces(kernel: RelaxationKernel, dt: float, wl: np.ndarray, first: int = 0):
    """(pieces, note): the lag pieces of :func:`_far_sums` on the weights
    *wl*, and the memory quadrature note that names them.  The kernel offers
    the head [first, J], J = floor(a/dt), for G affine on [0, a] when J spans
    at least two blocks, and the tail [ceil(c/dt) + 1, last lag] for G
    constant after c.  A range is taken when it has more than HISTORY_BLOCK
    lags up to the last lag (a shorter one saves nothing), starts after the
    range taken before it, and wl meets its :func:`_quadratic` on every lag
    of it to PIECE_FIT of max |wl|."""
    a, c, last = kernel.affine_until, kernel.constant_after, len(wl) - 1
    offered = []
    if a is not None and a / dt >= 2 * HISTORY_BLOCK:
        offered.append(("head", first, int(np.floor(a / dt))))
    if c is not None:
        offered.append(("tail", int(np.ceil(c / dt)) + 1, last))
    tol, end, taken = PIECE_FIT * np.max(np.abs(wl)), -1, {}
    for name, lo, hi in offered:
        top = min(hi, last)
        if top - lo >= HISTORY_BLOCK and lo > end and np.all(
                np.abs(_quadratic(wl, lo, top)[0][lo : top + 1] - wl[lo : top + 1]) <= tol):
            taken[name], end = (lo, hi), top
    head, tail = taken.get("head"), taken.get("tail")
    return list(taken.values()), ", ".join((
        "no head" if head is None else f"running sums on the affine head to lag {head[1]}",
        "no tail" if tail is None else f"affine tail from lag {tail[0]}"))


def _piece_sums(rows: np.ndarray, wl: np.ndarray, first: int, stop: int, lo: int, hi: int):
    """For :func:`_far_sums`: per block s, the rows [a, b) whose lags all lie
    in the piece [lo, hi], and their share of far.  q and q'
    (:func:`_quadratic`) are tabulated on every lag, so that a row leaves
    the sums with what it holds after the shifts; the table runs from the
    last lag down, so the rows entering or leaving at a block take one
    slice of it.  A piece whose weights are all zero runs the same sums,
    and its share is exact zeros."""
    q, dq, c2 = _quadratic(wl, lo, hi)
    table = np.stack([q, dq, np.ones(len(wl))])[:, ::-1].copy()
    last = len(wl) - 1
    i = np.arange(float(HISTORY_BLOCK))
    spread = np.stack([np.ones(HISTORY_BLOCK), i, c2 * i * i], axis=1)
    sums = np.zeros((3, rows.shape[1]))
    a = b = 0
    s_prev = first
    for s in range(first, stop, HISTORY_BLOCK):
        n = min(HISTORY_BLOCK, stop - s)
        new_a, new_b = max(s + n - 1 - hi, 0), max(s + 1 - max(lo, 1), 0)
        d = s - s_prev
        sums[0] += d * sums[1] + c2 * d * d * sums[2]
        sums[1] += 2.0 * c2 * d * sums[2]
        for r0, r1, op in ((a, min(new_a, b), np.subtract), (max(new_a, b), new_b, np.add)):
            if r0 < r1:  # rows r0 .. r1 - 1 at lags s - r0 .. s - r1 + 1
                coef = table[:, last - s + r0 : last - s + r1]
                if r0 == 0:
                    coef = coef.copy()
                    coef[:, 0] *= 0.5
                op(sums, _product(coef, rows[r0:r1]), out=sums)
        a, b, s_prev = new_a, new_b, s
        yield a, b, spread[:n] @ sums


def _far_sums(rows: np.ndarray, wl: np.ndarray, first: int, stop: int, pieces=()):
    """Yield (s, far) for the blocks of rows s .. s + n - 1, s = first,
    first + HISTORY_BLOCK, .. below stop, n = min(HISTORY_BLOCK, stop - s):
    far[i] = sum_{m<s} w_m wl[s+i-m] rows[m], with w_0 = 1/2 and every other
    w_m = 1.  The caller fills the rows below s before it asks for the block
    at s.

    Each of the ``pieces``, disjoint, is a lag range (lo, hi) on which wl is
    a polynomial q of degree at most 2, c2 j^2 + ..; hi may pass the end of
    wl.  The rows whose lags s + i - m all lie in a piece enter through
    three running sums, sum_m w_m [q(s - m), q'(s - m), 1] rows[m], and
    add [1, i, c2 i^2] @ sums to far[i]; the sums move to the next block by
    the exact Taylor shift of q, rows that enter the range are added and
    rows that leave it are subtracted.  q is read off wl at three lags of
    the range (:func:`_lag_pieces` takes the ranges and checks them).
    Every other row is in one matrix product over chunks of fixed length in
    a fixed order."""
    tracks = [_piece_sums(rows, wl, first, stop, lo, min(hi, len(wl) - 1)) for lo, hi in pieces]
    for s in range(first, stop, HISTORY_BLOCK):
        n = min(HISTORY_BLOCK, stop - s)
        far = np.zeros((n, rows.shape[1]))
        start, direct = 0, []
        for a, b, share in sorted((next(t) for t in tracks), key=lambda c: c[0]):
            far += share
            direct.append((start, a))
            start = max(start, b)
        direct.append((start, s))
        lags = np.arange(s, s + n)[:, None]
        for start, end in direct:
            for lo in range(start, end, _FAR_CHUNK):
                hi = min(lo + _FAR_CHUNK, end)
                w = wl[lags - np.arange(lo, hi)]
                if lo == 0:
                    w[:, 0] *= 0.5
                far += w @ rows[lo:hi]
        yield s, far


def _gdot_weights(kernel: RelaxationKernel, gd: np.ndarray, dt: float):
    """Lag weights of the differential scheme's trapezoid for
    int_0^{t_n} Gdot(t_n - tau) lap_u(tau) dtau, split at each kink of Gdot.

    Returns (wl, row0): wl[j] weighs the Laplacian j steps back, and row0[n]
    is what the weight of row 0 at step n lacks after the far sum's halving.
    A kink c strictly inside a panel splits it there, with one-sided limits
    of Gdot and the history interpolated linearly; the panel sits at lags
    ceil(c/dt) and one less at every step from ceil(c/dt) on, with weights
    that do not depend on the step.  A kink on the node of lag j >= 1 gives
    that node the mean of the two limits from step j + 1 on."""
    wl = dt * gd
    wl[0] *= 0.5
    row0 = np.zeros_like(wl)
    for c in kernel.kink_times:
        lag = int(np.ceil(c / dt))
        frac = lag - c / dt  # the kink sits frac * dt into its panel
        if lag >= len(wl):  # beyond the horizon
            continue
        g_minus, g_plus = kernel.gdot_limits(c)
        if min(frac, 1.0 - frac) < 1e-9:
            lag = int(round(c / dt))
            if lag > 0:
                node = 0.5 * dt * (g_minus + g_plus - 2.0 * gd[lag])
                wl[lag] += node
                row0[lag] -= 0.5 * node  # at step lag the node is row 0: no split
            continue
        split = frac * g_plus + (1.0 - frac) * g_minus
        lo = 0.5 * dt * (1.0 - frac) * (split - gd[lag])
        hi = 0.5 * dt * frac * (split - gd[lag - 1])
        wl[lag] += lo
        wl[lag - 1] += hi
        row0[lag] += 0.5 * lo    # the split panel meets row 0 at full weight
        row0[lag - 1] -= 0.5 * hi  # and is not there yet one step earlier
    return wl, row0


def _block_inverses(mu: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Per mode k, the inverse of the unit lower-triangular Toeplitz matrix
    of a block, whose first column is 1, mu_k near[1], mu_k near[2], ...
    The inverse is Toeplitz again; its first column z comes from the
    recurrence z_i = -sum_{r=1..i} d_r z_{i-r}, and the table is filled
    from it."""
    size = len(near)
    d = mu[:, None] * near[None, 1:]
    z = np.zeros((len(mu), size))
    z[:, 0] = 1.0
    for i in range(1, size):
        z[:, i] = -np.einsum("kr,kr->k", d[:, :i], z[:, i - 1 :: -1])
    table = np.zeros((len(mu), size, size))
    for i in range(size):
        table[:, i, : i + 1] = z[:, i::-1]
    return table


# ---------------------------------------------------------------------------
# the march and the two schemes
# ---------------------------------------------------------------------------

class _March:
    """What both schemes share: the time grid, u0 and u1 sampled on the
    nodes and in the sine basis, the block loop and the result (:meth:`run`)."""

    def __init__(self, spec: ProblemSpec, scheme: str):
        self.spec, self.scheme = spec, scheme
        self.tgrid = spec.dt * np.arange(spec.n_steps + 1)
        self.u0v = _sample_x(spec.u0_expr, spec.grid.x)
        self.u1v = _sample_x(spec.u1_expr, spec.grid.x)

    def data(self, integrate: bool) -> np.ndarray | None:
        """Make the sine table, then u0, u1 and the forcing's share of each
        row in the sine basis: the double time integral of f with
        *integrate*, else dt^2 f, None for f = 0, taken before the
        transform, which may overflow where they do not.  All are checked
        here, before the first block; the schemes call this after their
        kernel tables, which need large temporaries."""
        spec, tgrid = self.spec, self.tgrid
        self.sines, self.lam = _sine_basis(spec.grid)
        rows = _forcing_rows(spec, tgrid)
        with np.errstate(over="ignore", invalid="ignore"):
            both = _to_modes(np.stack([self.u0v, self.u1v]), self.sines)
            if rows is not None:
                if integrate:
                    _double_time_integral(rows, spec.dt)
                else:
                    rows *= spec.dt**2
                rows = _to_modes(rows, self.sines)
        # data that are not finite, or whose sine coefficients overflow, are
        # reported at t = 0; the forcing's share of a row at its step
        _check_finite(both.reshape(1, -1), 0, 0, tgrid, self.scheme,
                      "u0 or u1 or their sine coefficients are not finite")
        self.u0m, self.u1m = both
        if rows is not None:
            last = spec.n_steps if integrate else spec.n_steps - 1  # the rows used
            _check_finite(rows, 0, last, tgrid, self.scheme,
                          "the forcing term or its sine coefficients are not finite")
        return rows

    def run(self, lags: np.ndarray, mu: np.ndarray, data, what: str, **meta) -> SolutionField:
        """March the rows after row 0 (u0) block by block, in the sine basis.
        Row t solves, mode by mode,
        ``x_t + mu sum_{m<t} w_m lags[t - m] x_m = data(t)``, with the far
        sum's w_m and the lag pieces :func:`_lag_pieces` takes on *lags*; the
        memory quadrature note names them after *what*.  The result holds
        the coefficient rows of the displacements, every ``save_stride``-th
        one.  The array of rows is made after every table (made first, it
        grew the peak RSS of a mollify study by 20 %).  The march stops
        after a half block that is not finite, and its nodal rows are then made
        at once, so that the first non-finite one is reported; so are they
        when the largest coefficient could make a nodal value overflow
        (|u_j| <= sqrt(2 nx) max |c_k|)."""
        spec, nx = self.spec, self.spec.grid.n_interior
        end, peak = len(self.tgrid), 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            pieces, note = _lag_pieces(spec.kernel, spec.dt, lags)
            inverses = _block_inverses(mu[:nx], lags[: min(SOLVE_BLOCK, end - 1)])
            # cross[i, r] = lags[SOLVE_BLOCK + i - r] weighs a block's row r in
            # its row SOLVE_BLOCK + i, the same for every mode (lags past the
            # last are clipped: no half block reads them)
            i = np.arange(SOLVE_BLOCK)
            cross = lags[np.minimum(SOLVE_BLOCK + i[:, None] - i, end - 1)]
            rows = np.zeros((end, len(self.sines)))
            rows[0] = self.u0m
            for s, far in _far_sums(rows, lags, 1, end, pieces):
                far *= -mu
                far += data(s, len(far))
                for h in range(s, s + len(far), SOLVE_BLOCK):
                    # a half's right-hand side, less its block's rows before h
                    # through cross (zero columns of it for the first half)
                    rhs = far[h - s : h - s + SOLVE_BLOCK]
                    rhs -= mu * _product(cross[: len(rhs), : h - s], rows[s:h])
                    n, rhs = len(rhs), rhs[:, :nx]
                    block = np.matmul(inverses[:, :n, :n], rhs.T[:, :, None])
                    rows[h : h + n, :nx] = block[:, :, 0].T
                    top = np.abs(block).max()  # not finite with any entry
                    if not np.isfinite(top):
                        # the inverse's zero upper triangle times a later non-finite
                        # right-hand side gives NaN: solve the rows before it alone
                        r = int(np.argmin(np.isfinite(rhs).all(axis=1)))
                        block = np.matmul(inverses[:, :r, :r], rhs[:r].T[:, :, None])
                        rows[h : h + r, :nx] = block[:, :, 0].T
                        end, peak = h + n, top
                        break
                    peak = max(peak, top)
                if not np.isfinite(peak):
                    break
        del inverses
        meta = {"scheme": self.scheme, "dt": spec.dt, "h": spec.grid.h,
                "kernel": spec.kernel.describe(), "memory_quadrature":
                f"block march in the sine basis, {HISTORY_BLOCK}-step blocks solved in "
                f"{SOLVE_BLOCK}-step halves, {what}, {note}",
                **meta}
        sol = SolutionField(spec, self.tgrid[:end], rows[:end], self.u0v, meta)
        if end < len(self.tgrid) or not peak < 0.5 * np.finfo(float).max / np.sqrt(2.0 * nx):
            sol.u  # making them raises at the first row that is not finite
        s = spec.save_stride
        if s > 1:
            sol = SolutionField(spec, self.tgrid[::s].copy(), rows[::s].copy(), self.u0v, meta)
        return sol


def solve_integral(spec: ProblemSpec) -> SolutionField:
    """March the integrated-kernel form; explicit, stable for
    dt <= 2 / sqrt(lam_max G(0)), which the spec checks (the differential
    scheme's CFL bound is stricter).

    Aborts with :class:`SolverDivergenceError` if non-finite values
    appear (data near the float limit can overflow on a stable grid)."""
    limit = _check_stability(spec)
    dt, march = spec.dt, _March(spec, "integral")
    k_table = IntegratedKernel(spec.kernel)
    wl = dt * k_table.cumulative(march.tgrid)  # quadratic up to a, affine past c
    forcing = march.data(integrate=True)
    u0m, u1m, tgrid = march.u0m, march.u1m, march.tgrid

    def data(s: int, n: int) -> np.ndarray:  # u0 + u1 t + the forcing integral
        rows = u0m + tgrid[s : s + n, None] * u1m
        if forcing is not None:
            rows += forcing[s : s + n]
        return rows

    return march.run(wl, march.lam, data, "product trapezoid on K",
                     kernel_quadrature=k_table.method, stability_limit=limit)


def solve_differential(spec: ProblemSpec) -> SolutionField:
    """March the second-order-in-time explicit scheme; needs dG/dt and the
    CFL bound dt <= 0.9 h / sqrt(G(0))."""
    limit = _check_cfl(spec)
    dt, march = spec.dt, _March(spec, "differential")
    g_zero = float(spec.kernel.g(0.0))
    try:
        gd = np.atleast_1d(spec.kernel.gdot(march.tgrid))
    except DerivativeUndefinedError as exc:
        raise UnsupportedKernelError(
            f"differential scheme needs dG/dt a.e.; {spec.kernel.describe()} "
            f"cannot provide it: {exc}"
        ) from exc
    wl, row0 = _gdot_weights(spec.kernel, gd, dt)
    # row t >= 2 takes the memory of step t - 1 (lags one longer, G(0) at
    # lag 1), summed twice from row 2 (module docstring); the data take back
    # the far sum's half weight on row 0 at lag 1 and add the kink split's.
    # At t = 1 the same form gives back the Taylor startup x_1
    lags = np.concatenate(([0.0], wl[:-1]))
    lags[1] += g_zero
    twice = np.cumsum(np.cumsum(lags))
    x0_coef = 0.5 * lags[1] * np.arange(len(lags)) - np.cumsum(
        np.cumsum(np.concatenate(([0.0, 0.0], row0[1:-1]))))
    # Gdot = s up to a: twice[j] = G(0) j + dt s j^2 / 2; Gdot = 0 past c:
    # twice is affine there
    forcing = march.data(integrate=False)
    mu = dt * dt * march.lam
    x0 = march.u0m
    with np.errstate(over="ignore", invalid="ignore"):  # run checks the rows
        x1 = x0 + dt * march.u1m - 0.5 * g_zero * mu * x0  # Taylor startup
        if forcing is not None:
            x1 += 0.5 * forcing[0]
            forcing[0] = 0.0
            for _ in range(2):  # forcing[t - 1] = sum_{j=1..t-1} (t - j) dt^2 f_j
                np.cumsum(forcing[1:], axis=0, out=forcing[1:])
        dx, mu_x0 = x1 - x0, mu * x0

    def data(s: int, n: int) -> np.ndarray:
        rows = x1 + np.arange(s - 1, s - 1 + n)[:, None] * dx + x0_coef[s : s + n, None] * mu_x0
        if forcing is not None:
            rows += forcing[s - 1 : s - 1 + n]
        return rows

    return march.run(twice, mu, data, "trapezoid on Gdot with kink-split panels, summed twice",
                     stability_limit=limit)


# ---------------------------------------------------------------------------
# space-time norms and manufactured reference problems
# ---------------------------------------------------------------------------

def _l2_space_time(grid: Grid, times: np.ndarray, values, *others) -> float | list[float]:
    """L2 norm of *values*, or of values - *other*, over (a, b) x (t_0, t_end):
    trapezoid in both directions, with the zero boundary columns implied.
    The rows, one per time, are nodal values or sine coefficients, which
    give the same sums of squares; either may also be a function that gives
    the rows at the times it is passed.  The rows are taken, differenced and
    squared ROW_CHUNK at a time.  Given more than one other (None for no
    other), it returns a list of the norms, one per other, from one pass over
    the rows of *values*; each is the float one other alone gives."""
    def rows(source, lo: int) -> np.ndarray:
        if callable(source):
            return source(times[lo : lo + ROW_CHUNK])
        return source[lo : lo + ROW_CHUNK]

    others = others or (None,)
    space = np.empty((len(others), len(times)))
    for lo in range(0, len(times), ROW_CHUNK):
        part = rows(values, lo)
        for k, other in enumerate(others):
            diff = part if other is None else part - rows(other, lo)
            space[k, lo : lo + ROW_CHUNK] = grid.h * np.sum(diff * diff, axis=1)
    dts = np.diff(times)  # trapezoid weights; one time takes its space norm
    w = 0.5 * (np.append(dts, 0.0) + np.append(0.0, dts)) if len(dts) else np.ones(1)
    norms = [float(np.sqrt(w @ row)) for row in space]
    return norms if len(others) > 1 else norms[0]


def l2_norm(sol: SolutionField) -> float:
    """Space-time L2 norm of a solve, from its sine coefficients."""
    return _l2_space_time(sol.grid, sol.times, sol.modes)


def l2_distance(sol_a: SolutionField, sol_b: SolutionField) -> float:
    """Space-time L2 distance of two solves on identical grid and times,
    from their sine coefficients (no nodal values are made)."""
    if sol_a.grid != sol_b.grid:
        raise ConfigurationError("solutions live on different grids")
    if (sol_a.modes.shape != sol_b.modes.shape
            or np.max(np.abs(sol_a.times - sol_b.times)) > 1e-12):
        raise ConfigurationError("solutions saved at different times")
    return _l2_space_time(sol_a.grid, sol_a.times, sol_a.modes, sol_b.modes)


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

    def spec(self, grid: Grid, horizon: float, n_steps: int, scheme: str) -> ProblemSpec:
        """The problem on *grid* over [0, horizon], every step saved."""
        return ProblemSpec(grid, horizon, n_steps, self.kernel, self.u0, self.u1, self.f, scheme)


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

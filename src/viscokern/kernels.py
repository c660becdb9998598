"""Relaxation moduli G(t) and their integrated form K(xi) = int_0^xi G.

The materials of interest have a memory kernel G that is positive,
nonincreasing and convex, but possibly only continuous: the derivative may
jump (wedge and tabulated variants).  Four kernel families are provided:

* :class:`WedgeKernel` -- linear drop from ``g0`` to ``g_inf`` over
  ``[0, ramp]``, constant afterwards; the derivative jumps at ``ramp``.
* :class:`PronyKernel` -- exponential series ``g_inf + sum g_i exp(-t/tau_i)``,
  smooth.
* :class:`TabulatedKernel` -- measured samples with linear interpolation,
  i.e. a general piecewise-linear (wedge-like) kernel.
* :class:`ExpressionKernel` -- formula in ``t`` via :mod:`.expressions`.

Kernels declare the structure the solvers use, from their parameters and
never fitted: ``constant_after`` (wedge) and ``affine_until`` (wedge, and a
table that starts at t = 0).

Kernels and integrated kernels are immutable after construction and safe
to share across threads; they hold no caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expressions

#: audit grid of the admissibility check: points on [0, horizon] and the
#: tolerance on first and second differences
AUDIT_POINTS = 512
AUDIT_TOL = 1e-9
#: bytes per Gauss panel of IntegratedKernel.cumulative: 16 nodes in each of
#: four arrays (the nodes, G there, and a mollified kernel's two working copies)
PANEL_BYTES = 8 * 16 * 4


class KernelRangeError(ValueError):
    """Query outside the interval on which the kernel is defined."""


class DerivativeUndefinedError(ValueError):
    """A derivative of G that the kernel variant cannot provide, such as
    d2G/dt2 of a wedge or a table."""


class QuadratureToleranceError(ArithmeticError):
    """Refined quadrature could not reach the requested tolerance."""


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def require_positive(what: str, value: float, allow_zero: bool = False) -> float:
    """*value* as a float, or ValueError unless it is finite and positive (or
    zero, with *allow_zero*); a bare ``value <= 0`` test lets NaN through."""
    value = float(value)
    if not (np.isfinite(value) and (value > 0.0 or (allow_zero and value == 0.0))):
        sign = "nonnegative" if allow_zero else "positive"
        raise ValueError(f"{what} must be finite and {sign}, got {value}")
    return value


class RelaxationKernel:
    """Base class; concrete variants implement ``g`` and ``gdot``."""

    #: times where dG/dt may jump (empty for smooth kernels).  A kernel that
    #: declares kinks is affine between them (and before the first and after
    #: the last, on its domain): the mollifier averages it in closed form
    #: from the slope jumps there (``gdot_limits``)
    kink_times: tuple[float, ...] = ()

    #: a time c after which G is known to be constant, or None; the solvers
    #: then fold the history older than c into a closed form
    constant_after: float | None = None

    #: a time a > 0 such that G is affine on [0, a], or None; K is then
    #: quadratic there, and the solvers sum the history at lags up to a
    #: through running sums
    affine_until: float | None = None

    def g(self, t):
        """G(t); accepts a scalar or an ndarray of times >= 0."""
        raise NotImplementedError

    def gdot(self, t):
        """dG/dt at t >= 0: the right derivative at 0 and the left-hand
        limit at a kink (see :meth:`gdot_limits` for both sides)."""
        raise NotImplementedError

    def gddot(self, t):
        """d2G/dt2 where the variant supports it (Prony, mollified)."""
        raise DerivativeUndefinedError(
            f"{type(self).__name__} does not provide a second derivative"
        )

    def gdot_limits(self, t):
        """One-sided (left, right) limits of dG/dt at *t*, a scalar or an
        array; equal except at a kink.  Consumed by quadratures that split
        panels at kinks and by the mollifier's corner terms."""
        v = self.gdot(t)
        return v, v

    #: how ``_k_closed(xi)``, the closed-form K, evaluates, as solvers report
    #: it; None for a kernel without one, whose K is integrated numerically
    closed_k_method: str | None = None

    def describe(self) -> str:
        return type(self).__name__

    @staticmethod
    def _times(t) -> tuple[np.ndarray, bool]:
        """(*t* as a float array, whether it was a scalar): the entry of every
        evaluation, KernelRangeError for a time below 0 or NaN."""
        arr = np.asarray(t, dtype=float)
        if not np.all(arr >= 0.0):  # also fails for NaN
            raise KernelRangeError("relaxation kernels are defined for t >= 0")
        return arr, arr.ndim == 0


@dataclass(frozen=True)
class WedgeKernel(RelaxationKernel):
    """G drops linearly from ``g0`` at t=0 to ``g_inf`` at t=ramp, then stays
    constant; dG/dt jumps from ``(g_inf - g0)/ramp`` to 0 at ``ramp``."""

    g0: float
    g_inf: float
    ramp: float

    closed_k_method = "closed form"

    def __post_init__(self):
        for name in ("g0", "g_inf", "ramp"):
            require_positive(f"wedge {name}", getattr(self, name))
        object.__setattr__(self, "kink_times", (float(self.ramp),))
        object.__setattr__(self, "constant_after", float(self.ramp))
        object.__setattr__(self, "affine_until", float(self.ramp))

    @property
    def slope(self) -> float:
        return (self.g_inf - self.g0) / self.ramp

    def g(self, t):
        arr, scalar = self._times(t)
        return _ret(np.where(arr < self.ramp, self.g0 + self.slope * arr, self.g_inf), scalar)

    def gdot(self, t):
        arr, scalar = self._times(t)
        return _ret(np.where(arr <= self.ramp, self.slope, 0.0), scalar)

    def gdot_limits(self, t):
        """One-sided (left, right) limits of dG/dt at *t*, a scalar or an array."""
        arr, scalar = self._times(t)
        return self.gdot(arr), _ret(np.where(arr < self.ramp, self.slope, 0.0), scalar)

    def _k_closed(self, xi: np.ndarray):
        k_at_ramp = self.ramp * (self.g0 + self.g_inf) / 2.0
        return np.where(
            xi < self.ramp,
            self.g0 * xi + 0.5 * self.slope * xi**2,
            k_at_ramp + self.g_inf * (xi - self.ramp),
        )

    def describe(self) -> str:
        return f"wedge(g0={self.g0}, g_inf={self.g_inf}, ramp={self.ramp})"


@dataclass(frozen=True)
class PronyKernel(RelaxationKernel):
    """Exponential relaxation series ``g_inf + sum g_i exp(-t/tau_i)``."""

    g_inf: float
    terms: tuple[tuple[float, float], ...] = ()
    closed_k_method = "closed form"

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(g), float(tau)) for g, tau in self.terms))
        require_positive("long-time modulus g_inf", self.g_inf, allow_zero=True)
        for g, tau in self.terms:
            require_positive("Prony weight", g)
            require_positive("Prony relaxation time", tau)

    def _series(self, t, order: int):
        """The order-th derivative of the series at t: g_inf (order 0 only)
        plus each term's (-1)**order g / tau**order exp(-t/tau)."""
        arr, scalar = self._times(t)
        out = np.full_like(arr, 0.0 if order else self.g_inf, dtype=float)
        for g, tau in self.terms:
            out = out + ((-1) ** order * g / tau**order) * np.exp(-arr / tau)
        return _ret(out, scalar)

    def g(self, t):
        return self._series(t, 0)

    def gdot(self, t):
        return self._series(t, 1)

    def gddot(self, t):
        return self._series(t, 2)

    def _k_closed(self, xi: np.ndarray):
        out = self.g_inf * xi
        for g, tau in self.terms:
            out = out + g * tau * (1.0 - np.exp(-xi / tau))
        return out

    def describe(self) -> str:
        body = " + ".join(f"{g}*exp(-t/{tau})" for g, tau in self.terms)
        return f"prony({self.g_inf}{' + ' + body if body else ''})"


class TabulatedKernel(RelaxationKernel):
    """Piecewise-linear kernel through measured (t, G) samples.

    Queries outside ``[t_min, t_max]`` raise :class:`KernelRangeError`.
    dG/dt is the slope of the segment that holds t: of the left segment at
    a sample and of the first one at t_min.
    """

    closed_k_method = "closed form"

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or len(times) < 2:
            raise ValueError("need two 1-D arrays of equal length >= 2")
        if not np.all(np.diff(times) > 0.0):  # also fails for NaN
            raise ValueError("sample times must be strictly increasing")
        if times[0] < 0.0:
            raise KernelRangeError("sample times must be >= 0")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must be finite")
        self.times = times.copy()
        self.values = values.copy()
        self.times.setflags(write=False)
        self.values.setflags(write=False)
        self.kink_times = tuple(float(t) for t in times[1:-1])
        if times[0] == 0.0:  # the first segment starts at t = 0
            self.affine_until = float(times[1])
        # exact cumulative integral at the nodes (trapezoid is exact here)
        cum = np.zeros(len(times))
        cum[1:] = np.cumsum(np.diff(times) * (values[1:] + values[:-1]) / 2.0)
        slopes = np.diff(values) / np.diff(times)
        cum.setflags(write=False)
        slopes.setflags(write=False)
        self._cum = cum
        self._slopes = slopes

    def _check_range(self, arr: np.ndarray) -> None:
        lo, hi = self.times[0], self.times[-1]
        if np.any(arr < lo) or np.any(arr > hi):
            bad = arr[(arr < lo) | (arr > hi)]
            raise KernelRangeError(
                f"t = {float(np.ravel(bad)[0])} outside the tabulated interval "
                f"[{lo}, {hi}]"
            )

    def g(self, t):
        arr, scalar = self._times(t)
        self._check_range(arr)
        return _ret(np.interp(arr, self.times, self.values), scalar)

    def _slope(self, t, side: str):
        """Slope of the segment that holds t; at a sample, of the segment
        on *side* of it (the first or last one at the ends of the table)."""
        arr, scalar = self._times(t)
        self._check_range(arr)
        i = np.searchsorted(self.times, arr, side=side)
        return _ret(self._slopes[np.clip(i, 1, len(self._slopes)) - 1], scalar)

    def gdot(self, t):
        return self._slope(t, "left")

    def gdot_limits(self, t):
        return self._slope(t, "left"), self._slope(t, "right")

    def _k_closed(self, xi: np.ndarray):
        self._check_range(xi)
        if self.times[0] > 0.0:
            raise KernelRangeError(
                "integrated kernel needs samples from t = 0; table starts at "
                f"{self.times[0]}"
            )
        idx = np.clip(np.searchsorted(self.times, xi, side="right") - 1, 0, len(self.times) - 2)
        t_lo = self.times[idx]
        g_lo = self.values[idx]
        g_xi = np.interp(xi, self.times, self.values)
        return self._cum[idx] + (xi - t_lo) * (g_lo + g_xi) / 2.0

    def describe(self) -> str:
        return f"tabulated({len(self.times)} samples on [{self.times[0]}, {self.times[-1]}])"


class ExpressionKernel(RelaxationKernel):
    """Kernel defined by a formula in ``t``, e.g. ``"1 + exp(-2*t)"``."""

    #: relative step for finite-difference derivatives
    FD_STEP = 1e-6

    def __init__(self, source: str):
        self.source = source
        self.expr = expressions.parse(source, {"t"})
        try:
            require_positive("G(0)", self.g(0.0))
        except expressions.EvalError as exc:
            raise ValueError(f"G(0) is not defined: {exc}") from exc

    def g(self, t):
        arr, _ = self._times(t)
        return expressions.evaluate(self.expr, t=arr)

    def gdot(self, t):
        arr, scalar = self._times(t)
        step = self.FD_STEP * (1.0 + np.abs(arr))
        one_sided = arr < step  # stay inside the domain near t = 0
        lo = np.where(one_sided, arr, arr - step)
        width = np.where(one_sided, step, 2.0 * step)
        return _ret((self.g(arr + step) - self.g(lo)) / width, scalar)

    def describe(self) -> str:
        return f"expression({self.source!r})"


class IntegratedKernel:
    """K(xi) = int_0^xi G(tau) dtau, the quantity the weak form consumes.

    Wedge, Prony and tabulated kernels evaluate through exact closed
    forms, and a mollified kernel over one of them through the bump average
    of the base's closed-form K: exact, with a correction per kink, over a
    wedge or a table, by the bump's Gauss rule over Prony.  Other variants
    (expression kernels, smoothed or not) take one 16-point Gauss panel per
    gap of the sorted grid, split at kink times, in one pass
    (:meth:`cumulative`): their G is smooth between kinks, a mollified one
    at least as smooth as its base.  :meth:`value` is that pass at a single
    abscissa.  ``method`` names the path taken.
    """

    def __init__(self, source: RelaxationKernel):
        self.source = source
        self.method = source.closed_k_method or "composite 16-point Gauss panels"

    def value(self, xi) -> float:
        """K at a single abscissa xi >= 0."""
        if not xi >= 0.0:  # also fails for NaN
            raise KernelRangeError("K(xi) is defined for xi >= 0")
        return float(self.cumulative([xi])[0])

    def cumulative(self, times) -> np.ndarray:
        """K at every point of an ascending grid (typically the solver's
        uniform lag grid), via the kernel's closed form or one 16-point
        Gauss panel per gap, the gaps split at kink times; ConfigurationError
        if the panel arrays would not fit in memory, before any is made."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("need a 1-D, nonempty grid")
        if not (np.all(np.diff(times) >= 0.0) and times[0] >= 0.0):  # also fails for NaN
            raise ValueError("grid must be ascending and nonnegative")
        if self.source.closed_k_method is not None:
            return self.source._k_closed(times)

        from .solver import check_memory  # the solver's figure; solver imports this module

        kinks = [c for c in self.source.kink_times if 0.0 < c < times[-1]]
        edges = np.unique(np.concatenate((times, [0.0], kinks)))
        check_memory(PANEL_BYTES * (len(edges) - 1),
                     f"integrating G over {len(edges) - 1} Gauss panels")
        nodes16, weights16 = np.polynomial.legendre.leggauss(16)
        lo, hi = edges[:-1], edges[1:]
        mid = 0.5 * (lo + hi)[:, None]
        half = 0.5 * (hi - lo)[:, None]
        vals = self.source.g(mid + half * nodes16[None, :])
        panel = (half[:, 0]) * (vals @ weights16)
        cum = np.concatenate(([0.0], np.cumsum(panel)))
        return cum[np.searchsorted(edges, times)]


@dataclass(frozen=True)
class AdmissibilityViolation:
    condition: str  # "positivity" | "monotonicity" | "convexity"
    t: float        # first offending audit time
    detail: str


@dataclass(frozen=True)
class AdmissibilityReport:
    kernel: str
    horizon: float
    floor: float  # min G over the audit grid
    violations: tuple[AdmissibilityViolation, ...] = field(default_factory=tuple)

    @property
    def admissible(self) -> bool:
        return not self.violations


def check_admissibility(kernel: RelaxationKernel, horizon: float) -> AdmissibilityReport:
    """Audit positivity, monotone decrease and convexity of G on a uniform
    grid of AUDIT_POINTS points over [0, horizon], to AUDIT_TOL.

    This is a necessary-condition check: the material model demands the
    properties on all of (0, inf), which a finite audit cannot certify.
    The three conditions run through one loop, each reporting the first
    audit time where it fails; violations are reported, not raised.
    """
    horizon = require_positive("audit horizon", horizon)
    ts = np.linspace(0.0, horizon, AUDIT_POINTS)
    vals = kernel.g(ts)
    h = ts[1] - ts[0]
    rise = np.diff(vals)
    second = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / (2.0 * h * h)
    # (condition, the quantity it bounds, where it fails, audit-time offset
    # of its index, detail); the first failing index of each is reported
    audits = (
        ("positivity", vals, vals <= 0.0, 0, "G = {:.6g} <= 0"),
        ("monotonicity", rise, rise > AUDIT_TOL, 1, "G rises by {:.6g} over one audit step"),
        ("convexity", second, second < -AUDIT_TOL, 1,
         f"second divided difference {{:.6g}} < -{AUDIT_TOL:.1e}"),
    )
    violations = []
    for condition, values, failed, offset, detail in audits:
        bad = np.flatnonzero(failed)
        if len(bad):
            i = int(bad[0])
            violations.append(
                AdmissibilityViolation(condition, float(ts[i + offset]), detail.format(values[i])))

    return AdmissibilityReport(
        kernel=kernel.describe(),
        horizon=horizon,
        floor=float(np.min(vals)),
        violations=tuple(violations),
    )

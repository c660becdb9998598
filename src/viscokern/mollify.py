"""Smoothing of weakly regular relaxation kernels.

A kernel that is merely continuous (wedge, tabulated) is replaced by the
smooth average

    G_eps(t) = int_{t-eps}^{t+eps} rho((t - tau)/eps) (1/eps) G(eps + tau) dtau
             = int_{-1}^{1} rho(sigma) G(eps + t - eps*sigma) dsigma,

where ``rho`` is the standard even bump exp(1/(s^2 - 1)) on (-1, 1),
scaled to unit mass and zero outside; ``rho_d1`` and ``rho_d2`` are its
first and second derivatives.  The forward shift by eps keeps every
argument of G at or beyond t, so the average is well defined down to
t = 0 (at the price of G_eps(0) != G(0) in general).  Averaging with an
even unit-mass weight preserves positivity, monotone decrease and
convexity, reproduces constants exactly, and on any affine stretch of G
satisfies the shift identity G_eps(t) = G(t + eps).

Evaluation uses one composite Gauss rule on [-1, 1] for every time.  A
window free of kinks applies it as it is; a window that holds kinks is cut
at their images sigma = 1 + (t - c)/eps, so every sub-integrand is smooth,
and the rule is mapped affinely onto each segment.  All windows with the
same number of kinks are integrated together in blocks of bounded size
(see ``MollifiedKernel._eval_many``).  Derivatives in t are taken under
the integral sign: G_eps' and G_eps'' weigh G - G(t + eps) by ``rho_d1``
and ``rho_d2`` and divide by eps and eps**2.

The integrated kernel K_eps(xi) = int_0^xi G_eps follows by exchanging
the two integrals:

    K_eps(xi) = int_{-1}^{1} rho(sigma) [K(eps + xi - eps*sigma)
                                         - K(eps - eps*sigma)] dsigma.

Over a wedge, Prony or tabulated base, whose K is closed-form, this is
one bump average per abscissa by the same rule and kink splits (K has
its kinks, in the second derivative, where G has them in the first), so
no quadrature over G_eps is needed.  Where the window meets only the
base's affine head (xi <= a - 2 eps), the shift identity gives
K_eps(xi) = K(xi + eps) - K(eps), and where it meets only the constant
tail, K_eps(xi) = K(xi + eps) minus the average at xi = 0; both are exact
for an even unit-mass bump, so the bump average runs only in between.
By the same identity G_eps is affine on [0, a - 2 eps] (``affine_until``).
Over an expression kernel K_eps is integrated from G_eps by
:class:`IntegratedKernel`'s Gauss panels.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .kernels import (
    IntegratedKernel,
    QuadratureToleranceError,
    RelaxationKernel,
    require_positive,
)

#: composite rule on the bump: panels x Gauss order.  A single 16-point rule
#: leaves ~5e-6 mass error on the bump profile, far too coarse for the
#: 1e-10 reproduction contracts, so the rule has 8 panels of order 32
#: (mass error below 1e-15).
QUAD_ORDER = 32
QUAD_PANELS = 8
#: quadrature nodes per work block, in windows with kinks or without (512
#: rows of a kink-free window).  Blocks of 2**20 nodes raised the peak RSS of
#: a 256x2048 mollify-study from 74 to 109 MB.
_BLOCK_ELEMENTS = 2**17
SUP_GRID_POINTS = 512  # grid points on [0, horizon] for the sup in sup_distance_K


@lru_cache(maxsize=8)
def _unit_rule(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


def _on_support(s, profile, scale: float):
    """profile(s) / scale where s*s < 1, zero elsewhere; float for a scalar."""
    arr = np.asarray(s, dtype=float)
    flat = arr if arr.ndim else arr.reshape(1)
    out = np.zeros_like(flat)
    inside = flat * flat < 1.0
    out[inside] = profile(flat[inside]) / scale
    return float(out[0]) if arr.ndim == 0 else out


def _bump(s):
    return np.exp(1.0 / (s * s - 1.0))


def _bump_d1(s):
    q = s * s - 1.0
    return np.exp(1.0 / q) * (-2.0 * s / q**2)


def _bump_d2(s):
    q = s * s - 1.0
    return np.exp(1.0 / q) * (4.0 * s * s / q**4 + 8.0 * s * s / q**3 - 2.0 / q**2)


@lru_cache(maxsize=1)
def _bump_mass() -> float:
    # normalization constant, computed once by a 256-panel Gauss rule
    nodes, weights = _unit_rule(256, 16)
    return float(weights @ _on_support(nodes, _bump, 1.0))


def rho(s):
    """The unit-mass bump on (-1, 1), zero outside; float for a scalar."""
    return _on_support(s, _bump, _bump_mass())


def rho_d1(s):
    """First derivative of :func:`rho`."""
    return _on_support(s, _bump_d1, _bump_mass())


def rho_d2(s):
    """Second derivative of :func:`rho`."""
    return _on_support(s, _bump_d2, _bump_mass())


class MollifiedKernel(RelaxationKernel):
    """Smooth kernel G_eps obtained by bump-averaging a base kernel.

    The result is itself a :class:`RelaxationKernel`: admissibility
    auditing, integrated-kernel evaluation and both solvers consume it
    unchanged.  It has no kinks of its own, it is constant after the
    base kernel's ``constant_after``, and affine up to the base kernel's
    ``affine_until`` less 2 eps.
    """

    kink_times: tuple[float, ...] = ()

    def __init__(self, base: RelaxationKernel, epsilon: float):
        epsilon = require_positive("smoothing width epsilon", epsilon)
        if epsilon <= 1e-12:
            raise QuadratureToleranceError(
                f"epsilon = {epsilon} is below quadrature resolution"
            )
        self.base = base
        self.epsilon = epsilon
        self.smoothness_scale = self.epsilon
        # every argument of G lies at or beyond t: constant where G is, and
        # affine (by the shift identity) where G is on the whole window
        self.constant_after = base.constant_after
        if base.affine_until is not None and base.affine_until > 2.0 * epsilon:
            self.affine_until = base.affine_until - 2.0 * epsilon
        if base.closed_k_method is not None:
            self.closed_k_method = "bump average of the base kernel's closed-form K"

    # ------------------------------------------------------------------
    # quadrature plumbing
    # ------------------------------------------------------------------
    def _eval_many(self, times, order: int, fn=None):
        """eps**-order * int w(sigma) F(eps + t - eps*sigma) dsigma for every
        t in *times* (a scalar gives a float), with the weight w = rho,
        rho_d1 or rho_d2 for order 0, 1 or 2 and F = *fn*, by default the
        base G; the base K has its kinks at the same times.

        Times are grouped by the number m of kinks inside their window.
        Kink-free windows (m = 0) share one weighted rule.  Otherwise the
        m kink images, clipped to [-1, 1], cut the window into m + 1
        segments, each carrying the [-1, 1] rule mapped affinely onto it
        (a zero-length segment has zero weight); w and F then run once per
        block of rows.  Every block, with kinks or without, holds at most
        _BLOCK_ELEMENTS quadrature nodes, so memory stays flat and the work
        per time grows with the kinks in its own window only.
        """
        arr, scalar = self._times(times)
        t = np.atleast_1d(arr).ravel()
        weight_fn = (rho, rho_d1, rho_d2)[order]
        eps = self.epsilon
        if np.any(eps <= 8.0 * np.finfo(float).eps * (1.0 + np.abs(t))):
            raise QuadratureToleranceError(
                f"epsilon = {eps} underflows the time resolution at t ~ {t.max()}"
            )
        nodes, weights = _unit_rule(QUAD_PANELS, QUAD_ORDER)
        # the window of t meets the kinks c in (t, t + 2 eps)
        kinks = np.sort(np.asarray(self.base.kink_times, dtype=float))
        first = np.searchsorted(kinks, t, side="right")
        count = np.searchsorted(kinks, t + 2.0 * eps, side="left") - first
        fn = self.base.g if fn is None else fn
        # rho' and rho'' integrate to zero, so the derivatives weigh
        # G - G(t + eps): the same integral without cancelling terms of
        # size max|G| / eps**order
        shift = fn(eps + t) if order else None

        def base_f(args, rows):  # a temporary, so no block outlives its use
            vals = fn(args)
            if order:
                vals = vals - shift[rows].reshape((-1,) + (1,) * (args.ndim - 1))
            return vals

        out = np.empty_like(t)
        wr = weights * weight_fn(nodes)
        for m in np.flatnonzero(np.bincount(count)):  # each count that occurs
            rows_idx = np.nonzero(count == m)[0]
            step = max(_BLOCK_ELEMENTS // ((m + 1) * len(nodes)), 1)
            for start in range(0, len(rows_idx), step):
                rows = rows_idx[start : start + step]
                tr = t[rows][:, None]
                if m == 0:  # one weighted rule
                    out[rows] = base_f(eps + tr - eps * nodes, rows) @ wr
                    continue
                ones = np.ones_like(tr)
                # kinks ascend, so their images descend: reverse to sort
                c = kinks[first[rows][:, None] + np.arange(m)][:, ::-1]
                cuts = np.clip(1.0 + (tr - c) / eps, -1.0, 1.0)
                edges = np.hstack([-ones, cuts, ones])[:, :, None]
                half = 0.5 * (edges[:, 1:] - edges[:, :-1])
                sigma = 0.5 * (edges[:, 1:] + edges[:, :-1]) + half * nodes
                args = eps + tr[:, :, None] - eps * sigma
                vals = (half * weights) * weight_fn(sigma) * base_f(args, rows)
                out[rows] = vals.sum(axis=(1, 2))
        out /= eps**order
        if order and self.affine_until is not None:  # the shift identity, as in
            head = t <= self.affine_until  # _k_closed: G_eps' = G'(t + eps), G_eps'' = 0
            out[head] = self.base.gdot(t[head] + eps) if order == 1 else 0.0
        return float(out[0]) if scalar else out.reshape(arr.shape)

    # ------------------------------------------------------------------
    # kernel interface
    # ------------------------------------------------------------------
    def g(self, t):
        return self._eval_many(t, 0)

    def gdot(self, t):
        # smooth everywhere; differentiate under the integral sign
        return self._eval_many(t, 1)

    def gddot(self, t):
        return self._eval_many(t, 2)

    def _k_closed(self, xi: np.ndarray):
        """K_eps(xi) = int rho(sigma) [K(eps + xi - eps*sigma)
        - K(eps - eps*sigma)] dsigma (Fubini on the definition of G_eps),
        for a base with a closed-form K.

        The even unit-mass bump averages a polynomial of degree <= 2 to its
        centre value plus a term in its (constant) second derivative.  So
        where the window meets only the affine head of G, xi <= a - 2 eps,
        the second derivatives cancel and K_eps(xi) = K(xi + eps) - K(eps);
        where it meets only the constant tail, xi >= ``constant_after``,
        K is affine and K_eps(xi) = K(xi + eps) - int rho(sigma) K(eps -
        eps*sigma).  Only the abscissae in between take the bump average."""
        k_base = self.base._k_closed
        xi = np.asarray(xi, dtype=float)
        out = np.empty_like(xi)
        at_zero = self._eval_many(0.0, 0, k_base)
        a, c = self.affine_until, self.constant_after
        head = xi <= (-np.inf if a is None else a)
        tail = (xi >= (np.inf if c is None else c)) & ~head
        rest = ~(head | tail)
        out[head] = k_base(xi[head] + self.epsilon) - k_base(np.array(self.epsilon))
        out[tail] = k_base(xi[tail] + self.epsilon) - at_zero
        out[rest] = self._eval_many(xi[rest], 0, k_base) - at_zero
        return out

    def describe(self) -> str:
        return f"mollified({self.base.describe()}, eps={self.epsilon})"


def sup_distance_K(
    base: RelaxationKernel,
    epsilons,
    horizon: float,
) -> list[tuple[float, float]]:
    """sup over [0, horizon] of |K_eps - K| for each smoothing width.

    The sup is taken over a fixed grid of SUP_GRID_POINTS points.  For a
    continuous base kernel the distances decrease toward 0 as the widths
    do; for a Lipschitz base they are bounded by 2 * Lip(G) * eps * horizon.
    """
    epsilons = [float(e) for e in epsilons]
    if any(e <= 0.0 for e in epsilons):
        raise ValueError("smoothing widths must be positive")
    if any(a <= b for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("smoothing widths must be strictly decreasing")
    grid = np.linspace(0.0, require_positive("sup horizon", horizon), SUP_GRID_POINTS)
    k_base = IntegratedKernel(base).cumulative(grid)
    out = []
    for eps in epsilons:
        k_eps = IntegratedKernel(MollifiedKernel(base, eps)).cumulative(grid)
        out.append((eps, float(np.max(np.abs(k_eps - k_base)))))
    return out

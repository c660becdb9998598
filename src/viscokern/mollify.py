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

A base that declares kinks is affine between them, so it is an affine
function plus ds_c (t - c)_+ for each kink c, with ds_c the jump of dG/dt
there (right minus left), and the average is exact in closed form.  With
u_c = (t + eps - c)/eps and, for p >= 0,

    H_p(u) = int_{-1}^{u} rho(s) (u - s)**p ds    for -1 < u <= 0,
           = -(-1)**p H_p(-u)                      for 0 < u < 1,
           = 0                                     for |u| >= 1,

    G_eps(t)   = G(t + eps)  + eps * sum_c ds_c H_1(u_c),
    G_eps'(t)  = G'(t + eps) +       sum_c ds_c H_0(u_c),
    G_eps''(t) =                     sum_c ds_c rho(u_c) / eps,

where G' is the left-hand limit at a kink and the sums run over the kinks
inside the window (t, t + 2 eps), found by ``searchsorted``; a window free
of kinks is the shift identity to the last bit.  H_p takes one composite
Gauss rule on [-1, 1], mapped onto [-1, -|u|].

A kink-free base (Prony, expression) takes the rule on the whole window:
rho for G_eps, and for G_eps' and G_eps'' the weights ``rho_d1`` and
``rho_d2`` against G - G(t + eps), divided by eps and eps**2.  Those two
take a rule of twice the order, as the order-32 rule misses the moments of
the bump's derivatives by 1.5e-12 and 3.6e-11.

The integrated kernel K_eps(xi) = int_0^xi G_eps follows by exchanging
the two integrals:

    K_eps(xi) = int_{-1}^{1} rho(sigma) [K(eps + xi - eps*sigma)
                                         - K(eps - eps*sigma)] dsigma.

Over a kinked base K is piecewise quadratic, and the average is
K(xi + eps) + eps**2/2 [m_2 G'(xi + eps) + sum_c ds_c H_2(u_c)], with
m_2 = int rho sigma**2, minus the same at xi = 0.  Over a Prony base it
is the rule on the closed-form K; over an expression kernel K_eps is
integrated from G_eps by :class:`IntegratedKernel`'s Gauss panels, one per
gap of the grid, as for the base itself.  A base without kinks needs no
finer panels at a small eps: each derivative of G_eps is the bump average
of the same derivative of G, so G_eps is at least as smooth as its base,
whatever the width.
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
#: (mass error below 1e-15).  The derivative weights rho' and rho'' take
#: order 64, which meets their moments to 2e-15.
QUAD_ORDER = 32
QUAD_PANELS = 8
DERIVATIVE_ORDER = 64
#: quadrature nodes per work block (512 rows of a kink-free window at order
#: 32).  Blocks of 2**20 nodes raised the peak RSS of a 256x2048
#: mollify-study from 74 to 109 MB.
_BLOCK_ELEMENTS = 2**17
SUP_GRID_POINTS = 512  # grid points on [0, horizon] for the sup in sup_distance_K
#: the smoothing widths the rule resolves are those above this floor; a
#: config's width keys are checked against it where they are read
MIN_WIDTH = 1e-12


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
        if epsilon <= MIN_WIDTH:
            raise QuadratureToleranceError(f"epsilon = {epsilon} is below quadrature resolution")
        self.base, self.epsilon = base, epsilon
        # every argument of G lies at or beyond t: constant where G is, and
        # affine (by the shift identity) where G is on the whole window
        self.constant_after = base.constant_after
        if base.affine_until is not None and base.affine_until > 2.0 * epsilon:
            self.affine_until = base.affine_until - 2.0 * epsilon
        self._kinks = np.sort(np.asarray(base.kink_times, dtype=float))
        if len(self._kinks):  # the jump of dG/dt at each kink, right minus left
            left, right = base.gdot_limits(self._kinks)
            self._jumps = right - left
        if base.closed_k_method is not None:
            self.closed_k_method = "bump average of the base kernel's closed-form K, " + (
                "exact with a correction per kink" if len(self._kinks) else "by the Gauss rule")

    def _eval_many(self, times, order: int):
        """G_eps, G_eps' or G_eps'' at *times* for order 0, 1 or 2, and for
        order -1 the bump average of K(eps + t - eps*sigma) (a scalar gives
        a float): the closed form with corner sums over a kinked base, the
        composite rule otherwise, in blocks of at most _BLOCK_ELEMENTS
        nodes either way."""
        arr, scalar = self._times(times)
        t = np.atleast_1d(arr).ravel()
        eps, base = self.epsilon, self.base
        if np.any(eps <= 8.0 * np.finfo(float).eps * (1.0 + np.abs(t))):
            raise QuadratureToleranceError(
                f"epsilon = {eps} underflows the time resolution at t ~ {t.max()}"
            )
        if not len(self._kinks):
            out = self._rule(t, max(order, 0), base._k_closed if order < 0 else base.g)
        else:
            if t.size:  # the whole window [t, t + 2 eps] must be in the base's range
                base.g(np.array([t.min(), t.max() + 2.0 * eps]))
            x = t + eps
            if order < 0:  # K is quadratic between the kinks, with K'' = G'
                nodes, weights = _unit_rule(QUAD_PANELS, QUAD_ORDER)
                m2 = weights @ (rho(nodes) * nodes**2)
                shifted, scale = base._k_closed(x) + 0.5 * eps**2 * m2 * base.gdot(x), 0.5 * eps**2
            else:
                shifted, scale = (base.g, base.gdot, np.zeros_like)[order](x), eps ** (1 - order)
            out = shifted + scale * self._corners(t, 1 - order)
        return float(out[0]) if scalar else out.reshape(arr.shape)

    def _rule(self, t: np.ndarray, order: int, fn) -> np.ndarray:
        """eps**-order * int w(sigma) F(eps + t - eps*sigma) dsigma with the
        weight w = rho, rho_d1 or rho_d2 for order 0, 1 or 2 and F = *fn*.
        rho' and rho'' integrate to zero, so the derivatives weigh
        F - F(t + eps): the same integral without cancelling terms of size
        max|F| / eps**order."""
        eps = self.epsilon
        nodes, weights = _unit_rule(QUAD_PANELS, DERIVATIVE_ORDER if order else QUAD_ORDER)
        wr = weights * (rho, rho_d1, rho_d2)[order](nodes)
        shift = fn(eps + t)[:, None] if order else 0.0
        out = np.empty_like(t)
        step = _BLOCK_ELEMENTS // len(nodes)
        for start in range(0, len(t), step):
            rows = slice(start, start + step)
            vals = fn(eps + t[rows][:, None] - eps * nodes)
            out[rows] = (vals - shift[rows] if order else vals) @ wr
        return out / eps**order

    def _corners(self, t: np.ndarray, p: int) -> np.ndarray:
        """sum_c ds_c H_p(u_c) over the kinks c in (t, t + 2 eps), with
        u_c = (t + eps - c)/eps and H_p as in the module docstring; p = -1
        gives rho(u_c).  The rule runs only for the pairs (t, c) found."""
        eps = self.epsilon
        first = np.searchsorted(self._kinks, t, side="right")
        count = np.searchsorted(self._kinks, t + 2.0 * eps, side="left") - first
        rows = np.repeat(np.arange(len(t)), count)
        kink = first[rows] + np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
        u = (t[rows] + eps - self._kinks[kink]) / eps
        if p < 0:
            h = rho(u)
        else:
            nodes, weights = _unit_rule(QUAD_PANELS, QUAD_ORDER)
            v = -np.minimum(np.abs(u), 1.0)[:, None]
            h = np.empty(len(u))
            step = _BLOCK_ELEMENTS // len(nodes)
            for start in range(0, len(u), step):
                top = v[start : start + step]
                half = 0.5 * (1.0 + top)  # the rule mapped onto [-1, top]
                sigma = half * (nodes + 1.0) - 1.0
                h[start : start + step] = half[:, 0] * ((rho(sigma) * (top - sigma) ** p) @ weights)
            h[u > 0.0] *= -((-1) ** p)
        return np.bincount(rows, weights=self._jumps[kink] * h, minlength=len(t))

    # ------------------------------------------------------------------
    # kernel interface
    # ------------------------------------------------------------------
    def g(self, t):
        return self._eval_many(t, 0)

    def gdot(self, t):
        # smooth everywhere
        return self._eval_many(t, 1)

    def gddot(self, t):
        return self._eval_many(t, 2)

    def _k_closed(self, xi: np.ndarray):
        """K_eps(xi) = int rho(sigma) [K(eps + xi - eps*sigma)
        - K(eps - eps*sigma)] dsigma (Fubini on the definition of G_eps),
        for a base with a closed-form K."""
        return self._eval_many(xi, -1) - self._eval_many(0.0, -1)

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
    if any(a <= b for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("smoothing widths must be strictly decreasing")
    grid = np.linspace(0.0, require_positive("sup horizon", horizon), SUP_GRID_POINTS)
    k_base = IntegratedKernel(base).cumulative(grid)
    out = []
    for eps in epsilons:
        k_eps = IntegratedKernel(MollifiedKernel(base, eps)).cumulative(grid)
        out.append((eps, float(np.max(np.abs(k_eps - k_base)))))
    return out

import os
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from kernel_catalog import catalog
from viscokern.kernels import (
    IntegratedKernel,
    KernelRangeError,
    PronyKernel,
    QuadratureToleranceError,
    RelaxationKernel,
    TabulatedKernel,
    WedgeKernel,
    check_admissibility,
)
from viscokern.mollify import (
    _BLOCK_ELEMENTS,
    DERIVATIVE_ORDER,
    QUAD_ORDER,
    QUAD_PANELS,
    MollifiedKernel,
    _unit_rule,
    rho,
    rho_d1,
    rho_d2,
    sup_distance_K,
)
from viscokern.solver import ConfigurationError

WEDGE = WedgeKernel(2.0, 1.0, 1.0)
QUAD_TOL = 1e-10
leggauss = lru_cache(np.polynomial.legendre.leggauss)


def geps_oracle(base, eps: float, t: float) -> float:
    """Direct adaptive quadrature of the defining average."""
    pts = [c - eps for c in base.kink_times if t - eps < c - eps < t + eps] or None
    val, _ = quad(
        lambda tau: rho((t - tau) / eps) / eps * float(base.g(eps + tau)),
        t - eps,
        t + eps,
        points=pts,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def split_reference(mk, t: float, weight_fn, order: int, fn=None,
                    gauss_order: int = QUAD_ORDER) -> float:
    """Per-point reference for MollifiedKernel: int w(sigma) F(eps + t -
    eps*sigma) dsigma with the sigma interval split at the kink images
    strictly inside (-1, 1) and a composite Gauss rule of QUAD_PANELS panels
    of *gauss_order* on each segment; F = *fn*, by default the base G (the
    base K has its kinks at the same times).  For the derivatives (order 1,
    2) the integrand weighs G - G(t + eps), as the rule does; the result is
    not divided by eps**order."""
    eps = mk.epsilon
    fn = mk.base.g if fn is None else fn
    shift = float(fn(eps + t)) if order else 0.0
    images = (1.0 + (t - c) / eps for c in mk.base.kink_times)
    pts = [-1.0] + sorted(s for s in images if -1.0 < s < 1.0) + [1.0]
    x, w = leggauss(gauss_order)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        edges = np.linspace(lo, hi, QUAD_PANELS + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        nodes, weights = (mid + half * x).ravel(), (half * w).ravel()
        total += (weights * weight_fn(nodes)) @ (fn(eps + t - eps * nodes) - shift)
    return total


def split_references(mk, ts) -> dict[str, np.ndarray]:
    """G_eps and K_eps by :func:`split_reference` on the order-32 rule, and
    G_eps' and G_eps'' on the order-64 rule (the order-32 rule misses the
    moments of rho' and rho'' by 1.5e-12 and 3.6e-11)."""
    eps, k_base = mk.epsilon, mk.base._k_closed
    out = {"g": np.array([split_reference(mk, t, rho, 0) for t in ts])}
    for order, (name, weight_fn) in enumerate((("gdot", rho_d1), ("gddot", rho_d2)), start=1):
        out[name] = np.array([split_reference(mk, t, weight_fn, order, gauss_order=DERIVATIVE_ORDER)
                              for t in ts]) / eps**order
    k_zero = split_reference(mk, 0.0, rho, 0, k_base)
    out["K"] = np.array([split_reference(mk, t, rho, 0, k_base) for t in ts]) - k_zero
    return out


def assert_matches_split_references(mk, ts):
    """G_eps, G_eps', G_eps'' and K_eps within 1e-12 of the largest
    reference value of each, on the times *ts* (ascending for K_eps)."""
    ref = split_references(mk, ts)
    got = {"g": mk.g(ts), "gdot": mk.gdot(ts), "gddot": mk.gddot(ts),
           "K": IntegratedKernel(mk).cumulative(ts)}
    for name, values in got.items():
        assert np.max(np.abs(values - ref[name])) <= 1e-12 * np.max(np.abs(ref[name])), name


def gauss_cumulative(kernel, times, cap: float) -> np.ndarray:
    """K = int_0^xi G on an ascending grid by 16-point Gauss panels over G,
    split at the kink times and no wider than *cap*/2: with cap = eps, the
    path IntegratedKernel.cumulative took for every mollified kernel before
    K_eps became a bump average of the base K, kept as the oracle."""
    times = np.asarray(times, dtype=float)
    edges = np.union1d(times, [0.0])
    interior_kinks = [c for c in kernel.kink_times if 0.0 < c < edges[-1]]
    if interior_kinks:
        edges = np.union1d(edges, interior_kinks)
    if np.max(np.diff(edges)) > 0.5 * cap:
        refined = [np.asarray([edges[0]])]
        for lo, hi in zip(edges[:-1], edges[1:]):
            pieces = max(int(np.ceil((hi - lo) / (0.5 * cap))), 1)
            refined.append(np.linspace(lo, hi, pieces + 1)[1:])
        edges = np.concatenate(refined)
    nodes16, weights16 = leggauss(16)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    vals = kernel.g(mid + half * nodes16[None, :])
    panel = (half[:, 0]) * (vals @ weights16)
    cum = np.concatenate(([0.0], np.cumsum(panel)))
    return cum[np.searchsorted(edges, times)]


class CountingKernel(RelaxationKernel):
    """Delegates to *base* and records every call to g, gdot, gdot_limits
    and the closed-form K, with the size and the total of the arguments to
    g."""

    def __init__(self, base):
        self.base = base
        self.kink_times = base.kink_times
        self.closed_k_method = base.closed_k_method
        self.calls = 0
        self.largest = 0
        self.elements = 0

    def g(self, t):
        self.calls += 1
        self.largest = max(self.largest, np.size(t))
        self.elements += np.size(t)
        return self.base.g(t)

    def gdot(self, t):
        self.calls += 1
        return self.base.gdot(t)

    def gdot_limits(self, t):
        self.calls += 1
        return self.base.gdot_limits(t)

    def _k_closed(self, xi):
        self.calls += 1
        return self.base._k_closed(xi)


class TestMollifier:
    def test_unit_mass_against_panel_oracle(self):
        # 10^4-panel Simpson quadrature of the normalized bump
        s = np.linspace(-1.0, 1.0, 20001)
        mass = simpson(rho(s), x=s)
        assert abs(mass - 1.0) < 1e-10

    def test_support_confinement_exact(self):
        assert rho(1.5) == 0.0
        assert rho(-1.0) == 0.0
        assert rho(1.0) == 0.0
        assert np.all(rho(np.linspace(1.0, 5.0, 50)) == 0.0)
        assert rho(0.999) > 0.0
        assert rho(0.0) > 0.0

    def test_evenness_exact(self):
        s = np.linspace(0.0, 1.2, 101)
        np.testing.assert_array_equal(rho(s), rho(-s))
        assert rho(0.7) == rho(-0.7)

    def test_derivative_is_odd_and_consistent(self):
        s = np.linspace(0.05, 0.95, 19)
        np.testing.assert_array_equal(rho_d1(-s), -rho_d1(s))
        d = 1e-7
        fd = (rho(s + d) - rho(s - d)) / (2 * d)
        np.testing.assert_allclose(rho_d1(s), fd, rtol=1e-5, atol=1e-8)

    def test_second_derivative_consistent(self):
        s = np.linspace(0.05, 0.9, 18)
        d = 1e-5
        fd = (rho(s + d) - 2 * rho(s) + rho(s - d)) / d**2
        np.testing.assert_allclose(rho_d2(s), fd, rtol=1e-4, atol=1e-6)


class TestMollifiedKernel:
    def test_constant_region_exact(self):
        # G is identically g_inf on [t, t + 2 eps]
        mk = MollifiedKernel(WEDGE, 0.01)
        assert mk.g(1.5) == pytest.approx(1.0, abs=QUAD_TOL)

    def test_affine_shift_identity(self):
        # even weight on an affine stretch returns the centre value G(t+eps)
        mk = MollifiedKernel(WEDGE, 0.01)
        assert mk.g(0.3) == pytest.approx(1.69, abs=QUAD_TOL)
        mk2 = MollifiedKernel(WEDGE, 0.1)
        for t in (0.0, 0.2, 0.5):
            assert mk2.g(t) == pytest.approx(float(WEDGE.g(t + 0.1)), abs=QUAD_TOL)

    def test_against_direct_quadrature_oracle(self):
        for eps in (0.1, 0.01):
            mk = MollifiedKernel(WEDGE, eps)
            for t in (0.0, 0.3, 1.0 - eps, 1.0, 1.5):
                assert mk.g(t) == pytest.approx(geps_oracle(WEDGE, eps, t), abs=1e-12)

    def test_monotone_window_bounds(self):
        prony = catalog()["prony"]
        mk = MollifiedKernel(prony, 0.05)
        val = mk.g(2.0)
        assert float(prony.g(2.0 + 0.1)) <= val <= float(prony.g(2.0))

    def test_constant_reproduction(self):
        const = PronyKernel(3.7)
        mk = MollifiedKernel(const, 0.05)
        for t in np.linspace(0.0, 4.0, 23):
            assert mk.g(float(t)) == pytest.approx(3.7, abs=QUAD_TOL)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            MollifiedKernel(WEDGE, -0.1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                MollifiedKernel(WEDGE, bad)
        with pytest.raises(QuadratureToleranceError):
            MollifiedKernel(WEDGE, 1e-13)


class TestBatchedKinkWindows:
    # over a kinked base the corner sums replace the rule on the window;
    # split_reference, which cuts the window at every kink image, stays the
    # oracle.  The derivatives weigh G - G(t + eps), so widths down to 0.005,
    # a fifth of the smallest in the default study, stay far below 1e-12
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        eps=st.floats(0.005, 0.2),
        kink=st.floats(0.05, 1.5),
        gap=st.floats(0.0, 1.0),
        where=st.floats(-0.1, 1.1),
    )
    # dyadic values put a kink image exactly at sigma = -1 (t = kink - 2 eps)
    # and at sigma = +1 (t equal to a kink, the second kink inside)
    @example(eps=0.0625, kink=0.5, gap=0.5, where=1.0)
    @example(eps=0.0625, kink=0.5, gap=0.5, where=0.0)
    # two kinks in one window
    @example(eps=0.1, kink=0.5, gap=0.05, where=0.5)
    def test_matches_split_reference(self, eps, kink, gap, where):
        # convex tabulated base whose slope jumps at `kink` and at
        # `kink + gap * 2 eps`, so both fall in one window when gap < 1
        second = kink + max(gap, 1e-3) * 2.0 * eps
        times = np.array([0.0, kink, second, second + 1.0, 5.0])
        slopes = np.array([-1.0, -0.5, -0.2, -0.05])
        values = 2.0 + np.concatenate([[0.0], np.cumsum(slopes * np.diff(times))])
        mk = MollifiedKernel(TabulatedKernel(times, values), eps)
        t_probe = max(kink - 2.0 * eps * where, 0.0)
        grid = np.linspace(max(kink - 2.5 * eps, 0.0), second + 0.5 * eps, 33)
        ts = np.concatenate([[t_probe, kink, second], grid])
        if kink >= 2.0 * eps:
            ts = np.append(ts, [kink - 2.0 * eps, second - 2.0 * eps])
        assert_matches_split_references(mk, np.sort(ts))

    @pytest.mark.parametrize("eps", [0.03, 0.0125])
    def test_three_kinks_in_one_window_below_the_step(self, eps):
        # kinks at 0.3, 0.32 and 0.35 share the windows of width 2 eps = 0.06
        # that reach them; at eps = 0.0125 the width sits below the lag step
        # 1/32 of the grid, as it does on a coarse solve
        times = np.array([0.0, 0.3, 0.32, 0.35, 0.8, 3.0])
        slopes = np.array([-2.0, -1.2, -0.9, -0.4, -0.1])
        values = 3.0 + np.concatenate([[0.0], np.cumsum(slopes * np.diff(times))])
        mk = MollifiedKernel(TabulatedKernel(times, values), eps)
        ts = np.union1d(np.linspace(0.0, 2.0, 65), [0.24, 0.29, 0.3, 0.31, 0.335, 0.35])
        assert_matches_split_references(mk, ts)

    def test_one_base_call_per_block(self):
        # a kinked base is called a fixed number of times per evaluation,
        # however many times are asked for and however many of their windows
        # (t, t + 0.2) hold the kink at 1
        counts = []
        for n in (4, 4096):
            base = CountingKernel(WEDGE)
            mk = MollifiedKernel(base, 0.1)
            ts = np.linspace(0.8, 1.0, n + 2)[1:-1]
            per_call = []
            for evaluate in (mk.g, mk.gdot, mk.gddot, IntegratedKernel(mk).cumulative):
                before = base.calls
                evaluate(ts)
                per_call.append(base.calls - before)
            counts.append(per_call)
            assert base.largest <= n  # G at t + eps, never at a window's nodes
        assert counts[0] == counts[1] and max(counts[1]) <= 6

    def test_kink_free_blocks_share_the_bound(self):
        # kink-free windows take blocks of at most _BLOCK_ELEMENTS nodes, as
        # the kinked ones do, and every time is evaluated once
        base = CountingKernel(PronyKernel(1.0, ((1.0, 0.5),)))
        ts = np.linspace(0.0, 2.0, 8193)
        MollifiedKernel(base, 0.1).g(ts)
        assert base.largest <= _BLOCK_ELEMENTS
        assert base.elements == len(ts) * QUAD_ORDER * QUAD_PANELS

    def test_work_follows_kinks_in_window(self):
        # 1001 samples: hundreds of kinks, but each window of width 0.02
        # meets at most five of them
        grid = np.linspace(0.0, 4.0, 1001)
        base = CountingKernel(TabulatedKernel(grid, 1.0 + np.exp(-grid)))
        mk = MollifiedKernel(base, 0.01)
        ts = np.linspace(0.0, 3.9, 500)
        mk.g(ts)
        assert base.elements <= len(ts) * 6 * 256

    def test_window_past_the_table_raises(self):
        # G_eps(t) averages G over [t, t + 2 eps]: a window that leaves the
        # table is refused, though t + eps, where the closed form takes G,
        # lies inside it
        mk = MollifiedKernel(TabulatedKernel([0.0, 1.0, 2.0], [2.0, 1.5, 1.0]), 0.1)
        assert np.isfinite(mk.g(1.8))
        for evaluate in (mk.g, mk.gdot, mk.gddot, IntegratedKernel(mk).cumulative):
            with pytest.raises(KernelRangeError):
                evaluate(np.array([0.5, 1.85]))


class TestDerivativeRule:
    def test_moments_of_the_bump_derivatives(self):
        # int sigma rho'(sigma) = -1 and int sigma**2 rho''(sigma) / 2 = 1;
        # the order-32 rule misses them by 1.5e-12 and 3.6e-11
        nodes, weights = _unit_rule(QUAD_PANELS, DERIVATIVE_ORDER)
        assert abs(weights @ (nodes * rho_d1(nodes)) + 1.0) <= 1e-14
        assert abs(weights @ (nodes**2 * rho_d2(nodes)) / 2.0 - 1.0) <= 1e-14

    def test_prony_derivatives_against_mpmath(self):
        # G_eps' = int rho G'(eps + t - eps s) ds and likewise for G_eps'',
        # with 30 digits, for a kink-free base
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        terms = ((1.0, 0.2), (0.6, 1.5))
        base = PronyKernel(0.5, terms)
        eps = 0.05
        e = mp.mpf(eps)
        mass = mp.quad(lambda s: mp.exp(1 / (s * s - 1)), [-1, 0, 1])

        def derivative(x, order):
            return sum(mp.mpf(g) * (-1 / mp.mpf(tau)) ** order * mp.exp(-x / mp.mpf(tau))
                       for g, tau in terms)

        mk = MollifiedKernel(base, eps)
        ts = np.linspace(0.0, 3.0, 13)
        for order, got in ((1, mk.gdot(ts)), (2, mk.gddot(ts))):
            ref = np.array([float(mp.quad(
                lambda s: mp.exp(1 / (s * s - 1)) * derivative(e + mp.mpf(float(t)) - e * s, order),
                [-1, 0, 1]) / mass) for t in ts])
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12, order


class TestAffineHead:
    @pytest.mark.parametrize("eps_steps", [0.55, 0.8, 0.95])
    def test_head_derivatives_are_exact(self, eps_steps):
        # G_eps = G(t + eps) on the head t <= a - 2 eps, so G_eps' is the
        # wedge's slope and G_eps'' is 0, to the last bit; the bump rule was
        # off by 1.5e-12 relative and 2e-12 there
        base = WedgeKernel(2.0, 1.0, 150 / 64)
        mk = MollifiedKernel(base, eps_steps / 64)
        head = np.linspace(0.0, mk.affine_until, 101)
        np.testing.assert_array_equal(mk.gdot(head), base.slope)
        np.testing.assert_array_equal(mk.gddot(head), 0.0)
        assert mk.gdot(0.0) == base.slope and mk.gddot(mk.affine_until) == 0.0
        # past the head the window meets the kink and its corner sum runs
        assert abs(mk.gdot(mk.affine_until + 0.5 / 64) - base.slope) > 1e-3


class TestDerivativeCancellation:
    def test_convex_table_against_mpmath(self):
        # 401 samples of a convex function, eps = 0.013.  Integrating by
        # parts against the piecewise-linear G gives exact forms:
        # G_eps'(t) = sum over segments of slope * (rho mass over the
        # segment's sigma range), G_eps''(t) = sum over kinks c of
        # (slope jump at c) * rho(1 + (t - c)/eps) / eps; both are
        # evaluated with 30 digits on the float table
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        times = np.linspace(0.0, 4.0, 401)
        values = 1.0 + np.exp(-times)
        eps = 0.013
        mk = MollifiedKernel(TabulatedKernel(times, values), eps)
        mass = mp.quad(lambda s: mp.exp(1 / (s * s - 1)), [-1, 1])

        def bump(s):
            return mp.exp(1 / (s * s - 1)) / mass if s * s < 1 else mp.mpf(0)

        tm = [mp.mpf(float(v)) for v in times]
        gm = [mp.mpf(float(v)) for v in values]
        slope = [(gm[i + 1] - gm[i]) / (tm[i + 1] - tm[i]) for i in range(len(tm) - 1)]
        e = mp.mpf(eps)
        ts = np.linspace(0.0, 3.9, 27)
        ref1, ref2 = [], []
        for t in ts:
            t = mp.mpf(float(t))
            d1 = mp.mpf(0)
            for i in range(len(tm) - 1):
                lo = max(mp.mpf(-1), 1 + (t - tm[i + 1]) / e)
                hi = min(mp.mpf(1), 1 + (t - tm[i]) / e)
                if lo < hi:
                    d1 += slope[i] * mp.quad(bump, [lo, hi])
            ref1.append(float(d1))
            ref2.append(float(sum(
                (slope[i] - slope[i - 1]) * bump(1 + (t - tm[i]) / e)
                for i in range(1, len(tm) - 1)
            ) / e))
        for got, ref in ((mk.gdot(ts), np.array(ref1)), (mk.gddot(ts), np.array(ref2))):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestMollifiedDerivatives:
    def test_constant_region_zero(self):
        mk = MollifiedKernel(WEDGE, 0.01)
        assert mk.gdot(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_affine_region_slope(self):
        mk = MollifiedKernel(WEDGE, 0.01)
        assert mk.gdot(0.3) == pytest.approx(-1.0, abs=1e-9)

    def test_sign_property_on_grid(self):
        for base in (WEDGE, catalog()["prony"]):
            mk = MollifiedKernel(base, 0.05)
            ts = np.linspace(0.0, 3.0, 257)
            assert np.max(mk.gdot(ts)) <= 1e-9

    def test_against_finite_difference(self):
        mk = MollifiedKernel(WEDGE, 0.05)
        d = 1e-6
        for t in (0.2, 0.97, 1.02):
            fd = (mk.g(t + d) - mk.g(t - d)) / (2 * d)
            assert mk.gdot(t) == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_second_derivative_nonnegative_and_consistent(self):
        # diagnostic-grade accuracy: the bump's second derivative is much
        # harder to integrate, so allow ~1e-6 quadrature noise
        mk = MollifiedKernel(WEDGE, 0.05)
        ts = np.linspace(0.0, 2.0, 101)
        assert np.min(mk.gddot(ts)) >= -1e-6
        d = 1e-4
        for t in (0.5, 0.98):
            fd = (mk.g(t + d) - 2 * mk.g(t) + mk.g(t - d)) / d**2
            assert mk.gddot(t) == pytest.approx(fd, rel=1e-3, abs=1e-4)


class TestIntegratedMollified:
    def test_zero_at_origin(self):
        ik = IntegratedKernel(MollifiedKernel(WEDGE, 0.01))
        assert ik.value(0.0) == 0.0

    def test_close_to_base_with_lipschitz_bound(self):
        # |K_eps(3) - K(3)| <= sup|G_eps - G| * 3 <= 2 * Lip(G) * eps * 3
        eps = 0.01
        lip = abs(WEDGE.slope)
        ik_eps = IntegratedKernel(MollifiedKernel(WEDGE, eps))
        ik = IntegratedKernel(WEDGE)
        assert abs(ik_eps.value(3.0) - ik.value(3.0)) <= 2.0 * lip * eps * 3.0

    def test_nondecreasing_on_grid(self):
        ik = IntegratedKernel(MollifiedKernel(WEDGE, 0.05))
        vals = ik.cumulative(np.linspace(0.0, 3.0, 257))
        assert np.all(np.diff(vals) >= -1e-12)

    def test_cumulative_matches_adaptive_value(self):
        # both take the bump average of the base K; the oracle integrates G_eps
        mk = MollifiedKernel(WEDGE, 0.05)
        ik = IntegratedKernel(mk)
        times = np.array([0.0, 0.4, 0.97, 1.3])
        ref = gauss_cumulative(mk, times, mk.epsilon)
        values = np.array([ik.value(float(t)) for t in times])
        for got in (ik.cumulative(times), values):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _closed_k_base(family: str, n: int, frac: float):
    """(base kernel, one kink time c) for the closed-K tests on [0, 2] with
    n uniform steps; the wedge kink sits on a step node or at *frac* of a
    step, the Prony kernel has none (c is then just a probe time)."""
    if family == "wedge-node":
        return WedgeKernel(2.0, 1.0, 2.0 * (n // 4) / n), 2.0 * (n // 4) / n
    if family == "wedge-off":
        ramp = 2.0 * (n // 4 + frac) / n
        return WedgeKernel(2.0, 1.0, ramp), ramp
    if family == "prony":
        return PronyKernel(0.5, ((1.0, 0.2), (0.6, 1.5))), 0.7
    times = np.linspace(0.0, 4.0, 401)  # a convex table, kinks every 0.01
    return TabulatedKernel(times, 1.0 + np.exp(-times)), float(times[73])


class TestClosedK:
    # K_eps as one bump average of the base's closed-form K, against the
    # Gauss panels over G_eps that computed it before

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["wedge-node", "wedge-off", "prony", "table"]),
        eps=st.floats(0.005, 0.1),
        n=st.integers(8, 400),
        frac=st.floats(0.05, 0.95),
        around=st.booleans(),
    )
    @example(family="wedge-node", eps=0.005, n=256, frac=0.5, around=True)
    @example(family="wedge-off", eps=0.1, n=64, frac=0.3, around=True)
    @example(family="prony", eps=0.05, n=200, frac=0.5, around=False)
    @example(family="table", eps=0.005, n=400, frac=0.5, around=True)
    def test_matches_gauss_oracle(self, family, eps, n, frac, around):
        base, c = _closed_k_base(family, n, frac)
        times = np.linspace(0.0, 2.0, n + 1)
        if around:  # the window of c - 2 eps ends at c, that of c starts there
            times = np.union1d(times, [t for t in (c - 2.0 * eps, c - eps, c) if t >= 0.0])
        mk = MollifiedKernel(base, eps)
        got = IntegratedKernel(mk).cumulative(times)
        ref = gauss_cumulative(mk, times, mk.epsilon)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("family", ["wedge", "prony"])
    def test_against_mpmath(self, family):
        # K_eps(xi) = int rho(s) [K(eps + xi - eps s) - K(eps - eps s)] ds
        # with 30 digits, split at the images of the kink
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        eps = 0.013
        e = mp.mpf(eps)
        if family == "wedge":
            base, kinks = WEDGE, [mp.mpf(1)]

            def k_exact(x):
                return 2 * x - x * x / 2 if x < 1 else mp.mpf(3) / 2 + (x - 1)
        else:
            base, kinks = PronyKernel(0.5, ((1.0, 0.2), (0.6, 1.5))), []

            def k_exact(x):
                return x / 2 + mp.mpf("0.2") * (1 - mp.exp(-x / mp.mpf("0.2"))) + (
                    mp.mpf("0.6") * mp.mpf("1.5") * (1 - mp.exp(-x / mp.mpf("1.5"))))
        mass = mp.quad(lambda s: mp.exp(1 / (s * s - 1)), [-1, 1])

        def k_eps(xi):
            xi = mp.mpf(float(xi))
            cuts = [1 + (xi - c) / e for c in kinks] + [1 - c / e for c in kinks]
            pts = [mp.mpf(-1)] + sorted(s for s in cuts if -1 < s < 1) + [mp.mpf(1)]
            return mp.quad(
                lambda s: mp.exp(1 / (s * s - 1)) * (k_exact(e + xi - e * s) - k_exact(e - e * s)),
                pts,
            ) / mass

        # the kink image at sigma = -1, 0.7 (inside a panel of the rule), 0, 1
        xs = np.array([0.004, 0.3, 1.0 - 2.0 * eps, 1.0 - eps, 1.0 - 0.3 * eps, 1.0,
                       1.0 + 0.5 * eps, 2.5])
        ref = np.array([float(k_eps(x)) for x in xs])
        got = IntegratedKernel(MollifiedKernel(base, eps)).cumulative(xs)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("family", ["wedge", "table"])
    @pytest.mark.parametrize("eps", [0.004, 0.03, 0.2, 0.35])
    def test_shift_identity_matches_bump_average(self, family, eps):
        # K_eps(xi) = K(xi + eps) - K(eps) on the head xi <= a - 2 eps and
        # K(xi + eps) - int rho K(eps - eps s) past constant_after, against
        # the bump average of the base K split at the kink images; at
        # eps = 0.35 the head is empty (a - 2 eps <= 0)
        if family == "wedge":
            base = WedgeKernel(2.0, 1.0, 0.6)
        else:
            base = TabulatedKernel([0.0, 0.6, 0.9, 4.0], [2.0, 1.4, 1.2, 1.0])
        a = 0.6
        mk = MollifiedKernel(base, eps)
        assert mk.affine_until == (a - 2.0 * eps if a > 2.0 * eps else None)
        edges = [a - 2.0 * eps, a, 0.9]
        xs = np.union1d(np.linspace(0.0, 2.0, 41),
                        [e + d for e in edges for d in (-1e-9, 0.0, 1e-9) if e + d >= 0.0])
        k_base = base._k_closed
        ref = np.array([split_reference(mk, x, rho, 0, k_base) for x in xs])
        ref -= split_reference(mk, 0.0, rho, 0, k_base)
        got = IntegratedKernel(mk).cumulative(xs)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("gaps", [64, 2048])
    @pytest.mark.parametrize("eps", [0.1, 1e-2, 1e-4, 1e-6])
    def test_expression_base_matches_prony_oracle(self, eps, gaps):
        # 1 + exp(-2t) is the catalog's Prony modulus: K_eps over the
        # expression takes one Gauss panel per gap, over the Prony kernel
        # the bump average of its closed-form K
        mk = MollifiedKernel(catalog()["expression"], eps)
        assert mk.closed_k_method is None
        ik = IntegratedKernel(mk)
        assert ik.method == "composite 16-point Gauss panels"
        times = np.linspace(0.0, 3.0, gaps + 1)
        ref = IntegratedKernel(MollifiedKernel(catalog()["prony"], eps)).cumulative(times)
        got = ik.cumulative(times)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_oversize_panels_refused_before_they_are_made(self, monkeypatch, tmp_path, capsys):
        # 1024 gaps take 512 KiB of panel arrays against 256 KiB of memory,
        # whatever the width; a solve's own arrays at 1 x 1024 fit
        import tracemalloc

        from viscokern import cli

        monkeypatch.setattr(os, "sysconf", lambda name: {
            "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2**18}[name])
        times = np.linspace(0.0, 1.0, 1025)
        message = "integrating G over 1024 Gauss panels needs 0.000488 GiB"
        for kernel in (catalog()["expression"], MollifiedKernel(catalog()["expression"], 1e-6)):
            ik = IntegratedKernel(kernel)
            tracemalloc.start()
            try:
                with pytest.raises(ConfigurationError, match=message):
                    ik.cumulative(times)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**16
            assert np.all(np.diff(ik.cumulative(times[::16])) > 0.0)  # 64 gaps fit
        cfgfile = tmp_path / "long.cfg"
        cfgfile.write_text("kernel.type = expression\ndiscretization.n_interior = 1\n"
                           "discretization.n_steps = 1024\n")
        assert cli.main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert f"solve failed: {message}" in capsys.readouterr().err


class TestPropertyPreservation:
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    @pytest.mark.parametrize("name", ["wedge", "prony", "tabulated", "expression"])
    def test_admissibility_preserved(self, name, eps):
        base = catalog()[name]
        report = check_admissibility(MollifiedKernel(base, eps), 3.0)
        assert report.admissible, report.violations

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_lower_bound(self, eps):
        # G_eps(t) >= G(1 + T) for t <= T when 2 eps <= 1
        horizon = 3.0
        for base in (WEDGE, catalog()["prony"]):
            mk = MollifiedKernel(base, eps)
            floor = float(base.g(1.0 + horizon))
            ts = np.linspace(0.0, horizon, 512)
            assert np.min(mk.g(ts)) >= floor - 1e-9


class TestSupDistance:
    def test_wedge_strictly_decreasing(self):
        rows = sup_distance_K(WEDGE, [0.1, 0.05, 0.025], horizon=3.0)
        sups = [s for _, s in rows]
        assert sups[0] > sups[1] > sups[2]

    def test_lipschitz_bound(self):
        horizon = 3.0
        lip = abs(WEDGE.slope)
        for eps, sup in sup_distance_K(WEDGE, [0.1, 0.05, 0.025], horizon):
            assert sup <= 2.0 * lip * eps * horizon

    def test_constant_kernel_noise_level(self):
        rows = sup_distance_K(PronyKernel(1.0), [0.1, 0.05], horizon=2.0)
        assert all(s <= QUAD_TOL for _, s in rows)

    def test_every_catalog_kernel_converges_monotonically(self):
        for name, base in catalog().items():
            rows = sup_distance_K(base, [0.1, 0.05, 0.025], horizon=3.0)
            sups = [s for _, s in rows]
            assert sups[0] > sups[1] > sups[2], name

    def test_validation(self):
        with pytest.raises(ValueError):
            sup_distance_K(WEDGE, [0.05, 0.1], horizon=1.0)  # not decreasing
        with pytest.raises(ValueError):
            sup_distance_K(WEDGE, [0.1, -0.05], horizon=1.0)
        for horizon in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                sup_distance_K(WEDGE, [0.1], horizon)

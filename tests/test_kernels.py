import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kernel_catalog import catalog
from viscokern.kernels import (
    DerivativeUndefinedError,
    ExpressionKernel,
    IntegratedKernel,
    KernelRangeError,
    PronyKernel,
    TabulatedKernel,
    WedgeKernel,
    check_admissibility,
)
from viscokern.mollify import MollifiedKernel

WEDGE = WedgeKernel(2.0, 1.0, 1.0)
PRONY = PronyKernel(1.0, ((1.0, 0.5),))
SIX_SAMPLES = TabulatedKernel([0.0, 0.3, 0.31, 1.0, 2.5, 4.0], [2.0, 1.7, 1.69, 1.3, 1.1, 1.0])


def quad_k(kernel, xi: float) -> float:
    """Independent oracle: adaptive quadrature of G over [0, xi]."""
    pts = [c for c in kernel.kink_times if 0.0 < c < xi] or None
    val, _ = quad(lambda s: float(kernel.g(s)), 0.0, xi, points=pts,
                  limit=400, epsabs=1e-13, epsrel=1e-13)
    return val


class TestEvalG:
    def test_wedge_branches(self):
        assert WEDGE.g(0.0) == 2.0          # left endpoint
        assert WEDGE.g(3.0) == 1.0          # constant branch
        # linear branch, hand evaluation: 2 + (1-2)/1 * 0.5
        assert WEDGE.g(0.5) == pytest.approx(1.5, abs=0.0)
        assert WEDGE.g(1.0) == 1.0          # continuous at the kink

    def test_vectorized(self):
        ts = np.array([0.0, 0.5, 1.0, 3.0])
        np.testing.assert_allclose(WEDGE.g(ts), [2.0, 1.5, 1.0, 1.0])

    def test_negative_time_rejected(self):
        with pytest.raises(KernelRangeError):
            WEDGE.g(-0.1)

    @pytest.mark.parametrize("name", ["wedge", "prony", "tabulated", "expression", "mollified"])
    @pytest.mark.parametrize("method", ["g", "gdot"])
    def test_nan_time_rejected(self, name, method):
        # a bare t < 0 test lets NaN through: the wedge gave G(nan) = 1
        kernel = MollifiedKernel(WEDGE, 0.1) if name == "mollified" else catalog()[name]
        for t in (float("nan"), np.array([0.5, float("nan")])):
            with pytest.raises(KernelRangeError):
                getattr(kernel, method)(t)

    def test_tabulated_range_error_names_interval(self):
        tab = catalog()["tabulated"]
        with pytest.raises(KernelRangeError, match=r"\[0.0, 4.0\]"):
            tab.g(5.0)

    def test_prony_values(self):
        assert PRONY.g(0.0) == pytest.approx(2.0)
        assert PRONY.g(1.0) == pytest.approx(1.0 + np.exp(-2.0))


class TestEvalK:
    def test_wedge_closed_form(self):
        ik = IntegratedKernel(WEDGE)
        assert ik.value(0.0) == 0.0
        # int_0^1 (2 - t) dt = 1.5, then + g_inf * (2 - 1)
        assert ik.value(1.0) == pytest.approx(1.5, abs=1e-14)
        assert ik.value(2.0) == pytest.approx(2.5, abs=1e-14)

    def test_wedge_against_quadrature_oracle(self):
        ik = IntegratedKernel(WEDGE)
        rng = np.random.default_rng(42)
        for xi in rng.uniform(0.0, 5.0 * WEDGE.ramp, size=100):
            assert abs(ik.value(xi) - quad_k(WEDGE, xi)) < 1e-10

    def test_prony_closed_form_vs_oracle(self):
        ik = IntegratedKernel(PRONY)
        for xi in (0.3, 1.0, 2.7):
            assert abs(ik.value(xi) - quad_k(PRONY, xi)) < 1e-10

    def test_tabulated_exact_piecewise(self):
        tab = catalog()["tabulated"]
        ik = IntegratedKernel(tab)
        for xi in (0.25, 0.5, 1.7, 4.0):
            assert abs(ik.value(xi) - quad_k(tab, xi)) < 1e-10

    def test_expression_quadrature_path(self):
        expr = catalog()["expression"]
        ik = IntegratedKernel(expr)
        # same modulus as PRONY, so the closed form is the oracle
        for xi in (0.5, 2.0):
            expected = IntegratedKernel(PRONY).value(xi)
            assert abs(ik.value(xi) - expected) < 1e-8

    def test_value_without_closed_form_splits_at_kinks(self):
        # the wedge integrand is linear on each side of the kink, so the
        # kink-split panels reproduce the closed form to roundoff
        class OpenWedge(WedgeKernel):
            closed_k_method = None

        ik = IntegratedKernel(OpenWedge(2.0, 1.0, 1.0))
        closed = IntegratedKernel(WEDGE)
        for xi in (0.3, 1.0, 1.7, 3.1):
            assert abs(ik.value(xi) - closed.value(xi)) < 1e-13

    @pytest.mark.parametrize("name", ["wedge", "expression"])
    def test_nan_abscissa_rejected(self, name):
        k = IntegratedKernel(catalog()[name])
        with pytest.raises(KernelRangeError):
            k.value(float("nan"))
        for grid in ([float("nan")], [0.0, float("nan"), 1.0]):
            with pytest.raises(ValueError, match="ascending and nonnegative"):
                k.cumulative(grid)

    def test_cumulative_matches_value(self):
        times = np.linspace(0.0, 3.0, 17)
        for kernel in (WEDGE, PRONY):
            ik = IntegratedKernel(kernel)
            np.testing.assert_allclose(
                ik.cumulative(times), [ik.value(t) for t in times], atol=1e-12
            )

    def test_cumulative_quadrature_path(self):
        expr = catalog()["expression"]
        times = np.linspace(0.0, 2.0, 9)
        expected = IntegratedKernel(PRONY).cumulative(times)
        np.testing.assert_allclose(
            IntegratedKernel(expr).cumulative(times), expected, atol=1e-10
        )


class TestEvalGdot:
    def test_wedge_slopes(self):
        assert WEDGE.gdot(0.5) == -1.0
        assert WEDGE.gdot(2.0) == 0.0
        # the left-hand limit at the kink
        assert WEDGE.gdot(1.0) == -1.0

    def test_prony_derivative_at_zero(self):
        # d/dt e^{-t/0.5} at 0 is -2 (analytic)
        assert PRONY.gdot(0.0) == pytest.approx(-2.0)

    def test_prony_second_derivative(self):
        assert PRONY.gddot(0.0) == pytest.approx(4.0)
        # finite-difference cross-check
        d = 1e-5
        fd = (PRONY.gdot(1.0 + d) - PRONY.gdot(1.0 - d)) / (2 * d)
        assert PRONY.gddot(1.0) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("kernel", [
        PronyKernel(0.0),
        PRONY,
        PronyKernel(0.0, ((1.0, 0.5), (0.3, 2.0))),
        PronyKernel(0.25, ((0.7, 0.3), (0.4, 1.7), (1.3, 0.05))),
    ], ids=["none", "one", "two-zero-ginf", "three"])
    def test_prony_series_matches_term_loops(self, kernel):
        # the per-term loops each derivative once had, as the oracle: the
        # one series with coefficients (-1)**order g / tau**order is
        # bit-identical to them, on scalars and arrays
        def loops(t):
            arr = np.asarray(t, dtype=float)
            g = np.full_like(arr, kernel.g_inf, dtype=float)
            gd = np.zeros_like(arr, dtype=float)
            gdd = np.zeros_like(arr, dtype=float)
            for w, tau in kernel.terms:
                g = g + w * np.exp(-arr / tau)
                gd = gd - (w / tau) * np.exp(-arr / tau)
                gdd = gdd + (w / tau**2) * np.exp(-arr / tau)
            return g, gd, gdd

        for t in (0.0, 0.37, 800.0, np.linspace(0.0, 5.0, 101)):
            for got, want in zip((kernel.g(t), kernel.gdot(t), kernel.gddot(t)), loops(t)):
                assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)
                np.testing.assert_array_equal(got, want)

    def test_wedge_has_no_second_derivative(self):
        with pytest.raises(DerivativeUndefinedError):
            WEDGE.gddot(0.5)

    def test_wedge_one_sided_limits(self):
        assert WEDGE.gdot_limits(1.0) == (-1.0, 0.0)
        assert WEDGE.gdot_limits(0.5) == (-1.0, -1.0)

    def test_tabulated_segment_slopes(self):
        tab = catalog()["tabulated"]
        # inside the first segment (slope (1.5-2)/0.5 = -1)
        assert tab.gdot(0.25) == pytest.approx(-1.0)
        # at a node, the left segment's slope
        assert tab.gdot(0.5) == pytest.approx(-1.0)
        left, right = tab.gdot_limits(0.5)
        assert left == pytest.approx(-1.0)
        assert right == pytest.approx((1.2 - 1.5) / 0.5)

    @pytest.mark.parametrize("tab", [
        catalog()["tabulated"],
        SIX_SAMPLES,
    ], ids=["catalog", "six-samples"])
    def test_tabulated_gdot_is_segment_slope(self, tab):
        times, values = tab.times.tolist(), tab.values.tolist()
        slopes = [(values[k + 1] - values[k]) / (times[k + 1] - times[k])
                  for k in range(len(times) - 1)]
        for k, slope in enumerate(slopes):
            lo, hi = times[k], times[k + 1]
            inside = [lo + f * (hi - lo) for f in (1e-9, 0.25, 0.5, 0.75, 1 - 1e-9)]
            assert tab.gdot(np.array(inside)).tolist() == [slope] * len(inside)
            assert tab.gdot(hi) == slope  # the left segment at a node
            if k + 1 < len(slopes):
                assert tab.gdot_limits(hi) == (slope, slopes[k + 1])
        assert tab.gdot(times[0]) == slopes[0]
        assert tab.gdot_limits(times[0]) == (slopes[0], slopes[0])
        assert tab.gdot_limits(times[-1]) == (slopes[-1], slopes[-1])

    def test_tabulated_gdot_matches_scalar_formula(self):
        tab = SIX_SAMPLES

        def scalar_gdot(t):
            # oracle: central difference over half the distance to a node
            i = int(np.searchsorted(tab.times, t))
            step = 0.5 * min(t - tab.times[i - 1], tab.times[i] - t)
            return (tab.g(t + step) - tab.g(t - step)) / (2.0 * step)

        ts = np.linspace(0.0, 4.0, 1025)
        gap = np.min(np.abs(ts[:, None] - tab.times[None, :]), axis=1)
        ts = ts[gap >= 1.0 / 64.0]
        expected = np.array([scalar_gdot(float(t)) for t in ts])
        assert len(ts) > 500
        np.testing.assert_allclose(tab.gdot(ts), expected, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(tab.gdot(ts[:500].reshape(2, -1)),
                                      tab.gdot(ts[:500]).reshape(2, -1))

    def test_tabulated_slope_just_past_a_node(self):
        # 0.01 * 70 is 0.7000000000000001, the solver's grid time of step 70
        # at dt = 0.01: just inside the segment [0.7, 1], not at the node
        tab = TabulatedKernel([0.0, 0.3, 0.7, 1.0, 2.0], [2.0, 1.6, 1.3, 1.15, 1.0])
        assert tab.gdot(0.01 * 70) == (1.15 - 1.3) / (1.0 - 0.7)
        assert tab.gdot(0.01 * 70) == pytest.approx(-0.5, rel=1e-12)
        assert tab.gdot_limits(0.7) == ((1.3 - 1.6) / (0.7 - 0.3), (1.15 - 1.3) / (1.0 - 0.7))

    def test_expression_finite_difference(self):
        expr = catalog()["expression"]
        assert expr.gdot(1.0) == pytest.approx(PRONY.gdot(1.0), rel=1e-6)
        assert expr.gdot(0.0) == pytest.approx(-2.0, rel=1e-4)


class TestAdmissibility:
    def test_catalog_is_admissible(self):
        for name, kernel in catalog().items():
            report = check_admissibility(kernel, 4.0)
            assert report.admissible, f"{name}: {report.violations}"

    def test_wedge_on_long_horizon(self):
        assert check_admissibility(WEDGE, 5.0).admissible

    def test_prony_on_long_horizon(self):
        # G(t) = 1 + e^{-2t}: positive, decreasing, convex analytically
        assert check_admissibility(PRONY, 10.0).admissible

    def test_increasing_expression_flagged(self):
        report = check_admissibility(ExpressionKernel("1 + sin(t)"), 5.0)
        conditions = {v.condition for v in report.violations}
        assert "monotonicity" in conditions
        first = [v for v in report.violations if v.condition == "monotonicity"][0]
        assert 0.0 < first.t < np.pi / 2

    def test_planted_nonconvex_table_fails(self):
        # positive and decreasing but concave in the middle
        bad = TabulatedKernel([0.0, 1.0, 2.0, 3.0], [2.0, 1.8, 1.0, 0.5])
        report = check_admissibility(bad, 3.0)
        assert not report.admissible
        assert any(v.condition == "convexity" for v in report.violations)

    def test_nonpositive_kernel_flagged(self):
        report = check_admissibility(ExpressionKernel("1 - t"), 3.0)
        assert any(v.condition == "positivity" for v in report.violations)
        assert report.floor == -2.0  # min G over the audit grid, at t = 3

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_admissibility(WEDGE, -1.0)
        for horizon in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                check_admissibility(WEDGE, horizon)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(min_value=0.0, max_value=2.0),
    dt=st.floats(min_value=0.0, max_value=2.0),
)
def test_k_increment_mean_value_bounds(s, dt):
    # 0 <= K(t) - K(s) <= G(s) * (t - s) for nonincreasing positive G
    t = s + dt
    for kernel in (WEDGE, PRONY, catalog()["tabulated"]):
        ik = IntegratedKernel(kernel)
        inc = ik.value(t) - ik.value(s)
        assert inc >= -1e-12
        assert inc <= float(kernel.g(s)) * (t - s) + 1e-12


def test_k_increment_bounds_expression_kernel():
    # quadrature path of the same mean-value property, fixed sample
    kernel = catalog()["expression"]
    ik = IntegratedKernel(kernel)
    rng = np.random.default_rng(5)
    for s, dt in rng.uniform(0.0, 2.0, size=(20, 2)):
        inc = ik.value(s + dt) - ik.value(s)
        assert -1e-8 <= inc <= float(kernel.g(s)) * dt + 1e-8


class TestConstruction:
    def test_wedge_validation(self):
        with pytest.raises(ValueError):
            WedgeKernel(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            WedgeKernel(2.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            WedgeKernel(2.0, 1.0, 0.0)

    def test_prony_validation(self):
        with pytest.raises(ValueError):
            PronyKernel(-1.0)
        with pytest.raises(ValueError):
            PronyKernel(1.0, ((0.0, 1.0),))
        with pytest.raises(ValueError):
            PronyKernel(1.0, ((1.0, 0.0),))
        # g_inf = 0 with no terms is allowed (vanishing-modulus surrogate)
        assert PronyKernel(0.0).g(1.0) == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_wedge_rejects_non_finite(self, slot, bad):
        params = [2.0, 1.0, 1.0]
        params[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            WedgeKernel(*params)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_prony_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PronyKernel(bad)
        with pytest.raises(ValueError, match="finite"):
            PronyKernel(1.0, ((bad, 0.5),))
        with pytest.raises(ValueError, match="finite"):
            PronyKernel(1.0, ((1.0, bad),))

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedKernel([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            TabulatedKernel([0.0], [1.0])
        for times in ([0.0, float("nan"), 1.0], [float("nan"), 0.5, 1.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                TabulatedKernel(times, [2.0, 1.5, 1.0])

    def test_expression_only_t(self):
        with pytest.raises(ValueError, match="only use t"):
            ExpressionKernel("1 + x")

    @pytest.mark.parametrize("source, message", [
        ("1/t", r"G\(0\) is not defined: division by zero \(at offset 1\)"),
        ("-1", r"G\(0\) must be finite and positive, got -1.0"),
        ("0*t", r"G\(0\) must be finite and positive, got 0.0"),
    ], ids=["pole", "negative", "zero"])
    def test_expression_g0_finite_and_positive(self, source, message):
        with pytest.raises(ValueError, match=message):
            ExpressionKernel(source)

    def test_kernels_are_shareable(self):
        # immutability contract: the arrays backing a tabulated kernel
        # cannot be written through
        tab = catalog()["tabulated"]
        with pytest.raises(ValueError):
            tab.values[0] = 99.0


class TestAffineBetweenKinks:
    # the mollifier's closed form holds for a kernel that declares kinks
    # only if the kernel is affine between them

    def test_every_kinked_class_is_covered(self):
        # every RelaxationKernel variant in the package has a catalog
        # instance, so the kinked ones below are all there are
        import viscokern.kernels as kernels

        variants = {cls for cls in vars(kernels).values()
                    if isinstance(cls, type) and issubclass(cls, kernels.RelaxationKernel)
                    and cls is not kernels.RelaxationKernel}
        assert variants == {type(k) for k in catalog().values()}
        kinked = {type(k) for k in catalog().values() if k.kink_times}
        assert kinked == {WedgeKernel, TabulatedKernel}

    @pytest.mark.parametrize("kernel", [
        WEDGE, WedgeKernel(3.0, 0.5, 0.25), SIX_SAMPLES, catalog()["tabulated"],
        TabulatedKernel([0.5, 1.0, 1.2, 3.0], [2.0, 1.4, 1.3, 1.0]),
    ], ids=["wedge", "short-wedge", "six-samples", "catalog-table", "late-start"])
    def test_affine_between_kinks(self, kernel):
        start = kernel.times[0] if isinstance(kernel, TabulatedKernel) else 0.0
        end = kernel.times[-1] if isinstance(kernel, TabulatedKernel) else 2.0 * max(
            kernel.kink_times)
        edges = [start, *kernel.kink_times, end]
        for lo, hi in zip(edges[:-1], edges[1:]):
            ts = np.linspace(lo, hi, 17)
            g = kernel.g(ts)
            slope = (g[-1] - g[0]) / (hi - lo)
            line = g[0] + slope * (ts - lo)
            assert np.max(np.abs(g - line)) <= 1e-14 * np.max(np.abs(g)), (lo, hi)
            # dG/dt is that slope inside the piece, and the one-sided limits
            # at its ends are the slopes of the pieces on either side
            np.testing.assert_allclose(kernel.gdot(ts[1:-1]), slope, rtol=1e-12, atol=1e-14)
            if lo > start:
                assert kernel.gdot_limits(lo)[1] == pytest.approx(slope, rel=1e-12, abs=1e-14)
            if hi < end:
                assert kernel.gdot_limits(hi)[0] == pytest.approx(slope, rel=1e-12, abs=1e-14)
        # the mollifier takes the limits at every kink in one call
        left, right = kernel.gdot_limits(np.asarray(kernel.kink_times))
        assert list(zip(left, right)) == [kernel.gdot_limits(c) for c in kernel.kink_times]

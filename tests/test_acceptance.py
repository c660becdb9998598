"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and never loosened at runtime.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from kernel_catalog import catalog
from viscokern.energy import ENERGY_TOL, dissipation_check, energy_series, mode_decay_diagnostic
from viscokern.expressions import EvalError, ParseError, evaluate, parse
from viscokern.grids import Grid
from viscokern.kernels import (
    AUDIT_POINTS,
    IntegratedKernel,
    PronyKernel,
    TabulatedKernel,
    WedgeKernel,
    check_admissibility,
)
from viscokern.mollify import MollifiedKernel, rho, sup_distance_K
from viscokern.solver import (
    ProblemSpec,
    _l2_space_time,
    l2_distance,
    l2_error_vs,
    manufactured_prony,
    solve,
    solve_differential,
    solve_integral,
)

PRONY = PronyKernel(1.0, ((1.0, 0.5),))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_kernel_algebra():
    started = time.perf_counter()
    wedge = WedgeKernel(2.0, 1.0, 1.0)
    ik = IntegratedKernel(wedge)

    quad1, _ = quad(lambda s: float(wedge.g(s)), 0.0, 1.0, points=[1.0],
                    epsabs=1e-13, epsrel=1e-13)
    quad2, _ = quad(lambda s: float(wedge.g(s)), 0.0, 2.0, points=[1.0],
                    epsabs=1e-13, epsrel=1e-13)
    ok_k = (
        abs(ik.value(1.0) - 1.5) < 1e-10
        and abs(ik.value(2.0) - 2.5) < 1e-10
        and abs(quad1 - 1.5) < 1e-10
        and abs(quad2 - 2.5) < 1e-10
    )

    ok_catalog = all(
        check_admissibility(k, 4.0).admissible for k in catalog().values()
    )
    planted = TabulatedKernel([0.0, 1.0, 2.0, 3.0], [2.0, 1.8, 1.0, 0.5])
    ok_planted = not check_admissibility(planted, 3.0).admissible

    elapsed = time.perf_counter() - started
    report(
        1,
        ok_k and ok_catalog and ok_planted and elapsed < 1.0,
        f"K(1)={ik.value(1.0):.12f}, K(2)={ik.value(2.0):.12f}, "
        f"catalog admissible={ok_catalog}, planted fails={ok_planted}, "
        f"{elapsed:.2f}s",
    )


def test_c02_mollifier_contract():
    s = np.linspace(-1.0, 1.0, 20001)  # 10^4-panel Simpson
    mass = simpson(rho(s), x=s)
    ok_mass = abs(mass - 1.0) < 1e-10

    outside = np.concatenate([np.linspace(-5, -1, 64), np.linspace(1, 5, 64)])
    ok_support = np.all(rho(outside) == 0.0) and np.all(
        rho(np.linspace(-0.99, 0.99, 99)) > 0.0
    )

    pts = np.linspace(0.0, 1.5, 301)
    ok_even = np.array_equal(rho(pts), rho(-pts))

    report(
        2,
        bool(ok_mass and ok_support and ok_even),
        f"mass-1 = {mass - 1.0:+.2e}, support exact, even exact",
    )


def test_c03_property_preservation():
    started = time.perf_counter()
    horizon = 3.0
    assert AUDIT_POINTS == 512  # the audit grid check_admissibility uses
    audit = np.linspace(0.0, horizon, 512)
    worst_floor = np.inf
    all_admissible = True
    for base in (WedgeKernel(2.0, 1.0, 1.0), PRONY):
        floor = float(base.g(1.0 + horizon))
        for eps in (0.1, 0.01):
            smoothed = MollifiedKernel(base, eps)
            rep = check_admissibility(smoothed, horizon)
            all_admissible &= rep.admissible
            margin = float(np.min(smoothed.g(audit))) - (floor - 1e-9)
            worst_floor = min(worst_floor, margin)
    elapsed = time.perf_counter() - started
    report(
        3,
        bool(all_admissible and worst_floor >= 0.0 and elapsed < 10.0),
        f"admissible on 512-pt grid, floor margin {worst_floor:+.2e}, {elapsed:.2f}s",
    )


def test_c04_integrated_kernel_convergence():
    wedge = WedgeKernel(2.0, 1.0, 1.0)
    horizon = 3.0
    lip = abs(wedge.slope)
    rows = sup_distance_K(wedge, [0.1, 0.05, 0.025], horizon)
    sups = [s for _, s in rows]
    ok_decreasing = sups[0] > sups[1] > sups[2]
    ok_bound = all(s <= 2.0 * lip * eps * horizon for eps, s in rows)
    report(
        4,
        ok_decreasing and ok_bound,
        "sup|K_eps-K| = " + ", ".join(f"{s:.4e}" for s in sups)
        + " (decreasing, within 2*Lip*eps*T)",
    )


def test_c05_solution_convergence_in_epsilon():
    wedge = WedgeKernel(2.0, 1.0, 1.0)
    grid = Grid(0.0, 1.0, 128)

    def run(kernel):
        return solve_integral(
            ProblemSpec(grid, 1.0, 512, kernel, u0="sin(pi*x)", scheme="integral")
        )

    reference = run(wedge)
    dists = [
        l2_distance(run(MollifiedKernel(wedge, eps)), reference)
        for eps in (0.1, 0.05, 0.025)
    ]
    report(
        5,
        dists[0] > dists[1] > dists[2],
        "||u_eps - u||_L2(D) = " + ", ".join(f"{d:.4e}" for d in dists),
    )


def test_c06_wave_limit():
    started = time.perf_counter()
    grid = Grid(0.0, 1.0, 256)

    errors = []
    for ramp in (0.1, 0.05, 0.025):
        spec = ProblemSpec(grid, 1.0, 2048, WedgeKernel(2.0, 1.0, ramp),
                           u0="sin(pi*x)", scheme="integral")
        sol = solve_integral(spec)
        wave = np.asarray(
            [np.cos(np.pi * t) * np.sin(np.pi * grid.x) for t in sol.times]
        )
        errors.append(
            _l2_space_time(grid, sol.times, sol.u - wave)
            / _l2_space_time(grid, sol.times, wave)
        )
    elapsed = time.perf_counter() - started
    ok = (
        errors[0] > errors[1] > errors[2]
        and errors[2] <= 0.8 * errors[0]
        and elapsed < 120.0
    )
    report(
        6,
        ok,
        "rel errors = " + ", ".join(f"{e:.4e}" for e in errors)
        + f", ratio {errors[2] / errors[0]:.3f} <= 0.8, {elapsed:.1f}s",
    )


def test_c07_scheme_cross_validation():
    problem = manufactured_prony(PRONY)
    levels = ((16, 64), (32, 128), (64, 256))
    errors = {"integral": [], "differential": []}
    finest = {}
    for scheme in ("integral", "differential"):
        for nx, nt in levels:
            spec = problem.spec(Grid(0.0, 1.0, nx), 1.0, nt, scheme)
            sol = solve(spec)
            errors[scheme].append(l2_error_vs(sol, problem.exact))
            finest[scheme] = sol
    orders = {
        scheme: min(
            np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)
        )
        for scheme, errs in errors.items()
    }
    gap = l2_distance(finest["integral"], finest["differential"])
    budget = errors["integral"][-1] + errors["differential"][-1]
    ok = orders["integral"] >= 1.8 and orders["differential"] >= 1.8 and gap < budget
    report(
        7,
        ok,
        f"orders: integral {orders['integral']:.2f}, differential "
        f"{orders['differential']:.2f} (>= 1.8); gap {gap:.3e} < {budget:.3e}",
    )


def test_c08_energy_estimates():
    spec = ProblemSpec(Grid(0.0, 1.0, 128), 1.0, 1024, PRONY,
                       u0="sin(pi*x)", scheme="differential")
    sol = solve_differential(spec)
    rep = energy_series(sol)
    assert ENERGY_TOL == 1e-3  # the tolerance dissipation_check applies
    verdict = dissipation_check(rep, f_is_zero=True)
    ok_hist = bool(np.min(rep.history) >= -1e-9)
    ok = verdict.monotone is True and verdict.bounded and ok_hist
    report(
        8,
        ok,
        f"monotone within 1e-3 (max step increase {verdict.max_increase:+.2e}), "
        f"max E = {verdict.max_total:.4f} <= bound {verdict.bound:.4f}, "
        f"min history term {np.min(rep.history):+.2e} >= -1e-9",
    )


def test_c09_uniqueness_diagnostic():
    sups = []
    for nx, nt in ((32, 256), (64, 512)):
        grid = Grid(0.0, 1.0, nx)
        data = dict(u0="x*(1-x)*exp(x)")
        si = solve_integral(ProblemSpec(grid, 1.0, nt, PRONY, scheme="integral", **data))
        sd = solve_differential(
            ProblemSpec(grid, 1.0, nt, PRONY, scheme="differential", **data)
        )
        sups.append(mode_decay_diagnostic(si, sd, 5).sup_per_mode)
    ratios = sups[0] / sups[1]
    report(
        9,
        bool(np.all(ratios >= 2.0)),
        "per-mode sup ratios after doubling: "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + " (all >= 2)",
    )


def test_c10_linearity_and_zero_data():
    # zero data propagates bitwise zero
    for scheme in ("integral", "differential"):
        sol = solve(ProblemSpec(Grid(0.0, 1.0, 24), 1.0, 96, PRONY, scheme=scheme))
        assert np.all(sol.u == 0.0)

    pool = [
        ("sin(pi*x)", "0", "0"),
        ("x*(1-x)", "sin(pi*x)", "x*t"),
        ("sin(2*pi*x)", "x*(1-x)", "cos(t)*sin(pi*x)"),
        ("x*(1-x)*exp(x)", "0", "sin(pi*x)*exp(-t)"),
    ]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(10):
        d1 = pool[int(rng.integers(len(pool)))]
        d2 = pool[int(rng.integers(len(pool)))]
        alpha, beta = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        scheme = ("integral", "differential")[trial % 2]
        combo = tuple(
            f"({alpha!r})*({e1}) + ({beta!r})*({e2})" for e1, e2 in zip(d1, d2)
        )

        def run(data):
            return solve(
                ProblemSpec(Grid(0.0, 1.0, 16), 1.0, 64, PRONY,
                            u0=data[0], u1=data[1], f=data[2], scheme=scheme)
            )

        expected = alpha * run(d1).u + beta * run(d2).u
        got = run(combo).u
        scale = max(np.max(np.abs(expected)), 1.0)
        worst = max(worst, np.max(np.abs(got - expected)) / scale)
    report(
        10,
        worst <= 1e-12,
        f"zero data bitwise zero; worst linearity defect {worst:.2e} <= 1e-12 "
        "(10 trials, seed 2024)",
    )


def test_c11_expression_parser():
    vectors = {
        "1+2*3": 7.0,
        "2^3^2": 512.0,
        "-2^2": -4.0,
        "2^-1": 0.5,
        "1-2-3": -4.0,
        "2+3*4^2": 50.0,
    }
    ok = all(evaluate(parse(src)) == val for src, val in vectors.items())

    try:
        parse("1 + * 2")
        ok = False
        offset = None
    except ParseError as exc:
        offset = exc.offset
        ok &= offset == 4

    try:
        evaluate(parse("1/t"), t=0.0)
        ok = False
    except EvalError as exc:
        ok &= exc.offset == 1

    report(
        11,
        ok,
        f"precedence vectors exact; '1 + * 2' error at offset {offset}; "
        "division-by-zero position reported",
    )

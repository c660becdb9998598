"""Seeded workloads for the viscokern benchmark, with independent checks.

Each workload turns a seed into the text of a viscokern configuration and
knows how to check the files the scenario writes.  The checks compare the
program's numbers with quantities the benchmark computes on its own (closed
forms and its own quadratures), never with values taken from the program.
"""

from __future__ import annotations

import csv
import functools
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: the workloads, in the order BENCHMARK.json lists them
NAMES = ("energy-audit-forced", "mollify-wedge")


def _rng(name: str, seed: int) -> np.random.Generator:
    # one stream per (workload, seed), so seeds do not correlate workloads;
    # keyed by the name, so the list of workloads can change
    return np.random.default_rng([zlib.crc32(name.encode()), int(seed)])


def _num(x: float) -> str:
    """Render a positive float so that the expression parser reads it back
    exactly (repr round-trips)."""
    if not x > 0.0:
        raise ValueError(f"expected a positive number, got {x!r}")
    return repr(float(x))


def read_table(path: Path) -> tuple[list[str], list[str], list[list[float]]]:
    """(meta lines without '# ', header, float rows) of a scenario CSV."""
    meta, rows = [], []
    header: list[str] = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                meta.append(line[2:].rstrip("\n"))
                continue
            if not header:
                header = line.rstrip("\n").split(",")
                continue
            rows.append([float(v) for v in next(csv.reader([line]))])
    return meta, header, rows


def _meta_value(meta: list[str], key: str) -> str | None:
    for line in meta:
        name, sep, value = line.partition(" = ")
        if sep and name == key:
            return value
    return None


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def gauss_legendre(lo: float, hi: float, panels: int, order: int):
    """Nodes and weights of a composite Gauss rule on [lo, hi]."""
    x, w = _leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


@dataclass
class Workload:
    """A scenario run on a seeded configuration.

    ``check(out_dir)`` returns the list of problems found in the files the
    scenario wrote; an empty list means the output is correct.
    """

    name: str
    seed: int
    scenario: str
    config: str
    csv_name: str
    params: dict = field(default_factory=dict)
    _reference: dict | None = None

    def reference(self) -> dict:
        """Independent expected values, computed once per workload."""
        if self._reference is None:
            self._reference = REFERENCES[self.name](self)
        return self._reference

    def check(self, out_dir: Path) -> list[str]:
        path = Path(out_dir) / self.csv_name
        if not path.is_file():
            return [f"{self.csv_name} was not written"]
        if not (Path(out_dir) / "meta.txt").is_file():
            return ["meta.txt was not written"]
        try:
            table = read_table(path)
        except (ValueError, OSError) as exc:
            return [f"{self.csv_name} is unreadable: {exc}"]
        return CHECKS[self.name](self, *table)


def check_exit(code: int) -> list[str]:
    """A scenario run must exit 0: 1 is a failed verdict, 2 an error."""
    return [] if code == 0 else [f"scenario exited with code {code}"]


# ---------------------------------------------------------------------------
# energy-audit-forced: manufactured standing mode under a Prony kernel
# ---------------------------------------------------------------------------

ENERGY_GRID = (64, 512)
ENERGY_TERMS = 2
#: the audit's total energy against the exact energy of the manufactured
#: field, relative to its maximum; at 64 x 512 the seed code deviates by
#: 7.8e-4, the (pi h)^2 / 3 of the central-difference u_x at t = 0
ENERGY_REL_TOL = 2e-3
#: identity residual relative to max E; it carries the O(ds) error of the
#: outer derivative, and the seed code stays below 4e-4
RESIDUAL_REL_TOL = 5e-3


def make_energy_audit(seed: int) -> Workload:
    """Prony kernel g_inf + sum g_i exp(-t/tau_i) with seeded terms; the
    forcing is derived here so that u = sin(pi x) cos t solves the problem
    on (0, 1) with u1 = 0."""
    rng = _rng("energy-audit-forced", seed)
    nx, nt = ENERGY_GRID
    g_inf = float(rng.uniform(0.5, 1.5))
    terms = []
    for _ in range(ENERGY_TERMS):
        terms.append((float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.1, 0.8))))
    mu = math.pi
    g_zero = g_inf + sum(g for g, _ in terms)
    # u_tt = G(0) u_xx + int_0^t Gdot(t - s) u_xx(s) ds + f with
    # int_0^t e^{-k s} cos(t - s) ds = (k cos t + sin t - k e^{-k t}) / (k^2 + 1)
    a_cos = mu * mu * g_zero - 1.0
    b_sin = 0.0
    exp_parts = []
    for g, tau in terms:
        k = 1.0 / tau
        a_cos -= mu * mu * g * k * k / (k * k + 1.0)
        b_sin += mu * mu * g * k / (k * k + 1.0)
        exp_parts.append(f"{_num(mu * mu * g * k * k / (k * k + 1.0))}*exp(-{_num(k)}*t)")
    f = (f"sin(pi*x)*({_num(a_cos)}*cos(t) - {_num(b_sin)}*sin(t) + "
         + " + ".join(exp_parts) + ")")
    config = "\n".join([
        "# energy-audit-forced workload: exact solution sin(pi*x)*cos(t)",
        "problem.a = 0.0",
        "problem.b = 1.0",
        "problem.T = 1.0",
        "problem.u0 = sin(pi*x)",
        "problem.u1 = 0",
        f"problem.f = {f}",
        "problem.scheme = differential",
        "kernel.type = prony",
        f"kernel.ginf = {g_inf!r}",
        "kernel.terms = " + ",".join(f"{g!r}:{tau!r}" for g, tau in terms),
        f"discretization.n_interior = {nx}",
        f"discretization.n_steps = {nt}",
        "",
    ])
    params = {"g_inf": g_inf, "terms": terms, "nx": nx, "nt": nt}
    return Workload("energy-audit-forced", seed, "energy-audit", config,
                    "energy_audit.csv", params)


def exact_energy(g_inf: float, terms, times: np.ndarray) -> np.ndarray:
    """E(t) of u = sin(pi x) cos t on (0, 1): elastic + kinetic + history,

        E = 1/2 G(t) int u_x^2 + 1/2 int u_t^2
            - 1/2 int_0^t Gdot(s) int (u_x(t) - u_x(t - s))^2 dx ds,

    with the s-integral by 64-point Gauss on [0, t]."""
    mu, half_len = math.pi, 0.5

    def g_of(t):
        return g_inf + sum(g * np.exp(-t / tau) for g, tau in terms)

    def minus_gdot(s):
        return sum((g / tau) * np.exp(-s / tau) for g, tau in terms)

    elastic = 0.5 * g_of(times) * mu * mu * half_len * np.cos(times) ** 2
    kinetic = 0.5 * half_len * np.sin(times) ** 2
    x, w = np.polynomial.legendre.leggauss(64)
    s = 0.5 * times[:, None] * (x + 1.0)
    ws = 0.5 * times[:, None] * w
    sq = (np.cos(times)[:, None] - np.cos(times[:, None] - s)) ** 2
    history = 0.5 * mu * mu * half_len * np.sum(ws * minus_gdot(s) * sq, axis=1)
    return elastic + kinetic + history


def _energy_reference(wl: Workload) -> dict:
    p = wl.params
    times = np.linspace(0.0, 1.0, p["nt"] + 1)
    g_at_2 = p["g_inf"] + sum(g * math.exp(-2.0 / tau) for g, tau in p["terms"])
    return {"times": times, "total": exact_energy(p["g_inf"], p["terms"], times),
            "alpha": max(1.0 / g_at_2, 1.0)}


def _check_energy_audit(wl: Workload, meta, header, rows) -> list[str]:
    problems = []
    if header != ["t", "elastic", "kinetic", "history", "total", "bound"]:
        return [f"unexpected header {header}"]
    ref = wl.reference()
    data = np.asarray(rows)
    if data.shape[0] != len(ref["times"]) or np.max(np.abs(data[:, 0] - ref["times"])) > 1e-12:
        return ["energy rows are not at the configured time steps"]
    if _meta_value(meta, "bounded") != "yes":
        problems.append(f"audit reports bounded = {_meta_value(meta, 'bounded')}")
    alpha = float(_meta_value(meta, "alpha") or "nan")
    if not _rel(alpha, ref["alpha"]) <= 1e-12:
        problems.append(f"alpha = {alpha}, expected max(1/G(T+1), 1) = {ref['alpha']}")
    scale = float(np.max(np.abs(ref["total"])))
    dev = float(np.max(np.abs(data[:, 4] - ref["total"]))) / scale
    if not dev <= ENERGY_REL_TOL:
        problems.append(f"energy total deviates from the exact energy by {dev:.3g} "
                        f"of its maximum (tolerance {ENERGY_REL_TOL})")
    if not np.allclose(data[:, 1] + data[:, 2] + data[:, 3], data[:, 4],
                       rtol=1e-12, atol=1e-12 * scale):
        problems.append("total is not elastic + kinetic + history")
    if np.any(data[:, 3] < -1e-9):
        problems.append("history energy is negative")
    residual = _meta_value(meta, "identity_residual_max")
    if residual is None:
        problems.append("identity residual was not evaluated")
    elif not float(residual) <= RESIDUAL_REL_TOL * scale:
        problems.append(f"identity residual {residual} exceeds "
                        f"{RESIDUAL_REL_TOL} of max E = {scale:.6g}")
    return problems


# ---------------------------------------------------------------------------
# mollify-wedge: the smoothing-width sweep on the merely continuous wedge
# ---------------------------------------------------------------------------

#: large enough that the four solves (the wedge and three widths) spend
#: about a third of a study in the O(N^2 nx) memory sum
MOLLIFY_GRID = (256, 2048)
#: fixed widths: the quadrature work grows with the share of points whose
#: smoothing window holds the kink (2 eps), so the seed must not move them
MOLLIFY_WIDTHS = (0.1, 0.05, 0.025)
#: sup |K_eps - K| against the benchmark's own quadrature; the seed code
#: agrees to below 1e-13
SUP_REL_TOL = 1e-10


def make_mollify_wedge(seed: int) -> Workload:
    """Wedge kernel with seeded moduli and a ramp in [0.3, 0.6] (so the
    kink's smoothing window never reaches t = 0 and lies before T);
    u0 a sum of the first two sine modes with seeded amplitudes."""
    rng = _rng("mollify-wedge", seed)
    nx, nt = MOLLIFY_GRID
    g_inf = float(rng.uniform(0.8, 1.2))
    g0 = g_inf * float(rng.uniform(1.5, 2.5))
    ramp = float(rng.uniform(0.3, 0.6))
    amps = [float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.1, 0.5))]
    u0 = " + ".join(f"{_num(c)}*sin({k}*pi*x)" for k, c in enumerate(amps, start=1))
    config = "\n".join([
        "# mollify-wedge workload: smoothing-width sweep on a wedge kernel",
        "problem.a = 0.0",
        "problem.b = 1.0",
        "problem.T = 1.0",
        f"problem.u0 = {u0}",
        "problem.scheme = integral",
        "kernel.type = wedge",
        f"kernel.g0 = {g0!r}",
        f"kernel.ginf = {g_inf!r}",
        f"kernel.a = {ramp!r}",
        f"discretization.n_interior = {nx}",
        f"discretization.n_steps = {nt}",
        "scenario.epsilon_list = " + ",".join(repr(e) for e in MOLLIFY_WIDTHS),
        "",
    ])
    params = {"g0": g0, "g_inf": g_inf, "ramp": ramp, "widths": MOLLIFY_WIDTHS,
              "horizon": 1.0, "nx": nx, "nt": nt}
    return Workload("mollify-wedge", seed, "mollify-study", config,
                    "mollify_study.csv", params)


def wedge_k(x: np.ndarray, g0: float, g_inf: float, ramp: float) -> np.ndarray:
    """K(x) = int_0^x G for the wedge G."""
    slope = (g_inf - g0) / ramp
    return np.where(x < ramp, g0 * x + 0.5 * slope * x * x,
                    ramp * (g0 + g_inf) / 2.0 + g_inf * (x - ramp))


def mollified_wedge_k(xi: float, eps: float, g0: float, g_inf: float, ramp: float) -> float:
    """K_eps(xi) = int rho(s) [K(eps + xi - eps s) - K(eps - eps s)] ds for
    the unit-mass bump rho ~ exp(1/(s^2 - 1)), by 16 x 32-point Gauss
    panels on each piece of (-1, 1) between the kink images of K."""
    cuts = sorted(c for c in (1.0 + (xi - ramp) / eps, 1.0 - ramp / eps) if -1.0 < c < 1.0)
    edges = [-1.0, *cuts, 1.0]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        s, w = gauss_legendre(lo, hi, 16, 32)
        bump = np.exp(1.0 / (s * s - 1.0))
        inner = (wedge_k(eps + xi - eps * s, g0, g_inf, ramp)
                 - wedge_k(eps - eps * s, g0, g_inf, ramp))
        total += float(w @ (bump * inner))
    s, w = gauss_legendre(-1.0, 1.0, 16, 32)
    return total / float(w @ np.exp(1.0 / (s * s - 1.0)))


def _mollify_reference(wl: Workload) -> dict:
    p = wl.params
    g0, g_inf, ramp, horizon = p["g0"], p["g_inf"], p["ramp"], p["horizon"]
    # the scenario takes the sup over 512 points of [0, T]
    grid = np.linspace(0.0, horizon, 512)
    k = wedge_k(grid, g0, g_inf, ramp)
    sups = []
    for eps in p["widths"]:
        k_eps = np.asarray([mollified_wedge_k(xi, eps, g0, g_inf, ramp) for xi in grid])
        sups.append(float(np.max(np.abs(k_eps - k))))
    return {"sup": sups}


def _check_mollify_study(wl: Workload, meta, header, rows) -> list[str]:
    problems = []
    if header != ["epsilon", "sup_K_distance", "min_Geps_over_grid",
                  "admissible_flag", "solution_l2_distance"]:
        return [f"unexpected header {header}"]
    widths = wl.params["widths"]
    if len(rows) != len(widths) or any(_rel(r[0], e) > 1e-15 for r, e in zip(rows, widths)):
        return [f"widths {[r[0] for r in rows]} differ from the configured {widths}"]
    ref = wl.reference()
    g_inf = wl.params["g_inf"]
    for row, sup in zip(rows, ref["sup"]):
        eps = row[0]
        if not _rel(row[1], sup) <= SUP_REL_TOL:
            problems.append(f"sup |K_eps - K| at eps = {eps} is {row[1]}, "
                            f"the benchmark's quadrature gives {sup}")
        # G_eps(t) averages G over [t, t + 2 eps], so it equals g_inf for
        # t >= ramp: the smallest value on [0, T] is g_inf, which is also the
        # floor G(1 + T) the smoothing must keep
        if not _rel(row[2], g_inf) <= 1e-12:
            problems.append(f"min G_eps at eps = {eps} is {row[2]}, expected the "
                            f"floor G(1+T) = g_inf = {g_inf}")
        if row[3] != 1.0:
            problems.append(f"mollified kernel at eps = {eps} is not admissible")
    dists = [r[4] for r in rows]
    if not all(a > b for a, b in zip(dists, dists[1:])):
        problems.append(f"solution distances do not strictly decrease: {dists}")
    return problems


MAKERS = {
    "energy-audit-forced": make_energy_audit,
    "mollify-wedge": make_mollify_wedge,
}
REFERENCES = {
    "energy-audit-forced": _energy_reference,
    "mollify-wedge": _mollify_reference,
}
CHECKS = {
    "energy-audit-forced": _check_energy_audit,
    "mollify-wedge": _check_mollify_study,
}


def make(name: str, seed: int) -> Workload:
    return MAKERS[name](seed)

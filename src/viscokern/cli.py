"""Command line driver: ``viscokern <scenario> --config <path>``.

Scenarios
---------
solve          one solve; snapshots CSV (header: time, then x-coordinates)
wave-limit     wedge kernels with shrinking ramp against the exact
               constant-speed wave solution (speed^2 = g_inf)
mollify-study  smoothing-width sweep: sup |K_eps - K|, solution distance,
               smoothed-kernel floor and admissibility per width
convergence    refinement study with observed orders (manufactured
               exponential-kernel reference, or self-convergence)
energy-audit   energy series, monotonicity + a-priori bound verdicts

Every scenario writes CSV files plus a ``meta.txt`` echo of the resolved
configuration into the output directory.  Outputs are deterministic:
identical configurations produce byte-identical files (floats are
rendered with 17 significant digits, metadata lines are prefixed ``#``
and carry no wall-clock content).  The exit code is 0 exactly when every
scenario verdict passed, 1 when a verdict failed, and 2 for a
configuration, I/O or runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import energy as energy_mod
from . import expressions
from .config import RunConfig, parse_config
from .kernels import (
    DerivativeUndefinedError,
    WedgeKernel,
    check_admissibility,
)
from .mollify import MollifiedKernel, sup_distance_K
from .solver import (
    ROW_CHUNK,
    ConfigurationError,
    _l2_space_time,
    l2_distance,
    l2_error_vs,
    manufactured_prony,
    solve,
    solve_integral,
)

#: verdict floor: a column counts as "decreasing" when it is either
#: strictly decreasing or already at quadrature-noise level throughout
NOISE_FLOOR = 1e-9


def fmt(x: float) -> str:
    """17 significant digits, scientific: round-trips exactly."""
    return f"{float(x):.16e}"


def fmt_table(values: np.ndarray):
    """Yield the rows of the 2-D float array *values* as CSV text, every
    value as :func:`fmt` renders it, ROW_CHUNK rows at a time: each chunk is
    one format string, its lines joined by newlines."""
    line = ",".join(["%.16e"] * values.shape[1])
    for lo in range(0, len(values), ROW_CHUNK):
        chunk = values[lo : lo + ROW_CHUNK]
        yield "\n".join([line] * len(chunk)) % tuple(chunk.ravel().tolist())


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _decreasing_or_noise(values) -> bool:
    return _strictly_decreasing(values) or max(values) <= NOISE_FLOOR


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    summary: str
    files: list[Path] = field(default_factory=list)


def write_csv(path: Path, meta: list[str], header: list[str], rows) -> None:
    """Write the meta lines, prefixed ``#``, the header and *rows*: CSV text
    of one or more lines per item, as :func:`fmt_table` gives it, written
    as the items come."""
    with path.open("w") as out:
        out.writelines(f"# {line}\n" for line in meta)
        out.write(",".join(header) + "\n")
        out.writelines(f"{text}\n" for text in rows)


def write_meta(path: Path, cfg: RunConfig, scenario: str) -> None:
    lines = [f"scenario = {scenario}"]
    lines += [f"{key} = {value}" for key, value in sorted(cfg.resolved.items())]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def run_solve(cfg: RunConfig, out_dir: Path) -> ScenarioResult:
    sol = solve(cfg.problem_spec())
    grid = sol.grid
    x_full = np.concatenate(([grid.a], grid.x, [grid.b]))
    header = ["time"] + [fmt(xi) for xi in x_full]

    def rows():  # the nodal rows a chunk at a time, never all of them at once
        for lo, u in sol.nodal_chunks():
            table = np.zeros((len(u), 1 + len(x_full)))
            table[:, 0] = sol.times[lo : lo + len(u)]
            table[:, 2:-1] = u
            yield from fmt_table(table)

    path = out_dir / "snapshots.csv"
    write_csv(
        path,
        [f"scheme = {sol.meta['scheme']}", f"kernel = {sol.meta['kernel']}"],
        header,
        rows(),
    )
    return ScenarioResult("solve", True, f"solved {len(sol.times)} snapshots", [path])


def _wave_reference(grid, coefs: np.ndarray, g_inf: float):
    """Exact wave-equation evolution (u1 = 0, f = 0) of the sine
    coefficients *coefs* of u0: ``reference(times)`` gives the coefficient
    rows cos(omega_k t) coefs_k at those times, omega_k =
    sqrt(g_inf) k pi / (b - a)."""
    freqs = np.sqrt(g_inf) * np.pi / grid.length * np.arange(1, len(coefs) + 1)

    def reference(times: np.ndarray) -> np.ndarray:
        return np.cos(np.outer(times, freqs)) * coefs

    return reference


def run_wave_limit(cfg: RunConfig, out_dir: Path) -> ScenarioResult:
    """Errors against the limit wave solution must shrink with the ramp."""
    wedge = cfg.kernel
    if not isinstance(wedge, WedgeKernel):
        raise ConfigurationError("wave-limit needs a raw wedge kernel")
    specs = [cfg.problem_spec(kernel=WedgeKernel(wedge.g0, wedge.g_inf, ramp),
                              scheme="integral") for ramp in cfg.a_list]
    if not (expressions.is_zero(specs[0].u1_expr) and expressions.is_zero(specs[0].f_expr)):
        raise ConfigurationError("the wave reference needs u1 = 0 and f = 0")

    errors = []
    for spec in specs:  # in the sine basis, the reference made a chunk of rows at a time
        sol = solve_integral(spec)
        if not errors:  # the specs share grid, times, u0 and g_inf; one pass over the
            # reference rows gives its norm and the first error
            reference = _wave_reference(spec.grid, sol.modes[0].copy(), wedge.g_inf)
            norm, gap = _l2_space_time(spec.grid, sol.times, reference, None, sol.modes)
        else:
            gap = _l2_space_time(spec.grid, sol.times, sol.modes, reference)
        errors.append(gap / norm)
        del sol  # before the next solve

    passed = _strictly_decreasing(errors)
    path = out_dir / "wave_limit.csv"
    write_csv(
        path,
        [
            f"kernel = {wedge.describe()} with ramp swept over a_list",
            f"limit speed c = sqrt(g_inf) = {fmt(np.sqrt(wedge.g_inf))}",
            f"grid = {cfg.n_interior} x {cfg.n_steps}",
        ],
        ["a", "rel_l2_error"],
        fmt_table(np.column_stack([cfg.a_list, errors])),
    )
    summary = "errors " + ("strictly decrease" if passed else "do NOT decrease") + \
        " along a_list"
    return ScenarioResult("wave-limit", passed, summary, [path])


def run_mollify_study(cfg: RunConfig, out_dir: Path) -> ScenarioResult:
    """Smoothing-width sweep: kernel-level and solution-level convergence."""
    eps_list = cfg.epsilon_list
    mollified = isinstance(cfg.kernel, MollifiedKernel)
    base = cfg.kernel.base if mollified else cfg.kernel
    horizon = cfg.horizon

    sup_rows = sup_distance_K(base, eps_list, horizon)
    ref_sol = solve_integral(cfg.problem_spec(kernel=base, scheme="integral"))

    rows, sups, dists = [], [], []
    for eps, sup in sup_rows:
        smoothed = MollifiedKernel(base, eps)
        sol = solve_integral(cfg.problem_spec(kernel=smoothed, scheme="integral"))
        dist = l2_distance(sol, ref_sol)
        del sol  # before the next solve
        report = check_admissibility(smoothed, horizon)
        sups.append(sup)
        dists.append(dist)
        rows.append(",".join([fmt(eps), fmt(sup), fmt(report.floor),
                              "1" if report.admissible else "0", fmt(dist)]))

    passed = _decreasing_or_noise(sups) and _decreasing_or_noise(dists)
    path = out_dir / "mollify_study.csv"
    meta = [f"kernel = {base.describe()}", f"horizon = {fmt(horizon)}",
            f"grid = {cfg.n_interior} x {cfg.n_steps}"]
    if mollified:
        meta.append(f"kernel.epsilon = {fmt(cfg.kernel.epsilon)} is replaced by the sweep "
                    "over scenario.epsilon_list")
    write_csv(path, meta, ["epsilon", "sup_K_distance", "min_Geps_over_grid",
                           "admissible_flag", "solution_l2_distance"], rows)
    summary = "kernel and solution distances shrink" if passed else \
        "distances do NOT shrink along epsilon_list"
    return ScenarioResult("mollify-study", passed, summary, [path])


#: observed-order thresholds; the kink of a wedge kernel costs accuracy in
#: the self-convergence study, hence the lower bar there
ORDER_THRESHOLD = {"manufactured": 1.8, "self": 1.5}


def run_convergence(cfg: RunConfig, out_dir: Path) -> ScenarioResult:
    """Refinement study; observed order from consecutive error ratios."""
    study = cfg.study
    meta = [f"study = {study}", f"scheme = {cfg.scheme}"]

    errors: list[float] = []
    sizes: list[tuple[int, int]] = []
    if study == "manufactured":
        problem = manufactured_prony(cfg.kernel, cfg.domain_a, cfg.domain_b)
        meta.append("data = manufactured standing mode (problem.u0/u1/f overridden)")
        for lev in range(cfg.levels):
            scale = 2**lev
            spec = problem.spec(cfg.grid(cfg.n_interior * scale), cfg.horizon,
                                cfg.n_steps * scale, cfg.scheme)
            sizes.append((spec.grid.n_interior, spec.n_steps))
            errors.append(l2_error_vs(solve(spec), problem.exact))
    else:
        sols = []
        for lev in range(cfg.levels + 1):
            scale = 2**lev
            spec = cfg.problem_spec(n_interior=cfg.n_interior * scale,
                                    n_steps=cfg.n_steps * scale)
            sols.append(solve(spec))
        for lev in range(cfg.levels):
            coarse, fine = sols[lev], sols[lev + 1]
            sizes.append((coarse.grid.n_interior, coarse.spec.n_steps))
            fine_u = energy_mod._values_at(fine, coarse.grid.x, coarse.times)
            errors.append(_l2_space_time(coarse.grid, coarse.times, coarse.u, fine_u))

    orders: list[float | None] = [None]
    for prev, curr in zip(errors, errors[1:]):
        orders.append(np.log2(prev / curr) if prev > 0.0 and curr > 0.0 else None)

    rows = []
    for lev, ((nx, nt), err, order) in enumerate(zip(sizes, errors, orders)):
        rows.append(",".join([str(lev), str(nx), str(nt), fmt(err),
                              "n/a" if order is None else fmt(order)]))

    threshold = ORDER_THRESHOLD[study]
    observed = [o for o in orders if o is not None]
    if max(errors) == 0.0:
        passed = True  # zero data: exact at every level
    else:
        passed = bool(observed) and min(observed) >= threshold
    meta.append(f"order threshold = {threshold}")
    path = out_dir / "convergence.csv"
    write_csv(path, meta, ["level", "n_interior", "n_steps", "error", "order"], rows)
    got = f"min order {min(observed):.2f}" if observed else "orders n/a"
    summary = f"{got} vs threshold {threshold}" + ("" if passed else " (FAIL)")
    return ScenarioResult("convergence", passed, summary, [path])


def run_energy_audit(cfg: RunConfig, out_dir: Path) -> ScenarioResult:
    """Energy series with monotonicity (f = 0) and a-priori bound verdicts."""
    sol = solve(cfg.problem_spec())
    report = energy_mod.energy_series(sol)
    f_zero = expressions.is_zero(sol.spec.f_expr)
    verdict = energy_mod.dissipation_check(report, f_is_zero=f_zero)

    meta = [
        f"kernel = {cfg.kernel.describe()}",
        f"scheme = {cfg.scheme}",
        f"alpha = {fmt(report.alpha)}",
        f"bound = {fmt(report.bound)}",
    ]
    try:
        residual = energy_mod.identity_residual(sol, report)
        if len(residual):
            meta.append(f"identity_residual_max = {fmt(np.max(np.abs(residual)))}")
        else:
            meta.append("identity_residual = skipped (too few snapshots)")
    except DerivativeUndefinedError as exc:
        meta.append(f"identity_residual = skipped ({exc})")
    if verdict.monotone is None:
        meta.append("monotonicity = not applicable (f != 0)")
    else:
        meta.append(f"monotone = {'yes' if verdict.monotone else 'NO'}")
    meta.append(f"bounded = {'yes' if verdict.bounded else 'NO'}")

    rows = fmt_table(np.column_stack([report.times, report.elastic, report.kinetic,
                                      report.history, report.total,
                                      np.full(len(report.times), report.bound)]))
    path = out_dir / "energy_audit.csv"
    write_csv(path, meta, ["t", "elastic", "kinetic", "history", "total", "bound"], rows)
    summary = (
        f"monotone={verdict.monotone}, bounded={verdict.bounded} "
        f"(max E = {verdict.max_total:.6g}, bound = {verdict.bound:.6g})"
    )
    return ScenarioResult("energy-audit", verdict.passed, summary, [path])


RUNNERS = {
    "solve": run_solve,
    "wave-limit": run_wave_limit,
    "mollify-study": run_mollify_study,
    "convergence": run_convergence,
    "energy-audit": run_energy_audit,
}

#: built-in configurations reproducing the documented default studies
DEFAULT_CONFIGS = {
    "solve": "",
    "wave-limit": "\n".join(
        [
            "kernel.type = wedge",
            "kernel.g0 = 2.0",
            "kernel.ginf = 1.0",
            "kernel.a = 0.1",
            "discretization.n_interior = 256",
            "discretization.n_steps = 2048",
            "scenario.a_list = 0.1,0.05,0.025",
        ]
    ),
    "mollify-study": "\n".join(
        [
            "problem.T = 1.0",
            "kernel.type = wedge",
            "discretization.n_interior = 128",
            "discretization.n_steps = 512",
            "scenario.epsilon_list = 0.1,0.05,0.025",
        ]
    ),
    "convergence": "\n".join(
        [
            "problem.scheme = differential",
            "kernel.type = prony",
            "kernel.ginf = 1.0",
            "kernel.terms = 1:0.5",
            "discretization.n_interior = 16",
            "discretization.n_steps = 64",
            "scenario.levels = 3",
            "scenario.study = manufactured",
        ]
    ),
    "energy-audit": "\n".join(
        [
            "problem.scheme = differential",
            "kernel.type = prony",
            "kernel.ginf = 1.0",
            "kernel.terms = 1:0.5",
            "discretization.n_interior = 128",
            "discretization.n_steps = 1024",
        ]
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viscokern",
        description="1-D viscoelasticity with weakly regular memory kernels",
    )
    parser.add_argument("scenario", choices=sorted(RUNNERS))
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="configuration file")
    source.add_argument("--default", action="store_true",
                        help="run the built-in default configuration for the scenario")
    parser.add_argument("--out", type=Path, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        text = DEFAULT_CONFIGS[args.scenario] if args.default else args.config.read_text()
        cfg = parse_config(text, base_dir=Path.cwd() if args.default else args.config.parent)
        out_dir = args.out if args.out is not None else Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # exit 2, no warning
            result = RUNNERS[args.scenario](cfg, out_dir)
        write_meta(out_dir / "meta.txt", cfg, args.scenario)
        print(f"{args.scenario}: {'PASS' if result.passed else 'FAIL'} - {result.summary}")
        for path in result.files:
            print(f"  wrote {path}")
        sys.stdout.flush()  # a full or closed stdout fails here, inside the contract
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"viscokern: {args.scenario} failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"viscokern: {args.scenario} failed: out of memory: {exc}", file=sys.stderr)
        return 2

    if not result.passed:
        print(f"viscokern: verdict failed: {result.summary}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

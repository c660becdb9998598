"""Run configuration: flat ``section.key = value`` text files.

The format is deliberately minimal so that run artifacts diff cleanly:
one assignment per line, ``#`` comments, no nesting.  Parsing is strict
(unknown keys are rejected) and collects *all* problems -- every error
carries the line number it came from -- instead of stopping at the first.

Recognised keys, with their defaults:

    problem.a = 0.0           problem.b = 1.0         problem.T = 1.0
    problem.u0 = sin(pi*x)    problem.u1 = 0          problem.f = 0
    problem.scheme = integral
    kernel.type = wedge       # wedge | prony | tabulated | expression
    kernel.g0 = 2.0           kernel.ginf = 1.0       kernel.a = 1.0
    kernel.terms = 1:0.5      # prony: comma list of g:tau pairs
    kernel.csv = <path>       # tabulated: two-column CSV (t, G)
    kernel.expression = 1 + exp(-2*t)
    kernel.epsilon =          # optional: mollify the base kernel
    discretization.n_interior = 127
    discretization.n_steps = 512
    discretization.stride = 1
    scenario.epsilon_list = 0.1,0.05,0.025
    scenario.a_list = 0.1,0.05,0.025
    scenario.levels = 3
    scenario.study = manufactured   # convergence: manufactured | self
    output.directory = out
    output.stride = 1
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expressions
from .grids import Grid
from .kernels import (
    ExpressionKernel,
    PronyKernel,
    RelaxationKernel,
    TabulatedKernel,
    WedgeKernel,
)
from .mollify import MollifiedKernel
from .solver import ProblemSpec

KERNEL_TYPES = ("wedge", "prony", "tabulated", "expression")
STUDIES = ("manufactured", "self")

#: keys every kernel variant accepts, and the variant-specific ones
_KERNEL_COMMON = {"kernel.type", "kernel.epsilon"}
_KERNEL_KEYS = {
    "wedge": {"kernel.g0", "kernel.ginf", "kernel.a"},
    "prony": {"kernel.ginf", "kernel.terms"},
    "tabulated": {"kernel.csv"},
    "expression": {"kernel.expression"},
}

_DEFAULTS: dict[str, str] = {
    "problem.a": "0.0",
    "problem.b": "1.0",
    "problem.T": "1.0",
    "problem.u0": "sin(pi*x)",
    "problem.u1": "0",
    "problem.f": "0",
    "problem.scheme": "integral",
    "kernel.type": "wedge",
    "kernel.g0": "2.0",
    "kernel.ginf": "1.0",
    "kernel.a": "1.0",
    "kernel.terms": "1:0.5",
    "kernel.csv": "",
    "kernel.expression": "1 + exp(-2*t)",
    "kernel.epsilon": "",
    "discretization.n_interior": "127",
    "discretization.n_steps": "512",
    "discretization.stride": "1",
    "scenario.epsilon_list": "0.1,0.05,0.025",
    "scenario.a_list": "0.1,0.05,0.025",
    "scenario.levels": "3",
    "scenario.study": "manufactured",
    "output.directory": "out",
    "output.stride": "1",
}


class ConfigError(ValueError):
    """One or more configuration problems; ``errors`` is a list of
    (line_number, message), line 0 meaning 'not tied to a line'."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = sorted(errors)
        lines = "\n".join(f"  line {ln}: {msg}" if ln else f"  {msg}" for ln, msg in self.errors)
        super().__init__(f"invalid configuration:\n{lines}")


@dataclass
class RunConfig:
    """Validated configuration with the kernel already constructed."""

    domain_a: float
    domain_b: float
    horizon: float
    u0: str
    u1: str
    f: str
    scheme: str
    kernel: RelaxationKernel        # final kernel (mollified if requested)
    base_kernel: RelaxationKernel   # before optional mollification
    kernel_epsilon: float | None
    n_interior: int
    n_steps: int
    save_stride: int
    epsilon_list: tuple[float, ...]
    a_list: tuple[float, ...]
    levels: int
    study: str
    out_dir: str
    output_stride: int
    resolved: dict[str, str]        # effective key = value echo

    def grid(self, n_interior: int | None = None) -> Grid:
        return Grid(self.domain_a, self.domain_b, n_interior or self.n_interior)

    def problem_spec(
        self,
        n_interior: int | None = None,
        n_steps: int | None = None,
        kernel: RelaxationKernel | None = None,
        scheme: str | None = None,
    ) -> ProblemSpec:
        """ProblemSpec for this configuration, with scenario overrides."""
        return ProblemSpec(
            grid=self.grid(n_interior),
            horizon=self.horizon,
            n_steps=n_steps or self.n_steps,
            kernel=kernel if kernel is not None else self.kernel,
            u0=self.u0,
            u1=self.u1,
            f=self.f,
            scheme=scheme or self.scheme,
            save_stride=self.save_stride,
        )


def _parse_lines(text: str, errors: list) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append((ln, f"expected 'section.key = value', got {line!r}"))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            errors.append((ln, f"unknown key {key!r}"))
            continue
        if key in entries:
            errors.append((ln, f"duplicate key {key!r} (first set on line {entries[key][1]})"))
            continue
        entries[key] = (value, ln)
    return entries


class _Reader:
    """Typed access to the merged (defaults + file) key table."""

    def __init__(self, entries: dict[str, tuple[str, int]], errors: list):
        self.entries = entries
        self.errors = errors
        self.failed: set[str] = set()  # keys whose value did not parse

    def line(self, key: str) -> int:
        return self.entries.get(key, ("", 0))[1]

    def raw(self, key: str) -> str:
        return self.entries.get(key, (_DEFAULTS[key], 0))[0]

    def ok(self, *keys: str) -> bool:
        """True when none of *keys* already failed (avoids cascade errors)."""
        return not any(k in self.failed for k in keys)

    def floating(self, key: str) -> float:
        try:
            return float(self.raw(key))
        except ValueError:
            self.failed.add(key)
            self.errors.append((self.line(key), f"{key}: expected a number, got {self.raw(key)!r}"))
            return float("nan")

    def integer(self, key: str) -> int:
        try:
            return int(self.raw(key))
        except ValueError:
            self.failed.add(key)
            self.errors.append((self.line(key), f"{key}: expected an integer, got {self.raw(key)!r}"))
            return 0

    def float_list(self, key: str) -> tuple[float, ...]:
        try:
            return tuple(float(part) for part in self.raw(key).split(","))
        except ValueError:
            self.errors.append(
                (self.line(key), f"{key}: expected comma-separated numbers, got {self.raw(key)!r}")
            )
            return ()

    def choice(self, key: str, valid: tuple[str, ...]) -> str:
        value = self.raw(key)
        if value not in valid:
            self.errors.append(
                (self.line(key), f"{key}: unknown value {value!r}; valid: {', '.join(valid)}")
            )
            return valid[0]
        return value

    def expression(self, key: str, allowed: set[str]) -> str:
        source = self.raw(key)
        try:
            expr = expressions.parse(source)
            extra = expressions.variables(expr) - allowed
            if extra:
                self.errors.append(
                    (self.line(key), f"{key}: may only use {sorted(allowed)}, found {sorted(extra)}")
                )
        except expressions.ParseError as exc:
            self.errors.append((self.line(key), f"{key}: {exc}"))
        return source


def _build_kernel(reader: _Reader, base_dir: Path, errors: list):
    ktype = reader.choice("kernel.type", KERNEL_TYPES)
    allowed = _KERNEL_COMMON | _KERNEL_KEYS[ktype]
    for key in reader.entries:
        if key.startswith("kernel.") and key not in allowed:
            errors.append(
                (reader.line(key), f"{key} is not valid for kernel.type = {ktype}")
            )
    base: RelaxationKernel | None = None
    try:
        if ktype == "wedge":
            base = WedgeKernel(
                reader.floating("kernel.g0"),
                reader.floating("kernel.ginf"),
                reader.floating("kernel.a"),
            )
        elif ktype == "prony":
            terms = []
            for part in reader.raw("kernel.terms").split(","):
                g_str, _, tau_str = part.partition(":")
                terms.append((float(g_str), float(tau_str)))
            base = PronyKernel(reader.floating("kernel.ginf"), tuple(terms))
        elif ktype == "tabulated":
            path = reader.raw("kernel.csv")
            if not path:
                errors.append((reader.line("kernel.type"), "tabulated kernel needs kernel.csv"))
            else:
                data = np.loadtxt(base_dir / path, delimiter=",", comments="#", ndmin=2)
                if data.shape[1] != 2:
                    raise ValueError(f"{path}: expected two columns (t, G)")
                base = TabulatedKernel(data[:, 0], data[:, 1])
        else:
            source = reader.raw("kernel.expression")
            base = ExpressionKernel(source)
    except (ValueError, OSError) as exc:
        # a number that failed to parse is reported already, not its NaN stand-in
        if reader.ok("kernel.g0", "kernel.ginf", "kernel.a"):
            errors.append((reader.line(f"kernel.{'csv' if ktype == 'tabulated' else 'type'}") or 0,
                           f"kernel: {exc}"))
        base = None

    epsilon: float | None = None
    eps_raw = reader.raw("kernel.epsilon")
    if eps_raw:
        try:
            epsilon = float(eps_raw)
            if not 0.0 < epsilon < np.inf:  # also fails for NaN
                errors.append(
                    (reader.line("kernel.epsilon"), "kernel.epsilon must be finite and positive")
                )
                epsilon = None
        except ValueError:
            errors.append(
                (reader.line("kernel.epsilon"), f"kernel.epsilon: expected a number, got {eps_raw!r}")
            )
    kernel = base
    if base is not None and epsilon is not None:
        kernel = MollifiedKernel(base, epsilon)
    return ktype, base, kernel, epsilon


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse and validate configuration text.

    Raises :class:`ConfigError` carrying every problem found (unknown
    keys, type mismatches, unparseable expressions, bad ranges), each
    with its line number.
    """
    errors: list[tuple[int, str]] = []
    entries = _parse_lines(text, errors)
    reader = _Reader(entries, errors)
    base_dir = Path(base_dir)

    domain_a = reader.floating("problem.a")
    domain_b = reader.floating("problem.b")
    horizon = reader.floating("problem.T")
    for key, value in (("problem.a", domain_a), ("problem.b", domain_b), ("problem.T", horizon)):
        if reader.ok(key) and not np.isfinite(value):
            errors.append((reader.line(key), f"{key} must be finite, got {reader.raw(key)}"))
    if np.isfinite(domain_a) and np.isfinite(domain_b) and not 0.0 < domain_b - domain_a < np.inf:
        errors.append((reader.line("problem.b"), "problem domain needs b > a and finite b - a"))
    if np.isfinite(horizon) and horizon <= 0.0:
        errors.append((reader.line("problem.T"), "problem.T must be positive"))

    u0 = reader.expression("problem.u0", {"x"})
    u1 = reader.expression("problem.u1", {"x"})
    f = reader.expression("problem.f", {"x", "t"})
    scheme = reader.choice("problem.scheme", ("integral", "differential"))

    ktype, base_kernel, kernel, epsilon = _build_kernel(reader, base_dir, errors)

    n_interior = reader.integer("discretization.n_interior")
    n_steps = reader.integer("discretization.n_steps")
    save_stride = reader.integer("discretization.stride")
    if reader.ok("discretization.n_interior") and n_interior < 1:
        errors.append((reader.line("discretization.n_interior"), "need n_interior >= 1"))
    if reader.ok("discretization.n_steps") and n_steps < 2:
        errors.append((reader.line("discretization.n_steps"), "need n_steps >= 2"))
    if reader.ok("discretization.stride") and save_stride < 1:
        errors.append((reader.line("discretization.stride"), "need stride >= 1"))
    elif reader.ok("discretization.stride", "discretization.n_steps") and \
            n_steps >= 2 and n_steps % save_stride:
        errors.append((reader.line("discretization.stride"), "stride must divide n_steps"))

    epsilon_list = reader.float_list("scenario.epsilon_list")
    a_list = reader.float_list("scenario.a_list")
    levels = reader.integer("scenario.levels")
    study = reader.choice("scenario.study", STUDIES)
    if not all(0.0 < e < np.inf for e in epsilon_list):
        errors.append(
            (reader.line("scenario.epsilon_list"), "smoothing widths must be finite and positive")
        )
    if not all(0.0 < a < np.inf for a in a_list):
        errors.append((reader.line("scenario.a_list"), "ramp times must be finite and positive"))

    out_dir = reader.raw("output.directory")
    output_stride = reader.integer("output.stride")
    if reader.ok("output.stride") and output_stride < 1:
        errors.append((reader.line("output.stride"), "need output.stride >= 1"))

    if errors:
        raise ConfigError(errors)
    assert kernel is not None and base_kernel is not None

    resolved = {key: reader.raw(key) for key in _DEFAULTS}
    resolved["kernel.type"] = ktype
    return RunConfig(
        domain_a=domain_a,
        domain_b=domain_b,
        horizon=horizon,
        u0=u0,
        u1=u1,
        f=f,
        scheme=scheme,
        kernel=kernel,
        base_kernel=base_kernel,
        kernel_epsilon=epsilon,
        n_interior=n_interior,
        n_steps=n_steps,
        save_stride=save_stride,
        epsilon_list=epsilon_list,
        a_list=a_list,
        levels=levels,
        study=study,
        out_dir=out_dir,
        output_stride=output_stride,
        resolved=resolved,
    )

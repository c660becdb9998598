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
    kernel.epsilon =          # optional: mollify the base kernel; > 1e-12
    discretization.n_interior = 127
    discretization.n_steps = 512
    discretization.stride = 1                # save every k-th step; divides n_steps
    scenario.epsilon_list = 0.1,0.05,0.025   # strictly decreasing, > 1e-12, 2*eps <= 1
    scenario.a_list = 0.1,0.05,0.025         # strictly decreasing
    scenario.levels = 3                      # at least 3
    scenario.study = manufactured   # convergence: manufactured | self
    output.directory = out
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
    require_positive,
)
from .mollify import MIN_WIDTH, MollifiedKernel
from .solver import SCHEMES, ConfigurationError, ProblemSpec, check_size


class ConfigError(ValueError):
    """One or more configuration problems; ``errors`` is a list of
    (line_number, message), line 0 meaning 'not tied to a line'."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = sorted(errors)
        lines = "\n".join(f"  line {ln}: {msg}" if ln else f"  {msg}" for ln, msg in self.errors)
        super().__init__(f"invalid configuration:\n{lines}")


@dataclass
class RunConfig:
    """Validated configuration with the kernel already constructed.  Each
    decision is held once: a mollified kernel carries its base and width
    (``MollifiedKernel.base`` and ``.epsilon``)."""

    domain_a: float
    domain_b: float
    horizon: float
    u0: str
    u1: str
    f: str
    scheme: str
    kernel: RelaxationKernel        # final kernel (mollified if requested)
    n_interior: int
    n_steps: int
    save_stride: int
    epsilon_list: tuple[float, ...]
    a_list: tuple[float, ...]
    levels: int
    study: str
    out_dir: str
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


# ---------------------------------------------------------------------------
# readers: (key, raw text) -> value, or ValueError with the finished message
# ---------------------------------------------------------------------------

def _number(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key}: expected a number, got {raw!r}") from None


def _finite(key: str, raw: str) -> float:
    value = _number(key, raw)
    if not np.isfinite(value):
        raise ValueError(f"{key} must be finite, got {raw}")
    return value


def _positive(key: str, raw: str) -> float:
    return require_positive(key, _number(key, raw))


def _nonnegative(key: str, raw: str) -> float:
    return require_positive(key, _number(key, raw), allow_zero=True)


def _at_least(minimum: int):
    def read(key: str, raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{key}: expected an integer, got {raw!r}") from None
        if value < minimum:
            raise ValueError(f"need {key} >= {minimum}")
        return value
    return read


def _decreasing(key: str, raw: str) -> tuple[float, ...]:
    """A comma list of finite positive numbers in strictly decreasing order."""
    try:
        values = tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(f"{key}: expected comma-separated numbers, got {raw!r}") from None
    for value in values:
        require_positive(key, value)
    if any(a <= b for a, b in zip(values, values[1:])):
        raise ValueError(f"{key} must be strictly decreasing")
    return values


def _width(key: str, value: float) -> float:
    """A smoothing width above the mollifier's floor MIN_WIDTH."""
    if require_positive(key, value) <= MIN_WIDTH:
        raise ValueError(f"{key}: smoothing width {value} is not above {MIN_WIDTH}")
    return value


def _epsilon(key: str, raw: str) -> float | None:
    return _width(key, _number(key, raw)) if raw else None


def _widths(key: str, raw: str) -> tuple[float, ...]:
    """Smoothing widths; the floor G_eps(t) >= G(1 + T) holds for 2*eps <= 1."""
    values = _decreasing(key, raw)
    if 2.0 * values[0] > 1.0:
        raise ValueError(f"{key}: smoothing widths must satisfy 2*epsilon <= 1")
    _width(key, values[-1])
    return values


def _pairs(key: str, raw: str) -> tuple[tuple[float, float], ...]:
    try:
        return tuple((float(g), float(tau)) for g, tau in (p.split(":") for p in raw.split(",")))
    except ValueError:
        raise ValueError(f"{key}: expected comma-separated g:tau pairs, got {raw!r}") from None


def _choice(*valid: str):
    def read(key: str, raw: str) -> str:
        if raw not in valid:
            raise ValueError(f"{key}: unknown value {raw!r}; valid: {', '.join(valid)}")
        return raw
    return read


def _expression(*variables: str):
    def read(key: str, raw: str) -> str:
        try:
            expressions.parse(raw, variables)
        except expressions.ParseError as exc:
            raise ValueError(f"{key}: {exc}") from None
        return raw
    return read


def _text(key: str, raw: str) -> str:
    return raw


#: the keys each kernel.type reads; the last one is where an error of the
#: kernel's own construction is reported
_KERNEL_KEYS = {
    "wedge": ("kernel.g0", "kernel.ginf", "kernel.a"),
    "prony": ("kernel.ginf", "kernel.terms"),
    "tabulated": ("kernel.csv",),
    "expression": ("kernel.expression",),
}
_VARIANT_KEYS = set().union(*_KERNEL_KEYS.values())

#: every key: (default text, reader, the RunConfig field it fills or None
#: for a key of the kernel)
_KEYS = {
    "problem.a": ("0.0", _finite, "domain_a"),
    "problem.b": ("1.0", _finite, "domain_b"),
    "problem.T": ("1.0", _finite, "horizon"),
    "problem.u0": ("sin(pi*x)", _expression("x"), "u0"),
    "problem.u1": ("0", _expression("x"), "u1"),
    "problem.f": ("0", _expression("x", "t"), "f"),
    "problem.scheme": ("integral", _choice(*SCHEMES), "scheme"),
    "kernel.type": ("wedge", _choice(*_KERNEL_KEYS), None),
    "kernel.g0": ("2.0", _positive, None),
    "kernel.ginf": ("1.0", _positive, None),
    "kernel.a": ("1.0", _positive, None),
    "kernel.terms": ("1:0.5", _pairs, None),
    "kernel.csv": ("", _text, None),
    "kernel.expression": ("1 + exp(-2*t)", _expression("t"), None),
    "kernel.epsilon": ("", _epsilon, None),
    "discretization.n_interior": ("127", _at_least(1), "n_interior"),
    "discretization.n_steps": ("512", _at_least(2), "n_steps"),
    "discretization.stride": ("1", _at_least(1), "save_stride"),
    "scenario.epsilon_list": ("0.1,0.05,0.025", _widths, "epsilon_list"),
    "scenario.a_list": ("0.1,0.05,0.025", _decreasing, "a_list"),
    "scenario.levels": ("3", _at_least(3), "levels"),
    "scenario.study": ("manufactured", _choice("manufactured", "self"), "study"),
    "output.directory": ("out", _text, "out_dir"),
}


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
        if key not in _KEYS:
            errors.append((ln, f"unknown key {key!r}"))
            continue
        if key in entries:
            errors.append((ln, f"duplicate key {key!r} (first set on line {entries[key][1]})"))
            continue
        entries[key] = (value, ln)
    return entries


def _build_kernel(ktype: str, values: dict, base_dir: Path) -> RelaxationKernel:
    if ktype == "wedge":
        return WedgeKernel(values["kernel.g0"], values["kernel.ginf"], values["kernel.a"])
    if ktype == "prony":
        return PronyKernel(values["kernel.ginf"], values["kernel.terms"])
    if ktype == "expression":
        return ExpressionKernel(values["kernel.expression"])
    path = values["kernel.csv"]
    if not path:
        raise ValueError("a tabulated kernel needs a CSV path")
    data = np.loadtxt(base_dir / path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (t, G)")
    return TabulatedKernel(data[:, 0], data[:, 1])


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse and validate configuration text.

    Raises :class:`ConfigError` carrying every problem found (unknown
    keys, type mismatches, unparseable expressions, bad ranges), each
    with its line number.
    """
    errors: list[tuple[int, str]] = []
    entries = _parse_lines(text, errors)
    raw = {key: entries.get(key, (default, 0))[0] for key, (default, *_) in _KEYS.items()}

    def line(key: str) -> int:
        return entries.get(key, ("", 0))[1]

    # each key is read once; a key that fails is left out of ``values``, so
    # the checks below that need it are skipped instead of cascading
    ktype = raw["kernel.type"]
    own = _KERNEL_KEYS.get(ktype, ())
    values = {}
    for key, (_, reader, _) in _KEYS.items():
        if key in _VARIANT_KEYS and key not in own:
            if key in entries and own:
                errors.append((line(key), f"{key} is not valid for kernel.type = {ktype}"))
            continue
        if key == "kernel.ginf" and ktype == "prony":
            reader = _nonnegative  # a Prony series may relax to zero
        try:
            values[key] = reader(key, raw[key])
        except ValueError as exc:
            errors.append((line(key), str(exc)))

    kernel = None
    if own and all(key in values for key in own):
        try:
            kernel = _build_kernel(ktype, values, Path(base_dir))
            if values.get("kernel.epsilon"):
                kernel = MollifiedKernel(kernel, values["kernel.epsilon"])
        except (ValueError, ArithmeticError, OSError) as exc:
            # an unset kernel.csv has no line of its own
            errors.append((line(own[-1]) or line("kernel.type"), f"{own[-1]}: {exc}"))

    a, b, horizon = (values.get(key) for key in ("problem.a", "problem.b", "problem.T"))
    if a is not None and b is not None and not 0.0 < b - a < np.inf:
        errors.append((line("problem.b"), "problem domain needs b > a and finite b - a"))
    if horizon is not None and horizon <= 0.0:
        errors.append((line("problem.T"), "problem.T must be positive"))
    n_steps, stride = values.get("discretization.n_steps"), values.get("discretization.stride")
    if n_steps is not None and stride is not None and n_steps % stride:
        errors.append((line("discretization.stride"), "stride must divide n_steps"))
    n_interior, f = values.get("discretization.n_interior"), values.get("problem.f")
    if n_steps is not None and n_interior is not None and f is not None:
        try:
            check_size(n_interior, n_steps, not expressions.is_zero(expressions.parse(f)))
        except ConfigurationError as exc:
            errors.append((line("discretization.n_steps") or line("discretization.n_interior"),
                           f"discretization: {exc}"))

    if errors:
        raise ConfigError(errors)
    return RunConfig(kernel=kernel, resolved=raw,
                     **{field: values[key] for key, (_, _, field) in _KEYS.items() if field})

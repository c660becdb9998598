"""Spans around the calls into viscokern's modules, recorded from outside.

The program is not changed: :func:`install` replaces the public functions
of each module (and the names ``cli`` imported from them) with wrappers
that record a span per call -- name, start, end, parent -- and restores the
originals afterwards.  A layer's time is its self time, the span's duration
minus the time of its child spans, accumulated while the spans close.

``expressions.evaluate`` runs once per sample point, millions of times in a
run, so its spans are only counted and timed, not kept.  Its recursion goes
to a private copy of the function whose globals point at the copy itself:
the inner nodes of a tree walk therefore pay nothing and the walk counts
once, at the outermost call.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
import types
from collections import defaultdict

#: (module, attribute or Class.method, layer) for every wrapped callable.
#: ``cli`` imported several of these by name, so they are patched there too.
TARGETS = (
    ("config", "parse_config", "config.parse"),
    ("solver", "solve", "solver"),
    ("solver", "solve_integral", "solver"),
    ("solver", "solve_differential", "solver"),
    ("solver", "l2_distance", "solver"),
    ("solver", "l2_error_vs", "solver"),
    ("solver", "l2_norm", "solver"),
    ("solver", "manufactured_prony", "solver"),
    ("solver", "cfl_limit", "solver"),
    ("solver", "_sample_x", "solver"),
    ("solver", "_l2_space_time", "solver"),
    ("kernels", "WedgeKernel.g", "kernels.table"),
    ("kernels", "WedgeKernel.gdot", "kernels.table"),
    ("kernels", "PronyKernel.g", "kernels.table"),
    ("kernels", "PronyKernel.gdot", "kernels.table"),
    ("kernels", "PronyKernel.gddot", "kernels.table"),
    ("kernels", "TabulatedKernel.g", "kernels.table"),
    ("kernels", "TabulatedKernel.gdot", "kernels.table"),
    ("kernels", "ExpressionKernel.g", "kernels.table"),
    ("kernels", "ExpressionKernel.gdot", "kernels.table"),
    ("kernels", "IntegratedKernel.value", "kernels.table"),
    ("kernels", "IntegratedKernel.cumulative", "kernels.table"),
    ("kernels", "check_admissibility", "kernels.admissibility"),
    ("mollify", "MollifiedKernel.g", "mollify.eval"),
    ("mollify", "MollifiedKernel.gdot", "mollify.eval"),
    ("mollify", "MollifiedKernel.gddot", "mollify.eval"),
    ("mollify", "sup_distance_K", "mollify.sup_distance"),
    ("energy", "energy_series", "energy.series"),
    ("energy", "identity_residual", "energy.residual"),
    ("cli", "write_csv", "cli.write"),
    ("cli", "write_meta", "cli.write"),
)

#: solver entry points whose spec gives the problem size (nx * N)
SOLVE_ENTRIES = {"solver.solve", "solver.solve_integral", "solver.solve_differential"}


class Tracer:
    """Span stack plus per-layer self time, call counts and kept spans."""

    def __init__(self):
        self.stack: list[list] = []   # [name, start, child_time, span_id]
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.node_steps = 0           # sum of nx * N over outermost solves
        self.solve_s = 0.0            # inclusive time of those solves
        self.peak_bytes = 0           # tracemalloc peak inside solves
        self.measure_memory = False

    def reset(self) -> None:
        self.__init__()

    def wrap(self, name: str, layer: str, fn, keep: bool = True):
        tracer = self
        is_solve = name in SOLVE_ENTRIES

        def traced(*args, **kwargs):
            stack = tracer.stack
            outer_solve = is_solve and not any(f[0] in SOLVE_ENTRIES for f in stack)
            if outer_solve and tracer.measure_memory:
                tracemalloc.start()
            frame = [name, time.perf_counter(), 0.0, len(tracer.spans) if keep else -1]
            if keep:
                tracer.spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.self_s[layer] += duration - frame[2]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if keep:
                    parent = stack[-1][3] if stack else -1
                    tracer.spans[frame[3]] = (frame[3], name, frame[1], end, parent)
                if outer_solve:
                    spec = args[0]
                    tracer.node_steps += spec.grid.n_interior * spec.n_steps
                    tracer.solve_s += duration
                    if tracer.measure_memory:
                        tracer.peak_bytes = max(tracer.peak_bytes,
                                                tracemalloc.get_traced_memory()[1])
                        tracemalloc.stop()

        traced.__wrapped__ = fn
        return traced

    def root(self, fn, *args):
        """Run *fn* under a root span ``cli.main``; returns (result, seconds)."""
        wrapped = self.wrap("cli.main", "cli", fn)
        started = time.perf_counter()
        result = wrapped(*args)
        return result, time.perf_counter() - started


def _self_recursive_copy(fn):
    """Copy of *fn* whose global name resolves to the copy itself."""
    namespace = dict(fn.__globals__)
    clone = types.FunctionType(fn.__code__, namespace, fn.__name__,
                               fn.__defaults__, fn.__closure__)
    clone.__kwdefaults__ = fn.__kwdefaults__
    namespace[fn.__name__] = clone
    return clone


class Installed:
    """The patches made by :func:`install`; ``restore()`` undoes them and
    ``reinstall()`` makes them again."""

    def __init__(self):
        self._patches: list[tuple[object, str, object, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], value))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def reinstall(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)


def install(tracer: Tracer) -> Installed:
    """Wrap every target in :data:`TARGETS` plus ``expressions.evaluate``."""
    mod = {name: importlib.import_module(f"viscokern.{name}")
           for name in ("cli", "config", "energy", "expressions", "kernels",
                        "mollify", "solver")}
    patches = Installed()
    for module_name, target, layer in TARGETS:
        module = mod[module_name]
        span_name = f"{module_name}.{target}"
        if "." in target:
            cls_name, method = target.split(".")
            cls = getattr(module, cls_name)
            patches.set(cls, method, tracer.wrap(span_name, layer, cls.__dict__[method]))
            continue
        original = module.__dict__[target]
        wrapped = tracer.wrap(span_name, layer, original)
        patches.set(module, target, wrapped)
        cli = mod["cli"]
        if module is not cli and cli.__dict__.get(target) is original:
            patches.set(cli, target, wrapped)
    expressions = mod["expressions"]
    evaluate = tracer.wrap("expressions.evaluate", "expressions.eval",
                           _self_recursive_copy(expressions.evaluate), keep=False)
    patches.set(expressions, "evaluate", evaluate)
    return patches

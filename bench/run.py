"""Benchmark of viscokern: seeded workloads through the CLI and the library.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree; the package is imported from ``src/``
of that tree, and the CLI runs as ``python3 -c 'from viscokern.cli import
main; ...'`` with ``PYTHONPATH=src``, which is what the ``viscokern``
console script does.

``--trace 0`` measures the end-to-end metrics.  Every round of the timed
loop runs, one after another and from this one process:

* one set-up probe, a fresh interpreter timing ``import viscokern``
  plus ``parse_config`` of the workload's configuration (``setup_s``);
* one CLI process, timed from spawn to exit (``cli_run_s``), with its peak
  resident size from ``wait4`` (``peak_rss_mb``);
* the host calibration loops (printed, not a metric);
* one warm in-process ``cli.main`` call (``study_s``).

Rounds repeat until ``--seconds`` have passed.  ``cli_run_s`` and
``study_s`` report the upper quartile of their samples, ``setup_s`` and
``peak_rss_mb`` the median (``REDUCE``).  The output of every scenario
run is checked against values the benchmark computes itself (see
``workloads.py``).

``--trace 1`` measures the per-layer metrics in a separate run: spans
around the calls into each module (see ``tracing.py``), the import-time
breakdown of ``python -X importtime`` and a tracemalloc pass over the
solves.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer, install

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PROBE = BENCH / "probe_setup.py"
CLI_ENTRY = "import sys; from viscokern.cli import main; sys.exit(main())"

#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120.0


def upper_quartile(values) -> float:
    """Third quartile, interpolated between the samples."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=4, method="inclusive")[2]


END_TO_END = (("cli_run_s", "s"), ("study_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: how a run reduces each end-to-end metric's samples.  On a shared host
#: the scenario times are slowed by other tenants most of the time and run
#: up to 1.6x faster in short phases when they are idle; the share of fast
#: samples in a run swings from run to run.  The upper quartile reads the
#: usual, loaded speed as long as a quarter of a run's samples are loaded,
#: so it moves less between runs than the mean or the median (README,
#: "Host drift").  Set-up and peak RSS keep the median.
REDUCE = {"cli_run_s": upper_quartile, "study_s": upper_quartile,
          "setup_s": statistics.median, "peak_rss_mb": statistics.median}
PER_LAYER = (
    ("setup.import_s", "s"), ("setup.import_scipy_s", "s"), ("config.parse_s", "s"),
    ("solver.self_s", "s"), ("solver.node_steps_per_s", "1/s"), ("solver.peak_mb", "MB"),
    ("kernels.table_s", "s"), ("kernels.admissibility_s", "s"),
    ("mollify.eval_s", "s"), ("mollify.sup_distance_s", "s"),
    ("expressions.eval_s", "s"), ("expressions.eval_points", "count"),
    ("energy.series_s", "s"), ("energy.residual_s", "s"), ("energy.series_calls", "count"),
    ("cli.write_s", "s"), ("traced.total_s", "s"),
)


class Tally:
    """Operations attempted and failed, and whether outputs were right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, what: str, failure: list[str], problems: list[str] = ()) -> bool:
        """Count one operation; True when it succeeded with correct output."""
        self.attempted += 1
        if failure:
            self.failed += 1
            print(f"bench: {what} failed: {'; '.join(failure)}", file=sys.stderr)
            return False
        if problems:
            self.correct = False
            print(f"bench: {what} output is wrong: {'; '.join(problems)}", file=sys.stderr)
            return False
        return True


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], stdout, stderr) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB).

    ``wait4`` blocks until exit and returns the child's own resource usage;
    a timer thread kills a child that hangs."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


class Runner:
    """The operations of one benchmark run on one workload."""

    def __init__(self, wl: workloads.Workload, work: Path, tally: Tally):
        self.wl = wl
        self.work = work
        self.tally = tally
        self.config = work / "config.txt"
        self.config.write_text(wl.config)
        import viscokern.cli

        self.cli = viscokern.cli

    def setup_probe(self) -> dict | None:
        with open(self.work / "probe.out", "w+") as out, open(self.work / "probe.err", "w+") as err:
            code, _, _ = spawn([sys.executable, str(PROBE), str(self.config)], out, err)
            out.seek(0)
            err.seek(0)
            lines = out.read().splitlines()
            failure = [f"exit code {code}: {err.read().strip()[-500:]}"] if code else []
        sample = json.loads(lines[-1]) if not failure and lines else None
        problems = []
        if sample is not None and Path(sample["package"]).resolve().parent != SRC / "viscokern":
            problems.append(f"imported viscokern from {sample['package']}, not from {SRC}")
        if not self.tally.record("set-up probe", failure or ([] if sample else ["no output"]),
                                 problems):
            return None
        return sample

    def cli_run(self) -> tuple[float, float] | None:
        out_dir = self.work / "cli"
        shutil.rmtree(out_dir, ignore_errors=True)
        with open(self.work / "cli.err", "w+") as err:
            argv = [self.wl.scenario, "--config", str(self.config), "--out", str(out_dir)]
            code, elapsed, rss = spawn([sys.executable, "-c", CLI_ENTRY, *argv],
                                       subprocess.DEVNULL, err)
            err.seek(0)
            failure = workloads.check_exit(code)
            if failure:
                failure.append(err.read().strip()[-500:])
        ok = self.tally.record("CLI run", failure, [] if failure else self.wl.check(out_dir))
        return (elapsed, rss) if ok else None

    def study(self, run=None) -> float | None:
        """One in-process ``cli.main`` call; *run* may wrap it (tracing)."""
        out_dir = self.work / "study"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [self.wl.scenario, "--config", str(self.config), "--out", str(out_dir)]
        sink = io.StringIO()
        call = run or (lambda fn, args: (fn(args), None))
        failure: list[str] = []
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                started = time.perf_counter()
                code, inner = call(self.cli.main, argv)
                elapsed = time.perf_counter() - started
            failure = workloads.check_exit(code)
        except Exception as exc:  # a crash of the program is a failed operation
            failure = [f"{type(exc).__name__}: {exc}"]
        if failure:
            failure.append(sink.getvalue().strip()[-500:])
        ok = self.tally.record("in-process study", failure,
                               [] if failure else self.wl.check(out_dir))
        if not ok:
            return None
        return inner if inner is not None else elapsed


def calibration() -> tuple[float, float]:
    """Seconds of a fixed pure-Python loop and of a fixed numpy loop."""
    started = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += (i % 7) * 0.5
    python_s = time.perf_counter() - started
    a = np.full(1 << 19, 1.0)
    started = time.perf_counter()
    for _ in range(20):
        a = a * 1.0000001 + 0.5
    numpy_s = time.perf_counter() - started
    return python_s, numpy_s


def print_calibration(python_s: list[float], numpy_s: list[float]) -> None:
    print(f"calibration (host speed, not a metric): python loop "
          f"{1e3 * median(python_s):.3f} ms, numpy loop {1e3 * median(numpy_s):.3f} ms, "
          f"median of {len(python_s)}")


def host_facts() -> dict:
    """What the figures depend on besides the program: cores, Python, BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": {k: v for k, v in os.environ.items()
                                 if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def timed_rounds(seconds: float, body) -> int:
    """Call *body* in whole rounds until *seconds* have passed; a round is
    started only when it is expected to end before the deadline plus half
    a round.  At least one round runs."""
    deadline = time.perf_counter() + seconds
    rounds, last = 0, 0.0
    while rounds == 0 or time.perf_counter() + 0.5 * last < deadline:
        started = time.perf_counter()
        body()
        last = time.perf_counter() - started
        rounds += 1
    return rounds


def run_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {"setup_s": [], "cli_run_s": [], "study_s": [],
                                       "peak_rss_mb": [], "calib_python_s": [],
                                       "calib_numpy_s": []}
    runner.wl.reference()
    runner.study()  # first-call costs stay out of study_s

    def one_round():
        probe = runner.setup_probe()
        if probe:
            samples["setup_s"].append(probe["import_s"] + probe["parse_s"])
        cli = runner.cli_run()
        if cli:
            samples["cli_run_s"].append(cli[0])
            samples["peak_rss_mb"].append(cli[1])
        py_s, np_s = calibration()
        samples["calib_python_s"].append(py_s)
        samples["calib_numpy_s"].append(np_s)
        study = runner.study()
        if study is not None:
            samples["study_s"].append(study)

    rounds = timed_rounds(seconds, one_round)
    metrics = {name: {"value": float(REDUCE[name](samples[name])) if samples[name]
                      else float("nan"), "unit": unit}
               for name, unit in END_TO_END}
    print_calibration(samples["calib_python_s"], samples["calib_numpy_s"])
    return metrics, {"rounds": rounds, "samples": samples}


def scipy_import_s() -> float | None:
    """Cumulative import time of the outermost ``scipy*`` modules under
    ``python -X importtime -c 'import viscokern'``."""
    code = subprocess.run([sys.executable, "-X", "importtime", "-c", "import viscokern"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if code.returncode:
        return None
    rows = []
    for line in code.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((level, name.strip(), int(cumulative)))
    total_us, stack = 0, []
    for level, name, cumulative in reversed(rows):  # parents before children
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total_us += cumulative
        stack.append((level, name))
    return total_us * 1e-6


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    tally = runner.tally
    deadline = time.perf_counter() + seconds
    probes = [p for p in (runner.setup_probe() for _ in range(3)) if p]
    scipy_s = [s for s in (scipy_import_s() for _ in range(3)) if s is not None]
    tally.attempted += 3
    tally.failed += 3 - len(scipy_s)
    runner.wl.reference()
    runner.study()  # warm-up

    tracer = Tracer()
    patches = install(tracer)
    untraced: list[float] = []
    passes: list[dict] = []
    calib: tuple[list[float], list[float]] = ([], [])
    try:
        tracer.measure_memory = True
        runner.study(run=lambda fn, argv: tracer.root(fn, argv))
        peak_mb = tracer.peak_bytes / 2**20

        def one_pass():
            # the untraced study of each pass is the base of the overhead
            patches.restore()
            for series, value in zip(calib, calibration()):
                series.append(value)
            plain = runner.study()
            if plain is not None:
                untraced.append(plain)
            patches.reinstall()
            tracer.reset()
            elapsed = runner.study(run=lambda fn, argv: tracer.root(fn, argv))
            if elapsed is None:
                return
            s = tracer.self_s
            passes.append({
                "solver.self_s": s["solver"],
                "solver.node_steps_per_s": tracer.node_steps / tracer.solve_s
                if tracer.solve_s else 0.0,
                "kernels.table_s": s["kernels.table"],
                "kernels.admissibility_s": s["kernels.admissibility"],
                "mollify.eval_s": s["mollify.eval"],
                "mollify.sup_distance_s": s["mollify.sup_distance"],
                "expressions.eval_s": s["expressions.eval"],
                "expressions.eval_points": tracer.calls["expressions.evaluate"],
                "energy.series_s": s["energy.series"],
                "energy.residual_s": s["energy.residual"],
                "energy.series_calls": tracer.calls["energy.energy_series"],
                "cli.write_s": s["cli.write"],
                "traced.total_s": elapsed,
            })

        timed_rounds(max(deadline - time.perf_counter(), 0.0), one_pass)
    finally:
        patches.restore()

    values = {
        "setup.import_s": median([p["import_s"] for p in probes]),
        "setup.import_scipy_s": median(scipy_s),
        "config.parse_s": median([p["parse_s"] for p in probes]),
        "solver.peak_mb": peak_mb,
    }
    for key in passes[0] if passes else ():
        values[key] = median([p[key] for p in passes])
    metrics = {name: {"value": values.get(name, float("nan")), "unit": unit}
               for name, unit in PER_LAYER}
    print_calibration(*calib)
    if untraced and passes:
        total, base = values["traced.total_s"], median(untraced)
        print(f"trace overhead: traced.total_s {total:.4f} s against study_s "
              f"{base:.4f} s ({100.0 * (total / base - 1.0):+.1f} %), medians of "
              f"{len(passes)} traced and {len(untraced)} untraced studies; solver node "
              f"steps per study {tracer.node_steps}")
    spans = [s for s in tracer.spans if s is not None]
    return metrics, {"passes": passes, "untraced_study_s": untraced,
                     "calib_python_s": calib[0], "calib_numpy_s": calib[1], "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "viscokern" / "__init__.py").is_file():
        print(f"bench: no viscokern sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import viscokern

    if Path(viscokern.__file__).resolve().parent != SRC / "viscokern":
        print(f"bench: imported viscokern from {viscokern.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        runner = Runner(wl, work, tally)
        if args.trace:
            metrics, raw = run_traced(runner, args.seconds)
        else:
            metrics, raw = run_end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
         "config": wl.config, "host": host_facts(), **result, "raw": raw}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

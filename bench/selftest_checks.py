"""Self-tests of the benchmark's output checks.

Each workload's scenario runs once on seed 0; its check must accept that
output and reject copies corrupted in the ways a wrong program would.

    python3 bench/selftest_checks.py      # from the root of the source tree

Takes about 5 s.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from viscokern import cli  # noqa: E402

OUT = BENCH / "out"


def run_scenario(wl: workloads.Workload, where: Path) -> tuple[int, Path]:
    config = where / "config.txt"
    config.write_text(wl.config)
    out_dir = where / "today"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([wl.scenario, "--config", str(config), "--out", str(out_dir)])
    return code, out_dir


def corrupt(src: Path, dst: Path, csv_name: str, edit) -> Path:
    """Copy an output directory, passing the CSV's data rows (lists of
    strings) and meta lines through ``edit(rows, meta)``."""
    shutil.copytree(src, dst)
    lines = (src / csv_name).read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    header = [ln for ln in lines if not ln.startswith("# ")][0]
    rows = [ln.split(",") for ln in lines if not ln.startswith("# ")][1:]
    edit(rows, meta)
    body = meta + [header] + [",".join(r) for r in rows]
    (dst / csv_name).write_text("\n".join(body) + "\n")
    return dst


def scale(rows, col: int, factor: float, row: int | None = None) -> None:
    for i, r in enumerate(rows):
        if row is None or i == row:
            r[col] = f"{float(r[col]) * factor:.16e}"


class CheckCase:
    """Shared cases; a subclass names the workload and is the TestCase."""

    name: str = ""

    @classmethod
    def setUpClass(cls):
        OUT.mkdir(parents=True, exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=OUT)
        cls.where = Path(cls.tmp.name)
        cls.wl = workloads.make(cls.name, 0)
        cls.code, cls.today = run_scenario(cls.wl, cls.where)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def corrupted(self, tag: str, edit) -> list[str]:
        dst = corrupt(self.today, self.where / tag, self.wl.csv_name, edit)
        return self.wl.check(dst)

    def test_accepts_todays_output(self):
        self.assertEqual(workloads.check_exit(self.code), [])
        self.assertEqual(self.wl.check(self.today), [])

    def test_rejects_missing_output(self):
        self.assertTrue(self.wl.check(self.where / "nowhere"))


class EnergyAuditForced(CheckCase, unittest.TestCase):
    name = "energy-audit-forced"

    def test_rejects_energy_off_by_one_percent(self):
        def inflate(rows, meta):
            for col in (1, 2, 3, 4):  # keep total = elastic + kinetic + history
                scale(rows, col, 1.01)
        self.assertTrue(self.corrupted("inflated", inflate))

    def test_rejects_unbounded_verdict(self):
        def unbounded(rows, meta):
            meta[meta.index("# bounded = yes")] = "# bounded = NO"
        self.assertTrue(self.corrupted("unbounded", unbounded))

    def test_rejects_large_identity_residual(self):
        def residual(rows, meta):
            i = next(i for i, m in enumerate(meta) if m.startswith("# identity_residual_max"))
            meta[i] = "# identity_residual_max = 1.0e3"
        self.assertTrue(self.corrupted("residual", residual))


class MollifyWedge(CheckCase, unittest.TestCase):
    name = "mollify-wedge"

    def test_rejects_sup_distance_off_by_1e_6(self):
        self.assertTrue(self.corrupted("sup", lambda rows, meta: scale(rows, 1, 1 + 1e-6, 1)))

    def test_rejects_floor_below_g_inf(self):
        self.assertTrue(self.corrupted("floor", lambda rows, meta: scale(rows, 2, 1 - 1e-6, 2)))

    def test_rejects_inadmissible_width(self):
        def flag(rows, meta):
            rows[0][3] = "0"
        self.assertTrue(self.corrupted("flag", flag))

    def test_rejects_growing_solution_distance(self):
        def grow(rows, meta):
            rows[1][4] = rows[0][4]
        self.assertTrue(self.corrupted("grow", grow))


class ExitCode(unittest.TestCase):
    def test_rejects_failed_verdict(self):
        self.assertTrue(workloads.check_exit(1))
        self.assertTrue(workloads.check_exit(2))
        self.assertEqual(workloads.check_exit(0), [])


if __name__ == "__main__":
    unittest.main()

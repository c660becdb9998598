"""Set-up probe, run in a fresh interpreter by ``run.py``.

Times ``import viscokern`` and ``parse_config`` of one configuration file
and prints them as one JSON line, with the kernel the configuration built
and the file the package was imported from.

    python3 bench/probe_setup.py <config-file>
"""

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
import viscokern  # noqa: E402

imported = time.perf_counter()
config = Path(sys.argv[1])
text = config.read_text()
parse_started = time.perf_counter()
cfg = viscokern.parse_config(text, base_dir=config.parent)
parsed = time.perf_counter()
print(json.dumps({
    "import_s": imported - started,
    "parse_s": parsed - parse_started,
    "kernel": cfg.kernel.describe(),
    "package": viscokern.__file__,
}))

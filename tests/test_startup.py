"""Start-up budget: importing the library and its CLI loads no heavy scipy subpackage.

`scipy.stats` alone pulls in stats, optimize, integrate, interpolate, ndimage,
spatial and fft, about half of a CLI call's start-up time and a third of its
memory; every smoothdiff process (a shell call, each table preset, the
simulate pool and its workers) would pay for it. The import runs in a fresh interpreter, since
this one has loaded `scipy.stats` for the test oracles.
"""

import json
import subprocess
import sys

HEAVY = (
    "scipy.stats",
    "scipy.optimize",
    "scipy.integrate",
    "scipy.interpolate",
    "scipy.ndimage",
    "scipy.spatial",
    "scipy.fft",
)


def test_import_loads_no_heavy_scipy_subpackage():
    code = (
        "import json, sys\n"
        "import smoothdiff, smoothdiff.cli\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []

"""The package namespace: ``import peaksched`` loads the scheduling core,
and the ``harness`` subpackage loads the first time it is read."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import peaksched
assert not [m for m in sys.modules if m.startswith("peaksched.harness")], "import peaksched loaded the harness"
assert "harness" in dir(peaksched)
assert peaksched.harness is sys.modules["peaksched.harness"]
from peaksched import harness
assert harness is peaksched.harness
namespace = {}
exec("from peaksched import *", namespace)
assert namespace["harness"] is harness
print("ok")
"""


def test_import_leaves_the_harness_for_first_use():
    # a fresh interpreter: in this one the test suite has imported the harness already
    probe = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "ok\n"

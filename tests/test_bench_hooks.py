"""The benchmark's span recorder finds every library name it wraps.

perfbench/spans.py rebinds library functions, methods and properties by name
from outside the package, so renaming one breaks the traced benchmark run
without failing any library test.  Installing the recorder in a fresh process
keeps the rebinding out of this one.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_span_recorder_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr

"""The benchmark's span recorder finds every library name it wraps.

perfbench/spans.py rebinds library functions, methods and properties by name
from outside the package, so renaming one breaks the traced benchmark run
without failing any library test.  Installing the recorder in a fresh process
keeps the rebinding out of this one.  The process then runs one walk whose
budget runs out, which the recorder must mark aborted: the benchmark's
``ideals.nf_aborted_ratio`` counts those spans.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


SCRIPT = """
import spans
from nashblowup import ideals
from nashblowup.fields import QQ
from nashblowup.parsing import parse_polynomial
from nashblowup.polynomials import RingContext

recorder = spans.Recorder()
spans.install(recorder)
ring = RingContext(("x", "y"), QQ)
f, g = (parse_polynomial(t, ring) for t in ("1 + y^2 + y^5", "1 + x^3 - x^5"))
assert ideals.weak_normal_form(f, [g], budget=100) is None
assert [span[5] for span in recorder.spans if span[0] == "ideals.nf"] == [{"field": "q", "aborted": True}]
"""


def test_span_recorder_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr

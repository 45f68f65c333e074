"""Byte-identical CLI output: the digests of scripts/output_digests.py, pinned.

Covers every invocation in the script's list except the trailing help and
argument errors (PARSER_ERRORS), whose text depends on the Python version
and the terminal width.  A change meant to alter the output updates PINNED
to the md5 of the first lines of the script's output, one per covered
invocation (``head -n 1905``).
"""

import hashlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
PINNED = "90148470fbea21845b9815a6b189a521"


def test_cli_output_digests_match_the_pin():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argvs = script.invocations()[: -len(script.PARSER_ERRORS)]
    assert len(argvs) == 1905
    # the lines as the script prints them
    lines = "".join(f"{script.digest(argv)}  {' '.join(argv)}\n" for argv in argvs)
    assert hashlib.md5(lines.encode()).hexdigest() == PINNED, (
        "CLI output changed: diff scripts/output_digests.py between this checkout and its parent"
    )

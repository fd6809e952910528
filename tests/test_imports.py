"""What `import chinese_monoid` loads, in a fresh interpreter.

A bare import loads neither `dataclasses` nor `inspect`, which no normal
form, product or equality needs, nor the harness; every public name still
resolves, the harness's on first read.  The CLI, which imports the harness,
loads neither module either, so no module under src/ may import them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect")

PROGRAM = """
import json, sys
watched = {heavy!r} + ("chinese_monoid.harness",)
import chinese_monoid
bare = [name for name in watched if name in sys.modules]
unresolved = [name for name in chinese_monoid.__all__ if not hasattr(chinese_monoid, name)]
harness = chinese_monoid.harness
try:
    chinese_monoid.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
import chinese_monoid.cli
print(json.dumps({{"bare": bare, "unresolved": unresolved, "harness": harness.__name__,
                  "same": chinese_monoid.run_suite is harness.run_suite, "unknown": unknown,
                  "all": [name for name in watched if name in sys.modules]}}))
""".format(heavy=HEAVY)


def test_a_bare_import_loads_no_dataclasses_inspect_or_harness():
    # -S: no site module, so nothing but this program can have loaded them.
    proc = subprocess.run([sys.executable, "-S", "-c", PROGRAM], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts["bare"] == []
    assert facts["unresolved"] == []
    assert facts["harness"] == "chinese_monoid.harness" and facts["same"]
    assert facts["unknown"] == "module 'chinese_monoid' has no attribute 'no_such_name'"
    assert facts["all"] == ["chinese_monoid.harness"]

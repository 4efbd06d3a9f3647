"""The BLAS thread default of `import thermoqubit`, each case in a fresh
process: this test process has loaded numpy already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = """
import json, os, sys
{first}
import thermoqubit
print(json.dumps([{{k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS")}}, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("preset, first, expect", [
    ({}, "", {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
    ({"OMP_NUM_THREADS": "2"}, "", {"OMP_NUM_THREADS": "2"}),
    ({}, "import numpy", {}),
], ids=["default", "user-set", "numpy-first"])
def test_import_sets_one_blas_thread_unless_chosen(preset, first, expect):
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE.format(first=first)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    threads, numpy_loaded = json.loads(proc.stdout)
    assert threads == expect
    assert numpy_loaded  # the package still imports numpy eagerly

"""README's Python quick start runs as written, so no change to the library
leaves it a dead example."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_python_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                          flags=re.S)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", block], capture_output=True,
                          text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    label, value = done.stdout.split()
    # the example prints 0.0494; zero filling scores 0.133 on its scene
    assert label == "NRMSE:" and math.isfinite(float(value)) and float(value) < 0.1

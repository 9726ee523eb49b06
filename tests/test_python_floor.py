"""Every source file parses on the oldest Python that pyproject.toml allows.

A newer interpreter accepts newer syntax even when told to parse as an
older version (``ast.parse(src, feature_version=(3, 10))`` passes
``a[:, *b]`` on 3.11), so the files are parsed by a real interpreter of
the floor version, read only. The test skips when none is installed.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PARSE = """
import ast, sys
bad = []
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        source = f.read()
    try:
        ast.parse(source, path)
    except SyntaxError as exc:
        bad.append(f"{path}:{exc.lineno}: {exc.msg}")
print("\\n".join(bad))
sys.exit(1 if bad else 0)
"""


def floor_version() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


def floor_python(version: tuple[int, int]) -> str | None:
    """The first interpreter on PATH or under pyenv that runs as ``version``."""
    name = "python{}.{}".format(*version)
    candidates = [shutil.which(name)] + sorted(
        str(p) for p in (Path.home() / ".pyenv" / "versions").glob(
            "{}.{}.*/bin/python".format(*version)))
    for python in filter(None, candidates):
        try:
            probe = subprocess.run(
                [python, "-c", "import sys; print(*sys.version_info[:2])"],
                capture_output=True, text=True, timeout=30)
        except OSError:
            continue
        if probe.returncode == 0 and probe.stdout.split() == list(
                map(str, version)):
            return python
    return None


def test_sources_parse_on_the_python_floor():
    version = floor_version()
    python = floor_python(version)
    if python is None:
        pytest.skip("no Python {}.{} interpreter found".format(*version))
    files = sorted(str(p) for d in ("src", "tests", "perfbench")
                   for p in (ROOT / d).rglob("*.py"))
    assert files
    res = subprocess.run([python, "-c", PARSE, *files], capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr

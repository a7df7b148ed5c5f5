"""The README's code examples run against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import flexsafe

ROOT = Path(__file__).resolve().parents[1]


def _python_block(section: str) -> str:
    """The first python block under the README heading ``section``."""
    text = (ROOT / "README.md").read_text()
    after = text[text.index(f"\n## {section}\n") :]
    return re.search(r"```python\n(.*?)```", after, re.DOTALL).group(1)


def test_library_use_example_runs():
    src = str(Path(flexsafe.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", _python_block("Library use")],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "SafetyClass." in out.stdout

"""Every ```python block of the README runs, in order, as one script.

Later blocks lean on names earlier ones define (``data``,
``chain_reduce``, ``CollectiveConfig``), so the blocks are joined into
one program and run in a subprocess, in a scratch directory (some write
files).  The block that selects the ``numba`` backend is skipped unless
numba imports.
"""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def readme_blocks() -> list[str]:
    blocks = BLOCK.findall((REPO / "README.md").read_text())
    if importlib.util.find_spec("numba") is None:
        blocks = [b for b in blocks if '"numba"' not in b]
    return blocks


def test_readme_has_python_blocks():
    assert len(BLOCK.findall((REPO / "README.md").read_text())) >= 10


def test_readme_python_blocks_run(tmp_path):
    script = tmp_path / "readme.py"
    script.write_text("\n\n".join(readme_blocks()))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]

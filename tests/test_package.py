"""The package surface: the README's Library section, the exports it
names, and a clean import of every module."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cmreg

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
LIBRARY = README.split("## Library", 1)[1].split("\n## ", 1)[0]
MODULES = ["cmreg"] + [
    f"cmreg.{path.stem}"
    for path in sorted((ROOT / "src" / "cmreg").glob("*.py"))
    if path.stem != "__init__"
]


def test_readme_library_snippet_values():
    snippet = LIBRARY.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(snippet, namespace)
    report = namespace["report"]
    checked = set()
    for attr, comment in re.findall(r"^report\.(\w+)\s+# (.*)$", snippet, re.M):
        if attr == "levels":
            assert len(report.levels) == report.d + 1
            continue
        expected = eval(comment.split(":", 1)[0], {"__builtins__": {}, "inf": math.inf})
        assert getattr(report, attr) == expected, attr
        checked.add(attr)
    assert checked == {"reg", "d", "c", "r", "reg_t", "bound", "retries"}


def test_exports_are_the_readme_library_list():
    bullets = "\n".join(
        item for item in re.split(r"\n(?=- )|\n\n", LIBRARY) if item.startswith("- ")
    )
    listed = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", bullets)
    assert len(cmreg.__all__) == len(set(cmreg.__all__))
    assert set(listed) == set(cmreg.__all__)
    for name in cmreg.__all__:
        assert hasattr(cmreg, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr

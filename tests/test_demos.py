"""Each narrative script in demos/ runs to completion, and every exported
function is reached from the package or a demo."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ndlham as nh

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_exported_function_is_reached():
    # code that only the tests use lives in tests/: every function in
    # ndlham.__all__ is named by another module of the package or a demo
    sources = [p for p in (ROOT / "src" / "ndlham").glob("*.py") if p.name != "__init__.py"]
    named = set()
    for path in sources + DEMOS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    exported = {name for name in nh.__all__ if inspect.isfunction(getattr(nh, name))}
    unreached = sorted(exported - named)
    assert not unreached, f"no module or demo calls {unreached}"

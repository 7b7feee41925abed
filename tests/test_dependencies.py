"""The runtime needs the standard library and numpy only.

scipy is a test dependency (the reference the in-repo ports are checked
against), so it must not creep back into `src/shortlink`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import sys, shortlink, shortlink.cli; "
            "assert shortlink.__file__.startswith(sys.argv[1]), shortlink.__file__; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_runtime_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "shortlink"}
    found = set()
    for path in sorted((SRC / "shortlink").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update((path.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module))
    assert found  # the walk saw the imports
    bad = sorted((f, m) for f, m in found if m.split(".")[0] not in allowed)
    assert bad == []

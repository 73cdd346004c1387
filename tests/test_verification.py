"""The library's self-checks raise `VerificationError` and survive `python -O`;
only `files.py` touches the file system."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_the_library():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "plmpoly").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_files_touches_the_file_system():
    """`files.py` alone opens files or imports os, stat or csv, and it builds
    on `tropical` only; `cli.py` and `polyhedron.py` import no json, and
    `polyhedron.py` nothing from `files`."""
    found = []
    for path in sorted((SRC / "plmpoly").glob("*.py")):
        name = path.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                mods = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # `from . import files` names the module among the imported names
                mods = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
                if node.level:
                    mods = ["." + m for m in mods]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                mods = ["open()"]
            else:
                continue
            for mod in mods:
                if (
                    (mod in ("os", "stat", "csv", "open()") and name != "files.py")
                    or (mod == "json" and name in ("cli.py", "polyhedron.py"))
                    or (mod.startswith(".") and mod != ".tropical" and name == "files.py")
                    or (mod == ".files" and name == "polyhedron.py")
                ):
                    found.append(f"{name}:{node.lineno} {mod}")
    assert found == []


def test_failing_check_raises_under_optimize():
    # the script's own assert stops it unless -O is in effect; a certificate
    # routine that reports rank 0 must then trip ray_from_lower_set's check
    script = (
        "assert False, 'asserts are live'\n"
        "import plmpoly.rays as rays\n"
        "from plmpoly import Plm, VerificationError\n"
        "m = Plm([('a',), ('a', 'b')], 'one-sided', {(0, 1): 1})\n"
        "rays.certify_ray = lambda z, cons: 0\n"
        "try:\n"
        "    rays.ray_from_lower_set(m, [0])\n"
        "except VerificationError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout == "certificate rank 0 != 1\n"

"""The library's self-checks raise `VerificationError` and survive `python -O`."""

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


def test_failing_check_raises_under_optimize():
    # the script's own assert stops it unless -O is in effect; a certificate
    # routine that reports rank 0 must then trip ray_from_lower_set's check
    script = (
        "assert False, 'asserts are live'\n"
        "import plmpoly.rays as rays\n"
        "from plmpoly import Plm, VerificationError\n"
        "m = Plm([('a',), ('a', 'b')], 'one-sided', {(0, 1): 1})\n"
        "rays.certify_ray = lambda z, cons, n: 0\n"
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

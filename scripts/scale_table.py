#!/usr/bin/env python3
"""Wall time and output digest of each corpus command at growing corpus size.

For each token count, draws a Zipf stream over 200 words (weight 1/r,
seed 1), then runs `ingest --max-len 2`, `check`, `dual`,
`retract --max-len 1` and `retract --max-len 1 --temperature 0.1`
in-process through `plmpoly.cli.main`.  One line per command gives the
text count n, the wall time and the sha256 of the command's output file,
so two versions of the package can be compared byte for byte:

    PYTHONPATH=src python3 scripts/scale_table.py --tokens 300 1000
"""

from __future__ import annotations

import argparse
import hashlib
import random
import tempfile
import time
from pathlib import Path
from typing import Iterator

from plmpoly.cli import main as plmpoly_main
from plmpoly.model import load_model_file

WORDS = 200
SEED = 1
COMMANDS = (
    ("check", ["check"]),
    ("dual", ["dual"]),
    ("retract", ["retract", "--max-len", "1"]),
    ("smooth", ["retract", "--max-len", "1", "--temperature", "0.1"]),
)


def zipf_tokens(count: int) -> list[str]:
    """`count` tokens drawn with weight 1/r from words w1..w200."""
    rng = random.Random(SEED)
    words = [f"w{r}" for r in range(1, WORDS + 1)]
    return rng.choices(words, weights=[1 / r for r in range(1, WORDS + 1)], k=count)


def timed(argv: list[str], out: Path) -> tuple[float, str]:
    """Run one command writing to `out`; its wall time and output digest."""
    t0 = time.perf_counter()
    code = plmpoly_main(argv + ["--out", str(out)])
    seconds = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"plmpoly {' '.join(argv)} exited {code}")
    return seconds, hashlib.sha256(out.read_bytes()).hexdigest()


def scale_rows(tokens: int, workdir: Path) -> Iterator[tuple[int, int, str, float, str]]:
    """(tokens, n, command, seconds, sha256), yielded as each command finishes."""
    corpus = workdir / f"corpus{tokens}.txt"
    corpus.write_text(" ".join(zipf_tokens(tokens)) + "\n", encoding="utf-8")
    model = workdir / f"model{tokens}.json"
    seconds, digest = timed(["ingest", str(corpus), "--max-len", "2"], model)
    n = load_model_file(str(model))[1].n
    yield tokens, n, "ingest", seconds, digest
    for name, argv in COMMANDS:
        out = workdir / f"{name}{tokens}.out"
        yield (tokens, n, name, *timed([argv[0], str(model), *argv[1:]], out))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tokens", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    print(f"{'tokens':>6}  {'n':>5}  {'command':<7}  {'seconds':>8}  sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for tokens in args.tokens:
            for row in scale_rows(tokens, Path(tmp)):
                print("{:>6}  {:>5}  {:<7}  {:>8.2f}  {}".format(*row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

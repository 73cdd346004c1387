#!/usr/bin/env python3
"""Wall time and output digest of each corpus command at growing corpus size.

For each token count, draws a Zipf stream over 200 words (weight 1/r,
seed 1), then runs `ingest --max-len 2` (`--max-len 3` for the trigram
stream), `check`, `dual`,
`retract --max-len 1` and `retract --max-len 1 --temperature 0.1`
in-process through `plmpoly.cli.main`.  One line per command gives the
text count n, the wall time and the sha256 of the command's output file,
so two versions of the package can be compared byte for byte:

    PYTHONPATH=src python3 scripts/scale_table.py --tokens 300 1000

`--commands` picks which of check, dual, retract and smooth run after
`ingest` (all four by default); at 30,000 tokens `dual` writes about
2.5 GB, so leave it out there:

    PYTHONPATH=src python3 scripts/scale_table.py --tokens 30000 --commands check retract smooth

`--max-len` sets the longest text `ingest` keeps (2 by default):

    PYTHONPATH=src python3 scripts/scale_table.py --tokens 3000 --max-len 3 --commands check
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
COMMANDS = {
    "check": ["check"],
    "dual": ["dual"],
    "retract": ["retract", "--max-len", "1"],
    "smooth": ["retract", "--max-len", "1", "--temperature", "0.1"],
}


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
    digest = hashlib.sha256()
    with out.open("rb") as fh:  # in blocks: a 30,000-token retract CSV is 0.3 GB
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return seconds, digest.hexdigest()


def scale_rows(
    tokens: int, workdir: Path, commands: tuple[str, ...] = tuple(COMMANDS), max_len: int = 2
) -> Iterator[tuple[int, int, str, float, str]]:
    """(tokens, n, command, seconds, sha256), yielded as each command finishes.

    `ingest` always runs; of the rest, those named in `commands`, in table order.
    """
    corpus = workdir / f"corpus{tokens}.txt"
    corpus.write_text(" ".join(zipf_tokens(tokens)) + "\n", encoding="utf-8")
    model = workdir / f"model{tokens}.json"
    seconds, digest = timed(["ingest", str(corpus), "--max-len", str(max_len)], model)
    n = load_model_file(str(model))[1].n
    yield tokens, n, "ingest", seconds, digest
    for name, argv in COMMANDS.items():
        if name not in commands:
            continue
        out = workdir / f"{name}{tokens}.out"
        yield (tokens, n, name, *timed([argv[0], str(model), *argv[1:]], out))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tokens", type=int, nargs="+", required=True)
    ap.add_argument(
        "--commands", nargs="+", choices=list(COMMANDS), default=list(COMMANDS),
        help="commands to run after ingest (default: all four)",
    )
    ap.add_argument(
        "--max-len", type=int, default=2, help="longest text ingest keeps (default: 2)"
    )
    args = ap.parse_args(argv)
    print(f"{'tokens':>6}  {'n':>5}  {'command':<7}  {'seconds':>8}  sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for tokens in args.tokens:
            for row in scale_rows(tokens, Path(tmp), tuple(args.commands), args.max_len):
                print("{:>6}  {:>5}  {:<7}  {:>8.2f}  {}".format(*row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Launch times of the mild2 CLI: interleaved medians per subcommand against
a bare interpreter.

    python tools/launch_times.py --repeats 25
    python tools/launch_times.py --repeats 25 --src old/src --src src

Each round launches ``python -c pass`` and then every subcommand below once
per source tree, the trees in turn first, so a change of load on the host
falls on every column alike; the table gives each launch's median over the rounds, and after it
the median minus the bare launch.  Every launch must exit 0, or the script
stops with the failing command.

Each source tree's ``mild2`` package is copied to a temporary directory
without its bytecode cache, and launches run with PYTHONDONTWRITEBYTECODE=1,
so each one compiles the mild2 modules it loads.
"""

from __future__ import annotations

import argparse
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EX1, EX2 = "41,13,5,3,19", "5,29,7,11,3"
COMMANDS = {
    "--help": ["--help"],
    "present": ["present", "--primes", EX2, "--format", "text"],
    "check-mild": ["check-mild", "--primes", EX1],
    "augment": ["augment", "--seed", "3,13"],
    "series": ["series", "--d", "4", "--m", "4", "--max", "8"],
}
BARE = "python -c pass"


def launch(argv, env) -> float:
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=120)
    seconds = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return seconds


def measure(trees: list[Path], repeats: int) -> dict[tuple[str, int], list[float]]:
    """Seconds per (launch name, tree index), one entry per round."""
    times: dict[tuple[str, int], list[float]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        envs = []
        for k, tree in enumerate(trees):
            copy = Path(scratch, str(k))
            shutil.copytree(tree / "mild2", copy / "mild2", ignore=shutil.ignore_patterns("__pycache__"))
            envs.append(dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1"))
        for round_ in range(repeats):
            times.setdefault((BARE, 0), []).append(launch(["-c", "pass"], envs[0]))
            order = list(enumerate(envs))[:: -1 if round_ % 2 else 1]
            for name, argv in COMMANDS.items():
                for k, env in order:
                    times.setdefault((name, k), []).append(launch(["-m", "mild2.cli", *argv], env))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=25, help="timed rounds (default 25)")
    parser.add_argument(
        "--src", action="append", type=Path, help="a source tree holding mild2/ (repeatable; default: src)"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    trees = [tree.resolve() for tree in args.src or [ROOT / "src"]]
    for tree in trees:
        if not (tree / "mild2" / "cli.py").is_file():
            parser.error(f"{tree} holds no mild2 package")
    times = measure(trees, args.repeats)
    bare = statistics.median(times[BARE, 0]) * 1e3
    print(
        f"# {args.repeats} rounds, bytecode cache off,"
        f" Python {platform.python_version()}, {os.cpu_count()} CPUs; medians in ms"
    )
    for k, tree in enumerate(trees):
        print(f"# [{k}] {tree}")
    header = "".join(f"{f'[{k}] ms':>10}{'- bare':>8}" for k in range(len(trees)))
    print(f"{'launch':<16}{header}")
    print(f"{BARE:<16}{bare:>10.1f}")
    for name in COMMANDS:
        cells = ""
        for k in range(len(trees)):
            median = statistics.median(times[name, k]) * 1e3
            cells += f"{median:>10.1f}{median - bare:>+8.1f}"
        print(f"{name:<16}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

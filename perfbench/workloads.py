"""The four benchmark workloads: inputs made from the seed, the timed call,
and the output check that runs outside the timed region.

Every workload is one fixed list of ops made from the seed (``ops``): the
prime sets of ``search``, the three worst-case instances, the four
oracle-checked certificates, the four CLI commands, in seeded order.  The
harness runs the list in passes, so that each op is timed several times and
its median time shrugs off single slow samples.  ``check`` returns None for
a correct result and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import mild2
from mild2 import acceptance, linking, mildness
from mild2.linking import Presentation, QuadraticRelator, eliminate_generator, koch_presentation
from mild2.quadlie import F2, F2PI
from mild2.series import WeightSignature, gamma_series, strongly_free_series

PRIME_LIMIT = 2000
SEARCH_D = range(4, 13)
# Sets per d in the search list: enough that the cost of the list barely
# changes from seed to seed, few enough that each set is timed about eight
# times in a 25 s run.  A fresh chunk of sets per pass, timed once each, made
# the tail follow single slow samples (a 37% spread over ten seeds).
SEARCH_PER_D = 30
WORST_D = (12, 13, 14)
EX1 = (41, 13, 5, 3, 19)
EX2 = (5, 29, 7, 11, 3)
# Frozen certificates of the two worked examples: (criterion, S, Sp).
FROZEN_WITNESS = {EX1: ("circuit", (1, 3), (2, 4)), EX2: ("rank", (1, 2), (3, 4))}
ORACLE_RUNS = ((7, F2), (6, F2PI))
CLI_COMMANDS = (
    ("check-mild", "--primes", "41,13,5,3,19"),
    ("augment", "--seed", "3,13"),
    ("present", "--primes", "5,29,7,11,3"),
    ("series", "--d", "4", "--m", "4", "--max", "8"),
)


def odd_primes_below(limit: int) -> list[int]:
    """Sieve of Eratosthenes, kept here so that the library only sees the sets."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(3, limit) if sieve[p]]


def effective_d(pres: Presentation) -> int:
    """Generator count after check_mild's elimination step."""
    prod = pres.product_relation
    return pres.d - 1 if prod is not None and any(prod) else pres.d


def partition_position(d: int, witness) -> int:
    """1-based position of the witness in find_mild_partition's documented
    order (parity split first, then Sp by ascending size and lexicographic);
    2^d + 1 when there is no witness, i.e. every partition was tried."""
    if witness is None:
        return 2**d + 1
    if witness == mildness.parity_partition(d):
        return 1
    sp = witness.Sp
    before = sum(math.comb(d, s) for s in range(len(sp)))
    rank, prev = 0, 0
    for k, x in enumerate(sp):
        for y in range(prev + 1, x):
            rank += math.comb(d - y, len(sp) - k - 1)
        prev = x
    return 2 + before + rank


def check_witness(pres: Presentation, report) -> str | None:
    """A mild verdict's witness must cover 1..d and pass the rank criterion."""
    reduced = pres
    if effective_d(pres) != pres.d:
        reduced = eliminate_generator(pres)
    w = report.witness
    if w is None:
        return "mild verdict without a witness"
    if set(w.S) | set(w.Sp) != set(range(1, reduced.d + 1)) or set(w.S) & set(w.Sp):
        return f"witness {w} does not partition 1..{reduced.d}"
    if not mildness.rank_criterion(reduced.relators, w):
        return f"witness {w} fails the rank criterion"
    return None


class Workload:
    """One op is one call the user waits for; ``labels`` name its outcome
    (the verdict mix) and ``partitions`` counts the partitions its search
    had to look at."""

    name = ""
    ops: list

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def warm_up(self) -> None:
        """Untimed work that users do not pay on every op."""

    def partitions(self, op, result) -> int:
        return 0


def searched_partitions(pres: Presentation, report) -> int:
    """Position of the witness for a report that ran the partition search, else 0."""
    if report.criterion == "circuit" or report.verdict == "inapplicable":
        return 0
    return partition_position(effective_d(pres), report.witness)


class Search(Workload):
    """One op decides one seeded prime set."""

    name = "search"

    def __init__(self, seed: int):
        super().__init__(seed)
        primes = odd_primes_below(PRIME_LIMIT)
        # Each d in 4..12 equally often, so the cost of the list does not
        # swing with how many large sets the seed happens to draw.
        ds = [d for d in SEARCH_D for _ in range(SEARCH_PER_D)]
        self.rng.shuffle(ds)
        self.ops = [tuple(self.rng.sample(primes, d)) for d in ds]

    def run(self, op):
        return mildness.check_mild(linking.koch_presentation(op))

    def check(self, op, report) -> str | None:
        pres = koch_presentation(op)
        if report.verdict == "mild":
            return check_witness(pres, report)
        if report.verdict == "inapplicable":
            reduced = eliminate_generator(pres) if effective_d(pres) != pres.d else pres
            if not any(rel.is_zero for rel in reduced.relators):
                return "inapplicable verdict without a zero relator"
            return None
        if report.verdict != "not_shown" or report.witness is not None:
            return f"unexpected report {report.verdict}/{report.witness}"
        return None

    def labels(self, op, report) -> list[str]:
        return [report.verdict]

    def partitions(self, op, report) -> int:
        return searched_partitions(koch_presentation(op), report)


class SearchWorst(Workload):
    """One op decides one of the three worst-case instances, in seeded order."""

    name = "search-worst"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = []
        for d in WORST_D:
            rel = QuadraticRelator(d, (0,) * d, frozenset({(1, 2), (3, 4)}))
            self.ops.append(Presentation(d, (rel, rel, rel)))
        self.rng.shuffle(self.ops)

    def run(self, op):
        return mildness.check_mild(op)

    def check(self, op, report) -> str | None:
        if report.verdict != "not_shown" or report.witness is not None:
            return f"d={op.d}: expected not_shown, got {report.verdict}"
        return None

    def labels(self, op, report) -> list[str]:
        return [f"{report.verdict}@d={op.d}"]

    def partitions(self, op, report) -> int:
        return searched_partitions(op, report)


class Oracle(Workload):
    """One op makes one of the four oracle-checked certificates, in seeded order."""

    name = "oracle"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = [(ps, depth, ring) for ps in (EX1, EX2) for depth, ring in ORACLE_RUNS]
        self.rng.shuffle(self.ops)
        # A "dimensions match" note says the oracle's dims equal the series;
        # the series must in turn equal the frozen acceptance tables.
        sig = WeightSignature((1,) * 4, (2,) * 4)
        self.series_frozen = {
            F2: strongly_free_series(sig, 7).coeffs
            == acceptance.F2_DIMS_0_TO_6 + (acceptance.F2_DIM_7,),
            F2PI: gamma_series(sig, 6).coeffs[:6] == acceptance.F2PI_DIMS_0_TO_5,
        }

    def run(self, op):
        ps, depth, ring = op
        return mildness.check_mild(
            linking.koch_presentation(ps), oracle_depth=depth, oracle_ring=ring
        )

    def check(self, op, report) -> str | None:
        ps, depth, ring = op
        criterion, s, sp = FROZEN_WITNESS[ps]
        if (report.verdict, report.criterion) != ("mild", criterion):
            return f"{ps}: expected mild/{criterion}, got {report.verdict}/{report.criterion}"
        if report.witness is None or (report.witness.S, report.witness.Sp) != (s, sp):
            return f"{ps}: witness {report.witness} is not the frozen S={s}, Sp={sp}"
        note = f"oracle({ring}): dimensions match through degree {depth}"
        if note not in report.notes:
            return f"{ps} {ring}: missing note {note!r}"
        if not self.series_frozen[ring]:
            return f"{ring} series no longer equals the frozen acceptance table"
        return None

    def labels(self, op, report) -> list[str]:
        return [f"{report.verdict}/{report.criterion}"]

    def partitions(self, op, report) -> int:
        return searched_partitions(koch_presentation(op[0]), report)


class Cli(Workload):
    """Each op is one launch of ``python -m mild2.cli`` on this checkout's src."""

    name = "cli"

    def __init__(self, seed: int, src: Path):
        super().__init__(seed)
        self.ops = list(CLI_COMMANDS)
        self.rng.shuffle(self.ops)
        ex1 = mildness.check_mild(koch_presentation(EX1))
        aug = mild2.augment((3, 13))
        series = strongly_free_series(WeightSignature((1,) * 4, (2,) * 4), 8)
        # Parsed stdout each command must give; the documented exit code of
        # all four (success, and a mild verdict) is 0.
        self.expected = {
            CLI_COMMANDS[0]: ex1.to_json_dict(),
            CLI_COMMANDS[1]: aug.to_json_dict(),
            CLI_COMMANDS[2]: acceptance.GOLDEN_EX2_PRESENT,
            CLI_COMMANDS[3]: "\n".join(f"{n}: {c}" for n, c in series.pairs()),
        }
        self.references_frozen = (
            ex1.to_json_dict()["witness"] == {"S": [1, 3], "Sp": [2, 4]}
            and mild2.validate_augmentation(aug.seed, aug.q_aux, aug.q_last).ok
            and series.coeffs[:8] == acceptance.F2_DIMS_0_TO_6 + (acceptance.F2_DIM_7,)
        )
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def launch(self, argv) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )

    def warm_up(self) -> None:
        # Compiles mild2's __pycache__ once, as an installed package would have it.
        for op in self.ops:
            self.run(op)

    def timed_launch(self, argv) -> float:
        t0 = time.perf_counter()
        self.launch(argv)
        return time.perf_counter() - t0

    def run(self, op):
        return self.launch(["-m", "mild2.cli", *op])

    def check(self, op, proc) -> str | None:
        if not self.references_frozen:
            return "in-process reference outputs disagree with the frozen values"
        want = self.expected[op]
        if proc.returncode != 0:
            return f"{op[0]}: exit {proc.returncode}, expected 0: {proc.stderr.strip()[-200:]}"
        out = proc.stdout.rstrip("\n")
        try:
            got = json.loads(out) if isinstance(want, dict) else out
        except json.JSONDecodeError:
            return f"{op[0]}: output is not JSON"
        if got != want:
            return f"{op[0]}: output differs from the reference"
        return None

    def labels(self, op, proc) -> list[str]:
        if op[0] == "check-mild":
            return ["check-mild:" + json.loads(proc.stdout)["verdict"]]
        return [f"{op[0]}:exit{proc.returncode}"]


def make(name: str, seed: int, src: Path) -> Workload:
    if name == "cli":
        return Cli(seed, src)
    return {cls.name: cls for cls in (Search, SearchWorst, Oracle)}[name](seed)

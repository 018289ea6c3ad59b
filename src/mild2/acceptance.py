"""Acceptance checks: one callable per criterion, shared by the selftest
subcommand and the test suite.

Each criterion, declared with _criterion, returns a CriterionResult with a
pass/fail flag and a detail string; run_all prints one line per criterion.
Expected values are frozen here byte-for-byte (relator texts) or
number-for-number (dimension tables); each runtime bound sits at its
criterion's declaration.
"""

from __future__ import annotations

import io
import itertools
import random
import time
from collections.abc import Callable
from contextlib import redirect_stdout
from dataclasses import dataclass

from . import cli
from .arith import legendre
from .linking import (
    Presentation,
    QuadraticRelator,
    augment,
    eliminate_generator,
    koch_presentation,
    validate_augmentation,
)
from .mildness import check_mild, find_mild_partition
from .oracle import independent_in_degree, strongly_free_oracle
from .quadlie import (
    F2,
    F2PI,
    NcPoly,
    WeightedAlphabet,
    bracket,
    bracket_weight,
    elimination_basis,
    enumerate_y,
    evaluate,
    p_mixed,
    p_quad,
    pi_mul,
    unit_alphabet,
    y_count_poly,
)
from .series import (
    NonRealizableError,
    WeightSignature,
    lower_central_dims,
    strongly_free_series,
    verify_cent_g,
    zassenhaus_dims,
)

EX1_PRIMES = "41,13,5,3,19"
EX2_PRIMES = "5,29,7,11,3"

GOLDEN_EX1_PRESENT = """\
r1 = [x1,x2][x1,x4][x1,x5]
r2 = [x2,x1][x2,x3][x2,x5]
r3 = [x3,x2][x3,x4]
r4 = x4^2[x4,x1][x4,x3][x4,x5]
r5 = x5^2[x5,x1][x5,x2]
r = x4x5"""

GOLDEN_EX1_REDUCE = """\
r1' = [x1,x2]
r2' = [x2,x1][x2,x3][x2,x4]
r3' = [x3,x2][x3,x4]
r4' = x4^2[x4,x1][x4,x3]"""

# The last relator is recomputed from residue symbols; its commutator list
# includes [x5,x3].  It is discarded by the reduction either way.
GOLDEN_EX2_R5 = "x5^2[x5,x1][x5,x2][x5,x3]"

GOLDEN_EX2_PRESENT = f"""\
r1 = [x1,x3][x1,x5]
r2 = [x2,x4][x2,x5]
r3 = x3^2[x3,x1][x3,x4]
r4 = x4^2[x4,x2][x4,x5]
r5 = {GOLDEN_EX2_R5}
r = x3x4x5"""

GOLDEN_EX2_REDUCE = """\
r1' = [x1,x4]
r2' = [x2,x3]
r3' = x3^2[x3,x1][x3,x4]
r4' = x4^2[x4,x2][x4,x3]"""

F2_DIMS_0_TO_6 = (1, 4, 12, 32, 80, 192, 448)
F2_DIM_7 = 1024
F2PI_DIMS_0_TO_5 = (1, 5, 17, 49, 129, 321)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} criterion {self.number}: {self.name} ({self.seconds:.2f}s) {self.detail}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process, capturing stdout."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue().rstrip("\n")


def _expect(found, expected, label: str) -> str:
    return "" if found == expected else f"{label}: expected {expected!r}, got {found!r}; "


def _time_limit(label: str, started: float, limit: int) -> str:
    """'' while fewer than limit seconds have passed since started, else the
    problem text '<label> <seconds>s >= <limit>s; ', the seconds to two
    decimals for a limit below 10 s and to one from 10 s up."""
    seconds = time.perf_counter() - started
    if seconds < limit:
        return ""
    return f"{label} {seconds:.{2 if limit < 10 else 1}f}s >= {limit}s; "


CRITERIA: list[Callable[[], CriterionResult]] = []


def _criterion(number: int, limit: int | None = None):
    """Declare criterion `number`, to fail at `limit` seconds if one is given.

    The body returns its name and its problem text ('' when it passes).  The
    decorated criterion is appended to CRITERIA; it times the body, adds the
    runtime-limit problem and returns the CriterionResult."""

    def register(body: Callable[[], tuple[str, str]]) -> Callable[[], CriterionResult]:
        def check() -> CriterionResult:
            started = time.perf_counter()
            name, problems = body()
            if limit is not None:
                problems += _time_limit("runtime", started, limit)
            return CriterionResult(number, name, not problems, problems, time.perf_counter() - started)

        # the name it is bound to in this module, which test ids also show
        check.__name__ = check.__qualname__ = f"criterion_{number}"
        CRITERIA.append(check)
        return check

    return register


def _present_reduce(primes: str, present: str, reduced: str) -> tuple[str, str]:
    problems = ""
    for command, golden in (("present", present), ("reduce", reduced)):
        code, out = run_cli([command, "--primes", primes])
        problems += _expect(code, 0, f"{command} exit")
        problems += _expect(out, golden, f"{command} text")
    return f"present/reduce --primes {primes} byte-exact", problems


criterion_1 = _criterion(1, limit=1)(lambda: _present_reduce(EX1_PRIMES, GOLDEN_EX1_PRESENT, GOLDEN_EX1_REDUCE))
criterion_2 = _criterion(2, limit=1)(lambda: _present_reduce(EX2_PRIMES, GOLDEN_EX2_PRESENT, GOLDEN_EX2_REDUCE))


def _circuit_instance(d: int) -> list[QuadraticRelator]:
    relators = []
    for i in range(1, d + 1):
        squares = tuple(1 if (k == i and i % 2 == 0) else 0 for k in range(1, d + 1))
        j = i % d + 1
        relators.append(QuadraticRelator(d, squares, {(min(i, j), max(i, j))}, owner=i))
    return relators


@_criterion(3, limit=3)
def criterion_3() -> tuple[str, str]:
    problems = ""
    rep1 = check_mild(koch_presentation((41, 13, 5, 3, 19)))
    problems += _expect((rep1.verdict, rep1.criterion), ("mild", "circuit"), "example 1")
    rep2 = check_mild(koch_presentation((5, 29, 7, 11, 3)))
    problems += _expect((rep2.verdict, rep2.criterion), ("mild", "rank"), "example 2")
    problems += _expect(rep2.witness.Sp, (3, 4), "example 2 witness Sp")
    for d in (4, 6):
        rep = check_mild(Presentation(d, tuple(_circuit_instance(d))))
        problems += _expect((rep.verdict, rep.criterion), ("mild", "circuit"), f"cycle d={d}")
    return "mild verdicts (circuit, rank with Sp={3,4}, cycles d=4,6)", problems


@_criterion(4)
def criterion_4() -> tuple[str, str]:
    problems = ""
    for primes in ((41, 13, 5, 3, 19), (5, 29, 7, 11, 3)):
        relators = eliminate_generator(koch_presentation(primes)).relators
        t0 = time.perf_counter()
        cmp_f2 = strongly_free_oracle(relators, 6, ring=F2, memory_cap_mib=1024)
        problems += _expect(cmp_f2.oracle_dims, F2_DIMS_0_TO_6, f"F2 dims {primes}")
        problems += _expect(cmp_f2.match, True, f"F2 match {primes}")
        problems += _time_limit(f"F2 oracle {primes} took", t0, 10)
        t0 = time.perf_counter()
        cmp_pi = strongly_free_oracle(relators, 5, ring=F2PI, memory_cap_mib=1024)
        problems += _expect(cmp_pi.oracle_dims, F2PI_DIMS_0_TO_5, f"F2pi dims {primes}")
        problems += _expect(cmp_pi.match, True, f"F2pi match {primes}")
        problems += _time_limit(f"F2pi oracle {primes} took", t0, 60)
    relators = eliminate_generator(koch_presentation((41, 13, 5, 3, 19))).relators
    t0 = time.perf_counter()
    cmp7 = strongly_free_oracle(relators, 7, ring=F2, memory_cap_mib=1024)
    problems += _expect(cmp7.oracle_dims, F2_DIMS_0_TO_6 + (F2_DIM_7,), "F2 dims deg<=7")
    problems += _expect(cmp7.match, True, "F2 match deg<=7")
    problems += _time_limit("F2 degree-7 oracle took", t0, 120)
    return "oracle dims match series (F2 deg<=7, F2pi deg<=5, cap 1 GiB)", problems


@_criterion(5)
def criterion_5() -> tuple[str, str]:
    problems = ""
    control = (
        QuadraticRelator(2, (1, 0), frozenset()),
        QuadraticRelator(2, (0, 0), {(1, 2)}),
    )
    problems += _expect(find_mild_partition(control), None, "partition search")
    cmp = strongly_free_oracle(control, 4)
    problems += _expect(cmp.mismatch_degree, 3, "mismatch degree")
    problems += _expect(cmp.oracle_dims[3], 2, "oracle dim at 3")
    problems += _expect(cmp.expected_dims[3], 0, "series dim at 3")
    return "negative control {x1^2, [x1,x2]}: no partition, oracle refutes", problems


@_criterion(6, limit=5)
def criterion_6() -> tuple[str, str]:
    problems = ""
    sig44 = WeightSignature((1, 1, 1, 1), (2, 2, 2, 2))
    problems += _expect(strongly_free_series(sig44, 6).coeffs, F2_DIMS_0_TO_6, "series d=4,m=4")
    problems += _expect(lower_central_dims(sig44, 4).values, (4, 6, 10, 16), "a_n d=4,m=4")
    problems += _expect(zassenhaus_dims(4, 4, 3).values, (4, 6, 4), "zassenhaus d=4,m=4")
    checked = 0
    for d in range(1, 6):
        for length in range(2 * d + 1):
            for h in itertools.combinations_with_replacement((2, 3), length):
                sig = WeightSignature((1,) * d, h)
                try:
                    ok = verify_cent_g(sig, 10)
                except NonRealizableError:
                    continue
                checked += 1
                if not ok:
                    problems += f"product identity fails for e={sig.e}, h={sig.h}; "
    if checked < 10:
        problems += f"only {checked} signatures admitted the product identity check; "
    return f"series values and product identity to degree 10 ({checked} signatures)", problems


def _weight_corpus() -> list[WeightedAlphabet]:
    out = []
    for d in range(1, 5):
        for ones in range(d + 1):
            out.append(WeightedAlphabet((1,) * ones + (2,) * (d - ones)))
    return out


@_criterion(7, limit=30)
def criterion_7() -> tuple[str, str]:
    problems = ""
    for alphabet in _weight_corpus():
        grouped = enumerate_y(alphabet, 6)
        expected = y_count_poly(alphabet, 6)
        for deg in range(2, 7):
            words = grouped.get(deg, [])
            if len(words) != expected[deg]:
                problems += (
                    f"weights {alphabet.weights} degree {deg}:"
                    f" {len(words)} words vs coefficient {expected[deg]}; "
                )
                continue
            if words:
                polys = [evaluate(w, alphabet, F2) for w in words]
                if independent_in_degree(polys) != len(words):
                    problems += f"weights {alphabet.weights} degree {deg}: images dependent; "
        if alphabet.d < 2:
            continue
        sizes = {1, alphabet.d // 2} - {0, alphabet.d}
        for size in sorted(sizes):
            sigma = tuple(range(1, size + 1))
            words = elimination_basis(alphabet, sigma, 5)
            by_degree: dict[int, list] = {}
            for w in words:
                by_degree.setdefault(bracket_weight(w, alphabet), []).append(w)
            for deg, ws in by_degree.items():
                polys = [evaluate(w, alphabet, F2) for w in ws]
                if independent_in_degree(polys) != len(ws):
                    problems += (
                        f"weights {alphabet.weights} sigma {sigma} degree {deg}: dependent; "
                    )
    return "basis counts match the generating function; images independent", problems


@_criterion(8, limit=10)
def criterion_8() -> tuple[str, str]:
    problems = ""
    witness = validate_augmentation((13, 3), (41, 5), 19)
    problems += _expect(witness.ok, True, f"validate (41,5),19 {witness.violations}")
    # Swapping the auxiliary primes breaks the final-prime condition
    # (19 is a square mod 5), and 7 is a nonsquare mod 5.
    problems += _expect(validate_augmentation((13, 3), (5, 41), 19).ok, False, "validate (5,41),19")
    problems += _expect(validate_augmentation((13, 3), (41, 5), 7).ok, False, "validate (41,5),7")
    first = augment((13, 3), 10**5)
    second = augment((13, 3), 10**5)
    problems += _expect(second, first, "determinism across runs")
    problems += _expect(first.S, (5, 13, 41, 3, 23), "augmented set")
    check = validate_augmentation(first.seed, first.q_aux, first.q_last)
    problems += _expect(check.ok, True, f"result validation {check.violations}")
    verdict = check_mild(koch_presentation(first.S)).verdict
    problems += _expect(verdict, "mild", "result mildness")
    return "augment seed (13,3) deterministic, validated, mild", problems


@_criterion(9, limit=30)
def criterion_9() -> tuple[str, str]:
    problems = ""
    rng = random.Random(20260814)
    alphabet = unit_alphabet(4)

    def random_degree1(ring):
        while True:
            picks = [i for i in range(1, 5) if rng.random() < 0.5]
            if picks:
                return NcPoly.from_monomials(alphabet, ring, [(0, (i,)) for i in picks])

    def random_homogeneous(ring, degree):
        words = list(itertools.product(range(1, 5), repeat=degree))
        picks = rng.sample(words, k=min(len(words), rng.randint(1, 4)))
        return NcPoly.from_monomials(alphabet, ring, [(0, w) for w in picks])

    ql1_bad = ql2_bad = 0
    for _ in range(1000):
        u, v = random_degree1(F2), random_degree1(F2)
        s = u + v
        # P is only defined on nonzero elements; u + v = 0 forces u = v,
        # where both sides reduce to [u, u] = 0 and there is nothing to test.
        if not s.is_zero and p_quad(s) != p_quad(u) + p_quad(v) + bracket(u, v):
            ql1_bad += 1
        w = random_homogeneous(F2, rng.randint(1, 3))
        if bracket(p_quad(u), w) != bracket(u, bracket(u, w)):
            ql2_bad += 1
    mixed_bad = 0
    for _ in range(1000):
        u, v = random_degree1(F2PI), random_degree1(F2PI)
        s = u + v
        if not s.is_zero and p_mixed(s) != p_mixed(u) + p_mixed(v) + bracket(u, v):
            mixed_bad += 1
        uv = bracket(u, v)
        if not uv.is_zero and bracket(p_mixed(u), v) != p_mixed(uv) + bracket(u, uv):
            mixed_bad += 1
        high = random_homogeneous(F2PI, rng.randint(2, 3))
        if bracket(p_mixed(high), v) != pi_mul(bracket(high, v)):
            mixed_bad += 1
    if ql1_bad or ql2_bad or mixed_bad:
        problems += f"identity failures: degree-1 sums {ql1_bad}, squares-in-brackets {ql2_bad}, mixed {mixed_bad}; "

    odd_primes = [p for p in range(3, 200, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))]
    for p in odd_primes:
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            if legendre(a, p) != expected:
                problems += f"legendre({a}, {p}) != exhaustive answer; "
                break
    small = [p for p in odd_primes if p < 100]
    for p, q in itertools.combinations(small, 2):
        sign = -1 if (p % 4 == 3 and q % 4 == 3) else 1
        if legendre(p, q) * legendre(q, p) != sign:
            problems += f"reciprocity fails for ({p}, {q}); "
    return "identity suites: 1000 cases each + residue symbol cross-checks", problems


def run_all(stream) -> bool:
    """Run every criterion, print one line each to stream, return overall success."""
    all_ok = True
    for check in CRITERIA:
        result = check()
        all_ok &= result.ok
        print(result.line(), file=stream)
    return all_ok

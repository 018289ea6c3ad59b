"""Exact integer power series and the graded dimension formulas built on them.

All coefficients are Python ints, so nothing overflows and nothing is
approximated.  A weight signature (e, h) records generator weights e_i >= 1
and relator weights h_j >= 2; the attached rational series

    1 / (1 - sum_i t**e_i + sum_j t**h_j)

is the graded dimension series of the quotient by a strongly free sequence,
and the formulas below (reduced dimensions b_n, lower central dimensions
a_n, restricted filtration dimensions) are all derived from its roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb, isqrt, log2

from .arith import BoundExceededError, _check_int, _record_json, mobius

# Most bits one series request may hold: its weights and denominator at one
# 64-bit slot each, and its coefficients; 2**28 bits are 32 MiB.
MAX_SERIES_BITS = 2**28


class NonRealizableError(ArithmeticError):
    """A dimension formula produced a negative or fractional value.

    Carries the offending index n.  A signature that triggers this cannot be
    realized by a strongly free sequence, so callers surface the error as a
    diagnostic rather than a crash.
    """

    def __init__(self, n: int, value, reason: str):
        super().__init__(f"dimension at n = {n} is {reason}: {value}")
        self.n = n
        self.value = value
        self.reason = reason


def _int_tuple(values, what: str) -> tuple[int, ...]:
    out = tuple(values)
    for v in out:
        # type() rather than int(): 1.7 must not pass as 1, '3' as 3, nor True as 1
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {v!r}")
    return out


@dataclass(frozen=True)
class WeightSignature:
    """Generator weights e (each >= 1) and relator weights h (each >= 2)."""

    e: tuple[int, ...]
    h: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "e", tuple(self.e))
        object.__setattr__(self, "h", tuple(self.h))
        # type() rather than int(): 1.5 must not pass as 1, nor True as 1
        if any(type(w) is not int for w in self.e + self.h):
            raise ValueError(f"weights must be integers, got e = {self.e}, h = {self.h}")
        if not self.e:
            raise ValueError("a signature needs at least one generator weight")
        if any(w < 1 for w in self.e):
            raise ValueError(f"generator weights must be >= 1, got {self.e}")
        if any(w < 2 for w in self.h):
            raise ValueError(f"relator weights must be >= 2, got {self.h}")

    @property
    def r(self) -> int:
        """Number of weight-1 generators."""
        return sum(1 for w in self.e if w == 1)

    def denominator(self) -> list[int]:
        """Coefficients of 1 - sum_i t**e_i + sum_j t**h_j."""
        den = [0] * (max(self.e + self.h) + 1)
        den[0] = 1
        for w in self.e:
            den[w] -= 1
        for w in self.h:
            den[w] += 1
        return den


@dataclass(frozen=True)
class IntSeries:
    """Truncated power series with exact integer coefficients c_0..c_N."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _int_tuple(self.coeffs, "series coefficients"))
        if not self.coeffs:
            raise ValueError("a series carries at least its constant term")

    def pairs(self) -> list[tuple[int, int]]:
        return list(enumerate(self.coeffs))


@dataclass(frozen=True)
class DimensionSequence:
    """A dimension sequence with an explicit kind tag and start index.

    kind is one of 'reduced_b' (start 2), 'lower_central_a' (start 1),
    'zassenhaus_a' (start 1) or 'quotient_dims' (start 0); values[k] is the
    dimension at n = start + k.
    """

    kind: str
    start: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _int_tuple(self.values, "dimensions"))

    def pairs(self) -> list[tuple[int, int]]:
        return [(self.start + k, v) for k, v in enumerate(self.values)]

    to_json_dict = _record_json


def _check_n_max(n_max: int, minimum: int = 0, name: str = "n_max") -> None:
    _check_int(n_max, name)
    if n_max < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n_max}")


def check_series_size(n_weights: int, top_weight: int, n_max: int) -> None:
    """Raise BoundExceededError when the series through degree n_max of a
    signature with n_weights generator and relator weights, the largest being
    top_weight, would hold more than MAX_SERIES_BITS.

    The denominator has sum |den_k| <= 1 + n_weights, so coefficient n has at
    most n * log2(1 + sum |den_k|) + 1 bits.  Call this before building the
    weights: it needs only their count.
    """
    _check_n_max(n_max)
    slots = n_weights + top_weight + n_max + 2
    bits = 64 * slots + log2(2 + n_weights) * n_max * (n_max + 1) / 2
    if bits > MAX_SERIES_BITS:
        raise BoundExceededError(
            f"a series through degree {n_max} of {n_weights} weights, the largest {top_weight},"
            f" would hold more than {MAX_SERIES_BITS // 2**23} MiB"
        )


def _check_signature_size(sig: WeightSignature, n_max: int) -> None:
    check_series_size(len(sig.e) + len(sig.h), max(sig.e + sig.h), n_max)


def _mul_trunc(a: list[int], b: list[int], n_max: int) -> list[int]:
    out = [0] * (n_max + 1)
    for i, ai in enumerate(a[: n_max + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n_max + 1 - i]):
            out[i + j] += ai * bj
    return out


def expand_rational(numerator, denominator, n_max: int) -> IntSeries:
    """Expand numerator/denominator as a power series through degree n_max.

    The denominator must have constant term exactly 1, which keeps every
    coefficient an integer; c_n = num_n - sum_{k>=1} den_k * c_{n-k}.
    """
    _check_n_max(n_max)
    num = _int_tuple(numerator, "numerator coefficients")
    den = _int_tuple(denominator, "denominator coefficients")
    if not den or den[0] == 0:
        raise ValueError("denominator has zero constant term")
    if den[0] != 1:
        raise ValueError(f"denominator constant term must be 1, got {den[0]}")
    coeffs = [0] * (n_max + 1)
    for n in range(n_max + 1):
        c = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            c -= den[k] * coeffs[n - k]
        coeffs[n] = c
    return IntSeries(tuple(coeffs))


def strongly_free_series(sig: WeightSignature, n_max: int) -> IntSeries:
    """Series of 1 / (1 - sum t**e_i + sum t**h_j) through degree n_max."""
    _check_signature_size(sig, n_max)
    return expand_rational([1], sig.denominator(), n_max)


def gamma_series(sig: WeightSignature, n_max: int) -> IntSeries:
    """Series of the same rational function divided by (1 - t).

    Coefficients are the partial sums of strongly_free_series, the graded
    dimensions of the corresponding quotient over F2[pi].
    """
    return IntSeries(tuple(accumulate(strongly_free_series(sig, n_max).coeffs)))


def power_sums(sig: WeightSignature, length: int) -> tuple[int, ...]:
    """Power sums p_1..p_length of the inverse roots of the signature denominator.

    Newton's identities on den(t) = 1 + c_1 t + ... + c_s t**s say that
    sum_l p_l t**l = -t * den'(t) / den(t), so the p_l are the expansion of
    that rational function; everything stays in Z, no root is ever extracted
    numerically.
    """
    _check_n_max(length, 1, "length")
    _check_signature_size(sig, length)
    den = sig.denominator()
    return expand_rational([-k * c for k, c in enumerate(den)], den, length).coeffs[1:]


def reduced_dims_bn(sig: WeightSignature, n_max: int) -> DimensionSequence:
    """Dimensions b_n, n = 2..n_max, of the reduced graded algebra of a strongly
    free quotient:

        b_n = (1/n) * sum_{l | n} mobius(n/l) * (p_l + (-1)**l * r)

    with p_l the denominator power sums and r the number of weight-1
    generators.  Raises NonRealizableError naming the first n where the
    formula goes fractional or negative; such a signature is not realizable
    by a strongly free sequence.
    """
    _check_n_max(n_max, 2)
    p = power_sums(sig, n_max)
    r = sig.r
    values = []
    for n in range(2, n_max + 1):
        total = 0
        for k in range(1, isqrt(n) + 1):
            if n % k == 0:
                for ell in {k, n // k}:
                    total += mobius(n // ell) * (p[ell - 1] + (r if ell % 2 == 0 else -r))
        q, rem = divmod(total, n)
        if rem != 0:
            raise NonRealizableError(n, total / n, "not an integer")
        if q < 0:
            raise NonRealizableError(n, q, "negative")
        values.append(q)
    return DimensionSequence("reduced_b", 2, tuple(values))


def lower_central_dims(sig: WeightSignature, n_max: int) -> DimensionSequence:
    """Dimensions a_n, n = 1..n_max: a_1 = r and a_n = sum_{k=2}^{n} b_k."""
    _check_n_max(n_max, 1)
    values = [sig.r]
    if n_max >= 2:
        running = 0
        for b in reduced_dims_bn(sig, n_max).values:
            running += b
            values.append(running)
    return DimensionSequence("lower_central_a", 1, tuple(values))


def _inv_one_minus_tn_pow(n: int, b: int, n_max: int, sign: int = 1) -> list[int]:
    """(1 - sign * t**n)**(-b) truncated, b >= 0 and sign = +-1: signed
    multiset coefficients on multiples of n."""
    out = [0] * (n_max + 1)
    for k in range(n_max // n + 1):
        out[n * k] = sign**k * comb(b + k - 1, k) if k else 1
    return out


def zassenhaus_dims(d: int, m: int, n_max: int) -> DimensionSequence:
    """Dimensions a_n extracted from prod_{n>=1} (1 + t**n)**a_n = 1/(1 - d*t + m*t**2).

    The a_n are read off degree by degree from one running quotient: once
    it has been divided by (1 + t**k)**a_k for every k < n, its coefficient
    n is a_n.  Raises NonRealizableError on a negative a_n.
    """
    _check_int(d, "d")
    _check_int(m, "m")
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d = {d}, m = {m}")
    _check_n_max(n_max, 1)
    check_series_size(d + m, 2, n_max)
    quotient = list(expand_rational([1], [1, -d, m], n_max).coeffs)
    values = []
    for n in range(1, n_max + 1):
        a_n = quotient[n]
        if a_n < 0:
            raise NonRealizableError(n, a_n, "negative")
        values.append(a_n)
        quotient = _mul_trunc(_inv_one_minus_tn_pow(n, a_n, n_max, sign=-1), quotient, n_max)
    return DimensionSequence("zassenhaus_a", 1, tuple(values))


def verify_cent_g(sig: WeightSignature, n_max: int) -> bool:
    """Check (1+t)**r * prod_{n>=2} (1 - t**n)**(-b_n) == strongly_free_series.

    Exact through degree n_max; True when the product identity holds.
    Propagates NonRealizableError from the b_n computation.
    """
    _check_n_max(n_max, 2)
    lhs = [comb(sig.r, k) for k in range(n_max + 1)]  # (1 + t)**r
    for n, b_n in reduced_dims_bn(sig, n_max).pairs():
        lhs = _mul_trunc(lhs, _inv_one_minus_tn_pow(n, b_n, n_max), n_max)
    return tuple(lhs) == strongly_free_series(sig, n_max).coeffs

"""Exact elementary number theory: primality, residue symbols, Mobius.

Everything here is deterministic and exact; no probabilistic shortcuts are
taken anywhere, because downstream certificates must never depend on a
randomized primality answer.  Inputs are restricted to the 64-bit range.

This leaf module also defines the defaults, ring names and guard errors that
the command-line parser shares with the other modules: every CLI launch
loads it, so the parser needs no other module to build its flags.  The checks
of a memory cap and of a ring name live here once, for every entry point
that takes one, as do the base class and the JSON rule of the result records.
"""

from __future__ import annotations

from math import isqrt

MAX_INPUT = 2**64 - 1

# augment's default upper bound on auxiliary primes
DEFAULT_PRIME_BOUND = 10**6
# the oracle's default memory cap
DEFAULT_MEMORY_CAP_MIB = 1024

# coefficient rings of the free algebras (quadlie) and of the oracle
F2 = "F2"
F2PI = "F2pi"
RINGS = (F2, F2PI)

# Strong-pseudoprime witnesses; this set is known to be exact for every
# n < 3_317_044_064_679_887_385_961_981, which covers the full 64-bit range.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class BoundExceededError(RuntimeError):
    """A bounded search ran out of room before finding its target."""


class MemoryGuardError(MemoryError):
    """The estimated memory of a degree exceeds the configured cap."""


def _check_int(n: int, name: str) -> None:
    """Refuse a non-integer by type, before any comparison: 3.0 must not pass
    as 3, nor True as 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{name} must be an int, got {type(n).__name__}")


def _check_memory_cap(memory_cap_mib: int) -> None:
    _check_int(memory_cap_mib, "memory_cap_mib")
    if memory_cap_mib < 1:
        raise ValueError(f"memory_cap_mib must be >= 1, got {memory_cap_mib}")


def _check_ring(ring: str) -> None:
    if ring not in RINGS:
        raise ValueError(f"ring must be one of {RINGS}, got {ring!r}")


def _check_range(n: int, name: str = "n") -> None:
    _check_int(n, name)
    if n > MAX_INPUT:
        raise ValueError(f"{name} = {n} exceeds the supported 64-bit range")


class _Record:
    """Base of the frozen result records: value equality within one class, a
    hash over the field values and the repr Name(field=value, ...), all read
    from _fields, the field names in declaration order.

    Each record writes its own __init__, which validates and then sets every
    field at once through self.__dict__.  Plain classes rather than
    dataclasses spare every launch the import of dataclasses (and inspect)
    and the code generated per class.  A record holds its fields and nothing
    else: no state derived from them is stored on it."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {self.__class__.__name__}")


def _record_json(record) -> dict:
    """JSON object of a result record: its _fields in declaration order,
    tuples as arrays, and nested records in their own JSON form.  Records
    bind it as their to_json_dict."""

    def value(v):
        if isinstance(v, tuple):
            return [value(x) for x in v]
        return v.to_json_dict() if hasattr(v, "to_json_dict") else v

    return {name: value(getattr(record, name)) for name in record._fields}


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 2 <= n <= 2**64 - 1."""
    _check_range(n)
    if n < 2:
        raise ValueError(f"is_prime requires n >= 2, got {n}")
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int, name: str = "p") -> int:
    """Validate that p is an odd prime and return it."""
    _check_range(p, name)
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{name} = {p} is not an odd prime")
    return p


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p.

    Returns 0 when p divides a, +1 when a is a nonzero square mod p and -1
    otherwise, via the Euler criterion a**((p-1)/2) mod p.
    """
    check_odd_prime(p)
    _check_range(a, "a")  # refuses a bool before abs() turns True into 1
    _check_range(abs(a), "a")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)**(number of prime factors).

    Trial division stops at the cube root of the cofactor left, which then
    has at most two prime factors and is told apart by is_prime and isqrt.
    The worst case, a prime near 2**64, tries the 1.3 million odd divisors
    below (2**64) ** (1/3): 0.15 to 0.26 s in CPython 3.11 on a 2-CPU Intel
    Xeon host.
    """
    _check_range(n)
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    result = 1
    m = n
    d = 2
    while d * d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1 if d == 2 else 2
    # every prime factor of m is at least d, and m < d**3: m is 1, p, p*p or p*q
    if m == 1:
        return result
    if is_prime(m):
        return -result
    return 0 if isqrt(m) ** 2 == m else result

"""Number-theory helpers: primality, residue symbols, Möbius."""

import random
import time

import pytest

from mild2.arith import check_odd_prime, is_prime, legendre, mobius


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for n in range(2, int(limit**0.5) + 1):
        if flags[n]:
            flags[n * n :: n] = [False] * len(flags[n * n :: n])
    return [n for n, f in enumerate(flags) if f]


def test_is_prime_matches_sieve_below_10000():
    primes = set(sieve(10000))
    for n in range(2, 10001):
        assert is_prime(n) == (n in primes), n


def test_is_prime_known_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)
    assert is_prime(18446744073709551557)  # largest prime below 2^64
    # strong pseudoprimes to several bases, all composite
    for n in (3215031751, 3825123056546413051, 341550071728321):
        assert not is_prime(n), n


def test_is_prime_rejects_out_of_range():
    for bad in (0, 1, -7, 2**64):
        with pytest.raises(ValueError):
            is_prime(bad)


def test_check_odd_prime():
    check_odd_prime(3)
    check_odd_prime(10**6 + 3)
    for bad in (2, 9, 1, 15):
        with pytest.raises(ValueError):
            check_odd_prime(bad)


def test_legendre_against_exhaustive_squares():
    for p in sieve(300):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(-p, 2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == expected, (a, p)


def test_legendre_multiplicative():
    rng = random.Random(7)
    for _ in range(500):
        p = rng.choice([3, 5, 7, 11, 13, 101, 103, 997])
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_quadratic_reciprocity():
    odd_primes = [p for p in sieve(100) if p > 2]
    for i, p in enumerate(odd_primes):
        for q in odd_primes[i + 1 :]:
            sign = -1 if (p % 4 == 3 and q % 4 == 3) else 1
            assert legendre(p, q) * legendre(q, p) == sign, (p, q)


def test_legendre_rejects_bad_modulus():
    for bad in (2, 9, 1):
        with pytest.raises(ValueError):
            legendre(3, bad)


def test_mobius_small_values():
    expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0]
    assert [mobius(n) for n in range(1, 17)] == expected


def test_mobius_dirichlet_identity():
    # sum of mu(d) over divisors of n is 1 for n = 1 and 0 otherwise
    for n in range(1, 300):
        total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0), n


def mobius_by_trial_division(n):
    """Reference: trial division all the way to the square root of the cofactor."""
    result, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1 if d == 2 else 2
    return -result if m > 1 else result


def test_mobius_agrees_with_trial_division():
    rng = random.Random(59)
    for n in [*range(1, 3000), *(rng.randrange(1, 10**9) for _ in range(300))]:
        assert mobius(n) == mobius_by_trial_division(n), n


def test_mobius_cofactors_above_the_cube_root():
    # products of large primes leave a cofactor p, p*p or p*q once trial
    # division stops at the cube root; their answers are known by construction
    rng = random.Random(61)

    def prime(bits):
        while True:
            p = rng.getrandbits(bits) | 1 << bits - 1 | 1
            if is_prime(p):
                return p

    for _ in range(60):
        p, q = prime(24), prime(24)
        assert mobius(p * q) == (0 if p == q else 1), (p, q)
        assert mobius(p * p) == 0, p
        a, b, c = prime(16), prime(16), prime(16)
        assert mobius(a * b * c) == (-1 if len({a, b, c}) == 3 else 0), (a, b, c)
        assert mobius(a * a * b) == 0, (a, b)
    start = time.perf_counter()
    assert mobius(2**64 - 59) == -1  # the largest prime below 2**64
    assert time.perf_counter() - start < 2


def test_mobius_rejects_nonpositive():
    with pytest.raises(ValueError):
        mobius(0)


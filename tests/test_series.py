"""Power-series engine: rational expansion, dimension formulas, identities."""

import itertools
import random
import re
import time

import pytest

from mild2 import series
from mild2.arith import BoundExceededError, mobius
from mild2.series import (
    MAX_SERIES_BITS,
    DimensionSequence,
    IntSeries,
    NonRealizableError,
    WeightSignature,
    check_series_size,
    expand_rational,
    gamma_series,
    lower_central_dims,
    power_sums,
    reduced_dims_bn,
    strongly_free_series,
    verify_cent_g,
    zassenhaus_dims,
)


def mul_series(a, b, n_max):
    out = [0] * (n_max + 1)
    for i, x in enumerate(a[: n_max + 1]):
        for j, y in enumerate(b[: n_max + 1 - i]):
            out[i + j] += x * y
    return out


def test_expand_rational_geometric():
    assert expand_rational([1], [1, -1], 6).coeffs == (1,) * 7
    assert expand_rational([1], [1, -2], 5).coeffs == (1, 2, 4, 8, 16, 32)
    assert expand_rational([1, 1], [1], 4).coeffs == (1, 1, 0, 0, 0)


def test_expand_rational_requires_unit_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        expand_rational([1], [0, 1], 3)
    with pytest.raises(ValueError, match="constant term"):
        expand_rational([1], [2, 1], 3)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (IntSeries, ((),), "a series carries at least its constant term"),
        (power_sums, (WeightSignature((1, 1)), 0), "length must be >= 1, got 0"),
        (zassenhaus_dims, (0, 1, 3), "need d >= 1 and m >= 0, got d = 0, m = 1"),
        (zassenhaus_dims, (True, 0, 3), "d must be an int, got bool"),
        (zassenhaus_dims, (2.0, 1, 3), "d must be an int, got float"),
        (zassenhaus_dims, (4, 1.0, 3), "m must be an int, got float"),
    ],
)
def test_series_refusals_name_the_failing_check(call, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)


@pytest.mark.parametrize("bad", [1.7, "3", True, 2.0])
def test_series_entry_points_refuse_non_integers(bad):
    with pytest.raises(ValueError, match="numerator coefficients must be integers"):
        expand_rational([bad], [1], 3)
    with pytest.raises(ValueError, match="denominator coefficients must be integers"):
        expand_rational([1], [1, bad], 3)
    with pytest.raises(ValueError, match="series coefficients must be integers"):
        IntSeries((1, bad))
    with pytest.raises(ValueError, match="dimensions must be integers"):
        DimensionSequence("reduced_b", 2, (bad,))


def test_expand_rational_inverts_multiplication():
    rng = random.Random(3)
    for _ in range(100):
        den = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        n_max = 12
        series = expand_rational(num, den, n_max).coeffs
        back = mul_series(series, den, n_max)
        expected = (num + [0] * (n_max + 1))[: n_max + 1]
        assert back == expected


def test_weight_signature_validation():
    sig = WeightSignature((1, 1), (2,))
    assert sig.r == 2 and sig.denominator() == [1, -2, 1]
    with pytest.raises(ValueError):
        WeightSignature((), ())
    with pytest.raises(ValueError):
        WeightSignature((0, 1), ())
    with pytest.raises(ValueError):
        WeightSignature((1,), (0,))


def test_strongly_free_series_frozen_values():
    sig = WeightSignature((1, 1, 1, 1), (2, 2, 2, 2))
    assert strongly_free_series(sig, 7).coeffs == (1, 4, 12, 32, 80, 192, 448, 1024)
    free2 = WeightSignature((1, 1), ())
    assert strongly_free_series(free2, 5).coeffs == (1, 2, 4, 8, 16, 32)


def test_strongly_free_series_denominator_identity():
    # the series times its defining denominator is 1
    rng = random.Random(5)
    for _ in range(50):
        d = rng.randint(1, 5)
        e = tuple(sorted(rng.randint(1, 3) for _ in range(d)))
        h = tuple(sorted(rng.randint(2, 4) for _ in range(rng.randint(0, 3))))
        sig = WeightSignature(e, h)
        n_max = 10
        series = strongly_free_series(sig, n_max).coeffs
        den = sig.denominator()
        product = mul_series(series, den, n_max)
        assert product == [1] + [0] * n_max


def test_gamma_series_is_prefix_sum():
    sig = WeightSignature((1, 1, 1, 1), (2, 2, 2, 2))
    plain = strongly_free_series(sig, 6).coeffs
    gamma = gamma_series(sig, 6).coeffs
    assert gamma == tuple(sum(plain[: n + 1]) for n in range(7))
    assert gamma == (1, 5, 17, 49, 129, 321, 769)


def test_power_sums_known_factorizations():
    # 1 - 2t + t^2 = (1 - t)^2: two roots equal to 1
    assert power_sums(WeightSignature((1, 1), (2,)), 4) == (2, 2, 2, 2)
    # 1 - 4t + 4t^2 = (1 - 2t)^2: p_n = 2 * 2^n
    assert power_sums(WeightSignature((1, 1, 1, 1), (2, 2, 2, 2)), 3) == (4, 8, 16)
    # 1 - 4t + 3t^2 = (1 - t)(1 - 3t): p_n = 1 + 3^n
    sig = WeightSignature((1, 1, 1, 1), (2, 2, 2))
    assert power_sums(sig, 4) == (4, 10, 28, 82)


def test_power_sums_match_newton_recurrence_spot():
    sig = WeightSignature((1, 1, 2), (3,))
    assert power_sums(sig, 3) == (2, 6, 11)


def newton_power_sums(sig, length):
    """Reference: Newton's recurrence p_l = -l*c_l - sum_{i=1}^{l-1} c_i p_{l-i},
    every term spelled out."""
    den = sig.denominator()
    c = lambda i: den[i] if i < len(den) else 0
    p = []
    for ell in range(1, length + 1):
        total = -ell * c(ell)
        for i in range(1, ell):
            total -= c(i) * p[ell - i - 1]
        p.append(total)
    return tuple(p)


def full_scan_bn(sig, n_max):
    """Reference: b_n, n = 2..n_max, testing every l <= n for divisibility;
    the first nonrealizable n as (n, value, reason) instead."""
    p = newton_power_sums(sig, n_max)
    r = sig.r
    values = []
    for n in range(2, n_max + 1):
        total = 0
        for ell in range(1, n + 1):
            if n % ell == 0:
                total += mobius(n // ell) * (p[ell - 1] + (r if ell % 2 == 0 else -r))
        q, rem = divmod(total, n)
        if rem != 0:
            return (n, total / n, "not an integer")
        if q < 0:
            return (n, q, "negative")
        values.append(q)
    return tuple(values)


def test_power_sums_and_bn_match_newton_and_full_scan_references():
    signatures = [
        WeightSignature(e, h)
        for e in itertools.chain.from_iterable(
            itertools.product((1, 2, 3), repeat=k) for k in (1, 2, 3)
        )
        for h in itertools.chain.from_iterable(
            itertools.product((2, 3, 4), repeat=k) for k in (0, 1, 2)
        )
    ]
    assert len(signatures) == 507
    nonrealizable = 0
    for sig in signatures:
        assert power_sums(sig, 30) == newton_power_sums(sig, 30), sig
        try:
            got = reduced_dims_bn(sig, 30).values
        except NonRealizableError as err:
            got = (err.n, err.value, err.reason)
            nonrealizable += 1
        assert got == full_scan_bn(sig, 30), sig
    assert 0 < nonrealizable < len(signatures)


def test_lower_central_dims_to_degree_8000_runs_in_linear_steps():
    # the O(N^2) references above need about 14 s for this on a 2-CPU host
    sig = WeightSignature((1, 1, 1, 1), (2, 2, 2, 2))
    started = time.perf_counter()
    a = lower_central_dims(sig, 8000)
    assert time.perf_counter() - started < 3.0
    assert len(a.values) == 8000 and a.values[:4] == (4, 6, 10, 16)


def test_reduced_dims_bn_frozen():
    sig = WeightSignature((1, 1, 1, 1), (2, 2, 2, 2))
    dims = reduced_dims_bn(sig, 4)
    assert dims.start == 2 and dims.values == (6, 4, 6)
    # free on two generators: the reduced algebra still has the square terms
    free2 = WeightSignature((1, 1), ())
    assert reduced_dims_bn(free2, 4).values == (3, 2, 3)


def test_lower_central_dims_partial_sums():
    sig = WeightSignature((1, 1, 1, 1), (2, 2, 2, 2))
    a = lower_central_dims(sig, 4)
    assert a.start == 1 and a.values == (4, 6, 10, 16)
    # a_1 = generator count; for n >= 2, a_n accumulates b_2 + ... + b_n
    b = reduced_dims_bn(sig, 4)
    rebuilt, acc = [sig.r], 0
    for value in b.values:
        acc += value
        rebuilt.append(acc)
    assert tuple(rebuilt) == a.values


def test_zassenhaus_dims_frozen_and_free_case():
    assert zassenhaus_dims(4, 4, 4).values == (4, 6, 4, 12)
    # m = 0 gives the free restricted algebra: partial sums of Witt numbers
    # over divisor chains, frozen from the defining product expansion
    assert zassenhaus_dims(2, 0, 8).values == (2, 3, 2, 6, 6, 11, 18, 36)


def test_zassenhaus_product_identity():
    # prod (1 + t^n)^(a_n) must reproduce 1/(1 - d t + m t^2)
    for d, m in ((2, 0), (3, 2), (4, 4), (5, 4), (3, 1), (5, 2), (2, 1)):
        n_max = 30
        a = zassenhaus_dims(d, m, n_max).values
        product = [1] + [0] * n_max
        for n, a_n in enumerate(a, start=1):
            factor = [0] * (n_max + 1)
            from math import comb

            for k in range(0, n_max // n + 1):
                factor[n * k] = comb(a_n, k)
            product = mul_series(product, factor, n_max)
        expected = expand_rational([1], [1, -d, m], n_max).coeffs
        assert tuple(product) == expected, (d, m)


def test_series_size_guard(monkeypatch):
    check_series_size(8, 2, 1000)  # about 0.2 MiB
    with pytest.raises(BoundExceededError):
        check_series_size(8, 2, 100000)
    with pytest.raises(BoundExceededError):
        check_series_size(MAX_SERIES_BITS // 64, 1, 0)
    with pytest.raises(ValueError):
        check_series_size(8, 2, -1)
    # every entry point checks; a small limit keeps the unguarded work small
    monkeypatch.setattr(series, "MAX_SERIES_BITS", 2**16)
    sig = WeightSignature((1, 1, 1, 1), (2, 2, 2, 2))
    assert len(strongly_free_series(sig, 100).coeffs) == 101
    for call in (
        lambda: strongly_free_series(sig, 200),
        lambda: gamma_series(sig, 200),
        lambda: reduced_dims_bn(sig, 200),
        lambda: lower_central_dims(sig, 200),
        lambda: zassenhaus_dims(4, 4, 200),
        lambda: strongly_free_series(WeightSignature((2000,)), 4),
    ):
        with pytest.raises(BoundExceededError):
            call()


def test_nonrealizable_negative_dimension():
    sig = WeightSignature((1, 1), (2, 2))
    with pytest.raises(NonRealizableError) as info:
        reduced_dims_bn(sig, 5)
    assert info.value.n == 3 and info.value.reason == "negative"


def test_nonrealizable_fractional_dimension():
    for d, m in ((1, 1), (2, 3)):
        with pytest.raises(NonRealizableError) as info:
            zassenhaus_dims(d, m, 6)
        assert info.value.n == 3 and info.value.reason in ("negative", "fractional")


def test_verify_cent_g_degenerate_and_standard():
    assert verify_cent_g(WeightSignature((1, 1, 1, 1), (2, 2, 2, 2)), 10)
    assert verify_cent_g(WeightSignature((1, 1), ()), 10)
    assert verify_cent_g(WeightSignature((1,), ()), 8)


def test_int_series_and_dimension_sequence_accessors():
    s = IntSeries((1, 2, 3))
    assert list(s.pairs()) == [(0, 1), (1, 2), (2, 3)]
    dims = DimensionSequence("lower_central", 1, (4, 6))
    assert list(dims.pairs()) == [(1, 4), (2, 6)]
    data = dims.to_json_dict()
    assert data["kind"] == "lower_central" and data["start"] == 1 and data["values"] == [4, 6]

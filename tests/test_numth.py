import math

import pytest
from hypothesis import given, strategies as st


from galcodes.errors import DomainError
from galcodes.numth import (factorize, is_prime, multiplicative_order, prime_power_split,
                            valuation)
from helpers import divisors


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(40):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)  # 641 * 6700417


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in factorize(n):
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_factorize_sorted_and_cached():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(360) is factorize(360)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_prime_power_split():
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(7) == (7, 1)
    with pytest.raises(ValueError):
        prime_power_split(12)


def test_prime_power_split_raises_domain_error():
    for q in (12, 6, 1, 0, -4):
        with pytest.raises(DomainError, match="not a prime power"):
            prime_power_split(q)


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 1) == 1
    assert multiplicative_order(4, 5) == 2
    with pytest.raises(ValueError):
        multiplicative_order(2, 4)


@given(st.integers(min_value=2, max_value=500), st.integers(min_value=2, max_value=9))
def test_multiplicative_order_is_minimal(j, q):
    if math.gcd(j, q) != 1:
        return
    e = multiplicative_order(q, j)
    assert pow(q, e, j) == 1
    assert all(pow(q, t, j) != 1 for t in range(1, e))


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(7, 2) == 0
    for n, p in [(6, 1), (6, 0), (6, -1), (0, 2)]:
        with pytest.raises(ValueError):
            valuation(n, p)

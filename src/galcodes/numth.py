"""Elementary number theory helpers used across the package.

Everything here is exact integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any size used here."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a small prime
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a sorted tuple of (prime, exponent)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        for p in _SMALL_PRIMES:
            if m % p == 0:
                out[p] = out.get(p, 0) + 1
                stack.append(m // p)
                break
        else:
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return tuple(sorted(out.items()))


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p**s for prime p and s >= 1, or raise DomainError."""
    fac = factorize(q) if q >= 2 else ()
    if len(fac) != 1:
        raise DomainError(f"{q} is not a prime power")
    return fac[0]


def multiplicative_order(q: int, n: int) -> int:
    """Least k >= 1 with q**k == 1 (mod n).  Order modulo 1 is 1."""
    if n == 1:
        return 1
    if math.gcd(q, n) != 1:
        raise ValueError(f"{q} is not a unit modulo {n}")
    # group exponent divides lambda(n); testing divisors of the full unit
    # group order keeps this exact without needing Carmichael's function
    order = 1
    for p, e in factorize(n):
        block = p ** (e - 1) * (p - 1)
        order = order * block // math.gcd(order, block)
    k = order
    for p, _ in factorize(order):
        while k % p == 0 and pow(q, k // p, n) == 1:
            k //= p
    return k


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n; n must be nonzero and p >= 2."""
    if n == 0 or p < 2:
        raise ValueError(f"no valuation of {n} at {p}: needs n != 0 and p >= 2")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e

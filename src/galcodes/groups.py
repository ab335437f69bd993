"""Finite abelian groups presented as direct products of cyclic groups.

Elements are plain coordinate tuples; the group object carries the
arithmetic.  The factor list is kept exactly as given (no invariant-factor
normalization), since coordinates are meaningful to callers.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from .errors import BoundExceededError, DomainError, _check_int, _check_type
from .numth import factorize, is_prime, valuation

_DIRECT_COUNT_LIMIT = 10**6


class AbelianGroup:
    """Direct product of Z_{m_1} x ... x Z_{m_k}; the empty product is trivial."""

    __slots__ = ("factors", "order", "exponent")

    def __init__(self, factors=()):
        fs = tuple(factors)
        for m in fs:
            _check_int("cyclic factor", m, 2)
        self.factors = fs
        self.order = math.prod(fs) if fs else 1
        self.exponent = math.lcm(*fs)

    def __repr__(self) -> str:
        return format_group(self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def element(self, coords) -> tuple[int, ...]:
        raw = tuple(coords)
        if len(raw) != len(self.factors):
            raise DomainError(f"expected {len(self.factors)} coordinates, got {len(raw)}")
        if any(type(c) is not int for c in raw):
            raise DomainError(f"coordinates {raw!r} are not all integers")
        return tuple(c % m for c, m in zip(raw, self.factors))

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in lexicographic coordinate order."""
        return list(itertools.product(*(range(m) for m in self.factors)))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.factors))

    def neg(self, a) -> tuple[int, ...]:
        return tuple(-x % m for x, m in zip(a, self.factors))

    def scale(self, k: int, a) -> tuple[int, ...]:
        return tuple(k * x % m for x, m in zip(a, self.factors))


def element_order(group: AbelianGroup, a) -> int:
    """Additive order: lcm over coordinates of m_i / gcd(m_i, a_i)."""
    return math.lcm(*(m // math.gcd(m, x) for x, m in zip(a, group.factors)))


def order_census(group: AbelianGroup) -> dict[int, int]:
    """Order -> element count, by one full scan of at most 10^6 elements."""
    if _check_type("group", group, AbelianGroup).order > _DIRECT_COUNT_LIMIT:
        raise BoundExceededError(
            f"direct scan over {group.order} elements refused, "
            f"above the bound {_DIRECT_COUNT_LIMIT}")
    out: dict[int, int] = {}
    for a in group.elements():
        d = element_order(group, a)
        out[d] = out.get(d, 0) + 1
    return out


def _primary_order_count(group: AbelianGroup, q: int, b: int) -> int:
    """Elements of order q^b in the q-primary part, via the multiplicity formula.

    With n_j factors of q-valuation j (j = 1..t) and N = sum(n_j), the
    count of elements of order dividing q^i is q^(s_i) where
    s_i = i*N + sum_{j<i} (j - i) * n_j, so exactly-q^b counts are
    q^(s_b) - q^(s_{b-1}).
    """
    mult: dict[int, int] = {}
    for m in group.factors:
        v = valuation(m, q)
        if v:
            mult[v] = mult.get(v, 0) + 1
    t = max(mult, default=0)
    if b > t:
        return 0
    total = sum(mult.values())

    def s(i: int) -> int:
        return i * total + sum((j - i) * nj for j, nj in mult.items() if j < i)

    return q ** s(b) - q ** s(b - 1)


def count_order_formula(group: AbelianGroup, d: int) -> int:
    """Count elements of order d without scanning (multiplicative over primes)."""
    _check_type("group", group, AbelianGroup)
    out = 1
    for q, b in factorize(_check_int("order", d, 1)):
        out *= _primary_order_count(group, q, b)
        if out == 0:
            return 0
    return out


@dataclass(frozen=True)
class SylowDecomposition:
    """G = A + P with P the Sylow p-part and A of order coprime to p.

    split/join translate between G-coordinates and (A, P)-coordinate pairs;
    both directions are total bijections.
    """

    group: AbelianGroup
    p: int
    coprime_part: AbelianGroup
    p_part: AbelianGroup
    _a_slots: tuple[int, ...]
    _p_slots: tuple[int, ...]
    _crt: tuple[tuple[int, int, int], ...]  # (m_coprime, m_p, unit u = 1 mod m', 0 mod p^e)

    def split(self, g) -> tuple[tuple[int, ...], tuple[int, ...]]:
        a = tuple(g[i] % self._crt[i][0] for i in self._a_slots)
        b = tuple(g[i] % self._crt[i][1] for i in self._p_slots)
        return a, b

    def join(self, a, b) -> tuple[int, ...]:
        full_a = {slot: x for slot, x in zip(self._a_slots, a)}
        full_b = {slot: x for slot, x in zip(self._p_slots, b)}
        out = []
        for i, m in enumerate(self.group.factors):
            mc, mp, u = self._crt[i]
            x = full_a.get(i, 0)
            y = full_b.get(i, 0)
            # u = 1 mod mc, 0 mod mp; so x*u + y*(1-u) hits both residues
            out.append((x * u + y * (1 - u)) % m)
        return tuple(out)


def sylow_decompose(group: AbelianGroup, p: int) -> SylowDecomposition:
    """Split each cyclic factor by CRT into its p-part and coprime part;
    p must be prime."""
    _check_type("group", group, AbelianGroup)
    if not is_prime(_check_int("p", p)):
        raise DomainError(f"p = {p} is not prime")
    a_factors, p_factors = [], []
    a_slots, p_slots, crt = [], [], []
    for i, m in enumerate(group.factors):
        e = valuation(m, p)
        mp = p**e
        mc = m // mp
        if mc > 1:
            a_slots.append(i)
            a_factors.append(mc)
        if mp > 1:
            p_slots.append(i)
            p_factors.append(mp)
        if mc > 1 and mp > 1:
            u = (mp * pow(mp, -1, mc)) % m
        elif mc > 1:
            u = 1
        else:
            u = 0
        crt.append((mc, mp, u))
    return SylowDecomposition(group, p, AbelianGroup(a_factors), AbelianGroup(p_factors),
                              tuple(a_slots), tuple(p_slots), tuple(crt))


def character_exponent(group: AbelianGroup, h, b) -> int:
    """Exponent gamma_h(b) = sum(b_i * h_i * M/m_i) mod M, M the group exponent.

    Symmetric and biadditive; zeta**character_exponent(h, b) evaluates the
    character indexed by h at b for any zeta of order M.
    """
    M = group.exponent
    return sum(x * y * (M // m) for x, y, m in zip(h, b, group.factors)) % M


# -- text format -------------------------------------------------------------

_GROUP_RE = re.compile(r"^Z(\d+)(?:xZ(\d+))*$")


def parse_group(text: str) -> AbelianGroup:
    """Parse 'Z6', 'Z2xZ4', or '1' / 'Z1' (trivial group)."""
    t = text.strip()
    if t in ("1", "Z1"):
        return AbelianGroup(())
    if not _GROUP_RE.match(t):
        raise DomainError(f"cannot parse group {text!r}; expected Z<n>[xZ<n>...], Z1 or 1")
    try:
        return AbelianGroup(int(part[1:]) for part in t.split("x"))
    except DomainError:
        raise DomainError(f"cyclic factors in {text!r} must be >= 2") from None


def format_group(group: AbelianGroup) -> str:
    if not _check_type("group", group, AbelianGroup).factors:
        return "1"
    return "x".join(f"Z{m}" for m in group.factors)


def element_text(a) -> str:
    return "(" + ",".join(str(c) for c in a) + ")"

"""q-cyclotomic classes of a finite abelian group and their duality types.

For q = p^s coprime to |A|, the class of a is the orbit {q^i * a}.  Under
the Euclidean pairing a class is

  type I   if a = -a,
  type II  if -a lies in the class but a != -a,
  type III otherwise (classes then pair off under negation).

When s is even there is a second taxonomy for the Hermitian pairing:

  type II'  if -p^(s/2) * a lies in the class,
  type III' otherwise (classes pair off under a -> -p^(s/2) * a).

'Good pair' classification: (j, q) is good when j divides q^t + 1 for some
t >= 1; all solutions t share the parity of the least one, splitting good
pairs into oddly and evenly good.  Class types are controlled by the pair
(order of a, q), which is what the counting formulas consume.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .groups import AbelianGroup
from .numth import multiplicative_order, prime_power_split

TYPE_I = "I"
TYPE_II = "II"
TYPE_III = "III"
TYPE_II_H = "II'"
TYPE_III_H = "III'"

EUCLIDEAN = "euclidean"
HERMITIAN = "hermitian"


def _pairing_twist(pairing: str, s: int) -> int:
    """h of a pairing over GR(p^r, s): 0 (Euclidean) or s/2 (Hermitian, s
    even).  The one check of pairing names; anything else is refused."""
    if pairing == EUCLIDEAN:
        return 0
    if pairing != HERMITIAN:
        raise DomainError(f"unknown pairing {pairing!r}")
    if s % 2:
        raise DomainError("Hermitian pairing needs even degree s")
    return s // 2


class PairGoodness(enum.Enum):
    ODDLY_GOOD = "oddly_good"
    EVENLY_GOOD = "evenly_good"
    BAD = "bad"


def classify_pair(j: int, q: int) -> PairGoodness:
    """Order criterion: good iff ord_j(q) = e is even and q^(e/2) = -1 (mod j),
    the least witness then being t = e/2; j <= 2 is always oddly good."""
    if j < 1:
        raise DomainError(f"j must be positive, got {j}")
    if math.gcd(j, q) != 1:
        raise DomainError(f"gcd({j}, {q}) != 1")
    if j <= 2:
        return PairGoodness.ODDLY_GOOD
    e = multiplicative_order(q, j)
    if e % 2 or pow(q, e // 2, j) != j - 1:
        return PairGoodness.BAD
    return PairGoodness.ODDLY_GOOD if (e // 2) % 2 else PairGoodness.EVENLY_GOOD


def bad_pair_indicator(j: int, q: int) -> int:
    """1 when (j, q) is bad, else 0."""
    return 1 if classify_pair(j, q) is PairGoodness.BAD else 0


def even_pair_indicator(j: int, q: int) -> int:
    """0 when (j, q) is oddly good, else 1."""
    return 0 if classify_pair(j, q) is PairGoodness.ODDLY_GOOD else 1


@dataclass(frozen=True)
class CyclotomicClass:
    """One orbit {q^i * a}, with duality types and partner representatives.

    elements are listed in orbit order starting from the lexicographically
    least member (the representative).  Partner fields hold the partner
    class representative for paired types, None otherwise; hermitian fields
    are None when s is odd.
    """

    group: AbelianGroup
    q: int
    rep: tuple[int, ...]
    elements: tuple[tuple[int, ...], ...]
    euclidean_type: str
    hermitian_type: str | None
    euclidean_partner: tuple[int, ...] | None
    hermitian_partner: tuple[int, ...] | None

    @property
    def cardinality(self) -> int:
        return len(self.elements)


def _orbit(group: AbelianGroup, q: int, a) -> tuple[tuple[int, ...], ...]:
    qr = q % group.exponent if group.exponent > 1 else 0
    out = [a]
    cur = group.scale(qr, a)
    while cur != a:
        out.append(cur)
        cur = group.scale(qr, cur)
    rep = min(out)
    i = out.index(rep)
    return tuple(out[i:] + out[:i])


def class_of(group: AbelianGroup, q: int, a) -> CyclotomicClass:
    """The q-cyclotomic class of a, fully classified."""
    p, s = prime_power_split(q)
    if math.gcd(group.order, p) != 1:
        raise DomainError(f"|A| = {group.order} is not coprime to p = {p}")
    a = group.element(a)
    orbit = _orbit(group, q, a)
    members = set(orbit)
    neg = group.neg(a)
    if neg == a:
        etype, epartner = TYPE_I, None
    elif neg in members:
        etype, epartner = TYPE_II, None
    else:
        etype, epartner = TYPE_III, min(_orbit(group, q, neg))
    htype = hpartner = None
    if s % 2 == 0:
        conj = group.neg(group.scale(pow(p, s // 2, max(group.exponent, 1)), a))
        if conj in members:
            htype = TYPE_II_H
        else:
            htype, hpartner = TYPE_III_H, min(_orbit(group, q, conj))
    return CyclotomicClass(group, q, orbit[0], orbit, etype, htype, epartner, hpartner)


@dataclass(frozen=True)
class ClassPartition:
    """All q-cyclotomic classes of a group, with both pairing layouts.

    classes are sorted by representative.  euclidean_singles lists the
    indices of type-I classes then type-II classes; euclidean_pairs holds
    (primary, partner) index pairs for type III, primary being the class
    with the smaller representative.  The hermitian fields are analogous
    (empty when s is odd, where no Hermitian structure exists).
    """

    group: AbelianGroup
    p: int
    s: int
    q: int
    classes: tuple[CyclotomicClass, ...]
    euclidean_singles: tuple[int, ...]
    euclidean_pairs: tuple[tuple[int, int], ...]
    hermitian_singles: tuple[int, ...]
    hermitian_pairs: tuple[tuple[int, int], ...]

    def layout(self, pairing: str) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """(singles, pairs) of the 'euclidean' or 'hermitian' pairing."""
        if _pairing_twist(pairing, self.s) == 0:
            return self.euclidean_singles, self.euclidean_pairs
        return self.hermitian_singles, self.hermitian_pairs


@lru_cache(maxsize=None)
def _partition_cached(factors: tuple[int, ...], q: int) -> ClassPartition:
    group = AbelianGroup(factors)
    p, s = prime_power_split(q)
    if math.gcd(group.order, p) != 1:
        raise DomainError(f"|A| = {group.order} is not coprime to p = {p}")
    classes: list[CyclotomicClass] = []
    seen: set[tuple[int, ...]] = set()
    for a in group.elements():
        if a in seen:
            continue
        cls = class_of(group, q, a)
        classes.append(cls)
        seen.update(cls.elements)
    classes.sort(key=lambda c: c.rep)
    index = {c.rep: i for i, c in enumerate(classes)}

    e_singles = [i for i, c in enumerate(classes) if c.euclidean_type == TYPE_I]
    e_singles += [i for i, c in enumerate(classes) if c.euclidean_type == TYPE_II]
    e_pairs = [(i, index[c.euclidean_partner]) for i, c in enumerate(classes)
               if c.euclidean_type == TYPE_III and c.rep < c.euclidean_partner]

    h_singles: list[int] = []
    h_pairs: list[tuple[int, int]] = []
    if s % 2 == 0:
        h_singles = [i for i, c in enumerate(classes) if c.hermitian_type == TYPE_II_H]
        h_pairs = [(i, index[c.hermitian_partner]) for i, c in enumerate(classes)
                   if c.hermitian_type == TYPE_III_H and c.rep < c.hermitian_partner]
    return ClassPartition(group, p, s, q, tuple(classes),
                          tuple(e_singles), tuple(e_pairs),
                          tuple(h_singles), tuple(h_pairs))


def partition(group: AbelianGroup, q: int) -> ClassPartition:
    """Partition the whole group into q-cyclotomic classes (cached)."""
    return _partition_cached(group.factors, q)

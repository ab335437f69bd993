"""q-cyclotomic classes of a finite abelian group and their duality types.

For q = p^s coprime to |A|, the class of a is the orbit {q^i * a}.  Both
pairings follow one rule, with twist h = 0 (Euclidean) or h = s/2
(Hermitian, s even): the class of a pairs with the class of -p^h * a,
which only _partner_point computes.  The paper's types name the outcomes:
a class that is its own partner is type I (-a = a) or II when h = 0, and
type II' when h = s/2; a class paired with another is type III or III'.
The partition owns the precondition that |A| is coprime to p: one scan
of the group builds it, class_of looks a class up in it, and every
ambient decomposition is built on it.

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

from .errors import DomainError, _check_int, _check_type
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
    if math.gcd(_check_int("j", j, 1), _check_int("q", q)) != 1:
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


def _partner_point(group: AbelianGroup, p: int, h: int, a) -> tuple[int, ...]:
    """-p^h * a, the point whose class pairs with the class of a under the
    pairing of twist h."""
    return group.neg(group.scale(pow(p, h, group.exponent), a))


def class_of(group: AbelianGroup, q: int, a) -> CyclotomicClass:
    """The q-cyclotomic class of a, fully classified: a lookup into the
    cached partition, which checks group and q (coprimality included)."""
    parts = partition(group, q)
    a = group.element(a)
    return next(c for c in parts.classes if a in c.elements)


Layout = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class ClassPartition:
    """All q-cyclotomic classes of a group, with the layout of each pairing.

    classes are sorted by representative.  The layout of a pairing is
    (singles, pairs): singles are the indices of the classes that are their
    own partner, type I before type II (the Hermitian ones, all type II',
    in class order); pairs are (primary, partner) index pairs, primary
    being the class with the smaller representative.  _layouts holds the
    Euclidean layout, then the Hermitian one when s is even, each with its
    slots appended: (class index, spreads), singles then pairs in layout
    order, a single with the spread (orbit, 0), a pair also with (partner
    orbit rotated to start at -p^h * rep, h).
    """

    group: AbelianGroup
    p: int
    s: int
    q: int
    classes: tuple[CyclotomicClass, ...]
    _layouts: tuple[tuple, ...]

    def layout(self, pairing: str) -> Layout:
        """(singles, pairs) of the 'euclidean' or 'hermitian' pairing."""
        return self._pairing_layout(pairing)[:2]

    def _pairing_layout(self, pairing: str) -> tuple:
        """(singles, pairs, slots) of the 'euclidean' or 'hermitian' pairing."""
        return self._layouts[1 if _pairing_twist(pairing, self.s) else 0]


@lru_cache(maxsize=None)
def _partition_cached(factors: tuple[int, ...], q: int) -> ClassPartition:
    """One lexicographic scan: a point not yet seen starts its orbit and is
    its least member, so the classes come out in representative order.  The
    map from each point to (class index, position in its orbit) then gives,
    by one lookup of -p^h * rep per class and pairing, the partner class,
    the type and the rotation of the partner orbit."""
    group = AbelianGroup(factors)
    p, s = prime_power_split(q)
    if math.gcd(group.order, p) != 1:
        raise DomainError(f"|A| = {group.order} is not coprime to p = {p}")
    orbits: list[tuple[tuple[int, ...], ...]] = []
    where: dict = {}
    for a in group.elements():
        if a not in where:
            orbit = [a]
            while (b := group.scale(q, orbit[-1])) != a:
                orbit.append(b)
            where.update((b, (len(orbits), k)) for k, b in enumerate(orbit))
            orbits.append(tuple(orbit))
    taxonomies, layouts = [], []
    for h in (0,) if s % 2 else (0, s // 2):
        taxonomy, pairs, pair_slots = [], [], []
        for i, orbit in enumerate(orbits):
            j, k = where[_partner_point(group, p, h, orbit[0])]
            if j == i:
                own = TYPE_II_H if h else TYPE_I if group.neg(orbit[0]) == orbit[0] else TYPE_II
                taxonomy.append((own, None))
                continue
            taxonomy.append((TYPE_III_H if h else TYPE_III, orbits[j][0]))
            if i < j:
                pairs.append((i, j))
                pair_slots.append((i, ((orbit, 0), (orbits[j][k:] + orbits[j][:k], h))))
        # a stable sort by type name puts type I before type II
        singles = sorted((i for i, (_, b) in enumerate(taxonomy) if b is None),
                         key=lambda i: taxonomy[i][0])
        slots = tuple((i, ((orbits[i], 0),)) for i in singles) + tuple(pair_slots)
        taxonomies.append(taxonomy)
        layouts.append((tuple(singles), tuple(pairs), slots))
    euclidean, hermitian = (taxonomies + [[(None, None)] * len(orbits)])[:2]
    classes = tuple(CyclotomicClass(group, q, orbit[0], orbit, etype, htype, epartner, hpartner)
                    for orbit, (etype, epartner), (htype, hpartner)
                    in zip(orbits, euclidean, hermitian))
    return ClassPartition(group, p, s, q, classes, tuple(layouts))


def partition(group: AbelianGroup, q: int) -> ClassPartition:
    """Partition the whole group into q-cyclotomic classes (cached)."""
    return _partition_cached(_check_type("group", group, AbelianGroup).factors, _check_int("q", q))

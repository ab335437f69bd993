import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from galcodes.cyclotomic import (EUCLIDEAN, HERMITIAN, PairGoodness, TYPE_I, TYPE_II,
                                 TYPE_II_H, TYPE_III, TYPE_III_H, bad_pair_indicator,
                                 class_of, classify_pair, even_pair_indicator, partition)
from galcodes.counting import (euclidean_abelian_count, exists_self_dual,
                               hermitian_abelian_count)
from galcodes.errors import DomainError
from galcodes.galois import construct_ring
from galcodes.group_ring import GroupRing, ambient
from galcodes.groups import AbelianGroup
from galcodes.ideals import construct_self_dual, enumerate_semisimple_selfdual
from helpers import (abelian_groups_up_to, class_containing, class_order, classify_pair_scan,
                     decompose_nested, engine)


# -- single classes ---------------------------------------------------------------

def test_class_of_examples():
    z7 = AbelianGroup((7,))
    cls = class_of(z7, 2, (1,))
    assert set(cls.elements) == {(1,), (2,), (4,)}
    assert cls.rep == (1,)
    assert cls.cardinality == 3

    zero = class_of(z7, 2, (0,))
    assert zero.elements == ((0,),)
    assert zero.euclidean_type == TYPE_I

    z3 = AbelianGroup((3,))
    cls4 = class_of(z3, 4, (1,))
    assert cls4.elements == ((1,),)


def test_class_order():
    z12 = AbelianGroup((12,))
    assert class_order(class_of(z12, 5, (4,))) == 3
    assert class_order(class_of(z12, 5, (0,))) == 1


def test_euclidean_types():
    z3 = AbelianGroup((3,))
    assert class_of(z3, 2, (0,)).euclidean_type == TYPE_I
    assert class_of(z3, 2, (1,)).euclidean_type == TYPE_II  # {1,2} = -{1,2}
    z7 = AbelianGroup((7,))
    c = class_of(z7, 2, (1,))
    assert c.euclidean_type == TYPE_III
    assert c.euclidean_partner == (3,)  # -{1,2,4} = {3,5,6}


def test_hermitian_types():
    z3 = AbelianGroup((3,))
    c0 = class_of(z3, 4, (0,))
    assert c0.euclidean_type == TYPE_I and c0.hermitian_type == TYPE_II_H
    assert class_of(z3, 4, (1,)).hermitian_type == TYPE_II_H  # -2*1 = 1 mod 3
    z5 = AbelianGroup((5,))
    c = class_of(z5, 4, (1,))
    assert c.euclidean_type == TYPE_II
    assert c.hermitian_type == TYPE_III_H
    assert c.hermitian_partner == class_of(z5, 4, c.group.neg(c.group.scale(2, (1,)))).rep


def test_hermitian_needs_even_s():
    z7 = AbelianGroup((7,))
    cls = class_of(z7, 2, (1,))
    assert cls.hermitian_type is None
    assert cls.euclidean_type == TYPE_III
    with pytest.raises(DomainError, match="even degree"):
        partition(z7, 2).layout(HERMITIAN)


def test_class_of_rejects_noncoprime():
    """class_of owns the check; every entry point on the class path
    reaches it and raises its message."""
    z6 = AbelianGroup((6,))
    for call in (lambda: class_of(z6, 2, (1,)), lambda: partition(z6, 4),
                 lambda: ambient(construct_ring(2, 2, 1), z6),
                 lambda: enumerate_semisimple_selfdual(2, 2, 1, z6)):
        with pytest.raises(DomainError, match=r"^\|A\| = 6 is not coprime to p = 2$"):
            call()


# -- partitions ---------------------------------------------------------------------

def layout_types(part, pairing):
    """The types of the pairing's single classes, counted, and its number
    of pairs, each pair holding two classes of that pairing's type III."""
    singles, pairs = part.layout(pairing)
    attr = "euclidean_type" if pairing == EUCLIDEAN else "hermitian_type"
    third = TYPE_III if pairing == EUCLIDEAN else TYPE_III_H
    assert all(getattr(part.classes[i], attr) == third for pair in pairs for i in pair)
    return Counter(getattr(part.classes[i], attr) for i in singles), len(pairs)


def test_partition_z7():
    part = partition(AbelianGroup((7,)), 2)
    assert len(part.classes) == 3
    assert layout_types(part, EUCLIDEAN) == ({TYPE_I: 1}, 1)


def test_partition_trivial_group():
    part = partition(AbelianGroup(()), 4)
    assert len(part.classes) == 1
    assert layout_types(part, EUCLIDEAN) == ({TYPE_I: 1}, 0)
    assert layout_types(part, HERMITIAN) == ({TYPE_II_H: 1}, 0)


def test_partition_z3():
    part = partition(AbelianGroup((3,)), 2)
    assert layout_types(part, EUCLIDEAN) == ({TYPE_I: 1, TYPE_II: 1}, 0)


def test_partition_is_a_partition():
    for factors, q in [((7,), 2), ((3, 3), 2), ((15,), 2), ((5,), 4), ((21,), 4)]:
        g = AbelianGroup(factors)
        part = partition(g, q)
        union = [a for c in part.classes for a in c.elements]
        assert len(union) == g.order
        assert set(union) == set(g.elements())
        singles, pairs = part.layout(EUCLIDEAN)
        covered = set(singles)
        for i, j in pairs:
            covered.update((i, j))
        assert covered == set(range(len(part.classes)))


def test_layout_names_the_two_pairings():
    part = partition(AbelianGroup((15,)), 4)
    assert part.layout("euclidean") == ((0, 3, 5), ((1, 8), (2, 6), (4, 7)))
    assert part.layout("hermitian") == ((0, 4, 7), ((1, 6), (2, 8), (3, 5)))
    for name in ("euclidian", "Euclidean", "none", ""):
        with pytest.raises(DomainError, match="unknown pairing"):
            part.layout(name)
    with pytest.raises(DomainError, match="even degree"):
        partition(AbelianGroup((7,)), 2).layout("hermitian")


@pytest.mark.parametrize("factors, q, pairing, singles, pairs", [
    # Euclidean singles: type I classes, then type II, each in class order
    ((12,), 5, EUCLIDEAN, (0, 5, 2, 4), ((1, 6), (3, 7))),
    # Hermitian singles in class order, although (3) and (6) are fixed by
    # a -> -2a and (1), (2) are not
    ((9,), 4, HERMITIAN, (0, 1, 2, 3, 4), ()),
    ((4,), 9, EUCLIDEAN, (0, 2), ((1, 3),)),
    # class order, not type I first: (2) has Euclidean type I
    ((4,), 9, HERMITIAN, (0, 1, 2, 3), ()),
])
def test_layout_order_of_singles(factors, q, pairing, singles, pairs):
    part = partition(AbelianGroup(factors), q)
    assert part.layout(pairing) == (singles, pairs)
    assert hash(part) == hash(partition(AbelianGroup(factors), q))


Z3 = AbelianGroup((3,))


def _decompose_nested(pairing, s):
    ctx = ambient(construct_ring(2, 2, s), Z3)
    return decompose_nested(GroupRing(ctx.ring, AbelianGroup((2,))).one(), ctx, pairing)


# every entry point that takes a pairing name, called as call(pairing, s)
PAIRING_CALLS = {
    "exists_self_dual": lambda pairing, s: exists_self_dual(2, 2, Z3, pairing, s),
    "hermitian_abelian_count": lambda pairing, s: hermitian_abelian_count(2, 2, s, Z3),
    "ExhaustiveGroupRing.dual": lambda pairing, s: (
        lambda eng: eng.dual(eng.unit_ideal(), pairing))(engine(2, 2, s, (3,))),
    # no ideal of F_{2^s}[Z3] has the size of a self-dual one (F2[Z3] has 8
    # elements, F4[Z3] = F4^3 ideals of 4^k), so these must see the form first
    "ExhaustiveGroupRing.is_self_dual": lambda pairing, s: (
        lambda eng: eng.is_self_dual(eng.unit_ideal(), pairing))(engine(2, 1, s, (3,))),
    "ExhaustiveGroupRing.count_self_dual": lambda pairing, s: engine(2, 1, s, (3,)).count_self_dual(
        pairing),
    "construct_self_dual": lambda pairing, s: construct_self_dual(2, 2, s, Z3, pairing),
    "enumerate_semisimple_selfdual": lambda pairing, s: enumerate_semisimple_selfdual(
        2, 2, s, Z3, pairing),
    "decompose_nested": _decompose_nested,
}


@pytest.mark.parametrize("name, pairing, s, message", [
    (name, "euclidian", 2, "unknown pairing")
    for name in PAIRING_CALLS if name != "hermitian_abelian_count"
] + [(name, "hermitian", 1, "even degree") for name in PAIRING_CALLS])
def test_pairing_names_are_checked_by_one_rule(name, pairing, s, message):
    with pytest.raises(DomainError, match=message):
        PAIRING_CALLS[name](pairing, s)


def test_partition_lookup():
    part = partition(AbelianGroup((7,)), 2)
    assert class_containing(part, (4,)).rep == (1,)
    assert class_containing(part, (2,)) is class_containing(part, (1,))
    assert [c.rep for c in part.classes] == [(0,), (1,), (3,)]


def test_equal_order_classes_share_type_and_size():
    """Classes whose members have the same additive order are interchangeable:
    same cardinality and the same duality type."""
    for factors, q in [((35,), 4), ((9, 5), 4), ((63,), 4)]:
        part = partition(AbelianGroup(factors), q)
        by_order: dict[int, list] = {}
        for c in part.classes:
            by_order.setdefault(class_order(c), []).append(c)
        for group_ in by_order.values():
            assert len({c.cardinality for c in group_}) == 1
            assert len({c.euclidean_type for c in group_}) == 1
            assert len({c.hermitian_type for c in group_}) == 1


# -- pair goodness --------------------------------------------------------------------

def test_classify_pair_examples():
    assert classify_pair(1, 4) is PairGoodness.ODDLY_GOOD
    assert classify_pair(5, 2) is PairGoodness.EVENLY_GOOD
    assert classify_pair(7, 2) is PairGoodness.BAD
    assert classify_pair(3, 2) is PairGoodness.ODDLY_GOOD


def test_indicators():
    assert bad_pair_indicator(7, 2) == 1
    assert bad_pair_indicator(5, 2) == 0
    assert even_pair_indicator(5, 2) == 1
    assert even_pair_indicator(3, 2) == 0
    assert even_pair_indicator(7, 2) == 1


def test_classify_pair_rejects():
    with pytest.raises(DomainError):
        classify_pair(6, 2)
    with pytest.raises(DomainError):
        classify_pair(0, 2)


def test_classify_pair_matches_scan():
    for q in (2, 3, 4, 5, 8, 9):
        for j in range(1, 501):
            if math.gcd(j, q) != 1:
                continue
            assert classify_pair(j, q) is classify_pair_scan(j, q), (j, q)


# -- goodness drives the type partition ------------------------------------------------

def test_odd_goodness_forces_no_type_iii():
    """When every element order j of the group is oddly good for q, the
    partition has no type-III pairs; evenly good forces no type II beyond
    order <= 2; spot checks on both directions."""
    # 5 evenly good for 2, 7 bad for 2, 3 oddly good for 2
    assert layout_types(partition(AbelianGroup((5,)), 2), EUCLIDEAN) == ({TYPE_I: 1, TYPE_II: 1}, 0)
    assert layout_types(partition(AbelianGroup((7,)), 2), EUCLIDEAN) == ({TYPE_I: 1}, 1)
    assert layout_types(partition(AbelianGroup((3,)), 2), EUCLIDEAN)[1] == 0


SLOT_OF_TYPE = {TYPE_I: "single", TYPE_II: "conjugate-single", TYPE_II_H: "conjugate-single",
                TYPE_III: "pair", TYPE_III_H: "pair"}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_layouts_match_the_product_formula(p):
    """The orbit definition against the indicator theorem: for every group
    of order <= 64 coprime to p, s <= 4 and both pairings, the single
    classes and the pairs of order d in the layout are the slots the
    formula's factor for d counts in its exponent, and each class of
    order d has that factor's orbit size and the slot its type names."""
    counts = {EUCLIDEAN: euclidean_abelian_count, HERMITIAN: hermitian_abelian_count}
    cases = 0
    for group in abelian_groups_up_to(64):
        if group.order % p == 0:
            continue
        for s in range(1, 5):
            part = partition(group, p**s)
            for pairing in (EUCLIDEAN, HERMITIAN)[:2 - s % 2]:
                singles, pairs = part.layout(pairing)
                factors = counts[pairing](p, 2, s, group, provider="trivial").factors
                assert Counter(class_order(part.classes[i]) for i in singles) == Counter(
                    {f.divisor: f.exponent for f in factors if f.slot_type != "pair"})
                assert Counter(class_order(part.classes[i]) for i, _ in pairs) == Counter(
                    {f.divisor: f.exponent for f in factors if f.slot_type == "pair"})
                by_order = {f.divisor: f for f in factors}
                for c in part.classes:
                    f = by_order[class_order(c)]
                    ctype = c.euclidean_type if pairing == EUCLIDEAN else c.hermitian_type
                    assert (c.cardinality, SLOT_OF_TYPE[ctype]) == (f.orbit_size, f.slot_type)
                cases += 1
    assert cases >= 200  # 234, 462 and 588 for p = 2, 3, 5

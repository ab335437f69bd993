import re

import pytest
from hypothesis import given, settings, strategies as st

from galcodes.errors import BoundExceededError, DomainError
from galcodes.groups import (AbelianGroup, character_exponent, count_order_formula,
                             element_order, format_group, order_census, parse_group,
                             sylow_decompose)
from helpers import abelian_groups_up_to, count_order_direct, group_divisor_orders


def test_group_basics():
    g = AbelianGroup((2, 4))
    assert g.order == 8
    assert g.exponent == 4
    assert g.identity == (0, 0)
    assert len(g.elements()) == 8
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 3)) == (1, 1)
    assert g.scale(3, (1, 3)) == (1, 1)


@pytest.mark.parametrize("factor", [2.5, "3", 4.0, None])
def test_non_integer_factor_is_refused(factor):
    # a factor is never truncated or parsed: Z2.5 is not Z2, "3" is not Z3
    with pytest.raises(DomainError, match=f"^cyclic factor must be an integer, got {re.escape(repr(factor))}$"):
        AbelianGroup((2, factor))


@pytest.mark.parametrize("coords", [(1,), (1, 2, 3), ()])
def test_element_refuses_the_wrong_number_of_coordinates(coords):
    with pytest.raises(DomainError, match=f"^expected 2 coordinates, got {len(coords)}$"):
        AbelianGroup((3, 4)).element(coords)


@pytest.mark.parametrize("coords", [(1.5, 7.9), (1, True), (1, "3")], ids=["float", "bool", "str"])
def test_element_refuses_coordinates_that_are_not_integers(coords):
    """(1.5, 7.9) used to give (1, 3)."""
    with pytest.raises(DomainError,
                       match=f"^coordinates {re.escape(repr(coords))} are not all integers$"):
        AbelianGroup((3, 4)).element(coords)


def test_trivial_group():
    g = AbelianGroup(())
    assert g.order == 1
    assert g.exponent == 1
    assert g.elements() == [()]


def test_element_order_examples():
    assert element_order(AbelianGroup((2, 4)), (1, 2)) == 2
    assert element_order(AbelianGroup((7,)), (3,)) == 7
    assert element_order(AbelianGroup((7,)), (0,)) == 1


def test_count_order_direct_examples():
    assert count_order_direct(AbelianGroup((2, 4)), 4) == 4
    assert count_order_direct(AbelianGroup((7,)), 7) == 6
    assert count_order_direct(AbelianGroup((7,)), 1) == 1


def test_count_order_formula_example():
    assert count_order_formula(AbelianGroup((2, 4)), 2) == 3


def test_count_nondivisor_is_zero():
    g = AbelianGroup((2, 4))
    assert count_order_formula(g, 3) == 0
    assert count_order_direct(g, 3) == 0


@pytest.mark.parametrize("d, message", [
    (2.0, "order must be an integer, got 2.0"), (True, "order must be an integer, got True"),
    (0, "order must be at least 1, got 0"), ("2", "order must be an integer, got '2'")],
    ids=["float", "bool", "zero", "str"])
def test_order_formula_refuses_an_order_that_is_not_a_positive_integer(d, message):
    """2.0 used to give the float 1.0, True the count for order 1."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        count_order_formula(AbelianGroup((4,)), d)


def test_formula_matches_direct_count():
    # every abelian group of order <= 256 appears here
    for g in abelian_groups_up_to(256):
        for d in group_divisor_orders(g):
            assert count_order_formula(g, d) == count_order_direct(g, d), g


def test_census_covers_group():
    for g in abelian_groups_up_to(64):
        census = order_census(g)
        assert sum(census.values()) == g.order
        assert census[1] == 1
        for d, n in census.items():
            assert g.exponent % d == 0 and n > 0


def test_census_refuses_above_its_bound():
    g = AbelianGroup((1001, 1000))
    for call in (lambda: order_census(g), lambda: count_order_direct(g, 7)):
        with pytest.raises(BoundExceededError,
                           match="1001000 elements refused, above the bound 1000000"):
            call()


# -- Sylow splitting ----------------------------------------------------------

def test_sylow_example():
    dec = sylow_decompose(AbelianGroup((12,)), 2)
    assert dec.coprime_part == AbelianGroup((3,))
    assert dec.p_part == AbelianGroup((4,))


def test_sylow_trivial_p_part():
    dec = sylow_decompose(AbelianGroup((7,)), 2)
    assert dec.p_part == AbelianGroup(())
    assert dec.coprime_part == AbelianGroup((7,))


@pytest.mark.parametrize("p", [-2, 0, 1, 4, 6, 9])
def test_sylow_decompose_refuses_a_non_prime(p):
    with pytest.raises(DomainError, match=f"p = {p} is not prime"):
        sylow_decompose(AbelianGroup((8,)), p)


def test_sylow_split_join_bijection():
    for factors in [(12,), (2, 4), (6, 10), (8, 3), (2, 2, 9)]:
        g = AbelianGroup(factors)
        for p in (2, 3):
            dec = sylow_decompose(g, p)
            assert dec.coprime_part.order * dec.p_part.order == g.order
            seen = set()
            for x in g.elements():
                a, b = dec.split(x)
                assert dec.join(a, b) == x
                seen.add((a, b))
            assert len(seen) == g.order


def test_sylow_split_is_additive():
    g = AbelianGroup((6, 4))
    dec = sylow_decompose(g, 2)
    for x in g.elements()[::5]:
        for y in g.elements()[::7]:
            ax, px = dec.split(x)
            ay, py = dec.split(y)
            az, pz = dec.split(g.add(x, y))
            assert az == dec.coprime_part.add(ax, ay)
            assert pz == dec.p_part.add(px, py)


# -- characters ----------------------------------------------------------------

def test_character_exponent_examples():
    g = AbelianGroup((2, 4))
    assert character_exponent(g, (1, 1), (1, 2)) == 0
    z7 = AbelianGroup((7,))
    assert character_exponent(z7, (3,), (2,)) == 6
    assert character_exponent(g, g.identity, (1, 3)) == 0


@given(st.sampled_from([(2, 4), (6,), (3, 9), (2, 2, 2)]), st.data())
@settings(max_examples=80, deadline=None)
def test_character_exponent_symmetric_biadditive(factors, data):
    g = AbelianGroup(factors)
    pick = st.sampled_from(g.elements())
    h, a, b = data.draw(pick), data.draw(pick), data.draw(pick)
    M = g.exponent
    assert character_exponent(g, h, a) == character_exponent(g, a, h)
    assert (character_exponent(g, h, g.add(a, b))
            == (character_exponent(g, h, a) + character_exponent(g, h, b)) % M)


# -- text format ----------------------------------------------------------------

def test_parse_group_examples():
    assert parse_group("Z6") == AbelianGroup((6,))
    assert parse_group("Z2xZ4") == AbelianGroup((2, 4))
    assert parse_group("1") == AbelianGroup(())
    assert parse_group("Z1") == AbelianGroup(())


def test_parse_group_rejects_garbage():
    for bad in ("Z0", "Z1xZ2", "Z2xZ1", "S3", "Z2+Z4", ""):
        with pytest.raises(DomainError):
            parse_group(bad)


def test_format_parse_round_trip():
    for factors in [(), (5,), (2, 4), (2, 2, 2)]:
        g = AbelianGroup(factors)
        assert parse_group(format_group(g)) == g

import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from galcodes.cyclotomic import TYPE_I
from galcodes.errors import DomainError
from galcodes.galois import construct_ring, generalized_frobenius
from galcodes.group_ring import (DecomposedElement, GroupRing, GroupRingElement,
                                 _ambient_cached, _slots, _sylow_perm,
                                 ambient, class_idempotents, compose, conjugate,
                                 conjugate_involution, decompose_euclidean,
                                 decompose_hermitian, dft, element_text, idft, involution,
                                 parse_element, sylow_merge, sylow_split)
from galcodes.groups import AbelianGroup, sylow_decompose
from helpers import (class_containing, component_list, compose_ints_by_transform,
                     compose_nested, conjugate_involution_pairing, decompose_nested,
                     decomposed_add, DictElement, dict_conjugate_involution,
                     dict_involution, form_euclidean, form_hermitian, from_coeff_list,
                     idempotents_by_elements, involution_pairing, shift,
                     sylow_merge_by_elements, sylow_split_by_elements)

Z4 = construct_ring(2, 2, 1)
Z2_GROUP = AbelianGroup((2,))


def rand_ring(p, r, s, factors):
    return GroupRing(construct_ring(p, r, s), AbelianGroup(factors))


# -- arithmetic -----------------------------------------------------------------

def test_monomial_multiplication():
    ring = rand_ring(2, 2, 1, (4,))
    g = ring.group
    for a in g.elements():
        for b in g.elements():
            assert ring.monomial(a) * ring.monomial(b) == ring.monomial(g.add(a, b))


def test_binomial_square_in_z4z2():
    ring = GroupRing(Z4, Z2_GROUP)
    x = ring.element({(0,): Z4.one(), (1,): Z4.one()})  # 1 + Y
    two = Z4.from_int(2)
    assert x * x == ring.element({(0,): two, (1,): two})


def test_one_and_zero():
    ring = rand_ring(3, 2, 1, (4,))
    rng = random.Random(7)
    for _ in range(10):
        x = ring.random_element(rng)
        assert x * ring.one() == x
        assert x * ring.zero() == ring.zero()
        assert x - x == ring.zero()


def test_scalar_multiplication():
    ring = GroupRing(Z4, Z2_GROUP)
    x = ring.element({(0,): Z4.one(), (1,): Z4.from_int(3)})
    assert Z4.from_int(2) * x == ring.element({(0,): Z4.from_int(2), (1,): Z4.from_int(2)})


def test_mixed_ring_rejected():
    a = rand_ring(2, 2, 1, (3,)).one()
    b = rand_ring(2, 2, 1, (5,)).one()
    for combine in (a.__add__, a.__sub__):
        with pytest.raises(DomainError, match=r"GR\(2\^2,1\)\[Z3\] with one of GR\(2\^2,1\)\[Z5\]"):
            combine(b)


@pytest.mark.parametrize("other, owner", [(1, "int"), (2.0, "float"), (Z4.one(), r"GR\(2\^2,1\)")],
                         ids=["int", "float", "coefficient"])
def test_sums_refuse_what_is_not_an_element_of_the_ring(other, owner):
    x = GroupRing(Z4, Z2_GROUP).one()
    for combine in (x.__add__, x.__sub__):
        with pytest.raises(DomainError, match=rf"GR\(2\^2,1\)\[Z2\] with one of {owner}$"):
            combine(other)


def test_product_refuses_an_element_of_a_mixed_ring():
    """Z4[Z2] and (Z4[Z3])[Z2] share the outer group but neither ring is
    the other's coefficient ring, so the product is refused both ways."""
    x = GroupRing(Z4, Z2_GROUP).one()
    y = GroupRing(GroupRing(Z4, AbelianGroup((3,))), Z2_GROUP).one()
    with pytest.raises(DomainError, match=r"GR\(2\^2,1\)\[Z2\] by one of GR\(2\^2,1\)\[Z3\]\[Z2\]"):
        x * y
    with pytest.raises(DomainError, match=r"GR\(2\^2,1\)\[Z3\]\[Z2\] by one of GR\(2\^2,1\)\[Z2\]"):
        y * x
    for other in (2.0, "2", Z2_GROUP):
        with pytest.raises(DomainError):
            x * other
        with pytest.raises(DomainError):
            other * x


def test_product_takes_the_coefficient_ring_and_ints():
    inner = GroupRing(Z4, AbelianGroup((3,)))
    outer = GroupRing(inner, Z2_GROUP)
    c = inner.element({(0,): Z4.one(), (1,): Z4.from_int(3)})
    y = outer.element({(0,): inner.one(), (1,): c})
    assert y * c == outer.element({(0,): c, (1,): c * c})
    # c's own product takes only elements of c's ring, its coefficient
    # ring, or ints
    with pytest.raises(DomainError):
        c * y
    assert y * 3 == 3 * y == outer.element({(0,): inner.one() * 3, (1,): c * 3})
    assert (y * 4).is_zero()


def test_element_refuses_foreign_coefficients():
    with pytest.raises(DomainError, match=r"GR\(2\^2,2\) used in GR\(2\^2,1\)\[Z2\]"):
        GroupRing(Z4, Z2_GROUP).element({(0,): construct_ring(2, 2, 2).one()})
    inner = GroupRing(Z4, AbelianGroup((3,)))
    outer = GroupRing(inner, Z2_GROUP)
    with pytest.raises(DomainError, match=r"GR\(2\^2,1\)\[Z5\] used in GR\(2\^2,1\)\[Z3\]\[Z2\]"):
        outer.element({(0,): GroupRing(Z4, AbelianGroup((5,))).one()})
    with pytest.raises(DomainError, match=r"GR\(2\^2,1\) used in"):
        outer.element({(1,): Z4.one()})
    with pytest.raises(DomainError, match="int used in"):
        outer.monomial((1,), 1)
    with pytest.raises(DomainError):
        GroupRing(Z4, Z2_GROUP).monomial((0,), GroupRing(Z4, Z2_GROUP).one())


def test_shift():
    ring = GroupRing(Z4, AbelianGroup((4,)))
    x = ring.element({(0,): Z4.one(), (1,): Z4.from_int(2)})
    assert shift(x, (2,)) == ring.element({(2,): Z4.one(), (3,): Z4.from_int(2)})
    assert shift(x, (1,)) == x * ring.monomial((1,))


def test_from_coeff_list_matches_element_order():
    ring = GroupRing(Z4, AbelianGroup((2, 2)))
    x = from_coeff_list(ring, [Z4.from_int(k) for k in (1, 2, 3, 0)])
    assert x.coefficient((0, 0)) == Z4.one()
    assert x.coefficient((0, 1)) == Z4.from_int(2)
    assert x.coefficient((1, 0)) == Z4.from_int(3)
    assert x.coefficient((1, 1)) == Z4.zero()


# -- bilinear forms -----------------------------------------------------------------

def test_euclidean_form_on_monomials():
    ring = rand_ring(2, 2, 1, (5,))
    g = ring.group
    for a in g.elements():
        for b in g.elements():
            v = form_euclidean(ring.monomial(a), ring.monomial(b))
            assert v == (Z4.one() if a == b else Z4.zero())


def test_euclidean_form_example():
    ring = GroupRing(Z4, Z2_GROUP)
    x = ring.element({(0,): Z4.one(), (1,): Z4.one()})
    assert form_euclidean(x, x) == Z4.from_int(2)


def test_hermitian_form_conjugates_second_argument():
    spec = construct_ring(2, 1, 2)
    ring = GroupRing(spec, AbelianGroup((3,)))
    xi = spec.xi
    x = ring.element({(0,): xi})
    # xi * xi^2 = 1 in GF(4)
    assert form_hermitian(x, x) == spec.one()


def test_hermitian_form_needs_even_degree():
    ring = rand_ring(2, 2, 1, (3,))
    with pytest.raises(DomainError):
        form_hermitian(ring.one(), ring.one())


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_forms_are_biadditive(data):
    ring = rand_ring(2, 2, 2, (3,))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x, y, z = (ring.random_element(rng) for _ in range(3))
    assert form_euclidean(x + y, z) == form_euclidean(x, z) + form_euclidean(y, z)
    assert form_hermitian(x, y + z) == form_hermitian(x, y) + form_hermitian(x, z)


# -- involutions ---------------------------------------------------------------------

def test_involution_on_monomials():
    ring = rand_ring(2, 2, 1, (4,))
    g = ring.group
    for a in g.elements():
        assert involution(ring.monomial(a)) == ring.monomial(g.neg(a))
    assert involution(ring.one()) == ring.one()


def test_involution_is_a_ring_map():
    ring = rand_ring(3, 2, 1, (4,))
    rng = random.Random(3)
    for _ in range(10):
        x, y = ring.random_element(rng), ring.random_element(rng)
        assert involution(involution(x)) == x
        assert involution(x * y) == involution(x) * involution(y)
        assert involution(x + y) == involution(x) + involution(y)


def test_conjugate_involution():
    spec = construct_ring(2, 2, 2)
    ring = GroupRing(spec, AbelianGroup((3,)))
    xi = spec.xi
    x = ring.element({(1,): xi})
    assert conjugate_involution(x) == ring.element({(2,): conjugate(xi)})
    rng = random.Random(5)
    for _ in range(10):
        y = ring.random_element(rng)
        assert conjugate_involution(conjugate_involution(y)) == y


@pytest.mark.parametrize("ring", [rand_ring(2, 2, 1, (3,)), rand_ring(2, 1, 3, (2,)),
                                  GroupRing(rand_ring(2, 1, 2, (3,)), Z2_GROUP)],
                         ids=repr)
def test_conjugate_involution_is_refused_by_ring(ring):
    """Odd coefficient degree or a nested ring is refused, the zero element
    included, and the message names the ring."""
    for x in (ring.zero(), ring.one()):
        with pytest.raises(DomainError, match=re.escape(repr(ring))):
            conjugate_involution(x)


def test_pairings_match_full_ring_product():
    """The nested pairings are the P-identity coefficients of x times the
    involuted partner in the full group ring."""
    spec = construct_ring(2, 1, 2)
    g = AbelianGroup((6,))
    ring = GroupRing(spec, g)
    dec = sylow_decompose(g, 2)
    rng = random.Random(11)
    for _ in range(20):
        x, u = ring.random_element(rng), ring.random_element(rng)
        xs, us = sylow_split(x, dec), sylow_split(u, dec)
        plain = involution_pairing(xs, us)
        conj = conjugate_involution_pairing(xs, us)
        full_plain = x * involution(u)
        full_conj = x * conjugate_involution(u)
        for a in dec.coprime_part.elements():
            point = dec.join(a, dec.p_part.identity)
            assert plain.coefficient(a) == full_plain.coefficient(point)
            assert conj.coefficient(a) == full_conj.coefficient(point)


# -- Sylow re-indexing ------------------------------------------------------------------

@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("p, factors", [(2, (2, 7)), (2, (4, 5)), (2, (2, 2, 3)), (3, (8, 9))])
def test_sylow_permutation_is_the_element_level_reindexing(p, factors, s):
    ring = GroupRing(construct_ring(p, 2, s), AbelianGroup(factors))
    dec = sylow_decompose(ring.group, p)
    perm = _sylow_perm(ring.group.factors, p, s)
    assert sorted(perm) == list(range(s * ring.group.order))
    assert _sylow_perm(ring.group.factors, p, s) is perm
    rng = random.Random(p * 1000 + s * 100 + len(factors))
    for _ in range(20):
        x = ring.random_element(rng)
        nested = sylow_split_by_elements(x, dec)
        assert sylow_split(x, dec) == nested
        assert sylow_merge(nested, dec) == x
        y = nested.ring.random_element(rng)
        assert sylow_merge(y, dec) == sylow_merge_by_elements(y, dec)
        assert sylow_split(sylow_merge(y, dec), dec) == y


def test_sylow_split_and_merge_refuse_another_group():
    """The decomposition of Z6 does not fit Z2[Z10], nor (Z2[Z5])[Z2]
    and (Z2[Z3])[Z4], whose inner or outer group is not its part."""
    dec = sylow_decompose(AbelianGroup((6,)), 2)
    z2 = construct_ring(2, 1, 1)
    with pytest.raises(DomainError, match="Z10.*Z6"):
        sylow_split(GroupRing(z2, AbelianGroup((10,))).one(), dec)
    for inner, outer in (((5,), (2,)), ((3,), (4,)), ((2,), (3,))):
        nested = GroupRing(GroupRing(z2, AbelianGroup(inner)), AbelianGroup(outer))
        with pytest.raises(DomainError, match="Z6"):
            sylow_merge(nested.one(), dec)
    x = GroupRing(z2, AbelianGroup((6,))).one()
    assert sylow_merge(sylow_split(x, dec), dec) == x


def test_sylow_split_is_a_ring_isomorphism():
    spec = construct_ring(2, 1, 1)
    g = AbelianGroup((6,))
    ring = GroupRing(spec, g)
    dec = sylow_decompose(g, 2)
    elements = [from_coeff_list(ring, [spec.from_int((k >> i) & 1) for i in range(6)])
                for k in range(64)]
    images = set()
    for x in elements:
        xs = sylow_split(x, dec)
        assert sylow_merge(xs, dec) == x
        images.add(xs)
    assert len(images) == 64
    rng = random.Random(2)
    for _ in range(40):
        x, y = ring.random_element(rng), ring.random_element(rng)
        assert sylow_split(x * y, dec) == sylow_split(x, dec) * sylow_split(y, dec)
        assert sylow_split(x + y, dec) == sylow_split(x, dec) + sylow_split(y, dec)


# -- character transform ------------------------------------------------------------------

def test_dft_of_one_is_all_ones():
    ctx = ambient(construct_ring(2, 2, 1), AbelianGroup((7,)))
    values = dft(ctx.ring.one(), ctx).values
    assert all(v == ctx.big.one() for v in values.values())


def test_dft_of_monomial_is_character_column():
    ctx = ambient(construct_ring(2, 1, 1), AbelianGroup((3,)))
    spec_values = dft(ctx.ring.monomial((1,)), ctx)
    for h in range(3):
        assert spec_values[(h,)] == ctx.zeta_pows[h]


def test_dft_turns_convolution_into_products():
    for p, r, s, factors in [(2, 2, 1, (3,)), (3, 2, 1, (4,)), (2, 1, 2, (5,)),
                             (3, 2, 2, (5,)), (2, 2, 2, (9,))]:
        ctx = ambient(construct_ring(p, r, s), AbelianGroup(factors))
        rng = random.Random(p * 100 + s)
        for _ in range(6):
            x, y = ctx.ring.random_element(rng), ctx.ring.random_element(rng)
            fx, fy, fxy = dft(x, ctx), dft(y, ctx), dft(x * y, ctx)
            for h in ctx.group.elements():
                assert fxy.values[h] == fx.values[h] * fy.values[h]


def test_dft_frobenius_coherence():
    """theta_s permutes the spectrum along h -> q*h, and the value at h is
    fixed by theta_(s*class size), pinning it into the component subring."""
    ctx = ambient(construct_ring(3, 2, 1), AbelianGroup((8,)))
    q = ctx.spec.residue_size
    rng = random.Random(4)
    for _ in range(8):
        x = ctx.ring.random_element(rng)
        values = dft(x, ctx).values
        for h in ctx.group.elements():
            moved = values[ctx.group.scale(q, h)]
            assert moved == generalized_frobenius(values[h], ctx.spec.s)
            nu = class_containing(ctx.parts, h).cardinality
            assert generalized_frobenius(values[h], ctx.spec.s * nu) == values[h]


def test_idft_round_trip():
    for p, r, s, factors in [(2, 2, 1, (7,)), (3, 2, 1, (8,)), (2, 1, 2, (5,)),
                             (2, 2, 2, (3, 3))]:
        ctx = ambient(construct_ring(p, r, s), AbelianGroup(factors))
        rng = random.Random(s * 10 + p)
        for _ in range(8):
            x = ctx.ring.random_element(rng)
            assert idft(dft(x, ctx)) == x


def test_dft_rejects_foreign_element():
    ctx = ambient(construct_ring(2, 2, 1), AbelianGroup((3,)))
    other = rand_ring(2, 2, 1, (5,))
    with pytest.raises(DomainError):
        dft(other.one(), ctx)


# -- component decomposition -----------------------------------------------------------------

DECOMP_CONFIGS = [(2, 2, 1, (7,)), (2, 2, 1, (3,)), (3, 2, 1, (8,)),
                  (2, 1, 2, (5,)), (2, 2, 2, (3,)), (3, 1, 2, (8,)),
                  (2, 2, 2, (15,)), (5, 2, 1, (4,))]


def test_decompose_one_gives_unit_components():
    for p, r, s, factors in DECOMP_CONFIGS:
        ctx = ambient(construct_ring(p, r, s), AbelianGroup(factors))
        d = decompose_euclidean(ctx.ring.one(), ctx)
        for i, v in d.singles.items():
            assert v == ctx.component_spec(ctx.parts.classes[i].cardinality).one()
        for i, (v, w) in d.pairs.items():
            one = ctx.component_spec(ctx.parts.classes[i].cardinality).one()
            assert v == one and w == one


def test_decompose_euclidean_round_trip_exhaustive():
    spec = construct_ring(2, 2, 1)
    ctx = ambient(spec, AbelianGroup((3,)))
    seen = set()
    for k in range(64):
        coeffs = [spec.from_int((k >> (2 * i)) & 3) for i in range(3)]
        x = from_coeff_list(ctx.ring, coeffs)
        d = decompose_euclidean(x, ctx)
        assert compose(d) == x
        flat = tuple(component_list(d))
        seen.add(flat)
    assert len(seen) == 64  # injective, hence bijective onto the product


def test_decompose_is_multiplicative_and_additive():
    for p, r, s, factors in DECOMP_CONFIGS:
        ctx = ambient(construct_ring(p, r, s), AbelianGroup(factors))
        rng = random.Random(p + s + len(factors))
        for _ in range(6):
            x, y = ctx.ring.random_element(rng), ctx.ring.random_element(rng)
            dx = decompose_euclidean(x, ctx)
            dy = decompose_euclidean(y, ctx)
            dxy = decompose_euclidean(x * y, ctx)
            assert dxy.singles == dx.multiply(dy).singles
            assert dxy.pairs == dx.multiply(dy).pairs
            dsum = decompose_euclidean(x + y, ctx)
            assert dsum.singles == decomposed_add(dx, dy).singles
            if s % 2 == 0:
                hx = decompose_hermitian(x, ctx)
                hy = decompose_hermitian(y, ctx)
                hxy = decompose_hermitian(x * y, ctx)
                assert hxy.singles == hx.multiply(hy).singles
                assert hxy.pairs == hx.multiply(hy).pairs


def test_decompose_hermitian_round_trip():
    for p, r, s, factors in [(2, 1, 2, (5,)), (2, 2, 2, (3,)), (3, 1, 2, (8,)),
                             (2, 2, 2, (15,))]:
        ctx = ambient(construct_ring(p, r, s), AbelianGroup(factors))
        rng = random.Random(17)
        for _ in range(8):
            x = ctx.ring.random_element(rng)
            assert compose(decompose_hermitian(x, ctx)) == x


def test_decompose_hermitian_needs_even_degree():
    ctx = ambient(construct_ring(2, 2, 1), AbelianGroup((3,)))
    with pytest.raises(DomainError):
        decompose_hermitian(ctx.ring.one(), ctx)


# -- how the involutions act on components ----------------------------------------------------

def test_involution_acts_by_slot_type():
    """Support reversal becomes: identity on type-I slots, component
    conjugation on type-II slots, coordinate swap on type-III pairs."""
    for p, r, s, factors in [(2, 2, 1, (7,)), (2, 2, 1, (3,)), (3, 2, 1, (8,)),
                             (2, 1, 2, (5,)), (2, 2, 2, (15,))]:
        ctx = ambient(construct_ring(p, r, s), AbelianGroup(factors))
        rng = random.Random(p * 7 + s)
        for _ in range(8):
            x = ctx.ring.random_element(rng)
            d = decompose_euclidean(x, ctx)
            di = decompose_euclidean(involution(x), ctx)
            for i in ctx.parts.layout("euclidean")[0]:
                if ctx.parts.classes[i].euclidean_type == TYPE_I:
                    assert di.singles[i] == d.singles[i]
                else:
                    assert di.singles[i] == conjugate(d.singles[i])
            for i in d.pairs:
                assert di.pairs[i] == (d.pairs[i][1], d.pairs[i][0])


def test_conjugate_involution_acts_by_slot_type():
    """With the normalized pair layout the conjugate involution becomes
    component conjugation on type-II' slots and a plain swap on type-III'
    pairs."""
    for p, r, s, factors in [(2, 1, 2, (5,)), (2, 2, 2, (3,)), (3, 1, 2, (8,)),
                             (2, 2, 2, (15,)), (2, 1, 2, (9,))]:
        ctx = ambient(construct_ring(p, r, s), AbelianGroup(factors))
        rng = random.Random(p * 11 + len(factors))
        for _ in range(8):
            x = ctx.ring.random_element(rng)
            d = decompose_hermitian(x, ctx)
            di = decompose_hermitian(conjugate_involution(x), ctx)
            for i in ctx.parts.layout("hermitian")[0]:
                assert di.singles[i] == conjugate(d.singles[i])
            for i in d.pairs:
                assert di.pairs[i] == (d.pairs[i][1], d.pairs[i][0])


# -- nested decomposition -----------------------------------------------------------------------

def test_nested_decompose_round_trip_and_multiplicativity():
    for p, r, s, a_factors, p_factors in [(2, 2, 1, (3,), (2,)), (2, 1, 2, (5,), (2,)),
                                          (3, 2, 1, (4,), (3,)), (2, 2, 2, (3,), (4,))]:
        spec = construct_ring(p, r, s)
        ctx = ambient(spec, AbelianGroup(a_factors))
        p_group = AbelianGroup(p_factors)
        outer = GroupRing(ctx.ring, p_group)
        rng = random.Random(p + len(p_factors))

        def random_nested():
            return outer.element({b: ctx.ring.random_element(rng)
                                  for b in p_group.elements()})

        pairings = ["euclidean"] if s % 2 else ["euclidean", "hermitian"]
        for pairing in pairings:
            for _ in range(5):
                x, y = random_nested(), random_nested()
                dx = decompose_nested(x, ctx, pairing)
                assert compose_nested(dx, p_group) == x
                dxy = decompose_nested(x * y, ctx, pairing)
                prod = dx.multiply(decompose_nested(y, ctx, pairing))
                assert dxy.singles == prod.singles and dxy.pairs == prod.pairs


def test_unknown_pairing_name_is_refused():
    """Only 'euclidean' and 'hermitian' name a layout; a misspelling used to
    take the Hermitian one."""
    ctx = ambient(construct_ring(2, 2, 2), AbelianGroup((3,)))
    p_group = AbelianGroup((2,))
    x = GroupRing(ctx.ring, p_group).element(
        {b: ctx.ring.random_element(random.Random(5)) for b in p_group.elements()})
    with pytest.raises(DomainError, match="unknown pairing"):
        decompose_nested(x, ctx, "euclidian")
    good = decompose_euclidean(x.coefficient((0,)), ctx)
    bad = DecomposedElement(ctx, "euclidian", good.singles, good.pairs)
    with pytest.raises(DomainError, match="unknown pairing"):
        compose(bad)
    with pytest.raises(DomainError, match="unknown pairing"):
        component_list(bad)
    nested = decompose_nested(x, ctx, "euclidean")
    with pytest.raises(DomainError, match="unknown pairing"):
        compose_nested(DecomposedElement(ctx, "euclidian", nested.singles, nested.pairs),
                       p_group)


def test_hermitian_decomposition_needs_even_degree():
    ctx = ambient(construct_ring(2, 2, 1), AbelianGroup((7,)))
    with pytest.raises(DomainError, match="even degree"):
        decompose_hermitian(ctx.ring.one(), ctx)


# -- class idempotents ----------------------------------------------------------------------------

# the ambient contexts of the spectral benchmark: its round-trip rings and
# families, and the coprime parts of its odd-r constructions
TABLE_CONTEXTS = sorted({
    (2, 2, 1, (3,)), (2, 2, 1, (7,)), (2, 2, 2, (3,)), (2, 2, 2, (5,)), (3, 2, 1, (4,)),
    (3, 2, 2, (4,)), (2, 2, 1, (9,)), (5, 2, 1, (3,)), (3, 2, 1, (8,)), (2, 4, 2, (3, 3)),
    (2, 3, 1, (5,)), (2, 1, 1, (7,)),
    (2, 2, 1, (15,)), (2, 4, 1, (7,)), (3, 2, 2, (5,)), (2, 2, 2, (7,)), (3, 2, 1, (13,)),
    (5, 2, 1, (12,)), (2, 2, 2, (9,)),
    *((p, r, s, sylow_decompose(AbelianGroup(g), p).coprime_part.factors)
      for p, r, s, g in ((2, 1, 1, (6,)), (2, 1, 1, (2, 7)), (2, 3, 1, (14,)),
                         (2, 1, 2, (2, 3)), (2, 3, 2, (2, 5)), (2, 1, 1, (4, 5)),
                         (2, 1, 1, (2, 9)), (2, 3, 1, (4, 3)), (2, 1, 1, (2, 15)),
                         (2, 1, 2, (2, 7)), (2, 1, 1, (2, 2, 3)))),
})
TABLE_LAYOUTS = [(case, layout) for case in TABLE_CONTEXTS
                 for layout in (("euclidean", "hermitian") if case[2] % 2 == 0 else ("euclidean",))]


def table_ctx(p, r, s, factors):
    return ambient(construct_ring(p, r, s), AbelianGroup(factors))


@pytest.mark.parametrize("case, layout", TABLE_LAYOUTS)
def test_class_idempotents_are_the_transform_units(case, layout):
    ctx = table_ctx(*case)
    table = class_idempotents(ctx)
    assert len(table) == len(ctx.parts.classes)
    singles, pairs = ctx.parts.layout(layout)
    for i in singles:
        assert table[i] == compose_ints_by_transform(ctx, layout, {i: 1}, {}).coeffs
    for i, j in pairs:
        assert table[i] == compose_ints_by_transform(ctx, layout, {}, {i: (1, 0)}).coeffs
        assert table[j] == compose_ints_by_transform(ctx, layout, {}, {i: (0, 1)}).coeffs


@pytest.mark.parametrize("case, layout", TABLE_LAYOUTS)
def test_class_idempotent_decomposes_to_its_unit_slot(case, layout):
    ctx = table_ctx(*case)
    table = class_idempotents(ctx)
    singles, pairs = ctx.parts.layout(layout)

    def at(i, hit):
        spec = ctx.component_spec(ctx.parts.classes[i].cardinality)
        return spec.one() if hit else spec.zero()

    decompose = decompose_euclidean if layout == "euclidean" else decompose_hermitian
    for k, vec in enumerate(table):
        e = GroupRingElement(ctx.ring, vec)
        want = DecomposedElement(ctx, layout, {i: at(i, i == k) for i in singles},
                                 {i: (at(i, i == k), at(i, j == k)) for i, j in pairs})
        assert decompose(e, ctx) == want


@pytest.mark.parametrize("case", TABLE_CONTEXTS)
def test_class_idempotents_are_orthogonal_and_sum_to_one(case):
    ctx = table_ctx(*case)
    table = [GroupRingElement(ctx.ring, vec) for vec in class_idempotents(ctx)]
    assert table == list(idempotents_by_elements(ctx))
    for i, e in enumerate(table):
        for j, f in enumerate(table):
            assert e * f == (e if i == j else ctx.ring.zero())
    assert sum(table, ctx.ring.zero()) == ctx.ring.one()


def test_class_idempotents_are_built_on_first_use_and_kept():
    # the uncached constructor behind ambient(), so no earlier test built the table
    ctx = _ambient_cached.__wrapped__(2, 2, 1, (7,))
    assert ctx._idempotents is None
    table = class_idempotents(ctx)
    assert class_idempotents(ctx) is table
    assert ctx._idempotents is table
    assert class_idempotents(table_ctx(2, 2, 1, (7,))) is class_idempotents(table_ctx(2, 2, 1, (7,)))


# -- pairing slots ------------------------------------------------------------------------------

# the round-trip rings of the spectral benchmark and the trivial group
SLOT_CONTEXTS = [(2, 2, 1, (3,)), (2, 2, 1, (7,)), (2, 2, 2, (3,)), (2, 2, 2, (5,)),
                 (3, 2, 1, (4,)), (3, 2, 2, (4,)), (2, 2, 1, (9,)), (5, 2, 1, (3,)),
                 (3, 2, 1, (8,)), (2, 4, 2, (3, 3)), (2, 3, 1, (5,)), (2, 1, 1, (7,)),
                 (2, 2, 1, ()), (3, 2, 2, ())]
SLOT_LAYOUTS = [(case, layout) for case in SLOT_CONTEXTS
                for layout in (("euclidean", "hermitian") if case[2] % 2 == 0 else ("euclidean",))]


@pytest.mark.parametrize("case, layout", SLOT_LAYOUTS)
def test_slots_split_the_group_by_the_pairing_rule(case, layout):
    p, r, s, _ = case
    ctx = table_ctx(*case)
    h, singles, pairs = slots = _slots(ctx, layout)
    assert h == (0 if layout == "euclidean" else s // 2)
    group, classes = ctx.group, ctx.parts.classes
    single_idx, pair_idx = ctx.parts.layout(layout)
    assert [i for i, _, _ in singles] == list(single_idx)
    assert [i for i, *_ in pairs] == [i for i, _ in pair_idx]
    orbits = [orbit for _, _, orbit in singles]
    for (i, spec, orbit, partner), (_, j) in zip(pairs, pair_idx):
        assert spec == construct_ring(p, r, s * classes[i].cardinality)
        assert orbit == classes[i].elements
        # the partner orbit, rotated to start at -p^h * rep
        assert partner[0] == group.neg(group.scale(p**h, classes[i].rep))
        k = classes[j].elements.index(partner[0])
        assert partner == classes[j].elements[k:] + classes[j].elements[:k]
        orbits += [orbit, partner]
    for i, spec, orbit in singles:
        assert spec == construct_ring(p, r, s * len(orbit))
        assert orbit == classes[i].elements
    points = [a for orbit in orbits for a in orbit]
    assert sorted(points) == sorted(group.elements())  # each element in one orbit
    x = ctx.ring.random_element(random.Random(len(points)))
    decompose = decompose_euclidean if layout == "euclidean" else decompose_hermitian
    for _ in range(2):  # each round trip reads the same slots
        assert compose(decompose(x, ctx)) == x
        assert ctx._slots[layout] is slots and _slots(ctx, layout) is slots


def test_slots_are_built_on_first_use_and_kept():
    # the uncached constructor behind ambient(), so no earlier test built slots
    ctx = _ambient_cached.__wrapped__(2, 2, 2, (5,))
    assert ctx._slots == {}
    x = ctx.ring.random_element(random.Random(3))
    dec = decompose_hermitian(x, ctx)
    assert list(ctx._slots) == ["hermitian"]
    slots = ctx._slots["hermitian"]
    assert compose(dec) == x and decompose_hermitian(x, ctx) == dec
    assert ctx._slots["hermitian"] is slots
    assert list(ctx._slots) == ["hermitian"]


# -- text format ----------------------------------------------------------------------------------

def test_element_text_round_trip():
    ring = GroupRing(Z4, AbelianGroup((2, 2)))
    rng = random.Random(9)
    for _ in range(10):
        x = ring.random_element(rng)
        assert parse_element(ring, element_text(x)) == x


def test_element_text_example():
    ring = GroupRing(Z4, Z2_GROUP)
    x = ring.element({(0,): Z4.one(), (1,): Z4.from_int(2)})
    assert element_text(x) == "1;2"
    with pytest.raises(DomainError):
        parse_element(ring, "1;2;3")


# -- digit storage against the dict-based element ---------------------------------------------

def test_ring_layout():
    flat = rand_ring(3, 2, 2, (2, 2))
    assert (flat.block, flat.width, flat.char) == (2, 8, 9)
    nested = GroupRing(flat, AbelianGroup((3,)))
    assert (nested.block, nested.width, nested.char) == (8, 24, 9)
    assert len(nested.zero().coeffs) == len(nested.one().coeffs) == 24
    assert nested.one().coeffs == (1,) + (0,) * 23


def test_terms_are_the_nonzero_blocks_in_order():
    ring = GroupRing(Z4, AbelianGroup((4,)))
    x = ring.element({(3,): Z4.from_int(2), (1,): Z4.one(), (2,): Z4.zero()})
    assert x.coeffs == (0, 1, 0, 2)
    assert list(x.terms()) == [((1,), Z4.one()), ((3,), Z4.from_int(2))]
    assert x.support() == [(1,), (3,)]
    assert x.coefficient((2,)) == Z4.zero() and x.coefficient((7,)) == Z4.from_int(2)
    assert list(ring.zero().terms()) == []


# s = 3 and 4 (a conjugation that is not a swap of digits) and p = 5 included
FLAT_RINGS = [(2, 1, 1, (2, 4)), (2, 2, 1, (3,)), (2, 3, 1, (2, 4)), (2, 2, 2, (3,)),
              (2, 1, 2, (2, 2)), (2, 3, 2, (2,)), (3, 1, 1, (3, 3)), (3, 2, 1, (3, 3)),
              (3, 1, 2, (4,)), (3, 3, 2, (2,)), (3, 3, 1, (5,)), (2, 2, 3, (3,)),
              (2, 2, 4, (2,)), (5, 2, 2, (2,))]
# (p, r, s, G): split along G = A + P into (GR[A])[P]; the last has A and P
# both non-cyclic
NESTED_RINGS = [(2, 2, 1, (6,)), (3, 2, 1, (6,)), (2, 1, 2, (2, 2, 3)), (3, 1, 2, (3, 4)),
                (2, 1, 1, (2, 2, 3, 3))]


def sample_elements(ring, rng, split=None):
    """Random, sparse and zero elements of ring, split along the Sylow
    decomposition split when it is given."""
    def draw():
        x = ring.random_element(rng)
        return x if split is None else sylow_split(x, split)

    out = [draw() for _ in range(4)]
    x = out[0]
    sparse = x.ring.element({g: c for k, (g, c) in enumerate(x.terms()) if k % 3 == 0})
    return out + [sparse, sparse * 2, x - x]


def as_oracle_scalar(c):
    return DictElement.of(c) if isinstance(c, GroupRingElement) else c


def check_against_dict_element(xs, conjugate_too):
    oracles = [DictElement.of(x) for x in xs]
    for x, ox in zip(xs, oracles):
        assert repr(x) == repr(ox)
        assert DictElement.of(-x) == -ox
        assert DictElement.of(involution(x)) == dict_involution(ox)
        if conjugate_too:
            assert DictElement.of(conjugate_involution(x)) == dict_conjugate_involution(ox)
        for k in (0, 1, 3, -1, x.ring.char + 2):
            assert DictElement.of(x * k) == DictElement.of(k * x) == ox * k
        c = xs[0].coefficient(x.ring.group.identity)
        assert DictElement.of(x * c) == ox * as_oracle_scalar(c)
        if not isinstance(c, GroupRingElement):
            assert DictElement.of(c * x) == ox * c
        rebuilt = x.ring.element(dict(x.terms()))
        assert rebuilt == x and hash(rebuilt) == hash(x)
        for y, oy in zip(xs, oracles):
            assert DictElement.of(x + y) == ox + oy
            assert DictElement.of(x - y) == ox - oy
            assert DictElement.of(x * y) == ox * oy
            assert repr(x * y) == repr(ox * oy)
            assert (x == y) == (ox == oy)
    assert len(set(xs)) == len(set(oracles))


@pytest.mark.parametrize("p, r, s, factors", FLAT_RINGS)
def test_flat_elements_match_the_dict_element(p, r, s, factors):
    ring = rand_ring(p, r, s, factors)
    rng = random.Random(p * 1000 + r * 100 + s * 10 + len(factors))
    check_against_dict_element(sample_elements(ring, rng), s % 2 == 0)


@pytest.mark.parametrize("p, r, s, factors", NESTED_RINGS)
def test_nested_elements_match_the_dict_element(p, r, s, factors):
    ring = rand_ring(p, r, s, factors)
    dec = sylow_decompose(ring.group, p)
    xs = sample_elements(ring, random.Random(p * 100 + r * 10 + s), dec)
    assert xs[0].ring == GroupRing(GroupRing(ring.coeff, dec.coprime_part), dec.p_part)
    check_against_dict_element(xs, False)


def test_twice_nested_elements_match_the_dict_element():
    """((GR(2^2,2)[Z3])[Z2])[Z2]: its digits are those of GR(2^2,2)[Z2xZ2xZ3]."""
    ring = GroupRing(GroupRing(rand_ring(2, 2, 2, (3,)), Z2_GROUP), Z2_GROUP)
    assert ring._flat == (construct_ring(2, 2, 2), (2, 2, 3))
    check_against_dict_element(sample_elements(ring, random.Random(17)), False)


def test_random_element_draws_are_pinned():
    """The digests of seeded draws taken when elements were stored as
    dicts of coefficients, drawn coefficient by coefficient: one draw of
    width digits makes the same elements, nested ones included."""
    rings = [rand_ring(p, r, s, f) for p, r, s, f in
             [(2, 1, 1, (2, 4)), (2, 3, 2, (3,)), (3, 2, 1, (3, 3)), (3, 1, 2, (4,))]]
    rings.append(GroupRing(rand_ring(2, 2, 1, (3,)), Z2_GROUP))
    rings.append(GroupRing(rand_ring(3, 1, 2, (2,)), AbelianGroup((3,))))
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for ring in rings:
        for _ in range(5):
            digest.update((repr(ring.random_element(rng)) + "\n").encode())
    assert digest.hexdigest() == "9cfe580f2c6f869a220f0bd64ec2c5a3ae5b45c3cd3a7593f5eef0499241f921"

"""The one integer rule, errors._check_int, and the public entry points that
apply it to a scalar argument; the one type rule, errors._check_type, which
the entry points apply to a group, a coefficient ring, a spectral context,
a dict of transform values, an engine's ring, an ideal, a ring element and a
Sylow decomposition; the one vector rule, ExhaustiveGroupRing._check_vector;
and the order of the checks: the ring before the pairing."""

import re

import pytest

from galcodes.counting import (abelian_count, hermitian_abelian_count, hermitian_semisimple_count,
                               is_principal_ideal_group_ring)
from galcodes.cyclotomic import class_of, partition
from galcodes.errors import DomainError, _check_int
from galcodes.galois import (construct_ring, embed, generalized_frobenius, root_of_unity,
                             teichmuller_lift, unembed)
from galcodes.galois import element_text as scalar_text, parse_element as scalar_parse
from galcodes.group_ring import (GroupRing, ambient, class_idempotents, conjugate_involution, dft,
                                 element_text, idft, involution, parse_element, sylow_merge,
                                 sylow_split)
from galcodes.groups import (AbelianGroup, count_order_formula, format_group, order_census,
                             sylow_decompose)
from galcodes.ideals import (ExhaustiveGroupRing, construct_self_dual, enumerate_semisimple_selfdual,
                             exists_self_dual)


@pytest.mark.parametrize("value, least", [(0, None), (-5, None), (3, 3), (10**30, 2)])
def test_an_int_at_least_its_least_is_returned(value, least):
    assert _check_int("x", value, least) is value


@pytest.mark.parametrize("value, least, message", [
    (True, None, "x must be an integer, got True"), (False, 0, "x must be an integer, got False"),
    (2.0, None, "x must be an integer, got 2.0"), ("2", 1, "x must be an integer, got '2'"),
    (None, None, "x must be an integer, got None"), (1, 2, "x must be at least 2, got 1"),
    (-1, 0, "x must be at least 0, got -1")])
def test_the_two_shapes_of_a_refusal(value, least, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _check_int("x", value, least)


Z4, GR42 = construct_ring(2, 2, 1), construct_ring(2, 2, 2)
Z4Z2 = ExhaustiveGroupRing(GroupRing(Z4, AbelianGroup((2,))))

# (entry point, call taking the scalar, argument name (None for the
# operator), [(out-of-range value, message)])
GUARDED = [
    ("from_int", Z4.from_int, "scalar", []),
    ("from_index", Z4.from_index, "index",
     [(4, "index 4 is not in [0, 4)"), (-1, "index -1 is not in [0, 4)")]),
    ("pow", lambda e: GR42.xi ** e, None, [(-1, "exponent must be at least 0, got -1")]),
    ("generalized_frobenius", lambda k: generalized_frobenius(GR42.xi, k), "k", []),
    ("root_of_unity", lambda n: root_of_unity(GR42, n), "order",
     [(0, "order must be at least 1, got 0")]),
    ("partition", lambda q: partition(AbelianGroup((7,)), q), "q", []),
    ("sylow_decompose", lambda p: sylow_decompose(AbelianGroup((6,)), p), "p", []),
    ("decode_vector", Z4Z2.decode_vector, "encoding",
     [(16, "encoding 16 is not in [0, 16)"), (-1, "encoding -1 is not in [0, 16)")]),
]
OUT_OF_RANGE = [(name, call, value, message)
                for name, call, _, cases in GUARDED for value, message in cases]


@pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("entry", GUARDED, ids=[row[0] for row in GUARDED])
def test_entry_points_refuse_a_scalar_that_is_not_an_int(entry, value):
    """from_int(True) used to give 1, from_index(2.5) and decode_vector(2.5)
    vectors of floats, xi ** True an element and xi ** 2.0 a TypeError from
    inside the power loop; the operator refuses as + and * do."""
    _, call, name, _ = entry
    if name is None:
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \*\* or pow\(\)"):
            call(value)
        return
    with pytest.raises(DomainError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize("entry", OUT_OF_RANGE, ids=[f"{row[0]}:{row[2]}" for row in OUT_OF_RANGE])
def test_entry_points_refuse_an_int_outside_their_range(entry):
    """from_index(4) over GR(2^2,1) used to wrap round to 0, and
    decode_vector(-1) over Z4[Z2] to give (3, 3)."""
    _, call, value, message = entry
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(value)


# (entry point, call taking the group, argument name): each used to raise
# AttributeError ('tuple' object has no attribute 'order' or 'factors')
GROUP_TAKERS = [
    ("abelian_count", lambda g: abelian_count(2, 2, 1, g), "coprime_group"),
    ("abelian_count:p_group", lambda g: abelian_count(2, 2, 1, AbelianGroup((3,)), g), "p_group"),
    ("construct_self_dual", lambda g: construct_self_dual(2, 2, 1, g), "group"),
    ("GroupRing", lambda g: GroupRing(Z4, g), "group"),
    ("exists_self_dual", lambda g: exists_self_dual(2, 2, g), "group"),
    ("partition", lambda g: partition(g, 2), "group"),
    ("class_of", lambda g: class_of(g, 2, (1,)), "group"),
    ("enumerate_semisimple_selfdual", lambda g: enumerate_semisimple_selfdual(2, 2, 1, g), "group"),
    ("ambient", lambda g: ambient(Z4, g), "group"),
    ("sylow_decompose", lambda g: sylow_decompose(g, 2), "group"),
    ("is_principal_ideal_group_ring", lambda g: is_principal_ideal_group_ring(2, 2, g), "group"),
    ("is_principal_ideal_group_ring:r=1", lambda g: is_principal_ideal_group_ring(2, 1, g),
     "group"),
    ("order_census", order_census, "group"),
    ("count_order_formula", lambda g: count_order_formula(g, 3), "group"),
    ("format_group", format_group, "group"),
]
# groups.character_exponent and groups.element_order stay unchecked: the
# spectral transform and the order census call them once per point, and
# the benchmark's tracer leaves them unwrapped for the same reason.


@pytest.mark.parametrize("entry", GROUP_TAKERS, ids=[row[0] for row in GROUP_TAKERS])
def test_entry_points_refuse_a_group_that_is_not_an_abelian_group(entry):
    _, call, name = entry
    for value in ((3,), [3], "Z3"):
        message = f"{name} must be an AbelianGroup, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(value)


# (entry point, call taking the coefficient ring, argument name, the types
# it takes, values refused): each used to raise AttributeError ('int' object
# has no attribute 's', 'tuple' object has no attribute 'p')
SPEC_TAKERS = [
    ("GroupRing", lambda c: GroupRing(c, AbelianGroup((2,))), "coeff",
     "a GaloisRingSpec or a GroupRing", [4, (2, 2, 1), "GR(2^2,1)"]),
    ("ambient", lambda c: ambient(c, AbelianGroup((3,))), "spec",
     "a GaloisRingSpec", [4, (2, 2, 1), "GR(2^2,1)", GroupRing(Z4, AbelianGroup((2,)))]),
    ("embed", lambda c: embed(Z4.one(), c), "target", "a GaloisRingSpec", [5, (2, 2, 2)]),
    ("unembed", lambda c: unembed(GR42.xi, c), "target", "a GaloisRingSpec", [5, (2, 2, 1)]),
    ("root_of_unity", lambda c: root_of_unity(c, 3), "spec", "a GaloisRingSpec", [5, "GR(2^2,2)"]),
]


@pytest.mark.parametrize("entry", SPEC_TAKERS, ids=[row[0] for row in SPEC_TAKERS])
def test_entry_points_refuse_a_coefficient_ring_of_another_type(entry):
    _, call, name, kinds, values = entry
    for value in values:
        message = f"{name} must be {kinds}, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(value)


CTX = ambient(Z4, AbelianGroup((3,)))
# (entry point, call taking the argument, argument name, the type it takes,
# values refused): each used to raise AttributeError ('int' object has no
# attribute 'ring', 'list' object has no attribute 'items', ...)
SPECTRAL_TAKERS = [
    ("dft", lambda c: dft(CTX.ring.one(), c), "ctx", "an AmbientDecomposition", [5, Z4]),
    ("dft:points", lambda v: dft(CTX.ring.one(), CTX, v), "points", "a tuple or a list",
     [5, {(0,)}]),
    ("idft", lambda c: idft({}, c), "ctx", "an AmbientDecomposition", [5, CTX.ring]),
    ("idft:values", lambda v: idft(v, CTX), "values", "a dict", [[(0,)], ((0,), 1)]),
    ("class_idempotents", class_idempotents, "ctx", "an AmbientDecomposition", [5, None]),
    ("ExhaustiveGroupRing", ExhaustiveGroupRing, "ring", "a GroupRing", [5, Z4]),
]


@pytest.mark.parametrize("entry", SPECTRAL_TAKERS, ids=[row[0] for row in SPECTRAL_TAKERS])
def test_spectral_entry_points_refuse_an_argument_of_another_type(entry):
    _, call, name, kinds, values = entry
    for value in values:
        message = f"{name} must be {kinds}, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(value)


# (entry point, call taking the ideal): each used to raise AttributeError
# ('int' object has no attribute 'engine')
IDEAL_TAKERS = [
    ("join", lambda c: Z4Z2.join(c, c)),
    ("join:second", lambda c: Z4Z2.join(Z4Z2.zero_ideal(), c)),
    ("dual", Z4Z2.dual),
    ("is_self_orthogonal", Z4Z2.is_self_orthogonal),
    ("is_self_dual", Z4Z2.is_self_dual),
]


@pytest.mark.parametrize("entry", IDEAL_TAKERS, ids=[row[0] for row in IDEAL_TAKERS])
@pytest.mark.parametrize("value", [5, None, (0, 1)], ids=["int", "None", "tuple"])
def test_ideal_arguments_refuse_another_type(entry, value):
    message = f"ideal must be an Ideal, got {value!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        entry[1](value)


Z4Z2_RING = GroupRing(Z4, AbelianGroup((2,)))
Z4Z6_RING = GroupRing(Z4, AbelianGroup((6,)))
Z6_SPLIT = sylow_decompose(AbelianGroup((6,)), 2)
# (entry point, call taking the argument, argument name, the type it takes):
# each used to raise AttributeError ('int' object has no attribute 'spec',
# 'ring', 'group' or 'coeff')
ELEMENT_TAKERS = [
    ("embed", lambda a: embed(a, GR42), "a", "a GaloisRingElement"),
    ("unembed", lambda a: unembed(a, Z4), "a", "a GaloisRingElement"),
    ("generalized_frobenius", lambda a: generalized_frobenius(a, 1), "a", "a GaloisRingElement"),
    ("teichmuller_lift", teichmuller_lift, "a", "a GaloisRingElement"),
    ("galois.element_text", scalar_text, "a", "a GaloisRingElement"),
    ("galois.parse_element", lambda spec: scalar_parse(spec, "1"), "spec", "a GaloisRingSpec"),
    ("involution", involution, "x", "a GroupRingElement"),
    ("conjugate_involution", conjugate_involution, "x", "a GroupRingElement"),
    ("sylow_split", lambda u: sylow_split(u, Z6_SPLIT), "u", "a GroupRingElement"),
    ("sylow_split:dec", lambda d: sylow_split(Z4Z6_RING.one(), d), "dec", "a SylowDecomposition"),
    ("sylow_merge", lambda x: sylow_merge(x, Z6_SPLIT), "x", "a GroupRingElement"),
    ("sylow_merge:dec", lambda d: sylow_merge(sylow_split(Z4Z6_RING.one(), Z6_SPLIT), d),
     "dec", "a SylowDecomposition"),
    ("group_ring.element_text", element_text, "x", "a GroupRingElement"),
    ("group_ring.parse_element", lambda ring: parse_element(ring, "1;0"), "ring", "a GroupRing"),
]


@pytest.mark.parametrize("entry", ELEMENT_TAKERS, ids=[row[0] for row in ELEMENT_TAKERS])
@pytest.mark.parametrize("value", [5, None, "1"], ids=["int", "None", "str"])
def test_element_arguments_refuse_another_type(entry, value):
    _, call, name, kind = entry
    message = f"{name} must be {kind}, got {value!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry", ELEMENT_TAKERS, ids=[row[0] for row in ELEMENT_TAKERS])
def test_element_arguments_refuse_the_other_layer_s_element(entry):
    """A group-ring element where a Galois-ring element belongs, and the
    other way round; a coefficient ring where a group ring belongs."""
    _, call, name, kind = entry
    value = {"a GaloisRingElement": Z4Z2_RING.one(), "a GaloisRingSpec": Z4Z2_RING,
             "a GroupRingElement": Z4.one(), "a SylowDecomposition": AbelianGroup((6,)),
             "a GroupRing": Z4}[kind]
    message = f"{name} must be {kind}, got {value!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(value)


Z4Z4 = ExhaustiveGroupRing(GroupRing(Z4, AbelianGroup((4,))))
# (entry point, call taking one digit vector) over Z4[Z4]: encode_vector
# used to give 765 for (9, 9, 9, 9), which decodes to another vector,
# ideal_from_rows to keep the row (1, 2, 3), and generated_ideal to reduce
# (9, 9, 9, 9) to an ideal of size 4 and to raise IndexError on (1,)
VECTOR_TAKERS = [
    ("encode_vector", Z4Z4.encode_vector),
    ("ideal_from_rows", lambda v: Z4Z4.ideal_from_rows([(1, 0, 0, 0), v])),
    ("generated_ideal", lambda v: Z4Z4.generated_ideal([(1, 0, 0, 0), v])),
    ("principal_ideal", Z4Z4.principal_ideal),
    ("from_vector", Z4Z4.from_vector),
    ("contains_vector", lambda v: Z4Z4.zero_ideal().contains_vector(v)),
]
BAD_VECTORS = [
    ((9, 9, 9, 9), "digit 9 of a vector over Z_4 is not in [0, 4)"),
    ((0, 1, -1, 0), "digit -1 of a vector over Z_4 is not in [0, 4)"),
    ((0, 2.0, 0, 0), "digit 2.0 of a vector over Z_4 is not in [0, 4)"),
    ((1, 2, 3), "vector of 3 digits used in GR(2^2,1)[Z4], which has 4"),
    ((1,), "vector of 1 digits used in GR(2^2,1)[Z4], which has 4"),
]


@pytest.mark.parametrize("vec, message", BAD_VECTORS, ids=["9s", "negative", "float", "3", "1"])
@pytest.mark.parametrize("entry", VECTOR_TAKERS, ids=[row[0] for row in VECTOR_TAKERS])
def test_entry_points_refuse_a_malformed_vector(entry, vec, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        entry[1](vec)


# each reported the odd degree or the pairing before the ring's r = 0
RING_BEFORE_PAIRING = [
    ("hermitian_abelian_count", lambda: hermitian_abelian_count(2, 0, 1, AbelianGroup((3,)))),
    ("hermitian_semisimple_count",
     lambda: hermitian_semisimple_count(2, 0, 1, AbelianGroup((3,)))),
    ("enumerate_semisimple_selfdual",
     lambda: enumerate_semisimple_selfdual(2, 0, 1, AbelianGroup((3,)), "hermitian")),
    ("construct_self_dual", lambda: construct_self_dual(2, 0, 1, AbelianGroup((3,)), "hermitian")),
    ("exists_self_dual", lambda: exists_self_dual(2, 0, AbelianGroup((3,)), "hermitian", 1)),
    ("abelian_count:group", lambda: abelian_count(2, 0, 1, "Z3")),
]


@pytest.mark.parametrize("entry", RING_BEFORE_PAIRING, ids=[row[0] for row in RING_BEFORE_PAIRING])
def test_the_ring_is_checked_before_the_pairing_and_the_group(entry):
    with pytest.raises(DomainError, match="^r must be at least 1, got 0$"):
        entry[1]()


def test_a_group_ring_takes_a_group_ring_as_its_coefficients():
    inner = GroupRing(Z4, AbelianGroup((3,)))
    assert GroupRing(inner, AbelianGroup((2,))).coeff is inner

import itertools
import random
import time
from functools import reduce

import pytest

from galcodes import group_ring
from galcodes.counting import (_BRUTE_CACHE, BruteForceProvider, TrivialSylowProvider,
                               euclidean_semisimple_count, hermitian_semisimple_count)
from galcodes.errors import BoundExceededError, DomainError, InternalInvariantError
from galcodes.galois import construct_ring, generalized_frobenius
from galcodes.group_ring import (GroupRing, _form_step, _group_index, _shift_perms, _sylow_perm,
                                 ambient, element_text)
from galcodes.groups import AbelianGroup
from galcodes.ideals import (BOUND_ENV_VAR, DEFAULT_BOUND, EUCLIDEAN, MAX_REPRESENTATIVES,
                             HERMITIAN, ExhaustiveGroupRing, Ideal, construct_self_dual,
                             enumerate_semisimple_selfdual, exhaustive_bound)
from galcodes.linalg import _unit_inverses, howell, remainder
from helpers import (abelian_groups_up_to, compose_ints_by_transform, construct_by_elements,
                     construct_by_nested_assembly, dual_by_scan, engine, semisimple_by_elements,
                     howell_saturating_takeovers, ideals_by_full_scan, ideals_by_principal_joins,
                     orbit_least_vectors, perms_by_group_add, shift)


def join_all(eng, gens):
    return reduce(eng.join, (eng.principal_ideal(g) for g in gens), eng.zero_ideal())


# -- bound handling --------------------------------------------------------------

def test_default_bound():
    assert exhaustive_bound() == DEFAULT_BOUND


def test_bound_env_override(monkeypatch):
    monkeypatch.setenv(BOUND_ENV_VAR, "32")
    assert exhaustive_bound() == 32
    monkeypatch.setenv(BOUND_ENV_VAR, "garbage")
    with pytest.raises(DomainError):
        exhaustive_bound()
    # the environment's value meets the engine's rule like any other bound
    monkeypatch.setenv(BOUND_ENV_VAR, "0")
    ring = GroupRing(construct_ring(2, 2, 1), AbelianGroup((2,)))
    with pytest.raises(DomainError, match="exhaustive bound must be at least 1, got 0"):
        ExhaustiveGroupRing(ring)


def test_cached_engine_reads_the_bound_set_after_caching(monkeypatch):
    # the test helper caches engines; a bound left to the environment is
    # read on every call, not when the ring was first cached
    assert next(engine(2, 2, 1, (2,)).ideal_stream()) is not None
    monkeypatch.setenv(BOUND_ENV_VAR, "8")
    with pytest.raises(BoundExceededError, match="16 exceeds the exhaustive bound 8"):
        next(engine(2, 2, 1, (2,)).ideal_stream())


@pytest.mark.parametrize("bound", [0, -3])
def test_engine_refuses_bound_below_one(bound):
    ring = GroupRing(construct_ring(2, 2, 1), AbelianGroup((2,)))
    with pytest.raises(DomainError, match=f"exhaustive bound must be at least 1, got {bound}"):
        ExhaustiveGroupRing(ring, bound)
    with pytest.raises(DomainError, match=f"got {bound}"):
        construct_self_dual(2, 2, 1, AbelianGroup((2,)), bound=bound)
    with pytest.raises(DomainError, match=f"got {bound}"):
        BruteForceProvider(bound).count(2, 2, 1, AbelianGroup((2,)), EUCLIDEAN)


def test_engine_rejects_oversized_ring():
    ring = GroupRing(construct_ring(2, 2, 1), AbelianGroup((2,)))
    eng = ExhaustiveGroupRing(ring, bound=10)
    two = eng.principal_ideal((2, 0))
    refused = [lambda: next(eng.ideal_stream()), eng.enumerate_ideals, eng.count_self_dual,
               two.element_encodings, two.elements]
    for call in refused:
        with pytest.raises(BoundExceededError, match="16 exceeds the exhaustive bound 10"):
            call()
    # the polynomial operations run on the same ring
    assert eng.dual(two) == two
    assert eng.is_self_dual(two)
    assert eng.join(two, eng.unit_ideal()) == eng.unit_ideal()
    assert two.contains(eng.from_vector((2, 2)))
    assert [eng.to_vector(g) for g in two.generators()] == [(2, 0)]


def test_engine_above_the_table_bound_constructs():
    # GR(2^1, 22) has a residue field too big for a Teichmuller table: the
    # engine and its Euclidean dual need none, the Hermitian dual refuses
    eng = ExhaustiveGroupRing(GroupRing(construct_ring(2, 1, 22), AbelianGroup(())))
    assert eng.dual(eng.unit_ideal()) == eng.zero_ideal()
    assert eng.dual(eng.zero_ideal()) == eng.unit_ideal()
    with pytest.raises(BoundExceededError, match="4194304 entries, above the bound 2097152"):
        eng.dual(eng.unit_ideal(), HERMITIAN)


@pytest.mark.parametrize("call", [
    lambda eng, c: eng.join(eng.zero_ideal(), c),
    lambda eng, c: eng.join(c, eng.zero_ideal()),
    lambda eng, c: eng.dual(c),
    lambda eng, c: eng.is_self_orthogonal(c),
    lambda eng, c: eng.is_self_dual(c),
], ids=["join-right", "join-left", "dual", "is_self_orthogonal", "is_self_dual"])
def test_ideal_of_another_ring_is_refused(call):
    eng, other = engine(2, 2, 1, (3,)), engine(2, 2, 1, (2,))
    foreign = other.principal_ideal((2, 0))
    assert other.is_self_orthogonal(foreign)
    with pytest.raises(DomainError):
        call(eng, foreign)
    # a second engine over the same ring shares its ideals
    twin = ExhaustiveGroupRing(other.ring)
    call(twin, foreign)


VECTOR_CALLS = pytest.mark.parametrize("call", [
    lambda eng, vec: eng.principal_ideal(vec),
    lambda eng, vec: eng.unit_ideal().contains_vector(vec),
    lambda eng, vec: eng.from_vector(vec),
], ids=["principal_ideal", "contains_vector", "from_vector"])


@VECTOR_CALLS
@pytest.mark.parametrize("length", [2, 4])
def test_vector_of_another_length_is_refused(call, length):
    eng = engine(2, 2, 1, (3,))
    with pytest.raises(DomainError):
        call(eng, (2,) * length)


@VECTOR_CALLS
@pytest.mark.parametrize("vec", [(4, 0), (5, 0), (-1, 0)])
def test_digit_outside_the_coefficient_ring_is_refused(call, vec):
    # (4, 0) once gave the basis ((4, 0), (0, 4)), which is not Howell
    eng = engine(2, 2, 1, (2,))
    with pytest.raises(DomainError, match=rf"digit {vec[0]} of a vector over Z_4 is not in \[0, 4\)"):
        call(eng, vec)


# -- principal ideals --------------------------------------------------------------

def test_principal_ideal_examples():
    eng = engine(2, 2, 1, (2,))
    spec, ring = eng.spec, eng.ring
    assert eng.principal_ideal(ring.zero()) == eng.zero_ideal()
    assert eng.principal_ideal(ring.zero()).size == 1
    assert eng.principal_ideal(ring.one()) == eng.unit_ideal()
    assert eng.principal_ideal(ring.one()).size == 16

    two = ring.element({(0,): spec.from_int(2)})
    ideal = eng.principal_ideal(two)
    assert ideal.size == 4
    twoY = ring.element({(1,): spec.from_int(2)})
    both = ring.element({(0,): spec.from_int(2), (1,): spec.from_int(2)})
    assert set(ideal.elements()) == {ring.zero(), two, twoY, both}


def test_principal_ideal_contains_all_multiples():
    eng = engine(2, 2, 1, (3,))
    import random
    rng = random.Random(3)
    for _ in range(5):
        x = eng.ring.random_element(rng)
        ideal = eng.principal_ideal(x)
        for _ in range(10):
            assert ideal.contains(eng.ring.random_element(rng) * x)


def test_generators_regenerate():
    for args in [(2, 2, 1, (2,)), (2, 1, 1, (4,)), (3, 2, 1, (3,))]:
        eng = engine(*args)
        for ideal in eng.enumerate_ideals():
            assert join_all(eng, ideal.generators()) == ideal


# -- enumeration ---------------------------------------------------------------------

def test_enumerate_z4z2():
    assert len(engine(2, 2, 1, (2,)).enumerate_ideals()) == 7


def test_enumerate_chain_ring_alone():
    assert len(engine(2, 2, 1, ()).enumerate_ideals()) == 3


def test_enumeration_invariants():
    for args in [(2, 2, 1, (2,)), (2, 1, 1, (4,)), (2, 1, 2, (2,)), (3, 2, 1, (2,))]:
        eng = engine(*args)
        ideals = eng.enumerate_ideals()
        assert len(set(ideals)) == len(ideals)
        for c in ideals:
            assert eng.ring_size % c.size == 0
            size = c.size
            while size % eng.p == 0:
                size //= eng.p
            assert size == 1
        index = set(ideals)
        for a in ideals:
            assert eng.dual(a) in index
            for b in ideals:
                assert eng.join(a, b) in index


def test_howell_basis_is_canonical():
    eng = engine(2, 2, 1, (2,))
    import random
    rng = random.Random(8)
    for _ in range(10):
        x, y = eng.ring.random_element(rng), eng.ring.random_element(rng)
        rows = eng.principal_rows(eng.to_vector(x)) + eng.principal_rows(eng.to_vector(y))
        forward = eng.ideal_from_rows(rows)
        backward = eng.ideal_from_rows(list(reversed(rows)))
        assert forward == backward
        assert forward.basis == backward.basis
        a, b = eng.principal_ideal(x), eng.principal_ideal(y)
        assert eng.join(a, b) == eng.join(b, a) == forward


@pytest.mark.parametrize("p, r, s, factors", [
    (2, 2, 1, (3,)), (2, 2, 2, (3,)), (2, 2, 3, (2,)), (3, 2, 2, (2,)), (3, 1, 2, (2, 2))])
def test_principal_rows_are_the_monomial_multiples(p, r, s, factors):
    eng = engine(p, r, s, factors)
    x = eng.spec._x()
    rng = random.Random(p * 100 + s)
    for _ in range(5):
        v = eng.ring.random_element(rng)
        want = [eng.to_vector(shift(v * x**j, g))
                for g in eng.group.elements() for j in range(s)]
        assert eng.principal_rows(eng.to_vector(v)) == want


@pytest.mark.parametrize("p, r, s, factors", [
    (2, 2, 1, (2, 2)), (2, 3, 1, (4,)), (2, 2, 2, (3,)), (3, 2, 1, (3,))])
def test_size_is_the_member_count(p, r, s, factors):
    """size, read off the Howell pivots, equals a count of the ring
    elements that contains_vector accepts, for every ideal and its dual."""
    eng = engine(p, r, s, factors)
    vectors = [eng.decode_vector(k) for k in range(eng.ring_size)]
    for ideal in eng.ideal_stream():
        for code in (ideal, eng.dual(ideal)):
            assert code.size == sum(map(code.contains_vector, vectors))


@pytest.mark.parametrize("p, r, s, factors", [
    (2, 2, 1, (2, 2)), (2, 3, 1, (2,)), (3, 2, 1, (3,)), (2, 2, 2, (2,)), (2, 3, 1, (4,))],
    ids=["Z4[Z2xZ2]", "Z8[Z2]", "Z9[Z3]", "GR(2^2,2)[Z2]", "Z8[Z4]"])
def test_remainder_picks_one_representative_per_coset(p, r, s, factors):
    """For every ideal I: v - remainder(v) lies in I, the remainders of all
    ring vectors take |R|/|I| values, and a remainder is zero exactly on
    the members, as contains_vector and the listed elements say."""
    eng = engine(p, r, s, factors)
    vectors = [eng.decode_vector(k) for k in range(eng.ring_size)]
    for ideal in eng.ideal_stream():
        members = set(ideal.element_encodings())
        rems = set()
        for k, v in enumerate(vectors):
            rem = remainder(ideal.basis, v, eng.m)
            rems.add(rem)
            assert eng.encode_vector([(a - b) % eng.m for a, b in zip(v, rem)]) in members
            assert (not any(rem)) == ideal.contains_vector(v) == (k in members)
        assert len(rems) * ideal.size == eng.ring_size


def test_element_expansion_refuses_a_basis_that_is_not_howell():
    eng = engine(2, 2, 1, (2,))
    # (2, 0) is already twice (1, 0): the pivot rule counts 4 * 2 members
    # where the expansion finds 4 distinct ones
    with pytest.raises(InternalInvariantError, match="distinct members"):
        Ideal(eng, ((1, 0), (2, 0))).element_encodings()


# the rings of the ideal_enum benchmark
IDEAL_ENUM_RINGS = [
    (2, 2, 1, (7,)), (2, 2, 2, (3,)), (3, 3, 1, (3,)), (2, 3, 1, (2, 2)), (2, 2, 1, (3, 2)),
    (2, 3, 1, (4,)), (2, 2, 1, (2, 2)), (3, 2, 1, (3,)), (2, 2, 2, (2,)), (2, 2, 1, (4,)),
    (2, 2, 1, (5,))]
# every ring of at most 2^12 elements with p in {2, 3}, r <= 3 and s <= 2,
# then the ideal_enum rings that lie above 2^12
STREAM_RINGS = [(p, r, s, group.factors)
                for p in (2, 3) for r in (1, 2, 3) for s in (1, 2)
                for group in abelian_groups_up_to(12)
                if p**(r * s * group.order) <= 1 << 12]
STREAM_RINGS += [ring for ring in IDEAL_ENUM_RINGS if ring not in STREAM_RINGS]


def ring_id(ring):
    p, r, s, factors = ring
    return f"GR({p}^{r},{s})[{'x'.join(f'Z{f}' for f in factors) or '1'}]"


@pytest.mark.parametrize("p, r, s, factors", STREAM_RINGS,
                         ids=[ring_id(ring) for ring in STREAM_RINGS])
def test_stream_matches_full_scan(p, r, s, factors):
    eng = engine(p, r, s, factors)
    principal, rest = ideals_by_full_scan(eng)
    got = [c.basis for c in eng.ideal_stream()]
    assert len(set(got)) == len(got)
    assert got[:len(principal)] == principal
    assert set(got) == set(principal) | set(rest)
    assert got == ideals_by_principal_joins(eng, principal)


HOWELL_MODULI = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


@pytest.mark.parametrize("p, r", HOWELL_MODULI, ids=[f"Z{p**r}" for p, r in HOWELL_MODULI])
def test_howell_matches_the_takeover_saturating_form(p, r):
    """17000 seeded row sets per modulus, 102000 in all.  Entries lean to
    multiples of p, so that over Z8, Z16 and Z27 rows of smaller valuation
    often take over an occupied pivot slot."""
    m = p**r
    rng = random.Random(m)
    for _ in range(17000):
        width, count = rng.randint(1, 5), rng.randint(1, 5)
        rows = [tuple(rng.randrange(m) * p**rng.choice((0, 0, 1, r - 1)) % m
                      for _ in range(width)) for _ in range(count)]
        assert howell(rows, p, r) == howell_saturating_takeovers(rows, p, r), rows


@pytest.mark.parametrize("p, r, s, factors", IDEAL_ENUM_RINGS,
                         ids=[ring_id(ring) for ring in IDEAL_ENUM_RINGS])
def test_stream_bases_match_the_takeover_saturating_form(p, r, s, factors, monkeypatch):
    eng = engine(p, r, s, factors)
    got = [c.basis for c in eng.ideal_stream()]
    monkeypatch.setattr(ExhaustiveGroupRing, "howell",
                        lambda eng, rows: howell_saturating_takeovers(rows, eng.p, eng.r))
    assert got == [c.basis for c in eng.ideal_stream()]


@pytest.mark.parametrize("p, r, s, factors", [
    (2, 2, 1, (3, 2)), (3, 3, 1, (3,)), (2, 3, 1, (2, 2))])
def test_scan_takes_one_principal_ideal_per_orbit(p, r, s, factors, monkeypatch):
    eng = ExhaustiveGroupRing(GroupRing(construct_ring(p, r, s), AbelianGroup(factors)))
    principal_ideal = eng.principal_ideal
    calls = []

    def spy(vec):
        calls.append(tuple(vec))
        return principal_ideal(vec)

    monkeypatch.setattr(eng, "principal_ideal", spy)
    for _ in eng.ideal_stream():
        pass
    assert calls == orbit_least_vectors(eng)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("factors", [(), (2,), (5,), (4,), (2, 2), (3, 2), (2, 4), (3, 3, 2)])
def test_shift_permutations_match_group_addition(factors, s):
    eng = ExhaustiveGroupRing(GroupRing(construct_ring(2, 2, s), AbelianGroup(factors)))
    assert _shift_perms(eng.group.factors, eng.s) == perms_by_group_add(eng)


# -- tables shared by the engines ---------------------------------------------------------

TABLES = (_group_index, _shift_perms, _form_step, _unit_inverses, _sylow_perm)


def test_engines_over_one_group_and_s_share_the_shift_table(monkeypatch):
    seen = []

    def spy(factors, s):
        seen.append(_shift_perms(factors, s))
        return seen[-1]

    monkeypatch.setattr(group_ring, "_shift_perms", spy)
    group = AbelianGroup((2, 3))
    for p, r, s in [(2, 1, 1), (2, 3, 1), (5, 2, 1), (2, 2, 2)]:
        eng = ExhaustiveGroupRing(GroupRing(construct_ring(p, r, s), group))
        eng.principal_rows((1,) + (0,) * (eng.n - 1))
    assert seen[0] is seen[1] is seen[2]
    assert seen[3] is not seen[0]
    assert [len(perms[0]) for perms in seen] == [6, 6, 6, 12]


@pytest.mark.parametrize("p, r, s, factors, form", [(2, 1, 1, (2, 7), EUCLIDEAN),
                                                     (2, 1, 2, (2, 3), HERMITIAN)])
def test_a_second_construction_rebuilds_no_table(p, r, s, factors, form):
    first = construct_self_dual(p, r, s, AbelianGroup(factors), form)
    misses = [table.cache_info().misses for table in TABLES]
    second = construct_self_dual(p, r, s, AbelianGroup(factors), form)
    assert [table.cache_info().misses for table in TABLES] == misses
    assert second == first


@pytest.mark.parametrize("p, r, factors", [(2, 41, (2,)), (2, 1, (64, 128))])
def test_building_a_refused_engine_fills_no_table(p, r, factors):
    entries = [table.cache_info().currsize for table in TABLES]
    eng = ExhaustiveGroupRing(GroupRing(construct_ring(p, r, 1), AbelianGroup(factors)))
    with pytest.raises(BoundExceededError):
        eng._require_enumerable()
    assert [table.cache_info().currsize for table in TABLES] == entries


@pytest.mark.parametrize("p, r, s", [(2, 2, 2), (3, 2, 2), (2, 1, 4)])
def test_form_step_is_the_frobenius_power_of_x(p, r, s):
    spec = construct_ring(p, r, s)
    for h in (0, s // 2):
        assert _form_step(spec, h) == generalized_frobenius(spec._x(), h).coeffs
    assert _form_step(spec, 0) != _form_step(spec, s // 2)


@pytest.mark.parametrize("p, r, s, factors", [(3, 3, 1, (3,)), (2, 3, 1, (2, 2)),
                                              (2, 2, 2, (3,))])
def test_unit_inverses_are_inverses_after_a_stream(p, r, s, factors):
    eng = engine(p, r, s, factors)
    for _ in eng.ideal_stream():
        pass
    inv = _unit_inverses(eng.m)
    assert inv
    assert all(v * u % eng.m == 1 for v, u in inv.items())


# -- duals -----------------------------------------------------------------------------

def test_dual_examples():
    eng = engine(2, 2, 1, (2,))
    assert eng.dual(eng.zero_ideal()) == eng.unit_ideal()
    assert eng.dual(eng.unit_ideal()) == eng.zero_ideal()
    two = eng.ring.element({(0,): eng.spec.from_int(2)})
    ideal = eng.principal_ideal(two)
    assert eng.dual(ideal) == ideal


def test_dual_involution_and_size_product():
    for args in [(2, 2, 1, (2,)), (2, 1, 1, (4,)), (3, 2, 1, (2,)), (2, 1, 2, (3,))]:
        eng = engine(*args)
        forms = [EUCLIDEAN] + ([HERMITIAN] if eng.s % 2 == 0 else [])
        for form in forms:
            for c in eng.enumerate_ideals():
                d = eng.dual(c, form)
                assert c.size * d.size == eng.ring_size
                assert eng.dual(d, form) == c


def _check_dual_against_scan(eng, code, form):
    d = eng.dual(code, form)
    assert d == dual_by_scan(eng, code, form)
    assert code.size * d.size == eng.ring_size
    assert eng.dual(d, form) == code
    assert eng.howell(d.basis) == d.basis


@pytest.mark.parametrize("p, r, s, factors", [
    (2, 3, 1, (2, 2)), (2, 2, 1, (6,)), (2, 3, 1, (4,)), (2, 2, 2, (3,)),
    (2, 2, 1, (2, 2)), (3, 2, 1, (3,)), (2, 2, 2, (2,))])
def test_kernel_dual_matches_scan_on_every_ideal(p, r, s, factors):
    eng = engine(p, r, s, factors)
    for form in [EUCLIDEAN] + ([HERMITIAN] if s % 2 == 0 else []):
        for code in eng.enumerate_ideals():
            _check_dual_against_scan(eng, code, form)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("p, r, s, factors", [(2, 2, 1, (7,)), (3, 3, 1, (3,))])
def test_kernel_dual_matches_scan_on_seeded_picks(p, r, s, factors, seed):
    eng = engine(p, r, s, factors)
    rng = random.Random(seed)
    for _ in range(3):
        gens = [eng.ring.random_element(rng) * p**rng.randrange(r) for _ in range(2)]
        _check_dual_against_scan(eng, join_all(eng, gens), EUCLIDEAN)


def test_dual_is_inclusion_reversing():
    eng = engine(2, 2, 1, (2,))
    ideals = eng.enumerate_ideals()
    member_sets = {c: set(c.element_encodings()) for c in ideals}
    for a in ideals:
        for b in ideals:
            if member_sets[a] <= member_sets[b]:
                da, db = eng.dual(a), eng.dual(b)
                assert set(db.element_encodings()) <= set(da.element_encodings())


# -- self-duality ---------------------------------------------------------------------------

def test_is_self_dual_examples():
    eng = engine(2, 2, 1, (2,))
    spec, ring = eng.spec, eng.ring
    two = ring.element({(0,): spec.from_int(2)})
    assert eng.is_self_dual(eng.principal_ideal(two))
    one_plus_y = ring.element({(0,): spec.one(), (1,): spec.one()})
    assert not eng.is_self_dual(eng.principal_ideal(one_plus_y))
    assert not eng.is_self_dual(eng.zero_ideal())


def test_self_dual_listing_matches_count():
    eng = engine(2, 2, 1, (2,))
    listed = [c for c in eng.ideal_stream() if eng.is_self_dual(c)]
    assert len(listed) == eng.count_self_dual() == 1
    assert listed == [eng.principal_ideal((2, 0))]
    odd = engine(3, 1, 1, (2,))
    assert not any(odd.is_self_dual(c) for c in odd.ideal_stream())
    assert odd.count_self_dual() == 0


def test_hermitian_needs_even_degree():
    eng = engine(2, 2, 1, (2,))
    with pytest.raises(DomainError):
        eng.count_self_dual(HERMITIAN)
    with pytest.raises(DomainError):
        eng.dual(eng.zero_ideal(), "twisted")


def test_brute_force_provider_refuses_an_odd_degree_hermitian_count():
    """As the trivial provider does, and without caching a count of 0:
    every ideal of Z3[Z3] fails the size test, which came first."""
    before = dict(_BRUTE_CACHE)
    with pytest.raises(DomainError, match="even degree"):
        BruteForceProvider().count(3, 1, 1, AbelianGroup((3,)), HERMITIAN)
    with pytest.raises(DomainError, match="even degree"):
        TrivialSylowProvider().count(3, 1, 1, AbelianGroup(()), HERMITIAN)
    assert _BRUTE_CACHE == before


# -- constructive existence ---------------------------------------------------------------------

def test_construct_even_r_example():
    out = construct_self_dual(3, 2, 1, AbelianGroup((2,)))
    eng = engine(3, 2, 1, (2,))
    three = eng.ring.element({(0,): eng.spec.from_int(3)})
    assert out.ideal == eng.principal_ideal(three)
    assert eng.is_self_dual(out.ideal)
    assert len(out.generators) == 1


def test_construct_odd_r_example():
    out = construct_self_dual(2, 1, 1, AbelianGroup((2,)))
    eng = engine(2, 1, 1, (2,))
    one_plus_y = eng.ring.element({(0,): eng.spec.one(), (1,): eng.spec.one()})
    assert out.ideal == eng.principal_ideal(one_plus_y)
    assert eng.is_self_dual(out.ideal)


def test_construct_rejects_nonexistent():
    with pytest.raises(DomainError):
        construct_self_dual(3, 1, 1, AbelianGroup((3,)))


def test_construct_beyond_bound_returns_generators_only():
    out = construct_self_dual(2, 2, 1, AbelianGroup((2,)), bound=8)
    assert out.ideal is None
    assert len(out.generators) == 1


def test_construct_large_r_returns_generators_at_once(monkeypatch):
    # p^r = 2^41: the engine's size rule refuses without walking Z_{p^r}
    monkeypatch.delenv(BOUND_ENV_VAR, raising=False)
    group = AbelianGroup((2,))
    start = time.perf_counter()
    out = construct_self_dual(2, 41, 1, group)
    assert time.perf_counter() - start < 1
    assert out.ideal is None
    assert out.generators == construct_by_nested_assembly(2, 41, 1, group, EUCLIDEAN)


def test_construct_odd_r_nontrivial_coprime_part():
    for args in [(2, 1, 1, (6,)), (2, 3, 1, (2,)), (2, 1, 2, (2, 3))]:
        p, r, s, factors = args
        out = construct_self_dual(p, r, s, AbelianGroup(factors))
        eng = engine(p, r, s, factors)
        ideal = join_all(eng, out.generators)
        assert out.ideal == ideal
        assert eng.is_self_dual(ideal)


# -- semisimple enumeration -----------------------------------------------------------------------

def test_semisimple_family_z7():
    fam = enumerate_semisimple_selfdual(2, 2, 1, AbelianGroup((7,)))
    assert fam.count == 3
    assert len(fam.representatives) == 3
    eng = engine(2, 2, 1, (7,))
    ideals = {join_all(eng, gens) for gens in fam.representatives}
    assert len(ideals) == 3
    for ideal in ideals:
        assert eng.is_self_dual(ideal)


def test_semisimple_family_z2_coefficient_ring():
    fam = enumerate_semisimple_selfdual(3, 2, 1, AbelianGroup((2,)))
    assert fam.count == 1
    eng = engine(3, 2, 1, (2,))
    assert eng.count_self_dual() == 1


def test_semisimple_family_hermitian():
    fam = enumerate_semisimple_selfdual(2, 2, 2, AbelianGroup((5,)), form=HERMITIAN)
    assert fam.count == 3
    assert len(fam.representatives) == 3


# the odd-r constructions of the spectral benchmark, then five more shapes of P
NESTED_CONSTRUCTS = [
    (2, 1, 1, (6,), EUCLIDEAN), (2, 1, 1, (2, 7), EUCLIDEAN), (2, 3, 1, (14,), EUCLIDEAN),
    (2, 1, 2, (2, 3), HERMITIAN), (2, 3, 2, (2, 5), HERMITIAN), (2, 1, 1, (4, 5), EUCLIDEAN),
    (2, 1, 1, (2, 9), EUCLIDEAN), (2, 3, 1, (4, 3), EUCLIDEAN), (2, 1, 1, (2, 15), EUCLIDEAN),
    (2, 1, 2, (2, 7), HERMITIAN), (2, 1, 1, (2, 2, 3), EUCLIDEAN),
    (2, 1, 1, (2,), EUCLIDEAN), (2, 3, 1, (2, 2), EUCLIDEAN), (2, 1, 2, (4, 3), HERMITIAN),
    (2, 1, 1, (8, 7), EUCLIDEAN), (2, 5, 1, (6,), EUCLIDEAN),
]


@pytest.mark.parametrize("p, r, s, factors, form", NESTED_CONSTRUCTS)
def test_construct_matches_nested_assembly(p, r, s, factors, form):
    group = AbelianGroup(factors)
    out = construct_self_dual(p, r, s, group, form, bound=1)
    assert out.ideal is None
    assert out.generators == construct_by_nested_assembly(p, r, s, group, form)


def both_forms(cases):
    """Each case in its own form, then in the other one too when s is even."""
    out = []
    for p, r, s, factors, form in cases:
        out.append((p, r, s, factors, form))
        if s % 2 == 0:
            out.append((p, r, s, factors, HERMITIAN if form == EUCLIDEAN else EUCLIDEAN))
    return out


EVEN_R_CONSTRUCTS = [
    (2, 2, 1, (6,), EUCLIDEAN), (3, 2, 1, (4,), EUCLIDEAN), (2, 2, 2, (3,), EUCLIDEAN),
    (5, 2, 1, (3,), EUCLIDEAN), (2, 4, 1, (2, 2), EUCLIDEAN), (3, 2, 2, (2, 3), HERMITIAN),
]
# the odd-r constructions and the semisimple families of the spectral benchmark
SPECTRAL_CONSTRUCTS = NESTED_CONSTRUCTS[:11]
SPECTRAL_FAMILIES = [
    (2, 2, 1, (7,), EUCLIDEAN), (2, 2, 1, (15,), EUCLIDEAN), (2, 4, 1, (7,), EUCLIDEAN),
    (3, 2, 2, (5,), HERMITIAN), (2, 2, 2, (7,), HERMITIAN), (3, 2, 1, (13,), EUCLIDEAN),
    (5, 2, 1, (12,), EUCLIDEAN), (2, 2, 2, (9,), HERMITIAN),
]


def texts(gens):
    return [element_text(g) for g in gens]


@pytest.mark.parametrize("p, r, s, factors, form",
                         both_forms(SPECTRAL_CONSTRUCTS + EVEN_R_CONSTRUCTS))
def test_construct_on_vectors_matches_the_element_level_construction(p, r, s, factors, form):
    group = AbelianGroup(factors)
    want = construct_by_elements(p, r, s, group, form)
    if r % 2:
        assert texts(construct_by_nested_assembly(p, r, s, group, form)) == texts(want)
    eng = engine(p, r, s, factors, bound=1 << 200)
    want_ideal = eng.ideal_from_rows(
        [row for g in want for row in eng.principal_rows(eng.to_vector(g))])
    assert want_ideal == join_all(eng, want)
    for bound in (None, 1 << 200):
        out = construct_self_dual(p, r, s, group, form, bound=bound)
        assert texts(out.generators) == texts(want)
        assert out.generators == want
        if eng.ring_size <= (exhaustive_bound() if bound is None else bound):
            assert out.ideal.basis == want_ideal.basis
        else:
            assert out.ideal is None


@pytest.mark.parametrize("p, r, s, factors, form", both_forms(SPECTRAL_FAMILIES))
def test_semisimple_family_on_vectors_matches_the_element_level_family(p, r, s, factors, form):
    fam = enumerate_semisimple_selfdual(p, r, s, AbelianGroup(factors), form)
    want = semisimple_by_elements(p, r, s, AbelianGroup(factors), form)
    assert fam.count == len(want) > 0
    assert [texts(gens) for gens in fam.representatives] == [texts(gens) for gens in want]
    assert fam.representatives == want


@pytest.mark.parametrize("p, r, s, factors, form", [
    (2, 4, 1, (7,), EUCLIDEAN), (2, 2, 2, (9,), HERMITIAN), (5, 2, 1, (12,), EUCLIDEAN)])
def test_semisimple_representatives_match_per_choice_construction(p, r, s, factors, form):
    group = AbelianGroup(factors)
    ctx = ambient(construct_ring(p, r, s), group)
    singles, pairs = ctx.parts.layout(form)
    want = []
    for choice in itertools.product(range(r + 1), repeat=len(pairs)):
        # one transform per generator, at its exact scale
        gens = [compose_ints_by_transform(ctx, form, {i: p**(r // 2)}, {}) for i in singles]
        for (i, _), w in zip(pairs, choice):
            for member, exp in ((0, w), (1, r - w)):
                if exp < r:
                    pair = (p**exp, 0) if member == 0 else (0, p**exp)
                    gens.append(compose_ints_by_transform(ctx, form, {}, {i: pair}))
        want.append(tuple(gens))
    fam = enumerate_semisimple_selfdual(p, r, s, group, form)
    assert fam.representatives == tuple(want)


@pytest.mark.parametrize("p, r, s, factors, form", [
    (2, 2, 1, (15,), EUCLIDEAN), (2, 2, 2, (7,), HERMITIAN), (3, 2, 1, (13,), EUCLIDEAN),
    (5, 2, 1, (12,), EUCLIDEAN), (2, 4, 1, (7,), EUCLIDEAN)])
def test_semisimple_family_above_the_bound(p, r, s, factors, form):
    group = AbelianGroup(factors)
    eng = engine(p, r, s, factors)
    assert eng.ring_size > eng.bound
    found = set()
    for gens in enumerate_semisimple_selfdual(p, r, s, group, form).representatives:
        ideal = join_all(eng, gens)
        assert eng.is_self_dual(ideal, form)
        assert eng.dual(ideal, form) == ideal
        found.add(ideal)
    count = euclidean_semisimple_count if form == EUCLIDEAN else hermitian_semisimple_count
    assert len(found) == count(p, r, s, group).count
    with pytest.raises(BoundExceededError):
        next(eng.ideal_stream())
    with pytest.raises(BoundExceededError):
        next(iter(found)).element_encodings()


def test_semisimple_family_odd_r_is_empty():
    fam = enumerate_semisimple_selfdual(2, 1, 1, AbelianGroup((7,)))
    assert fam.count == 0
    assert fam.representatives == ()


def test_semisimple_family_representative_cap():
    # Z127 splits into 9 pairs of classes of size 7 over F_2
    fam = enumerate_semisimple_selfdual(2, 2, 1, AbelianGroup((127,)))
    assert fam.count == 3**9 > MAX_REPRESENTATIVES
    assert fam.representatives == ()


def test_semisimple_rejects_noncoprime():
    with pytest.raises(DomainError):
        enumerate_semisimple_selfdual(2, 2, 1, AbelianGroup((6,)))

import itertools
import random
import re
import time
from functools import reduce

import pytest

from galcodes import group_ring
from galcodes.counting import (_BRUTE_CACHE, BruteForceProvider, TrivialSylowProvider,
                               euclidean_semisimple_count, hermitian_semisimple_count)
from galcodes.errors import BoundExceededError, DomainError, InternalInvariantError
from galcodes.galois import construct_ring, generalized_frobenius
from galcodes.group_ring import (GroupRing, _form_step, _group_index, _monomial_rows, _shift_perms,
                                 _sylow_perm, ambient, element_text)
from galcodes.groups import AbelianGroup, element_order, sylow_decompose
from galcodes.ideals import (BOUND_ENV_VAR, DEFAULT_BOUND, EUCLIDEAN, MAX_REPRESENTATIVES,
                             HERMITIAN, ExhaustiveGroupRing, Ideal, _line_projectors,
                             _radical_rows, construct_self_dual, enumerate_semisimple_selfdual,
                             exhaustive_bound)
from galcodes.linalg import howell, pivot, remainder
from helpers import (abelian_groups_up_to, annihilator_by_full_howell, compose_ints_by_transform,
                     construct_by_elements, construct_by_nested_assembly, dual_by_scan, engine,
                     fp_points, howell_saturating_takeovers, ideals_by_full_scan,
                     ideals_by_orbit_scan, ideals_by_principal_joins, line_bases_by_full_scan,
                     minimal_ideals, orbit_least_vectors, perms_by_group_add,
                     semisimple_by_elements, shift, socle_layer_by_two_kernels,
                     stream_by_fp_points)


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


@pytest.mark.parametrize("bound", [2.5, True, "x", 2.5e9], ids=["float", "bool", "str", "big-float"])
def test_engine_refuses_a_bound_that_is_not_an_integer(bound):
    """2.5 and True used to build engines, so construct_self_dual returned
    ideal=None and BruteForceProvider(2.5e9) counted; "x" raised TypeError."""
    ring = GroupRing(construct_ring(2, 2, 1), AbelianGroup((2,)))
    message = f"exhaustive bound must be an integer, got {re.escape(repr(bound))}$"
    with pytest.raises(DomainError, match=message):
        ExhaustiveGroupRing(ring, bound)
    with pytest.raises(DomainError, match=message):
        construct_self_dual(2, 2, 1, AbelianGroup((2,)), bound=bound)
    for kind in ("total", EUCLIDEAN):
        with pytest.raises(DomainError, match=message):
            BruteForceProvider(bound).count(2, 2, 1, AbelianGroup((2,)), kind)


def test_engine_refuses_a_nested_group_ring():
    inner = GroupRing(construct_ring(2, 2, 1), AbelianGroup((3,)))
    with pytest.raises(DomainError, match="^exhaustive engine needs Galois-ring coefficients$"):
        ExhaustiveGroupRing(GroupRing(inner, AbelianGroup((2,))))


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


@pytest.mark.parametrize("call", [
    lambda eng, x: eng.to_vector(x),
    lambda eng, x: eng.unit_ideal().contains(x),
    lambda eng, x: eng.principal_ideal(x),
], ids=["to_vector", "contains", "principal_ideal"])
@pytest.mark.parametrize("other, owner", [
    (GroupRing(construct_ring(2, 2, 1), AbelianGroup((5,))).one(), r"GR\(2\^2,1\)\[Z5\]"),
    (5, "int"), (2.5, "float"), (construct_ring(2, 2, 1).one(), r"GR\(2\^2,1\)")],
    ids=["other-group-ring", "int", "float", "coefficient"])
def test_element_of_another_ring_is_refused(call, other, owner):
    """Named with the engine's ring; an int or a coefficient used to raise
    AttributeError, and principal_ideal(5) TypeError."""
    eng = engine(2, 2, 1, (3,))
    with pytest.raises(DomainError, match=rf"^element of {owner} used in GR\(2\^2,1\)\[Z3\]$"):
        call(eng, other)


VECTOR_CALLS = pytest.mark.parametrize("call", [
    lambda eng, vec: eng.principal_ideal(vec),
    lambda eng, vec: eng.unit_ideal().contains_vector(vec),
    lambda eng, vec: eng.from_vector(vec),
    lambda eng, vec: eng.encode_vector(vec),
    lambda eng, vec: eng.ideal_from_rows([vec]),
    lambda eng, vec: eng.generated_ideal([vec]),
], ids=["principal_ideal", "contains_vector", "from_vector", "encode_vector", "ideal_from_rows",
        "generated_ideal"])


@VECTOR_CALLS
@pytest.mark.parametrize("length", [2, 4])
def test_vector_of_another_length_is_refused(call, length):
    eng = engine(2, 2, 1, (3,))
    with pytest.raises(DomainError):
        call(eng, (2,) * length)


@VECTOR_CALLS
@pytest.mark.parametrize("vec", [(4, 0), (5, 0), (-1, 0), "ab", (0, 1.5)])
def test_digit_outside_the_coefficient_ring_is_refused(call, vec):
    # (4, 0) once gave the basis ((4, 0), (0, 4)), which is not Howell;
    # "ab" once failed on comparing a str, and 1.5 passed the range check
    eng = engine(2, 2, 1, (2,))
    digit = next(d for d in vec if not (isinstance(d, int) and 0 <= d < 4))
    with pytest.raises(DomainError,
                       match=rf"digit {re.escape(repr(digit))} of a vector over Z_4 is not in \[0, 4\)"):
        call(eng, vec)


@VECTOR_CALLS
def test_bool_digit_is_refused(call):
    """True used to pass the digit check as 1."""
    eng = engine(2, 2, 1, (2,))
    with pytest.raises(DomainError, match=r"^digit True of a vector over Z_4 is not in \[0, 4\)$"):
        call(eng, (True, 0))


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


def test_an_ideal_is_its_engine_basis_and_size():
    assert Ideal.__slots__ == ("engine", "basis", "_size")


@pytest.mark.parametrize("factors", [(4,), (2, 2)], ids=["Z4[Z4]", "Z4[Z2xZ2]"])
def test_repeated_listings_of_an_ideal_agree(factors):
    """An ideal keeps no listing: each call of element_encodings and
    generators recomputes it, and a caller's edits of one list reach no
    other."""
    eng = engine(2, 2, 1, factors)
    for ideal in eng.ideal_stream():
        encodings, gens = ideal.element_encodings(), ideal.generators()
        assert ideal.element_encodings() == encodings
        gens_again = ideal.generators()
        assert gens_again == gens and gens_again is not gens
        gens.clear()
        assert ideal.generators() == gens_again


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
    """The walk yields the ideals of both oracles, each once, the zero
    ideal first.  The orbit-scan oracle keeps the full scan's principal
    ideals and the plain closure's order, which self-tests it."""
    eng = engine(p, r, s, factors)
    principal, rest = ideals_by_full_scan(eng)
    scanned = [c.basis for c in ideals_by_orbit_scan(eng)]
    assert scanned[:len(principal)] == principal
    assert scanned == ideals_by_principal_joins(eng, principal)
    got = [c.basis for c in eng.ideal_stream()]
    assert got[0] == ()
    assert len(set(got)) == len(got)
    assert set(got) == set(principal) | set(rest) == set(scanned)


@pytest.mark.parametrize("p, r, s, factors", STREAM_RINGS,
                         ids=[ring_id(ring) for ring in STREAM_RINGS])
def test_covers_are_the_minimal_joins_of_the_fp_points(p, r, s, factors):
    """For every ideal I, the walk's vectors give each cover of I once: the
    joins I + (v) are distinct, and they are the minimal joins of I with
    the F_p-points of S(I)/I.  The stream is the per-point walk's as a set."""
    eng = engine(p, r, s, factors)
    got = list(eng.ideal_stream())
    for ideal in got:
        socle = socle_layer_by_two_kernels(eng, ideal)
        covers = [eng.join(ideal, eng.principal_ideal(v)) for v in eng._cover_points(ideal, socle)]
        assert len(set(covers)) == len(covers)
        assert set(covers) == minimal_ideals(eng.join(ideal, eng.principal_ideal(v))
                                             for v in fp_points(eng, ideal))
    assert len(set(got)) == len(got)
    assert set(got) == set(stream_by_fp_points(eng))


def is_local(ring):
    p, _, _, factors = ring
    return sylow_decompose(AbelianGroup(factors), p).coprime_part.order == 1


LOCAL_PRIME_FIELD_RINGS = [ring for ring in STREAM_RINGS if ring[2] == 1 and is_local(ring)]


@pytest.mark.parametrize("p, r, s, factors", LOCAL_PRIME_FIELD_RINGS,
                         ids=[ring_id(ring) for ring in LOCAL_PRIME_FIELD_RINGS])
def test_the_stream_is_the_per_point_walk_on_local_rings_over_prime_fields(p, r, s, factors):
    """With A trivial and s = 1, R/J = F_p, so every line of S(I)/I is one
    F_p-point, and the walk yields the per-point walk's ideals in its order."""
    eng = engine(p, r, s, factors)
    assert [c.basis for c in eng.ideal_stream()] == [c.basis for c in stream_by_fp_points(eng)]


# r = 1 rings whose S(I)/I has a large F_p-dimension: the per-point walk
# took 20 s on F_2[Z15]
SEMISIMPLE_RINGS = [(2, 1, 1, (15,)), (2, 1, 2, (7,)), (3, 1, 1, (8,)), (2, 1, 1, (13,))]


# the cover edges of the lattice of each ideal_enum ring, 1557 in all,
# against 4193 F_p-points
COVER_EDGES = {(2, 2, 1, (7,)): 54, (2, 2, 2, (3,)): 54, (3, 3, 1, (3,)): 69,
               (2, 3, 1, (2, 2)): 832, (2, 2, 1, (3, 2)): 156, (2, 3, 1, (4,)): 208,
               (2, 2, 1, (2, 2)): 100, (3, 2, 1, (3,)): 24, (2, 2, 2, (2,)): 12,
               (2, 2, 1, (4,)): 36, (2, 2, 1, (5,)): 12}


# the distinct cover vectors of each ideal_enum walk, 307 in all
COVER_VECTORS = {(2, 2, 1, (7,)): 17, (2, 2, 2, (3,)): 17, (3, 3, 1, (3,)): 34,
                 (2, 3, 1, (2, 2)): 90, (2, 2, 1, (3, 2)): 26, (2, 3, 1, (4,)): 53,
                 (2, 2, 1, (2, 2)): 26, (3, 2, 1, (3,)): 13, (2, 2, 2, (2,)): 7,
                 (2, 2, 1, (4,)): 18, (2, 2, 1, (5,)): 6}


@pytest.mark.parametrize("p, r, s, factors", IDEAL_ENUM_RINGS,
                         ids=[ring_id(ring) for ring in IDEAL_ENUM_RINGS])
def test_the_walk_joins_once_per_cover_edge(p, r, s, factors, monkeypatch):
    """One join per cover and one principal ideal per distinct cover vector
    of the walk, none per F_p-point: the counts the benchmark's traced run
    reads."""
    eng = ExhaustiveGroupRing(GroupRing(construct_ring(p, r, s), AbelianGroup(factors)))
    calls = {"join": 0, "principal_ideal": 0}
    for name in calls:
        def spy(*args, method=getattr(eng, name), name=name):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(eng, name, spy)
    vectors = [v for ideal in eng.ideal_stream()
               for v in eng._cover_points(ideal, socle_layer_by_two_kernels(eng, ideal))]
    assert calls == {"join": len(vectors), "principal_ideal": len(set(vectors))}
    assert len(vectors) == COVER_EDGES[(p, r, s, factors)]
    assert len(set(vectors)) == COVER_VECTORS[(p, r, s, factors)]


# the annihilators each ideal_enum walk takes, 329 in all, against 1270
# when each socle layer takes both of its own
ANNIHILATORS = {(2, 2, 1, (7,)): 15, (2, 2, 2, (3,)): 15, (3, 3, 1, (3,)): 20,
                (2, 3, 1, (2, 2)): 141, (2, 2, 1, (3, 2)): 33, (2, 3, 1, (4,)): 48,
                (2, 2, 1, (2, 2)): 25, (3, 2, 1, (3,)): 9, (2, 2, 2, (2,)): 5,
                (2, 2, 1, (4,)): 13, (2, 2, 1, (5,)): 5}


def spy_annihilators(monkeypatch) -> list:
    """The rows of every later ExhaustiveGroupRing._annihilator call, in
    order.  The spy sits on the class, so no engine gains an attribute."""
    calls = []
    method = ExhaustiveGroupRing._annihilator

    def spy(eng, rows, h):
        calls.append(rows)
        return method(eng, rows, h)

    monkeypatch.setattr(ExhaustiveGroupRing, "_annihilator", spy)
    return calls


@pytest.mark.parametrize("p, r, s, factors", IDEAL_ENUM_RINGS,
                         ids=[ring_id(ring) for ring in IDEAL_ENUM_RINGS])
def test_the_walk_takes_one_annihilator_per_pair(p, r, s, factors, monkeypatch):
    """The socle layers' inputs are M = I and M = J * I^perp over the
    ideals I.  A walk takes one annihilator per pair {M, M^perp} of them,
    each of a new M, and yields what it yielded before the spy."""
    eng = engine(p, r, s, factors)
    ideals = [c.basis for c in eng.ideal_stream()]
    pairs = set()
    for basis in ideals:
        perp = eng._annihilator(basis, 0)
        radical = _radical_rows(eng.spec, factors, perp)
        pairs |= {frozenset((basis, perp)), frozenset((radical, eng._annihilator(radical, 0)))}
    calls = spy_annihilators(monkeypatch)
    assert [c.basis for c in eng.ideal_stream()] == ideals
    assert len(calls) == len(set(calls)) == len(pairs)
    assert len(calls) == ANNIHILATORS[(p, r, s, factors)]


def test_a_walk_keeps_no_principal_ideal_on_the_engine(monkeypatch):
    """The walk's principal ideals and annihilators live as long as the
    walk: the engine gains no attribute and changes none, and a second
    walk takes the first one's annihilators again and yields its bases."""
    eng = ExhaustiveGroupRing(GroupRing(construct_ring(2, 2, 1), AbelianGroup((3, 2))))
    calls = spy_annihilators(monkeypatch)
    before = dict(vars(eng))
    first = [c.basis for c in eng.ideal_stream()]
    taken = list(calls)
    after = vars(eng)
    assert after.keys() == before.keys()
    assert [k for k in after if after[k] is not before[k]] == []
    calls.clear()
    assert [c.basis for c in eng.ideal_stream()] == first
    assert calls == taken
    assert len(taken) == ANNIHILATORS[(2, 2, 1, (3, 2))]


@pytest.mark.parametrize("p, r, s, factors", [(2, 2, 1, (3, 2)), (2, 3, 1, (4,)), (2, 2, 2, (3,))],
                         ids=["Z4[Z3xZ2]", "Z8[Z4]", "GR(2^2,2)[Z3]"])
def test_two_streams_of_one_engine_advanced_in_turn_are_two_walks(p, r, s, factors):
    """Each stream has its own dicts: two streams of one fresh engine,
    advanced in turn, yield what two walks of another fresh engine yield
    one after the other."""
    ring = GroupRing(construct_ring(p, r, s), AbelianGroup(factors))
    eng = ExhaustiveGroupRing(ring)
    want = [c.basis for c in eng.ideal_stream()]
    assert [c.basis for c in eng.ideal_stream()] == want
    eng = ExhaustiveGroupRing(ring)
    a, b = eng.ideal_stream(), eng.ideal_stream()
    got_a, got_b = [], []
    for x, y in zip(a, b):
        got_a.append(x.basis)
        got_b.append(y.basis)
    assert next(a, None) is None and next(b, None) is None
    assert got_a == got_b == want


def class_sizes(eng):
    """nu_C of each q-cyclotomic class C of A, in partition order."""
    dec = sylow_decompose(eng.group, eng.p)
    return [len(cls.elements) for cls in ambient(eng.spec, dec.coprime_part).parts.classes]


@pytest.mark.parametrize("p, r, s, factors", STREAM_RINGS + SEMISIMPLE_RINGS,
                         ids=[ring_id(ring) for ring in STREAM_RINGS + SEMISIMPLE_RINGS])
def test_line_bases_stop_at_the_dimension_of_the_line(p, r, s, factors):
    """On every ideal I, each line basis of the summand of class C holds
    s * nu_C rows, the F_p-dimension of (I + (lead))/I, and is the basis
    the full greedy scan picks, so the cover vectors built from the bases
    are the full scan's too."""
    eng = engine(p, r, s, factors)
    nus = class_sizes(eng)
    for ideal in eng.ideal_stream():
        summands = eng._line_bases(ideal, socle_layer_by_two_kernels(eng, ideal))
        assert summands == line_bases_by_full_scan(eng, ideal)
        assert len(summands) == len(nus)
        for bases, nu in zip(summands, nus):
            for basis in bases:
                assert len(basis) == s * nu
                line = eng.join(ideal, eng.principal_ideal(basis[0]))
                assert line.size == ideal.size * p**(s * nu)


@pytest.mark.parametrize("p, r, s, factors", STREAM_RINGS + SEMISIMPLE_RINGS,
                         ids=[ring_id(ring) for ring in STREAM_RINGS + SEMISIMPLE_RINGS])
def test_each_line_takes_its_rows_at_its_class_picks(p, r, s, factors):
    """On every ideal, each line basis the full greedy scan keeps is its
    lead's rows x^j * Y^g * lead at exactly the picks of its class, s * nu_C
    of them.  The picks are those of a cold build, which no walk made, and
    the walks read the same picks from the ring's table."""
    eng = engine(p, r, s, factors)
    cold_picks = [picks for _, picks in _line_projectors.__wrapped__(eng.ring)]
    nus = class_sizes(eng)
    assert [len(picks) for picks in cold_picks] == [s * nu for nu in nus]
    for ideal in eng.ideal_stream():
        summands = line_bases_by_full_scan(eng, ideal)
        assert len(summands) == len(cold_picks)
        for bases, picks in zip(summands, cold_picks):
            for basis in bases:
                rows = list(_monomial_rows(eng.spec, factors, basis[0]))
                assert basis == [rows[t] for t in picks]
    assert [picks for _, picks in _line_projectors(eng.ring)] == cold_picks


@pytest.mark.parametrize("p, r, s, factors", STREAM_RINGS + SEMISIMPLE_RINGS,
                         ids=[ring_id(ring) for ring in STREAM_RINGS + SEMISIMPLE_RINGS])
def test_line_projectors_of_the_table_are_a_cold_build(p, r, s, factors):
    ring = engine(p, r, s, factors).ring
    assert _line_projectors(ring) == _line_projectors.__wrapped__(ring)


def test_a_second_engine_of_one_ring_reads_the_first_ones_projectors():
    """The projectors are keyed by the ring, not by the engine: the walk
    of a second engine of an equal ring hits the table and builds nothing."""
    first = ExhaustiveGroupRing(GroupRing(construct_ring(2, 2, 1), AbelianGroup((3, 2))))
    want = [c.basis for c in first.ideal_stream()]
    before = _line_projectors.cache_info()
    second = ExhaustiveGroupRing(GroupRing(construct_ring(2, 2, 1), AbelianGroup((3, 2))))
    assert [c.basis for c in second.ideal_stream()] == want
    after = _line_projectors.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


@pytest.mark.parametrize("p, r, s, factors", STREAM_RINGS + SEMISIMPLE_RINGS,
                         ids=[ring_id(ring) for ring in STREAM_RINGS + SEMISIMPLE_RINGS])
def test_annihilators_equal_the_kernel_of_the_full_howell_form(p, r, s, factors):
    """On every ideal I, at twist 0 and, when s is even, at twist s/2: the
    annihilator of I's basis equals the oracle's, which builds the form
    matrix row by row and reads the kernel off the full Howell form of
    [B | I_n].  So does the socle layer's second annihilator, of the Howell
    basis of J * I^perp."""
    eng = engine(p, r, s, factors)
    twists = (0, s // 2) if s % 2 == 0 else (0,)
    for ideal in eng.ideal_stream():
        for h in twists:
            assert eng._annihilator(ideal.basis, h) == annihilator_by_full_howell(eng, ideal.basis, h)
        radical = _radical_rows(eng.spec, factors, eng._annihilator(ideal.basis, 0))
        assert eng._socle_layer(ideal, {}) == annihilator_by_full_howell(eng, radical, 0)


@pytest.mark.parametrize("p, r, s, factors", STREAM_RINGS + SEMISIMPLE_RINGS,
                         ids=[ring_id(ring) for ring in STREAM_RINGS + SEMISIMPLE_RINGS])
def test_perp_is_an_involution_on_ideals(p, r, s, factors):
    """For M = I, J * I^perp and S(I) over every ideal I, at twist 0 and,
    when s is even, at twist s/2: the annihilator of M's annihilator is M,
    basis for basis.  The walk's dict stores each pair both ways on this."""
    eng = engine(p, r, s, factors)
    twists = (0, s // 2) if s % 2 == 0 else (0,)
    for ideal in eng.ideal_stream():
        radical = _radical_rows(eng.spec, factors, eng._annihilator(ideal.basis, 0))
        for basis in (ideal.basis, radical, eng._annihilator(radical, 0)):
            for h in twists:
                assert eng._annihilator(eng._annihilator(basis, h), h) == basis


S_ABOVE_ONE_RINGS = [ring for ring in STREAM_RINGS + SEMISIMPLE_RINGS if ring[2] > 1]


@pytest.mark.parametrize("p, r, s, factors", S_ABOVE_ONE_RINGS,
                         ids=[ring_id(ring) for ring in S_ABOVE_ONE_RINGS])
def test_perp_is_no_involution_on_a_span_not_closed_under_x(p, r, s, factors):
    """With s > 1 the Z_{p^r}-span of e, the unit vector at digit 0, is not
    closed under x.  Its annihilator is that of the span of the x^j * e,
    0 <= j < s, so the annihilator of its annihilator is that span, not
    the span of e: the walk's dict must hold ideals only."""
    eng = engine(p, r, s, factors)
    unit = (1,) + (0,) * (eng.n - 1)
    span = howell([unit], p, r)
    x_span = howell(list(itertools.islice(_monomial_rows(eng.spec, factors, unit), s)), p, r)
    for h in (0, s // 2) if s % 2 == 0 else (0,):
        assert eng._annihilator(eng._annihilator(span, h), h) == x_span != span


@pytest.mark.parametrize("p, r, s, factors", STREAM_RINGS + SEMISIMPLE_RINGS,
                         ids=[ring_id(ring) for ring in STREAM_RINGS + SEMISIMPLE_RINGS])
def test_socle_layers_through_one_dict_are_the_two_kernels(p, r, s, factors):
    """With one dict over the ideals in stream order, as a walk meets them,
    each socle layer is the two-kernel body the dict replaced, and each
    entry of the dict maps an ideal's basis to its annihilator's."""
    eng = engine(p, r, s, factors)
    perps = {}
    for ideal in eng.ideal_stream():
        assert eng._socle_layer(ideal, perps) == socle_layer_by_two_kernels(eng, ideal)
    for basis, perp in perps.items():
        assert eng._annihilator(basis, 0) == perp


@pytest.mark.parametrize("p, r, s, factors", SEMISIMPLE_RINGS,
                         ids=[ring_id(ring) for ring in SEMISIMPLE_RINGS])
def test_stream_matches_the_orbit_scan_on_semisimple_rings(p, r, s, factors):
    eng = engine(p, r, s, factors)
    got = [c.basis for c in eng.ideal_stream()]
    assert got[0] == ()
    assert len(set(got)) == len(got)
    assert set(got) == {c.basis for c in ideals_by_orbit_scan(eng)}


@pytest.mark.parametrize("p, r, s, factors", [
    (2, 2, 1, (2, 2)), (2, 3, 1, (4,)), (3, 2, 1, (3,)), (2, 2, 2, (2,)), (2, 2, 1, (6,))],
    ids=["Z4[Z2xZ2]", "Z8[Z4]", "Z9[Z3]", "GR(2^2,2)[Z2]", "Z4[Z6]"])
def test_socle_layer_is_its_definition(p, r, s, factors):
    """For every ideal I, the socle layer is {v : p * v and (Y^g - 1) * v
    lie in I for every g in the Sylow p-subgroup}, found by scanning every
    vector with group-ring arithmetic."""
    eng = engine(p, r, s, factors)
    # g has p-power order exactly when its order divides p^|G|
    sylow = [g for g in eng.group.elements()
             if eng.p**eng.group.order % element_order(eng.group, g) == 0]
    images = []
    for k in range(eng.ring_size):
        x = eng.from_vector(eng.decode_vector(k))
        images.append([x * eng.p] + [shift(x, g) - x for g in sylow])
    for ideal in eng.ideal_stream():
        members = set(ideal.element_encodings())
        want = [k for k, xs in enumerate(images)
                if all(eng.encode_vector(eng.to_vector(y)) in members for y in xs)]
        assert Ideal(eng, eng._socle_layer(ideal, {})).element_encodings() == tuple(want)


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


LARGE_MODULI = [(2, 40), (3, 20)]


@pytest.mark.parametrize("p, r", LARGE_MODULI, ids=[f"Z{p}^{r}" for p, r in LARGE_MODULI])
def test_howell_matches_the_takeover_saturating_form_at_large_moduli(p, r):
    """3000 seeded row sets per modulus, where a table of units would not fit."""
    m = p**r
    rng = random.Random(r)
    for _ in range(3000):
        width, count = rng.randint(1, 6), rng.randint(1, 6)
        rows = [tuple(rng.randrange(m) * p**rng.choice((0, 0, 1, r // 2, r - 1)) % m
                      for _ in range(width)) for _ in range(count)]
        assert howell(rows, p, r) == howell_saturating_takeovers(rows, p, r), rows


KERNEL_MODULI = HOWELL_MODULI + LARGE_MODULI


@pytest.mark.parametrize("p, r", KERNEL_MODULI, ids=[f"Z{p}^{r}" for p, r in KERNEL_MODULI])
def test_howell_matches_the_takeover_saturating_form_on_kernel_rows(p, r):
    """1000 seeded [B | I_n] row sets per modulus, the rows linalg.kernel
    reduces: n <= 8 rows of width <= 16."""
    m = p**r
    rng = random.Random(1000 + m)
    for _ in range(1000):
        n, k = rng.randint(1, 8), rng.randint(0, 8)
        rows = [[rng.randrange(m) * p**rng.choice((0, 0, 1, r - 1)) % m for _ in range(k)]
                + [int(i == j) for j in range(n)] for i in range(n)]
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
    for _ in ideals_by_orbit_scan(eng):
        pass
    assert calls == orbit_least_vectors(eng)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("factors", [(), (2,), (5,), (4,), (2, 2), (3, 2), (2, 4), (3, 3, 2)])
def test_shift_permutations_match_group_addition(factors, s):
    eng = ExhaustiveGroupRing(GroupRing(construct_ring(2, 2, s), AbelianGroup(factors)))
    assert _shift_perms(eng.group.factors, eng.s) == perms_by_group_add(eng)


# -- tables shared by the engines ---------------------------------------------------------

TABLES = (_group_index, _shift_perms, _form_step, _sylow_perm)


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
def test_stream_bases_lead_with_powers_of_p(p, r, s, factors):
    eng = engine(p, r, s, factors)
    leads = {row[pivot(row)] for ideal in eng.ideal_stream() for row in ideal.basis}
    assert leads == {p**e for e in range(r)}


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


@pytest.mark.parametrize("p, r, s, factors, form", [
    (2, 1, 1, (2, 7), EUCLIDEAN), (2, 3, 1, (4,), EUCLIDEAN), (2, 1, 2, (2, 3), HERMITIAN),
    (2, 1, 1, (2, 2, 3), EUCLIDEAN), (2, 2, 1, (6,), EUCLIDEAN)])
def test_a_construction_merges_once_per_generator(p, r, s, factors, form, monkeypatch):
    """Odd r: each of the two generators is one Sylow merge, the one of g2
    placed at Y^0 and Y^x at once; even r needs none."""
    calls = []
    merge = group_ring._sylow_merge_vector
    monkeypatch.setattr(group_ring, "_sylow_merge_vector",
                        lambda *args: calls.append(args) or merge(*args))
    group = AbelianGroup(factors)
    out = construct_self_dual(p, r, s, group, form, bound=1)
    assert len(calls) == (2 if r % 2 else 0)
    assert out.generators == (construct_by_nested_assembly(p, r, s, group, form) if r % 2 else
                              (GroupRing(construct_ring(p, r, s), group).one() * p**(r // 2),))


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

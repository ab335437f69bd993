import itertools
import operator
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from galcodes import galois
from galcodes.errors import BoundExceededError, DomainError, InternalInvariantError
from galcodes.galois import (_MAX_DLOG_TABLE, GaloisRingSpec,
                             _embedding_exponent, _lift_by_powering,
                             _primitive_polynomial, _teichmuller_table, construct_ring, element_text,
                             embed, generalized_frobenius, modulus_text,
                             parse_element, parse_ring_name, ring_name, root_of_unity,
                             teichmuller_digits, teichmuller_lift, unembed)
from galcodes.group_ring import _form_step
from galcodes.numth import is_prime
from helpers import (digits_by_powering, from_teichmuller_digits, is_unit,
                     primitive_polynomial_by_scan)

# rings small enough for exhaustive element sweeps (p^(r*s) <= 6561)
SMALL_SPECS = [(2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 1, 2), (2, 2, 2),
               (2, 3, 2), (2, 2, 3), (3, 1, 1), (3, 2, 1), (3, 2, 2),
               (3, 1, 3), (5, 2, 1), (7, 1, 1), (5, 1, 2)]


def spec_of(args):
    return construct_ring(*args)


# -- construction --------------------------------------------------------------

def test_modulus_degree_one():
    assert construct_ring(2, 2, 1).modulus == (1, 1)  # x + 1 over Z_4
    assert construct_ring(3, 2, 1).size == 9


def test_modulus_degree_two():
    assert construct_ring(2, 2, 2).modulus == (1, 1, 1)  # x^2 + x + 1


def test_construct_rejects_bad_parameters():
    with pytest.raises(DomainError):
        construct_ring(4, 1, 1)
    with pytest.raises(DomainError):
        construct_ring(2, 0, 1)
    with pytest.raises(DomainError):
        construct_ring(2, 1, 0)


@pytest.mark.parametrize("args, message", [
    ((2.0, 2, 1), "p must be an integer, got 2.0"), ((2, 2.0, 1), "r must be an integer, got 2.0"),
    ((2, 2, 1.5), "s must be an integer, got 1.5"), ((2, "2", 1), "r must be an integer, got '2'"),
    ((3, None, 1), "r must be an integer, got None"), ((True, 2, 1), "p must be an integer, got True"),
    ((2, True, 1), "r must be an integer, got True"), ((2, 2, True), "s must be an integer, got True")],
    ids=["p=2.0", "r=2.0", "s=1.5", "r='2'", "r=None", "p=True", "r=True", "s=True"])
def test_construct_refuses_parameters_that_are_not_integers(args, message):
    """A bool is refused too: construct_ring(2, True, 1) used to build and
    cache GR(2^True,1), a second object equal to GR(2^1,1)."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        construct_ring(*args)


@pytest.mark.parametrize("coeffs", [[1.9, 2.5], [1, True], [1, "2"]], ids=["float", "bool", "str"])
def test_element_refuses_coefficients_that_are_not_integers(coeffs):
    """[1.9, 2.5] used to give <1,2 in GR(2^2,2)>."""
    with pytest.raises(DomainError, match=f"^coefficients {re.escape(repr(tuple(coeffs)))} "
                                          "are not all integers$"):
        construct_ring(2, 2, 2).element(coeffs)


def test_a_float_parameter_does_not_poison_the_ring_cache():
    """In a fresh process, whose cache is empty: construct_ring(2, 2.0, 1)
    used to build GR(2^2.0,1) and cache it under the key of (2, 2, 1), so
    every later GR(2^2,1) had char 4.0 and float digits."""
    script = ("from galcodes.errors import DomainError\n"
              "from galcodes.galois import construct_ring\n"
              "try:\n"
              "    construct_ring(2, 2.0, 1)\n"
              "except DomainError as exc:\n"
              "    print(exc)\n"
              "spec = construct_ring(2, 2, 1)\n"
              "print(spec, type(spec.char).__name__, (spec.one() * spec.one()).coeffs)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "r must be an integer, got 2.0\nGR(2^2,1) int (1,)\n"


def test_construct_is_cached():
    assert construct_ring(2, 2, 2) is construct_ring(2, 2, 2)


def test_modulus_reduction_is_primitive():
    # the residue-field root must have full multiplicative order p^s - 1
    for args in SMALL_SPECS:
        spec = spec_of(args)
        xi = spec.xi
        order = spec.residue_size - 1
        acc = spec.one()
        seen = set()
        for _ in range(order):
            acc = acc * xi
            seen.add(acc)
        assert acc == spec.one()
        assert len(seen) == order


def _order_of_x(tail, p):
    """Multiplicative order of x modulo (x^s + tail, p) by repeated
    multiplication; 0 when no power up to p^s - 1 is 1."""
    one = [1] + [0] * (len(tail) - 1)
    t = one
    for k in range(1, p**len(tail)):
        top = t[-1]
        t = [(c - top * f) % p for c, f in zip([0] + t[:-1], tail)]
        if t == one:
            return k
    return 0


def test_primitive_polynomial_is_the_smallest_full_order_tail():
    for p in filter(is_prime, range(2, 730)):
        s = 1
        while p**s <= 729:
            want = next(tail for tail in itertools.product(range(p), repeat=s)
                        if _order_of_x(list(tail), p) == p**s - 1)
            assert _primitive_polynomial(p, s) == want + (1,), (p, s)
            s += 1


def test_primitive_polynomial_matches_the_full_scan():
    # every prime p and degree s with p^s <= 2 * 10^4
    for p in filter(is_prime, range(2, 20001)):
        s = 1
        while p**s <= 20000:
            assert _primitive_polynomial(p, s) == primitive_polynomial_by_scan(p, s), (p, s)
            s += 1


@pytest.mark.parametrize("p, s, modulus", [
    (5, 8, (2, 0, 0, 0, 0, 0, 2, 1, 1)),
    (7, 6, (3, 0, 0, 0, 1, 1, 1)),
    (11, 5, (3, 0, 0, 1, 1, 1)),
])
def test_moduli_beyond_the_scan_oracle_are_pinned(p, s, modulus):
    # found by the full scan, which took 6-36 s on each of these
    assert construct_ring(p, 2, s).modulus == modulus


def test_search_tries_only_constant_terms_of_primitive_norm(monkeypatch):
    tried = []
    full_order = galois._x_has_full_order

    def spy(modulus, *args):
        tried.append(modulus)
        return full_order(modulus, *args)

    monkeypatch.setattr(galois, "_x_has_full_order", spy)
    # bypass the cache, which may already hold (5, 8)
    assert _primitive_polynomial.__wrapped__(5, 8) == (2, 0, 0, 0, 0, 0, 2, 1, 1)
    # 2 is the least primitive root mod 5; the full scan made 78137 tests
    assert len(tried) < 100
    assert {modulus[0] for modulus in tried} == {2}


# -- arithmetic -----------------------------------------------------------------

def test_z4_addition():
    z4 = construct_ring(2, 2, 1)
    assert z4.from_int(3) + z4.from_int(3) == z4.from_int(2)


def test_xi_order_in_gr42():
    spec = construct_ring(2, 2, 2)
    xi = spec.xi
    assert xi * xi * xi == spec.one()
    assert xi * xi != spec.one()


def test_subtraction_and_integer_coercion():
    spec = construct_ring(3, 2, 2)
    a, b = spec.element((4, 7)), spec.element((8, 2))
    assert a - b == spec.element((5, 5))
    assert (a - b) + b == a
    assert a + 3 == spec.element((7, 7)) == 3 + a
    assert a - 3 == spec.element((1, 7))


@pytest.mark.parametrize("p, r, s", [(2, 2, 2), (3, 2, 1)])
def test_from_index_inverts_index_over_the_whole_ring(p, r, s):
    spec = construct_ring(p, r, s)
    elements = list(spec.elements())
    assert len(elements) == len(set(elements)) == spec.size
    for k, a in enumerate(elements):
        assert a.index() == k and spec.from_index(a.index()) == a


def test_additive_identity():
    spec = construct_ring(3, 2, 2)
    for k in range(0, spec.size, 7):
        a = spec.from_index(k)
        assert a + spec.zero() == a


def test_mixed_spec_rejected():
    a = construct_ring(2, 2, 1).one()
    b = construct_ring(2, 2, 2).one()
    with pytest.raises(DomainError):
        a + b


@pytest.mark.parametrize("other", [True, False, 2.5], ids=["True", "False", "float"])
def test_arithmetic_refuses_a_bool_like_a_float(other):
    """Z4.one() + True used to give 2, True * Z4.one() to give 1."""
    x = construct_ring(2, 2, 1).one()
    for combine in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            combine(x, other)
        with pytest.raises(TypeError):
            combine(other, x)


def test_unit_counts():
    for args in SMALL_SPECS:
        spec = spec_of(args)
        p, r, s = args
        units = sum(1 for a in spec.elements() if is_unit(a))
        assert units == p**(r * s) - p**((r - 1) * s)


@given(st.sampled_from(SMALL_SPECS), st.data())
@settings(max_examples=60, deadline=None)
def test_ring_axioms_random(args, data):
    spec = spec_of(args)
    idx = st.integers(min_value=0, max_value=spec.size - 1)
    a = spec.from_index(data.draw(idx))
    b = spec.from_index(data.draw(idx))
    c = spec.from_index(data.draw(idx))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == spec.zero()


# -- Teichmuller digits ---------------------------------------------------------

def test_digit_examples():
    z4 = construct_ring(2, 2, 1)
    assert teichmuller_digits(z4.from_int(3)) == (z4.one(), z4.one())
    z9 = construct_ring(3, 2, 1)
    eight = z9.from_int(8)
    assert teichmuller_digits(z9.from_int(5)) == (eight, eight)
    spec = construct_ring(2, 3, 2)
    assert teichmuller_digits(spec.zero()) == (spec.zero(),) * 3


def test_teichmuller_set():
    """Exactly p^s elements t with t^(p^s) = t, closed under product."""
    for args in [(2, 2, 2), (3, 2, 1), (2, 3, 1), (5, 2, 1)]:
        spec = spec_of(args)
        q = spec.residue_size
        tset = {a for a in spec.elements() if a**q == a}
        assert len(tset) == q
        for a in tset:
            for b in tset:
                assert a * b in tset


def test_digits_are_bijective():
    for args in SMALL_SPECS:
        spec = spec_of(args)
        seen = set()
        for a in spec.elements():
            digits = teichmuller_digits(a)
            assert len(digits) == spec.r
            for d in digits:
                assert d**spec.residue_size == d
            assert from_teichmuller_digits(spec, digits) == a
            seen.add(digits)
        assert len(seen) == spec.size


def test_teichmuller_lift_fixes_residue():
    spec = construct_ring(3, 3, 2)
    for k in range(0, spec.size, 11):
        a = spec.from_index(k)
        t = teichmuller_lift(a)
        assert t**spec.residue_size == t
        assert t.residue() == a.residue()


# -- table lookups against the powering definitions --------------------------------

# every GR(p^r, s) with p in {2, 3, 5}, r <= 4 and p^s <= 729
TABLE_SPECS = [(p, r, s) for p, s_max in ((2, 9), (3, 6), (5, 4))
               for r in range(1, 5) for s in range(1, s_max + 1)]


def gr_id(args):
    return "GR(%d^%d,%d)" % args


def random_elements(spec, seed, n=4):
    rng = random.Random(seed)
    return [spec.element(rng.randrange(spec.char) for _ in range(spec.s)) for _ in range(n)]


@pytest.mark.parametrize("args", TABLE_SPECS, ids=gr_id)
def test_table_lift_digits_and_frobenius_match_powering(args):
    spec = spec_of(args)
    p, r, s = args
    for a in random_elements(spec, p * 100 + r * 10 + s) + [spec.zero(), spec.xi]:
        assert teichmuller_lift(a) == _lift_by_powering(a)
        digits = digits_by_powering(a)
        assert teichmuller_digits(a) == digits
        for k in range(s):
            want = from_teichmuller_digits(spec, [d**(p**k) for d in digits])
            assert generalized_frobenius(a, k) == want


@pytest.mark.parametrize("args", [a for a in TABLE_SPECS if a[2] > 1], ids=gr_id)
def test_table_embed_matches_powering(args):
    p, r, s = args
    big = spec_of(args)
    for d in range(1, s):
        if s % d:
            continue
        small = construct_ring(p, r, d)
        step = ((big.residue_size - 1) // (small.residue_size - 1)
                * _embedding_exponent(small, big))
        for a in random_elements(small, p * 1000 + r * 100 + s * 10 + d):
            want = from_teichmuller_digits(big, [
                big.zero() if t.is_zero() else big.xi**(small.dlog(t) * step)
                for t in digits_by_powering(a)])
            assert embed(a, big) == want
            assert unembed(want, small) == a


def test_untabulated_ring_refuses_every_table_operation():
    # GR(2^2, 22): the residue field, 2^22 elements, is above the table
    # bound, so every operation that reads the table refuses and none is built
    spec = construct_ring(2, 2, 22)
    assert spec.residue_size == 4194304 > _MAX_DLOG_TABLE == 2097152
    a = random_elements(spec, 22, n=1)[0]
    small = construct_ring(2, 2, 2)
    refused = [lambda: teichmuller_lift(a), lambda: teichmuller_digits(a),
               lambda: generalized_frobenius(a, 1), lambda: embed(small.xi, spec),
               lambda: unembed(a, small), lambda: spec.dlog(spec.one())]
    before = _teichmuller_table.cache_info()
    for call in refused:
        with pytest.raises(BoundExceededError, match="4194304 entries, above the bound 2097152"):
            call()
    after = _teichmuller_table.cache_info()
    # each refusal is a miss that caches nothing
    assert (after.currsize, after.misses) == (before.currsize, before.misses + len(refused))
    xi = spec.xi
    assert xi**(spec.residue_size - 1) == spec.one()
    assert xi.residue() == spec._x().residue()


@pytest.mark.parametrize("direction", ["embed", "unembed"])
def test_embedding_above_the_table_bound_refuses_before_caching(direction):
    # GR(2^2, 22) built apart, equal to the canonical ring; the exponent of
    # GR(2^2, 2) in it is never cached, because its table is always refused
    big = GaloisRingSpec(2, 2, 22, construct_ring(2, 2, 22).modulus)
    small = construct_ring(2, 2, 2)
    tables = _teichmuller_table.cache_info().currsize
    before = _embedding_exponent.cache_info()
    with pytest.raises(BoundExceededError, match="4194304 entries, above the bound 2097152"):
        if direction == "embed":
            embed(small.xi, big)
        else:
            unembed(big.one(), small)
    after = _embedding_exponent.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses + 1)
    assert _teichmuller_table.cache_info().currsize == tables


def test_embedding_exponent_is_found_once_per_pair_of_rings():
    small, big = construct_ring(3, 3, 2), construct_ring(3, 3, 4)
    j = _embedding_exponent(small, big)
    before = _embedding_exponent.cache_info()
    tables = _teichmuller_table(big)
    # an equal ring built apart shares the entries
    twin = GaloisRingSpec(3, 3, 4, big.modulus)
    assert _embedding_exponent(small, twin) == j
    assert unembed(embed(small.xi, big), small) == small.xi
    after = _embedding_exponent.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)
    assert _teichmuller_table(twin) is tables


def test_a_ring_on_another_modulus_is_another_ring():
    """x^2 + 2x + 2 is primitive over F_3 as well, but GR(3, 2) is built on
    x^2 + x + 2: the two rings differ and share no table, whichever is read
    first."""
    canonical = construct_ring(3, 1, 2)
    before = _teichmuller_table.cache_info()
    other = GaloisRingSpec(3, 1, 2, (2, 2, 1))
    table = _teichmuller_table(other)  # built on its first read, then kept
    assert _teichmuller_table(other) is table
    after = _teichmuller_table.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
    assert GaloisRingSpec.__slots__ == ("p", "r", "s", "modulus", "char", "size", "residue_size",
                                     "_key", "_hash")
    assert canonical.modulus == (2, 1, 1)
    assert other != canonical and canonical != other
    assert len({canonical, other}) == 2
    with pytest.raises(DomainError, match="mixed rings"):
        canonical.one() + other.one()
    assert _form_step(canonical, 1) == generalized_frobenius(canonical._x(), 1).coeffs == (2, 2)
    assert _form_step(other, 1) == generalized_frobenius(other._x(), 1).coeffs == (1, 2)
    for spec in (canonical, other):
        assert _teichmuller_table(spec) == _teichmuller_table.__wrapped__(spec)
        assert spec.xi**8 == spec.one() and spec.xi**4 != spec.one()
    assert _teichmuller_table(other) != _teichmuller_table(canonical)


# -- Frobenius -------------------------------------------------------------------

def test_frobenius_on_teichmuller_generator():
    spec = construct_ring(2, 2, 2)
    assert generalized_frobenius(spec.xi, 1) == spec.xi**2


def test_frobenius_periodicity_and_inverse():
    spec = construct_ring(3, 2, 2)
    for k in range(0, spec.size, 5):
        a = spec.from_index(k)
        assert generalized_frobenius(a, spec.s) == a
        assert generalized_frobenius(generalized_frobenius(a, 1), -1) == a


def test_conjugation_is_involutive():
    spec = construct_ring(2, 2, 2)
    half = spec.s // 2
    for a in spec.elements():
        assert generalized_frobenius(generalized_frobenius(a, half), half) == a


@given(st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 1, 3)]),
       st.integers(min_value=0, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_frobenius_is_a_homomorphism(args, k, data):
    spec = spec_of(args)
    idx = st.integers(min_value=0, max_value=spec.size - 1)
    a = spec.from_index(data.draw(idx))
    b = spec.from_index(data.draw(idx))
    assert (generalized_frobenius(a + b, k)
            == generalized_frobenius(a, k) + generalized_frobenius(b, k))
    assert (generalized_frobenius(a * b, k)
            == generalized_frobenius(a, k) * generalized_frobenius(b, k))


# -- embeddings ------------------------------------------------------------------

EMBED_PAIRS = [((2, 2, 1), (2, 2, 2)), ((2, 2, 1), (2, 2, 3)),
               ((3, 1, 1), (3, 1, 2)), ((3, 2, 2), (3, 2, 4)),
               ((2, 3, 1), (2, 3, 2)), ((2, 1, 2), (2, 1, 6)),
               ((5, 2, 1), (5, 2, 2)), ((2, 2, 2), (2, 2, 4)),
               ((2, 2, 3), (2, 2, 6))]


def test_embed_fixes_prime_subring():
    for small_args, big_args in EMBED_PAIRS:
        small, big = spec_of(small_args), spec_of(big_args)
        for k in range(small.char):
            assert embed(small.from_int(k), big) == big.from_int(k)


def test_embed_preserves_generator_order():
    for small_args, big_args in EMBED_PAIRS:
        small, big = spec_of(small_args), spec_of(big_args)
        image = embed(small.xi, big)
        assert image**(small.residue_size - 1) == big.one()
        # exact order, not merely a divisor
        for d in range(1, small.residue_size - 1):
            if (small.residue_size - 1) % d == 0 and d < small.residue_size - 1:
                assert image**d != big.one() or d == small.residue_size - 1 \
                    or small.residue_size - 1 == 1


def test_embed_is_injective_exhaustively():
    small, big = construct_ring(2, 2, 1), construct_ring(2, 2, 3)
    images = {embed(a, big) for a in small.elements()}
    assert len(images) == small.size


def test_embed_is_a_ring_homomorphism():
    """The image generator must be a conjugate of the source generator;
    a plain (q2-1)/(q1-1) power is not one in general (GR(9,2) in GR(9,4)
    is the smallest failing case) and would break additivity."""
    for small_args, big_args in EMBED_PAIRS:
        small, big = spec_of(small_args), spec_of(big_args)
        step = max(1, small.size // 120)
        pairs = [(small.from_index(i), small.from_index((i * 7 + 3) % small.size))
                 for i in range(0, small.size, step)]
        for a, b in pairs:
            assert embed(a + b, big) == embed(a, big) + embed(b, big)
            assert embed(a * b, big) == embed(a, big) * embed(b, big)


def test_embed_commutes_with_frobenius():
    small, big = construct_ring(3, 2, 2), construct_ring(3, 2, 4)
    for k in range(0, small.size, 7):
        a = small.from_index(k)
        assert embed(generalized_frobenius(a, 1), big) \
            == generalized_frobenius(embed(a, big), 1)


def test_unembed_round_trip():
    for small_args, big_args in EMBED_PAIRS:
        small, big = spec_of(small_args), spec_of(big_args)
        step = max(1, small.size // 150)
        for k in range(0, small.size, step):
            a = small.from_index(k)
            assert unembed(embed(a, big), small) == a


def test_unembed_rejects_outside_subring():
    small, big = construct_ring(2, 2, 1), construct_ring(2, 2, 2)
    with pytest.raises(InternalInvariantError):
        unembed(big.xi, small)


def test_embed_rejects_nondivisible_degree():
    a = construct_ring(2, 2, 2).one()
    with pytest.raises(DomainError, match=r"^degree 2 does not divide 3$"):
        embed(a, construct_ring(2, 2, 3))


@pytest.mark.parametrize("target", [(3, 2, 2), (2, 3, 2)], ids=["other-p", "other-r"])
def test_embed_rejects_another_characteristic(target):
    a = construct_ring(2, 2, 1).one()
    big = construct_ring(*target)
    with pytest.raises(DomainError, match=rf"^incompatible rings GR\(2\^2,1\) -> "
                                          rf"GR\({target[0]}\^{target[1]},2\)$"):
        embed(a, big)


def test_unembed_rejects_another_prime_and_a_nondivisible_degree():
    a = construct_ring(2, 2, 4).one()
    with pytest.raises(DomainError, match=r"^incompatible rings GR\(2\^2,4\) -> GR\(3\^2,2\)$"):
        unembed(a, construct_ring(3, 2, 2))
    with pytest.raises(DomainError, match=r"^degree 3 does not divide 4$"):
        unembed(a, construct_ring(2, 2, 3))


# -- roots of unity ----------------------------------------------------------------

def test_root_of_unity_examples():
    spec = construct_ring(2, 2, 2)
    assert root_of_unity(spec, 1) == spec.one()
    assert root_of_unity(spec, 3) == spec.xi
    z9 = construct_ring(3, 2, 1)
    assert root_of_unity(z9, 2) == z9.from_int(8)


def test_root_of_unity_has_exact_order():
    spec = construct_ring(2, 2, 4)
    for order in (1, 3, 5, 15):
        z = root_of_unity(spec, order)
        assert z**order == spec.one()
        for k in range(1, order):
            assert z**k != spec.one()


def test_root_of_unity_rejects_bad_order():
    with pytest.raises(DomainError):
        root_of_unity(construct_ring(2, 2, 2), 5)


# -- text formats -------------------------------------------------------------------

def test_ring_name_round_trip():
    spec = construct_ring(2, 2, 2)
    assert ring_name(spec) == "GR(2^2,2)"
    assert parse_ring_name("GR(2^2,2)") is spec
    with pytest.raises(DomainError):
        parse_ring_name("GF(4)")


def test_element_text_round_trip():
    spec = construct_ring(2, 2, 2)
    for a in spec.elements():
        assert parse_element(spec, element_text(a)) == a
    assert element_text(spec.from_int(3)) == "3,0"


def test_modulus_text():
    assert modulus_text(construct_ring(2, 2, 2)) == "x^2 + x + 1"
    assert modulus_text(construct_ring(2, 2, 1)) == "x + 1"

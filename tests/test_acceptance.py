"""Acceptance gate: eight headline checks, one printed verdict line each.

Every check pins a closed-form count or structural identity against an
independent oracle: socle-walk enumeration, decomposition enumeration,
or direct search.  All equalities are exact integers; nothing here is
tolerant.  Verdict lines go to the real stdout so they show up with or
without capture:

    criterion N PASS  <label>

The random suites use a fixed seed; the whole module is deterministic.
"""

import random
import time
from contextlib import contextmanager

import pytest

from galcodes import (AbelianGroup, DomainError, GroupRing, PairGoodness,
                      ambient, classify_pair, compose, construct_ring,
                      construct_self_dual, cyclic_count_p2,
                      decompose_euclidean, decompose_hermitian, dft,
                      enumerate_semisimple_selfdual, euclidean_abelian_count,
                      euclidean_cyclic_count_n, euclidean_cyclic_count_p2,
                      euclidean_semisimple_count, exists_self_dual,
                      exhaustive_bound, hermitian_cyclic_count_p2, idft,
                      involution, partition, sylow_decompose, sylow_merge,
                      sylow_split)
from galcodes.cyclotomic import TYPE_II, TYPE_III, TYPE_III_H, TYPE_II_H, TYPE_I
from galcodes.group_ring import DecomposedElement, conjugate_involution
from galcodes.groups import count_order_formula, element_order
from helpers import (abelian_groups_up_to, compose_nested, conjugate_involution_pairing,
                     count_order_direct, decompose_nested, decomposed_add, engine,
                     form_euclidean, form_hermitian, group_divisor_orders,
                     involution_pairing, shift)

SEED = 20260819


@pytest.fixture
def criterion(capsys):
    """One verdict line per criterion on the real terminal, pass or fail; the
    original exception still reaches pytest."""
    @contextmanager
    def gate(num: int, label: str):
        def report(ok: bool) -> None:
            with capsys.disabled():
                print(f"criterion {num} {'PASS' if ok else 'FAIL'}  {label}",
                      flush=True)
        try:
            yield
        except BaseException:
            report(False)
            raise
        report(True)
    return gate


# -- 1: total ideal counts ---------------------------------------------------------

def test_criterion_1_ideal_count_oracle(criterion):
    cases = [((2, 1, 1), 7), ((2, 1, 2), 23), ((3, 1, 1), 16), ((2, 2, 1), 9)]
    with criterion(1, "socle-walk ideal counts match the cyclic p^a formula"):
        for (p, s, a), expected in cases:
            start = time.monotonic()
            found = len(engine(p, 2, s, (p**a,)).enumerate_ideals())
            elapsed = time.monotonic() - start
            assert found == expected, (p, s, a, found)
            assert cyclic_count_p2(p, s, a) == expected
            assert elapsed < 10.0, (p, s, a, elapsed)


# -- 2: Euclidean self-dual counts -------------------------------------------------

def test_criterion_2_euclidean_selfdual_counts(criterion):
    cases = [((2, 1, 1), 1), ((2, 1, 2), 3), ((3, 1, 1), 2)]
    with criterion(2, "exhaustive Euclidean self-dual counts match the closed form"):
        for (p, s, a), expected in cases:
            found = engine(p, 2, s, (p**a,)).count_self_dual("euclidean")
            assert found == expected, (p, s, a, found)
            assert euclidean_cyclic_count_p2(p, s, a) == expected


# -- 3: Hermitian self-dual count --------------------------------------------------

def test_criterion_3_hermitian_selfdual_count(criterion):
    with criterion(3, "exhaustive Hermitian self-dual count over GR(4,2)[Z2] matches"):
        found = engine(2, 2, 2, (2,)).count_self_dual("hermitian")
        assert found == 3
        assert hermitian_cyclic_count_p2(2, 2, 1) == 3


# -- 4: semisimple enumeration -----------------------------------------------------

def test_criterion_4_semisimple_enumeration(criterion):
    with criterion(4, "semisimple counts match materialized families and search"):
        # Z4[Z7]: closed form = 3 = componentwise family = exhaustive search,
        # and the materialized representatives are exactly the found ideals.
        z7 = AbelianGroup((7,))
        assert euclidean_semisimple_count(2, 2, 1, z7).count == 3
        family = enumerate_semisimple_selfdual(2, 2, 1, z7)
        assert family.count == 3
        eng = engine(2, 2, 1, (7,))
        materialized = set()
        for gens in family.representatives:
            code = eng.zero_ideal()
            for g in gens:
                code = eng.join(code, eng.principal_ideal(g))
            assert eng.is_self_dual(code)
            materialized.add(code)
        assert len(materialized) == 3
        assert {c for c in eng.ideal_stream() if eng.is_self_dual(c)} == materialized

        # Z9[Z2], 81 elements
        z2 = AbelianGroup((2,))
        assert euclidean_semisimple_count(3, 2, 1, z2).count == 1
        assert engine(3, 2, 1, (2,)).count_self_dual() == 1

        # odd nilpotency degree: no self-dual codes, closed form and search agree
        for p, r, factors in ((3, 1, (2,)), (2, 3, (3,))):
            assert euclidean_semisimple_count(p, r, 1, AbelianGroup(factors)).count == 0
            assert engine(p, r, 1, factors).count_self_dual() == 0
        for r in (1, 3, 5):
            for factors in ((3,), (5,), (7,), (3, 3)):
                assert euclidean_semisimple_count(2, r, 1, AbelianGroup(factors)).count == 0


# -- 5: product formula on a mixed group --------------------------------------------

def test_criterion_5_general_count_stretch(criterion):
    with criterion(5, "product-formula count equals exhaustive count over Z4[Z6]"):
        report = euclidean_abelian_count(2, 2, 1, AbelianGroup((3,)),
                                         AbelianGroup((2,)), "closed")
        start = time.monotonic()
        brute = engine(2, 2, 1, (6,)).count_self_dual()
        elapsed = time.monotonic() - start
        assert report.count == 3
        assert brute == 3
        assert euclidean_cyclic_count_n(2, 1, 6).count == 3
        assert elapsed < 60.0, elapsed


# -- 6: existence sweep --------------------------------------------------------------

def test_criterion_6_existence_sweep(criterion):
    label = "existence predicate, exhaustive search, and construction agree"
    with criterion(6, label):
        bound = exhaustive_bound()
        searched = 0
        for p in (2, 3, 5):
            for r in (1, 2, 3):
                for grp in abelian_groups_up_to(8):
                    predicted = exists_self_dual(p, r, grp)
                    if p**(r * grp.order) <= bound:
                        eng = engine(p, r, 1, grp.factors)
                        found = any(eng.is_self_dual(c) for c in eng.ideal_stream())
                        assert found == predicted, (p, r, grp)
                        searched += 1
                    if predicted:
                        built = construct_self_dual(p, r, 1, grp)
                        assert built.generators
                        if built.ideal is not None:
                            assert built.ideal.engine.is_self_dual(built.ideal), (p, r, grp)
                    else:
                        with pytest.raises(DomainError):
                            construct_self_dual(p, r, 1, grp)
        # every in-bound instance was actually searched
        assert searched == 60, searched


# -- 7: property suites --------------------------------------------------------------

# (p, r, s, factors) with |A| coprime to p; used for DFT and decompositions.
HERMITIAN_CONFIGS = [
    (2, 1, 2, (5,)),
    (2, 2, 2, (3,)),
    (3, 1, 2, (8,)),
    (2, 2, 2, (15,)),
    (2, 1, 2, (9,)),
    (2, 2, 2, (5,)),
    (3, 1, 2, (4,)),
    (2, 1, 2, (3, 3)),
    (3, 2, 2, (5,)),
    (5, 1, 2, (3,)),
]
EUCLIDEAN_CONFIGS = HERMITIAN_CONFIGS + [
    (2, 2, 1, (3,)),
    (2, 2, 1, (7,)),
    (3, 2, 1, (8,)),
    (5, 1, 1, (4,)),
    (2, 3, 1, (5,)),
]

# (p, r, s, factors) with mixed group order: both Sylow parts nontrivial.
SPLIT_CONFIGS = [
    (2, 1, 1, (6,)),
    (2, 2, 1, (6,)),
    (2, 1, 1, (12,)),
    (2, 1, 2, (6,)),
    (3, 1, 1, (6,)),
    (3, 2, 1, (12,)),
    (2, 3, 1, (10,)),
    (5, 1, 1, (10,)),
    (2, 1, 1, (2, 6)),
    (3, 1, 1, (3, 4)),
    (2, 2, 1, (2, 2, 3)),
]

# engines small enough to enumerate completely for the duality checks
DUALITY_CONFIGS = [
    (2, 2, 1, (2,)),
    (2, 2, 1, (4,)),
    (3, 2, 1, (3,)),
    (2, 2, 2, (2,)),
    (2, 1, 1, (7,)),
    (2, 3, 1, (2,)),
    (2, 1, 1, (2, 2)),
    (2, 1, 2, (3,)),
]

PAIRS_PER_CONFIG = 100


def _random_pairs(ring, rng, count=PAIRS_PER_CONFIG):
    return [(ring.random_element(rng), ring.random_element(rng))
            for _ in range(count)]


def _check_sylow_isomorphism(rng):
    for p, r, s, factors in SPLIT_CONFIGS:
        ring = GroupRing(construct_ring(p, r, s), AbelianGroup(factors))
        dec = sylow_decompose(ring.group, p)
        assert dec.p_part.order > 1 and dec.coprime_part.order > 1, factors
        for x, u in _random_pairs(ring, rng):
            xs, us = sylow_split(x, dec), sylow_split(u, dec)
            assert sylow_merge(xs, dec) == x
            assert xs * us == sylow_split(x * u, dec)
            assert xs + us == sylow_split(x + u, dec)


def _check_dft_isomorphism(rng):
    for p, r, s, factors in EUCLIDEAN_CONFIGS:
        spec = construct_ring(p, r, s)
        group = AbelianGroup(factors)
        ring = GroupRing(spec, group)
        ctx = ambient(spec, group)
        for x, u in _random_pairs(ring, rng):
            fx, fu = dft(x, ctx), dft(u, ctx)
            prod = dft(x * u, ctx)
            assert all(prod[h] == fx[h] * fu[h]
                       for h in group.elements())
            total = dft(x + u, ctx)
            assert all(total[h] == fx[h] + fu[h]
                       for h in group.elements())
            assert idft(fx, ctx) == x


def _check_component_isomorphism(rng, configs, decompose):
    for p, r, s, factors in configs:
        spec = construct_ring(p, r, s)
        group = AbelianGroup(factors)
        ring = GroupRing(spec, group)
        ctx = ambient(spec, group)
        for x, u in _random_pairs(ring, rng):
            dx, du = decompose(x, ctx), decompose(u, ctx)
            assert dx.multiply(du) == decompose(x * u, ctx)
            assert decomposed_add(dx, du) == decompose(x + u, ctx)
            assert compose(dx) == x


def _check_duality_exhaustive():
    for p, r, s, factors in DUALITY_CONFIGS:
        eng = engine(p, r, s, factors)
        size = eng.ring_size
        forms = ("euclidean", "hermitian") if s % 2 == 0 else ("euclidean",)
        for form in forms:
            for code in eng.enumerate_ideals():
                dual = eng.dual(code, form)
                assert eng.dual(dual, form) == code, (p, r, s, factors, form)
                assert code.size * dual.size == size


def _check_class_type_facts():
    # (p, s) with p^s in {2, 3, 4, 8, 9}
    for p, s in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2)):
        q = p**s
        half = p**(s // 2)
        for grp in abelian_groups_up_to(100):
            if grp.order % p == 0 and grp.order > 1:
                continue
            exponent = max(grp.exponent, 1)
            for cls in partition(grp, q).classes:
                rep, nu = cls.rep, cls.cardinality
                if cls.euclidean_type == TYPE_I:
                    assert nu == 1 and grp.neg(rep) == rep
                if rep == grp.identity:
                    assert cls.euclidean_type == TYPE_I
                    if s % 2 == 0:
                        assert cls.hermitian_type == TYPE_II_H
                if cls.euclidean_type == TYPE_II:
                    assert nu % 2 == 0
                    k = pow(p, s * (nu // 2), exponent)
                    assert grp.neg(rep) == grp.scale(k, rep)
                if s % 2 == 0 and cls.hermitian_type == TYPE_II_H:
                    assert nu % 2 == 1
                    k = pow(p, s * nu // 2, exponent)
                    assert grp.neg(rep) == grp.scale(k, rep)
                    k = pow(p, s * (nu + 1) // 2, exponent)
                    assert grp.neg(grp.scale(half, rep)) == grp.scale(k, rep)
                # pair goodness controls which paired types occur
                j = element_order(grp, rep)
                bad = classify_pair(j, q) is PairGoodness.BAD
                assert (cls.euclidean_type == TYPE_III) == bad
                if s % 2 == 0 and rep != grp.identity:
                    oddly = classify_pair(j, half) is PairGoodness.ODDLY_GOOD
                    assert (cls.hermitian_type == TYPE_III_H) == (not oddly)


def _check_order_count_formula():
    for grp in abelian_groups_up_to(256):
        for d in group_divisor_orders(grp):
            assert count_order_formula(grp, d) == count_order_direct(grp, d), grp


def test_criterion_7_property_suites(criterion):
    label = ("isomorphism, duality, class-type, and order-count property suites")
    with criterion(7, label):
        rng = random.Random(SEED)
        _check_sylow_isomorphism(rng)
        _check_dft_isomorphism(rng)
        _check_component_isomorphism(rng, EUCLIDEAN_CONFIGS, decompose_euclidean)
        _check_component_isomorphism(rng, HERMITIAN_CONFIGS, decompose_hermitian)
        _check_duality_exhaustive()
        _check_class_type_facts()
        _check_order_count_formula()


# -- 8: componentwise orthogonality criterion ----------------------------------------

ORTHO_EUCLIDEAN = [
    (2, 2, 1, (6,)),
    (2, 1, 1, (14,)),
    (3, 2, 1, (6,)),
    (2, 3, 1, (12,)),
    (5, 1, 1, (10,)),
]
ORTHO_HERMITIAN = [
    (2, 2, 2, (6,)),
    (2, 1, 2, (10,)),
    (2, 2, 2, (20,)),
    (3, 1, 2, (12,)),
    (2, 1, 2, (18,)),
]


def _shift_components(d: DecomposedElement, t) -> DecomposedElement:
    """Componentwise image of the outer shift by t: each slot shifts in step."""
    return DecomposedElement(
        d.context, d.pairing,
        {i: shift(v, t) for i, v in d.singles.items()},
        {i: (shift(a, t), shift(b, t)) for i, (a, b) in d.pairs.items()})


def _euclidean_slots_orthogonal(parts, xd, ud) -> bool:
    singles, pairs = parts.layout("euclidean")
    for i in singles:
        form = (form_hermitian if parts.classes[i].euclidean_type == TYPE_II
                else form_euclidean)
        if not form(xd.singles[i], ud.singles[i]).is_zero():
            return False
    for i, _ in pairs:
        x1, x2 = xd.pairs[i]
        u1, u2 = ud.pairs[i]
        if not form_euclidean(x1, u2).is_zero():
            return False
        if not form_euclidean(x2, u1).is_zero():
            return False
    return True


def _hermitian_slots_orthogonal(parts, xd, ud) -> bool:
    singles, pairs = parts.layout("hermitian")
    for i in singles:
        if not form_hermitian(xd.singles[i], ud.singles[i]).is_zero():
            return False
    for i, _ in pairs:
        x1, x2 = xd.pairs[i]
        u1, u2 = ud.pairs[i]
        if not form_euclidean(x1, u2).is_zero():
            return False
        if not form_euclidean(x2, u1).is_zero():
            return False
    return True


def _zeroed_orthogonal_pair(rng, ctx, pairing, xd, ud):
    """Force the slot conditions by zeroing one side of every slot."""
    singles, pairs = ctx.parts.layout(pairing)
    sx, su = dict(xd.singles), dict(ud.singles)
    px = {i: list(v) for i, v in xd.pairs.items()}
    pu = {i: list(v) for i, v in ud.pairs.items()}
    for i in singles:
        if rng.random() < 0.5:
            sx[i] = sx[i].ring.zero()
        else:
            su[i] = su[i].ring.zero()
    for i, _ in pairs:
        if rng.random() < 0.5:
            px[i][0] = px[i][0].ring.zero()
        else:
            pu[i][1] = pu[i][1].ring.zero()
        if rng.random() < 0.5:
            px[i][1] = px[i][1].ring.zero()
        else:
            pu[i][0] = pu[i][0].ring.zero()
    make = lambda s, p: DecomposedElement(ctx, pairing, s,
                                          {i: tuple(v) for i, v in p.items()})
    return make(sx, px), make(su, pu)


def _check_orthogonality_criterion(rng, configs, pairing, pairing_fn, slots_ok):
    for p, r, s, factors in configs:
        spec = construct_ring(p, r, s)
        group = AbelianGroup(factors)
        ring = GroupRing(spec, group)
        dec = sylow_decompose(group, p)
        assert dec.p_part.order > 1 and dec.coprime_part.order > 1, factors
        ctx = ambient(spec, dec.coprime_part)
        parts = ctx.parts
        shifts = dec.p_part.elements()
        for x, u in _random_pairs(ring, rng):
            xs, us = sylow_split(x, dec), sylow_split(u, dec)
            xd = decompose_nested(xs, ctx, pairing)
            ud = decompose_nested(us, ctx, pairing)
            vanished, satisfied = [], []
            for t in shifts:
                lhs = pairing_fn(xs, shift(us, t)).is_zero()
                rhs = slots_ok(parts, xd, _shift_components(ud, t))
                assert lhs == rhs, (p, r, s, factors, t)
                vanished.append(lhs)
                satisfied.append(rhs)
            assert all(vanished) == all(satisfied)
        # forced positives: zero out one side of every slot, so the
        # componentwise conditions hold for every shift and the pairing
        # must vanish identically
        for _ in range(10):
            xd0 = decompose_nested(
                sylow_split(ring.random_element(rng), dec), ctx, pairing)
            ud0 = decompose_nested(
                sylow_split(ring.random_element(rng), dec), ctx, pairing)
            xz, uz = _zeroed_orthogonal_pair(rng, ctx, pairing, xd0, ud0)
            xs2 = compose_nested(xz, dec.p_part)
            us2 = compose_nested(uz, dec.p_part)
            for t in shifts:
                assert slots_ok(parts, xz, _shift_components(uz, t))
                assert pairing_fn(xs2, shift(us2, t)).is_zero()
            mx, mu = sylow_merge(xs2, dec), sylow_merge(us2, dec)
            inv = involution if pairing == "euclidean" else conjugate_involution
            assert (mx * inv(mu)).is_zero()


def test_criterion_8_orthogonality_componentwise(criterion):
    label = "pairing vanishes for all shifts iff componentwise conditions hold"
    with criterion(8, label):
        rng = random.Random(SEED + 8)
        _check_orthogonality_criterion(rng, ORTHO_EUCLIDEAN, "euclidean",
                                       involution_pairing,
                                       _euclidean_slots_orthogonal)
        _check_orthogonality_criterion(rng, ORTHO_HERMITIAN, "hermitian",
                                       conjugate_involution_pairing,
                                       _hermitian_slots_orthogonal)

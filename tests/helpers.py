"""Shared test utilities: group generation, engine construction, oracles.

The oracles are the slow definitions that the library's fast paths
replaced; they live here because only tests call them.
"""

import itertools
import math
from functools import lru_cache
from operator import mul

from galcodes import AbelianGroup, construct_ring, exists_self_dual
from galcodes.cyclotomic import (TYPE_I, TYPE_II, TYPE_II_H, TYPE_III, TYPE_III_H,
                                 ClassPartition, CyclotomicClass, PairGoodness)
from galcodes.errors import DomainError
from galcodes.galois import (GaloisRingElement, GaloisRingSpec, _lift_by_powering,
                             _x_has_full_order, generalized_frobenius, unembed)
from galcodes.group_ring import (AmbientDecomposition, DecomposedElement, GroupRing,
                                 GroupRingElement, _block_steps, _decompose, _shift_perms, _slots,
                                 ambient, compose, conjugate, conjugate_involution, dft, idft,
                                 involution, sylow_merge)
from galcodes.groups import element_order, order_census, sylow_decompose
from galcodes.ideals import (EUCLIDEAN, MAX_REPRESENTATIVES, ExhaustiveGroupRing, Ideal,
                             _line_projectors, _pairing_twist, _radical_rows, exhaustive_bound)
from galcodes.linalg import howell, remainder
from galcodes.numth import factorize, multiplicative_order, prime_power_split


def partitions(n: int):
    """All integer partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    def rec(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def abelian_groups_of_order(n: int):
    """Every abelian group of order n, one per isomorphism class.

    Factor lists are built per prime from exponent partitions, so Z6 shows
    up as (2, 3) rather than (6,); the isomorphism class is what matters.
    """
    if n == 1:
        yield AbelianGroup(())
        return
    per_prime = []
    for p, e in factorize(n):
        per_prime.append([tuple(p**k for k in part) for part in partitions(e)])
    def rec(i):
        if i == len(per_prime):
            yield ()
            return
        for head in per_prime[i]:
            for tail in rec(i + 1):
                yield head + tail
    for factors in rec(0):
        yield AbelianGroup(factors)


def abelian_groups_up_to(bound: int):
    for n in range(1, bound + 1):
        yield from abelian_groups_of_order(n)


def engine(p: int, r: int, s: int, factors: tuple, bound: int | None = None):
    """The engine of GR(p^r, s)[factors], cached per ring and bound.  A
    bound of None is read from the environment before the cache is
    asked, so a cached engine never carries a stale bound."""
    return _cached_engine(p, r, s, factors, exhaustive_bound() if bound is None else bound)


@lru_cache(maxsize=None)
def _cached_engine(p: int, r: int, s: int, factors: tuple, bound: int):
    ring = GroupRing(construct_ring(p, r, s), AbelianGroup(factors))
    return ExhaustiveGroupRing(ring, bound)


# -- ideal enumeration oracles ----------------------------------------------------

def perms_by_group_add(eng):
    """For each g, the digit permutation of multiplication by Y^g, built
    from group addition and an index lookup per pair (g, h): the oracle
    for the engine's index arithmetic."""
    elems = eng.group.elements()
    index = {g: i for i, g in enumerate(elems)}
    s = eng.s
    perms = []
    for g in elems:
        perm = [0] * eng.n
        for i, h in enumerate(elems):
            target = index[eng.group.add(h, g)]
            for j in range(s):
                perm[target * s + j] = i * s + j
        perms.append(tuple(perm))
    return tuple(perms)


def ideals_by_full_scan(eng):
    """Every ideal by the definition: the principal ideal of every ring
    element in encoding order, then joins of every pair of found ideals
    until nothing new appears.  Returns the Howell bases as two lists:
    the principal ideals in order of first appearance, then the rest."""
    seen = set()
    found = []
    for k in range(eng.ring_size):
        ideal = eng.principal_ideal(eng.decode_vector(k))
        if ideal.basis not in seen:
            seen.add(ideal.basis)
            found.append(ideal)
    principal = len(found)
    i = 0
    while i < len(found):
        a = found[i]
        i += 1
        for j in range(len(found)):
            joined = eng.join(a, found[j])
            if joined.basis not in seen:
                seen.add(joined.basis)
                found.append(joined)
    bases = [c.basis for c in found]
    return bases[:principal], bases[principal:]


def ideals_by_principal_joins(eng, principal):
    """The join closure without the coset rule: each found ideal, in order
    of discovery, joined with every principal ideal, the principal ideals
    (Howell bases, in scan order) coming first.  The oracle for the order
    in which ideals_by_orbit_scan yields its bases."""
    principal = [Ideal(eng, basis) for basis in principal]
    seen = {c.basis for c in principal}
    found = list(principal)
    for a in found:
        for b in principal:
            joined = eng.join(a, b)
            if joined.basis not in seen:
                seen.add(joined.basis)
                found.append(joined)
    return [c.basis for c in found]


def ideals_by_orbit_scan(eng):
    """Every ideal once, by the orbit-pruned scan and the coset closure:
    the enumeration that the socle walk replaced.

    The scan takes the principal ideal of v, in encoding order, only when
    no u * Y^g * v (u a unit of Z_{p^r}) has a smaller encoding, since an
    orbit spans one ideal; digits are compared from the most significant
    down.  The closure then joins each found ideal a, in order of
    discovery, with each principal ideal (v) whose Howell remainder by a is
    nonzero and new for a, since a + (v) depends only on the coset v + a.
    Yields the ideals in that order, refusing rings above the bound.
    """
    eng._require_enumerable()
    m, top = eng.m, range(eng.n - 1, -1, -1)
    units = [u for u in range(1, m) if u % eng.p]
    # the first pair is (Y^0, 1), which fixes every vector
    moves = [(perm, u) for perm in _shift_perms(eng.group.factors, eng.s) for u in units][1:]

    def orbit_least(vec):
        for perm, u in moves:
            for i in top:
                a = u * vec[perm[i]] % m
                if a != vec[i]:
                    if a < vec[i]:
                        return False
                    break
        return True

    seen = set()
    principal = []
    # product walks the digits most significant first: reversed, its
    # tuples come in encoding order
    for digits in itertools.product(range(m), repeat=eng.n):
        vec = digits[::-1]
        if not orbit_least(vec):
            continue
        ideal = eng.principal_ideal(vec)
        if ideal.basis not in seen:
            seen.add(ideal.basis)
            principal.append((vec, ideal))
            yield ideal
    found = [ideal for _, ideal in principal]
    for a in found:  # found grows as the loop runs
        cosets = set()
        for vec, b in principal:
            rem = remainder(a.basis, vec, m)
            if rem in cosets or not any(rem):
                continue
            cosets.add(rem)
            joined = eng.join(a, b)
            if joined.basis not in seen:
                seen.add(joined.basis)
                found.append(joined)
                yield joined


def socle_layer_by_two_kernels(eng, code):
    """ExhaustiveGroupRing._socle_layer without the walk's dict of
    annihilators: both annihilators, of I and of J * I^perp, taken afresh.
    The oracle for the dict, which stores each pair it takes both ways."""
    radical = _radical_rows(eng.spec, eng.group.factors, eng._annihilator(code.basis, 0))
    return eng._annihilator(radical, 0)


def fp_points(eng, code):
    """One vector per F_p-projective point of S(I)/I, the cover candidates
    of the walk before it took one vector per simple submodule.

    The rows of S(I) that leave the span of I and the rows already taken
    form an F_p-basis; a point is sum c_i * b_i for each coefficient tuple
    whose first nonzero entry is 1, the tuples in itertools.product order.
    """
    p, r, m = eng.p, eng.r, eng.m
    span, chosen = code.basis, []
    for row in socle_layer_by_two_kernels(eng, code):
        if any(remainder(span, row, m)):
            chosen.append(row)
            span = howell(span + (row,), p, r)
    for coeffs in itertools.product(range(p), repeat=len(chosen)):
        if next((c for c in coeffs if c), 0) != 1:
            continue  # zero, or a multiple of another point
        vec = (0,) * eng.n
        for c, row in zip(coeffs, chosen):
            if c:
                vec = tuple((a + c * b) % m for a, b in zip(vec, row))
        yield vec


def stream_by_fp_points(eng):
    """The socle walk that joins each found ideal with the principal ideal
    of every F_p-point of its socle layer (fp_points), yielding each new
    join: the walk that one cover per simple submodule replaced.  It joins
    once per point, so it is exponential in the F_p-dimension of S(I)/I."""
    eng._require_enumerable()
    zero = eng.zero_ideal()
    seen = {zero.basis}
    found = [zero]
    yield zero
    for ideal in found:  # found grows as the loop runs
        for vec in fp_points(eng, ideal):
            cover = eng.join(ideal, eng.principal_ideal(vec))
            if cover.basis not in seen:
                seen.add(cover.basis)
                found.append(cover)
                yield cover


def line_bases_by_full_scan(eng, code):
    """The line bases of ExhaustiveGroupRing._line_bases, each picked by
    scanning every row x^j * Y^g * lead and keeping those that leave the
    span: the greedy basis before it stopped at the line's dimension."""
    p, r, m = eng.p, eng.r, eng.m
    socle = socle_layer_by_two_kernels(eng, code)
    span, summands = code.basis, []
    for columns, _ in _line_projectors(eng.ring):
        bases = []
        for row in socle:
            lead = tuple(sum(map(mul, row, col)) % m for col in columns)
            if not any(remainder(span, lead, m)):
                continue
            basis = []
            for mono in eng.principal_rows(lead):
                if any(remainder(span, mono, m)):
                    basis.append(mono)
                    span = howell(span + (mono,), p, r)
            bases.append(basis)
        summands.append(bases)
    return summands


def kernel_by_full_howell(mat, p, r):
    """Howell basis of the left kernel of mat over Z_{p^r}, read off the full
    Howell form of [mat | I_n]: the I_n parts of its rows whose mat part is
    zero.  The oracle for linalg.kernel, which sweeps mat's columns only."""
    n, k = len(mat), len(mat[0])
    zeros = [0] * n
    rows = [[*row, *zeros] for row in mat]
    for i, row in enumerate(rows):
        row[k + i] = 1
    return tuple(row[k:] for row in howell(rows, p, r) if not any(row[:k]))


def annihilator_by_full_howell(eng, rows, h):
    """ExhaustiveGroupRing._annihilator with its n x k form matrix built
    row by row, each matrix row the i-th block step of every row in turn,
    and its kernel read off the full Howell form."""
    mats = [_block_steps(eng.spec, h, row) for row in rows]
    matrix = [[d for mat in mats for d in mat[i]] for i in range(eng.n)]
    return kernel_by_full_howell(matrix, eng.p, eng.r)


def minimal_ideals(ideals):
    """The ideals of the collection that contain no other one of it."""
    ideals = set(ideals)

    def inside(a, b):
        return not any(any(remainder(b.basis, row, b.engine.m)) for row in a.basis)

    return {b for b in ideals if not any(a != b and inside(a, b) for a in ideals)}


def howell_saturating_takeovers(rows, p, r):
    """Howell form over Z_{p^r} by a stack of rows reduced into pivot slots,
    pushing a row's p^(r-e) saturation multiple both when it fills an empty
    slot and when it takes over an occupied one.  The oracle for
    linalg.howell's column sweep."""
    m = p**r
    stack = [list(row) for row in rows if any(row)]
    if not stack:
        return ()
    n = len(stack[0])
    pivots: list = [None] * n
    while stack:
        row = stack.pop()
        c = 0
        while c < n and not row[c]:
            c += 1
        if c == n:
            continue
        v = row[c]
        e = 0
        while v % p == 0:
            v //= p
            e += 1
        if v != 1:
            u = pow(v, -1, m)
            row = [a * u % m for a in row]
        cur = pivots[c]
        if cur is None or row[c] < cur[c]:
            pivots[c] = row
            if e:
                extra = [a * p**(r - e) % m for a in row]
                if any(extra):
                    stack.append(extra)
            if cur is None:
                continue
            row, cur = cur, row
        q = row[c] // cur[c]
        new = [(a - q * b) % m for a, b in zip(row, cur)]
        if any(new):
            stack.append(new)
    out = [pivots[c] for c in range(n) if pivots[c] is not None]
    cols = [next(i for i, a in enumerate(row) if a) for row in out]
    for k in range(len(out)):
        lead = out[k][cols[k]]
        for j in range(k):
            q = out[j][cols[k]] // lead
            if q:
                out[j] = [(a - q * b) % m for a, b in zip(out[j], out[k])]
    return tuple(tuple(row) for row in out)


def orbit_least_vectors(eng):
    """The least-encoded vector of each orbit of Z_{p^r}^x x G acting by
    u * Y^g, in encoding order, found by marking every orbit in full."""
    units = [u for u in range(1, eng.m) if u % eng.p]
    perms = perms_by_group_add(eng)
    marked = set()
    least = []
    for k in range(eng.ring_size):
        if k in marked:
            continue
        vec = eng.decode_vector(k)
        least.append(vec)
        for perm in perms:
            shifted = [vec[i] for i in perm]
            for u in units:
                marked.add(eng.encode_vector([u * d % eng.m for d in shifted]))
    return least


# -- ring elements -----------------------------------------------------------------

def is_unit(a: GaloisRingElement) -> bool:
    """A Galois-ring element is a unit iff its residue mod p is nonzero."""
    return any(c % a.spec.p for c in a.coeffs)


def from_coeff_list(ring: GroupRing, cs) -> GroupRingElement:
    """The element whose coefficients, in the lexicographic order of the
    group elements, are cs."""
    elems = ring.group.elements()
    cs = list(cs)
    if len(cs) != len(elems):
        raise DomainError(f"expected {len(elems)} coefficients, got {len(cs)}")
    return ring.element(dict(zip(elems, cs)))


def primitive_polynomial_by_scan(p: int, s: int) -> tuple[int, ...]:
    """The smallest primitive monic polynomial by the full scan: every
    coefficient tuple with a nonzero constant term, lowest degree first,
    in lexicographic order, each given the order test of x.  The oracle
    for the search that skips constant terms whose norm is not a
    primitive root."""
    prime_divs = tuple(q for q, _ in factorize(p**s - 1)) if p**s > 2 else ()
    for tail in itertools.product(range(p), repeat=s):
        if tail[0] == 0:
            continue
        modulus = tail + (1,)
        if _x_has_full_order(modulus, p, s, prime_divs):
            return modulus
    raise AssertionError(f"no primitive polynomial of degree {s} over F_{p}")


def digits_by_powering(a):
    """Teichmuller digits by their definition, the oracle for the table
    lookups: a_0 is the powering lift of a mod p and the recursion
    continues on (a - a_0) / p."""
    spec = a.spec
    p, m = spec.p, spec.char
    digits = []
    cur = a
    for _ in range(spec.r):
        d = _lift_by_powering(cur)
        digits.append(d)
        cur = GaloisRingElement(spec, tuple((x - y) % m // p for x, y in zip(cur.coeffs, d.coeffs)))
    return tuple(digits)


def from_teichmuller_digits(spec, digits):
    """sum(a_i * p^i) over the digits a_i."""
    acc = spec.zero()
    for i, d in enumerate(digits):
        acc = acc + d * spec.p**i
    return acc


def dual_by_scan(eng, code, form=EUCLIDEAN):
    """The dual from its definition, by scanning every ring element w.

    w is kept when form(u, w) = sum_g u_g * y(w_g) vanishes for each basis
    row u of the code, y the identity (Euclidean) or the order-2 Frobenius
    (Hermitian).  The form is Z_{p^r}-linear in w, so digit d of form(u, w)
    is the dot product of w with the digits d of form(u, e_i), taken here
    with Galois-ring arithmetic.
    """
    spec, s = eng.spec, eng.s
    ys = []
    for j in range(s):
        xj = spec.element(tuple(int(k == j) for k in range(s)))
        ys.append(xj if form == EUCLIDEAN else generalized_frobenius(xj, s // 2))
    cols = []
    for u in code.basis:
        blocks = [spec.element(u[g * s:(g + 1) * s]) for g in range(eng.group.order)]
        cols.extend(zip(*[(b * y).coeffs for b in blocks for y in ys]))
    rows = [w for w in map(eng.decode_vector, range(eng.ring_size))
            if all(sum(map(mul, w, col)) % eng.m == 0 for col in cols)]
    return eng.ideal_from_rows(rows)


def compose_ints_by_transform(ctx, pairing, singles, pairs):
    """Integer components pulled back to GR[A] through compose, the oracle
    for sums of class idempotents: singles[i] at single slot i, the pair
    pairs[i] at pair slot i, zero at every slot not listed."""
    single_idx, pair_idx = ctx.parts.layout(pairing)

    def at(i, value):
        return ctx.component_spec(ctx.parts.classes[i].cardinality).from_int(value)

    return compose(DecomposedElement(
        ctx, pairing, {i: at(i, singles.get(i, 0)) for i in single_idx},
        {i: tuple(at(i, v) for v in pairs.get(i, (0, 0))) for i, _ in pair_idx}))


def construct_by_nested_assembly(p, r, s, group, form=EUCLIDEAN):
    """Generators of the odd-r self-dual construction, assembled over P.

    With G = A + P and r = 2r' - 1, the componentwise generators are
    g1 = (2^r' at every single slot, (1, 0) at every pair) and
    g2 = ((Y^x + 1) * 2^(r'-1) at every single slot, (0, 0) at every pair),
    x of order 2 in P, each slot an element of (component ring)[P].  Each
    is pulled back with compose_nested, one compose per element of P, and
    merged along the Sylow decomposition; zero generators are dropped.
    """
    dec = sylow_decompose(group, p)
    p_group = dec.p_part
    ctx = ambient(construct_ring(p, r, s), dec.coprime_part)
    singles, pairs = ctx.parts.layout(form)
    x2 = tuple((f // 2 if k == 0 else 0) for k, f in enumerate(p_group.factors))
    rp = (r + 1) // 2

    def ring(i):
        return GroupRing(ctx.component_spec(ctx.parts.classes[i].cardinality), p_group)

    g1 = DecomposedElement(
        ctx, form, {i: ring(i).one() * ring(i).coeff.from_int(p**rp) for i in singles},
        {i: (ring(i).one(), ring(i).zero()) for i, _ in pairs})
    g2 = DecomposedElement(
        ctx, form, {i: (ring(i).monomial(x2) + ring(i).one()) * ring(i).coeff.from_int(p**(rp - 1))
                    for i in singles},
        {i: (ring(i).zero(), ring(i).zero()) for i, _ in pairs})
    merged = (sylow_merge(compose_nested(g, p_group), dec) for g in (g1, g2))
    return tuple(g for g in merged if not g.is_zero())


# -- number-theoretic and group oracles ----------------------------------------

def classify_pair_scan(j: int, q: int) -> PairGoodness:
    """Direct scan of t = 1..2*ord_j(q); independent oracle for classify_pair."""
    if j < 1:
        raise DomainError(f"j must be positive, got {j}")
    if math.gcd(j, q) != 1:
        raise DomainError(f"gcd({j}, {q}) != 1")
    e = multiplicative_order(q, j) if j > 1 else 1
    for t in range(1, 2 * e + 1):
        if (pow(q, t, j) + 1) % j == 0:
            return PairGoodness.ODDLY_GOOD if t % 2 else PairGoodness.EVENLY_GOOD
    return PairGoodness.BAD


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def partition_by_classes(group: AbelianGroup, q: int) -> ClassPartition:
    """The partition built one class at a time: each orbit rotated to its
    least point, each partner the least point of the whole orbit of
    -p^h * rep, the classes sorted and indexed by representative, and each
    pair's partner orbit rotated to start at -p^h * rep by a search.
    Oracle for the one-scan partition; |A| must be coprime to q."""
    p, s = prime_power_split(q)

    def orbit_of(a):
        out = [a]
        while (b := group.scale(q, out[-1])) != a:
            out.append(b)
        i = out.index(min(out))
        return tuple(out[i:] + out[:i])

    def partner_point(h, a):
        return group.neg(group.scale(p**h, a))

    def partner(h, orbit):
        b = partner_point(h, orbit[0])
        return None if b in orbit else min(orbit_of(b))

    classes, seen = [], set()
    for a in group.elements():
        if a in seen:
            continue
        orbit = orbit_of(a)
        epartner = partner(0, orbit)
        etype = TYPE_III if epartner is not None else TYPE_I if group.neg(a) == a else TYPE_II
        htype = hpartner = None
        if s % 2 == 0:
            hpartner = partner(s // 2, orbit)
            htype = TYPE_II_H if hpartner is None else TYPE_III_H
        classes.append(CyclotomicClass(group, q, orbit[0], orbit, etype, htype, epartner, hpartner))
        seen.update(orbit)
    classes.sort(key=lambda c: c.rep)
    index = {c.rep: i for i, c in enumerate(classes)}
    layouts = []
    for h, name in ((0, "euclidean"), (s // 2, "hermitian"))[:2 - s % 2]:
        taxonomy = [(getattr(c, f"{name}_type"), getattr(c, f"{name}_partner")) for c in classes]
        singles = sorted((i for i, (_, b) in enumerate(taxonomy) if b is None),
                         key=lambda i: taxonomy[i][0])
        pairs = tuple((i, index[b]) for i, (_, b) in enumerate(taxonomy)
                      if b is not None and classes[i].rep < b)
        slots = [(i, ((classes[i].elements, 0),)) for i in singles]
        for i, j in pairs:
            orbit = classes[j].elements
            k = orbit.index(partner_point(h, classes[i].rep))
            slots.append((i, ((classes[i].elements, 0), (orbit[k:] + orbit[:k], h))))
        layouts.append((tuple(singles), pairs, tuple(slots)))
    return ClassPartition(group, p, s, q, tuple(classes), tuple(layouts))


def class_containing(part, a):
    """The class of the partition part that holds the group element a."""
    a = part.group.element(a)
    return next(cls for cls in part.classes if a in cls.elements)


def class_order(cls) -> int:
    """Common additive order of the members of a cyclotomic class."""
    return element_order(cls.group, cls.rep)


def count_order_direct(group: AbelianGroup, d: int) -> int:
    """Count elements of order d by full scan.  Oracle for the formula path."""
    return order_census(group).get(d, 0)


def group_divisor_orders(group: AbelianGroup) -> list[int]:
    """Divisors of the exponent: the candidate element orders."""
    return divisors(group.exponent)


# -- element-level forms and pairings -------------------------------------------
# The engine reads both forms off the block steps of group_ring._block_steps;
# these are their definitions on GroupRingElement.

def form_euclidean(u: GroupRingElement, v: GroupRingElement):
    """sum_g u_g * v_g, valued in the coefficient ring."""
    u._require_same_ring(v)
    acc = u.ring.coeff.zero()
    for g, c in u.terms():
        acc = acc + c * v.coefficient(g)
    return acc


def form_hermitian(u: GroupRingElement, v: GroupRingElement):
    """sum_g u_g * conj(v_g) with conj the half-degree Frobenius (s even)."""
    u._require_same_ring(v)
    spec = u.ring.coeff
    if not isinstance(spec, GaloisRingSpec) or spec.s % 2:
        raise DomainError("Hermitian form needs Galois-ring coefficients of even degree")
    half = spec.s // 2
    acc = spec.zero()
    for g, c in u.terms():
        acc = acc + c * generalized_frobenius(v.coefficient(g), half)
    return acc


def involution_pairing(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """sum_b x_b * involution(y_b) for nested elements over P; valued in R."""
    x._require_same_ring(y)
    inner = x.ring.coeff
    if not isinstance(inner, GroupRing):
        raise DomainError("involution pairing expects nested coefficients")
    acc = inner.zero()
    for b, xb in x.terms():
        acc = acc + xb * involution(y.coefficient(b))
    return acc


def conjugate_involution_pairing(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """sum_b x_b * conjugate_involution(y_b); valued in R."""
    x._require_same_ring(y)
    inner = x.ring.coeff
    if not isinstance(inner, GroupRing):
        raise DomainError("conjugate involution pairing expects nested coefficients")
    acc = inner.zero()
    for b, xb in x.terms():
        acc = acc + xb * conjugate_involution(y.coefficient(b))
    return acc


# -- the nested decomposition -------------------------------------------------------
# The library composes the odd-r constructions in GR[A] directly; these apply
# the decomposition coefficientwise over R[P], R = GR[A].

def decompose_nested(x: GroupRingElement, ctx: AmbientDecomposition, pairing: str) -> DecomposedElement:
    """Componentwise image of an element of R[P], R = GR[A].

    Coefficients over P are decomposed one by one and regrouped, so each
    class contributes an element of (component ring)[P]; pairs contribute
    ordered pairs of such elements.
    """
    inner = x.ring.coeff
    if not isinstance(inner, GroupRing):
        raise DomainError("decompose_nested expects nested coefficients")
    p_group = x.ring.group
    single_idx, pair_idx = ctx.parts.layout(pairing)
    per_b = {b: _decompose(xb, ctx, pairing) for b, xb in x.terms()}
    parts = ctx.parts
    singles = {}
    for i in single_idx:
        comp_ring = GroupRing(ctx.component_spec(parts.classes[i].cardinality), p_group)
        singles[i] = comp_ring.element({b: d.singles[i] for b, d in per_b.items()})
    pairs = {}
    for i, _ in pair_idx:
        comp_ring = GroupRing(ctx.component_spec(parts.classes[i].cardinality), p_group)
        pairs[i] = (comp_ring.element({b: d.pairs[i][0] for b, d in per_b.items()}),
                    comp_ring.element({b: d.pairs[i][1] for b, d in per_b.items()}))
    return DecomposedElement(ctx, pairing, singles, pairs)


def compose_nested(dec: DecomposedElement, p_group: AbelianGroup) -> GroupRingElement:
    """Inverse of decompose_nested."""
    ctx = dec.context
    inner = ctx.ring
    outer = GroupRing(inner, p_group)
    per_b: dict = {}
    for b in p_group.elements():
        singles = {i: v.coefficient(b) for i, v in dec.singles.items()}
        pairs = {i: (v0.coefficient(b), v1.coefficient(b)) for i, (v0, v1) in dec.pairs.items()}
        xb = compose(DecomposedElement(ctx, dec.pairing, singles, pairs))
        per_b[b] = xb
    return outer.element(per_b)


def decompose_by_full_transform(x: GroupRingElement, ctx: AmbientDecomposition,
                                pairing: str) -> DecomposedElement:
    """The component image read off the whole transform: dft at every point
    of A, then for each spread (orbit, t) the value at orbit[0] twisted by
    the Frobenius power -t."""
    values = dft(x, ctx)
    singles, pairs = {}, {}
    for i, spec, spreads in _slots(ctx, pairing):
        slot = tuple(unembed(generalized_frobenius(values[orbit[0]], -t) if t else values[orbit[0]],
                             spec) for orbit, t in spreads)
        if len(slot) == 1:
            singles[i] = slot[0]
        else:
            pairs[i] = slot
    return DecomposedElement(ctx, pairing, singles, pairs)


# -- element methods only the tests use ---------------------------------------------

def shift(x: GroupRingElement, g) -> GroupRingElement:
    """Multiplication by the monomial Y^g."""
    g = x.ring.group.element(g)
    add = x.ring.group.add
    return x.ring.element({add(h, g): c for h, c in x.terms()})


def decomposed_add(a: DecomposedElement, b: DecomposedElement) -> DecomposedElement:
    """Componentwise sum of two images under one context and pairing."""
    if a.context is not b.context or a.pairing != b.pairing:
        raise DomainError("mismatched decompositions")
    singles = {i: x + b.singles[i] for i, x in a.singles.items()}
    pairs = {i: (x + b.pairs[i][0], y + b.pairs[i][1]) for i, (x, y) in a.pairs.items()}
    return DecomposedElement(a.context, a.pairing, singles, pairs)


def component_list(d: DecomposedElement) -> list:
    """Components flattened in partition order: singles, then pairs."""
    singles, pairs = d.context.parts.layout(d.pairing)
    return [d.singles[i] for i in singles] + [d.pairs[i] for i, _ in pairs]


# -- element-level constructions ------------------------------------------------------
# The library builds these on digit vectors; these are the element-level
# definitions they replaced, kept as oracles.

def sylow_split_by_elements(u: GroupRingElement, dec) -> GroupRingElement:
    """Re-index GR[G] as (GR[A])[P] element by element: the coefficient of
    Y^b at Y^a is u_{a+b}."""
    inner = GroupRing(u.ring.coeff, dec.coprime_part)
    outer = GroupRing(inner, dec.p_part)
    buckets: dict = {}
    for g, c in u.terms():
        a, b = dec.split(g)
        buckets.setdefault(b, {})[a] = c
    return outer.element({b: inner.element(cs) for b, cs in buckets.items()})


def sylow_merge_by_elements(x: GroupRingElement, dec) -> GroupRingElement:
    """Inverse of sylow_split_by_elements, by dec.join."""
    inner = x.ring.coeff
    out: dict = {}
    for b, xb in x.terms():
        for a, c in xb.terms():
            out[dec.join(a, b)] = c
    return GroupRing(inner.coeff, dec.group).element(out)


def idempotents_by_elements(ctx: AmbientDecomposition) -> tuple[GroupRingElement, ...]:
    """The class idempotents as elements: the inverse transform of 1 on each class."""
    one = ctx.big.one()
    return tuple(idft({h: one for h in cls.elements}, ctx)
                 for cls in ctx.parts.classes)


def construct_by_elements(p, r, s, group, form=EUCLIDEAN):
    """Generators of construct_self_dual by group-ring arithmetic: idempotent
    sums and p-power scalings in GR[A], placed over P and merged back with
    sylow_merge_by_elements; zero generators are dropped."""
    spec = construct_ring(p, r, s)
    if not exists_self_dual(p, r, group, form, s):
        raise DomainError("no self-dual code")
    ring = GroupRing(spec, group)
    if r % 2 == 0:
        return (ring.one() * (p**(r // 2)),)
    dec = sylow_decompose(group, p)
    p_group = dec.p_part
    ctx = ambient(spec, dec.coprime_part)
    singles, pairs = ctx.parts.layout(form)
    x2 = tuple((f // 2 if k == 0 else 0) for k, f in enumerate(p_group.factors))
    rp = (r + 1) // 2
    e = idempotents_by_elements(ctx)
    g2 = sum((e[i] for i in singles), ctx.ring.zero()) * p**(rp - 1)
    g1 = g2 * p + sum((e[i] for i, _ in pairs), ctx.ring.zero())
    outer = GroupRing(ctx.ring, p_group)
    merged = (sylow_merge_by_elements(nested, dec)
              for nested in (outer.element({p_group.identity: g1}),
                             outer.element({p_group.identity: g2, x2: g2})))
    return tuple(g for g in merged if not g.is_zero())


def semisimple_by_elements(p, r, s, group, form=EUCLIDEAN):
    """Representatives of enumerate_semisimple_selfdual by group-ring
    arithmetic: each single's idempotent times p^(r/2), each pair's
    idempotents times p^w and p^(r-w), a member dropped at p^r."""
    _pairing_twist(form, s)
    ctx = ambient(construct_ring(p, r, s), group)
    singles, pairs = ctx.parts.layout(form)
    if r % 2 or (r + 1)**len(pairs) > MAX_REPRESENTATIVES:
        return ()
    e = idempotents_by_elements(ctx)
    reps = []
    for choice in itertools.product(range(r + 1), repeat=len(pairs)):
        gens = [e[i] * p**(r // 2) for i in singles]
        for pair, w in zip(pairs, choice):
            for k, exp in zip(pair, (w, r - w)):
                if exp < r:
                    gens.append(e[k] * p**exp)
        reps.append(tuple(gens))
    return tuple(reps)


# -- the dict-based element ----------------------------------------------------------
# GroupRingElement stores its digit vector; this is the sparse map it
# replaced, kept as the oracle for its arithmetic, equality and text.

class DictElement:
    """A group-ring element as a map g -> nonzero coefficient, each
    coefficient a GaloisRingElement or, over a nested ring, a DictElement."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GroupRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    @classmethod
    def of(cls, x: GroupRingElement) -> "DictElement":
        """The map of x's nonzero coefficients, converted at every level."""
        return cls(x.ring, {g: cls.of(c) if isinstance(c, GroupRingElement) else c
                            for g, c in x.terms()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _require_same_ring(self, other: "DictElement") -> None:
        if self.ring != other.ring:
            raise DomainError("mixed group rings")

    def __add__(self, other: "DictElement") -> "DictElement":
        self._require_same_ring(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            acc = out.get(g)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(g, None)
            else:
                out[g] = acc
        return DictElement(self.ring, out)

    def __neg__(self) -> "DictElement":
        return DictElement(self.ring, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other: "DictElement") -> "DictElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, DictElement) and other.ring == self.ring:
            add = self.ring.group.add
            out: dict = {}
            for g1, c1 in self.coeffs.items():
                for g2, c2 in other.coeffs.items():
                    g = add(g1, g2)
                    prod = c1 * c2
                    acc = out.get(g)
                    acc = prod if acc is None else acc + prod
                    if acc.is_zero():
                        out.pop(g, None)
                    else:
                        out[g] = acc
            return DictElement(self.ring, out)
        # scalar from the coefficient ring, or an int
        scaled = {g: c * other for g, c in self.coeffs.items()}
        return DictElement(self.ring, {g: c for g, c in scaled.items() if not c.is_zero()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DictElement)
                and self.ring == other.ring and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "<0>"
        parts = [f"{c!r}*Y{g}" for g, c in sorted(self.coeffs.items())]
        return "<" + " + ".join(parts) + ">"


def dict_involution(x: DictElement) -> DictElement:
    """Support reversal Y^g -> Y^(-g), coefficients untouched."""
    neg = x.ring.group.neg
    return DictElement(x.ring, {neg(g): c for g, c in x.coeffs.items()})


def dict_conjugate_involution(x: DictElement) -> DictElement:
    """Support reversal with conjugated coefficients (coefficient degree even)."""
    neg = x.ring.group.neg
    return DictElement(x.ring, {neg(g): conjugate(c) for g, c in x.coeffs.items()})

"""Shared test utilities: group generation, engine construction, oracles.

The oracles are the slow definitions that the library's fast paths
replaced; they live here because only tests call them.
"""

import itertools
import math
from functools import lru_cache
from operator import mul

from galcodes import AbelianGroup, construct_ring, exists_self_dual
from galcodes.cyclotomic import PairGoodness
from galcodes.errors import DomainError
from galcodes.galois import (GaloisRingElement, GaloisRingSpec, _lift_by_powering,
                             _x_has_full_order, generalized_frobenius)
from galcodes.group_ring import (AmbientDecomposition, DecomposedElement, GroupRing,
                                 GroupRingElement, Spectrum, _decompose, ambient, compose,
                                 conjugate, conjugate_involution, idft, involution,
                                 sylow_merge)
from galcodes.groups import element_order, order_census, sylow_decompose
from galcodes.ideals import (EUCLIDEAN, MAX_REPRESENTATIVES, ExhaustiveGroupRing, Ideal,
                             _pairing_twist, exhaustive_bound)
from galcodes.numth import factorize, multiplicative_order


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
    in which ideal_stream yields its bases."""
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


def howell_saturating_takeovers(rows, p, r):
    """Howell form over Z_{p^r} that pushes a row's p^(r-e) saturation
    multiple both when it fills an empty pivot slot and when it takes over
    an occupied one.  The oracle for linalg.howell, which pushes it only in
    the first case."""
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
    return tuple(idft(Spectrum(ctx, {h: one for h in cls.elements}))
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

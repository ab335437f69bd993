"""Group rings over Galois rings, their pairings, and spectral decompositions.

An element of GR(p^r, s)[G] is a finitely supported map g -> coefficient
with convolution product.  The coefficient ring is duck-typed (anything
with zero()/one() whose elements support +, *, unary -) so the same class
also covers nested rings R[P] with R itself a group ring; that nesting is
produced by sylow_split, which re-indexes GR[G] as (GR[A])[P] along the
Sylow decomposition G = A + P.

For A of order coprime to p, evaluation at characters diagonalizes GR[A]:
with M = exponent(A), mu = ord_M(p^s), zeta a root of unity of order M in
the extension GR(p^r, s*mu), the transform of c at h is
sum_a c_a * zeta^gamma_h(a).  The value at h lands in the subring of
degree s*nu, nu the size of the cyclotomic class of h, and the values on
one class are Frobenius shifts of the value at its representative, so the
whole ring splits into one Galois-ring component per class.  Components
are indexed by class representatives.

Both pairings follow one rule, with h = 0 (Euclidean) or h = s/2
(Hermitian): the class of a is paired with the class of -p^h * a, and
when these differ (type III / type III') the two values form an ordered
pair whose second member is the value at -p^h * a twisted by the
Frobenius power -h.  The twist makes the pairing's involution (support
reversal, conjugated when h = s/2) act on the pair as a plain swap.

Elements are also read as digit vectors (s digits per group element, in
lexicographic order), the working form of the constructions: the Sylow
re-indexing is one digit permutation per (group, p, s), kept for the life
of the process like the engines' shift permutations.

class_idempotents tabulates the primitive idempotent e_C of each class C
(transform 1 on C, 0 elsewhere) on first use, by one idft per class given
only that class's points, so the whole table costs one full idft; it holds
the digit vectors, at most #classes * s * |A| digits, and lives as long as
its ambient context.  An integer c at the slot of C pulls back to c * e_C.
The slots of a pairing (component rings, orbits, partner orbits rotated to
start at -p^h * a) are built once per context by _slots, which checks that
they cover the group; decompose and compose only read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import _pairing_twist, _partner_point, partition
from .errors import DomainError, InternalInvariantError
from .galois import (GaloisRingElement, GaloisRingSpec, construct_ring, embed,
                     generalized_frobenius, root_of_unity, unembed)
from .groups import AbelianGroup, SylowDecomposition, character_exponent, sylow_decompose
from .numth import multiplicative_order


class GroupRing:
    """The ring coeff[G]; coeff is a GaloisRingSpec or another GroupRing."""

    __slots__ = ("coeff", "group")

    def __init__(self, coeff, group: AbelianGroup):
        self.coeff = coeff
        self.group = group

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupRing)
                and self.coeff == other.coeff and self.group == other.group)

    def __hash__(self) -> int:
        return hash((self.coeff, self.group))

    def __repr__(self) -> str:
        return f"{self.coeff!r}[{self.group!r}]"

    def zero(self) -> GroupRingElement:
        return GroupRingElement(self, {})

    def one(self) -> GroupRingElement:
        return GroupRingElement(self, {self.group.identity: self.coeff.one()})

    def monomial(self, g, c=None) -> GroupRingElement:
        """c * Y^g (c defaults to 1)."""
        g = self.group.element(g)
        c = self.coeff.one() if c is None else c
        return self.element({g: c})

    def element(self, coeffs: dict) -> GroupRingElement:
        clean = {}
        for g, c in coeffs.items():
            g = self.group.element(g)
            if not c.is_zero():
                clean[g] = c
        return GroupRingElement(self, clean)

    def random_element(self, rng) -> GroupRingElement:
        spec = self.coeff
        if isinstance(spec, GroupRing):
            return self.element({g: spec.random_element(rng) for g in self.group.elements()})
        return self.element({
            g: spec.element(tuple(rng.randrange(spec.char) for _ in range(spec.s)))
            for g in self.group.elements()})


class GroupRingElement:
    """Immutable sparse element of a GroupRing."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GroupRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    def coefficient(self, g):
        g = self.ring.group.element(g)
        c = self.coeffs.get(g)
        return c if c is not None else self.ring.coeff.zero()

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _require_same_ring(self, other: "GroupRingElement") -> None:
        if self.ring != other.ring:
            raise DomainError("mixed group rings")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._require_same_ring(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            acc = out.get(g)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(g, None)
            else:
                out[g] = acc
        return GroupRingElement(self.ring, out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.ring, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GroupRingElement) and isinstance(other.ring.coeff, type(self.ring.coeff)):
            self._require_same_ring(other)
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
            return GroupRingElement(self.ring, out)
        # scalar from the coefficient ring, or an int
        scaled = {g: c * other for g, c in self.coeffs.items()}
        return GroupRingElement(self.ring, {g: c for g, c in scaled.items() if not c.is_zero()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupRingElement)
                and self.ring == other.ring and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "<0>"
        parts = [f"{c!r}*Y{g}" for g, c in sorted(self.coeffs.items())]
        return "<" + " + ".join(parts) + ">"


# -- involutions -------------------------------------------------------------

def conjugate(a: GaloisRingElement) -> GaloisRingElement:
    """Half-degree Frobenius; the ring involution of GR(p^r, s) for s even."""
    if a.spec.s % 2:
        raise DomainError(f"{a.spec} has odd degree; no conjugation")
    return generalized_frobenius(a, a.spec.s // 2)


def involution(x: GroupRingElement) -> GroupRingElement:
    """Support reversal Y^g -> Y^(-g), coefficients untouched."""
    neg = x.ring.group.neg
    return GroupRingElement(x.ring, {neg(g): c for g, c in x.coeffs.items()})


def conjugate_involution(x: GroupRingElement) -> GroupRingElement:
    """Support reversal with conjugated coefficients (coefficient degree even)."""
    neg = x.ring.group.neg
    return GroupRingElement(x.ring, {neg(g): conjugate(c) for g, c in x.coeffs.items()})


# -- digit vectors ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _group_index(factors: tuple[int, ...]) -> dict:
    """Group element -> its position in the lexicographic order."""
    return {g: i for i, g in enumerate(AbelianGroup(factors).elements())}


def _width(coeff) -> int:
    """Digits of one coefficient: s, or s * |group| per nesting level."""
    if isinstance(coeff, GroupRing):
        return _width(coeff.coeff) * coeff.group.order
    return coeff.s


def _to_vector(x: GroupRingElement) -> tuple[int, ...]:
    """The digits of x: one block per group element in lexicographic
    order, each the coefficient's digits (its own vector when nested)."""
    coeff = x.ring.coeff
    nested = isinstance(coeff, GroupRing)
    w = _width(coeff)
    vec = [0] * (w * x.ring.group.order)
    index = _group_index(x.ring.group.factors)
    for g, c in x.coeffs.items():
        base = index[g] * w
        vec[base:base + w] = _to_vector(c) if nested else c.coeffs
    return tuple(vec)


def _from_vector(ring: GroupRing, vec) -> GroupRingElement:
    """Inverse of _to_vector; the digits must already lie in [0, p^r)."""
    coeff = ring.coeff
    nested = isinstance(coeff, GroupRing)
    w = _width(coeff)
    coeffs = {}
    for g, i in _group_index(ring.group.factors).items():
        block = tuple(vec[i * w:(i + 1) * w])
        if any(block):
            coeffs[g] = _from_vector(coeff, block) if nested else GaloisRingElement(coeff, block)
    return GroupRingElement(ring, coeffs)


# -- Sylow re-indexing ---------------------------------------------------------


@lru_cache(maxsize=None)
def _sylow_perm(factors: tuple[int, ...], p: int, s: int) -> tuple[int, ...]:
    """The re-indexing GR[G] -> (GR[A])[P], G = A + P, as a digit permutation.

    s is the width of one coefficient of GR[G] (_width).  The nested vector
    has one block of s * |A| digits per element b of P in lexicographic
    order, the digits of the coefficient of Y^b in GR[A]; entry t is the
    digit of the vector of GR[G] that lands at t, the one of block a + b
    for the point (b, a) of t.  sylow_split gathers through it and
    sylow_merge scatters back, so the re-indexing has this one owner.
    """
    dec = sylow_decompose(AbelianGroup(factors), p)
    index = _group_index(factors)
    return tuple(index[dec.join(a, b)] * s + j
                 for b in dec.p_part.elements() for a in dec.coprime_part.elements()
                 for j in range(s))


def _sylow_merge_vector(nested, dec: SylowDecomposition, s: int) -> list[int]:
    """The digits of GR[G] whose Sylow re-indexing is the nested vector."""
    vec = [0] * len(nested)
    for d, k in zip(nested, _sylow_perm(dec.group.factors, dec.p, s)):
        vec[k] = d
    return vec


def sylow_split(u: GroupRingElement, dec: SylowDecomposition) -> GroupRingElement:
    """Re-index GR[G] as (GR[A])[P]: coefficient of Y^b at Y^a is u_{a+b}."""
    coeff = u.ring.coeff
    outer = GroupRing(GroupRing(coeff, dec.coprime_part), dec.p_part)
    vec = _to_vector(u)
    perm = _sylow_perm(dec.group.factors, dec.p, _width(coeff))
    return _from_vector(outer, [vec[k] for k in perm])


def sylow_merge(x: GroupRingElement, dec: SylowDecomposition) -> GroupRingElement:
    """Inverse of sylow_split."""
    inner = x.ring.coeff
    if not isinstance(inner, GroupRing):
        raise DomainError("sylow_merge expects nested coefficients")
    return _from_vector(GroupRing(inner.coeff, dec.group),
                        _sylow_merge_vector(_to_vector(x), dec, _width(inner.coeff)))


# -- character transform and component decomposition ---------------------------

class AmbientDecomposition:
    """Cached spectral data for GR(p^r, s)[A], |A| coprime to p."""

    def __init__(self, spec: GaloisRingSpec, group: AbelianGroup):
        self.spec = spec
        self.group = group
        self.ring = GroupRing(spec, group)
        self.parts = partition(group, spec.residue_size)
        self.exponent = group.exponent
        self.extension_degree = multiplicative_order(spec.residue_size, self.exponent)
        self.big = construct_ring(spec.p, spec.r, spec.s * self.extension_degree)
        zeta = root_of_unity(self.big, self.exponent)
        pows = [self.big.one()]
        for _ in range(self.exponent - 1):
            pows.append(pows[-1] * zeta)
        self.zeta_pows = pows
        self.inv_group_order = pow(group.order, -1, spec.char)
        self._idempotents = None  # built by class_idempotents on first use
        self._slots: dict = {}  # pairing -> its slots, built by _slots on first use

    def component_spec(self, nu: int) -> GaloisRingSpec:
        return construct_ring(self.spec.p, self.spec.r, self.spec.s * nu)


@lru_cache(maxsize=None)
def _ambient_cached(p: int, r: int, s: int, factors: tuple[int, ...]) -> AmbientDecomposition:
    return AmbientDecomposition(construct_ring(p, r, s), AbelianGroup(factors))


def ambient(spec: GaloisRingSpec, group: AbelianGroup) -> AmbientDecomposition:
    return _ambient_cached(spec.p, spec.r, spec.s, group.factors)


@dataclass(frozen=True)
class Spectrum:
    """Character values of one ring element, indexed by group element."""

    context: AmbientDecomposition
    values: dict

    def __getitem__(self, h) -> GaloisRingElement:
        return self.values[self.context.group.element(h)]


def dft(x: GroupRingElement, ctx: AmbientDecomposition | None = None) -> Spectrum:
    """Evaluate x at every character: the value at h is
    sum_a x_a * zeta^gamma_h(a), in the extension ring."""
    if ctx is None:
        ctx = ambient(x.ring.coeff, x.ring.group)
    if x.ring != ctx.ring:
        raise DomainError("element does not belong to the decomposed ring")
    group, big, zeta_pows = ctx.group, ctx.big, ctx.zeta_pows
    lifted = [(a, embed(c, big)) for a, c in x.coeffs.items()]
    values = {}
    for h in group.elements():
        acc = big.zero()
        for a, c in lifted:
            acc = acc + c * zeta_pows[character_exponent(group, h, a)]
        values[h] = acc
    return Spectrum(ctx, values)


def idft(spec: Spectrum) -> GroupRingElement:
    """Inverse transform: x_a = |A|^(-1) * sum_h values[h] * zeta^(-gamma_h(a)).

    The result must have coefficients in the base ring; landing outside its
    embedded image means the spectrum was not Frobenius-coherent, which is
    reported as a broken invariant.
    """
    ctx = spec.context
    group = ctx.group
    M = ctx.exponent
    out = {}
    for a in group.elements():
        acc = ctx.big.zero()
        for h, v in spec.values.items():
            e = (-character_exponent(group, h, a)) % M
            acc = acc + v * ctx.zeta_pows[e]
        out[a] = unembed(acc * ctx.inv_group_order, ctx.spec)
    return ctx.ring.element(out)


def class_idempotents(ctx: AmbientDecomposition) -> tuple[tuple[int, ...], ...]:
    """The idempotent e_C of each class C, in partition order, as the digit
    vector of an element of GR[A]: the inverse transform of 1 on C, given
    only C's points, so each costs |A| * |C|."""
    if ctx._idempotents is None:
        one = ctx.big.one()
        ctx._idempotents = tuple(_to_vector(idft(Spectrum(ctx, {h: one for h in cls.elements})))
                                 for cls in ctx.parts.classes)
    return ctx._idempotents


def _slots(ctx: AmbientDecomposition, pairing: str):
    """(h, singles, pairs) of a pairing, built on first use and kept on the
    context.  A single is (class index, component ring, orbit); a pair is
    (class index, component ring, orbit, partner orbit rotated to start at
    -p^h * rep, the point whose value the pair stores).  The orbits must
    cover the group, which is checked here, once per context and pairing."""
    slots = ctx._slots.get(pairing)
    if slots is None:
        h = _pairing_twist(pairing, ctx.spec.s)
        single_idx, pair_idx = ctx.parts.layout(pairing)
        group, classes = ctx.group, ctx.parts.classes
        singles = tuple((i, ctx.component_spec(classes[i].cardinality), classes[i].elements)
                        for i in single_idx)
        pairs = []
        for i, j in pair_idx:
            cls, orbit = classes[i], classes[j].elements
            start = _partner_point(group, ctx.spec.p, h, cls.rep)
            if start not in orbit:
                raise InternalInvariantError("partner orbit mismatch")
            k = orbit.index(start)
            pairs.append((i, ctx.component_spec(cls.cardinality), cls.elements,
                          orbit[k:] + orbit[:k]))
        points = {a for slot in singles + tuple(pairs) for orbit in slot[2:] for a in orbit}
        if len(points) != group.order:
            raise InternalInvariantError("decomposition did not cover the group")
        slots = ctx._slots[pairing] = (h, singles, tuple(pairs))
    return slots


@dataclass(frozen=True)
class DecomposedElement:
    """Component image of a ring element under one of the two pairings.

    singles maps class index -> component value; pairs maps primary class
    index -> (value, partner value).  Ordering and pairing follow the
    partition layout for the chosen pairing ('euclidean' or 'hermitian').
    """

    context: AmbientDecomposition
    pairing: str
    singles: dict
    pairs: dict

    def multiply(self, other: "DecomposedElement") -> "DecomposedElement":
        if self.context is not other.context or self.pairing != other.pairing:
            raise DomainError("mismatched decompositions")
        singles = {i: a * other.singles[i] for i, a in self.singles.items()}
        pairs = {i: (a * other.pairs[i][0], b * other.pairs[i][1])
                 for i, (a, b) in self.pairs.items()}
        return DecomposedElement(self.context, self.pairing, singles, pairs)


def _decompose(x: GroupRingElement, ctx: AmbientDecomposition | None,
               pairing: str) -> DecomposedElement:
    """Component image under the pairing rule: each single class gives the
    value at its representative a, each pair (value at a, value at
    -p^h * a twisted by the Frobenius power -h)."""
    if ctx is None:
        ctx = ambient(x.ring.coeff, x.ring.group)
    h, single_slots, pair_slots = _slots(ctx, pairing)
    values = dft(x, ctx).values
    singles = {i: unembed(values[orbit[0]], spec) for i, spec, orbit in single_slots}
    pairs = {}
    for i, spec, orbit, partner in pair_slots:
        second = values[partner[0]]
        if h:
            second = generalized_frobenius(second, -h % ctx.big.s)
        pairs[i] = (unembed(values[orbit[0]], spec), unembed(second, spec))
    return DecomposedElement(ctx, pairing, singles, pairs)


def decompose_euclidean(x: GroupRingElement, ctx: AmbientDecomposition | None = None) -> DecomposedElement:
    """Component image for the Euclidean pairing layout (h = 0).

    Type-I/II classes contribute the value at their representative a;
    type-III pairs contribute (value at a, value at -a).
    """
    return _decompose(x, ctx, "euclidean")


def decompose_hermitian(x: GroupRingElement, ctx: AmbientDecomposition | None = None) -> DecomposedElement:
    """Component image for the Hermitian pairing layout (s even, h = s/2).

    Type-II' classes contribute the value at their representative b;
    type-III' pairs contribute (value at b, w) where w is the value at
    -p^(s/2)*b twisted by the inverse half-degree Frobenius, the
    normalization that turns the conjugate involution into a plain swap.
    """
    return _decompose(x, ctx, "hermitian")


def compose(dec: DecomposedElement) -> GroupRingElement:
    """Inverse of decompose_euclidean / decompose_hermitian: point k of an
    orbit gets the slot value shifted by Frobenius s*k, plus h on the
    partner orbit of a pair."""
    ctx = dec.context
    h, single_slots, pair_slots = _slots(ctx, dec.pairing)
    spreads = [(orbit, dec.singles[i], 0) for i, _, orbit in single_slots]
    for i, _, orbit, partner in pair_slots:
        first, second = dec.pairs[i]
        spreads += [(orbit, first, 0), (partner, second, h)]
    s = ctx.spec.s
    values: dict = {}
    for orbit, value, twist in spreads:
        value_big = embed(value, ctx.big)
        for k, point in enumerate(orbit):
            e = twist + s * k
            values[point] = generalized_frobenius(value_big, e) if e else value_big
    return idft(Spectrum(ctx, values))


# -- text format ---------------------------------------------------------------

def element_text(x: GroupRingElement) -> str:
    """Dense coefficient list in lexicographic group order, ';' separated."""
    from .galois import element_text as scalar_text
    spec = x.ring.coeff
    if not isinstance(spec, GaloisRingSpec):
        raise DomainError("text format applies to Galois-ring coefficients")
    return ";".join(scalar_text(x.coefficient(g)) for g in x.ring.group.elements())


def parse_element(ring: GroupRing, text: str) -> GroupRingElement:
    from .galois import parse_element as scalar_parse
    spec = ring.coeff
    if not isinstance(spec, GaloisRingSpec):
        raise DomainError("text format applies to Galois-ring coefficients")
    parts = text.strip().split(";")
    elems = ring.group.elements()
    if len(parts) != len(elems):
        raise DomainError(f"expected {len(elems)} coefficients in {text!r}")
    return ring.element({g: scalar_parse(spec, t) for g, t in zip(elems, parts)})

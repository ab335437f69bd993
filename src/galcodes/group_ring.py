"""Group rings over Galois rings, their pairings, and spectral decompositions.

An element of GR(p^r, s)[G] is a map g -> coefficient, stored as its
digit vector: s digits in [0, p^r) per group element, in lexicographic
order.  The coefficient ring may itself be a group ring, whose whole
vector is then one coefficient's digits; that nesting is produced by
sylow_split, which re-indexes GR[G] as (GR[A])[P] along the Sylow
decomposition G = A + P; (GR[A])[P] has the digits of the flat ring GR[P x A].

This module owns every digit table (group positions, the shifts Y^g as
digit permutations, the block steps, the Sylow re-indexing), each cached
by what it depends on, and the one product kernel _monomial_rows: x * y
sums y's digits times the rows x^j * Y^g * x, and a coefficient c, read
as c * Y^0, weights only the first block.

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
from functools import lru_cache, partial
from itertools import chain

from .cyclotomic import _pairing_twist, _partner_point, partition
from .errors import DomainError, InternalInvariantError
from .galois import (GaloisRingElement, GaloisRingSpec, _poly_mul_mod, construct_ring, embed,
                     generalized_frobenius, root_of_unity, unembed)
from .groups import AbelianGroup, SylowDecomposition, character_exponent, sylow_decompose
from .numth import multiplicative_order


class GroupRing:
    """The ring coeff[G]; coeff is a GaloisRingSpec or another GroupRing.
    One coefficient has block digits (s, or the inner ring's width), one
    element width = block * |G|, each digit taken mod char = p^r.  _flat
    is (spec, factors) of the flat ring with the same digits."""

    __slots__ = ("coeff", "group", "block", "width", "char", "_coefficient", "_flat")

    def __init__(self, coeff, group: AbelianGroup):
        self.coeff = coeff
        self.group = group
        nested = isinstance(coeff, GroupRing)
        self.block = coeff.width if nested else coeff.s
        self.width = self.block * group.order
        self.char = coeff.char
        spec, inner = coeff._flat if nested else (coeff, ())
        self._flat = (spec, group.factors + inner)
        # digits of one block -> that coefficient
        self._coefficient = partial(GroupRingElement if nested else GaloisRingElement, coeff)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupRing)
                and self.coeff == other.coeff and self.group == other.group)

    def __hash__(self) -> int:
        return hash((self.coeff, self.group))

    def __repr__(self) -> str:
        return f"{self.coeff!r}[{self.group!r}]"

    def zero(self) -> GroupRingElement:
        return GroupRingElement(self, (0,) * self.width)

    def one(self) -> GroupRingElement:
        return self.monomial(self.group.identity)

    def monomial(self, g, c=None) -> GroupRingElement:
        """c * Y^g (c defaults to 1)."""
        c = self.coeff.one() if c is None else c
        return self.element({g: c})

    def element(self, coeffs: dict) -> GroupRingElement:
        """The element with these coefficients, each from the coefficient ring."""
        for c in coeffs.values():
            if _owner(c) != self.coeff:
                raise DomainError(f"coefficient of {_owner(c)} used in {self!r}, "
                                  f"whose coefficients lie in {self.coeff!r}")
        return self._assemble((self.group.element(g), c) for g, c in coeffs.items())

    def _assemble(self, terms) -> GroupRingElement:
        """The element with the (group element, coefficient) terms, both
        already checked; each coefficient's digits fill its block."""
        vec = [0] * self.width
        index, w = _group_index(self.group.factors), self.block
        for g, c in terms:
            k = index[g] * w
            vec[k:k + w] = c.coeffs
        return GroupRingElement(self, tuple(vec))

    def random_element(self, rng) -> GroupRingElement:
        return GroupRingElement(self, tuple(rng.randrange(self.char) for _ in range(self.width)))


def _owner(x):
    """The ring x belongs to, or the name of its type when x is no ring element."""
    if isinstance(x, GroupRingElement):
        return x.ring
    return x.spec if isinstance(x, GaloisRingElement) else type(x).__name__


class GroupRingElement:
    """Immutable element of a GroupRing: coeffs is its digit vector, one
    block of ring.block digits per group element in lexicographic order,
    each read like GaloisRingElement.coeffs."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GroupRing, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def terms(self):
        """(g, coefficient) for each nonzero coefficient, g in lexicographic order."""
        w = self.ring.block
        for g, i in _group_index(self.ring.group.factors).items():
            block = self.coeffs[i * w:(i + 1) * w]
            if any(block):
                yield g, self.ring._coefficient(block)

    def coefficient(self, g):
        w = self.ring.block
        k = _group_index(self.ring.group.factors)[self.ring.group.element(g)] * w
        return self.ring._coefficient(self.coeffs[k:k + w])

    def support(self):
        return [g for g, _ in self.terms()]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _require_same_ring(self, other) -> None:
        owner = _owner(other)
        if owner != self.ring:
            raise DomainError(f"cannot combine an element of {self.ring!r} with one of {owner}")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._require_same_ring(other)
        m = self.ring.char
        return GroupRingElement(self.ring, tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "GroupRingElement":
        m = self.ring.char
        return GroupRingElement(self.ring, tuple(-a % m for a in self.coeffs))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._require_same_ring(other)
        return self + (-other)

    def __mul__(self, other):
        """Product with an element of the same ring or of its coefficient
        ring (other's digits times the kernel rows of self), or an int."""
        ring = self.ring
        m = ring.char
        if isinstance(other, int):
            return GroupRingElement(ring, tuple(a * other % m for a in self.coeffs))
        owner = _owner(other)
        if owner != ring and owner != ring.coeff:
            raise DomainError(f"cannot multiply an element of {ring!r} by one of {owner}")
        acc = [0] * ring.width
        for w, row in zip(other.coeffs, _monomial_rows(*ring._flat, self.coeffs)):
            if w:
                acc = [a + w * b for a, b in zip(acc, row)]
        return GroupRingElement(ring, tuple(a % m for a in acc))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupRingElement)
                and self.ring == other.ring and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "<0>"
        return "<" + " + ".join(f"{c!r}*Y{g}" for g, c in self.terms()) + ">"


# -- involutions -------------------------------------------------------------

def conjugate(a: GaloisRingElement) -> GaloisRingElement:
    """Half-degree Frobenius; the ring involution of GR(p^r, s) for s even."""
    if a.spec.s % 2:
        raise DomainError(f"{a.spec} has odd degree; no conjugation")
    return generalized_frobenius(a, a.spec.s // 2)


def involution(x: GroupRingElement) -> GroupRingElement:
    """Support reversal Y^g -> Y^(-g), coefficients untouched."""
    neg = x.ring.group.neg
    return x.ring._assemble((neg(g), c) for g, c in x.terms())


def conjugate_involution(x: GroupRingElement) -> GroupRingElement:
    """Support reversal with conjugated coefficients (coefficient degree even)."""
    spec = x.ring.coeff
    if not isinstance(spec, GaloisRingSpec) or spec.s % 2:
        raise DomainError(f"{x.ring!r} has no conjugate involution: it needs GR(p^r, s), s even")
    neg = x.ring.group.neg
    return x.ring._assemble((neg(g), conjugate(c)) for g, c in x.terms())


# -- digit layout and the multiplication kernel --------------------------------

@lru_cache(maxsize=None)
def _group_index(factors: tuple[int, ...]) -> dict:
    """Group element -> its position in the lexicographic order."""
    return {g: i for i, g in enumerate(AbelianGroup(factors).elements())}


@lru_cache(maxsize=None)
def _shift_perms(factors: tuple[int, ...], s: int) -> tuple[tuple[int, ...], ...]:
    """For each g, the digit permutation of multiplication by Y^g: entry t
    is the digit that lands at t, from the block of group element t - g,
    found by rotating each factor's coordinate of the lexicographic index."""
    perms = []
    for g in AbelianGroup(factors).elements():
        blocks = [0]
        for f, c in zip(factors, g):
            blocks = [b * f + (d - c) % f for b in blocks for d in range(f)]
        perms.append(tuple(b * s + j for b in blocks for j in range(s)))
    return tuple(perms)


@lru_cache(maxsize=None)
def _form_step(spec: GaloisRingSpec, h: int) -> tuple[int, ...]:
    """Digits of y(x) = Frobenius^h(x): form(u, e_(g,j)) = u_g * y(x)^j, so
    y(x) is the step from j to j + 1 (the Hermitian one needs the ring's
    Teichmuller table, hence made on first use)."""
    return generalized_frobenius(spec._x(), h).coeffs


def _block_steps(spec: GaloisRingSpec, h: int, vec) -> tuple[tuple[int, ...], ...]:
    """Each block c of vec, then c * y^j for 0 < j < s, y = Frobenius^h(x):
    the x^j multiples of the blocks when h = 0, and the digits of form(vec,
    e_i) under twist h, so digit d of form(vec, w) is w dotted with column d."""
    step = _form_step(spec, h)
    s, modulus, m = spec.s, spec.modulus, spec.char
    out = []
    for base in range(0, len(vec), s):
        block = tuple(vec[base:base + s])
        out.append(block)
        for _ in range(s - 1):
            block = _poly_mul_mod(block, step, modulus, m)
            out.append(block)
    return tuple(out)


def _monomial_rows(spec: GaloisRingSpec, factors: tuple[int, ...], vec):
    """The rows x^j * Y^g * vec over spec[factors], row g * s + j, g in
    lexicographic order; x^j * vec is every s-th block step.  A generator,
    so that a scaling reads only the rows of the first block."""
    s = spec.s
    xmults = [tuple(vec)]
    if s > 1:
        blocks = _block_steps(spec, 0, vec)
        xmults = [tuple(chain.from_iterable(blocks[j::s])) for j in range(s)]
    for perm in _shift_perms(factors, s):
        for base in xmults:
            yield tuple(base[k] for k in perm)


# -- Sylow re-indexing ---------------------------------------------------------


@lru_cache(maxsize=None)
def _sylow_perm(factors: tuple[int, ...], p: int, s: int) -> tuple[int, ...]:
    """The re-indexing GR[G] -> (GR[A])[P], G = A + P, as a digit permutation.

    s is the block of GR[G], the digits of one coefficient.  The nested vector
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
    ring = u.ring
    if ring.group != dec.group:
        raise DomainError(f"element of {ring!r} split along the decomposition of {dec.group!r}")
    outer = GroupRing(GroupRing(ring.coeff, dec.coprime_part), dec.p_part)
    perm = _sylow_perm(dec.group.factors, dec.p, ring.block)
    return GroupRingElement(outer, tuple(u.coeffs[k] for k in perm))


def sylow_merge(x: GroupRingElement, dec: SylowDecomposition) -> GroupRingElement:
    """Inverse of sylow_split."""
    inner = x.ring.coeff
    if not isinstance(inner, GroupRing):
        raise DomainError("sylow_merge expects nested coefficients")
    if x.ring.group != dec.p_part or inner.group != dec.coprime_part:
        raise DomainError(f"element of {x.ring!r} merged along the decomposition of {dec.group!r}")
    return GroupRingElement(GroupRing(inner.coeff, dec.group),
                            tuple(_sylow_merge_vector(x.coeffs, dec, inner.block)))


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
    lifted = [(a, embed(c, big)) for a, c in x.terms()]
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
    vec: list[int] = []
    for a in group.elements():
        acc = ctx.big.zero()
        for h, v in spec.values.items():
            e = (-character_exponent(group, h, a)) % M
            acc = acc + v * ctx.zeta_pows[e]
        vec += unembed(acc * ctx.inv_group_order, ctx.spec).coeffs
    return GroupRingElement(ctx.ring, tuple(vec))


def class_idempotents(ctx: AmbientDecomposition) -> tuple[tuple[int, ...], ...]:
    """The idempotent e_C of each class C, in partition order, as the digit
    vector of an element of GR[A]: the inverse transform of 1 on C, given
    only C's points, so each costs |A| * |C|."""
    if ctx._idempotents is None:
        one = ctx.big.one()
        ctx._idempotents = tuple(idft(Spectrum(ctx, {h: one for h in cls.elements})).coeffs
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

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
the extension GR(p^r, s*mu), dft(c) is the dict h -> sum_a c_a *
zeta^gamma_h(a), and idft(values, ctx) the same sum, one kernel
_character_sums, with zeta^(-gamma_h(a)) and |A|^(-1), over the points the
dict gives (the rest read as 0).  The value at h lands in the subring of
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
its ambient context.  An integer c at the slot of C pulls back to c * e_C,
and _sylow_place puts such an element of GR[A] inside GR[G].
A pairing's slots are the partition's, each (class index, spreads), a
pair's partner orbit starting at -p^h * rep; _slots only attaches the
component rings and keeps nothing.  Point k of a spread (orbit, t) reads
the one value the spread stores, shifted by Frobenius s*k + t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain

from .cyclotomic import HERMITIAN, _pairing_twist, partition
from .errors import DomainError, _check_type
from .galois import (GaloisRingElement, GaloisRingSpec, _poly_mul_mod,
                     construct_ring, embed, generalized_frobenius, root_of_unity, unembed)
from .galois import element_text as _scalar_text, parse_element as _scalar_parse
from .groups import AbelianGroup, SylowDecomposition, character_exponent, sylow_decompose
from .numth import multiplicative_order


class GroupRing:
    """The ring coeff[G]; coeff is a GaloisRingSpec or another GroupRing.
    One coefficient has block digits (s, or the inner ring's width), one
    element width = block * |G|, each digit taken mod char = p^r.  _flat
    is (spec, factors) of the flat ring with the same digits."""

    __slots__ = ("coeff", "group", "block", "width", "char", "_coefficient", "_flat")

    def __init__(self, coeff, group: AbelianGroup):
        self.coeff = _check_type("coeff", coeff, GaloisRingSpec, GroupRing)
        self.group = _check_type("group", group, AbelianGroup)
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

    # reached only for a left operand of another ring, which __add__ refuses
    __radd__ = __add__

    def __rsub__(self, other) -> "GroupRingElement":
        return -self + other

    def __mul__(self, other):
        """Product with an element of the same ring or of its coefficient
        ring (other's digits times the kernel rows of self), or an int."""
        ring = self.ring
        m = ring.char
        if type(other) is int:
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
    return generalized_frobenius(a, _pairing_twist(HERMITIAN, a.spec.s))


def involution(x: GroupRingElement) -> GroupRingElement:
    """Support reversal Y^g -> Y^(-g), coefficients untouched."""
    neg = _check_type("x", x, GroupRingElement).ring.group.neg
    return x.ring._assemble((neg(g), c) for g, c in x.terms())


def conjugate_involution(x: GroupRingElement) -> GroupRingElement:
    """Support reversal with conjugated coefficients (coefficient degree even)."""
    spec = _check_type("x", x, GroupRingElement).ring.coeff
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
    for the point (b, a) of t.  sylow_split gathers through it, and
    sylow_merge and _sylow_place scatter back, so the re-indexing has this
    one owner.
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


def _sylow_place(c, dec: SylowDecomposition, s: int, points=None) -> list[int]:
    """The digits of GR[G] of c * (sum of Y^b over the points b of P, by
    default its identity alone), c an element of GR[A] given by its digits:
    c fills the block of each b in the vector over P, which is merged back."""
    width, index = len(c), _group_index(dec.p_part.factors)
    nested = [0] * (width * dec.p_part.order)
    for b in (dec.p_part.identity,) if points is None else points:
        k = index[b] * width
        nested[k:k + width] = c
    return _sylow_merge_vector(nested, dec, s)


def sylow_split(u: GroupRingElement, dec: SylowDecomposition) -> GroupRingElement:
    """Re-index GR[G] as (GR[A])[P]: coefficient of Y^b at Y^a is u_{a+b}."""
    ring = _check_type("u", u, GroupRingElement).ring
    if ring.group != _check_type("dec", dec, SylowDecomposition).group:
        raise DomainError(f"element of {ring!r} split along the decomposition of {dec.group!r}")
    outer = GroupRing(GroupRing(ring.coeff, dec.coprime_part), dec.p_part)
    perm = _sylow_perm(dec.group.factors, dec.p, ring.block)
    return GroupRingElement(outer, tuple(u.coeffs[k] for k in perm))


def sylow_merge(x: GroupRingElement, dec: SylowDecomposition) -> GroupRingElement:
    """Inverse of sylow_split."""
    inner = _check_type("x", x, GroupRingElement).ring.coeff
    _check_type("dec", dec, SylowDecomposition)
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
        self.extension_degree = multiplicative_order(spec.residue_size, group.exponent)
        self.big = construct_ring(spec.p, spec.r, spec.s * self.extension_degree)
        zeta = root_of_unity(self.big, group.exponent)
        pows = [self.big.one()]
        for _ in range(group.exponent - 1):
            pows.append(pows[-1] * zeta)
        self.zeta_pows = pows
        self.inv_group_order = pow(group.order, -1, spec.char)
        self._idempotents = None  # built by class_idempotents on first use

    def component_spec(self, nu: int) -> GaloisRingSpec:
        return construct_ring(self.spec.p, self.spec.r, self.spec.s * nu)


@lru_cache(maxsize=None)
def _ambient_cached(p: int, r: int, s: int, factors: tuple[int, ...]) -> AmbientDecomposition:
    return AmbientDecomposition(construct_ring(p, r, s), AbelianGroup(factors))


def ambient(spec: GaloisRingSpec, group: AbelianGroup) -> AmbientDecomposition:
    _check_type("spec", spec, GaloisRingSpec)
    return _ambient_cached(spec.p, spec.r, spec.s,
                           _check_type("group", group, AbelianGroup).factors)


def _character_sums(ctx: AmbientDecomposition, terms, sign: int):
    """For each a of A in lexicographic order, (a, sum v * zeta^(sign *
    gamma_h(a) mod M)) over the (h, v) terms; gamma is symmetric, so sign 1
    is the transform and sign -1 the inverse before its |A|^(-1)."""
    group, zero, pows = ctx.group, ctx.big.zero(), ctx.zeta_pows
    M = group.exponent
    for a in group.elements():
        acc = zero
        for h, v in terms:
            acc = acc + v * pows[sign * character_exponent(group, h, a) % M]
        yield a, acc


def _transform_context(x, ctx: AmbientDecomposition | None) -> AmbientDecomposition:
    """ctx, by default the ambient decomposition of x's own ring (which
    needs Galois-ring coefficients), once x is checked to be of its ring."""
    owner = _owner(x)
    if ctx is None:
        if not isinstance(owner, GroupRing):
            raise DomainError(f"cannot transform {type(x).__name__}: not a GroupRingElement")
        if not isinstance(owner.coeff, GaloisRingSpec):
            raise DomainError(f"cannot transform an element of {owner!r}: "
                              "its coefficients are not a Galois ring")
        ctx = ambient(owner.coeff, owner.group)
    if owner != _check_type("ctx", ctx, AmbientDecomposition).ring:
        raise DomainError(f"element of {owner} transformed over {ctx.ring!r}")
    return ctx


def dft(x: GroupRingElement, ctx: AmbientDecomposition | None = None) -> dict:
    """Evaluate x at every character: group element h -> sum_a x_a *
    zeta^gamma_h(a), in the extension ring ctx.big."""
    ctx = _transform_context(x, ctx)
    lifted = [(a, embed(c, ctx.big)) for a, c in x.terms()]
    return dict(_character_sums(ctx, lifted, 1))


def idft(values: dict, ctx: AmbientDecomposition) -> GroupRingElement:
    """Inverse transform of the points values gives (the rest read as 0):
    x_a = |A|^(-1) * sum_h values[h] * zeta^(-gamma_h(a)).

    Every point must be an element of A.  The result must have coefficients
    in the base ring; landing outside its embedded image means the values
    were not Frobenius-coherent, which is reported as a broken invariant.
    """
    _check_type("values", values, dict)
    index = _group_index(_check_type("ctx", ctx, AmbientDecomposition).group.factors)
    for h in values:
        if h not in index or any(type(c) is not int for c in h):
            raise DomainError(f"point {h!r} is not an element of {ctx.group!r}")
    vec: list[int] = []
    for _, acc in _character_sums(ctx, values.items(), -1):
        vec += unembed(acc * ctx.inv_group_order, ctx.spec).coeffs
    return GroupRingElement(ctx.ring, tuple(vec))


def class_idempotents(ctx: AmbientDecomposition) -> tuple[tuple[int, ...], ...]:
    """The idempotent e_C of each class C, in partition order, as the digit
    vector of an element of GR[A]: the inverse transform of 1 on C, given
    only C's points, so each costs |A| * |C|."""
    if _check_type("ctx", ctx, AmbientDecomposition)._idempotents is None:
        one = ctx.big.one()
        ctx._idempotents = tuple(idft({h: one for h in cls.elements}, ctx).coeffs
                                 for cls in ctx.parts.classes)
    return ctx._idempotents


def _slots(ctx: AmbientDecomposition, pairing: str) -> list:
    """A pairing's slots as the partition lists them, singles then pairs in
    layout order, each with its component ring: (class index, component
    ring, spreads)."""
    return [(i, ctx.component_spec(len(spreads[0][0])), spreads)
            for i, spreads in ctx.parts._pairing_layout(pairing)[2]]


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
        if not isinstance(other, DecomposedElement):
            raise DomainError(f"cannot multiply the {self.pairing} decomposition of "
                              f"{self.context.ring!r} by {type(other).__name__}")
        if self.context is not other.context or self.pairing != other.pairing:
            raise DomainError(f"cannot multiply the {self.pairing} decomposition of "
                              f"{self.context.ring!r} by the {other.pairing} one of "
                              f"{other.context.ring!r}")
        _check_slots(self)
        _check_slots(other)
        singles = {i: a * other.singles[i] for i, a in self.singles.items()}
        pairs = {i: (a * other.pairs[i][0], b * other.pairs[i][1])
                 for i, (a, b) in self.pairs.items()}
        return DecomposedElement(self.context, self.pairing, singles, pairs)


def _check_slots(dec: DecomposedElement) -> list:
    """The slots of dec's pairing, once dec holds a value at each single
    slot, a pair of values at each pair slot and nothing else."""
    def refuse(what: str):
        raise DomainError(f"the {dec.pairing} decomposition of {dec.context.ring!r} {what}")
    slots = _slots(dec.context, dec.pairing)
    for held, width, kind in ((dec.singles, 1, "single"), (dec.pairs, 2, "pair")):
        want = {i for i, _, spreads in slots if len(spreads) == width}
        for i in sorted(want - held.keys()):
            refuse(f"has no value at its {kind} slot {i}")
        for i in held.keys() - want:
            refuse(f"has no {kind} slot {i!r}")
    for i, pair in dec.pairs.items():
        if not (isinstance(pair, tuple) and len(pair) == 2):
            refuse(f"holds {pair!r} at its pair slot {i}, not two values")
    return slots


def _decompose(x: GroupRingElement, ctx: AmbientDecomposition | None,
               pairing: str) -> DecomposedElement:
    """Component image under the pairing rule: for each spread (orbit, t),
    the value at orbit[0] twisted by the Frobenius power -t, so a pair
    stores (value at a, value at -p^h * a twisted by -h)."""
    ctx = _transform_context(x, ctx)
    slots = _slots(ctx, pairing)
    values = dft(x, ctx)
    singles, pairs = {}, {}
    for i, spec, spreads in slots:
        slot = tuple(unembed(generalized_frobenius(values[orbit[0]], -t) if t else values[orbit[0]],
                             spec) for orbit, t in spreads)
        if len(slot) == 1:
            singles[i] = slot[0]
        else:
            pairs[i] = slot
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
    """Inverse of decompose_euclidean / decompose_hermitian: point k of a
    spread (orbit, t) gets the slot's value shifted by Frobenius s*k + t."""
    if not isinstance(dec, DecomposedElement):
        raise DomainError(f"cannot compose {type(dec).__name__}: not a DecomposedElement")
    ctx = dec.context
    s = ctx.spec.s
    values: dict = {}
    for i, spec, spreads in _check_slots(dec):
        slot = dec.pairs[i] if i in dec.pairs else (dec.singles[i],)
        for (orbit, twist), value in zip(spreads, slot):
            if _owner(value) != spec:
                raise DomainError(f"slot {i} of the {dec.pairing} decomposition of "
                                  f"{ctx.ring!r} holds an element of {_owner(value)}, "
                                  f"not of {spec}")
            value_big = embed(value, ctx.big)
            for k, point in enumerate(orbit):
                e = twist + s * k
                values[point] = generalized_frobenius(value_big, e) if e else value_big
    return idft(values, ctx)


# -- text format ---------------------------------------------------------------

def element_text(x: GroupRingElement) -> str:
    """Dense coefficient list in lexicographic group order, ';' separated."""
    spec = _check_type("x", x, GroupRingElement).ring.coeff
    if not isinstance(spec, GaloisRingSpec):
        raise DomainError("text format applies to Galois-ring coefficients")
    return ";".join(_scalar_text(x.coefficient(g)) for g in x.ring.group.elements())


def parse_element(ring: GroupRing, text: str) -> GroupRingElement:
    spec = _check_type("ring", ring, GroupRing).coeff
    if not isinstance(spec, GaloisRingSpec):
        raise DomainError("text format applies to Galois-ring coefficients")
    parts = text.strip().split(";")
    elems = ring.group.elements()
    if len(parts) != len(elems):
        raise DomainError(f"expected {len(elems)} coefficients in {text!r}")
    return ring.element({g: _scalar_parse(spec, t) for g, t in zip(elems, parts)})

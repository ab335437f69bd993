"""Abelian codes as explicit ideals of GR(p^r, s)[G], held as Z_{p^r}-modules.

An element's coeffs are its s*|G| coefficient digits mod p^r (blocks of s
per group element, groups in lexicographic order).  The ideal
generated by v is the span over Z_{p^r} of {x^j * Y^g * v}, since the
powers of the residue generator form a module basis of the coefficient
ring; those rows are group_ring's product kernel.  Each ideal is held by
its Howell basis (linalg.howell), so ideal identity is basis identity.
group_ring owns the digit tables (group positions, shifts Y^g, block
steps, the Sylow re-indexing) and this module the walk's class projectors
(_line_projectors), each an lru_cache keyed by what it depends on and
shared by every engine.  So an engine is one ring and a bound, and a walk
changes nothing on it.

Principal ideals, joins, duals, membership and self-duality are linear
algebra over Z_{p^r} (linalg), polynomial in s*|G|, and run at any ring
size.  Only the two listings, of every ideal (ideal_stream and everything
built on it) and of an ideal's elements, refuse rings larger than the
exhaustive bound (environment variable GALCODES_MAX_RING_SIZE, default
2^16).

The enumeration is a breadth-first walk over socle covers from the zero
ideal.  With G = A x P, P the Sylow p-subgroup, the Jacobson radical is
J = pR + sum_g (Y^g - 1)R, g generating the p-part of each cyclic factor,
and R/J = F_{p^s}[A].  The socle layer of an ideal I is
S(I) = {v : J * v in I}.  J is closed under the involution Y^g -> Y^-g,
the adjoint of multiplication for the Euclidean form, so
S(I) = (J * I^perp)^perp: two annihilators, the kernels that dual also
takes.  perp is an involution on ideals, so a walk keeps each pair it
takes both ways: about one kernel per two ideals.  J * S(I) lies in I, so
S(I)/I is a module over R/J = F_q[A] = prod_C F_Q, Q = q^nu_C, C over the
q-cyclotomic classes of A, q = p^s.  Its simple submodules, the covers of
I, are the F_Q-lines of the summands e_C * (S(I)/I), e_C the class
idempotents, and each line gives its cover I + (v) through one vector v.
R acts on a line of lead v through F_Q = e_C * R / e_C * J, so the rows
x^j * Y^g * v of an F_p-basis of the line sit at positions fixed by C,
found once per ring.  Every ideal K above I meets S(I) outside I, since
J is nilpotent, so every ideal is reached by a chain of covers from zero.

Also hosts the existence criterion and the two constructive results: a
self-dual code built whenever the criterion allows one, and the
componentwise enumeration of self-dual codes when |G| is coprime to p.
Both work on digit vectors, sums and p-power multiples of the class
idempotents, which group_ring places inside GR[G], and make group-ring
elements only of their outputs.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .cyclotomic import EUCLIDEAN, HERMITIAN, _pairing_twist  # noqa: F401 (re-exported)
from .errors import BoundExceededError, DomainError, InternalInvariantError, _check_int, _check_type
from .galois import GaloisRingSpec, _check_ring, construct_ring
from .groups import AbelianGroup, sylow_decompose
from .group_ring import (GroupRing, GroupRingElement, _block_steps, _group_index, _monomial_rows,
                         _owner, _shift_perms, _sylow_place, ambient, class_idempotents)
from .linalg import howell, kernel, pivot, remainder
from .numth import valuation

DEFAULT_BOUND = 1 << 16
BOUND_ENV_VAR = "GALCODES_MAX_RING_SIZE"
MAX_REPRESENTATIVES = 10000


def exhaustive_bound() -> int:
    raw = os.environ.get(BOUND_ENV_VAR)
    if raw is None:
        return DEFAULT_BOUND
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{BOUND_ENV_VAR}={raw!r} is not an integer") from None


def _radical_rows(spec: GaloisRingSpec, factors: tuple[int, ...], basis):
    """Howell basis of J * M, M the ideal of spec[factors] spanned by these
    rows: the span of p * b and (Y^g - 1) * b over the rows b, g = f / p^v(f)
    the generator of the p-part of each cyclic factor Z_f of G."""
    p, m = spec.p, spec.char
    perms, index = _shift_perms(factors, spec.s), _group_index(factors)
    rows = [tuple(p * a % m for a in b) for b in basis]
    for k, f in enumerate(factors):
        g = [0] * len(factors)
        g[k] = f // p**valuation(f, p)
        if g[k] < f:
            perm = perms[index[tuple(g)]]
            rows += [tuple((b[t] - a) % m for t, a in zip(perm, b)) for b in basis]
    return howell(rows, p, spec.r)


@lru_cache(maxsize=None)
def _line_projectors(ring: GroupRing) -> tuple:
    """Per class C of A in partition order, the columns of multiplication
    by e_C in ring = GR[G] and the picks of its lines.  e_C is the class
    idempotent of GR[A], placed inside GR[G] by _sylow_place, so e_C * v is
    v dotted with each column.

    The picks are the positions t of the rows x^j * Y^g * e_C, row
    t = g * s + j, that a greedy pass keeps as an F_p-basis of
    e_C * R / e_C * J = F_Q, Q = q^nu_C: s * nu_C of them.  The pass
    works modulo J, which meets e_C * R in e_C * J.
    """
    spec, factors = ring.coeff, ring.group.factors
    p, r, m, s = spec.p, spec.r, spec.char, spec.s
    monomials = list(_monomial_rows(spec, factors, ring.one().coeffs))
    radical = _radical_rows(spec, factors, monomials)  # J = J * (1)
    dec = sylow_decompose(ring.group, p)
    ctx = ambient(spec, dec.coprime_part)
    projectors = []
    for e, cls in zip(class_idempotents(ctx), ctx.parts.classes):
        rows = list(_monomial_rows(spec, factors, _sylow_place(e, dec, s)))
        span, picks = radical, []
        for t, row in enumerate(rows):
            if any(remainder(span, row, m)):
                picks.append(t)
                if len(picks) == s * len(cls.elements):
                    break
                span = howell(span + (row,), p, r)
        projectors.append((tuple(zip(*rows)), tuple(picks)))
    return tuple(projectors)


class ExhaustiveGroupRing:
    """Flat-vector arithmetic for one group ring.

    bound (default exhaustive_bound()) caps the ring size at which the
    exponential operations, ideal enumeration and element listing, run;
    a bound below 1 is refused here, whatever its source.
    _require_enumerable holds the one rule for that size: code that must
    know whether a ring is small enough asks it rather than compare sizes.
    """

    def __init__(self, ring: GroupRing, bound: int | None = None):
        spec = _check_type("ring", ring, GroupRing).coeff
        if not isinstance(spec, GaloisRingSpec):
            raise DomainError("exhaustive engine needs Galois-ring coefficients")
        self.ring = ring
        self.spec = spec
        self.group = ring.group
        self.s = spec.s
        self.p = spec.p
        self.r = spec.r
        self.m = spec.char
        self.n = ring.width
        self.ring_size = self.m**self.n
        self.bound = _check_int("the exhaustive bound",
                                exhaustive_bound() if bound is None else bound, 1)

    def __repr__(self) -> str:
        return f"ExhaustiveGroupRing({self.ring!r})"

    @property
    def _size_text(self) -> str:
        """|ring| in decimal while it fits 64 bits, else as p^e: by default
        Python refuses to turn an integer of over 4300 digits into text."""
        if self.ring_size.bit_length() <= 64:
            return str(self.ring_size)
        return f"{self.p}^{self.r * self.n}"

    def _require_enumerable(self) -> None:
        """The one refusal: listing every ideal, or every element of one."""
        if self.ring_size > self.bound:
            raise BoundExceededError(
                f"|ring| = {self._size_text} exceeds the exhaustive bound {self.bound}")

    def _check_ideal(self, code: "Ideal") -> None:
        if _check_type("ideal", code, Ideal).engine is not self and code.engine.ring != self.ring:
            raise DomainError(f"ideal of {code.engine.ring!r} used in {self.ring!r}")

    def _check_vector(self, vec) -> None:
        if len(vec) != self.n:
            raise DomainError(
                f"vector of {len(vec)} digits used in {self.ring!r}, which has {self.n}")
        for d in vec:
            if not (type(d) is int and 0 <= d < self.m):
                raise DomainError(f"digit {d!r} of a vector over Z_{self.m} is not in [0, {self.m})")

    # -- element <-> vector ---------------------------------------------------

    def to_vector(self, x: GroupRingElement) -> tuple[int, ...]:
        owner = _owner(x)
        if owner != self.ring:
            raise DomainError(f"element of {owner} used in {self.ring!r}")
        return x.coeffs

    def from_vector(self, vec) -> GroupRingElement:
        vec = tuple(vec)
        self._check_vector(vec)
        return GroupRingElement(self.ring, vec)

    def decode_vector(self, k: int) -> tuple[int, ...]:
        if not 0 <= _check_int("encoding", k) < self.ring_size:
            raise DomainError(f"encoding {k} is not in [0, {self._size_text})")
        m = self.m
        out = []
        for _ in range(self.n):
            k, d = divmod(k, m)
            out.append(d)
        return tuple(out)

    def encode_vector(self, vec) -> int:
        self._check_vector(vec)
        return self._encode(vec)

    def _encode(self, vec) -> int:
        """encode_vector without the check, for rows already checked."""
        out = 0
        for d in reversed(vec):
            out = out * self.m + d
        return out

    def principal_rows(self, vec) -> list[tuple[int, ...]]:
        """Module generators of the ideal (vec): all x^j * Y^g * vec, the
        rows of the product kernel, row g * s + j."""
        return list(_monomial_rows(self.spec, self.group.factors, vec))

    def howell(self, rows) -> tuple[tuple[int, ...], ...]:
        return howell(rows, self.p, self.r)

    # -- ideals ----------------------------------------------------------------

    def ideal_from_rows(self, rows) -> "Ideal":
        """The Z_{p^r}-span of these digit vectors, each checked."""
        rows = [tuple(row) for row in rows]
        for row in rows:
            self._check_vector(row)
        return Ideal(self, self.howell(rows))

    def generated_ideal(self, vectors) -> "Ideal":
        """The ideal generated by the elements with these digit vectors, each
        checked."""
        vectors = [tuple(v) for v in vectors]
        for vec in vectors:
            self._check_vector(vec)
        return Ideal(self, self.howell([row for v in vectors for row in self.principal_rows(v)]))

    def principal_ideal(self, x) -> "Ideal":
        """The ideal of x, an element of the ring or a digit vector."""
        if isinstance(x, GroupRingElement) or not hasattr(x, "__iter__"):
            vec = self.to_vector(x)
        else:
            vec = tuple(x)
            self._check_vector(vec)
        return Ideal(self, self.howell(self.principal_rows(vec)))

    def zero_ideal(self) -> "Ideal":
        return Ideal(self, ())

    def unit_ideal(self) -> "Ideal":
        return self.principal_ideal(self.ring.one())

    def join(self, a: "Ideal", b: "Ideal") -> "Ideal":
        self._check_ideal(a)
        self._check_ideal(b)
        return Ideal(self, self.howell(a.basis + b.basis))

    def _socle_layer(self, code: "Ideal", perps: dict) -> tuple[tuple[int, ...], ...]:
        """Howell basis of S(I) = {v : J * v in I} = (J * I^perp)^perp.

        J is generated by p and by Y^g - 1 over the p-parts of the cyclic
        factors.  J is closed under the involution Y^g -> Y^-g, which is the
        adjoint of multiplication for the Euclidean form, so J * v lies in I
        exactly when v is orthogonal to J * I^perp, whose Howell basis
        _radical_rows gives the second annihilator.

        perps maps the Howell basis of an ideal M to that of its Euclidean
        annihilator, for one walk.  Over these Frobenius rings perp is an
        involution on ideals, (M^perp)^perp = M, so each annihilator taken
        is stored both ways, M -> M^perp and M^perp -> M: the walk meets
        I, I^perp, J * I^perp and S(I) again as the inputs of other
        layers.  The dict holds ideals only: the annihilator of a
        Z_{p^r}-span is that of the span it generates under x, so the
        reverse entry of a span not closed under x would be wrong, s > 1.
        """
        radical = _radical_rows(self.spec, self.group.factors, self._perp(code.basis, perps))
        return self._perp(radical, perps)

    def _perp(self, basis, perps: dict) -> tuple[tuple[int, ...], ...]:
        """Howell basis of the Euclidean annihilator of the ideal with this
        Howell basis: read from perps, or taken and stored there both ways."""
        if basis not in perps:
            perp = self._annihilator(basis, 0)
            perps[basis], perps[perp] = perp, basis
        return perps[basis]

    def _line_bases(self, code: "Ideal", socle) -> list:
        """Per class C, in partition order, the F_p-bases of the F_Q-lines
        that a greedy pass picks as a basis of e_C * (S(I)/I), Q = q^nu_C,
        socle the rows of S(I) (_socle_layer).

        The socle rows, projected by e_C, that leave the span of I and the
        lines already taken lead new lines.  A line is (I + (lead))/I, and
        x^j * Y^g acts on it through its image in F_Q = e_C * R / e_C * J,
        since J * lead lies in I: a -> a * lead maps F_Q onto the line.  So
        its F_p-basis is its lead's rows x^j * Y^g * lead at the class's
        picks (_line_projectors), the rows a greedy pass over all of them
        would keep, and the span grows once per line.
        """
        p, r, m = self.p, self.r, self.m
        span, summands = code.basis, []
        for columns, picks in _line_projectors(self.ring):
            bases = []
            for row in socle:
                lead = tuple(sum(map(mul, row, col)) % m for col in columns)
                if not any(remainder(span, lead, m)):
                    continue
                rows = _monomial_rows(self.spec, self.group.factors, lead)
                rows = list(itertools.islice(rows, picks[-1] + 1))
                basis = [rows[t] for t in picks]
                span = howell(span + tuple(basis), p, r)
                bases.append(basis)
            summands.append(bases)
        return summands

    def _cover_points(self, code: "Ideal", socle):
        """One vector per simple submodule of S(I)/I, that is per cover of I.

        J * S(I) lies in I, so S(I)/I is a module over R/J = F_q[A], the
        product of the fields F_Q, Q = q^nu_C, over the q-cyclotomic classes
        C of A, and its simple submodules are the F_Q-lines of the summands
        e_C * (S(I)/I), each of F_p-dimension s * nu_C.  A line of a summand
        is the lead of one of its _line_bases plus an F_p-combination of the
        bases of the summand's later lines, yielded last line first.  socle
        holds the rows of S(I) (_socle_layer).
        """
        p, m = self.p, self.m
        lines = [(basis[0], [b for later in bases[k + 1:] for b in later])
                 for bases in self._line_bases(code, socle) for k, basis in enumerate(bases)]
        for lead, tail in reversed(lines):
            for coeffs in itertools.product(range(p), repeat=len(tail)):
                vec = lead
                for c, b in zip(coeffs, tail):
                    if c:
                        vec = tuple((x + c * y) % m for x, y in zip(vec, b))
                yield vec

    def ideal_stream(self):
        """Every ideal exactly once, the zero ideal first, by a breadth-first
        walk over socle covers.

        Each found ideal I is joined with the principal ideal of one vector
        of each F_Q-line of the summands e_C * (S(I)/I), S(I) = {v : J * v
        in I}, J the Jacobson radical: one join per cover of I, each cover
        yielded when new.  Every K above I meets S(I) outside I, since J is
        nilpotent: for v in K outside I, take the largest k with J^k * v not
        inside I; J^k * v holds such an element.  So some cover of I lies in
        K, and every ideal is reached by a chain of covers from zero.  A
        vector recurs across the ideals it covers, so the walk builds each
        vector's principal ideal once, in a dict that lives as long as the
        walk.  The socle layers' annihilators recur too, and perp is an
        involution on ideals, so a second dict of the walk holds each
        annihilator pair both ways (_socle_layer).  Each socle layer is
        taken once, here, and its rows handed to _cover_points.  The engine
        keeps neither dict.  The walk keeps every found ideal, so rings
        above the bound are refused (on the first next()) before any is
        yielded.
        """
        self._require_enumerable()
        zero = self.zero_ideal()
        seen = {zero.basis}
        found = [zero]
        principal = {}  # cover vector -> its principal ideal, for this walk
        perps = {}  # ideal basis <-> its annihilator's basis, for this walk
        yield zero
        for ideal in found:  # found grows as the loop runs
            for vec in self._cover_points(ideal, self._socle_layer(ideal, perps)):
                if vec not in principal:
                    principal[vec] = self.principal_ideal(vec)
                cover = self.join(ideal, principal[vec])
                if cover.basis not in seen:
                    seen.add(cover.basis)
                    found.append(cover)
                    yield cover

    def enumerate_ideals(self) -> tuple["Ideal", ...]:
        return tuple(sorted(self.ideal_stream(), key=lambda c: (c.size, c.basis)))

    # -- forms and duality ------------------------------------------------------

    def _annihilator(self, rows, h: int) -> tuple[tuple[int, ...], ...]:
        """Howell basis of {w : form(u, w) = 0 for every row u}, the form of
        twist h: the left kernel of the n x k matrix, k = s * len(rows),
        whose columns are the rows' form coefficients, each row's s columns
        of its block steps under the twist."""
        columns = [col for row in rows for col in zip(*_block_steps(self.spec, h, row))]
        return kernel(list(zip(*columns)) if columns else [()] * self.n, self.p, self.r)

    def dual(self, code: "Ideal", form: str = EUCLIDEAN) -> "Ideal":
        """Annihilator {w : form(u, w) = 0 for all u in the code}.

        The basis rows span the code over Z_{p^r} and already absorb all
        monomial shifts (the code is an ideal), so the annihilator of the
        basis rows is the dual.
        """
        self._check_ideal(code)
        return Ideal(self, self._annihilator(code.basis, _pairing_twist(form, self.s)))

    def is_self_orthogonal(self, code: "Ideal", form: str = EUCLIDEAN) -> bool:
        self._check_ideal(code)
        h = _pairing_twist(form, self.s)
        m = self.m
        basis = code.basis
        for i, row in enumerate(basis):
            # the form is symmetric up to conjugation: pairs i <= j suffice
            for col in zip(*_block_steps(self.spec, h, row)):
                for w in basis[i:]:
                    if sum(map(mul, w, col)) % m:
                        return False
        return True

    def is_self_dual(self, code: "Ideal", form: str = EUCLIDEAN) -> bool:
        """size matches and the code sits inside its own annihilator.

        |C| * |dual C| = |ring| over these rings, so inclusion plus the
        size condition pins C = dual(C) without computing the dual.  The
        form is checked first, so a bad one is refused at any size."""
        self._check_ideal(code)
        _pairing_twist(form, self.s)
        if code.size * code.size != self.ring_size:
            return False
        return self.is_self_orthogonal(code, form)

    def count_self_dual(self, form: str = EUCLIDEAN) -> int:
        _pairing_twist(form, self.s)
        return sum(1 for c in self.ideal_stream() if self.is_self_dual(c, form))


class Ideal:
    """An ideal held by its Howell basis; identity is basis identity.

    The basis must be a Howell basis (linalg): a row with pivot p^e has
    m // p^e multiples, and the size is their product.
    """

    __slots__ = ("engine", "basis", "_size")

    def __init__(self, engine: ExhaustiveGroupRing, basis):
        self.engine = engine
        self.basis = basis
        self._size = None

    @property
    def size(self) -> int:
        if self._size is None:
            size = 1
            for row in self.basis:
                size *= self.engine.m // row[pivot(row)]
            self._size = size
        return self._size

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Ideal)
                and self.engine.ring == other.engine.ring and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.engine.ring, self.basis))

    def __repr__(self) -> str:
        return f"Ideal(size={self.size}, rank={len(self.basis)})"

    def contains_vector(self, vec) -> bool:
        self.engine._check_vector(vec)
        return not any(remainder(self.basis, vec, self.engine.m))

    def contains(self, x: GroupRingElement) -> bool:
        return self.contains_vector(self.engine.to_vector(x))

    def element_encodings(self) -> tuple[int, ...]:
        """All member elements as digit encodings, sorted.

        Refuses rings above the engine's bound, like ideal enumeration.
        """
        engine = self.engine
        engine._require_enumerable()
        members = [tuple([0] * engine.n)]
        for row in self.basis:
            lead = row[pivot(row)]
            members = [tuple((x + k * y) % engine.m for x, y in zip(v, row))
                       for v in members for k in range(engine.m // lead)]
        encodings = tuple(sorted(engine._encode(v) for v in members))
        if len(set(encodings)) != self.size:
            raise InternalInvariantError("size disagrees with the distinct members")
        return encodings

    def elements(self) -> list[GroupRingElement]:
        engine = self.engine
        return [engine.from_vector(engine.decode_vector(k))
                for k in self.element_encodings()]

    def generators(self) -> list[GroupRingElement]:
        """A short generating list found greedily from the basis rows."""
        engine = self.engine
        for row in self.basis:
            if engine.principal_ideal(row) == self:
                return [engine.from_vector(row)]
        gens = []
        current = engine.zero_ideal()
        for row in self.basis:
            if not current.contains_vector(row):
                gens.append(row)
                current = engine.join(current, engine.principal_ideal(row))
            if current == self:
                break
        if current != self:
            raise InternalInvariantError("basis rows failed to regenerate ideal")
        return [engine.from_vector(row) for row in gens]


# -- constructive self-dual codes ----------------------------------------------


@dataclass(frozen=True)
class SelfDualConstruction:
    """Output of construct_self_dual: generators, and the ideal if small enough."""

    p: int
    r: int
    s: int
    group: AbelianGroup
    form: str
    generators: tuple[GroupRingElement, ...]
    ideal: Ideal | None


def _idempotent_sum(e, indices, scale: int, m: int) -> tuple[int, ...]:
    """scale * (sum of the idempotents e[i], i in indices), digitwise mod m:
    the element of GR[A] with the integer scale at the slots of indices."""
    total = None  # the first idempotent as it is, then digitwise sums
    for i in indices:
        total = e[i] if total is None else [a + b for a, b in zip(total, e[i])]
    return tuple([scale * a % m for a in total or [0] * len(e[0])])


def exists_self_dual(p: int, r: int, group: AbelianGroup,
                     duality: str = EUCLIDEAN, s: int = 1) -> bool:
    """Self-dual abelian codes exist iff r is even, or p = 2 and |G| is even."""
    _check_ring(p, r, s)
    _pairing_twist(duality, s)
    _check_type("group", group, AbelianGroup)
    return r % 2 == 0 or (p == 2 and group.order % 2 == 0)


def construct_self_dual(p: int, r: int, s: int, group: AbelianGroup,
                        form: str = EUCLIDEAN, bound: int | None = None) -> SelfDualConstruction:
    """A self-dual abelian code in GR(p^r, s)[G], when one exists.

    r even: the principal ideal of p^(r/2).  Otherwise p = 2 and |G| even
    are required, and the code is assembled componentwise over
    GR[G] = (GR[A])[P]: each single component K[P] carries
    2^r' K[P] + 2^(r'-1) K[P] (Y^x + 1) with r = 2r' - 1 and x of order 2
    in P, while each paired component carries (everything, zero).  Both
    generators are constant over P apart from the factor Y^x + 1, so each
    is one sum of class idempotents of GR[A], placed at Y^0 (and Y^x)
    inside GR[G] by one _sylow_place.  All of this is digit
    vectors; zero generators are dropped.  The ideal is materialized when
    the engine's size rule accepts the ring under bound (default
    exhaustive_bound()); the generators are returned either way.
    """
    spec = construct_ring(p, r, s)
    if not exists_self_dual(p, r, group, form, s):
        raise DomainError(
            f"no self-dual code in GR({p}^{r},{s})[{group!r}]: "
            "needs r even, or p = 2 with |G| even")
    engine = ExhaustiveGroupRing(GroupRing(spec, group), bound)
    if r % 2 == 0:
        vecs = [[p**(r // 2) * d for d in engine.ring.one().coeffs]]
    else:
        dec = sylow_decompose(group, p)
        p_group = dec.p_part
        ctx = ambient(spec, dec.coprime_part)
        singles, pairs = ctx.parts.layout(form)
        # an order-2 element of P; the factors are powers of 2 and at
        # least one is nontrivial since |G| is even
        x2 = tuple((f // 2 if k == 0 else 0) for k, f in enumerate(p_group.factors))
        rp = (r + 1) // 2
        e, m = class_idempotents(ctx), spec.char
        g2 = _idempotent_sum(e, singles, p**(rp - 1), m)
        g1 = [(p * a + b) % m for a, b in zip(g2, _idempotent_sum(e, (i for i, _ in pairs), 1, m))]
        vecs = [v for v in (_sylow_place(g1, dec, s),
                            _sylow_place(g2, dec, s, (p_group.identity, x2))) if any(v)]
    gens = tuple(engine.from_vector(v) for v in vecs)
    try:
        engine._require_enumerable()
    except BoundExceededError:
        return SelfDualConstruction(p, r, s, group, form, gens, None)
    return SelfDualConstruction(p, r, s, group, form, gens, engine.generated_ideal(vecs))


@dataclass(frozen=True)
class SemisimpleSelfDualFamily:
    """All self-dual codes of GR(p^r, s)[A] with |A| coprime to p.

    Each representative is the generator list of one code: a scaled
    idempotent per component slot, the paired slots carrying the two
    complementary chain-ring ideals.
    """

    p: int
    r: int
    s: int
    group: AbelianGroup
    form: str
    count: int
    representatives: tuple[tuple[GroupRingElement, ...], ...]


def enumerate_semisimple_selfdual(p: int, r: int, s: int, group: AbelianGroup,
                                  form: str = EUCLIDEAN) -> SemisimpleSelfDualFamily:
    """Componentwise enumeration: singles are forced to p^(r/2) K, pairs
    range over the chain (p^i K, p^(r-i) K), i = 0..r.  Families of more
    than MAX_REPRESENTATIVES codes are counted but not listed."""
    spec = construct_ring(p, r, s)
    _pairing_twist(form, s)
    ctx = ambient(spec, group)
    singles, pairs = ctx.parts.layout(form)
    if r % 2:
        return SemisimpleSelfDualFamily(p, r, s, group, form, 0, ())
    count = (r + 1)**len(pairs)
    reps = []
    if count <= MAX_REPRESENTATIVES:
        e, m = class_idempotents(ctx), spec.char
        single_gens = [GroupRingElement(ctx.ring, _idempotent_sum(e, (i,), p**(r // 2), m))
                       for i in singles]
        # ladders[k][member][exp]: p^exp times that member's idempotent, exp < r
        ladders = [[[GroupRingElement(ctx.ring, _idempotent_sum(e, (i,), p**exp, m))
                     for exp in range(r)] for i in pair] for pair in pairs]
        for choice in itertools.product(range(r + 1), repeat=len(pairs)):
            gens = list(single_gens)
            for ladder, w in zip(ladders, choice):
                for member, exp in ((0, w), (1, r - w)):
                    if exp < r:
                        gens.append(ladder[member][exp])
            reps.append(tuple(gens))
    return SemisimpleSelfDualFamily(p, r, s, group, form, count, tuple(reps))

"""Abelian codes as explicit ideals of GR(p^r, s)[G], held as Z_{p^r}-modules.

An element's coeffs are its s*|G| coefficient digits mod p^r (blocks of s
per group element, groups in lexicographic order).  The ideal
generated by v is the span over Z_{p^r} of {x^j * Y^g * v}, since the
powers of the residue generator form a module basis of the coefficient
ring; those rows are group_ring's product kernel.  Each ideal is held by
its Howell basis (linalg.howell), so ideal identity is basis identity.
group_ring owns the digit tables (group positions, shifts Y^g, block
steps), shared by every engine, so an engine is a plain view of one ring
and a bound.

Principal ideals, joins, duals, membership and self-duality are linear
algebra over Z_{p^r} (linalg), polynomial in s*|G|, and run at any ring
size.  Only the work that walks all p^(r*s*|G|) ring elements, enumerating
the ideals (ideal_stream and everything built on it) and listing an
ideal's elements, refuses rings larger than the exhaustive bound
(environment variable GALCODES_MAX_RING_SIZE, default 2^16).  The
enumeration takes one principal ideal per orbit of generators under the
unit scalars of Z_{p^r} and the shifts Y^g, since an orbit spans one
ideal, and closes the found ideals under joins with principal ideals only,
since every ideal is a sum of principal ideals.  The join I + (v) depends
only on the coset v + I, which linalg.remainder reduces to one remainder
by the basis of I, so the closure joins each found ideal once per
remainder of the principal generators, and not at all when it is zero.

Also hosts the two constructive results: a self-dual code built whenever
the existence criterion allows one, and the componentwise enumeration of
self-dual codes when |G| is coprime to p.  Both work on digit vectors,
sums and p-power multiples of the class idempotents, re-indexed along P
by the Sylow digit permutation, and make group-ring elements only of
their outputs.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from operator import mul

from .counting import exists_self_dual
from .cyclotomic import EUCLIDEAN, HERMITIAN, _pairing_twist  # noqa: F401 (re-exported)
from .errors import BoundExceededError, DomainError, InternalInvariantError
from .galois import GaloisRingSpec, construct_ring
from .groups import AbelianGroup, sylow_decompose
from .group_ring import (GroupRing, GroupRingElement, _block_steps, _group_index, _monomial_rows,
                         _shift_perms, _sylow_merge_vector, ambient, class_idempotents)
from .linalg import howell, kernel, pivot, remainder

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


class ExhaustiveGroupRing:
    """Flat-vector arithmetic for one group ring.

    bound (default exhaustive_bound()) caps the ring size at which the
    exponential operations, ideal enumeration and element listing, run;
    a bound below 1 is refused here, whatever its source.
    _require_enumerable holds the one rule for that size: code that must
    know whether a ring is small enough asks it rather than compare sizes.
    """

    def __init__(self, ring: GroupRing, bound: int | None = None):
        spec = ring.coeff
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
        self.bound = exhaustive_bound() if bound is None else bound
        if self.bound < 1:
            raise DomainError(f"the exhaustive bound must be at least 1, got {self.bound}")

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
        """The one refusal: work that walks every ring element."""
        if self.ring_size > self.bound:
            raise BoundExceededError(
                f"|ring| = {self._size_text} exceeds the exhaustive bound {self.bound}")

    def _check_ideal(self, code: "Ideal") -> None:
        if code.engine is not self and code.engine.ring != self.ring:
            raise DomainError(f"ideal of {code.engine.ring!r} used in {self.ring!r}")

    def _check_vector(self, vec) -> None:
        if len(vec) != self.n:
            raise DomainError(
                f"vector of {len(vec)} digits used in {self.ring!r}, which has {self.n}")
        for d in vec:
            if not 0 <= d < self.m:
                raise DomainError(f"digit {d} of a vector over Z_{self.m} is not in [0, {self.m})")

    # -- element <-> vector ---------------------------------------------------

    def to_vector(self, x: GroupRingElement) -> tuple[int, ...]:
        if x.ring != self.ring:
            raise DomainError("element belongs to a different ring")
        return x.coeffs

    def from_vector(self, vec) -> GroupRingElement:
        vec = tuple(vec)
        self._check_vector(vec)
        return GroupRingElement(self.ring, vec)

    def decode_vector(self, k: int) -> tuple[int, ...]:
        m = self.m
        out = []
        for _ in range(self.n):
            k, d = divmod(k, m)
            out.append(d)
        return tuple(out)

    def encode_vector(self, vec) -> int:
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
        return Ideal(self, self.howell(rows))

    def generated_ideal(self, vectors) -> "Ideal":
        """The ideal generated by the elements with these digit vectors."""
        return self.ideal_from_rows([row for v in vectors for row in self.principal_rows(v)])

    def principal_ideal(self, x) -> "Ideal":
        if isinstance(x, GroupRingElement):
            vec = self.to_vector(x)
        else:
            vec = tuple(x)
            self._check_vector(vec)
        return self.ideal_from_rows(self.principal_rows(vec))

    def zero_ideal(self) -> "Ideal":
        return Ideal(self, ())

    def unit_ideal(self) -> "Ideal":
        return self.principal_ideal(self.ring.one())

    def join(self, a: "Ideal", b: "Ideal") -> "Ideal":
        self._check_ideal(a)
        self._check_ideal(b)
        return self.ideal_from_rows(a.basis + b.basis)

    def _orbit_least(self, vec, moves) -> bool:
        """True when no u * Y^g * vec has a smaller encoding than vec.

        moves lists the (perm, u) pairs of the unit scalars and shifts,
        the identity left out.  Digits are compared from the most
        significant down, so most candidates are settled by the first.
        """
        m = self.m
        top = range(self.n - 1, -1, -1)
        for perm, u in moves:
            for i in top:
                a = u * vec[perm[i]] % m
                if a != vec[i]:
                    if a < vec[i]:
                        return False
                    break
        return True

    def ideal_stream(self):
        """Every ideal exactly once: principal ideals, then join closure.

        Every u * Y^g * v, u a unit of Z_{p^r}, spans the ideal of v, so
        the scan takes the principal ideal of v only when v has the least
        encoding in that orbit; the least generator of each principal
        ideal always has, so the principal ideals come in the order of a
        full scan.  Every ideal is the sum of the principal ideals of its
        basis rows, so the closure joins each found ideal with the
        principal ideals only.  a + (v) depends only on the coset v + a,
        whose Howell remainder is unique, so a is joined with (v) only when
        that remainder is nonzero and new for a: the skipped joins give a
        itself or an ideal an earlier join gave, and the ideals come in the
        order of joining a with every principal ideal.  The scan walks every
        ring element, so rings above the bound are refused (on the first
        next()) before any ideal is yielded.
        """
        self._require_enumerable()
        units = [u for u in range(1, self.m) if u % self.p]
        # the first pair is (Y^0, 1), which fixes every vector
        moves = [(perm, u) for perm in _shift_perms(self.group.factors, self.s)
                 for u in units][1:]
        seen: set = set()
        principal: list[tuple[tuple[int, ...], Ideal]] = []
        # product walks the digits most significant first: reversed, its
        # tuples come in encoding order
        for digits in itertools.product(range(self.m), repeat=self.n):
            vec = digits[::-1]
            if not self._orbit_least(vec, moves):
                continue
            ideal = self.principal_ideal(vec)
            if ideal.basis not in seen:
                seen.add(ideal.basis)
                principal.append((vec, ideal))
                yield ideal
        found = [ideal for _, ideal in principal]
        for a in found:  # found grows as the loop runs
            cosets = set()
            for vec, b in principal:
                rem = remainder(a.basis, vec, self.m)
                if rem in cosets or not any(rem):
                    continue
                cosets.add(rem)
                joined = self.join(a, b)
                if joined.basis not in seen:
                    seen.add(joined.basis)
                    found.append(joined)
                    yield joined

    def enumerate_ideals(self) -> tuple["Ideal", ...]:
        return tuple(sorted(self.ideal_stream(), key=lambda c: (c.size, c.basis)))

    # -- forms and duality ------------------------------------------------------

    def dual(self, code: "Ideal", form: str = EUCLIDEAN) -> "Ideal":
        """Annihilator {w : form(u, w) = 0 for all u in the code}.

        The basis rows span the code over Z_{p^r} and already absorb all
        monomial shifts (the code is an ideal), so the dual is the kernel
        of w -> (form(u, w))_u over the k = rank*s digits of the basis rows
        u: the left kernel of the n x k matrix of their form coefficients,
        the block steps of the form's twist.
        """
        self._check_ideal(code)
        h = _pairing_twist(form, self.s)
        mats = [_block_steps(self.spec, h, row) for row in code.basis]
        matrix = [[d for mat in mats for d in mat[i]] for i in range(self.n)]
        return Ideal(self, kernel(matrix, self.p, self.r))

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

    __slots__ = ("engine", "basis", "_size", "_generators", "_encodings")

    def __init__(self, engine: ExhaustiveGroupRing, basis):
        self.engine = engine
        self.basis = basis
        self._size = None
        self._generators = None
        self._encodings = None

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
        self.engine._require_enumerable()
        if self._encodings is None:
            engine = self.engine
            members = [tuple([0] * engine.n)]
            for row in self.basis:
                lead = row[pivot(row)]
                members = [tuple((x + k * y) % engine.m for x, y in zip(v, row))
                           for v in members for k in range(engine.m // lead)]
            self._encodings = tuple(sorted(engine.encode_vector(v) for v in members))
            if len(set(self._encodings)) != self.size:
                raise InternalInvariantError("size disagrees with the distinct members")
        return self._encodings

    def elements(self) -> list[GroupRingElement]:
        engine = self.engine
        return [engine.from_vector(engine.decode_vector(k))
                for k in self.element_encodings()]

    def generators(self) -> list[GroupRingElement]:
        """A short generating list found greedily from the basis rows."""
        if self._generators is None:
            engine = self.engine
            for row in self.basis:
                if engine.principal_ideal(row) == self:
                    self._generators = [engine.from_vector(row)]
                    break
            else:
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
                self._generators = [engine.from_vector(row) for row in gens]
        return list(self._generators)


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


def _idempotent_sum(e, indices, scale: int, m: int) -> list[int]:
    """scale * (sum of the idempotents e[i], i in indices), digitwise mod m."""
    total = [0] * len(e[0])
    for i in indices:
        total = [a + b for a, b in zip(total, e[i])]
    return [scale * a % m for a in total]


def construct_self_dual(p: int, r: int, s: int, group: AbelianGroup,
                        form: str = EUCLIDEAN, bound: int | None = None) -> SelfDualConstruction:
    """A self-dual abelian code in GR(p^r, s)[G], when one exists.

    r even: the principal ideal of p^(r/2).  Otherwise p = 2 and |G| even
    are required, and the code is assembled componentwise over
    GR[G] = (GR[A])[P]: each single component K[P] carries
    2^r' K[P] + 2^(r'-1) K[P] (Y^x + 1) with r = 2r' - 1 and x of order 2
    in P, while each paired component carries (everything, zero).  Both
    generators are constant over P apart from the factor Y^x + 1, so each
    is one sum of class idempotents of GR[A], placed at Y^0 (and Y^x) and
    merged back along the Sylow decomposition.  All of this is digit
    vectors; zero generators are dropped.  The ideal is materialized when
    the engine's size rule accepts the ring under bound (default
    exhaustive_bound()); the generators are returned either way.
    """
    _pairing_twist(form, s)
    spec = construct_ring(p, r, s)
    if not exists_self_dual(p, r, group, form, s):
        raise DomainError(
            f"no self-dual code in GR({p}^{r},{s})[{group!r}]: "
            "needs r even, or p = 2 with |G| even")
    engine = ExhaustiveGroupRing(GroupRing(spec, group), bound)
    if r % 2 == 0:
        vecs = [[p**(r // 2)] + [0] * (engine.n - 1)]
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
        # the nested vectors over P: block b is the coefficient of Y^b in GR[A]
        width = len(g1)
        nested1 = g1 + [0] * (engine.n - width)
        nested2 = g2 + [0] * (engine.n - width)
        k = _group_index(p_group.factors)[x2] * width
        nested2[k:k + width] = g2
        vecs = [v for v in (_sylow_merge_vector(x, dec, s) for x in (nested1, nested2)) if any(v)]
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
    _pairing_twist(form, s)
    ctx = ambient(construct_ring(p, r, s), group)
    singles, pairs = ctx.parts.layout(form)
    if r % 2:
        return SemisimpleSelfDualFamily(p, r, s, group, form, 0, ())
    count = (r + 1)**len(pairs)
    reps = []
    if count <= MAX_REPRESENTATIVES:
        e, m = class_idempotents(ctx), ctx.spec.char

        def scaled(i: int, exp: int) -> GroupRingElement:
            return GroupRingElement(ctx.ring, tuple(d * p**exp % m for d in e[i]))

        single_gens = [scaled(i, r // 2) for i in singles]
        # ladders[k][member][exp]: p^exp times that member's idempotent, exp < r
        ladders = [[[scaled(k, exp) for exp in range(r)] for k in pair] for pair in pairs]
        for choice in itertools.product(range(r + 1), repeat=len(pairs)):
            gens = list(single_gens)
            for ladder, w in zip(ladders, choice):
                for member, exp in ((0, w), (1, r - w)):
                    if exp < r:
                        gens.append(ladder[member][exp])
            reps.append(tuple(gens))
    return SemisimpleSelfDualFamily(p, r, s, group, form, count, tuple(reps))

"""Galois ring arithmetic.

A Galois ring GR(p^r, s) is realized as Z_{p^r}[x]/(f) where f is the
lexicographically smallest monic degree-s polynomial over F_p that is
primitive (its root generates the multiplicative group of F_{p^s}),
lifted coefficient-by-coefficient into Z_{p^r}.  Elements are stored as
coefficient tuples, lowest degree first, entries reduced into [0, p^r).

The search for f skips every constant term a0 for which (-1)^s * a0, the
norm of a root of f, is not a primitive root mod p: the norm of a
generator of F_{p^s}^* generates F_p^*.  Only candidates that cannot be
primitive are dropped, so f is the one a full scan finds, without the
scan's up to p^s order tests.

The class of x need not itself be a root of unity once lifted, so the
canonical Teichmuller generator xi is obtained by iterating t -> t^(p^s)
on the class of x; xi has exact multiplicative order p^s - 1 and every
element has a unique expansion sum(a_i * p^i) with Teichmuller digits a_i.

_teichmuller_table(spec) holds the powers xi^e, e < p^s - 1, and their
residues' discrete logs, one lru_cache entry per ring built on first use,
so _teichmuller_table.cache_clear() frees every table and keeps every ring.
A Teichmuller digit is then a lookup by residue, and the Frobenius, embed
and unembed are one kernel that carries digit logs into a target ring, an
exact division then a scale (unembed's division refuses an element outside
the subring); only xi itself is computed by powering, on each read.
Residue fields above 2^21 elements get no table, so lifts, digits, discrete
logs, the Frobenius and both sides of an embedding refuse them.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

from .errors import BoundExceededError, DomainError, InternalInvariantError, _check_int, _check_type
from .numth import factorize, is_prime

# discrete logs in the Teichmuller set are done with a lookup table over
# the residue field; refuse to build absurdly large ones
_MAX_DLOG_TABLE = 1 << 21


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Product of two reduced coefficient tuples modulo a monic polynomial."""
    s = len(modulus) - 1
    t = [0] * (2 * s - 1) if s > 1 else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    t[i + j] = (t[i + j] + ai * bj) % m
    for i in range(len(t) - 1, s - 1, -1):
        c = t[i]
        if c:
            t[i] = 0
            for j in range(s):
                if modulus[j]:
                    t[i - s + j] = (t[i - s + j] - c * modulus[j]) % m
    return tuple(t[:s])


def _x_has_full_order(modulus: tuple[int, ...], p: int, s: int, prime_divs: tuple[int, ...]) -> bool:
    """True when the class of x modulo (modulus, p) has order exactly p^s - 1."""
    x = GaloisRingSpec(p, 1, s, modulus)._x()
    target = p**s - 1
    one = x.spec.one()
    return x**target == one and all(x**(target // q) != one for q in prime_divs)


@lru_cache(maxsize=None)
def _primitive_polynomial(p: int, s: int) -> tuple[int, ...]:
    """Lexicographically smallest monic primitive degree-s polynomial over F_p.

    A monic f of degree s with f(0) != 0 is primitive iff x has order
    p^s - 1 modulo (f, p): any factorization would force the order of x
    below p^s - 1, so no separate irreducibility test is needed.  The
    norm of a root of f is (-1)^s * f(0), and the norm of a generator has
    order p - 1 (Lidl-Niederreiter, Finite Fields, ch. 3), so only
    constant terms with that norm are tried.  This rule drops no primitive
    candidate, so the smallest one is still found first.
    """
    prime_divs = tuple(q for q, _ in factorize(p**s - 1)) if p**s > 2 else ()
    # every prime divisor of p - 1 divides p^s - 1
    norm_divs = [q for q in prime_divs if (p - 1) % q == 0]
    for a0 in range(1, p):
        norm = (-1)**s * a0 % p
        if any(pow(norm, (p - 1) // q, p) == 1 for q in norm_divs):
            continue
        for rest in itertools.product(range(p), repeat=s - 1):
            modulus = (a0,) + rest + (1,)
            if _x_has_full_order(modulus, p, s, prime_divs):
                return modulus
    raise InternalInvariantError(f"no primitive polynomial of degree {s} over F_{p}")


class GaloisRingSpec:
    """Immutable description of GR(p^r, s): the ring is its key (p, r, s,
    modulus), hashed once, since every table read and every product of two
    elements compares rings."""

    __slots__ = ("p", "r", "s", "modulus", "char", "size", "residue_size", "_key", "_hash")

    def __init__(self, p: int, r: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.r = r
        self.s = s
        self.modulus = modulus
        self.char = p**r
        self.size = p ** (r * s)
        self.residue_size = p**s
        self._key = (p, r, s, modulus)
        self._hash = hash(self._key)

    def __repr__(self) -> str:
        return ring_name(self)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, GaloisRingSpec) and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def element(self, coeffs) -> GaloisRingElement:
        cs = tuple(coeffs)
        if len(cs) != self.s:
            raise DomainError(f"expected {self.s} coefficients, got {len(cs)}")
        if any(type(c) is not int for c in cs):
            raise DomainError(f"coefficients {cs!r} are not all integers")
        return GaloisRingElement(self, tuple(c % self.char for c in cs))

    def zero(self) -> GaloisRingElement:
        return GaloisRingElement(self, (0,) * self.s)

    def one(self) -> GaloisRingElement:
        return GaloisRingElement(self, (1,) + (0,) * (self.s - 1))

    def from_int(self, scalar: int) -> GaloisRingElement:
        return GaloisRingElement(self, (_check_int("scalar", scalar) % self.char,) + (0,) * (self.s - 1))

    def from_index(self, index: int) -> GaloisRingElement:
        """Inverse of GaloisRingElement.index(): base-p^r digit expansion."""
        if not 0 <= _check_int("index", index) < self.size:
            raise DomainError(f"index {index} is not in [0, {self.size})")
        m = self.char
        cs = []
        for _ in range(self.s):
            cs.append(index % m)
            index //= m
        return GaloisRingElement(self, tuple(cs))

    def elements(self):
        """Iterate the whole ring in index order (exhaustive; small rings only)."""
        for index in range(self.size):
            yield self.from_index(index)

    def _x(self) -> GaloisRingElement:
        """The class of x modulo the ring's modulus."""
        if self.s == 1:
            return self.element((-self.modulus[0],))
        return self.element((0, 1) + (0,) * (self.s - 2))

    @property
    def xi(self) -> GaloisRingElement:
        """Canonical Teichmuller generator: the lift of the class of x."""
        return _lift_by_powering(self._x())

    def dlog(self, t: GaloisRingElement) -> int:
        """Discrete log of a nonzero Teichmuller element with respect to xi."""
        try:
            return _teichmuller_table(self)[0][t.residue()]
        except KeyError:
            raise InternalInvariantError(f"{t} is not a unit Teichmuller element") from None

    def _digit_logs(self, coeffs: tuple[int, ...]) -> list[int | None]:
        """Exponents e_i with digit a_i = xi^(e_i), None for a zero digit."""
        table, pows = _teichmuller_table(self)
        p, m = self.p, self.char
        out = []
        for _ in range(self.r):
            res = tuple(c % p for c in coeffs)
            if any(res):
                e = table[res]
                coeffs = tuple((c - d) % m // p for c, d in zip(coeffs, pows[e]))
            else:
                e = None
                coeffs = tuple(c // p for c in coeffs)
            out.append(e)
        return out


class GaloisRingElement:
    """One element of a fixed GR(p^r, s); immutable coefficient tuple."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: GaloisRingSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    def _coerce(self, other) -> "GaloisRingElement":
        if isinstance(other, GaloisRingElement):
            if other.spec != self.spec:
                raise DomainError(f"mixed rings: {self.spec} vs {other.spec}")
            return other
        if type(other) is int:
            return self.spec.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        m = self.spec.char
        return GaloisRingElement(self.spec, tuple((a + b) % m for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        m = self.spec.char
        return GaloisRingElement(self.spec, tuple((a - b) % m for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        m = self.spec.char
        return GaloisRingElement(self.spec, tuple(-a % m for a in self.coeffs))

    def __mul__(self, other):
        if type(other) is int:
            m = self.spec.char
            k = other % m
            return GaloisRingElement(self.spec, tuple(a * k % m for a in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaloisRingElement(
            self.spec, _poly_mul_mod(self.coeffs, o.coeffs, self.spec.modulus, self.spec.char))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if type(e) is not int:
            return NotImplemented
        _check_int("exponent", e, 0)
        spec = self.spec
        modulus, m = spec.modulus, spec.char
        acc, base = spec.one().coeffs, self.coeffs
        while e:
            if e & 1:
                acc = _poly_mul_mod(acc, base, modulus, m)
            base = _poly_mul_mod(base, base, modulus, m)
            e >>= 1
        return GaloisRingElement(spec, acc)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GaloisRingElement)
                and self.spec == other.spec and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    def __repr__(self) -> str:
        return f"<{element_text(self)} in {ring_name(self.spec)}>"

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def residue(self) -> tuple[int, ...]:
        """Image in the residue field F_{p^s}, as a coefficient tuple mod p."""
        p = self.spec.p
        return tuple(c % p for c in self.coeffs)

    def index(self) -> int:
        """Integer encoding: coefficient digits in base p^r, low digit first."""
        m = self.spec.char
        out = 0
        for c in reversed(self.coeffs):
            out = out * m + c
        return out


def _lift_by_powering(a: GaloisRingElement) -> GaloisRingElement:
    """Teichmuller lift by its definition, for xi itself.

    Iterating t -> t^(p^s) gains one p-adic digit of stability per step,
    so exactly r - 1 iterations suffice.
    """
    spec = a.spec
    for _ in range(spec.r - 1):
        a = a ** spec.residue_size
    return a


@lru_cache(maxsize=None)
def _teichmuller_table(spec: GaloisRingSpec) -> tuple[dict, tuple]:
    """(residue -> e, coefficients of xi^e) for e < p^s - 1.  A residue field
    above the bound is refused before any work, and a refusal caches nothing."""
    if spec.residue_size > _MAX_DLOG_TABLE:
        raise BoundExceededError(
            f"discrete-log table for {ring_name(spec)} would need "
            f"{spec.residue_size} entries, above the bound {_MAX_DLOG_TABLE}")
    p, m, modulus = spec.p, spec.char, spec.modulus
    xi = spec.xi.coeffs
    acc = spec.one().coeffs
    pows = []
    table = {}
    for e in range(spec.residue_size - 1):
        pows.append(acc)
        table[tuple(c % p for c in acc)] = e
        acc = _poly_mul_mod(acc, xi, modulus, m)
    return table, tuple(pows)


def teichmuller_lift(a: GaloisRingElement) -> GaloisRingElement:
    """The unique Teichmuller element congruent to a modulo p: xi^dlog(a mod p)
    for a unit, 0 otherwise."""
    spec = _check_type("a", a, GaloisRingElement).spec
    table, pows = _teichmuller_table(spec)
    res = a.residue()
    if not any(res):
        return spec.zero()
    return GaloisRingElement(spec, pows[table[res]])


def teichmuller_digits(a: GaloisRingElement) -> tuple[GaloisRingElement, ...]:
    """Digits (a_0, ..., a_{r-1}) with a = sum(a_i * p^i), each a Teichmuller element."""
    spec = a.spec
    pows = _teichmuller_table(spec)[1]
    return tuple(spec.zero() if e is None else GaloisRingElement(spec, pows[e])
                 for e in spec._digit_logs(a.coeffs))


def generalized_frobenius(a: GaloisRingElement, k: int) -> GaloisRingElement:
    """Apply the digit-wise power map a_i -> a_i^(p^k); a ring automorphism.

    k is taken modulo s (digit orders divide p^s - 1), so negative k means
    the inverse automorphism.  k = 0 (mod s) is the identity.
    """
    spec = _check_type("a", a, GaloisRingElement).spec
    k = _check_int("k", k) % spec.s
    if k == 0:
        return a
    return _carry_digit_logs(a, spec, 1, spec.p**k)


def _carry_digit_logs(a: GaloisRingElement, target: GaloisRingSpec, divisor: int,
                      scale: int) -> GaloisRingElement:
    """sum(xi_target^(e_i / divisor * scale) * p^i) over a's nonzero
    Teichmuller digits a_i = xi^(e_i), the one digit-log map behind the
    Frobenius, embed and unembed.  A log that divisor does not divide puts
    a outside the degree-(target.s) subring, which is refused."""
    pows = _teichmuller_table(target)[1]
    order, p, m = target.residue_size - 1, target.p, target.char
    acc = [0] * target.s
    weight = 1
    for e in a.spec._digit_logs(a.coeffs):
        if e is not None:
            if e % divisor:
                raise InternalInvariantError(
                    f"element is not in the degree-{target.s} subring of {a.spec}")
            for j, c in enumerate(pows[e // divisor * scale % order]):
                acc[j] += weight * c
        weight *= p
    return GaloisRingElement(target, tuple(c % m for c in acc))


def _check_ring(p: int, r: int, s: int) -> None:
    """The rule for GR(p^r, s) to exist: integers p prime, r >= 1 and s >= 1."""
    if not is_prime(_check_int("p", p)):
        raise DomainError(f"p = {p} is not prime")
    _check_int("r", r, 1)
    _check_int("s", s, 1)


@lru_cache(maxsize=None, typed=True)
def construct_ring(p: int, r: int, s: int) -> GaloisRingSpec:
    """Build (and cache) the canonical GR(p^r, s)."""
    _check_ring(p, r, s)
    base = _primitive_polynomial(p, s)
    return GaloisRingSpec(p, r, s, base)


@lru_cache(maxsize=None)
def _embedding_exponent(src: GaloisRingSpec, target: GaloisRingSpec) -> int:
    """Smallest j such that xi_target^(j*K), K = (q2-1)/(q1-1), is a root of
    the source modulus mod p.  That element is where a ring homomorphism must
    send xi_src: the candidate K-th powers exhaust the subgroup of order
    q1 - 1, but only the conjugates of xi_src among them extend to a
    homomorphism, and the plain j = 1 choice usually is not one.  The
    candidates are read off the target's table, so a target above the table
    bound is refused before anything is computed or cached."""
    pows = _teichmuller_table(target)[1]
    step = (target.residue_size - 1) // (src.residue_size - 1)
    for j in range(src.residue_size - 1):
        cand = GaloisRingElement(target, pows[j * step])
        acc = target.zero()
        for c in reversed(src.modulus):
            acc = acc * cand + target.from_int(c)
        if all(d % src.p == 0 for d in acc.coeffs):
            return j
    raise InternalInvariantError(f"no conjugate of the degree-{src.s} generator in {target}")


def _subring(src: GaloisRingSpec, target: GaloisRingSpec, up: bool):
    """(small, big) for the map src -> target, an embedding when up: both
    rings must be GR(p^r, .) and the small degree must divide the big one."""
    if (src.p, src.r) != (_check_type("target", target, GaloisRingSpec).p, target.r):
        raise DomainError(f"incompatible rings {src} -> {target}")
    small, big = (src, target) if up else (target, src)
    if big.s % small.s:
        raise DomainError(f"degree {small.s} does not divide {big.s}")
    return small, big


def embed(a: GaloisRingElement, target: GaloisRingSpec) -> GaloisRingElement:
    """Canonical embedding GR(p^r, d) -> GR(p^r, D) for d | D.

    Determined on Teichmuller generators by xi_d -> xi_D^(j*(p^D-1)/(p^d-1))
    for the smallest j making the image a conjugate of xi_d, then extended
    digit-wise over the p-adic expansion.
    """
    small, big = _subring(_check_type("a", a, GaloisRingElement).spec, target, True)
    if small == big:
        return a
    step = (big.residue_size - 1) // (small.residue_size - 1)
    return _carry_digit_logs(a, big, 1, step * _embedding_exponent(small, big))


def unembed(a: GaloisRingElement, target: GaloisRingSpec) -> GaloisRingElement:
    """Inverse of embed on its image; raises if a is outside the subring."""
    small, big = _subring(_check_type("a", a, GaloisRingElement).spec, target, False)
    if small == big:
        return a
    order = small.residue_size - 1
    jinv = pow(_embedding_exponent(small, big), -1, order) if order > 1 else 0
    return _carry_digit_logs(a, small, (big.residue_size - 1) // order, jinv)


def root_of_unity(spec: GaloisRingSpec, order: int) -> GaloisRingElement:
    """The canonical root of unity of exact multiplicative order `order`."""
    if (_check_type("spec", spec, GaloisRingSpec).residue_size - 1) % _check_int("order", order, 1):
        raise DomainError(f"{order} does not divide {spec.residue_size - 1}")
    return spec.xi ** ((spec.residue_size - 1) // order)


# -- text formats ------------------------------------------------------------

_RING_RE = re.compile(r"^GR\((\d+)\^(\d+),(\d+)\)$")


def ring_name(spec: GaloisRingSpec) -> str:
    return f"GR({spec.p}^{spec.r},{spec.s})"


def parse_ring_name(text: str) -> GaloisRingSpec:
    m = _RING_RE.match(text.strip())
    if not m:
        raise DomainError(f"cannot parse ring name {text!r}; expected GR(p^r,s)")
    p, r, s = (int(g) for g in m.groups())
    return construct_ring(p, r, s)


def element_text(a: GaloisRingElement) -> str:
    """Comma-separated coefficients, lowest degree first, e.g. '3,1'."""
    return ",".join(str(c) for c in _check_type("a", a, GaloisRingElement).coeffs)


def parse_element(spec: GaloisRingSpec, text: str) -> GaloisRingElement:
    _check_type("spec", spec, GaloisRingSpec)
    parts = text.strip().split(",")
    if len(parts) != spec.s:
        raise DomainError(f"expected {spec.s} coefficients in {text!r}")
    try:
        return spec.element(int(c) for c in parts)
    except ValueError as exc:
        raise DomainError(f"bad element text {text!r}: {exc}") from None


def modulus_text(spec: GaloisRingSpec) -> str:
    """Human-readable modulus polynomial, highest degree first."""
    terms = []
    for i in range(spec.s, -1, -1):
        c = spec.modulus[i] if i < len(spec.modulus) else 0
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            terms.append(xpow if c == 1 else f"{c}{xpow}")
    return " + ".join(terms) if terms else "0"

"""Closed-form counts of abelian codes and their self-dual subfamilies.

The ambient group splits as G = A + P with |A| coprime to p.  Each divisor
d of exp(A) contributes one factor to every count: the order-d elements
fall into classes of size ord_d(p^s), each class owning a component ring
GR(p^r, s*ord)[P], and the duality type of those classes (decided by the
good-pair classification of (d, p^s) or (d, p^(s/2))) dictates whether the
factor counts all ideals, Euclidean self-dual ones, or Hermitian self-dual
ones of the component.  The component base counts themselves come from a
provider: closed forms exist for trivial P and for r = 2 with cyclic P;
anything else is brute-forced by the exhaustive engine, whose size rule
alone decides whether the component ring is small enough, and refused
with ProviderDomainError when it is not.

All arithmetic is exact; every division in an exponent is asserted exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import (EUCLIDEAN, HERMITIAN, _pairing_twist, bad_pair_indicator,
                         even_pair_indicator)
from .errors import (BoundExceededError, DomainError, InternalInvariantError,
                     ProviderDomainError, _check_int, _check_type)
from .galois import _check_ring, construct_ring
from .group_ring import GroupRing
from .groups import AbelianGroup, format_group, order_census, sylow_decompose
from .ideals import ExhaustiveGroupRing
from .numth import multiplicative_order, valuation

_TRIVIAL_GROUP = AbelianGroup(())


def is_principal_ideal_group_ring(p: int, r: int, group: AbelianGroup) -> bool:
    """GR(p^r, s)[G] is a principal ideal ring iff the Sylow p-part of G is
    cyclic (r = 1) or trivial (r >= 2); independent of s."""
    _check_ring(p, r, 1)
    _check_type("group", group, AbelianGroup)
    if r == 1:
        return len(sylow_decompose(group, p).p_part.factors) <= 1
    return math.gcd(p, group.order) == 1


# -- closed forms over GR(p^2, s), cyclic length p^a ---------------------------

def _geometric(base: int, terms: int) -> int:
    """1 + base + ... + base^(terms-1), exactly."""
    total = base**terms - 1
    if total % (base - 1):
        raise InternalInvariantError("geometric series not integral")
    return total // (base - 1)


def cyclic_count_p2(p: int, s: int, a: int) -> int:
    """Number of cyclic codes of length p^a over GR(p^2, s).

    The a = 0 ring is the chain ring itself with its r + 1 = 3 ideals.
    """
    _check_ring(p, 2, s)
    if _check_int("a", a, 0) == 0:
        return 3
    q = p**s
    cap = p**(a - 1)
    total = 0
    for d in range(p**a):
        total += _geometric(q, min(d // 2, cap) + 1)
    return 2 * total + _geometric(q, cap + 1)


def euclidean_cyclic_count_p2(p: int, s: int, a: int) -> int:
    """Euclidean self-dual cyclic codes of length p^a over GR(p^2, s)."""
    _check_ring(p, 2, s)
    if _check_int("a", a, 0) == 0:
        return 1
    q = p**s
    if p == 2:
        if a == 1:
            return 1
        if a == 2:
            return 1 + q
        return 1 + q + 2 * q**2 * _geometric(q, 2**(a - 2) - 1)
    exp = (p**(a - 1) + 1) // 2
    return 2 * _geometric(q, exp)


def hermitian_cyclic_count_p2(p: int, s: int, a: int) -> int:
    """Hermitian self-dual cyclic codes of length p^a over GR(p^2, s), s even."""
    _check_ring(p, 2, s)
    _pairing_twist(HERMITIAN, s)
    if _check_int("a", a, 0) == 0:
        return 1
    return _geometric(p**(s // 2), p**(a - 1) + 1)


def _p_group_exponent(p: int, p_group: AbelianGroup) -> int:
    """a with |P| = p^a; a P whose order is no power of p is refused."""
    a = valuation(p_group.order, p)
    if p**a != p_group.order:
        raise DomainError(f"{format_group(p_group)} is not a {p}-group")
    return a


# -- base-count providers --------------------------------------------------------

TOTAL = "total"

_KIND_LABEL = {TOTAL: "all ideals", EUCLIDEAN: "Euclidean self-dual",
               HERMITIAN: "Hermitian self-dual"}
_CLOSED_FORMS = {TOTAL: cyclic_count_p2, EUCLIDEAN: euclidean_cyclic_count_p2,
                 HERMITIAN: hermitian_cyclic_count_p2}


def _describe_base(p: int, r: int, s2: int, p_group: AbelianGroup, kind: str) -> str:
    return f"{_KIND_LABEL[kind]} count of GR({p}^{r},{s2})[{format_group(p_group)}]"


def _check_base(p: int, r: int, s2: int, p_group: AbelianGroup, kind: str) -> int:
    """What every provider checks before its own domain: the ring exists, the
    kind is known and P is a p-group.  Returns a with |P| = p^a."""
    _check_ring(p, r, s2)
    if kind != TOTAL:
        _pairing_twist(kind, s2)
    return _p_group_exponent(p, p_group)


class TrivialSylowProvider:
    """Base counts for trivial P: the chain ring has r + 1 ideals, and
    p^(r/2) GR is the unique self-dual one (either form) when r is even."""

    name = "trivial"

    def supports(self, p: int, r: int, s2: int, p_group: AbelianGroup, kind: str) -> bool:
        return p_group.order == 1

    def count(self, p: int, r: int, s2: int, p_group: AbelianGroup, kind: str) -> int:
        _check_base(p, r, s2, p_group, kind)
        if not self.supports(p, r, s2, p_group, kind):
            raise ProviderDomainError(
                f"{_describe_base(p, r, s2, p_group, kind)} unavailable: "
                "the trivial provider needs a trivial Sylow subgroup")
        return r + 1 if kind == TOTAL else int(r % 2 == 0)


class ClosedFormProvider:
    """The r = 2 closed forms; requires a cyclic Sylow subgroup."""

    name = "closed-form"

    def supports(self, p: int, r: int, s2: int, p_group: AbelianGroup, kind: str) -> bool:
        return r == 2 and len(p_group.factors) <= 1

    def count(self, p: int, r: int, s2: int, p_group: AbelianGroup, kind: str) -> int:
        a = _check_base(p, r, s2, p_group, kind)
        if not self.supports(p, r, s2, p_group, kind):
            raise ProviderDomainError(
                f"{_describe_base(p, r, s2, p_group, kind)} unavailable: "
                "closed forms exist only for r = 2 with cyclic Sylow subgroup")
        return _CLOSED_FORMS[kind](p, s2, a)


_BRUTE_CACHE: dict = {}


class BruteForceProvider:
    """Exhaustive enumeration of the component group ring; the engine's
    size rule decides whether the ring is small enough."""

    name = "brute-force"

    def __init__(self, bound: int | None = None):
        self.bound = bound

    def count(self, p: int, r: int, s2: int, p_group: AbelianGroup, kind: str) -> int:
        _check_base(p, r, s2, p_group, kind)
        engine = ExhaustiveGroupRing(GroupRing(construct_ring(p, r, s2), p_group), self.bound)
        try:
            engine._require_enumerable()
        except BoundExceededError:
            raise ProviderDomainError(
                f"{_describe_base(p, r, s2, p_group, kind)} unavailable: ring size "
                f"{engine._size_text} exceeds the bound {engine.bound}") from None
        key = (p, r, s2, p_group.factors, kind)
        if key not in _BRUTE_CACHE:
            if kind == TOTAL:
                _BRUTE_CACHE[key] = sum(1 for _ in engine.ideal_stream())
            else:
                _BRUTE_CACHE[key] = engine.count_self_dual(kind)
        return _BRUTE_CACHE[key]


class AutoProvider:
    """trivial, then closed-form, each within its domain, then brute force,
    which counts or refuses."""

    name = "auto"

    def __init__(self, bound: int | None = None):
        self.chain = (TrivialSylowProvider(), ClosedFormProvider(),
                      BruteForceProvider(bound))

    def count(self, p: int, r: int, s2: int, p_group: AbelianGroup, kind: str) -> int:
        return _query(self, p, r, s2, p_group, kind)[0]


_PROVIDERS = {"auto": AutoProvider, "trivial": TrivialSylowProvider,
              "closed": ClosedFormProvider, "brute": BruteForceProvider}


def get_provider(provider):
    """Accept a provider instance (anything with a count method and a name,
    but not a class) or one of the names auto/trivial/closed/brute."""
    if isinstance(provider, str):
        if provider not in _PROVIDERS:
            raise DomainError(f"unknown provider {provider!r}; "
                              f"choose from {sorted(_PROVIDERS)}")
        return _PROVIDERS[provider]()
    if isinstance(provider, type):
        raise DomainError(f"a provider is a name or an instance, got the class {provider.__name__}")
    if not (hasattr(provider, "count") and hasattr(provider, "name")):
        raise DomainError(f"a provider is a name or has a count method and a name; "
                          f"got type {type(provider).__name__}")
    return provider


def _query(provider, p, r, s2, p_group, kind):
    """Resolve one base count, reporting which strategy produced it.

    A provider is a chain of one; in a longer chain every member but the
    last is tried only within its domain, and the last counts or refuses.
    """
    chain = getattr(provider, "chain", (provider,))
    for chosen in chain[:-1]:
        if chosen.supports(p, r, s2, p_group, kind):
            break
    else:
        chosen = chain[-1]
    return chosen.count(p, r, s2, p_group, kind), chosen.name


# -- the product formula ----------------------------------------------------------

@dataclass(frozen=True)
class DivisorFactor:
    """One divisor's contribution to a count."""

    divisor: int
    element_count: int  # elements of this order in A
    orbit_size: int     # ord_d(p^s) = size of each class
    slot_type: str      # single / conjugate-single / pair
    base_kind: str      # which base count the component contributes
    base_degree: int    # s' of the component ring GR(p^r, s')
    exponent: int       # number of independent component choices
    base_value: int
    provider: str

    @property
    def factor(self) -> int:
        return self.base_value**self.exponent


@dataclass(frozen=True)
class CountReport:
    """A count with its per-divisor breakdown; the factors multiply to count."""

    p: int
    r: int
    s: int
    coprime_group: AbelianGroup
    p_group: AbelianGroup
    duality: str
    count: int
    factors: tuple[DivisorFactor, ...]
    provider: str

    def __post_init__(self):
        prod = 1
        for f in self.factors:
            prod *= f.factor
        if prod != self.count:
            raise InternalInvariantError("breakdown does not multiply to the count")


def _exact_div(a: int, b: int) -> int:
    if a % b:
        raise InternalInvariantError(f"expected {b} | {a}")
    return a // b


def _divisor_factor(p, r, s, d, count_d, duality, provider, p_group) -> DivisorFactor:
    q = p**s
    nu = multiplicative_order(q, d)
    if duality == TOTAL:
        kind, exponent, slot = TOTAL, _exact_div(count_d, nu), "component"
    else:
        h = _pairing_twist(duality, s)
        # order-d classes are type III when (d, q) is bad, and type III'
        # when (d, p^h) is not oddly good
        if bad_pair_indicator(d, q) if h == 0 else even_pair_indicator(d, p**h):
            kind, exponent, slot = TOTAL, _exact_div(count_d, 2 * nu), "pair"
        elif h == 0 and nu == 1:
            kind, exponent, slot = EUCLIDEAN, count_d, "single"
        else:
            kind, exponent, slot = HERMITIAN, _exact_div(count_d, nu), "conjugate-single"
    degree = s * nu
    value, via = _query(provider, p, r, degree, p_group, kind)
    return DivisorFactor(d, count_d, nu, slot, kind, degree, exponent, value, via)


def _product_count(p, r, s, coprime_group, p_group, duality, provider) -> CountReport:
    construct_ring(p, r, s)  # validates p prime, r/s positive, before the pairing
    if duality != TOTAL:
        _pairing_twist(duality, s)
    if _check_type("coprime_group", coprime_group, AbelianGroup).order % p == 0:
        raise DomainError(f"|A| = {coprime_group.order} is not coprime to p = {p}")
    _p_group_exponent(p, _check_type("p_group", p_group, AbelianGroup))
    provider = get_provider(provider)
    factors = []
    count = 1
    census = order_census(coprime_group)
    for d in sorted(census):
        f = _divisor_factor(p, r, s, d, census[d], duality, provider, p_group)
        factors.append(f)
        count *= f.factor
    return CountReport(p, r, s, coprime_group, p_group,
                       duality, count, tuple(factors), provider.name)


def abelian_count(p: int, r: int, s: int, coprime_group: AbelianGroup,
                  p_group: AbelianGroup = _TRIVIAL_GROUP,
                  provider="auto") -> CountReport:
    """Total number of abelian codes in GR(p^r, s)[A + P]."""
    return _product_count(p, r, s, coprime_group, p_group, TOTAL, provider)


def euclidean_abelian_count(p: int, r: int, s: int, coprime_group: AbelianGroup,
                            p_group: AbelianGroup = _TRIVIAL_GROUP,
                            provider="auto") -> CountReport:
    """Euclidean self-dual abelian codes in GR(p^r, s)[A + P]."""
    return _product_count(p, r, s, coprime_group, p_group, EUCLIDEAN, provider)


def hermitian_abelian_count(p: int, r: int, s: int, coprime_group: AbelianGroup,
                            p_group: AbelianGroup = _TRIVIAL_GROUP,
                            provider="auto") -> CountReport:
    """Hermitian self-dual abelian codes in GR(p^r, s)[A + P]; s even."""
    return _product_count(p, r, s, coprime_group, p_group, HERMITIAN, provider)


def euclidean_semisimple_count(p: int, r: int, s: int,
                               group: AbelianGroup) -> CountReport:
    """Euclidean self-dual codes in the semisimple case gcd(|A|, p) = 1.

    Equals (r + 1)^(number of paired classes) when r is even, 0 otherwise.
    """
    return _product_count(p, r, s, group, _TRIVIAL_GROUP, EUCLIDEAN,
                          TrivialSylowProvider())


def hermitian_semisimple_count(p: int, r: int, s: int,
                               group: AbelianGroup) -> CountReport:
    """Hermitian analog of euclidean_semisimple_count; s even."""
    return _product_count(p, r, s, group, _TRIVIAL_GROUP, HERMITIAN,
                          TrivialSylowProvider())


# -- arbitrary cyclic length over GR(p^2, s) --------------------------------------

def _split_length(p: int, s: int, n: int) -> tuple[AbelianGroup, AbelianGroup]:
    _check_ring(p, 2, s)
    _check_int("length", n, 1)
    dec = sylow_decompose(AbelianGroup((n,) if n > 1 else ()), p)
    return dec.coprime_part, dec.p_part


def cyclic_count_n(p: int, s: int, n: int) -> CountReport:
    """Cyclic codes of any length n over GR(p^2, s)."""
    coprime, p_part = _split_length(p, s, n)
    return _product_count(p, 2, s, coprime, p_part, TOTAL, ClosedFormProvider())


def euclidean_cyclic_count_n(p: int, s: int, n: int) -> CountReport:
    """Euclidean self-dual cyclic codes of any length n over GR(p^2, s)."""
    coprime, p_part = _split_length(p, s, n)
    return _product_count(p, 2, s, coprime, p_part, EUCLIDEAN, ClosedFormProvider())


def hermitian_cyclic_count_n(p: int, s: int, n: int) -> CountReport:
    """Hermitian self-dual cyclic codes of any length n over GR(p^2, s); s even."""
    coprime, p_part = _split_length(p, s, n)
    return _product_count(p, 2, s, coprime, p_part, HERMITIAN, ClosedFormProvider())

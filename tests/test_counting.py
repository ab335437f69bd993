import re
import time

import pytest

from galcodes import counting
from galcodes.counting import (AutoProvider, BruteForceProvider,
                               ClosedFormProvider, TrivialSylowProvider,
                               abelian_count, cyclic_count_n, cyclic_count_p2,
                               euclidean_abelian_count, euclidean_cyclic_count_n,
                               euclidean_cyclic_count_p2,
                               euclidean_semisimple_count,
                               get_provider, hermitian_abelian_count,
                               hermitian_cyclic_count_n,
                               hermitian_cyclic_count_p2,
                               hermitian_semisimple_count,
                               is_principal_ideal_group_ring)
from galcodes.errors import DomainError, ProviderDomainError
from galcodes.groups import AbelianGroup, parse_group
from galcodes.ideals import exists_self_dual
from helpers import abelian_groups_up_to

TRIVIAL = AbelianGroup(())


# -- existence and principality -----------------------------------------------

def test_exists_self_dual_examples():
    assert exists_self_dual(3, 2, AbelianGroup((5,)))
    assert exists_self_dual(2, 3, AbelianGroup((6,)))
    assert not exists_self_dual(3, 1, AbelianGroup((3,)))
    assert not exists_self_dual(2, 1, AbelianGroup((7,)))
    assert exists_self_dual(2, 1, AbelianGroup((2,)))


def test_exists_is_duality_independent():
    for r in (1, 2, 3):
        for g in (TRIVIAL, AbelianGroup((3,)), AbelianGroup((2, 2))):
            assert (exists_self_dual(2, r, g, "euclidean", s=2)
                    == exists_self_dual(2, r, g, "hermitian", s=2))
    with pytest.raises(DomainError):
        exists_self_dual(2, 2, TRIVIAL, "hermitian", s=1)


def test_principal_ideal_ring_examples():
    assert is_principal_ideal_group_ring(2, 1, parse_group("Z4xZ3"))
    assert not is_principal_ideal_group_ring(2, 2, AbelianGroup((2,)))
    assert is_principal_ideal_group_ring(2, 2, AbelianGroup((3,)))
    assert not is_principal_ideal_group_ring(2, 1, AbelianGroup((2, 2)))
    assert is_principal_ideal_group_ring(5, 1, AbelianGroup((10,)))


@pytest.mark.parametrize("p, r", [(-1, 2), (0, 2), (1, 2), (4, 2), (1, 1), (2, 0)])
def test_predicates_and_length_counts_refuse_bad_rings(p, r):
    """construct_ring's rule runs before any Sylow split: p < 2 used to
    loop forever in the split, p = 0 divided by zero, and p = 4 or r = 0
    got an answer."""
    message = f"^p = {p} is not prime$" if r else "^r must be at least 1, got 0$"
    for call in (lambda: exists_self_dual(p, r, AbelianGroup((6,))),
                 lambda: is_principal_ideal_group_ring(p, r, AbelianGroup((6,)))):
        with pytest.raises(DomainError, match=message):
            call()
    if r == 2:
        for count_n in (cyclic_count_n, euclidean_cyclic_count_n):
            with pytest.raises(DomainError, match=message):
                count_n(p, 1, 6)


# -- closed forms ----------------------------------------------------------------

def test_cyclic_count_closed_forms():
    assert cyclic_count_p2(2, 1, 1) == 7
    assert cyclic_count_p2(2, 1, 2) == 23
    assert cyclic_count_p2(3, 1, 1) == 16
    assert cyclic_count_p2(2, 1, 0) == 3
    assert cyclic_count_p2(5, 2, 0) == 3


def test_euclidean_cyclic_closed_forms():
    assert euclidean_cyclic_count_p2(2, 1, 1) == 1
    assert euclidean_cyclic_count_p2(2, 1, 2) == 3
    assert euclidean_cyclic_count_p2(3, 1, 1) == 2
    assert euclidean_cyclic_count_p2(2, 1, 0) == 1
    assert euclidean_cyclic_count_p2(2, 2, 2) == 5
    assert euclidean_cyclic_count_p2(2, 1, 3) == 3 + 8 * 1


def test_hermitian_cyclic_closed_forms():
    assert hermitian_cyclic_count_p2(2, 2, 1) == 3
    assert hermitian_cyclic_count_p2(2, 2, 2) == 7
    assert hermitian_cyclic_count_p2(3, 2, 1) == 4
    assert hermitian_cyclic_count_p2(2, 2, 0) == 1
    with pytest.raises(DomainError):
        hermitian_cyclic_count_p2(2, 1, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: cyclic_count_p2(4, 1, 1), "p = 4 is not prime"),
    (lambda: hermitian_cyclic_count_p2(6, 2, 1), "p = 6 is not prime"),
    (lambda: euclidean_cyclic_count_p2(1, 1, 2), "p = 1 is not prime"),
    (lambda: cyclic_count_p2(2, 0, 1), "s must be at least 1, got 0"),
], ids=["cyclic:p=4", "hermitian:p=6", "euclidean:p=1", "cyclic:s=0"])
def test_closed_forms_refuse_a_ring_that_does_not_exist(call, message):
    # GR(p^2, s) needs p prime and s >= 1, as the providers check
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: euclidean_cyclic_count_p2(3, 1, 1.5), "a must be an integer, got 1.5"),
    (lambda: euclidean_cyclic_count_p2(2, 1, 2.5), "a must be an integer, got 2.5"),
    (lambda: cyclic_count_p2(2, 1, 1.0), "a must be an integer, got 1.0"),
    (lambda: hermitian_cyclic_count_p2(2, 2, "1"), "a must be an integer, got '1'"),
    (lambda: cyclic_count_p2(2, 1, -1), "a must be at least 0, got -1"),
    (lambda: cyclic_count_n(2, 1, 6.0), "length must be an integer, got 6.0"),
    (lambda: euclidean_cyclic_count_n(2, 1, 1.0), "length must be an integer, got 1.0"),
    (lambda: hermitian_cyclic_count_n(2, 2, 0), "length must be at least 1, got 0"),
    (lambda: euclidean_cyclic_count_p2(2, 1, True), "a must be an integer, got True"),
    (lambda: hermitian_cyclic_count_p2(2, 2, False), "a must be an integer, got False"),
    (lambda: cyclic_count_n(2, 1, True), "length must be an integer, got True"),
], ids=["euclidean:a=1.5", "euclidean:a=2.5", "cyclic:a=1.0", "hermitian:a='1'", "cyclic:a=-1",
        "cyclic_n:6.0", "euclidean_n:1.0", "hermitian_n:0", "euclidean:a=True",
        "hermitian:a=False", "cyclic_n:True"])
def test_lengths_must_be_integers(call, message):
    """euclidean_cyclic_count_p2(3, 1, 1.5) used to return the float 2.0,
    (2, 1, 2.5) raised InternalInvariantError, and cyclic_count_n(2, 1, 6.0)
    blamed the cyclic factor 3.0.  A bool is no length either:
    euclidean_cyclic_count_p2(2, 1, True) returned 1."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: abelian_count(2, 2, 1, TRIVIAL, AbelianGroup((6,))),
    lambda: ClosedFormProvider().count(2, 2, 1, AbelianGroup((6,)), "total"),
    lambda: ClosedFormProvider().count(2, 2, 1, AbelianGroup((6,)), "euclidean"),
    lambda: TrivialSylowProvider().count(2, 2, 1, AbelianGroup((6,)), "total"),
    lambda: BruteForceProvider().count(2, 2, 1, AbelianGroup((6,)), "total"),
    lambda: AutoProvider().count(2, 2, 1, AbelianGroup((6,)), "total"),
], ids=["product", "closed-total", "closed-euclidean", "trivial-total", "brute-total", "auto-total"])
def test_a_sylow_part_that_is_no_p_group_is_refused(call):
    """Every provider checks a base query one way first: the brute-force
    provider used to count GR(2^2,1)[Z6] as if Z6 were a Sylow 2-group."""
    with pytest.raises(DomainError, match=r"^Z6 is not a 2-group$") as err:
        call()
    assert not isinstance(err.value, ProviderDomainError)


def test_counts_grow_but_stay_integral():
    # doubly exponential growth; exact integer arithmetic must not overflow
    big = cyclic_count_p2(2, 1, 10)
    assert big > 2**500
    assert isinstance(big, int)


# -- providers ----------------------------------------------------------------------

def test_get_provider_names():
    assert isinstance(get_provider("auto"), AutoProvider)
    assert isinstance(get_provider("trivial"), TrivialSylowProvider)
    assert isinstance(get_provider("closed"), ClosedFormProvider)
    assert isinstance(get_provider("brute"), BruteForceProvider)
    with pytest.raises(DomainError):
        get_provider("magic")
    prov = TrivialSylowProvider()
    assert get_provider(prov) is prov


def test_trivial_provider_rejects_nontrivial_sylow():
    with pytest.raises(ProviderDomainError) as err:
        euclidean_abelian_count(2, 2, 1, AbelianGroup((3,)), AbelianGroup((2,)),
                                provider="trivial")
    assert "GR(" in str(err.value)


def test_closed_provider_rejects_r3():
    with pytest.raises(ProviderDomainError) as err:
        euclidean_abelian_count(2, 3, 1, AbelianGroup((3,)), AbelianGroup((2,)),
                                provider="closed")
    assert "r = 2" in str(err.value)


def test_closed_provider_rejects_noncyclic_sylow():
    with pytest.raises(ProviderDomainError):
        abelian_count(2, 2, 1, TRIVIAL, AbelianGroup((2, 2)), provider="closed")


@pytest.mark.parametrize("provider", [TrivialSylowProvider(), ClosedFormProvider()])
@pytest.mark.parametrize("p, r, p_group, message", [
    (1, 2, (), "p = 1 is not prime"), (4, 2, (), "p = 4 is not prime"),
    (4, 2, (4,), "p = 4 is not prime"), (1, 2, (2,), "p = 1 is not prime"),
    (2, 0, (), "r must be at least 1, got 0"), (2, 0, (2,), "r must be at least 1, got 0")])
def test_closed_providers_refuse_a_ring_that_does_not_exist(provider, p, r, p_group, message):
    """The ring check comes before the provider's own domain: "GR(4^2,1)"
    used to get 3 from the trivial provider and 29 from the closed forms,
    and p = 1 reached valuation's ValueError."""
    for kind in ("total", "euclidean"):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
            provider.count(p, r, 1, AbelianGroup(p_group), kind)
        assert not isinstance(err.value, ProviderDomainError)


@pytest.mark.parametrize("call", [
    lambda: hermitian_cyclic_count_p2(2, 1, 1),
    lambda: TrivialSylowProvider().count(2, 2, 1, TRIVIAL, "hermitian"),
    lambda: ClosedFormProvider().count(2, 2, 1, AbelianGroup((2,)), "hermitian"),
], ids=["closed-form", "trivial", "closed"])
def test_odd_degree_hermitian_counts_get_the_pairing_refusal(call):
    with pytest.raises(DomainError, match=r"^Hermitian pairing needs even degree s$"):
        call()


@pytest.mark.parametrize("provider, r, s, p_group", [
    (TrivialSylowProvider(), 2, 2, ()), (ClosedFormProvider(), 2, 2, (2,)),
    (BruteForceProvider(bound=1 << 16), 2, 1, (2,)),
    # outside the provider's own domain: nontrivial P, r = 3, over the bound
    (TrivialSylowProvider(), 2, 1, (2,)), (ClosedFormProvider(), 3, 1, (2,)),
    (BruteForceProvider(bound=4), 2, 1, (2,))],
    ids=["trivial", "closed", "brute", "trivial-outside", "closed-outside", "brute-outside"])
def test_base_counts_refuse_an_unknown_kind(provider, r, s, p_group):
    """The trivial provider used to give 1 for "bogus" and the closed forms
    the Hermitian count 3; outside each provider's domain the refusal's
    description raised KeyError."""
    with pytest.raises(DomainError, match=r"^unknown pairing 'bogus'$"):
        provider.count(2, r, s, AbelianGroup(p_group), "bogus")


def test_brute_provider_respects_bound():
    with pytest.raises(ProviderDomainError) as err:
        abelian_count(2, 2, 1, TRIVIAL, AbelianGroup((16,)),
                      provider=BruteForceProvider(bound=1024))
    assert "exceeds the bound" in str(err.value)


@pytest.mark.parametrize("p, factors, total", [(2, (4,), 23), (3, (3,), 16)])
def test_brute_force_counts_every_ideal(p, factors, total, monkeypatch):
    """Z4[Z4] and Z9[Z3] by enumeration, against the r = 2 closed form; an
    empty cache makes the count run."""
    monkeypatch.setattr(counting, "_BRUTE_CACHE", {})
    assert BruteForceProvider().count(p, 2, 1, AbelianGroup(factors), "total") == total
    assert counting._BRUTE_CACHE == {(p, 2, 1, factors, "total"): total}
    assert cyclic_count_p2(p, 1, 1 if p == 3 else 2) == total


def test_cached_brute_count_is_refused_under_a_smaller_bound():
    group = AbelianGroup((2, 2))
    assert BruteForceProvider(bound=1 << 16).count(2, 2, 1, group, "euclidean") == 3
    with pytest.raises(ProviderDomainError, match="ring size 256 exceeds the bound 64"):
        BruteForceProvider(bound=64).count(2, 2, 1, group, "euclidean")


@pytest.mark.parametrize("r, p_group, size", [
    (3, "Z64xZ64", "2^12288"), (3, "Z64xZ128", "2^24576"), (40, "Z2", "2^80")])
def test_auto_fall_through_refuses_fast_naming_size_and_bound(monkeypatch, r, p_group, size):
    # GR(2^r,1)[P] has no closed form; the brute-force engine refuses it at
    # once, whether |P| or p^r is large, and names sizes too long to print
    # in decimal as powers
    monkeypatch.delenv("GALCODES_MAX_RING_SIZE", raising=False)
    start = time.perf_counter()
    with pytest.raises(ProviderDomainError) as err:
        euclidean_abelian_count(2, r, 1, TRIVIAL, parse_group(p_group))
    assert time.perf_counter() - start < 1
    assert (f"GR(2^{r},1)[{p_group}] unavailable: ring size {size} exceeds the bound 65536"
            in str(err.value))


def test_auto_provider_names_choice():
    report = euclidean_abelian_count(2, 2, 1, AbelianGroup((3,)), AbelianGroup((2,)))
    assert report.provider == "auto"
    by_factor = {f.divisor: f for f in report.factors}
    assert by_factor[1].provider == "closed-form"


def test_auto_provider_counts_through_its_chain():
    """AutoProvider had no count method, so calling one raised AttributeError."""
    assert AutoProvider().count(2, 2, 1, AbelianGroup((2,)), "total") == cyclic_count_p2(2, 1, 1)
    assert AutoProvider().count(2, 2, 1, AbelianGroup((2, 2)), "euclidean") == 3


@pytest.mark.parametrize("provider, kind", [(None, "NoneType"), (5, "int"), (object(), "object")],
                         ids=["None", "int", "object"])
def test_a_provider_that_is_neither_a_name_nor_has_count_is_refused(provider, kind):
    """provider=None, 5 or object() used to raise AttributeError from _query."""
    message = f"a provider is a name or has a count method and a name; got type {kind}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        abelian_count(2, 2, 1, AbelianGroup((3,)), AbelianGroup((2,)), provider=provider)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        get_provider(provider)


@pytest.mark.parametrize("provider", [TrivialSylowProvider, AutoProvider], ids=lambda c: c.__name__)
def test_a_provider_class_is_refused(provider):
    """A class has count and name, but count needs an instance: it used to
    raise TypeError (missing argument 'kind') from _query."""
    message = f"a provider is a name or an instance, got the class {provider.__name__}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        abelian_count(2, 2, 1, AbelianGroup((3,)), provider=provider)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        get_provider(provider)


class _Unnamed:
    def count(self, p, r, s2, p_group, kind):
        return 1


@pytest.mark.parametrize("provider, kind", [([1], "list"), ((1,), "tuple"), (_Unnamed(), "_Unnamed")],
                         ids=["list", "tuple", "unnamed"])
def test_a_provider_with_count_but_no_name_is_refused(provider, kind):
    """[1] and (1,) used to raise TypeError from _query, and an object with
    count but no name AttributeError when the report read its name."""
    message = f"a provider is a name or has a count method and a name; got type {kind}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        abelian_count(2, 2, 1, AbelianGroup((3,)), AbelianGroup((2,)), provider=provider)


def test_a_custom_provider_with_count_and_name_counts():
    class Fixed(_Unnamed):
        name = "fixed"

    report = abelian_count(2, 2, 1, AbelianGroup((3,)), AbelianGroup((2,)), provider=Fixed())
    assert (report.count, report.provider) == (1, "fixed")
    assert {f.provider for f in report.factors} == {"fixed"}


# -- the product formula ----------------------------------------------------------------

def test_general_count_example():
    report = euclidean_abelian_count(2, 2, 1, AbelianGroup((3,)), AbelianGroup((2,)),
                                     provider="closed")
    assert report.count == 3
    by_divisor = {f.divisor: f for f in report.factors}
    assert set(by_divisor) == {1, 3}
    assert by_divisor[1].factor == 1
    assert by_divisor[1].base_kind == "euclidean"
    assert by_divisor[3].factor == 3
    assert by_divisor[3].base_kind == "hermitian"
    assert by_divisor[3].base_degree == 2
    assert by_divisor[3].exponent == 1


def test_general_count_degenerate_coprime_part():
    report = euclidean_abelian_count(3, 2, 1, TRIVIAL, AbelianGroup((3,)),
                                     provider="closed")
    assert report.count == 2


def test_semisimple_examples():
    assert euclidean_semisimple_count(2, 2, 1, AbelianGroup((7,))).count == 3
    assert euclidean_semisimple_count(3, 2, 1, AbelianGroup((2,))).count == 1
    assert euclidean_semisimple_count(2, 1, 1, AbelianGroup((7,))).count == 0
    assert euclidean_semisimple_count(5, 3, 1, AbelianGroup((2,))).count == 0
    assert hermitian_semisimple_count(2, 2, 2, AbelianGroup((5,))).count == 3


def test_general_with_trivial_sylow_matches_semisimple():
    for p in (2, 3):
        for g in abelian_groups_up_to(50):
            if g.order % p == 0:
                continue
            general = euclidean_abelian_count(p, 2, 1, g, provider="trivial")
            semi = euclidean_semisimple_count(p, 2, 1, g)
            assert general.count == semi.count, g
            general_h = hermitian_abelian_count(p, 2, 2, g, provider="trivial")
            semi_h = hermitian_semisimple_count(p, 2, 2, g)
            assert general_h.count == semi_h.count, g


def test_count_positive_iff_exists():
    for p, r, a_factors, p_factors in [
            (2, 1, (), (2,)), (2, 1, (3,), (2,)), (2, 1, (3,), ()),
            (2, 2, (5,), (2,)), (2, 2, (), ()), (3, 1, (2,), (3,)),
            (3, 2, (2,), (3,)), (2, 3, (3,), (2,)), (3, 3, (2,), ())]:
        A, P = AbelianGroup(a_factors), AbelianGroup(p_factors)
        G = AbelianGroup(a_factors + p_factors)
        report = euclidean_abelian_count(p, r, 1, A, P, provider="brute")
        assert (report.count > 0) == exists_self_dual(p, r, G), (p, r, G)


def test_report_breakdown_multiplies_to_count():
    report = euclidean_abelian_count(2, 2, 1, AbelianGroup((15,)))
    prod = 1
    for f in report.factors:
        assert f.factor == f.base_value**f.exponent
        prod *= f.factor
    assert prod == report.count
    assert report.count == 3  # d = 15 is the only bad divisor, one pair slot
    by_divisor = {f.divisor: f for f in report.factors}
    assert by_divisor[15].slot_type == "pair"
    assert by_divisor[5].slot_type == "conjugate-single"


def test_rejects_bad_parameters():
    with pytest.raises(DomainError):
        euclidean_abelian_count(2, 2, 1, AbelianGroup((2,)))  # |A| not coprime
    with pytest.raises(DomainError):
        abelian_count(2, 2, 1, AbelianGroup((3,)), AbelianGroup((6,)))  # P not a p-group
    with pytest.raises(DomainError):
        hermitian_abelian_count(2, 2, 1, AbelianGroup((3,)))  # odd s


# -- arbitrary cyclic lengths -------------------------------------------------------------

def test_cyclic_length_examples():
    assert euclidean_cyclic_count_n(2, 1, 6).count == 3
    assert euclidean_cyclic_count_n(2, 1, 2).count == 1
    assert euclidean_cyclic_count_n(3, 1, 3).count == 2
    assert cyclic_count_n(2, 1, 2).count == 7
    assert hermitian_cyclic_count_n(2, 2, 2).count == 3


def test_cyclic_length_specializes_the_product_formula():
    from galcodes.numth import valuation
    for p, s in ((2, 1), (3, 1), (2, 2)):
        for n in range(1, 31):
            if n % p and n == 1:
                pass
            a = valuation(n, p)
            m = n // p**a
            A = AbelianGroup((m,)) if m > 1 else TRIVIAL
            P = AbelianGroup((p**a,)) if a else TRIVIAL
            direct = euclidean_cyclic_count_n(p, s, n)
            general = euclidean_abelian_count(p, 2, s, A, P, provider="closed")
            assert direct.count == general.count, (p, s, n)
            total = cyclic_count_n(p, s, n)
            general_t = abelian_count(p, 2, s, A, P, provider="closed")
            assert total.count == general_t.count, (p, s, n)


def test_cyclic_length_rejects_nonpositive():
    with pytest.raises(DomainError):
        euclidean_cyclic_count_n(2, 1, 0)

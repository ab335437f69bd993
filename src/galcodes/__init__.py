"""Exact computer algebra for abelian codes over Galois rings.

Galois-ring arithmetic with canonical Teichmuller generators, group-ring
elements and their character-transform decompositions, exhaustive ideal
enumeration in small group rings, and the closed-form counts of self-dual
codes with a pluggable provider for the base cases.
"""

from .errors import (BoundExceededError, DomainError, InternalInvariantError,
                     ProviderDomainError)
from .galois import (GaloisRingElement, GaloisRingSpec, construct_ring, embed,
                     generalized_frobenius, parse_ring_name, ring_name,
                     root_of_unity, teichmuller_digits, teichmuller_lift,
                     unembed)
from .groups import (AbelianGroup, character_exponent, count_order_formula,
                     format_group, order_census, parse_group, sylow_decompose)
from .cyclotomic import (CyclotomicClass, ClassPartition, PairGoodness,
                         bad_pair_indicator, classify_pair, even_pair_indicator,
                         partition)
from .group_ring import (GroupRing, GroupRingElement, ambient, compose, conjugate,
                         conjugate_involution, decompose_euclidean,
                         decompose_hermitian, dft, idft, involution, sylow_merge,
                         sylow_split)
from .ideals import (ExhaustiveGroupRing, Ideal, SelfDualConstruction,
                     SemisimpleSelfDualFamily, construct_self_dual,
                     enumerate_semisimple_selfdual, exhaustive_bound, exists_self_dual)
from .counting import (CountReport, DivisorFactor, abelian_count,
                       cyclic_count_n, cyclic_count_p2, euclidean_abelian_count,
                       euclidean_cyclic_count_n, euclidean_cyclic_count_p2,
                       euclidean_semisimple_count, hermitian_abelian_count,
                       hermitian_cyclic_count_n, hermitian_cyclic_count_p2,
                       hermitian_semisimple_count, is_principal_ideal_group_ring)

__version__ = "0.1.0"

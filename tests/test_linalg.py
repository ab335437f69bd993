import itertools
import random

import pytest

from galcodes.linalg import howell, kernel, pivot
from helpers import kernel_by_full_howell

MODULI = [(2, 2), (2, 3), (3, 2), (3, 3)]


def size(basis, m):
    out = 1
    for row in basis:
        out *= m // row[pivot(row)]
    return out


def annihilates(w, mat, m):
    return all(sum(a * row[j] for a, row in zip(w, mat)) % m == 0 for j in range(len(mat[0])))


def random_matrix(rng, p, r, n, k):
    """Entries lean to multiples of p, so that the kernel has torsion rows."""
    m = p**r
    return [tuple(rng.randrange(m) * p**rng.choice((0, 0, 1, r - 1)) % m for _ in range(k))
            for _ in range(n)]


@pytest.mark.parametrize("p, r", MODULI, ids=[f"Z{p**r}" for p, r in MODULI])
def test_kernel_annihilates_and_has_the_index_of_the_image(p, r):
    """On 300 seeded n x k matrices per modulus: every kernel row w has
    w * B = 0, the kernel is its own Howell form, and |kernel| * |image|
    = m^n, the image being the row span of B."""
    m = p**r
    rng = random.Random(m)
    for _ in range(300):
        n, k = rng.randint(1, 7), rng.randint(0, 6)
        mat = random_matrix(rng, p, r, n, k)
        ker = kernel(mat, p, r)
        assert all(len(w) == n and annihilates(w, mat, m) for w in ker), mat
        assert howell(ker, p, r) == ker, mat
        assert size(ker, m) * size(howell(mat, p, r), m) == m**n, mat


# (p, r, n): every row count with m^n <= 4096
SCAN_SHAPES = [(p, r, n) for p, r in MODULI for n in range(1, 7) if (p**r)**n <= 4096]


@pytest.mark.parametrize("p, r, n", SCAN_SHAPES,
                         ids=[f"Z{p**r}-n{n}" for p, r, n in SCAN_SHAPES])
def test_kernel_equals_the_scanned_kernel(p, r, n):
    """kernel(B) is the Howell form of the vectors that a scan of all m^n
    vectors finds annihilating B, and has as many elements."""
    m = p**r
    rng = random.Random(1000 * m + n)
    for k in range(4):
        for _ in range(3):
            mat = random_matrix(rng, p, r, n, k)
            scanned = [w for w in itertools.product(range(m), repeat=n)
                       if annihilates(w, mat, m)]
            ker = kernel(mat, p, r)
            assert ker == howell(scanned, p, r), mat
            assert size(ker, m) == len(scanned), mat


FULL_HOWELL_MODULI = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 40)]


@pytest.mark.parametrize("p, r", FULL_HOWELL_MODULI, ids=[f"Z{p}^{r}" for p, r in FULL_HOWELL_MODULI])
def test_kernel_equals_the_kernel_of_the_full_howell_form(p, r):
    """kernel sweeps only mat's columns; the oracle reads the kernel off the
    full Howell form of [mat | I_n].  Every shape n in 1..8, k in 0..9, four
    seeded matrices each (320 per modulus): one as drawn, one with some
    rows zeroed, one with some columns zeroed, one with both."""
    m = p**r
    rng = random.Random(m % 1000003 + r)
    for n in range(1, 9):
        for k in range(10):
            for variant in range(4):
                mat = [list(row) for row in random_matrix(rng, p, r, n, k)]
                if variant & 1:
                    for i in rng.sample(range(n), rng.randint(1, n)):
                        mat[i] = [0] * k
                if variant & 2 and k:
                    for j in rng.sample(range(k), rng.randint(1, k)):
                        for row in mat:
                            row[j] = 0
                assert kernel(mat, p, r) == kernel_by_full_howell(mat, p, r), mat


def pivot_by_enumeration(row):
    """The first index whose entry is nonzero, by enumerating the row."""
    return next(i for i, a in enumerate(row) if a)


@pytest.mark.parametrize("m", [4, 27, 2**40], ids=["Z4", "Z27", "Z2^40"])
def test_pivot_is_the_first_nonzero_column(m):
    """On 500 seeded rows per modulus, tuples and lists, with runs of
    leading zeros: pivot equals its enumerating definition, and both raise
    StopIteration on a zero row."""
    rng = random.Random(m)
    for _ in range(500):
        zeros, tail = rng.randint(0, 12), rng.randint(1, 8)
        row = [0] * zeros + [rng.randrange(1, m)] + [rng.randrange(m) for _ in range(tail - 1)]
        for kind in (tuple, list):
            assert pivot(kind(row)) == pivot_by_enumeration(row) == zeros, row
    for kind in (tuple, list):
        for width in (0, 1, 5):
            with pytest.raises(StopIteration):
                pivot(kind([0] * width))
            with pytest.raises(StopIteration):
                pivot_by_enumeration(kind([0] * width))

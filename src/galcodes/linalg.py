"""Linear algebra over Z_{p^r} on plain rows: Howell form, coset remainder, kernel.

Rows are sequences of digits in [0, p^r), all of one width, which may be
any width: ring vectors and matrix rows alike.  A basis is a Howell basis
as howell returns it, whose pivots are all powers p^e.

howell and kernel share one column sweep, _sweep.  howell sweeps every
column and reduces the rows above each pivot; kernel sweeps only the
columns of B in [B | I_n] and returns the howell of the I_n parts of the
rows left over.
"""

from __future__ import annotations

from math import gcd


def pivot(row) -> int:
    """Column of the leading (first nonzero) entry of a nonzero row, a
    tuple or a list."""
    return row.index(next(filter(None, row)))


def _sweep(rest, columns, m: int):
    """The column sweep behind howell and kernel, over the given columns, in
    order, of the nonzero rows rest (lists of digits mod m, consumed): the
    pivot rows found, their columns, and the rows that remain.

    Before column c the remaining rows span the vectors of the span that
    vanish left of c.  The pivot is the last of them whose entry at c has
    the least valuation e, that is the least gcd with m (the first would
    fill in kernel's [B | I_n]); scaled to lead with p^e, it clears column
    c from the others and adds its p^(r-e) multiple to them.
    """
    out, cols = [], []
    for c in columns:
        k, lead = None, m
        for i, row in enumerate(rest):
            if row[c]:
                g = gcd(row[c], m)
                if g <= lead:
                    k, lead = i, g
        if k is None:
            continue
        row = rest.pop(k)
        if row[c] != lead:
            u = pow(row[c] // lead, -1, m)
            row = [a * u % m for a in row]
        for i, other in enumerate(rest):
            q = other[c] // lead
            if q:
                rest[i] = [(a - q * b) % m for a, b in zip(other, row)]
        if lead > 1:
            rest.append([a * (m // lead) % m for a in row])
        out.append(row)
        cols.append(c)
    return out, cols, rest


def howell(rows, p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the Z_{p^r}-span of rows.

    Echelon with pivot entries normalized to powers of p, spans
    saturated with p^(r-e) multiples of each pivot row, entries above
    a pivot reduced modulo its leading value.  Two row sets span the
    same module iff their forms are identical.

    One _sweep over every column, then each pivot row reduces the rows
    above it.
    """
    m = p**r
    rest = [list(row) for row in rows if any(row)]
    out, cols, _ = _sweep(rest, range(len(rest[0]) if rest else 0), m)
    for k in range(len(out)):
        lead = out[k][cols[k]]
        for j in range(k):
            q = out[j][cols[k]] // lead
            if q:
                out[j] = [(a - q * b) % m for a, b in zip(out[j], out[k])]
    return tuple(tuple(row) for row in out)


def remainder(basis, vec, m: int) -> tuple[int, ...]:
    """vec reduced mod m by the Howell basis rows in pivot order, each
    pivot digit taken below its lead.  The Howell property makes this one
    representative per coset of the span, zero exactly on the span."""
    w = vec
    for row in basis:
        c = pivot(row)
        q = w[c] // row[c]
        if q:
            w = tuple((x - q * y) % m for x, y in zip(w, row))
    return tuple(w)


def kernel(mat, p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Howell basis of the left kernel {w : sum_i w_i * mat[i] = 0} over Z_{p^r}.

    With mat of n >= 1 rows and k columns, _sweep runs over the k columns
    of [mat | I_n] only.  By its invariant the rows left over span the
    vectors of the span that vanish on those columns, whose I_n parts are
    the kernel; the Howell form of those parts is its canonical basis
    (J. A. Howell, "Spans in the module (Z_m)^s", 1986; A. Storjohann and
    T. Mulders, "Fast algorithms for linear algebra modulo N", ESA 1998).
    The pivot rows of the k columns are dropped unreduced: the kernel needs
    none of them.
    """
    n, k = len(mat), len(mat[0])
    zeros = [0] * n
    rows = [[*row, *zeros] for row in mat]
    for i, row in enumerate(rows):
        row[k + i] = 1
    _, _, rest = _sweep(rows, range(k), p**r)
    return howell([row[k:] for row in rest], p, r)

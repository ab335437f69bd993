"""Linear algebra over Z_{p^r} on plain rows: Howell form, coset remainder, kernel.

Rows are sequences of digits in [0, p^r), all of one width, which may be
any width: ring vectors and matrix rows alike.  A basis is a Howell basis
as howell returns it, whose pivots are all powers p^e.

howell is one sweep over the columns, each pivot the last remaining row
of least valuation at its column: the last, not the first, keeps the
fill-in of kernel's [B | I_n] rows low.
"""

from __future__ import annotations

from math import gcd


def pivot(row) -> int:
    """Column of the leading (first nonzero) entry of a nonzero row, a
    tuple or a list."""
    return row.index(next(filter(None, row)))


def howell(rows, p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the Z_{p^r}-span of rows.

    Echelon with pivot entries normalized to powers of p, spans
    saturated with p^(r-e) multiples of each pivot row, entries above
    a pivot reduced modulo its leading value.  Two row sets span the
    same module iff their forms are identical.

    One sweep over the columns: before column c the remaining rows span
    the vectors of the span that vanish left of c.  The pivot is the last
    of them whose entry at c has the least valuation e, that is the least
    gcd with p^r (the first would fill in kernel's [B | I_n]); scaled to
    lead with p^e, it clears column c from the others and adds its
    p^(r-e) multiple to them.
    """
    m = p**r
    rest = [list(row) for row in rows if any(row)]
    out, cols = [], []
    for c in range(len(rest[0]) if rest else 0):
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

    With mat of n >= 1 rows and k columns, the Howell form of [mat | I_n]
    keeps the Howell property: its rows whose mat part is zero span the
    kernel, and their I_n parts are already its Howell basis (J. A. Howell,
    "Spans in the module (Z_m)^s", 1986; A. Storjohann and T. Mulders,
    "Fast algorithms for linear algebra modulo N", ESA 1998).
    """
    n, k = len(mat), len(mat[0])
    zeros = [0] * n
    rows = [[*row, *zeros] for row in mat]
    for i, row in enumerate(rows):
        row[k + i] = 1
    return tuple(row[k:] for row in howell(rows, p, r) if not any(row[:k]))

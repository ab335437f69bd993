"""Linear algebra over Z_{p^r} on plain rows: Howell form, coset remainder, kernel.

Rows are sequences of digits in [0, p^r), all of one width, which may be
any width: ring vectors and matrix rows alike.  A basis is a Howell basis
as howell returns it, whose pivots are all powers p^e.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def _unit_inverses(m: int) -> dict[int, int]:
    """Memo of unit inverses mod m, filled by howell as it meets pivots: a
    full table would cost O(m)."""
    return {}


def pivot(row) -> int:
    """Column of the leading (first nonzero) entry of a nonzero row."""
    return next(i for i, a in enumerate(row) if a)


def howell(rows, p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the Z_{p^r}-span of rows.

    Echelon with pivot entries normalized to powers of p, spans
    saturated with p^(r-e) multiples of each pivot row, entries above
    a pivot reduced modulo its leading value.  Two row sets span the
    same module iff their forms are identical.
    """
    m = p**r
    inv = _unit_inverses(m)
    stack = [list(row) for row in rows if any(row)]
    if not stack:
        return ()
    n = len(stack[0])
    pivots: list = [None] * n
    while stack:
        row = stack.pop()
        c = 0
        while c < n and not row[c]:
            c += 1
        if c == n:
            continue
        v = row[c]
        e = 0
        while v % p == 0:
            v //= p
            e += 1
        if v != 1:
            u = inv.get(v)
            if u is None:
                u = inv[v] = pow(v, -1, m)
            row = [a * u % m for a in row]
        cur = pivots[c]
        if cur is None:
            pivots[c] = row
            if e:
                extra = [a * p**(r - e) % m for a in row]
                if any(extra):
                    stack.append(extra)
            continue
        if row[c] < cur[c]:
            # a smaller valuation e takes the slot from cur (valuation e'),
            # pushing no saturation row: p^(r-e) * row is p^(r-e') * (cur - new)
            # for new below, and both lie in the span of the later pivots
            pivots[c] = row
            row, cur = cur, row
        q = row[c] // cur[c]
        new = [(a - q * b) % m for a, b in zip(row, cur)]
        if any(new):
            stack.append(new)
    cols = [c for c in range(n) if pivots[c] is not None]
    out = [pivots[c] for c in cols]
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

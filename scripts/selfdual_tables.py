#!/usr/bin/env python3
"""Regenerate the cyclic self-dual count tables over GR(p^2, s).

One CSV per (p, s) pair: columns n, NC, NEC, NHC, with NHC left empty
when s is odd.  --check recomputes every row whose ambient ring fits the
exhaustive bound by join-closure enumeration and fails loudly on any
mismatch, so a finished run certifies the small rows of each table.
"""

import argparse
import csv
import sys
from pathlib import Path

from galcodes import (AbelianGroup, BoundExceededError, GroupRing, construct_ring,
                      cyclic_count_n, euclidean_cyclic_count_n,
                      hermitian_cyclic_count_n)
from galcodes.ideals import ExhaustiveGroupRing

DEFAULT_PAIRS = "2:1,2:2,3:1,3:2,5:1"


def rows(p: int, s: int, max_n: int):
    for n in range(1, max_n + 1):
        nc = cyclic_count_n(p, s, n).count
        nec = euclidean_cyclic_count_n(p, s, n).count
        nhc = hermitian_cyclic_count_n(p, s, n).count if s % 2 == 0 else ""
        yield n, nc, nec, nhc


def recheck(p: int, s: int, n: int, nc: int, nec: int, nhc) -> bool:
    """Enumeration oracle for one row; False when the ring exceeds the
    exhaustive bound and enumeration refuses it."""
    group = AbelianGroup((n,) if n > 1 else ())
    eng = ExhaustiveGroupRing(GroupRing(construct_ring(p, 2, s), group))
    try:
        codes = eng.enumerate_ideals()
    except BoundExceededError:
        return False
    assert len(codes) == nc, (p, s, n, len(codes))
    found = sum(eng.is_self_dual(c) for c in codes)
    assert found == nec, (p, s, n, found)
    if s % 2 == 0:
        found = sum(eng.is_self_dual(c, "hermitian") for c in codes)
        assert found == nhc, (p, s, n, found)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=12)
    ap.add_argument("--pairs", default=DEFAULT_PAIRS,
                    help="comma-separated p:s pairs (default %(default)s)")
    ap.add_argument("--out", type=Path, default=Path("tables"))
    ap.add_argument("--check", action="store_true",
                    help="recheck in-bound rows by exhaustive enumeration")
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    for token in args.pairs.split(","):
        p, s = (int(t) for t in token.split(":"))
        path = args.out / f"selfdual_p{p}_s{s}.csv"
        checked = 0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "NC", "NEC", "NHC"])
            for n, nc, nec, nhc in rows(p, s, args.max_n):
                writer.writerow([n, nc, nec, nhc])
                if args.check and recheck(p, s, n, nc, nec, nhc):
                    checked += 1
        note = f", {checked} rows rechecked" if args.check else ""
        print(f"wrote {path}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

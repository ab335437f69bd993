#!/usr/bin/env python3
"""Write perfbench/expected.json, the answers the benchmark checks against.

    python3 perfbench/make_expected.py

count_stream: a fixed universe of product-formula queries, drawn from a
constant seed, with the bit length and digest of each count as computed
by the checkout's galcodes, and the time the query took while recording
(cost_ms), which the benchmark uses only to cut the universe into cost
strata.  Every row whose group ring has at most EXHAUSTIVE_BOUND (2^16)
elements is recounted independently by exhaustive ideal enumeration
(ExhaustiveGroupRing) and must agree.

ideal_enum: ideal and self-dual counts of each listed ring that has no
closed form, by enumeration.  Rings with a closed form are checked at run
time against the formula instead.

The file is recorded once, at the commit that defines the benchmark;
rerunning it at a later commit records that commit's answers.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import galcodes as gc  # noqa: E402
from galcodes.ideals import ExhaustiveGroupRing  # noqa: E402

from workloads import (EUCLIDEAN, EXHAUSTIVE_BOUND, EXPECTED_PATH, HERMITIAN,  # noqa: E402
                       IDEAL_RINGS, SMOKE_IDEAL_RINGS, TOTAL, COUNT_FUNCTIONS,
                       closed_form_counts, count_digest, ring_key)

UNIVERSE_SEED = 1406_3794
UNIVERSE_SIZE = 3000
MAX_ORDER = 12_000
PRIMES = (2, 3, 5, 7)
CYCLIC_P_SHARE = 0.35


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _random_factors(n: int, parts: int, rng: random.Random) -> list[int]:
    """Split n into at most `parts` cyclic factors by scattering its primes."""
    bins = [1] * parts
    for q in _prime_factors(n):
        bins[rng.randrange(parts)] *= q
    return sorted(b for b in bins if b > 1)


def draw_row(rng: random.Random) -> dict:
    p = rng.choice(PRIMES)
    n = max(1, round(math.exp(rng.uniform(0.0, math.log(MAX_ORDER)))))
    while n % p == 0:
        n += 1
    a_factors = _random_factors(n, rng.randint(1, 3), rng)
    if rng.random() < CYCLIC_P_SHARE:
        # r = 2 with cyclic P: the closed forms answer
        r, p_factors = 2, [p ** (rng.randint(1, 2) if p <= 3 else 1)]
    else:
        r, p_factors = rng.randint(1, 4), []
    s = rng.randint(1, 4)
    dualities = (TOTAL, EUCLIDEAN, HERMITIAN) if s % 2 == 0 else (TOTAL, EUCLIDEAN)
    return {"p": p, "r": r, "s": s, "A": a_factors, "P": p_factors,
            "duality": rng.choice(dualities)}


def exhaustive_count(p, r, s, a_factors, p_factors, kind, bound) -> int:
    ring = gc.GroupRing(gc.construct_ring(p, r, s), gc.AbelianGroup(tuple(a_factors + p_factors)))
    engine = ExhaustiveGroupRing(ring, bound)
    if kind == TOTAL:
        return len(engine.enumerate_ideals())
    return engine.count_self_dual(kind)


def count_rows() -> list[dict]:
    rng = random.Random(UNIVERSE_SEED)
    rows, confirmed, cache = [], 0, {}
    while len(rows) < UNIVERSE_SIZE:
        row = draw_row(rng)
        fn = getattr(gc, COUNT_FUNCTIONS[row["duality"]])
        start = time.perf_counter()
        count = fn(row["p"], row["r"], row["s"], gc.AbelianGroup(tuple(row["A"])),
                   gc.AbelianGroup(tuple(row["P"])),
                   provider=gc.counting.AutoProvider(bound=EXHAUSTIVE_BOUND)).count
        row["cost_ms"] = round((time.perf_counter() - start) * 1000, 3)
        order = math.prod(row["A"]) * math.prod(row["P"])
        if row["p"] ** (row["r"] * row["s"] * order) <= EXHAUSTIVE_BOUND:
            key = (row["p"], row["r"], row["s"], tuple(row["A"]), tuple(row["P"]), row["duality"])
            if key not in cache:
                cache[key] = exhaustive_count(row["p"], row["r"], row["s"], row["A"], row["P"],
                                              row["duality"], EXHAUSTIVE_BOUND)
            if cache[key] != count:
                raise SystemExit(f"product formula {count} != enumeration {cache[key]} for {key}")
            confirmed += 1
        row["bits"] = count.bit_length()
        row["digest"] = count_digest(count)
        rows.append(row)
    print(f"count_stream: {len(rows)} rows, {confirmed} confirmed by enumeration "
          f"({len(cache)} distinct rings)", file=sys.stderr)
    return rows


def ideal_rows() -> dict:
    out = {}
    for p, r, s, a_factors, p_factors in IDEAL_RINGS + SMOKE_IDEAL_RINGS:
        a_group, p_group = gc.AbelianGroup(a_factors), gc.AbelianGroup(p_factors)
        forms = (EUCLIDEAN, HERMITIAN) if s % 2 == 0 else (EUCLIDEAN,)
        counts = {kind: exhaustive_count(p, r, s, list(a_factors), list(p_factors), kind,
                                         EXHAUSTIVE_BOUND) for kind in (TOTAL,) + forms}
        closed = closed_form_counts(p, r, s, a_group, p_group)
        if closed is not None:
            if closed != counts:
                raise SystemExit(f"closed form {closed} != enumeration {counts} "
                                 f"for {ring_key(p, r, s, a_factors, p_factors)}")
            continue
        out[ring_key(p, r, s, a_factors, p_factors)] = counts
    return out


def main() -> int:
    start = time.perf_counter()
    data = {"count_stream": count_rows(), "ideal_enum": ideal_rows()}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH.name} in {time.perf_counter() - start:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
